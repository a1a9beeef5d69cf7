//! Deferred (lazy) expression graphs over [`DistArray`].
//!
//! Eager chains like `a.zip_map(..).map(..)` materialize one full
//! distributed array per operator — one memory sweep each. The deferred
//! counterparts on [`Expr`] only *describe* the computation: leaf arrays,
//! scalar constants, unary/binary elementwise maps, circular and end-off
//! shift offsets, and a broadcast axis. The fusing evaluator in
//! `dpf-comm::fuse` then walks the graph once per owned block, producing
//! the whole chain in a single pass with no intermediate arrays (scratch
//! chunks come from the `Ctx` buffer pool), while replaying exactly the
//! FLOP charges and logical communication records the eager chain would
//! have made — the ArBB-style fusion model the ROADMAP calls for.
//!
//! An `Expr` borrows its leaf arrays, so a graph is built, evaluated and
//! dropped within one kernel step:
//!
//! ```ignore
//! let q = Expr::leaf(&diag)
//!     .zip(Expr::leaf(&v), 1, |d, x| d * x)
//!     .zip(Expr::leaf(&lower).zip(Expr::leaf(&v).shift(0, -1), 1, |l, x| l * x), 1, |a, b| a + b);
//! let out = dpf_comm::fuse::eval(&ctx, &q);
//! ```

use crate::{DistArray, Layout};
use dpf_core::Elem;
use std::sync::Arc;

/// A shared unary elementwise closure (`Arc` so expression graphs clone
/// cheaply).
pub type UnaryFn<T> = Arc<dyn Fn(T) -> T + Send + Sync>;

/// A shared binary elementwise closure.
pub type BinaryFn<T> = Arc<dyn Fn(T, T) -> T + Send + Sync>;

/// Boundary handling of a shift: of a deferred shift node, of the eager
/// `cshift`/`eoshift` and, as `dpf-comm`'s `StencilBoundary`, of every
/// shift in a stencil's CSHIFT composition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShiftBoundary<T> {
    /// Periodic wrap-around (`cshift`).
    Cyclic,
    /// End-off: vacated positions read the fill value (`eoshift`).
    Fill(T),
}

/// A deferred data-parallel expression over borrowed [`DistArray`] leaves.
///
/// The variants are public so the fusing evaluator (in `dpf-comm`, which
/// owns the halo machinery) can walk the graph; user code builds graphs
/// through [`Expr::leaf`], [`Expr::lit`] and the combinator methods.
#[derive(Clone)]
pub enum Expr<'a, T: Elem> {
    /// A borrowed input array.
    Leaf(&'a DistArray<T>),
    /// A scalar broadcast to every element (shape-polymorphic).
    Const(T),
    /// Unary elementwise map.
    Unary {
        /// FLOPs charged per element, exactly as the eager `map` would.
        flops: u64,
        /// The elementwise function.
        f: UnaryFn<T>,
        /// Input subexpression.
        child: Box<Expr<'a, T>>,
    },
    /// Binary elementwise combination.
    Binary {
        /// FLOPs charged per element, exactly as the eager `zip_map` would.
        flops: u64,
        /// The elementwise function; arguments are `(lhs, rhs)`.
        f: BinaryFn<T>,
        /// Left input.
        lhs: Box<Expr<'a, T>>,
        /// Right input.
        rhs: Box<Expr<'a, T>>,
    },
    /// Shift offset along one axis: element `i` reads `i + amount`
    /// (CMF/HPF convention — positive moves data toward lower indices).
    Shift {
        /// Axis to shift along.
        axis: usize,
        /// Shift amount.
        amount: isize,
        /// Cyclic (CSHIFT) or end-off fill (EOSHIFT) boundary.
        boundary: ShiftBoundary<T>,
        /// Input subexpression.
        child: Box<Expr<'a, T>>,
    },
    /// Broadcast: insert a new axis of the given extent at `axis`, every
    /// position along it reading the same child element (a deferred
    /// SPREAD used purely for alignment — it records no communication of
    /// its own; kernels that model a SPREAD record it explicitly, as the
    /// eager code does).
    Bcast {
        /// Position of the inserted axis in the output shape.
        axis: usize,
        /// Extent of the inserted axis.
        extent: usize,
        /// Input subexpression (one rank lower than the output).
        child: Box<Expr<'a, T>>,
    },
}

impl<'a, T: Elem> Expr<'a, T> {
    /// Defer a borrowed array.
    pub fn leaf(a: &'a DistArray<T>) -> Self {
        Expr::Leaf(a)
    }

    /// Defer a scalar constant (broadcast to the surrounding shape).
    pub fn lit(v: T) -> Self {
        Expr::Const(v)
    }

    /// Deferred counterpart of `map`: elementwise `f`, charging `flops`
    /// per element when evaluated.
    pub fn map(self, flops: u64, f: impl Fn(T) -> T + Send + Sync + 'static) -> Self {
        Expr::Unary {
            flops,
            f: Arc::new(f),
            child: Box::new(self),
        }
    }

    /// Deferred counterpart of `zip_map`: elementwise `f(self, rhs)`,
    /// charging `flops` per element when evaluated.
    pub fn zip(
        self,
        rhs: Expr<'a, T>,
        flops: u64,
        f: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> Self {
        Expr::Binary {
            flops,
            f: Arc::new(f),
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// Deferred counterpart of `cshift`: circular shift by `amount` along
    /// `axis`. Evaluation records the identical `Cshift` event and halo
    /// volume the eager call would.
    pub fn shift(self, axis: usize, amount: isize) -> Self {
        Expr::Shift {
            axis,
            amount,
            boundary: ShiftBoundary::Cyclic,
            child: Box::new(self),
        }
    }

    /// Deferred counterpart of `eoshift`: end-off shift by `amount` along
    /// `axis` with `fill` entering from the vacated side.
    pub fn eoshift(self, axis: usize, amount: isize, fill: T) -> Self {
        Expr::Shift {
            axis,
            amount,
            boundary: ShiftBoundary::Fill(fill),
            child: Box::new(self),
        }
    }

    /// Broadcast along a new axis of `extent` inserted at `axis` (for
    /// aligning a rank-`r` operand with a rank-`r+1` expression).
    pub fn bcast(self, axis: usize, extent: usize) -> Self {
        Expr::Bcast {
            axis,
            extent,
            child: Box::new(self),
        }
    }

    /// The output shape, if the graph contains at least one array leaf
    /// (a pure-constant graph is shape-polymorphic and returns `None`).
    pub fn shape(&self) -> Option<Vec<usize>> {
        match self {
            Expr::Leaf(a) => Some(a.shape().to_vec()),
            Expr::Const(_) => None,
            Expr::Unary { child, .. } | Expr::Shift { child, .. } => child.shape(),
            Expr::Binary { lhs, rhs, .. } => lhs.shape().or_else(|| rhs.shape()),
            Expr::Bcast {
                axis,
                extent,
                child,
            } => child.shape().map(|mut s| {
                s.insert(*axis, *extent);
                s
            }),
        }
    }

    /// The layout governing the output distribution: the layout of the
    /// first full-shape leaf (leaves under a [`Expr::Bcast`] have the
    /// reduced shape and do not qualify).
    pub fn layout(&self) -> Option<&'a Layout> {
        match self {
            Expr::Leaf(a) => Some(a.layout()),
            Expr::Const(_) | Expr::Bcast { .. } => None,
            Expr::Unary { child, .. } | Expr::Shift { child, .. } => child.layout(),
            Expr::Binary { lhs, rhs, .. } => lhs.layout().or_else(|| rhs.layout()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAR;
    use dpf_core::{Ctx, Machine};

    #[test]
    fn shape_and_layout_inference() {
        let ctx = Ctx::new(Machine::cm5(4));
        let a = DistArray::<f64>::zeros(&ctx, &[6], &[PAR]);
        let e = Expr::leaf(&a)
            .zip(Expr::lit(2.0), 1, |x, c| x * c)
            .shift(0, 1);
        assert_eq!(e.shape(), Some(vec![6]));
        assert!(e.layout().is_some());
        assert_eq!(Expr::<f64>::lit(1.0).shape(), None);

        let b = Expr::leaf(&a).bcast(1, 5);
        assert_eq!(b.shape(), Some(vec![6, 5]));
        assert!(b.layout().is_none());
    }
}
