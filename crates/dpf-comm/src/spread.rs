//! SPREAD and broadcast — one-to-many replication.
//!
//! `SPREAD(a, dim, copies)` inserts a new axis and replicates the source
//! along it; the paper's md and n-body codes build their all-to-all
//! broadcast (AABC) from it, and jacobi/qmc use "1-D to 2-D Broadcasts" —
//! the same data motion under the language's broadcast-on-assignment
//! spelling. Both are provided, recording their respective patterns.
//!
//! Off-processor volume models a broadcast tree along the new axis's grid
//! dimension: `q − 1` copies of the source leave the owning processors.

use crate::spmd::{broadcast_scalar_exec, pull_exec};
use dpf_array::{AxisKind, DistArray, Layout};
use dpf_core::{CommPattern, Ctx, Elem};

/// `SPREAD(a, dim=axis, ncopies)`: the result has a new axis of extent
/// `ncopies` (of the given kind) inserted at position `axis`.
pub fn spread<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    ncopies: usize,
    kind: AxisKind,
) -> DistArray<T> {
    replicate(ctx, a, axis, ncopies, kind, CommPattern::Spread)
}

/// Broadcast of a lower-rank array along a new axis — identical data
/// motion to [`spread`], recorded as the Broadcast pattern (the language
/// spelling `b(i, j) = a(j)`).
pub fn broadcast<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    ncopies: usize,
    kind: AxisKind,
) -> DistArray<T> {
    replicate(ctx, a, axis, ncopies, kind, CommPattern::Broadcast)
}

/// Broadcast a scalar to a full array shape.
pub fn broadcast_scalar<T: Elem>(
    ctx: &Ctx,
    value: T,
    shape: &[usize],
    axes: &[AxisKind],
) -> DistArray<T> {
    let out = if ctx.spmd() && Layout::new(&ctx.machine, shape, axes).is_distributed() {
        // Worker 0 ships the scalar to every block owner, which fills its
        // own blocks; every element is written, so scratch is safe.
        let mut out = DistArray::<T>::scratch(ctx, shape, axes);
        let layout = out.layout().clone();
        ctx.busy(|| broadcast_scalar_exec(ctx, &layout, value, out.as_mut_slice()));
        out
    } else {
        DistArray::<T>::full(ctx, shape, axes, value)
    };
    let procs: usize = (0..out.rank()).map(|d| out.layout().procs_on(d)).product();
    ctx.record_comm(
        CommPattern::Broadcast,
        0,
        out.rank(),
        out.len() as u64,
        ((procs.max(1) - 1) * T::DTYPE.size()) as u64,
    );
    out
}

fn replicate<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    ncopies: usize,
    kind: AxisKind,
    pattern: CommPattern,
) -> DistArray<T> {
    assert!(
        axis <= a.rank(),
        "spread position {axis} out of rank {}",
        a.rank()
    );
    assert!(ncopies > 0, "spread needs at least one copy");
    let mut shape = a.shape().to_vec();
    shape.insert(axis, ncopies);
    let mut axes = a.layout().axes().to_vec();
    axes.insert(axis, kind);
    // Both paths below write every element, so a pooled scratch buffer
    // (possibly holding stale data) is safe.
    let mut out = DistArray::<T>::scratch(ctx, &shape, &axes);
    let q = out.layout().procs_on(axis);
    ctx.record_comm(
        pattern,
        a.rank(),
        out.rank(),
        out.len() as u64,
        (a.len() * (q.max(1) - 1) * T::DTYPE.size()) as u64,
    );
    let outer: usize = a.shape()[..axis].iter().product();
    let inner: usize = a.shape()[axis..].iter().product();
    if ctx.spmd() && q > 1 {
        // Each owner of a replica block pulls the source row from its
        // owners; the copies themselves are what crosses the channels.
        let out_layout = out.layout().clone();
        ctx.busy(|| {
            pull_exec(
                ctx,
                a.layout(),
                a.as_slice(),
                &out_layout,
                out.as_mut_slice(),
                &|flat| {
                    let o = flat / (ncopies * inner);
                    let k = flat % inner;
                    o * inner + k
                },
            );
        });
    } else {
        ctx.busy(|| {
            let src = a.as_slice();
            let dst = out.as_mut_slice();
            // Result viewed as [outer, ncopies, inner]; source as [outer, inner].
            for o in 0..outer.max(1) {
                let s = &src[o * inner..(o + 1) * inner];
                for c in 0..ncopies {
                    let d0 = (o * ncopies + c) * inner;
                    dst[d0..d0 + inner].copy_from_slice(s);
                }
            }
        });
    }
    ctx.faults.inject_slice("spread", out.as_mut_slice());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::{PAR, SER};
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn spread_prepends_axis() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[3], &[PAR], |i| i[0] as i32);
        let s = spread(&ctx, &a, 0, 2, PAR);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.to_vec(), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn spread_appends_axis() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[3], &[PAR], |i| i[0] as i32);
        let s = spread(&ctx, &a, 1, 2, SER);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.to_vec(), vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn spread_middle_axis_of_2d() {
        let ctx = ctx(2);
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 2], &[PAR, PAR], |i| (i[0] * 2 + i[1]) as i32);
        let s = spread(&ctx, &a, 1, 3, PAR);
        assert_eq!(s.shape(), &[2, 3, 2]);
        assert_eq!(s.get(&[0, 0, 1]), 1);
        assert_eq!(s.get(&[0, 2, 1]), 1);
        assert_eq!(s.get(&[1, 2, 0]), 2);
    }

    #[test]
    fn patterns_are_labelled_distinctly() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::zeros(&ctx, &[8], &[PAR]);
        let _ = spread(&ctx, &a, 0, 4, PAR);
        let _ = broadcast(&ctx, &a, 0, 4, PAR);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Spread), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 1);
    }

    #[test]
    fn broadcast_scalar_fills() {
        let ctx = ctx(4);
        let b = broadcast_scalar(&ctx, 2.5f64, &[4, 4], &[PAR, PAR]);
        assert_eq!(b.to_vec(), vec![2.5; 16]);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 1);
    }
}
