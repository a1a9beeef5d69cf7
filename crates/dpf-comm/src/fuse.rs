//! Fusing evaluator for deferred [`Expr`] graphs.
//!
//! The eager API materializes one full distributed array per operator.
//! This module walks an expression graph once per owned block instead:
//! elementwise chains collapse into a single loop with zero intermediate
//! arrays (per-chunk scratch comes from the `Ctx` buffer pool), and a
//! shift node reads its source on the fly: each chunk copies the
//! contiguous pieces of the shift's read plan (`shift::ShiftRead`, built
//! once per node), the plan the eager host shift copies through, so the
//! shift rule has one statement. On the SPMD backend a distributed-axis
//! shift runs the same neighbour slab exchange the eager `cshift` uses,
//! so channel traffic is identical.
//!
//! Metric transparency is the contract: evaluation replays exactly the
//! FLOP charges and logical communication records the equivalent eager
//! chain would have made — one `Cshift`/`Eoshift` record per deferred
//! shift node, `flops * len` per elementwise node — and fault-injection
//! hooks fire once per logical shift, matching the eager call count. The
//! fused-vs-eager proptest suite (`tests/fused_equiv.rs`) holds results
//! and recorded metrics bit-identical on both backends.

use crate::shift::{self, for_each_span, ShiftRead};
use dpf_array::expr::{BinaryFn, Expr, ShiftBoundary, UnaryFn};
use dpf_array::{DistArray, Layout};
use dpf_core::{Ctx, Elem};

/// Elements evaluated per inner step: small enough that the working set
/// of a deep chain stays cache-resident, large enough to amortize the
/// per-chunk dispatch.
const CHUNK: usize = 1024;

/// Evaluate a deferred expression into a fresh array drawn from the
/// buffer pool. The output adopts the layout of the first full-shape
/// leaf.
pub fn eval<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>) -> DistArray<T> {
    let shape = e.shape().expect("fused expression needs an array leaf");
    let lay = e
        .layout()
        .expect("fused expression needs a full-shape array leaf");
    // Every element is overwritten by the fused pass, so pooled scratch
    // (possibly stale) is safe.
    let mut out = DistArray::<T>::scratch(ctx, &shape, lay.axes());
    eval_into(ctx, e, &mut out);
    out
}

/// Evaluate a deferred expression into an existing same-shaped array.
///
/// Records and FLOP charges fire per *logical* op in the graph (the
/// eager-equivalence contract), not per physical pass — the whole graph
/// runs as one fused sweep per owned block.
pub fn eval_into<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>, out: &mut DistArray<T>) {
    if let Some(shape) = e.shape() {
        assert_eq!(
            shape.as_slice(),
            out.shape(),
            "fused expression shape mismatch"
        );
    }
    record_pass::<T>(ctx, e, out.shape(), out.layout());
    let plan = lower(ctx, e, out.shape(), out.layout());
    run_plan(ctx, &plan, out.as_mut_slice());
    retire(ctx, plan);
    inject_pass(ctx, e, out.as_mut_slice());
}

/// Fold the last axis of a deferred expression: returns one accumulator
/// per row, seeded with `init` and combined left-to-right in index order
/// (serial — bit-compatible with the eager accumulation loops it
/// replaces). Like the eager kernels it replaces, a pure reduction
/// materializes no shifted intermediate, so no fault-injection site
/// fires here; FLOP and communication records replay exactly as in
/// [`eval_into`].
pub fn fold_rows<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>, init: T, fold: impl Fn(T, T) -> T) -> Vec<T> {
    let shape = e.shape().expect("fused expression needs an array leaf");
    let rank = shape.len();
    assert!(rank >= 1, "fold_rows needs at least one axis");
    let cols: usize = shape[rank - 1];
    let rows: usize = shape[..rank - 1].iter().product();
    let total: usize = rows * cols.max(1);
    let lay = e
        .layout()
        .expect("fused expression needs a full-shape array leaf");
    record_pass::<T>(ctx, e, &shape, lay);
    let plan = lower(ctx, e, &shape, lay);
    let mut acc = vec![init; rows];
    if cols > 0 {
        let mut buf: Vec<T> = ctx.pool.take(CHUNK);
        let mut scratch = take_bufs::<T>(ctx, scratch_depth(&plan));
        ctx.busy(|| {
            let mut base = 0usize;
            while base < total {
                let len = CHUNK.min(total - base);
                eval_chunk(&plan, base, &mut buf[..len], &mut scratch, 0);
                for (k, v) in buf[..len].iter().enumerate() {
                    let r = (base + k) / cols;
                    acc[r] = fold(acc[r], *v);
                }
                base += len;
            }
        });
        ctx.pool.put(buf);
        put_bufs(ctx, scratch);
    }
    retire(ctx, plan);
    acc
}

// ------------------------------------------------------------- metrics

/// Replay the analytic records the equivalent eager chain would have
/// made: `flops * len` per elementwise node, one Cshift/Eoshift event
/// per shift node (post-order, so inner ops record before outer ones,
/// matching eager program order). Counters are cumulative, so only the
/// totals are observable.
fn record_pass<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>, shape: &[usize], lay: &Layout) {
    let len: u64 = shape.iter().product::<usize>() as u64;
    match e {
        Expr::Leaf(_) | Expr::Const(_) => {}
        Expr::Unary { flops, child, .. } => {
            record_pass::<T>(ctx, child, shape, lay);
            ctx.add_flops(flops * len);
        }
        Expr::Binary {
            flops, lhs, rhs, ..
        } => {
            record_pass::<T>(ctx, lhs, shape, lay);
            record_pass::<T>(ctx, rhs, shape, lay);
            ctx.add_flops(flops * len);
        }
        Expr::Shift {
            axis,
            amount,
            boundary,
            child,
        } => {
            record_pass::<T>(ctx, child, shape, lay);
            shift::record_shift(ctx, child.layout().unwrap_or(lay), *axis, *amount, boundary);
        }
        Expr::Bcast { axis, child, .. } => {
            let mut inner = shape.to_vec();
            inner.remove(*axis);
            record_pass::<T>(ctx, child, &inner, lay);
        }
    }
}

/// Fire the per-shift fault-injection hooks on the fused output, one per
/// logical shift node (post-order) — the same number of `cshift` /
/// `eoshift` sites the eager chain would have visited.
fn inject_pass<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>, out: &mut [T]) {
    match e {
        Expr::Leaf(_) | Expr::Const(_) => {}
        Expr::Unary { child, .. } => inject_pass(ctx, child, out),
        Expr::Binary { lhs, rhs, .. } => {
            inject_pass(ctx, lhs, out);
            inject_pass(ctx, rhs, out);
        }
        Expr::Shift {
            boundary, child, ..
        } => {
            inject_pass(ctx, child, out);
            ctx.faults.inject_slice(shift::shift_kind(boundary).1, out);
        }
        Expr::Bcast { child, .. } => inject_pass(ctx, child, out),
    }
}

// ------------------------------------------------------------ lowering

/// Backing storage for a lowered operand: leaves stay borrowed; anything
/// materialized (compound shift/broadcast children, SPMD halo results)
/// is a pooled buffer returned by [`retire`].
enum Store<'a, T> {
    Borrowed(&'a [T]),
    Owned(Vec<T>),
}

impl<T> Store<'_, T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Store::Borrowed(s) => s,
            Store::Owned(v) => v,
        }
    }
}

/// A runtime evaluation plan: the `Expr` graph with leaves resolved to
/// slices, shifts resolved to read plans (or pre-exchanged blocks on
/// SPMD), and broadcasts resolved to stride tricks.
enum Plan<'a, T: Elem> {
    Data(Store<'a, T>),
    Const(T),
    Unary {
        f: UnaryFn<T>,
        child: Box<Plan<'a, T>>,
    },
    Binary {
        f: BinaryFn<T>,
        lhs: Box<Plan<'a, T>>,
        rhs: Box<Plan<'a, T>>,
    },
    /// Shift-on-read: each chunk copies the contiguous pieces of the
    /// shift's read plan from the source, or takes the fill.
    Shifted {
        src: Store<'a, T>,
        read: ShiftRead<T>,
    },
    /// Broadcast-on-read along an inserted axis.
    Bcast {
        src: Store<'a, T>,
        stride: usize,
        n: usize,
    },
}

fn lower<'a, T: Elem>(ctx: &Ctx, e: &Expr<'a, T>, shape: &[usize], lay: &Layout) -> Plan<'a, T> {
    match e {
        Expr::Leaf(a) => {
            assert_eq!(a.shape(), shape, "fused leaf shape mismatch");
            Plan::Data(Store::Borrowed(a.as_slice()))
        }
        Expr::Const(v) => Plan::Const(*v),
        Expr::Unary { f, child, .. } => Plan::Unary {
            f: f.clone(),
            child: Box::new(lower(ctx, child, shape, lay)),
        },
        Expr::Binary { f, lhs, rhs, .. } => Plan::Binary {
            f: f.clone(),
            lhs: Box::new(lower(ctx, lhs, shape, lay)),
            rhs: Box::new(lower(ctx, rhs, shape, lay)),
        },
        Expr::Shift {
            axis,
            amount,
            boundary,
            child,
        } => {
            assert!(*axis < shape.len(), "shift axis out of rank");
            let child_lay = child.layout().unwrap_or(lay);
            if ctx.spmd() && child_lay.procs_on(*axis) > 1 {
                // Distributed axis under SPMD: the halo cells live on
                // neighbouring workers, so run the same slab exchange the
                // eager cshift uses (real channel traffic), then treat the
                // exchanged block as plain data. The logical record was
                // already made by `record_pass`.
                return Plan::Data(Store::Owned(exchange_shift(
                    ctx, child, shape, lay, *axis, *amount, *boundary,
                )));
            }
            let src = match child.as_ref() {
                Expr::Leaf(a) => {
                    assert_eq!(a.shape(), shape, "fused leaf shape mismatch");
                    Store::Borrowed(a.as_slice())
                }
                other => Store::Owned(materialize(ctx, other, shape, lay)),
            };
            Plan::Shifted {
                src,
                read: ShiftRead::new(shape, [(*axis, *amount)], *boundary),
            }
        }
        Expr::Bcast {
            axis,
            extent,
            child,
        } => {
            let mut inner = shape.to_vec();
            let n = inner.remove(*axis);
            assert_eq!(n, *extent, "broadcast extent mismatch");
            let src = match child.as_ref() {
                Expr::Leaf(a) => {
                    assert_eq!(a.shape(), inner.as_slice(), "broadcast leaf shape mismatch");
                    Store::Borrowed(a.as_slice())
                }
                other => Store::Owned(materialize(ctx, other, &inner, lay)),
            };
            Plan::Bcast {
                src,
                stride: shape[*axis + 1..].iter().product(),
                n,
            }
        }
    }
}

/// Materialize a compound subexpression into a pooled buffer (needed
/// under a shift or broadcast, whose reads are non-affine in the fused
/// index). Records are NOT replayed here — `record_pass` already walked
/// the whole graph.
fn materialize<T: Elem>(ctx: &Ctx, e: &Expr<'_, T>, shape: &[usize], lay: &Layout) -> Vec<T> {
    let len: usize = shape.iter().product();
    let plan = lower(ctx, e, shape, lay);
    let mut buf: Vec<T> = ctx.pool.take(len);
    run_plan(ctx, &plan, &mut buf);
    retire(ctx, plan);
    buf
}

/// Run the eager shift exchange for one distributed-axis shift node and
/// return the shifted block as a pooled buffer. Uses the identical
/// `shifted_into` path as eager `cshift`/`eoshift`, so SPMD channel
/// traffic (and worker scheduling) match the eager chain.
fn exchange_shift<T: Elem>(
    ctx: &Ctx,
    child: &Expr<'_, T>,
    shape: &[usize],
    lay: &Layout,
    axis: usize,
    amount: isize,
    boundary: ShiftBoundary<T>,
) -> Vec<T> {
    let mut out = DistArray::<T>::scratch(ctx, shape, lay.axes());
    match child {
        Expr::Leaf(a) => {
            assert_eq!(a.shape(), shape, "fused leaf shape mismatch");
            shift::shifted_into(ctx, a, axis, amount, boundary, &mut out);
        }
        other => {
            let mut src = DistArray::<T>::scratch(ctx, shape, lay.axes());
            let plan = lower(ctx, other, shape, lay);
            run_plan(ctx, &plan, src.as_mut_slice());
            retire(ctx, plan);
            shift::shifted_into(ctx, &src, axis, amount, boundary, &mut out);
            src.recycle(ctx);
        }
    }
    out.into_vec()
}

/// Return every materialized buffer in a finished plan to the pool.
fn retire<T: Elem>(ctx: &Ctx, plan: Plan<'_, T>) {
    match plan {
        Plan::Const(_) => {}
        Plan::Data(s) | Plan::Shifted { src: s, .. } | Plan::Bcast { src: s, .. } => {
            if let Store::Owned(v) = s {
                ctx.pool.put(v);
            }
        }
        Plan::Unary { child, .. } => retire(ctx, *child),
        Plan::Binary { lhs, rhs, .. } => {
            retire(ctx, *lhs);
            retire(ctx, *rhs);
        }
    }
}

// ----------------------------------------------------------- execution

/// Scratch chunks needed by a plan: one per binary node live along a
/// right-operand path (the left operand evaluates into the output).
fn scratch_depth<T: Elem>(p: &Plan<'_, T>) -> usize {
    match p {
        Plan::Data(_) | Plan::Const(_) | Plan::Shifted { .. } | Plan::Bcast { .. } => 0,
        Plan::Unary { child, .. } => scratch_depth(child),
        Plan::Binary { lhs, rhs, .. } => scratch_depth(lhs).max(1 + scratch_depth(rhs)),
    }
}

fn take_bufs<T: Elem>(ctx: &Ctx, depth: usize) -> Vec<Vec<T>> {
    (0..depth).map(|_| ctx.pool.take(CHUNK)).collect()
}

fn put_bufs<T: Elem>(ctx: &Ctx, bufs: Vec<Vec<T>>) {
    for b in bufs {
        ctx.pool.put(b);
    }
}

/// One fused sweep of the whole plan over `dst`. Above the parallel
/// threshold (and only when rayon actually has more than one worker) the
/// output splits into contiguous spans, one scratch arena each.
fn run_plan<T: Elem>(ctx: &Ctx, plan: &Plan<'_, T>, dst: &mut [T]) {
    ctx.busy(|| for_each_span(dst, CHUNK, |start, d| run_span(ctx, plan, start, d)));
}

/// Evaluate one contiguous output span chunk-by-chunk with a private
/// scratch arena drawn from (and returned to) the buffer pool.
fn run_span<T: Elem>(ctx: &Ctx, plan: &Plan<'_, T>, start: usize, dst: &mut [T]) {
    let mut scratch = take_bufs::<T>(ctx, scratch_depth(plan));
    let mut base = start;
    for chunk in dst.chunks_mut(CHUNK) {
        eval_chunk(plan, base, chunk, &mut scratch, 0);
        base += chunk.len();
    }
    put_bufs(ctx, scratch);
}

/// A plan node that is directly addressable as a slice for this chunk.
fn direct<'p, T: Elem>(p: &'p Plan<'_, T>, base: usize, len: usize) -> Option<&'p [T]> {
    match p {
        Plan::Data(s) => Some(&s.as_slice()[base..base + len]),
        _ => None,
    }
}

/// Evaluate `out.len()` elements of the plan starting at flat index
/// `base`, recursing into at most `scratch_depth` pooled chunks.
fn eval_chunk<T: Elem>(
    p: &Plan<'_, T>,
    base: usize,
    out: &mut [T],
    scratch: &mut [Vec<T>],
    depth: usize,
) {
    let len = out.len();
    match p {
        Plan::Data(s) => out.copy_from_slice(&s.as_slice()[base..base + len]),
        Plan::Const(v) => out.fill(*v),
        Plan::Unary { f, child } => {
            if let Some(s) = direct(child, base, len) {
                for (o, x) in out.iter_mut().zip(s) {
                    *o = f(*x);
                }
            } else {
                eval_chunk(child, base, out, scratch, depth);
                for o in out.iter_mut() {
                    *o = f(*o);
                }
            }
        }
        Plan::Binary { f, lhs, rhs } => match (direct(lhs, base, len), direct(rhs, base, len)) {
            (Some(a), Some(b)) => {
                for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                    *o = f(*x, *y);
                }
            }
            (Some(a), None) => {
                eval_chunk(rhs, base, out, scratch, depth);
                for (o, x) in out.iter_mut().zip(a) {
                    *o = f(*x, *o);
                }
            }
            (None, Some(b)) => {
                eval_chunk(lhs, base, out, scratch, depth);
                for (o, y) in out.iter_mut().zip(b) {
                    *o = f(*o, *y);
                }
            }
            (None, None) => {
                eval_chunk(lhs, base, out, scratch, depth);
                let mut buf = std::mem::take(&mut scratch[depth]);
                eval_chunk(rhs, base, &mut buf[..len], scratch, depth + 1);
                for (o, y) in out.iter_mut().zip(&buf[..len]) {
                    *o = f(*o, *y);
                }
                scratch[depth] = buf;
            }
        },
        Plan::Shifted { src, read } => read.copy(src.as_slice(), base, out),
        Plan::Bcast { src, n, stride } => {
            let s = src.as_slice();
            let period = n * stride;
            for (k, o) in out.iter_mut().enumerate() {
                let f0 = base + k;
                *o = s[(f0 / period) * stride + f0 % stride];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cshift, eoshift};
    use dpf_array::PAR;
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn fused_chain_matches_eager_values_and_metrics() {
        let ec = ctx(4);
        let fc = ctx(4);
        let mk = |c: &Ctx| DistArray::<f64>::from_fn(c, &[37], &[PAR], |i| i[0] as f64 * 0.5 - 3.0);
        let a_e = mk(&ec);
        let a_f = mk(&fc);

        let s = cshift(&ec, &a_e, 0, 2);
        let t = a_e.zip_map(&ec, 1, &s, |x, y| x * y);
        let eager = t.map(&ec, 2, |x| x + 0.25);

        let e = Expr::leaf(&a_f)
            .zip(Expr::leaf(&a_f).shift(0, 2), 1, |x, y| x * y)
            .map(2, |x| x + 0.25);
        let fused = eval(&fc, &e);

        assert_eq!(eager.to_vec(), fused.to_vec());
        assert_eq!(ec.instr.flops(), fc.instr.flops());
        assert_eq!(ec.instr.comm_snapshot(), fc.instr.comm_snapshot());
    }

    #[test]
    fn fused_eoshift_and_const_match_eager() {
        let ec = ctx(4);
        let fc = ctx(4);
        let mk = |c: &Ctx| {
            DistArray::<f64>::from_fn(c, &[5, 6], &[PAR, PAR], |i| (i[0] * 6 + i[1]) as f64)
        };
        let a_e = mk(&ec);
        let a_f = mk(&fc);

        let s = eoshift(&ec, &a_e, 1, -2, -1.0);
        let eager = s.zip_map(&ec, 1, &a_e, |x, y| x + 2.0 * y);

        let e = Expr::leaf(&a_f)
            .eoshift(1, -2, -1.0)
            .zip(Expr::leaf(&a_f), 1, |x, y| x + 2.0 * y);
        let fused = eval(&fc, &e);

        assert_eq!(eager.to_vec(), fused.to_vec());
        assert_eq!(ec.instr.comm_snapshot(), fc.instr.comm_snapshot());

        let c = Expr::leaf(&a_f).zip(Expr::lit(3.0), 1, |x, c| x * c);
        assert_eq!(
            eval(&fc, &c).to_vec(),
            a_f.map(&fc, 1, |x| x * 3.0).to_vec()
        );
    }

    #[test]
    fn shift_of_compound_matches_eager_composition() {
        let ec = ctx(4);
        let fc = ctx(4);
        let mk = |c: &Ctx| DistArray::<f64>::from_fn(c, &[23], &[PAR], |i| (i[0] as f64).sin());
        let a_e = mk(&ec);
        let a_f = mk(&fc);

        let sq = a_e.map(&ec, 1, |x| x * x);
        let eager = cshift(&ec, &sq, 0, -3);

        let e = Expr::leaf(&a_f).map(1, |x| x * x).shift(0, -3);
        let fused = eval(&fc, &e);
        assert_eq!(eager.to_vec(), fused.to_vec());
        assert_eq!(ec.instr.flops(), fc.instr.flops());
        assert_eq!(ec.instr.comm_snapshot(), fc.instr.comm_snapshot());
    }

    #[test]
    fn bcast_aligns_lower_rank_operand() {
        let c = ctx(4);
        let m = DistArray::<f64>::from_fn(&c, &[4, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as f64);
        let v = DistArray::<f64>::from_fn(&c, &[4], &[PAR], |i| 10.0 * i[0] as f64);
        // m[i][j] - v[i]: broadcast v along a new axis 1 of extent 3.
        let e = Expr::leaf(&m).zip(Expr::leaf(&v).bcast(1, 3), 1, |a, b| a - b);
        let got = eval(&c, &e);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(got.get(&[i, j]), (i * 3 + j) as f64 - 10.0 * i as f64);
            }
        }
    }

    #[test]
    fn fold_rows_sums_last_axis() {
        let c = ctx(4);
        let m = DistArray::<f64>::from_fn(&c, &[3, 5], &[PAR, PAR], |i| (i[0] * 5 + i[1]) as f64);
        let acc = fold_rows(&c, &Expr::leaf(&m), 0.0, |a, v| a + v);
        assert_eq!(acc, vec![10.0, 35.0, 60.0]);
    }

    #[test]
    fn eval_into_reuses_caller_buffer_and_pool_round_trips() {
        let c = ctx(4);
        let a = DistArray::<f64>::from_fn(&c, &[40_000], &[PAR], |i| i[0] as f64);
        let mut out = DistArray::<f64>::zeros(&c, &[40_000], &[PAR]);
        let e = Expr::leaf(&a)
            .zip(Expr::leaf(&a).shift(0, 1), 1, |x, y| x + y)
            .map(1, |x| 0.5 * x);
        eval_into(&c, &e, &mut out);
        assert_eq!(out.get(&[0]), 0.5);
        // Second evaluation reuses pooled scratch chunks.
        let before = c.pool.hits();
        eval_into(&c, &e, &mut out);
        assert!(c.pool.hits() > before);
    }

    #[test]
    fn spmd_backend_matches_virtual_with_real_traffic() {
        use dpf_core::Backend;
        let vc = ctx(4);
        let sc = Ctx::with_backend(Machine::cm5(4), Backend::Spmd);
        let mk = |c: &Ctx| DistArray::<f64>::from_fn(c, &[64], &[PAR], |i| i[0] as f64);
        let av = mk(&vc);
        let asp = mk(&sc);
        let build = |a| {
            Expr::leaf(a)
                .zip(Expr::leaf(a).shift(0, 1), 1, |x, y| x - y)
                .zip(Expr::leaf(a).shift(0, -1), 1, |x, y| x + y)
        };
        let rv = eval(&vc, &build(&av));
        let rs = eval(&sc, &build(&asp));
        assert_eq!(rv.to_vec(), rs.to_vec());
        assert_eq!(vc.instr.comm_snapshot(), sc.instr.comm_snapshot());
        assert_eq!(vc.link.messages(), 0);
        assert!(
            sc.link.payload_bytes() > 0,
            "fused SPMD shift must exchange halos"
        );
    }
}
