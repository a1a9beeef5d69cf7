//! Reductions — `SUM`, `PRODUCT`, `MINVAL`/`MAXVAL`, dot products.
//!
//! The paper counts a reduction over `N` elements as `N − 1` FLOPs (its
//! sequential operation count) and, under HPF execution semantics, charges
//! masked reductions over the **full** extent. Min/max reductions move the
//! same data but perform comparisons, not floating-point arithmetic, so
//! they charge no FLOPs.
//!
//! Off-processor volume models a reduction tree: along an axis distributed
//! over `p` processors, `p − 1` partial values per lane cross processor
//! boundaries.
//!
//! Each reduction states its element rule once, as a fold over the flats
//! ([`fold_exec`]) or along one axis ([`axis_exec`]), and the protocol
//! runs it in one element order on both backends: on the host a serial
//! left fold, under the SPMD backend a sequential fold on the owner of the
//! first element, to which every other owner ships its elements' values in
//! one frame. So floating-point rounding is the same on both backends.
//! The link meter counts the values shipped, one element size each, which
//! is more than the modeled tree's `p − 1` partials; the §1.5 meters
//! charge the modeled tree on both backends. Only the dot product above
//! the parallel threshold forks: on the host it sums fixed chunks on the
//! rayon pool, and its SPMD fold replays that tree bit for bit.

use crate::spmd::{axis_exec, fold_exec};
use dpf_array::{DistArray, PAR_THRESHOLD};
use dpf_core::{flops, CommPattern, Ctx, Elem, Num};
use rayon::prelude::*;

/// Elements per partial in the virtual dot product's parallel path; the
/// SPMD dot cuts its chunk partials at the same boundaries.
const DOT_CHUNK: usize = 4096;

fn record_reduce<T: Elem>(ctx: &Ctx, src_rank: usize, dst_rank: usize, len: u64, partials: u64) {
    ctx.record_comm(
        CommPattern::Reduction,
        src_rank,
        dst_rank,
        len,
        partials * T::DTYPE.size() as u64,
    );
}

/// Record `a`'s whole-array reduction: the modeled tree moves one partial
/// from every processor of the array's grid but one.
fn record_whole<T: Elem>(ctx: &Ctx, a: &DistArray<T>) {
    let grid_procs: usize = (0..a.rank()).map(|d| a.layout().procs_on(d)).product();
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs as u64 - 1);
}

/// Record `a`'s whole-array reduction and fold `step` over every
/// element's `lift(flat, x)` in flat order ([`fold_exec`]).
fn fold_all<T: Elem, U: Send + Clone, A: Send + Sync + Clone>(
    ctx: &Ctx,
    a: &DistArray<T>,
    init: A,
    lift: impl Fn(usize, T) -> U + Sync,
    step: impl Fn(&mut A, usize, U) + Sync,
) -> A {
    record_whole(ctx, a);
    ctx.busy(|| fold_exec(ctx, a.layout(), a.as_slice(), init, lift, step))
}

/// `SUM(a)` — full reduction to a scalar.
pub fn sum_all<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> T {
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.add_flops());
    let mut s = fold_all(ctx, a, T::zero(), |_, x| x, |acc: &mut T, _, x| *acc += x);
    ctx.faults.inject_scalar("reduce", &mut s);
    s
}

/// `SUM(a, mask)` — masked full reduction; FLOPs charged over the full
/// extent per HPF semantics (paper §1.4).
pub fn sum_masked<T: Num>(ctx: &Ctx, a: &DistArray<T>, mask: &DistArray<bool>) -> T {
    assert_eq!(a.shape(), mask.shape(), "mask shape mismatch");
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.add_flops());
    // Mask flags are read by the element's owner (aligned with the data
    // per the HPF assumption), which lifts a masked-out element to `None`
    // so the fold skips it.
    let m = mask.as_slice();
    let mut s = fold_all(
        ctx,
        a,
        T::zero(),
        |flat, x| m[flat].then_some(x),
        |acc: &mut T, _, x| {
            if let Some(x) = x {
                *acc += x;
            }
        },
    );
    ctx.faults.inject_scalar("reduce", &mut s);
    s
}

/// `PRODUCT(a)`.
pub fn product_all<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> T {
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.mul_flops());
    fold_all(ctx, a, T::one(), |_, x| x, |acc: &mut T, _, x| *acc *= x)
}

/// `SUM(a, dim=axis)` — reduction along one axis; the result drops that
/// axis.
pub fn sum_axis<T: Num>(ctx: &Ctx, a: &DistArray<T>, axis: usize) -> DistArray<T> {
    assert!(axis < a.rank());
    let n = a.shape()[axis];
    let lanes = a.layout().lanes(axis) as u64;
    ctx.add_flops(lanes * flops::reduction(n as u64) * T::DTYPE.add_flops());
    let partials = lanes * (a.layout().procs_on(axis) as u64 - 1);
    record_reduce::<T>(ctx, a.rank(), a.rank() - 1, a.len() as u64, partials);

    let out_shape: Vec<usize> = a
        .shape()
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != axis)
        .map(|(_, &s)| s)
        .collect();
    let out_axes: Vec<_> = a
        .layout()
        .axes()
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != axis)
        .map(|(_, &k)| k)
        .collect();
    let mut out = DistArray::<T>::zeros(ctx, &out_shape, &out_axes);
    // Each lane's sum runs along the axis in index order; under SPMD its
    // partial hops along the axis's block owners and the chain's last
    // owner reports the lane total.
    let src = a.as_slice();
    let finals = ctx.busy(|| {
        axis_exec(
            ctx,
            a.layout(),
            axis,
            None,
            T::zero(),
            |acc: &mut T, flat| {
                *acc += src[flat];
                *acc
            },
        )
    });
    let dst = out.as_mut_slice();
    for (reduced_flat, total) in finals {
        dst[reduced_flat] = total;
    }
    ctx.faults.inject_slice("reduce", out.as_mut_slice());
    out
}

/// The running best of a min/max fold: the first element, then every
/// later one that `better` prefers to it.
fn best_step<T: Copy>(
    better: impl Fn(T, T) -> bool + Sync,
) -> impl Fn(&mut Option<T>, usize, T) + Sync {
    move |best, _, x| {
        if best.is_none_or(|b| better(x, b)) {
            *best = Some(x);
        }
    }
}

/// `MAXVAL(a)` for ordered reals/integers; returns the maximum. Moves the
/// same partials as a sum reduction but charges no FLOPs (comparisons).
pub fn max_all<T: Elem + PartialOrd>(ctx: &Ctx, a: &DistArray<T>) -> T {
    assert!(!a.is_empty() || a.len() == 1);
    fold_all(ctx, a, None, |_, x| x, best_step(|x, b| x > b)).expect("max of empty array")
}

/// `MINVAL(a)`.
pub fn min_all<T: Elem + PartialOrd>(ctx: &Ctx, a: &DistArray<T>) -> T {
    fold_all(ctx, a, None, |_, x| x, best_step(|x, b| x < b)).expect("min of empty array")
}

/// `MAXLOC(|a|)` — flat index and value of the element of largest
/// magnitude (the pivot search of `gauss-jordan` and `lu`).
pub fn maxloc_abs<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> (usize, T) {
    // The strict `>` keeps the first of equal magnitudes.
    let st = fold_all(
        ctx,
        a,
        None,
        |_, x| x,
        |st: &mut Option<(usize, T, f64)>, flat, x| {
            let m = x.mag();
            if st.is_none_or(|(_, _, bm)| m > bm) {
                *st = Some((flat, x, m));
            }
        },
    );
    let (best, v, _) = st.expect("maxloc of empty array");
    (best, v)
}

/// Dot product `SUM(a * b)`: charges the multiplies plus the `N − 1`
/// reduction adds, and records one Reduction (the paper's conj-grad and
/// qr count their inner products this way).
pub fn dot<T: Num>(ctx: &Ctx, a: &DistArray<T>, b: &DistArray<T>) -> T {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    let n = a.len() as u64;
    ctx.add_flops(n * T::DTYPE.mul_flops() + flops::reduction(n) * T::DTYPE.add_flops());
    // Each product `a * b` is formed by the owner of its flat (aligned
    // operands per the HPF assumption); under SPMD only the product is
    // shipped.
    let bs = b.as_slice();
    let lift = |flat: usize, x: T| x * bs[flat];
    let mut s = if a.len() < PAR_THRESHOLD {
        fold_all(ctx, a, T::zero(), lift, |acc: &mut T, _, y| *acc += y)
    } else if ctx.spmd() && a.layout().is_distributed() {
        // The fold state keeps the per-chunk partials so the final
        // combination reproduces the host's rayon reduce tree bit for bit.
        let (mut partials, tail) = fold_all(
            ctx,
            a,
            (Vec::new(), T::zero()),
            lift,
            |st: &mut (Vec<T>, T), flat, y| {
                st.1 += y;
                if (flat + 1) % DOT_CHUNK == 0 {
                    let full = std::mem::replace(&mut st.1, T::zero());
                    st.0.push(full);
                }
            },
        );
        if !a.len().is_multiple_of(DOT_CHUNK) {
            partials.push(tail);
        }
        ctx.busy(|| rayon_piece_sum(partials))
    } else {
        record_whole(ctx, a);
        ctx.busy(|| {
            a.as_slice()
                .par_chunks(DOT_CHUNK)
                .zip(bs.par_chunks(DOT_CHUNK))
                .map(|(xa, xb)| {
                    let mut acc = T::zero();
                    for (&x, &y) in xa.iter().zip(xb) {
                        acc += x * y;
                    }
                    acc
                })
                // dpf-lint: allow(determinism-taint, reason = "blessed bit-replay pair: fixed DOT_CHUNK piece sums make this the reference tree that rayon_piece_sum replays bit-exactly on the SPMD fold")
                .reduce(T::zero, |p, q| p + q)
        })
    };
    ctx.faults.inject_scalar("reduce", &mut s);
    s
}

/// Combine per-chunk partial sums exactly as the vendored rayon
/// `reduce(T::zero, +)` does over the virtual dot's chunk map: split the
/// partials into `current_num_threads()` pieces with the same `div_ceil`
/// arithmetic, fold each piece from zero, then fold the piece sums from
/// zero. Matching the association makes the SPMD dot bit-identical to the
/// virtual backend's parallel path.
fn rayon_piece_sum<T: Num>(parts: Vec<T>) -> T {
    let threads = rayon::current_num_threads().min(parts.len().max(1));
    if threads <= 1 {
        let piece = parts.into_iter().fold(T::zero(), |p, q| p + q);
        return T::zero() + piece;
    }
    let mut rest = &parts[..];
    let mut sums = Vec::with_capacity(threads);
    for i in 0..threads - 1 {
        let (head, tail) = rest.split_at(rest.len().div_ceil(threads - i));
        sums.push(head.iter().fold(T::zero(), |p, &q| p + q));
        rest = tail;
    }
    sums.push(rest.iter().fold(T::zero(), |p, &q| p + q));
    sums.into_iter().fold(T::zero(), |p, q| p + q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::{PAR, SER};
    use dpf_core::{Machine, C64};

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn sum_all_matches_arithmetic_series() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::from_fn(&ctx, &[100], &[PAR], |i| i[0] as f64);
        assert_eq!(sum_all(&ctx, &a), 4950.0);
        assert_eq!(ctx.instr.flops(), 99);
    }

    #[test]
    fn complex_sum_charges_two_flops_per_add() {
        let ctx = ctx(2);
        let a = DistArray::<C64>::full(&ctx, &[10], &[PAR], C64::new(1.0, -1.0));
        let s = sum_all(&ctx, &a);
        assert_eq!(s, C64::new(10.0, -10.0));
        assert_eq!(ctx.instr.flops(), 9 * 2);
    }

    #[test]
    fn masked_sum_charges_full_extent() {
        let ctx = ctx(2);
        let a = DistArray::<f64>::from_fn(&ctx, &[10], &[PAR], |i| i[0] as f64);
        let mask = DistArray::<bool>::from_fn(&ctx, &[10], &[PAR], |i| i[0] % 2 == 0);
        let s = sum_masked(&ctx, &a, &mask);
        assert_eq!(s, 0.0 + 2.0 + 4.0 + 6.0 + 8.0);
        // HPF semantics: full-extent FLOPs, not 4.
        assert_eq!(ctx.instr.flops(), 9);
    }

    #[test]
    fn sum_axis_reduces_correct_dimension() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::from_fn(&ctx, &[2, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as f64);
        let rows = sum_axis(&ctx, &a, 1);
        assert_eq!(rows.shape(), &[2]);
        assert_eq!(rows.to_vec(), vec![3.0, 12.0]);
        let cols = sum_axis(&ctx, &a, 0);
        assert_eq!(cols.shape(), &[3]);
        assert_eq!(cols.to_vec(), vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn sum_axis_3d_middle() {
        let ctx = ctx(2);
        let a = DistArray::<f64>::full(&ctx, &[2, 4, 3], &[PAR, PAR, SER], 1.0);
        let r = sum_axis(&ctx, &a, 1);
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.to_vec(), vec![4.0; 6]);
    }

    #[test]
    fn minmax_and_maxloc() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::from_vec(&ctx, &[5], &[PAR], vec![3.0, -7.0, 2.0, 5.0, -1.0]);
        assert_eq!(max_all(&ctx, &a), 5.0);
        assert_eq!(min_all(&ctx, &a), -7.0);
        let (i, v) = maxloc_abs(&ctx, &a);
        assert_eq!((i, v), (1, -7.0));
        // min/max charge no FLOPs.
        assert_eq!(ctx.instr.flops(), 0);
    }

    #[test]
    fn dot_matches_and_charges_2n_minus_1() {
        let ctx = ctx(2);
        let a = DistArray::<f64>::full(&ctx, &[8], &[PAR], 2.0);
        let b = DistArray::<f64>::full(&ctx, &[8], &[PAR], 3.0);
        assert_eq!(dot(&ctx, &a, &b), 48.0);
        assert_eq!(ctx.instr.flops(), 8 + 7);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 1);
    }

    #[test]
    fn paper_vtv_example_semantics() {
        // Paper §1.4: vtv = sum(v*v, mask) executes the multiply on the
        // full vector and charges the reduction's N−1 — 2N−1 total,
        // independent of the mask.
        let ctx = ctx(4);
        let v = DistArray::<f64>::from_fn(&ctx, &[8], &[PAR], |i| i[0] as f64);
        let mask = DistArray::<bool>::from_fn(&ctx, &[8], &[PAR], |i| i[0] >= 4);
        let vv = v.zip_map(&ctx, 1, &v, |a, b| a * b);
        let vtv = sum_masked(&ctx, &vv, &mask);
        assert_eq!(vtv, 16.0 + 25.0 + 36.0 + 49.0);
        assert_eq!(ctx.instr.flops(), 8 + 7);
    }

    #[test]
    fn reduction_partials_scale_with_grid() {
        let ctx = ctx(8);
        let a = DistArray::<f64>::zeros(&ctx, &[64], &[PAR]);
        let _ = sum_all(&ctx, &a);
        let snap = ctx.instr.comm_snapshot();
        let stats = snap.values().next().unwrap();
        // 8 procs -> 7 partial doubles cross boundaries.
        assert_eq!(stats.offproc_bytes, 7 * 8);
    }
}
