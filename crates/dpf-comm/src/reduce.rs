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
//! Under the SPMD backend the whole-array reductions run as one
//! sequential fold on the owner of the first element ([`crate::spmd`]):
//! every other owner ships it its elements' values in one frame, so
//! element order — and floating-point rounding — is identical to the
//! virtual backend's serial loops. The link meter counts the values
//! shipped, one element size each, which is more than the modeled tree's
//! `p − 1` partials; the §1.5 meters charge the modeled tree on both
//! backends.

use crate::spmd::{axis_exec, fold_exec};
use dpf_array::DistArray;
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

/// Total processors an array's grid actually uses.
fn grid_procs<T: Elem>(a: &DistArray<T>) -> usize {
    (0..a.rank())
        .map(|d| a.layout().procs_on(d))
        .product::<usize>()
        .max(1)
}

/// `SUM(a)` — full reduction to a scalar.
pub fn sum_all<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> T {
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.add_flops());
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    let mut s = if ctx.spmd() && grid_procs(a) > 1 {
        ctx.busy(|| {
            fold_exec(
                ctx,
                a.layout(),
                a.as_slice(),
                T::zero(),
                &|_flat, x| x,
                &|acc: &mut T, _flat, x| *acc += x,
            )
        })
    } else {
        ctx.busy(|| serial_sum(a.as_slice()))
    };
    ctx.faults.inject_scalar("reduce", &mut s);
    s
}

/// `SUM(a, mask)` — masked full reduction; FLOPs charged over the full
/// extent per HPF semantics (paper §1.4).
pub fn sum_masked<T: Num>(ctx: &Ctx, a: &DistArray<T>, mask: &DistArray<bool>) -> T {
    assert_eq!(a.shape(), mask.shape(), "mask shape mismatch");
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.add_flops());
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    let mut s = if ctx.spmd() && grid_procs(a) > 1 {
        // Mask flags are read by the element's owner (aligned with the
        // data per the HPF assumption), which ships `None` for a
        // masked-out element so the folder skips it as the serial loop does.
        let m = mask.as_slice();
        ctx.busy(|| {
            fold_exec(
                ctx,
                a.layout(),
                a.as_slice(),
                T::zero(),
                &|flat, x| m[flat].then_some(x),
                &|acc: &mut T, _flat, x| {
                    if let Some(x) = x {
                        *acc += x;
                    }
                },
            )
        })
    } else {
        ctx.busy(|| {
            let mut acc = T::zero();
            for (&x, &m) in a.as_slice().iter().zip(mask.as_slice()) {
                if m {
                    acc += x;
                }
            }
            acc
        })
    };
    ctx.faults.inject_scalar("reduce", &mut s);
    s
}

/// `PRODUCT(a)`.
pub fn product_all<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> T {
    ctx.add_flops(flops::reduction(a.len() as u64) * T::DTYPE.mul_flops());
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    if ctx.spmd() && grid_procs(a) > 1 {
        ctx.busy(|| {
            fold_exec(
                ctx,
                a.layout(),
                a.as_slice(),
                T::one(),
                &|_flat, x| x,
                &|acc: &mut T, _flat, x| *acc *= x,
            )
        })
    } else {
        ctx.busy(|| {
            let mut acc = T::one();
            for &x in a.as_slice() {
                acc *= x;
            }
            acc
        })
    }
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
    let outer: usize = a.shape()[..axis].iter().product();
    let inner: usize = a.shape()[axis + 1..].iter().product();
    if ctx.spmd() && a.layout().procs_on(axis) > 1 {
        // Each lane's partial sum hops along the axis's block owners in
        // coordinate order — the same element order as the serial loop —
        // and the chain's last owner reports the lane total.
        let src = a.as_slice();
        let finals = ctx.busy(|| {
            axis_exec::<T, T>(
                ctx,
                a.layout(),
                axis,
                None,
                T::zero(),
                T::DTYPE.size() as u64,
                &|acc, flat, _emit| *acc += src[flat],
            )
        });
        let dst = out.as_mut_slice();
        for (reduced_flat, total) in finals {
            dst[reduced_flat] = total;
        }
    } else {
        ctx.busy(|| {
            let src = a.as_slice();
            let dst = out.as_mut_slice();
            for o in 0..outer {
                let src_base = o * n * inner;
                let dst_base = o * inner;
                for i in 0..n {
                    let row = &src[src_base + i * inner..src_base + (i + 1) * inner];
                    for (k, &v) in row.iter().enumerate() {
                        dst[dst_base + k] += v;
                    }
                }
            }
        });
    }
    ctx.faults.inject_slice("reduce", out.as_mut_slice());
    out
}

/// `MAXVAL(a)` for ordered reals/integers; returns the maximum. Moves the
/// same partials as a sum reduction but charges no FLOPs (comparisons).
pub fn max_all<T: Elem + PartialOrd>(ctx: &Ctx, a: &DistArray<T>) -> T {
    assert!(!a.is_empty() || a.len() == 1);
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    if ctx.spmd() && grid_procs(a) > 1 {
        ctx.busy(|| {
            fold_exec::<T, T, Option<T>>(
                ctx,
                a.layout(),
                a.as_slice(),
                None,
                &|_flat, x| x,
                &|best, _flat, x| match best {
                    Some(b) => {
                        if x > *b {
                            *b = x;
                        }
                    }
                    None => *best = Some(x),
                },
            )
        })
        .expect("max of empty array")
    } else {
        ctx.busy(|| {
            let s = a.as_slice();
            let mut best = s[0];
            for &x in &s[1..] {
                if x > best {
                    best = x;
                }
            }
            best
        })
    }
}

/// `MINVAL(a)`.
pub fn min_all<T: Elem + PartialOrd>(ctx: &Ctx, a: &DistArray<T>) -> T {
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    if ctx.spmd() && grid_procs(a) > 1 {
        ctx.busy(|| {
            fold_exec::<T, T, Option<T>>(
                ctx,
                a.layout(),
                a.as_slice(),
                None,
                &|_flat, x| x,
                &|best, _flat, x| match best {
                    Some(b) => {
                        if x < *b {
                            *b = x;
                        }
                    }
                    None => *best = Some(x),
                },
            )
        })
        .expect("min of empty array")
    } else {
        ctx.busy(|| {
            let s = a.as_slice();
            let mut best = s[0];
            for &x in &s[1..] {
                if x < best {
                    best = x;
                }
            }
            best
        })
    }
}

/// `MAXLOC(|a|)` — flat index and value of the element of largest
/// magnitude (the pivot search of `gauss-jordan` and `lu`).
pub fn maxloc_abs<T: Num>(ctx: &Ctx, a: &DistArray<T>) -> (usize, T) {
    record_reduce::<T>(ctx, a.rank(), 0, a.len() as u64, grid_procs(a) as u64 - 1);
    if ctx.spmd() && grid_procs(a) > 1 {
        // The strict `>` keeps the first of equal magnitudes, matching the
        // serial scan.
        let st = ctx.busy(|| {
            fold_exec::<T, T, Option<(usize, T, f64)>>(
                ctx,
                a.layout(),
                a.as_slice(),
                None,
                &|_flat, x| x,
                &|st, flat, x| {
                    let m = x.mag();
                    match st {
                        Some((_, _, bm)) if m > *bm => *st = Some((flat, x, m)),
                        Some(_) => {}
                        None => *st = Some((flat, x, m)),
                    }
                },
            )
        });
        let (best, v, _) = st.expect("maxloc of empty array");
        (best, v)
    } else {
        ctx.busy(|| {
            let s = a.as_slice();
            let mut best = 0usize;
            let mut bm = s[0].mag();
            for (i, &x) in s.iter().enumerate().skip(1) {
                let m = x.mag();
                if m > bm {
                    bm = m;
                    best = i;
                }
            }
            (best, s[best])
        })
    }
}

/// Dot product `SUM(a * b)`: charges the multiplies plus the `N − 1`
/// reduction adds, and records one Reduction (the paper's conj-grad and
/// qr count their inner products this way).
pub fn dot<T: Num>(ctx: &Ctx, a: &DistArray<T>, b: &DistArray<T>) -> T {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    let n = a.len() as u64;
    ctx.add_flops(n * T::DTYPE.mul_flops() + flops::reduction(n) * T::DTYPE.add_flops());
    record_reduce::<T>(ctx, a.rank(), 0, n, grid_procs(a) as u64 - 1);
    let mut s = if ctx.spmd() && grid_procs(a) > 1 {
        // Each product `a * b` is formed by the owner of its flat
        // (aligned operands per the HPF assumption) and only the product
        // is shipped. Above the parallel threshold the fold state keeps
        // the per-4096-chunk partials so the final combination can
        // reproduce the virtual backend's rayon reduce tree bit for bit.
        let bs = b.as_slice();
        let lift = |flat: usize, x: T| x * bs[flat];
        if a.len() >= dpf_array::PAR_THRESHOLD {
            ctx.busy(|| {
                let (mut partials, tail) = fold_exec::<T, T, (Vec<T>, T)>(
                    ctx,
                    a.layout(),
                    a.as_slice(),
                    (Vec::new(), T::zero()),
                    &lift,
                    &|st, flat, y| {
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
                rayon_piece_sum(partials)
            })
        } else {
            ctx.busy(|| {
                fold_exec(
                    ctx,
                    a.layout(),
                    a.as_slice(),
                    T::zero(),
                    &lift,
                    &|acc: &mut T, _flat, y| *acc += y,
                )
            })
        }
    } else {
        ctx.busy(|| {
            if a.len() >= dpf_array::PAR_THRESHOLD {
                a.as_slice()
                    .par_chunks(DOT_CHUNK)
                    .zip(b.as_slice().par_chunks(DOT_CHUNK))
                    .map(|(xa, xb)| {
                        let mut acc = T::zero();
                        for (&x, &y) in xa.iter().zip(xb) {
                            acc += x * y;
                        }
                        acc
                    })
                    // dpf-lint: allow(determinism-taint, reason = "blessed bit-replay pair: fixed DOT_CHUNK piece sums make this the reference tree that rayon_piece_sum replays bit-exactly on the SPMD fold")
                    .reduce(T::zero, |p, q| p + q)
            } else {
                let mut acc = T::zero();
                for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
                    acc += x * y;
                }
                acc
            }
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

fn serial_sum<T: Num>(s: &[T]) -> T {
    let mut acc = T::zero();
    for &x in s {
        acc += x;
    }
    acc
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
