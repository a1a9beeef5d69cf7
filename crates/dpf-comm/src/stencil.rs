//! Stencil driver — regular neighbourhood evaluation.
//!
//! Table 8 lists three stencil implementation techniques in the suite:
//! CSHIFT composition (boson, wave-1D, ellip-2D, rp, mdcell), *chained*
//! CSHIFT (step4) and array sections (diff-1D/2D/3D). This module provides
//! the composite driver: it records **one** `Stencil` event per invocation
//! (suppressing its internal shifts so communication counts per iteration
//! match the paper's Table 6) and charges the off-processor volume of the
//! halo exchange — for each stencil point with a non-zero axis offset, the
//! block-boundary elements of that axis cross processors once.
//!
//! Under the SPMD backend the driver runs that CSHIFT composition. Each
//! point reads the source shifted by one unrecorded shift per non-zero
//! offset component, chained for a multi-axis point: a neighbour slab
//! exchange along a distributed axis, a local lane copy along a serial
//! one. The weighted source is then added into the output in the host
//! loop's per-point accumulation order, so results match bit for bit
//! while only the block-boundary slabs cross the channels.

use crate::shift::shifted_into;
use dpf_array::expr::ShiftBoundary;
use dpf_array::{DistArray, MAX_RANK, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, Elem, Num};
use rayon::prelude::*;

/// Boundary handling for a stencil application: `Cyclic` wraps every
/// axis (CSHIFT); `Fill(v)` reads `v` wherever a point leaves the array
/// (Dirichlet via EOSHIFT).
pub type StencilBoundary<T> = ShiftBoundary<T>;

/// One stencil point: an offset per axis and a weight.
#[derive(Clone, Debug, PartialEq)]
pub struct StencilPoint<T> {
    /// Offset added to the element index, one entry per axis.
    pub offset: Vec<isize>,
    /// Coefficient.
    pub weight: T,
}

impl<T> StencilPoint<T> {
    /// Convenience constructor.
    pub fn new(offset: &[isize], weight: T) -> Self {
        StencilPoint {
            offset: offset.to_vec(),
            weight,
        }
    }
}

/// Apply a constant-coefficient stencil: `out[i] = Σ_k w_k · a[i + o_k]`.
///
/// Charges `points + (points − 1)` FLOPs per element (multiplies plus the
/// combining adds) scaled by the dtype, and records a single `Stencil`
/// communication event whose off-processor volume is the exact halo the
/// equivalent CSHIFT composition would exchange.
pub fn stencil<T: Num>(
    ctx: &Ctx,
    a: &DistArray<T>,
    points: &[StencilPoint<T>],
    boundary: StencilBoundary<T>,
) -> DistArray<T> {
    // Every output element is overwritten with the accumulated sum, so a
    // pooled scratch buffer (possibly holding stale data) is safe.
    let mut out = DistArray::<T>::scratch(ctx, a.shape(), a.layout().axes());
    stencil_into(ctx, a, points, boundary, &mut out);
    out
}

/// Like [`stencil`], but writing into an existing same-shaped array
/// instead of allocating. Charges the identical FLOPs and records the
/// identical `Stencil` communication event.
pub fn stencil_into<T: Num>(
    ctx: &Ctx,
    a: &DistArray<T>,
    points: &[StencilPoint<T>],
    boundary: StencilBoundary<T>,
    out: &mut DistArray<T>,
) {
    assert!(!points.is_empty(), "stencil needs at least one point");
    assert!(
        a.rank() <= MAX_RANK,
        "stencil driver supports rank <= {MAX_RANK}"
    );
    assert_eq!(a.shape(), out.shape(), "stencil output shape mismatch");
    for p in points {
        assert_eq!(p.offset.len(), a.rank(), "stencil offset rank mismatch");
    }
    let npts = points.len() as u64;
    ctx.add_flops(
        a.len() as u64 * (npts * T::DTYPE.mul_flops() + (npts - 1) * T::DTYPE.add_flops()),
    );
    record_stencil(ctx, a, points.iter().map(|p| p.offset.as_slice()));

    let shape = a.shape();
    let rank = shape.len();
    let strides = a.layout().strides();
    let apply = |flat: usize, slot: &mut T| {
        // Decode the multi-index once per element.
        let mut idx = [0usize; MAX_RANK];
        let mut rem = flat;
        for d in (0..rank).rev() {
            idx[d] = rem % shape[d];
            rem /= shape[d];
        }
        let mut acc = T::zero();
        'points: for p in points {
            let mut off = 0usize;
            for d in 0..rank {
                let j = idx[d] as isize + p.offset[d];
                let j = if j < 0 || j >= shape[d] as isize {
                    match boundary {
                        StencilBoundary::Cyclic => j.rem_euclid(shape[d] as isize) as usize,
                        StencilBoundary::Fill(fill) => {
                            acc += p.weight * fill;
                            continue 'points;
                        }
                    }
                } else {
                    j as usize
                };
                off += j * strides[d];
            }
            acc += p.weight * a.as_slice()[off];
        }
        *slot = acc;
    };
    if ctx.spmd() && a.layout().is_distributed() && out.layout() == a.layout() {
        compose_shifts(ctx, a, points, boundary, out);
    } else {
        // Interior/boundary split: a cell all of whose stencil reads stay
        // in range needs no index decode, no wrap test and no boundary
        // branch — just `Σ w_k · src[flat + flat_off_k]`. Only the cells
        // within the offset extent of an edge (the halo-depth shell) take
        // the general `apply` path. The per-point accumulation order is
        // identical, so results are bit-for-bit the same.
        let mut lo = [0usize; MAX_RANK];
        let mut hi = [0usize; MAX_RANK];
        for d in 0..rank {
            let neg = points
                .iter()
                .map(|p| (-p.offset[d]).max(0) as usize)
                .max()
                .unwrap_or(0);
            let pos = points
                .iter()
                .map(|p| p.offset[d].max(0) as usize)
                .max()
                .unwrap_or(0);
            lo[d] = neg.min(shape[d]);
            hi[d] = shape[d].saturating_sub(pos).max(lo[d]);
        }
        let flat_offs: Vec<isize> = points
            .iter()
            .map(|p| {
                p.offset
                    .iter()
                    .zip(strides.iter())
                    .map(|(&o, &s)| o * s as isize)
                    .sum()
            })
            // dpf-lint: allow(hot-path-alloc, reason = "O(points) flat-offset table built once per stencil call, not per element")
            .collect();
        let inner_n = shape[rank - 1];
        let src = a.as_slice();
        // Evaluate the flat range [start, start + dst.len()): row by row,
        // boundary cells via `apply`, interior cells via the offset table.
        let process_range = |start: usize, dst: &mut [T]| {
            let end = start + dst.len();
            let mut flat = start;
            while flat < end {
                let row_start = flat - (flat % inner_n);
                let row_end = (row_start + inner_n).min(end);
                let mut idx = [0usize; MAX_RANK];
                let mut rem = row_start / inner_n;
                for d in (0..rank - 1).rev() {
                    idx[d] = rem % shape[d];
                    rem /= shape[d];
                }
                let outer_interior = (0..rank - 1).all(|d| idx[d] >= lo[d] && idx[d] < hi[d]);
                if outer_interior {
                    let int_lo = (row_start + lo[rank - 1]).clamp(flat, row_end);
                    let int_hi = (row_start + hi[rank - 1]).clamp(int_lo, row_end);
                    for f in flat..int_lo {
                        apply(f, &mut dst[f - start]);
                    }
                    for f in int_lo..int_hi {
                        let mut acc = T::zero();
                        for (pt, &o) in points.iter().zip(&flat_offs) {
                            acc += pt.weight * src[(f as isize + o) as usize];
                        }
                        dst[f - start] = acc;
                    }
                    for f in int_hi..row_end {
                        apply(f, &mut dst[f - start]);
                    }
                } else {
                    for f in flat..row_end {
                        apply(f, &mut dst[f - start]);
                    }
                }
                flat = row_end;
            }
        };
        ctx.busy(|| {
            let len = out.len();
            let dst = out.as_mut_slice();
            if len >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
                let span = len.div_ceil(rayon::current_num_threads()).max(1);
                dst.par_chunks_mut(span)
                    .enumerate()
                    .for_each(|(i, c)| process_range(i * span, c));
            } else {
                process_range(0, dst);
            }
        });
    }
    ctx.faults.inject_slice("stencil", out.as_mut_slice());
}

/// The SPMD stencil: zero `out`, then for each point in order add
/// `w · src[i]` into it, where `src` is `a` itself for an all-zero offset
/// or `a` shifted by one [`shifted_into`] per non-zero offset component,
/// chained through two pooled scratch arrays. That is the host loop's
/// per-element accumulation order, and a chain of per-axis shifts reads
/// what the host loop's per-axis wrap or fill reads.
fn compose_shifts<T: Num>(
    ctx: &Ctx,
    a: &DistArray<T>,
    points: &[StencilPoint<T>],
    boundary: StencilBoundary<T>,
    out: &mut DistArray<T>,
) {
    let mut shifted = DistArray::<T>::scratch(ctx, a.shape(), a.layout().axes());
    let mut next = DistArray::<T>::scratch(ctx, a.shape(), a.layout().axes());
    ctx.busy(|| out.as_mut_slice().fill(T::zero()));
    for pt in points {
        let mut src = a;
        for (axis, &o) in pt.offset.iter().enumerate().filter(|(_, &o)| o != 0) {
            shifted_into(ctx, src, axis, o, boundary, &mut next);
            std::mem::swap(&mut shifted, &mut next);
            src = &shifted;
        }
        ctx.busy(|| {
            for (o, &s) in out.as_mut_slice().iter_mut().zip(src.as_slice()) {
                *o += pt.weight * s;
            }
        });
    }
    shifted.recycle(ctx);
    next.recycle(ctx);
}

/// Record the halo volume of a stencil: per point, the number of elements
/// whose owner differs from the owner of the offset position (per-axis
/// block-boundary fractions combined by inclusion–exclusion, exact for
/// uniform blocks).
fn record_stencil<'a, T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    offsets: impl Iterator<Item = &'a [isize]>,
) {
    let layout = a.layout();
    let len = a.len() as f64;
    let mut offproc_elems = 0.0f64;
    for off in offsets {
        if off.iter().all(|&o| o == 0) {
            continue;
        }
        let mut stay = 1.0f64;
        for (d, &o) in off.iter().enumerate() {
            let n = a.shape()[d] as f64;
            let moved = layout.offproc_per_lane(d, o) as f64;
            stay *= 1.0 - moved / n;
        }
        offproc_elems += len * (1.0 - stay);
    }
    ctx.record_comm(
        CommPattern::Stencil,
        a.rank(),
        a.rank(),
        a.len() as u64,
        (offproc_elems.round() as u64) * T::DTYPE.size() as u64,
    );
}

/// The classical `2·rank + 1`-point Laplacian-style star stencil
/// (centre weight plus one weight for every face neighbour).
pub fn star_stencil<T: Num>(rank: usize, centre: T, neighbour: T) -> Vec<StencilPoint<T>> {
    let mut pts = vec![StencilPoint::new(&vec![0isize; rank], centre)];
    for d in 0..rank {
        for s in [-1isize, 1] {
            let mut off = vec![0isize; rank];
            off[d] = s;
            pts.push(StencilPoint {
                offset: off,
                weight: neighbour,
            });
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::PAR;
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn three_point_stencil_cyclic() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as f64);
        // out[i] = a[i-1] + a[i] + a[i+1] (cyclic)
        let pts = star_stencil(1, 1.0, 1.0);
        let out = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
        assert_eq!(
            out.to_vec(),
            vec![0. + 1. + 3., 0. + 1. + 2., 1. + 2. + 3., 2. + 3. + 0.]
        );
    }

    #[test]
    fn dirichlet_boundary_uses_fill() {
        let ctx = ctx(2);
        let a = DistArray::<f64>::from_vec(&ctx, &[3], &[PAR], vec![1., 2., 3.]);
        let pts = star_stencil(1, 0.0, 1.0);
        let out = stencil(&ctx, &a, &pts, StencilBoundary::Fill(10.0));
        // out[0] = fill + a[1] = 12; out[1] = a[0]+a[2] = 4; out[2] = a[1]+fill = 12.
        assert_eq!(out.to_vec(), vec![12.0, 4.0, 12.0]);
    }

    #[test]
    fn five_point_laplacian_2d() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::from_fn(&ctx, &[4, 4], &[PAR, PAR], |i| (i[0] * 4 + i[1]) as f64);
        let pts = star_stencil(2, -4.0, 1.0);
        let out = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
        // Interior point (1,1): neighbours 1+9+4+6 - 4*5 = 0.
        assert_eq!(out.get(&[1, 1]), 0.0);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Stencil), 1);
        // Constituent shifts are suppressed.
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Cshift), 0);
    }

    #[test]
    fn stencil_charges_2p_minus_1_flops() {
        let ctx = ctx(1);
        let a = DistArray::<f64>::zeros(&ctx, &[10], &[PAR]);
        let pts = star_stencil(1, 1.0, 0.5); // 3 points
        let _ = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
        assert_eq!(ctx.instr.flops(), 10 * 5);
    }

    #[test]
    fn halo_volume_counts_block_boundaries() {
        let ctx = ctx(4);
        // 16 doubles over 4 procs, 3-point stencil: each +-1 shift moves 4
        // elements -> 8 elements * 8 bytes = 64.
        let a = DistArray::<f64>::zeros(&ctx, &[16], &[PAR]);
        let pts = star_stencil(1, 1.0, 1.0);
        let _ = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
        let snap = ctx.instr.comm_snapshot();
        assert_eq!(snap.values().next().unwrap().offproc_bytes, 64);
    }

    #[test]
    fn stencil_into_matches_allocating_and_records_identically() {
        let ctx_a = ctx(4);
        let ctx_b = ctx(4);
        let mk = |c: &Ctx| {
            DistArray::<f64>::from_fn(c, &[6, 7], &[PAR, PAR], |i| (i[0] * 7 + i[1]) as f64)
        };
        let a = mk(&ctx_a);
        let b = mk(&ctx_b);
        let pts = star_stencil(2, -4.0, 1.0);
        let expected = stencil(&ctx_a, &a, &pts, StencilBoundary::Fill(2.5));

        let mut out = DistArray::<f64>::zeros(&ctx_b, &[6, 7], &[PAR, PAR]);
        stencil_into(&ctx_b, &b, &pts, StencilBoundary::Fill(2.5), &mut out);
        assert_eq!(out.to_vec(), expected.to_vec());
        assert_eq!(ctx_a.instr.flops(), ctx_b.instr.flops());
        assert_eq!(ctx_a.instr.comm_snapshot(), ctx_b.instr.comm_snapshot());
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn offset_rank_must_match() {
        let ctx = ctx(1);
        let a = DistArray::<f64>::zeros(&ctx, &[4, 4], &[PAR, PAR]);
        let pts = vec![StencilPoint::new(&[1], 1.0)];
        let _ = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
    }
}
