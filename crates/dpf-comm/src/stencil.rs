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
//! Both backends run that CSHIFT composition: the output starts at zero
//! and each point in order adds its weight times the source shifted by
//! its offset. On the host a point is one read plan
//! (`shift::ShiftRead`), the plan the eager shifts copy through, covering
//! a diagonal point's chain of shifts too; the output is accumulated one
//! cache-sized window at a time, so no shifted array is materialized.
//! Under the SPMD backend on a distributed layout each point reads the
//! source shifted by one unrecorded shift per non-zero offset component,
//! chained for a multi-axis point: a neighbour slab exchange along a
//! distributed axis, a local copy along a serial one. Every element sums
//! the same products in the same order either way, so results match bit
//! for bit while only the block-boundary slabs cross the channels.

use crate::shift::{fill_of, for_each_span, shifted_into, ShiftRead};
use dpf_array::expr::ShiftBoundary;
use dpf_array::DistArray;
use dpf_core::{CommPattern, Ctx, Elem, Num};

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
    assert_eq!(a.shape(), out.shape(), "stencil output shape mismatch");
    for p in points {
        assert_eq!(p.offset.len(), a.rank(), "stencil offset rank mismatch");
    }
    let npts = points.len() as u64;
    ctx.add_flops(
        a.len() as u64 * (npts * T::DTYPE.mul_flops() + (npts - 1) * T::DTYPE.add_flops()),
    );
    record_stencil(ctx, a, points.iter().map(|p| p.offset.as_slice()));

    if ctx.spmd() && a.layout().is_distributed() && out.layout() == a.layout() {
        compose_shifts(ctx, a, points, boundary, out);
    } else {
        read_points(ctx, a, points, boundary, out);
    }
    ctx.faults.inject_slice("stencil", out.as_mut_slice());
}

/// Output elements per window of the host stencil: small enough that a
/// window stays in the L1 cache while every point adds into it.
const WINDOW: usize = 4096;

/// The host stencil: per cache-sized window of `out`, zero it, then for
/// each point in order add `w ×` the pieces of the point's read plan —
/// `a` shifted by the point's offset, a chain of shifts for a diagonal
/// point — or `w × fill` for a fill piece. That is `compose_shifts`'s
/// per-element accumulation order, without the intermediate arrays.
fn read_points<T: Num>(
    ctx: &Ctx,
    a: &DistArray<T>,
    points: &[StencilPoint<T>],
    boundary: StencilBoundary<T>,
    out: &mut DistArray<T>,
) {
    let reads: Vec<ShiftRead<T>> = points
        .iter()
        .map(|p| ShiftRead::new(a.shape(), p.offset.iter().copied().enumerate(), boundary))
        .collect();
    // A circular shift has no fill pieces.
    let fill = fill_of(boundary).unwrap_or(T::zero());
    let src = a.as_slice();
    ctx.busy(|| {
        for_each_span(out.as_mut_slice(), 1, |start, span| {
            for (w, win) in span.chunks_mut(WINDOW).enumerate() {
                win.fill(T::zero());
                for (pt, read) in points.iter().zip(&reads) {
                    read.pieces(start + w * WINDOW, win.len(), |r, from| match from {
                        Some(s) => {
                            for (o, &x) in win[r.clone()].iter_mut().zip(&src[s..s + r.len()]) {
                                *o += pt.weight * x;
                            }
                        }
                        None => {
                            let wf = pt.weight * fill;
                            for o in &mut win[r] {
                                *o += wf;
                            }
                        }
                    });
                }
            }
        })
    });
}

/// The SPMD stencil: zero `out`, then for each point in order add
/// `w · src[i]` into it, where `src` is `a` itself for an all-zero offset
/// or `a` shifted by one [`shifted_into`] per non-zero offset component,
/// chained through two pooled scratch arrays. That is `read_points`'s
/// per-element accumulation order, and a chain of per-axis shifts reads
/// what the point's read plan reads.
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
