//! CSHIFT and EOSHIFT — the suite's most frequent communication pattern.
//!
//! A circular shift along a parallel axis moves the elements near each
//! block boundary to the neighbouring processor; along a serial axis it is
//! a local memory move and records no communication. Off-processor volume
//! is computed from the block map via
//! [`Layout::offproc_per_lane`](dpf_array::Layout::offproc_per_lane).
//! Under the SPMD backend a shift along a distributed axis is a
//! neighbour slab exchange ([`shift_exec`]): each worker sends the owners
//! on its axis line the slabs of its block they read, one frame per run,
//! and copies the rest of its output within its own block.

use crate::spmd::shift_exec;
use dpf_array::expr::ShiftBoundary;
use dpf_array::{DistArray, Layout, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, Elem};
use rayon::prelude::*;

/// Circular shift by `shift` along `axis`: `out[.., i, ..] = a[.., (i + shift) mod n, ..]`
/// (CMF/HPF convention: positive shift moves data toward lower indices).
pub fn cshift<T: Elem>(ctx: &Ctx, a: &DistArray<T>, axis: usize, shift: isize) -> DistArray<T> {
    shifted(ctx, a, axis, shift, ShiftBoundary::Cyclic)
}

/// Like [`cshift`], but writing into an existing same-shaped array instead
/// of allocating. Records the identical communication event.
pub fn cshift_into<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    out: &mut DistArray<T>,
) {
    shift_eager(ctx, a, axis, shift, ShiftBoundary::Cyclic, out);
}

/// End-off shift: elements shifted off the end are discarded and `fill`
/// enters from the other side.
pub fn eoshift<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    fill: T,
) -> DistArray<T> {
    shifted(ctx, a, axis, shift, ShiftBoundary::Fill(fill))
}

/// Like [`eoshift`], but writing into an existing same-shaped array
/// instead of allocating. Records the identical communication event.
pub fn eoshift_into<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    fill: T,
    out: &mut DistArray<T>,
) {
    shift_eager(ctx, a, axis, shift, ShiftBoundary::Fill(fill), out);
}

/// The §1.5 pattern and the fault-injection site of a shift with
/// `boundary`.
pub(crate) fn shift_kind<T>(boundary: &ShiftBoundary<T>) -> (CommPattern, &'static str) {
    match boundary {
        ShiftBoundary::Cyclic => (CommPattern::Cshift, "cshift"),
        ShiftBoundary::Fill(_) => (CommPattern::Eoshift, "eoshift"),
    }
}

/// Record the analytic Cshift/Eoshift event for a shift of an array laid
/// out as `layout` — shared with the fusing evaluator (`crate::fuse`),
/// which must replay the exact eager record for each deferred shift node.
pub(crate) fn record_shift<T: Elem>(
    ctx: &Ctx,
    layout: &Layout,
    axis: usize,
    shift: isize,
    boundary: &ShiftBoundary<T>,
) {
    let offproc = layout.offproc_per_lane(axis, shift) * layout.lanes(axis);
    ctx.record_comm(
        shift_kind(boundary).0,
        layout.rank(),
        layout.rank(),
        layout.len() as u64,
        (offproc * T::DTYPE.size()) as u64,
    );
}

/// One eager shift into `out`: its record, its data movement and its
/// fault-injection site.
fn shift_eager<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    boundary: ShiftBoundary<T>,
    out: &mut DistArray<T>,
) {
    record_shift(ctx, a.layout(), axis, shift, &boundary);
    shifted_into(ctx, a, axis, shift, boundary, out);
    ctx.faults
        .inject_slice(shift_kind(&boundary).1, out.as_mut_slice());
}

fn shifted<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    boundary: ShiftBoundary<T>,
) -> DistArray<T> {
    // Every output lane is fully overwritten below, so a pooled scratch
    // buffer (possibly holding stale data) is safe.
    let mut out = DistArray::<T>::scratch(ctx, a.shape(), a.layout().axes());
    shift_eager(ctx, a, axis, shift, boundary, &mut out);
    out
}

/// Shift `a` by `shift` along `axis` into `out`, recording and injecting
/// nothing: the data movement of the eager shifts, the fused shift nodes
/// and the stencil's CSHIFT composition.
pub(crate) fn shifted_into<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    shift: isize,
    boundary: ShiftBoundary<T>,
    out: &mut DistArray<T>,
) {
    assert!(
        axis < a.rank(),
        "shift axis {axis} out of rank {}",
        a.rank()
    );
    assert_eq!(a.shape(), out.shape(), "shift output shape mismatch");
    if ctx.spmd() && a.layout().procs_on(axis) > 1 && a.layout() == out.layout() {
        let fill = match boundary {
            ShiftBoundary::Cyclic => None,
            ShiftBoundary::Fill(v) => Some(v),
        };
        let (src, dst) = (a.as_slice(), out.as_mut_slice());
        ctx.busy(|| shift_exec(ctx, a.layout(), src, dst, axis, shift, fill));
        return;
    }
    let shape = a.shape();
    let n = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    ctx.busy(|| {
        let src = a.as_slice();
        let dst = out.as_mut_slice();
        // View the array as [outer, n, inner]; a shift along `axis` copies
        // whole inner-contiguous lanes. Each output lane `(o, i)` is an
        // independent copy, so lanes parallelize directly.
        let copy_lane = |row: usize, d: &mut [T]| {
            let o = row / n;
            let i = row % n;
            let base = o * n * inner;
            let j = i as isize + shift;
            match boundary {
                ShiftBoundary::Cyclic => {
                    let j = j.rem_euclid(n as isize) as usize;
                    d.copy_from_slice(&src[base + j * inner..base + (j + 1) * inner]);
                }
                ShiftBoundary::Fill(fill) => {
                    if j < 0 || j >= n as isize {
                        d.fill(fill);
                    } else {
                        let j = j as usize;
                        d.copy_from_slice(&src[base + j * inner..base + (j + 1) * inner]);
                    }
                }
            }
        };
        // Splitting lanes across rayon only pays when there is more than
        // one worker thread; on a single-core host the parallel dispatch
        // overhead made cshift@65K ~0.74x of the seed loop (BENCH_1).
        if dst.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            dst.par_chunks_mut(inner.max(1))
                .enumerate()
                .for_each(|(row, d)| copy_lane(row, d));
        } else {
            dst.chunks_mut(inner.max(1))
                .enumerate()
                .for_each(|(row, d)| copy_lane(row, d));
        }
    });
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
    fn cshift_1d_moves_toward_lower_indices() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[5], &[PAR], |i| i[0] as i32);
        let s = cshift(&ctx, &a, 0, 1);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 4, 0]);
        let s = cshift(&ctx, &a, 0, -1);
        assert_eq!(s.to_vec(), vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn cshift_2d_along_each_axis() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as i32);
        let r = cshift(&ctx, &a, 1, 1);
        assert_eq!(r.to_vec(), vec![1, 2, 0, 4, 5, 3]);
        let c = cshift(&ctx, &a, 0, 1);
        assert_eq!(c.to_vec(), vec![3, 4, 5, 0, 1, 2]);
    }

    #[test]
    fn eoshift_fills_vacated_positions() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as i32 + 1);
        let s = eoshift(&ctx, &a, 0, 1, -9);
        assert_eq!(s.to_vec(), vec![2, 3, 4, -9]);
        let s = eoshift(&ctx, &a, 0, -2, 0);
        assert_eq!(s.to_vec(), vec![0, 0, 1, 2]);
    }

    #[test]
    fn cshift_records_offproc_bytes() {
        let ctx = ctx(4);
        // 16 f64 over 4 procs: shift 1 moves 4 elements off-proc = 32 bytes.
        let a = DistArray::<f64>::zeros(&ctx, &[16], &[PAR]);
        let _ = cshift(&ctx, &a, 0, 1);
        let snap = ctx.instr.comm_snapshot();
        let (key, stats) = snap.iter().next().unwrap();
        assert_eq!(key.pattern, CommPattern::Cshift);
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.offproc_bytes, 32);
    }

    #[test]
    fn serial_axis_shift_is_local() {
        let ctx = ctx(4);
        let a = DistArray::<f64>::zeros(&ctx, &[16], &[SER]);
        let _ = cshift(&ctx, &a, 0, 3);
        let snap = ctx.instr.comm_snapshot();
        let stats = snap.values().next().unwrap();
        assert_eq!(stats.offproc_bytes, 0);
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn into_variants_match_allocating_and_record_identically() {
        let ctx_a = ctx(4);
        let ctx_b = ctx(4);
        let mk = |c: &Ctx| {
            DistArray::<i32>::from_fn(c, &[6, 5], &[PAR, PAR], |i| (i[0] * 5 + i[1]) as i32)
        };
        let a = mk(&ctx_a);
        let b = mk(&ctx_b);
        let expected_c = cshift(&ctx_a, &a, 1, 2);
        let expected_e = eoshift(&ctx_a, &a, 0, -1, -7);

        let mut out = DistArray::<i32>::zeros(&ctx_b, &[6, 5], &[PAR, PAR]);
        cshift_into(&ctx_b, &b, 1, 2, &mut out);
        assert_eq!(out.to_vec(), expected_c.to_vec());
        eoshift_into(&ctx_b, &b, 0, -1, -7, &mut out);
        assert_eq!(out.to_vec(), expected_e.to_vec());

        // Byte-identical communication records.
        assert_eq!(ctx_a.instr.comm_snapshot(), ctx_b.instr.comm_snapshot());
    }

    #[test]
    fn parallel_lane_path_matches_serial() {
        // Above PAR_THRESHOLD the lane loop runs under rayon; verify it
        // against the sub-threshold result on the same values.
        let ctx = ctx(4);
        let shape = [130, 131]; // 17_030 elements
        let a =
            DistArray::<i32>::from_fn(&ctx, &shape, &[PAR, PAR], |i| (i[0] * 131 + i[1]) as i32);
        for (axis, sh) in [(0usize, 3isize), (1, -2), (0, -129), (1, 131)] {
            let got = cshift(&ctx, &a, axis, sh);
            for probe in [(0usize, 0usize), (7, 99), (129, 130), (64, 1)] {
                let (i, j) = probe;
                let n = shape[axis] as isize;
                let mut src_idx = [i, j];
                src_idx[axis] = (src_idx[axis] as isize + sh).rem_euclid(n) as usize;
                assert_eq!(got.get(&[i, j]), a.get(&src_idx), "axis {axis} shift {sh}");
            }
        }
    }

    #[test]
    fn spmd_backend_matches_virtual_and_meters_traffic() {
        use dpf_core::Backend;
        let vctx = ctx(4);
        let sctx = Ctx::with_backend(Machine::cm5(4), Backend::Spmd);
        let mk = |c: &Ctx| {
            DistArray::<i32>::from_fn(c, &[6, 5], &[PAR, PAR], |i| (i[0] * 5 + i[1]) as i32)
        };
        let a = mk(&vctx);
        let b = mk(&sctx);
        for (axis, sh) in [(0usize, 1isize), (1, -2), (0, 7), (1, 0)] {
            assert_eq!(
                cshift(&sctx, &b, axis, sh).to_vec(),
                cshift(&vctx, &a, axis, sh).to_vec(),
                "axis {axis} shift {sh}"
            );
            assert_eq!(
                eoshift(&sctx, &b, axis, sh, -3).to_vec(),
                eoshift(&vctx, &a, axis, sh, -3).to_vec(),
            );
        }
        // Identical analytic records; real channel traffic only on spmd.
        assert_eq!(vctx.instr.comm_snapshot(), sctx.instr.comm_snapshot());
        assert_eq!(vctx.link.messages(), 0);
        assert!(sctx.link.payload_bytes() > 0);
    }

    #[test]
    fn full_cycle_shift_is_identity() {
        let ctx = ctx(2);
        let a = DistArray::<i32>::from_fn(&ctx, &[6], &[PAR], |i| i[0] as i32);
        assert_eq!(cshift(&ctx, &a, 0, 6).to_vec(), a.to_vec());
        assert_eq!(cshift(&ctx, &a, 0, 0).to_vec(), a.to_vec());
    }
}
