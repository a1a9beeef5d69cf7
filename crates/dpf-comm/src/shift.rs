//! CSHIFT and EOSHIFT — the suite's most frequent communication pattern.
//!
//! A circular shift along a parallel axis moves the elements near each
//! block boundary to the neighbouring processor; along a serial axis it is
//! a local memory move and records no communication. Off-processor volume
//! is computed from the block map via
//! [`Layout::offproc_per_lane`](dpf_array::Layout::offproc_per_lane).
//!
//! The CMF/HPF rule `out(i) = a(i + shift)`, cyclic or end-off with a
//! fill, is stated once, in [`axis_runs`]: it cuts a range of output
//! positions along the axis into runs, each reading consecutive source
//! positions of one block or taking the fill. Every shift reads through
//! it. On the host a [`ShiftRead`] plan views the output as slabs of the
//! innermost shifted axis and cuts each slab into that axis's runs, so
//! the eager shifts, the fused shift nodes (`crate::fuse`) and the host
//! stencil (`crate::stencil`) copy or accumulate whole contiguous pieces.
//! Under the SPMD backend a shift along a distributed axis is a
//! neighbour slab exchange ([`shift_exec`]): each worker cuts its block's
//! output range with the same function, sends the owners on its axis
//! line the slabs of its block they read, one frame per run, and copies
//! the rest of its output within its own block.

use crate::spmd::shift_exec;
use dpf_array::expr::ShiftBoundary;
use dpf_array::{DistArray, Layout, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, Elem};
use rayon::prelude::*;
use std::ops::Range;

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
        let (src, dst) = (a.as_slice(), out.as_mut_slice());
        ctx.busy(|| shift_exec(ctx, a.layout(), src, dst, axis, shift, fill_of(boundary)));
        return;
    }
    let read = ShiftRead::new(a.shape(), [(axis, shift)], boundary);
    let src = a.as_slice();
    ctx.busy(|| for_each_span(out.as_mut_slice(), 1, |start, d| read.copy(src, start, d)));
}

/// Run `f(start, span)` over contiguous spans of `dst` that start at flat
/// `start`: one span per rayon thread, each at least `min_span` long,
/// when `dst` reaches [`PAR_THRESHOLD`] and there is more than one thread
/// (on a single-core host the dispatch costs more than it saves), else
/// one span over all of `dst`.
pub(crate) fn for_each_span<T: Send>(
    dst: &mut [T],
    min_span: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let threads = rayon::current_num_threads();
    if dst.len() >= PAR_THRESHOLD && threads > 1 {
        let span = dst.len().div_ceil(threads).max(min_span);
        dst.par_chunks_mut(span)
            .enumerate()
            .for_each(|(i, d)| f(i * span, d));
    } else {
        f(0, dst);
    }
}

/// The end-off fill of `boundary`; `None` for a circular shift.
pub(crate) fn fill_of<T>(boundary: ShiftBoundary<T>) -> Option<T> {
    match boundary {
        ShiftBoundary::Cyclic => None,
        ShiftBoundary::Fill(v) => Some(v),
    }
}

/// One run of an output range along a shift axis: `len` positions from
/// `out`, read from consecutive source positions from `src`, or the
/// end-off fill where `src` is `None`.
pub(crate) struct Run {
    pub(crate) out: usize,
    pub(crate) len: usize,
    pub(crate) src: Option<usize>,
}

/// The shift rule: cut the output range `[lo, hi)` of a shift by `shift`
/// along an axis of extent `n` and block `b` into [`Run`]s, each reading
/// one source block or the fill (`cyclic` wraps, otherwise positions
/// past either end read the fill). A range one block long at most has at
/// most three runs, and no source block feeds two of them: re-entering a
/// block would take a range of at least `n - b + 2` positions, more than
/// `b` for every block map over two or more processors. With `b = n` the
/// whole axis is at most two runs.
pub(crate) fn axis_runs(
    lo: usize,
    hi: usize,
    n: usize,
    b: usize,
    shift: isize,
    cyclic: bool,
) -> impl Iterator<Item = Run> {
    let mut i = lo;
    std::iter::from_fn(move || {
        if i >= hi {
            return None;
        }
        let j = i as isize + shift;
        let j = if cyclic { j.rem_euclid(n as isize) } else { j };
        let (len, src) = if j < 0 {
            ((hi - i).min(j.unsigned_abs()), None)
        } else if j as usize >= n {
            (hi - i, None)
        } else {
            let j = j as usize;
            let block_end = ((j / b + 1) * b).min(n);
            ((hi - i).min(block_end - j), Some(j))
        };
        let run = Run { out: i, len, src };
        i += len;
        Some(run)
    })
}

/// How a shift, or a chain of shifts along distinct axes (a stencil
/// point), reads its source on the host. The output is a sequence of
/// slabs: the innermost shifted axis and every axis below it. Each slab
/// reads the source slab its shifts along outer axes pick, through a
/// one-position run of [`axis_runs`] per axis, or takes the fill where
/// one of them leaves the array; within a slab, the innermost axis's
/// runs, built once here, are contiguous source ranges or the fill.
pub(crate) struct ShiftRead<T> {
    /// Flats per slab.
    slab: usize,
    /// The innermost shifted axis's runs, in flats within a slab.
    runs: Vec<Run>,
    /// `(slabs per position, extent, shift)` of each shifted outer axis.
    outer: Vec<(usize, usize, isize)>,
    /// The end-off fill; `None` for a circular shift.
    fill: Option<T>,
}

impl<T: Copy> ShiftRead<T> {
    /// The read plan of a shift by `shifts`' `(axis, shift)` pairs, in
    /// ascending axis order, of an array of `shape`. Zero shifts are
    /// dropped; with none left the plan is one copy of the whole array.
    pub(crate) fn new(
        shape: &[usize],
        shifts: impl IntoIterator<Item = (usize, isize)>,
        boundary: ShiftBoundary<T>,
    ) -> Self {
        let fill = fill_of(boundary);
        let mut shifted: Vec<(usize, isize)> = shifts.into_iter().filter(|s| s.1 != 0).collect();
        let (axis, shift) = shifted.pop().unwrap_or((0, 0));
        let (n, inner) = (shape[axis], shape[axis + 1..].iter().product::<usize>());
        let scale = |r: Run| Run {
            out: r.out * inner,
            len: r.len * inner,
            src: r.src.map(|j| j * inner),
        };
        ShiftRead {
            slab: n * inner,
            runs: axis_runs(0, n, n, n, shift, fill.is_none())
                .map(scale)
                .collect(),
            outer: shifted
                .into_iter()
                .map(|(d, s)| (shape[d + 1..axis].iter().product(), shape[d], s))
                .collect(),
            fill,
        }
    }

    /// The source slab output slab `s` reads, or `None` where a shift
    /// along an outer axis reads the fill.
    fn source_slab(&self, s: usize) -> Option<usize> {
        let mut src = s;
        for &(per, n, shift) in &self.outer {
            let i = s / per % n;
            let j = axis_runs(i, i + 1, n, n, shift, self.fill.is_none())
                .next()?
                .src?;
            src = src - i * per + j * per;
        }
        Some(src)
    }

    /// Visit the output flats `[start, start + len)` in order as
    /// contiguous pieces `piece(range, src)`, `range` relative to
    /// `start`: a piece copies the source flats from `src` on, or takes
    /// the fill where `src` is `None`.
    pub(crate) fn pieces(
        &self,
        start: usize,
        len: usize,
        mut piece: impl FnMut(Range<usize>, Option<usize>),
    ) {
        let end = start + len;
        let mut at = start;
        while at < end {
            let s = at / self.slab;
            let base = s * self.slab;
            let stop = (base + self.slab).min(end);
            let Some(from) = self.source_slab(s) else {
                piece(at - start..stop - start, None);
                at = stop;
                continue;
            };
            for run in &self.runs {
                let lo = (base + run.out).max(at);
                let hi = (base + run.out + run.len).min(stop);
                if lo < hi {
                    let src = run.src.map(|j| from * self.slab + j + lo - base - run.out);
                    piece(lo - start..hi - start, src);
                }
            }
            at = stop;
        }
    }

    /// Write the output flats `[start, start + dst.len())` of the shift
    /// of `src` into `dst`.
    pub(crate) fn copy(&self, src: &[T], start: usize, dst: &mut [T]) {
        self.pieces(start, dst.len(), |r, from| match from {
            Some(s) => dst[r.clone()].copy_from_slice(&src[s..s + r.len()]),
            None => dst[r].fill(self.fill.expect("only an end-off shift has fill pieces")),
        });
    }
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
