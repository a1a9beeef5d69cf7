//! Gather, scatter, send and get — general (router) communication.
//!
//! These are the irregular-addressing primitives of the suite: `FORALL
//! with indirect addressing` in the paper's Table 8, the CMSSL partitioned
//! gather/scatter utilities used by fem-3D, and the `CMF send`/`get`
//! language primitives. All variants compute the exact number of elements
//! whose source and destination fall on different virtual processors by
//! comparing owner ids under the two arrays' layouts.
//!
//! Collision semantics follow the language: plain scatter leaves the
//! last-written value (deterministically, in flat source order here);
//! combining scatters apply `+`, `max` or `min` at collisions.
//!
//! Under the SPMD backend the gathers pull their sources from the owning
//! workers ([`crate::spmd::pull_exec`]) and the scatter family routes
//! `(src, dst, value)` triples to the destination owners
//! ([`crate::spmd::route_exec`]), which apply them in global source order
//! — the same collision semantics as the serial loops. Indices are
//! validated (and off-processor elements counted) on the host first, so
//! worker threads cannot panic on bad input.

use crate::spmd::{pull_exec, route_exec};
use dpf_array::{DistArray, Layout, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, DpfError, Elem, Num};
use rayon::prelude::*;

/// Index pairs per task in the parallel validate/count/move loops.
const ROUTE_CHUNK: usize = 4096;

/// How a combining scatter resolves collisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Sum colliding contributions (`CMF send with add`).
    Add,
    /// Keep the maximum.
    Max,
    /// Keep the minimum.
    Min,
}

/// Validate a flat slice of 1-D destination indices and count how many
/// land on a different virtual processor than their (flat-consecutive)
/// source positions, in one parallel pass.
///
/// Bounds validation runs unconditionally — including for fully serial
/// layouts, where the seed implementation skipped it together with the
/// owner accounting. Owner ids are only computed when some layout is
/// distributed: the source side advances per block segment
/// ([`Layout::for_each_owner_segment`]) and the destination side is a
/// single divide by the precomputed 1-D block extent.
fn validate_count_to_1d(src_layout: &Layout, dst_layout: &Layout, idx: &[i32], label: &str) -> u64 {
    let n = dst_layout.shape()[0] as i32;
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    let dblock = dst_layout.block(0);
    let count_chunk = |start: usize, chunk: &[i32]| -> u64 {
        let mut off = 0u64;
        if distributed {
            src_layout.for_each_owner_segment(start, chunk.len(), |seg0, seg_len, sown| {
                for &d in &chunk[seg0 - start..seg0 - start + seg_len] {
                    assert!(d >= 0 && d < n, "{label} {d} out of bounds {n}");
                    if (d as usize) / dblock != sown {
                        off += 1;
                    }
                }
            });
        } else {
            for &d in chunk {
                assert!(d >= 0 && d < n, "{label} {d} out of bounds {n}");
            }
        }
        off
    };
    // The rayon dispatch only pays off with real worker parallelism; on a
    // single-core host the chunked reduce made gather@4M ~0.94x of the
    // seed loop (BENCH_1), so fall back to the serial sweep there.
    if idx.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
        idx.par_chunks(ROUTE_CHUNK)
            .enumerate()
            .map(|(c, chunk)| count_chunk(c * ROUTE_CHUNK, chunk))
            .reduce(|| 0u64, |a, b| a + b)
    } else {
        count_chunk(0, idx)
    }
}

/// Pre-validate a flat slice of 1-D indices, returning the typed error the
/// panicking paths raise as text. The extra pass is cheap relative to the
/// data movement and keeps the fused move loops untouched.
fn check_bounds_1d(idx: &[i32], n: i32, label: &'static str) -> Result<(), DpfError> {
    for &d in idx {
        if d < 0 || d >= n {
            return Err(DpfError::IndexOutOfBounds {
                label,
                index: d as i64,
                bound: n as i64,
            });
        }
    }
    Ok(())
}

/// Pre-validate per-axis coordinate arrays against `shape`.
fn check_bounds_nd(
    coords: &[&DistArray<i32>],
    shape: &[usize],
    label: &'static str,
) -> Result<(), DpfError> {
    for (d, c) in coords.iter().enumerate() {
        for &i in c.as_slice() {
            if i < 0 || (i as usize) >= shape[d] {
                return Err(DpfError::IndexOutOfExtent {
                    label,
                    index: i as i64,
                    extent: shape[d],
                });
            }
        }
    }
    Ok(())
}

/// `out = src(idx)` — gather from a 1-D source through a flat index array
/// of any rank; the result is shaped like `idx`.
pub fn gather<T: Elem>(ctx: &Ctx, src: &DistArray<T>, idx: &DistArray<i32>) -> DistArray<T> {
    gather_as(ctx, src, idx, CommPattern::Gather)
}

/// [`gather`] that reports out-of-range indices as a recoverable
/// [`DpfError`] instead of panicking. The error text is identical to the
/// panic message.
pub fn try_gather<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    idx: &DistArray<i32>,
) -> Result<DistArray<T>, DpfError> {
    assert_eq!(src.rank(), 1, "gather source must be 1-D (use gather_nd)");
    check_bounds_1d(idx.as_slice(), src.shape()[0] as i32, "gather index")?;
    Ok(gather(ctx, src, idx))
}

/// [`gather_nd`] with recoverable bounds errors.
pub fn try_gather_nd<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    coords: &[&DistArray<i32>],
) -> Result<DistArray<T>, DpfError> {
    assert_eq!(
        coords.len(),
        src.rank(),
        "need one coordinate array per source axis"
    );
    check_bounds_nd(coords, src.shape(), "gather_nd index")?;
    Ok(gather_nd(ctx, src, coords))
}

/// [`scatter`] with recoverable bounds errors.
pub fn try_scatter<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) -> Result<(), DpfError> {
    assert_eq!(
        dst.rank(),
        1,
        "scatter destination must be 1-D (use scatter_nd_*)"
    );
    check_bounds_1d(idx.as_slice(), dst.shape()[0] as i32, "scatter index")?;
    scatter(ctx, dst, idx, src);
    Ok(())
}

/// [`scatter_combine`] with recoverable bounds errors.
pub fn try_scatter_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    combine: Combine,
) -> Result<(), DpfError> {
    assert_eq!(
        dst.rank(),
        1,
        "scatter destination must be 1-D (use scatter_nd_*)"
    );
    check_bounds_1d(idx.as_slice(), dst.shape()[0] as i32, "scatter index")?;
    scatter_combine(ctx, dst, idx, src, combine);
    Ok(())
}

/// [`scatter_nd_combine`] with recoverable bounds errors.
pub fn try_scatter_nd_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    coords: &[&DistArray<i32>],
    src: &DistArray<T>,
    combine: Combine,
) -> Result<(), DpfError> {
    assert_eq!(
        coords.len(),
        dst.rank(),
        "need one coordinate array per dest axis"
    );
    check_bounds_nd(coords, dst.shape(), "scatter_nd index")?;
    scatter_nd_combine(ctx, dst, coords, src, combine);
    Ok(())
}

/// [`gather`] recorded as the language-level `Get` pattern.
pub fn get<T: Elem>(ctx: &Ctx, src: &DistArray<T>, idx: &DistArray<i32>) -> DistArray<T> {
    gather_as(ctx, src, idx, CommPattern::Get)
}

fn gather_as<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    idx: &DistArray<i32>,
    pattern: CommPattern,
) -> DistArray<T> {
    assert_eq!(src.rank(), 1, "gather source must be 1-D (use gather_nd)");
    let n = src.shape()[0] as i32;
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, idx.shape(), idx.layout().axes());
    let src_layout = src.layout();
    let dst_layout = out.layout().clone();
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    let sblock = src_layout.block(0);
    // Validation, ownership accounting and data movement fused into one
    // (parallel) pass: the destination owner is constant per block segment
    // of the flat output range, the source owner is one divide.
    let offproc = if ctx.spmd() && distributed {
        // Validate + count on the host so the workers cannot panic, then
        // pull every output element from its source owner.
        let idx_s = idx.as_slice();
        let off = ctx.busy(|| {
            let mut off = 0u64;
            dst_layout.for_each_owner_segment(0, idx_s.len(), |seg0, seg_len, down| {
                for &i in &idx_s[seg0..seg0 + seg_len] {
                    assert!(i >= 0 && i < n, "gather index {i} out of bounds {n}");
                    if (i as usize) / sblock != down {
                        off += 1;
                    }
                }
            });
            off
        });
        ctx.busy(|| {
            pull_exec(
                ctx,
                src_layout,
                src.as_slice(),
                &dst_layout,
                out.as_mut_slice(),
                &|flat| idx_s[flat] as usize,
            );
        });
        off
    } else {
        ctx.busy(|| {
            let s = src.as_slice();
            let move_chunk = |start: usize, out_chunk: &mut [T], idx_chunk: &[i32]| -> u64 {
                let mut off = 0u64;
                if distributed {
                    dst_layout.for_each_owner_segment(
                        start,
                        out_chunk.len(),
                        |seg0, seg_len, down| {
                            let base = seg0 - start;
                            for k in base..base + seg_len {
                                let i = idx_chunk[k];
                                assert!(i >= 0 && i < n, "gather index {i} out of bounds {n}");
                                let su = i as usize;
                                if su / sblock != down {
                                    off += 1;
                                }
                                out_chunk[k] = s[su];
                            }
                        },
                    );
                } else {
                    for (o, &i) in out_chunk.iter_mut().zip(idx_chunk) {
                        assert!(i >= 0 && i < n, "gather index {i} out of bounds {n}");
                        *o = s[i as usize];
                    }
                }
                off
            };
            if out.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
                out.as_mut_slice()
                    .par_chunks_mut(ROUTE_CHUNK)
                    .zip(idx.as_slice().par_chunks(ROUTE_CHUNK))
                    .enumerate()
                    .map(|(c, (oc, ic))| move_chunk(c * ROUTE_CHUNK, oc, ic))
                    .reduce(|| 0u64, |a, b| a + b)
            } else {
                move_chunk(0, out.as_mut_slice(), idx.as_slice())
            }
        })
    };
    ctx.record_comm(
        pattern,
        src.rank(),
        idx.rank(),
        idx.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("gather", out.as_mut_slice());
    out
}

/// Multi-dimensional gather: `out[k] = src(idx0[k], idx1[k], …)` with one
/// coordinate array per source axis, all shaped like the result.
pub fn gather_nd<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    coords: &[&DistArray<i32>],
) -> DistArray<T> {
    assert_eq!(
        coords.len(),
        src.rank(),
        "need one coordinate array per source axis"
    );
    let out_shape = coords[0].shape().to_vec();
    for c in coords {
        assert_eq!(
            c.shape(),
            &out_shape[..],
            "coordinate arrays must agree in shape"
        );
    }
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, &out_shape, coords[0].layout().axes());
    let strides = src.layout().strides();
    let src_shape = src.shape();
    let coord_slices: Vec<&[i32]> = coords.iter().map(|c| c.as_slice()).collect();
    let flat_of = |k: usize| -> usize {
        let mut off = 0usize;
        for (d, c) in coord_slices.iter().enumerate() {
            let i = c[k];
            assert!(
                i >= 0 && (i as usize) < src_shape[d],
                "gather_nd index {i} out of extent {}",
                src_shape[d]
            );
            off += i as usize * strides[d];
        }
        off
    };
    let src_layout = src.layout();
    let dst_layout = out.layout().clone();
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    // Fused validate + count + move, parallel over output chunks; the
    // destination owner advances per block segment, the source owner is
    // one flat decode per element (the index arrays are arbitrary).
    let offproc = if ctx.spmd() && distributed {
        // The host count pass also validates every coordinate, so the
        // workers' `flat_of` calls cannot panic.
        let off = ctx.busy(|| {
            let mut off = 0u64;
            dst_layout.for_each_owner_segment(0, out.len(), |seg0, seg_len, down| {
                for k in seg0..seg0 + seg_len {
                    if src_layout.owner_id_flat(flat_of(k)) != down {
                        off += 1;
                    }
                }
            });
            off
        });
        ctx.busy(|| {
            pull_exec(
                ctx,
                src_layout,
                src.as_slice(),
                &dst_layout,
                out.as_mut_slice(),
                &|k| flat_of(k),
            );
        });
        off
    } else {
        ctx.busy(|| {
            let s = src.as_slice();
            let move_chunk = |start: usize, out_chunk: &mut [T]| -> u64 {
                let mut off = 0u64;
                if distributed {
                    dst_layout.for_each_owner_segment(
                        start,
                        out_chunk.len(),
                        |seg0, seg_len, down| {
                            for k in seg0..seg0 + seg_len {
                                let flat = flat_of(k);
                                if src_layout.owner_id_flat(flat) != down {
                                    off += 1;
                                }
                                out_chunk[k - start] = s[flat];
                            }
                        },
                    );
                } else {
                    for (k, o) in out_chunk.iter_mut().enumerate() {
                        *o = s[flat_of(start + k)];
                    }
                }
                off
            };
            if out.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
                out.as_mut_slice()
                    .par_chunks_mut(ROUTE_CHUNK)
                    .enumerate()
                    .map(|(c, oc)| move_chunk(c * ROUTE_CHUNK, oc))
                    .reduce(|| 0u64, |a, b| a + b)
            } else {
                move_chunk(0, out.as_mut_slice())
            }
        })
    };
    ctx.record_comm(
        CommPattern::Gather,
        src.rank(),
        out.rank(),
        out.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("gather", out.as_mut_slice());
    out
}

/// Plain scatter: `dst(idx[k]) = src[k]` with last-writer-wins collisions.
pub fn scatter<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) {
    scatter_as(ctx, dst, idx, src, CommPattern::Scatter);
}

/// [`scatter`] recorded as the language-level `Send` pattern.
pub fn send<T: Elem>(ctx: &Ctx, dst: &mut DistArray<T>, idx: &DistArray<i32>, src: &DistArray<T>) {
    scatter_as(ctx, dst, idx, src, CommPattern::Send);
}

fn scatter_as<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    pattern: CommPattern,
) {
    assert_eq!(
        dst.rank(),
        1,
        "scatter destination must be 1-D (use scatter_nd_*)"
    );
    assert_eq!(
        idx.shape(),
        src.shape(),
        "index and source shapes must agree"
    );
    // Parallel validate + ownership count, then a serial apply: the apply
    // must stay in flat source order to keep last-writer-wins collisions
    // deterministic.
    let offproc = ctx
        .busy(|| validate_count_to_1d(src.layout(), dst.layout(), idx.as_slice(), "scatter index"));
    ctx.record_comm(
        pattern,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                &|slot, v| *slot = v,
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                d[i as usize] = v;
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
}

/// The combining closure matching a [`Combine`] mode, shared by the SPMD
/// scatter variants.
fn combine_apply<T: Num + PartialOrd>(combine: Combine) -> &'static (dyn Fn(&mut T, T) + Sync) {
    match combine {
        Combine::Add => &|slot, v| *slot += v,
        Combine::Max => &|slot, v| {
            if v > *slot {
                *slot = v;
            }
        },
        Combine::Min => &|slot, v| {
            if v < *slot {
                *slot = v;
            }
        },
    }
}

/// Combining scatter into a 1-D destination: `dst(idx[k]) ⊕= src[k]`.
pub fn scatter_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    combine: Combine,
) {
    assert_eq!(
        dst.rank(),
        1,
        "scatter destination must be 1-D (use scatter_nd_*)"
    );
    assert_eq!(
        idx.shape(),
        src.shape(),
        "index and source shapes must agree"
    );
    let offproc = ctx
        .busy(|| validate_count_to_1d(src.layout(), dst.layout(), idx.as_slice(), "scatter index"));
    ctx.record_comm(
        CommPattern::ScatterCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    }
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                combine_apply::<T>(combine),
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                let slot = &mut d[i as usize];
                match combine {
                    Combine::Add => *slot += v,
                    Combine::Max => {
                        if v > *slot {
                            *slot = v;
                        }
                    }
                    Combine::Min => {
                        if v < *slot {
                            *slot = v;
                        }
                    }
                }
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
}

/// Combining deposit recorded as the paper's "Gather w/ combine" pattern
/// (pic-simple's `FORALL` with `SUM`: grid points gather and add particle
/// contributions). Mechanically identical to an add-scatter.
pub fn gather_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) {
    assert_eq!(dst.rank(), 1, "gather_combine destination must be 1-D");
    assert_eq!(
        idx.shape(),
        src.shape(),
        "index and source shapes must agree"
    );
    let offproc =
        ctx.busy(|| validate_count_to_1d(src.layout(), dst.layout(), idx.as_slice(), "index"));
    ctx.record_comm(
        CommPattern::GatherCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                &|slot, v| *slot += v,
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                d[i as usize] += v;
            }
        });
    }
    ctx.faults.inject_slice("gather", dst.as_mut_slice());
}

/// Multi-dimensional combining scatter: `dst(c0[k], c1[k], …) ⊕= src[k]`.
pub fn scatter_nd_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    coords: &[&DistArray<i32>],
    src: &DistArray<T>,
    combine: Combine,
) {
    assert_eq!(
        coords.len(),
        dst.rank(),
        "need one coordinate array per dest axis"
    );
    for c in coords {
        assert_eq!(
            c.shape(),
            src.shape(),
            "coordinate arrays must match source shape"
        );
    }
    let strides = dst.layout().strides();
    let shape = dst.shape().to_vec();
    let coord_slices: Vec<&[i32]> = coords.iter().map(|c| c.as_slice()).collect();
    let flat_of = |k: usize| -> usize {
        let mut off = 0usize;
        for (d, c) in coord_slices.iter().enumerate() {
            let i = c[k];
            assert!(
                i >= 0 && (i as usize) < shape[d],
                "scatter_nd index {i} out of extent {}",
                shape[d]
            );
            off += i as usize * strides[d];
        }
        off
    };
    // Parallel validate + count (source owner constant per block segment,
    // destination owner decoded per element), then a serial apply to keep
    // collision order deterministic.
    let src_layout = src.layout();
    let dst_layout = dst.layout();
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    let offproc = ctx.busy(|| {
        let count_chunk = |start: usize, len: usize| -> u64 {
            let mut off = 0u64;
            if distributed {
                src_layout.for_each_owner_segment(start, len, |seg0, seg_len, sown| {
                    for k in seg0..seg0 + seg_len {
                        if dst_layout.owner_id_flat(flat_of(k)) != sown {
                            off += 1;
                        }
                    }
                });
            } else {
                for k in start..start + len {
                    let _ = flat_of(k); // bounds validation always runs
                }
            }
            off
        };
        let n = src.len();
        if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            let chunks = n.div_ceil(ROUTE_CHUNK);
            (0..chunks)
                .into_par_iter()
                .map(|c| {
                    let start = c * ROUTE_CHUNK;
                    count_chunk(start, ROUTE_CHUNK.min(n - start))
                })
                .reduce(|| 0u64, |a, b| a + b)
        } else {
            count_chunk(0, n)
        }
    });
    ctx.record_comm(
        CommPattern::ScatterCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    }
    if ctx.spmd() && distributed {
        let dl = dst.layout().clone();
        ctx.busy(|| {
            route_exec(
                ctx,
                src_layout,
                src.as_slice(),
                &dl,
                dst.as_mut_slice(),
                &flat_of,
                combine_apply::<T>(combine),
            );
        });
    } else {
        ctx.busy(|| {
            for k in 0..src.len() {
                let off = flat_of(k);
                let v = src.as_slice()[k];
                let slot = &mut dst.as_mut_slice()[off];
                match combine {
                    Combine::Add => *slot += v,
                    Combine::Max => {
                        if v > *slot {
                            *slot = v;
                        }
                    }
                    Combine::Min => {
                        if v < *slot {
                            *slot = v;
                        }
                    }
                }
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
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
    fn gather_reads_through_indices() {
        let ctx = ctx(4);
        let src = DistArray::<f64>::from_fn(&ctx, &[5], &[PAR], |i| i[0] as f64 * 10.0);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![4, 0, 2]);
        let out = gather(&ctx, &src, &idx);
        assert_eq!(out.to_vec(), vec![40.0, 0.0, 20.0]);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Gather), 1);
    }

    #[test]
    fn gather_into_higher_rank() {
        let ctx = ctx(2);
        let src = DistArray::<i32>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as i32);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2, 2], &[PAR, PAR], vec![3, 2, 1, 0]);
        let out = gather(&ctx, &src, &idx);
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.to_vec(), vec![3, 2, 1, 0]);
        let snap = ctx.instr.comm_snapshot();
        let key = snap.keys().next().unwrap();
        assert_eq!((key.src_rank, key.dst_rank), (1, 2));
    }

    #[test]
    fn gather_nd_uses_coordinates() {
        let ctx = ctx(2);
        let src =
            DistArray::<i32>::from_fn(&ctx, &[3, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as i32);
        let r = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![0, 2]);
        let c = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![2, 1]);
        let out = gather_nd(&ctx, &src, &[&r, &c]);
        assert_eq!(out.to_vec(), vec![2, 7]);
    }

    #[test]
    fn scatter_overwrites_last_wins() {
        let ctx = ctx(4);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![1, 3, 1]);
        let src = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![10, 20, 30]);
        scatter(&ctx, &mut dst, &idx, &src);
        assert_eq!(dst.to_vec(), vec![0, 30, 0, 20]);
    }

    #[test]
    fn scatter_add_accumulates_collisions() {
        let ctx = ctx(4);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[3], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[4], &[PAR], vec![0, 1, 0, 1]);
        let src = DistArray::<f64>::from_vec(&ctx, &[4], &[PAR], vec![1., 2., 3., 4.]);
        scatter_combine(&ctx, &mut dst, &idx, &src, Combine::Add);
        assert_eq!(dst.to_vec(), vec![4.0, 6.0, 0.0]);
        assert_eq!(ctx.instr.flops(), 4);
    }

    #[test]
    fn scatter_max_keeps_largest() {
        let ctx = ctx(2);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[2], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 0, 1]);
        let src = DistArray::<f64>::from_vec(&ctx, &[3], &[PAR], vec![2., 5., -1.]);
        scatter_combine(&ctx, &mut dst, &idx, &src, Combine::Max);
        assert_eq!(dst.to_vec(), vec![5.0, 0.0]);
    }

    #[test]
    fn scatter_nd_combine_into_grid() {
        let ctx = ctx(2);
        let mut grid = DistArray::<f64>::zeros(&ctx, &[2, 2], &[PAR, PAR]);
        let r = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 1, 0]);
        let c = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 1, 0]);
        let v = DistArray::<f64>::from_vec(&ctx, &[3], &[PAR], vec![1., 2., 3.]);
        scatter_nd_combine(&ctx, &mut grid, &[&r, &c], &v, Combine::Add);
        assert_eq!(grid.get(&[0, 0]), 4.0);
        assert_eq!(grid.get(&[1, 1]), 2.0);
    }

    #[test]
    fn send_and_get_record_their_own_patterns() {
        let ctx = ctx(2);
        let src = DistArray::<i32>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as i32);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![1, 2]);
        let _ = get(&ctx, &src, &idx);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[PAR]);
        send(
            &ctx,
            &mut dst,
            &idx,
            &DistArray::<i32>::zeros(&ctx, &[2], &[PAR]),
        );
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Get), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Send), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Gather), 0);
    }

    #[test]
    fn serial_arrays_move_nothing_offproc() {
        let ctx = ctx(1);
        let src = DistArray::<f64>::from_fn(&ctx, &[8], &[SER], |i| i[0] as f64);
        let idx = DistArray::<i32>::from_vec(&ctx, &[8], &[SER], (0..8).rev().collect());
        let _ = gather(&ctx, &src, &idx);
        let snap = ctx.instr.comm_snapshot();
        assert_eq!(snap.values().next().unwrap().offproc_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        let ctx = ctx(2);
        let src = DistArray::<f64>::zeros(&ctx, &[4], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[1], &[PAR], vec![4]);
        let _ = gather(&ctx, &src, &idx);
    }

    // Regression: the seed ran bounds validation only inside the
    // off-processor counting iterator, which early-returned when both
    // layouts were serial — so fully local gathers/scatters skipped the
    // documented checks. Validation must run regardless of layout.

    #[test]
    #[should_panic(expected = "gather index -1 out of bounds 4")]
    fn gather_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let src = DistArray::<f64>::zeros(&ctx, &[4], &[SER]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![0, -1]);
        let _ = gather(&ctx, &src, &idx);
    }

    #[test]
    #[should_panic(expected = "scatter index 9 out of bounds 4")]
    fn scatter_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[SER]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![1, 9]);
        let src = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![5, 6]);
        scatter(&ctx, &mut dst, &idx, &src);
    }

    #[test]
    #[should_panic(expected = "gather_nd index 3 out of extent 3")]
    fn gather_nd_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let src = DistArray::<i32>::zeros(&ctx, &[3, 3], &[SER, SER]);
        let r = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![3]);
        let c = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![0]);
        let _ = gather_nd(&ctx, &src, &[&r, &c]);
    }

    #[test]
    #[should_panic(expected = "scatter_nd index 7 out of extent 2")]
    fn scatter_nd_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[2, 2], &[SER, SER]);
        let r = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![7]);
        let c = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![0]);
        let v = DistArray::<f64>::from_vec(&ctx, &[1], &[SER], vec![1.0]);
        scatter_nd_combine(&ctx, &mut dst, &[&r, &c], &v, Combine::Add);
    }

    #[test]
    fn parallel_gather_path_matches_serial_reference() {
        // Above PAR_THRESHOLD the fused move/count loop runs under rayon;
        // verify values and the off-processor byte count against a direct
        // owner_id comparison.
        let ctx = ctx(4);
        let n = 20_000usize;
        let src = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as f64);
        let idx =
            DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| ((i[0] * 7919 + 13) % n) as i32);
        let out = gather(&ctx, &src, &idx);
        for k in (0..n).step_by(1013) {
            assert_eq!(out.as_slice()[k], ((k * 7919 + 13) % n) as f64);
        }
        let expected_offproc: u64 = idx
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(d, &s)| {
                src.layout().owner_id_flat(s as usize) != out.layout().owner_id_flat(d)
            })
            .count() as u64;
        let snap = ctx.instr.comm_snapshot();
        let stats = snap.values().next().unwrap();
        assert_eq!(stats.offproc_bytes, expected_offproc * 8);
    }
}
