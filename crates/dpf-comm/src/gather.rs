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
//! Each family has one body over a flat index map that the caller
//! supplies and that validates every index. A gather validates, counts
//! and moves in one (parallel) host pass; under the SPMD backend it
//! validates and counts on the host, then pulls every output element from
//! its source owner ([`crate::spmd::pull_exec`]). A scatter validates and
//! counts over the source's owner segments, then applies its combining
//! rule in flat source order ([`crate::spmd::route_exec`]): serially on
//! the host, or under SPMD by routing `(src, dst, value)` triples to the
//! destination owners, which apply them in global source order. Either
//! way the indices are validated on the host first, so worker threads
//! cannot panic on bad input.

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

impl Combine {
    /// Combine `v` into `slot`.
    #[inline]
    fn apply<T: Num + PartialOrd>(self, slot: &mut T, v: T) {
        match self {
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
}

/// The validating map of a flat 1-D index array into extent `n`.
fn index_map<'a>(idx: &'a [i32], n: usize, label: &'a str) -> impl Fn(usize) -> usize + Sync + 'a {
    let n = n as i32;
    move |k| {
        let d = idx[k];
        assert!(d >= 0 && d < n, "{label} {d} out of bounds {n}");
        d as usize
    }
}

/// The validating map of per-axis coordinate arrays to flat offsets of
/// `layout`'s shape.
fn coord_map<'a>(
    coords: &[&'a DistArray<i32>],
    layout: &Layout,
    label: &'a str,
) -> impl Fn(usize) -> usize + Sync + 'a {
    let coords: Vec<&[i32]> = coords.iter().map(|c| c.as_slice()).collect();
    let (shape, strides) = (layout.shape().to_vec(), layout.strides());
    move |k| {
        let mut off = 0usize;
        for (d, c) in coords.iter().enumerate() {
            let i = c[k];
            assert!(
                i >= 0 && (i as usize) < shape[d],
                "{label} {i} out of extent {}",
                shape[d]
            );
            off += i as usize * strides[d];
        }
        off
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

/// The body of the gathers: `out[k] = src[src_of(k)]` for every output
/// flat `k`, recorded as `pattern` with the elements whose source owner,
/// `src_owner` of their source flat, differs from their output owner.
/// `src_of` validates its index.
fn gather_into<T: Elem>(
    ctx: &Ctx,
    pattern: CommPattern,
    src: &DistArray<T>,
    out: &mut DistArray<T>,
    src_of: impl Fn(usize) -> usize + Sync,
    src_owner: impl Fn(usize) -> usize + Sync,
) {
    let (src_layout, dst_layout) = (src.layout(), out.layout().clone());
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    // Both passes walk the output's owner segments, so the output owner is
    // found once per segment.
    let offproc = if ctx.spmd() && distributed {
        // Validate + count on the host so the workers cannot panic, then
        // pull every output element from its source owner.
        let off = ctx.busy(|| {
            let mut off = 0u64;
            dst_layout.for_each_owner_segment(0, out.len(), |seg0, seg_len, down| {
                for k in seg0..seg0 + seg_len {
                    off += (src_owner(src_of(k)) != down) as u64;
                }
            });
            off
        });
        let (s, o) = (src.as_slice(), out.as_mut_slice());
        ctx.busy(|| pull_exec(ctx, src_layout, s, &dst_layout, o, &src_of));
        off
    } else {
        // Validation, ownership accounting and data movement fused into
        // one pass, parallel over output chunks. The rayon dispatch only
        // pays off with real worker parallelism; on a single-core host
        // the chunked reduce made gather@4M ~0.94x of the seed loop
        // (BENCH_1), so fall back to the serial sweep there.
        let s = src.as_slice();
        let move_chunk = |start: usize, chunk: &mut [T]| -> u64 {
            let mut off = 0u64;
            if distributed {
                dst_layout.for_each_owner_segment(start, chunk.len(), |seg0, seg_len, down| {
                    let seg = &mut chunk[seg0 - start..seg0 - start + seg_len];
                    for (k, o) in (seg0..).zip(seg) {
                        let flat = src_of(k);
                        off += (src_owner(flat) != down) as u64;
                        *o = s[flat];
                    }
                });
            } else {
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = s[src_of(start + k)];
                }
            }
            off
        };
        let o = out.as_mut_slice();
        ctx.busy(|| {
            if o.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
                o.par_chunks_mut(ROUTE_CHUNK)
                    .enumerate()
                    .map(|(c, chunk)| move_chunk(c * ROUTE_CHUNK, chunk))
                    .reduce(|| 0u64, |a, b| a + b)
            } else {
                move_chunk(0, o)
            }
        })
    };
    ctx.record_comm(
        pattern,
        src.rank(),
        out.rank(),
        out.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("gather", out.as_mut_slice());
}

fn gather_as<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    idx: &DistArray<i32>,
    pattern: CommPattern,
) -> DistArray<T> {
    assert_eq!(src.rank(), 1, "gather source must be 1-D (use gather_nd)");
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, idx.shape(), idx.layout().axes());
    let src_of = index_map(idx.as_slice(), src.shape()[0], "gather index");
    let block = src.layout().block(0);
    gather_into(ctx, pattern, src, &mut out, src_of, |flat| flat / block);
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
    let out_shape = coords[0].shape();
    for c in coords {
        assert_eq!(
            c.shape(),
            out_shape,
            "coordinate arrays must agree in shape"
        );
    }
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, out_shape, coords[0].layout().axes());
    let src_of = coord_map(coords, src.layout(), "gather_nd index");
    let src_owner = |flat| src.layout().owner_id_flat(flat);
    gather_into(ctx, CommPattern::Gather, src, &mut out, src_of, src_owner);
    out
}

/// The body of the scatter family: `apply(&mut dst[dst_of(k)], src[k])`
/// for every source flat `k` in flat source order ([`route_exec`]),
/// recorded as `pattern` with the elements whose destination owner
/// differs from their source owner. `dst_owner(k)` validates the index
/// of source flat `k` and returns the owner of its destination; `dst_of`
/// runs only once every index has been validated.
fn route<T: Elem>(
    ctx: &Ctx,
    pattern: CommPattern,
    dst: &mut DistArray<T>,
    src: &DistArray<T>,
    dst_owner: impl Fn(usize) -> usize + Sync,
    dst_of: impl Fn(usize) -> usize + Sync,
    apply: impl Fn(&mut T, T) + Sync,
) {
    let (src_layout, dst_layout) = (src.layout(), dst.layout().clone());
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    // Parallel validate + ownership count: the source owner is constant
    // per block segment, the destination owner is decoded per element.
    // Validation runs for serial layouts too, where nothing is counted.
    let count = |start: usize, len: usize| -> u64 {
        let mut off = 0u64;
        if distributed {
            src_layout.for_each_owner_segment(start, len, |seg0, seg_len, sown| {
                for k in seg0..seg0 + seg_len {
                    off += (dst_owner(k) != sown) as u64;
                }
            });
        } else {
            for k in start..start + len {
                dst_owner(k);
            }
        }
        off
    };
    let n = src.len();
    let offproc = ctx.busy(|| {
        if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            (0..n.div_ceil(ROUTE_CHUNK))
                .into_par_iter()
                .map(|c| count(c * ROUTE_CHUNK, ROUTE_CHUNK.min(n - c * ROUTE_CHUNK)))
                .reduce(|| 0u64, |a, b| a + b)
        } else {
            count(0, n)
        }
    });
    ctx.record_comm(
        pattern,
        src.rank(),
        dst.rank(),
        n as u64,
        offproc * T::DTYPE.size() as u64,
    );
    let (s, d) = (src.as_slice(), dst.as_mut_slice());
    ctx.busy(|| route_exec(ctx, src_layout, s, &dst_layout, d, dst_of, apply));
}

/// [`route`] through a flat index array into a 1-D destination: the owner
/// is one divide per element, and the apply reads the indices without
/// validating them again.
fn route_1d<T: Elem>(
    ctx: &Ctx,
    pattern: CommPattern,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    label: &str,
    apply: impl Fn(&mut T, T) + Sync,
) {
    assert_eq!(
        idx.shape(),
        src.shape(),
        "index and source shapes must agree"
    );
    let (idx, block) = (idx.as_slice(), dst.layout().block(0));
    let index = index_map(idx, dst.shape()[0], label);
    let dst_owner = move |k| index(k) / block;
    route(
        ctx,
        pattern,
        dst,
        src,
        dst_owner,
        |k| idx[k] as usize,
        apply,
    );
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
    route_1d(ctx, pattern, dst, idx, src, "scatter index", |slot, v| {
        *slot = v
    });
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
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
    let pattern = CommPattern::ScatterCombine;
    route_1d(ctx, pattern, dst, idx, src, "scatter index", |slot, v| {
        combine.apply(slot, v)
    });
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
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
    route_1d(
        ctx,
        CommPattern::GatherCombine,
        dst,
        idx,
        src,
        "index",
        |slot, v| Combine::Add.apply(slot, v),
    );
    ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
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
    let dst_of = coord_map(coords, dst.layout(), "scatter_nd index");
    let layout = dst.layout().clone();
    let dst_owner = |k| layout.owner_id_flat(dst_of(k));
    route(
        ctx,
        CommPattern::ScatterCombine,
        dst,
        src,
        dst_owner,
        &dst_of,
        |slot, v| combine.apply(slot, v),
    );
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
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

    // Above PAR_THRESHOLD the bounds check runs in rayon pieces; the bad
    // index sits in the first piece, which runs on a parked thread when
    // there is more than one: its own message must reach the caller.
    #[test]
    #[should_panic(expected = "gather index -1 out of bounds 40000")]
    fn gather_bounds_checked_in_a_parallel_piece() {
        let ctx = ctx(2);
        let n = 40_000;
        let src = DistArray::<f64>::zeros(&ctx, &[n], &[PAR]);
        let mut flat: Vec<i32> = (0..n as i32).collect();
        flat[0] = -1;
        let idx = DistArray::<i32>::from_vec(&ctx, &[n], &[PAR], flat);
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
