//! Distributed transpose — all-to-all personalized communication (AAPC).
//!
//! The paper's `transpose` communication benchmark is implemented as an
//! AAPC and "may be used to confirm advertised bisection bandwidths". The
//! off-processor volume is computed exactly: an element moves iff its
//! owner under the source layout differs from the owner of its transposed
//! position under the destination layout.
//!
//! Under the SPMD backend the destination owners pull their elements from
//! the source owners ([`crate::spmd::pull_exec`]); the owner-mismatch
//! predicate of the pull is the same one `count_moves` models, so metered
//! and modeled bytes agree exactly.

use crate::spmd::pull_exec;
use dpf_array::{DistArray, MAX_RANK, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, DpfError, Elem};
use rayon::prelude::*;

/// Elements per task in the parallel owner-comparison loop.
const COUNT_CHUNK: usize = 4096;

/// Transpose a 2-D array (AAPC).
pub fn transpose<T: Elem>(ctx: &Ctx, a: &DistArray<T>) -> DistArray<T> {
    assert_eq!(
        a.rank(),
        2,
        "transpose expects a 2-D array (use transpose_axes)"
    );
    transpose_axes(ctx, a, 0, 1)
}

/// [`transpose`] reporting a wrong-rank argument as a recoverable
/// [`DpfError`] instead of panicking.
pub fn try_transpose<T: Elem>(ctx: &Ctx, a: &DistArray<T>) -> Result<DistArray<T>, DpfError> {
    if a.rank() != 2 {
        return Err(DpfError::Shape {
            what: "transpose expects a 2-D array (use transpose_axes)",
        });
    }
    Ok(transpose_axes(ctx, a, 0, 1))
}

/// Swap two axes of an array of any rank (AAPC along the pair).
pub fn transpose_axes<T: Elem>(ctx: &Ctx, a: &DistArray<T>, d0: usize, d1: usize) -> DistArray<T> {
    assert!(
        d0 < a.rank() && d1 < a.rank() && d0 != d1,
        "invalid axis pair"
    );
    let mut order: Vec<usize> = (0..a.rank()).collect();
    order.swap(d0, d1);
    // Build the result through the storage permutation, then account the
    // movement exactly against the fresh layout.
    let out = if ctx.spmd() && a.layout().is_distributed() {
        // Same layout the permute would produce, but every destination
        // owner pulls its elements from the source owners.
        let rank = a.rank();
        let new_shape: Vec<usize> = order.iter().map(|&d| a.shape()[d]).collect();
        let new_axes: Vec<_> = order.iter().map(|&d| a.layout().axes()[d]).collect();
        let mut out = DistArray::<T>::scratch(ctx, &new_shape, &new_axes);
        let out_layout = out.layout().clone();
        let src_strides = a.layout().strides();
        ctx.busy(|| {
            pull_exec(
                ctx,
                a.layout(),
                a.as_slice(),
                &out_layout,
                out.as_mut_slice(),
                &|flat| {
                    let mut rem = flat;
                    let mut src_flat = 0usize;
                    for k in (0..rank).rev() {
                        let i = rem % new_shape[k];
                        rem /= new_shape[k];
                        src_flat += i * src_strides[order[k]];
                    }
                    src_flat
                },
            );
        });
        out
    } else {
        ctx.suppress_comm(|| a.permute(ctx, &order))
    };
    let offproc = if a.layout().is_distributed() || out.layout().is_distributed() {
        count_moves(a.shape(), &order, a.layout(), out.layout())
    } else {
        0
    };
    finish(ctx, a, out, offproc)
}

/// Count elements whose owner differs between the source layout and their
/// permuted position in the destination layout.
///
/// Walks source flat offsets in parallel chunks with a stack-local
/// odometer index (decoded once per chunk, advanced in place) — the
/// source-side owner comes from block segments of the flat range, so only
/// the permuted destination owner is computed per element.
fn count_moves(
    shape: &[usize],
    order: &[usize],
    src: &dpf_array::Layout,
    dst: &dpf_array::Layout,
) -> u64 {
    let rank = shape.len();
    assert!(rank <= MAX_RANK, "transpose supports rank <= {MAX_RANK}");
    let len: usize = shape.iter().product();
    let count_chunk = |start: usize, chunk_len: usize| -> u64 {
        let mut count = 0u64;
        src.for_each_owner_segment(start, chunk_len, |seg0, seg_len, sown| {
            // Decode the segment's first multi-index, then advance the
            // odometer in place.
            let mut idx = [0usize; MAX_RANK];
            let mut rem = seg0;
            for d in (0..rank).rev() {
                idx[d] = rem % shape[d];
                rem /= shape[d];
            }
            let mut tidx = [0usize; MAX_RANK];
            for _ in 0..seg_len {
                for (k, &d) in order.iter().enumerate() {
                    tidx[k] = idx[d];
                }
                if dst.owner_id(&tidx[..rank]) != sown {
                    count += 1;
                }
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    if idx[d] < shape[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        });
        count
    };
    if len >= PAR_THRESHOLD {
        let chunks = len.div_ceil(COUNT_CHUNK);
        (0..chunks)
            .into_par_iter()
            .map(|c| {
                let start = c * COUNT_CHUNK;
                count_chunk(start, COUNT_CHUNK.min(len - start))
            })
            .reduce(|| 0u64, |a, b| a + b)
    } else {
        count_chunk(0, len)
    }
}

fn finish<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    mut out: DistArray<T>,
    offproc_elems: u64,
) -> DistArray<T> {
    ctx.record_comm(
        CommPattern::Aapc,
        a.rank(),
        out.rank(),
        a.len() as u64,
        offproc_elems * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("transpose", out.as_mut_slice());
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
    fn transpose_2d_is_correct() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as i32);
        let t = transpose(&ctx, &a);
        assert_eq!(t.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[j, i]), a.get(&[i, j]));
            }
        }
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Aapc), 1);
    }

    #[test]
    fn transpose_moves_off_diagonal_blocks() {
        // Square array over a square grid: diagonal blocks stay home.
        let ctx = ctx(4);
        let a = DistArray::<f64>::zeros(&ctx, &[8, 8], &[PAR, PAR]);
        let _ = transpose(&ctx, &a);
        let snap = ctx.instr.comm_snapshot();
        let stats = snap.values().next().unwrap();
        // 2x2 grid of 4x4 blocks: the two off-diagonal blocks move -> 32
        // elements of 8 bytes.
        assert_eq!(stats.offproc_bytes, 32 * 8);
    }

    #[test]
    fn serial_transpose_is_local() {
        let ctx = ctx(1);
        let a = DistArray::<f64>::zeros(&ctx, &[4, 4], &[SER, SER]);
        let _ = transpose(&ctx, &a);
        let snap = ctx.instr.comm_snapshot();
        assert_eq!(snap.values().next().unwrap().offproc_bytes, 0);
    }

    #[test]
    fn transpose_axes_of_3d() {
        let ctx = ctx(2);
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3, 4], &[PAR, PAR, SER], |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as i32
        });
        let t = transpose_axes(&ctx, &a, 0, 2);
        assert_eq!(t.shape(), &[4, 3, 2]);
        assert_eq!(t.get(&[3, 1, 0]), a.get(&[0, 1, 3]));
    }

    #[test]
    fn double_transpose_is_identity() {
        let ctx = ctx(4);
        let a = DistArray::<i32>::from_fn(&ctx, &[3, 5], &[PAR, PAR], |i| (i[0] * 5 + i[1]) as i32);
        let tt = transpose(&ctx, &transpose(&ctx, &a));
        assert_eq!(tt.to_vec(), a.to_vec());
    }
}
