//! Parallel-prefix (scan) operations, plain and segmented.
//!
//! Scans appear in the paper's qptransport (sum-scans over the bipartite
//! graph), qmc (segmented copy-scans for walker spawning) and
//! pic-gather-scatter (sum-scans before the router operation). Like
//! reductions, an add-scan over `N` elements charges `N − 1` FLOPs per
//! lane; a copy-scan moves data without arithmetic.
//!
//! Each scan states its element rule once, as one step along a lane
//! ([`crate::spmd::axis_exec`]), and every lane visits its elements in
//! index order on both backends, so results match bit for bit. On the
//! host the steps run row by row with one accumulator per lane; under the
//! SPMD backend the scans run as per-lane pipelines: each axis block's
//! owner folds its stretch of every lane and ships the lane accumulators
//! to the next block's owner — exactly the `lanes × (p − 1)` partials the
//! Scan pattern models.

use crate::spmd::axis_exec;
use dpf_array::DistArray;
use dpf_core::{flops, CommPattern, Ctx, Elem, Num};

/// Record a scan of `a` along `axis`, charge `adds` FLOPs for each of its
/// lanes' `N − 1` additions, and run `step` along every lane from `init`
/// ([`axis_exec`]); the value `step` returns for an element is that
/// element of the result.
fn scan_with<T: Elem, A: Send + Sync + Clone>(
    ctx: &Ctx,
    a: &DistArray<T>,
    axis: usize,
    adds: u64,
    init: A,
    step: impl Fn(&mut A, usize) -> T + Sync,
) -> DistArray<T> {
    assert!(axis < a.rank());
    let lanes = a.layout().lanes(axis) as u64;
    let partials = lanes * (a.layout().procs_on(axis) as u64).saturating_sub(1);
    ctx.record_comm(
        CommPattern::Scan,
        a.rank(),
        a.rank(),
        a.len() as u64,
        partials * T::DTYPE.size() as u64,
    );
    ctx.add_flops(lanes * flops::reduction(a.shape()[axis] as u64) * adds);
    let mut out = DistArray::<T>::zeros(ctx, a.shape(), a.layout().axes());
    ctx.busy(|| axis_exec(ctx, a.layout(), axis, Some(out.as_mut_slice()), init, step));
    out
}

/// Inclusive add-scan along `axis`.
pub fn scan_add<T: Num>(ctx: &Ctx, a: &DistArray<T>, axis: usize) -> DistArray<T> {
    let src = a.as_slice();
    scan_with(
        ctx,
        a,
        axis,
        T::DTYPE.add_flops(),
        T::zero(),
        |acc, flat| {
            *acc += src[flat];
            *acc
        },
    )
}

/// Exclusive add-scan along `axis` (element `i` receives the sum of
/// elements `0..i`; element 0 receives zero).
pub fn scan_add_exclusive<T: Num>(ctx: &Ctx, a: &DistArray<T>, axis: usize) -> DistArray<T> {
    let src = a.as_slice();
    scan_with(
        ctx,
        a,
        axis,
        T::DTYPE.add_flops(),
        T::zero(),
        |acc, flat| {
            let before = *acc;
            *acc += src[flat];
            before
        },
    )
}

/// Segmented inclusive add-scan along `axis`: the accumulator resets at
/// every element whose `segment_start` flag is true.
pub fn segmented_scan_add<T: Num>(
    ctx: &Ctx,
    a: &DistArray<T>,
    segment_start: &DistArray<bool>,
    axis: usize,
) -> DistArray<T> {
    assert_eq!(
        a.shape(),
        segment_start.shape(),
        "segment flag shape mismatch"
    );
    // Segment flags are read in place (aligned with the data); under SPMD
    // only the lane accumulators cross the pipeline.
    let (src, seg) = (a.as_slice(), segment_start.as_slice());
    scan_with(
        ctx,
        a,
        axis,
        T::DTYPE.add_flops(),
        T::zero(),
        |acc, flat| {
            if seg[flat] {
                *acc = T::zero();
            }
            *acc += src[flat];
            *acc
        },
    )
}

/// Segmented copy-scan along `axis`: every element receives the value its
/// segment started with (the qmc walker-spawning primitive). Charges no
/// FLOPs — pure data motion.
pub fn segmented_copy_scan<T: Elem>(
    ctx: &Ctx,
    a: &DistArray<T>,
    segment_start: &DistArray<bool>,
    axis: usize,
) -> DistArray<T> {
    assert_eq!(
        a.shape(),
        segment_start.shape(),
        "segment flag shape mismatch"
    );
    let (src, seg) = (a.as_slice(), segment_start.as_slice());
    // A lane's first element starts a segment implicitly: the lane state
    // is still `None` there.
    scan_with(ctx, a, axis, 0, None, |cur: &mut Option<T>, flat| {
        let v = match *cur {
            Some(c) if !seg[flat] => c,
            _ => src[flat],
        };
        *cur = Some(v);
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::PAR;
    use dpf_core::Machine;

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn inclusive_scan_is_prefix_sum() {
        let ctx = ctx();
        let a = DistArray::<f64>::from_vec(&ctx, &[5], &[PAR], vec![1., 2., 3., 4., 5.]);
        let s = scan_add(&ctx, &a, 0);
        assert_eq!(s.to_vec(), vec![1., 3., 6., 10., 15.]);
        assert_eq!(ctx.instr.flops(), 4);
    }

    #[test]
    fn exclusive_scan_shifts_by_one() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_vec(&ctx, &[4], &[PAR], vec![1, 2, 3, 4]);
        let s = scan_add_exclusive(&ctx, &a, 0);
        assert_eq!(s.to_vec(), vec![0, 1, 3, 6]);
    }

    #[test]
    fn scan_along_second_axis() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3], &[PAR, PAR], |i| (i[1] + 1) as i32);
        let s = scan_add(&ctx, &a, 1);
        assert_eq!(s.to_vec(), vec![1, 3, 6, 1, 3, 6]);
    }

    #[test]
    fn scan_along_first_axis_of_2d() {
        let ctx = ctx();
        let a = DistArray::<i32>::full(&ctx, &[3, 2], &[PAR, PAR], 1);
        let s = scan_add(&ctx, &a, 0);
        assert_eq!(s.to_vec(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn segmented_scan_resets_at_flags() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_vec(&ctx, &[6], &[PAR], vec![1, 1, 1, 1, 1, 1]);
        let seg = DistArray::<bool>::from_vec(
            &ctx,
            &[6],
            &[PAR],
            vec![true, false, false, true, false, false],
        );
        let s = segmented_scan_add(&ctx, &a, &seg, 0);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn segmented_copy_scan_fills_segments() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_vec(&ctx, &[6], &[PAR], vec![7, 0, 0, 9, 0, 0]);
        let seg = DistArray::<bool>::from_vec(
            &ctx,
            &[6],
            &[PAR],
            vec![true, false, false, true, false, false],
        );
        let s = segmented_copy_scan(&ctx, &a, &seg, 0);
        assert_eq!(s.to_vec(), vec![7, 7, 7, 9, 9, 9]);
        // Copy-scan charges no FLOPs.
        assert_eq!(ctx.instr.flops(), 0);
    }

    #[test]
    fn scans_record_scan_pattern() {
        let ctx = ctx();
        let a = DistArray::<f64>::zeros(&ctx, &[16], &[PAR]);
        let _ = scan_add(&ctx, &a, 0);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Scan), 1);
    }
}
