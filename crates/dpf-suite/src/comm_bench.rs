//! The four library communication benchmarks (paper §2): `gather`,
//! `scatter`, `reduction` and `transpose`.
//!
//! These measure particular communication patterns, not bundled with
//! computation: gather and reduction are many-to-one, scatter one-to-many
//! and transpose an AAPC. Except for `reduction`, the codes perform no
//! floating-point operations and report no FLOP count (paper §2).

use dpf_array::{DistArray, PAR};
use dpf_comm as comm;
use dpf_core::{Ctx, ProblemClass, Verify};

use crate::benchmark::RunOutput;

/// `gather` — many-to-one indexed reads through a random permutation plus
/// a clustered (hot-spot) index set, the two regimes the CM router cared
/// about.
pub fn run_gather(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let n = c.pow2(1 << 10);
    let src = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| i[0] as f64).declare(ctx);
    // Permutation-style indices (collision-free)...
    let idx =
        DistArray::<i32>::from_fn(ctx, &[n], &[PAR], move |i| ((i[0] * 7919 + 13) % n) as i32)
            .declare(ctx);
    let out = comm::gather(ctx, &src, &idx);
    // ...and a hot-spot set (every index in one small region).
    let hot = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], move |i| (i[0] % 64) as i32);
    let _ = comm::gather(ctx, &src, &hot);
    // Verify the permutation gather element-wise.
    let mut worst = 0.0f64;
    for k in 0..n {
        let want = ((k * 7919 + 13) % n) as f64;
        worst = dpf_core::nan_max(worst, (out.as_slice()[k] - want).abs());
    }
    RunOutput {
        problem: format!("n={n}, d"),
        verify: Verify::check("gather permutation error", worst, 0.0),
        points: n as u64,
        iterations: 2,
    }
}

/// `scatter` — one-to-many indexed writes, permutation and hot-spot.
pub fn run_scatter(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let n = c.pow2(1 << 10);
    let src = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| i[0] as f64).declare(ctx);
    let idx =
        DistArray::<i32>::from_fn(ctx, &[n], &[PAR], move |i| ((i[0] * 7919 + 13) % n) as i32)
            .declare(ctx);
    let mut dst = DistArray::<f64>::zeros(ctx, &[n], &[PAR]).declare(ctx);
    comm::scatter(ctx, &mut dst, &idx, &src);
    let mut worst = 0.0f64;
    for k in 0..n {
        let to = (k * 7919 + 13) % n;
        worst = dpf_core::nan_max(worst, (dst.as_slice()[to] - k as f64).abs());
    }
    // Hot-spot scatter with combining (collisions resolved by addition).
    let hot = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |_| 0);
    let ones = DistArray::<f64>::full(ctx, &[n], &[PAR], 1.0);
    let mut hot_dst = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
    comm::scatter_combine(ctx, &mut hot_dst, &hot, &ones, comm::Combine::Add);
    worst = dpf_core::nan_max(worst, hot_dst.as_slice()[0] - n as f64);
    RunOutput {
        problem: format!("n={n}, d"),
        verify: Verify::check("scatter error", worst, 0.0),
        points: n as u64,
        iterations: 2,
    }
}

/// `reduction` — global sum reductions of 1-D and 2-D arrays (the one
/// communication benchmark with a FLOP count: `n − 1` per reduction).
pub fn run_reduction(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let n = c.pow2(1 << 10);
    let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| i[0] as f64).declare(ctx);
    let total = comm::sum_all(ctx, &a);
    let want = (n as f64 - 1.0) * n as f64 / 2.0;
    let mut worst = (total - want).abs() / want;
    // 2-D to 1-D axis reduction.
    let side = (n as f64).sqrt() as usize;
    let b = DistArray::<f64>::full(ctx, &[side, side], &[PAR, PAR], 1.0).declare(ctx);
    let rows = comm::sum_axis(ctx, &b, 1);
    worst = dpf_core::nan_max(
        worst,
        rows.as_slice()
            .iter()
            .map(|r| (r - side as f64).abs())
            .fold(0.0, dpf_core::nan_max),
    );
    RunOutput {
        problem: format!("n={n}, d"),
        verify: Verify::check("reduction error", worst, 1e-9),
        points: n as u64,
        iterations: 2,
    }
}

/// `transpose` — the AAPC benchmark ("may be used to confirm advertised
/// bisection bandwidths").
pub fn run_transpose(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let side = c.pow2(32);
    let a = DistArray::<f64>::from_fn(ctx, &[side, side], &[PAR, PAR], |i| {
        (i[0] * side + i[1]) as f64
    })
    .declare(ctx);
    let t = comm::transpose(ctx, &a);
    let tt = comm::transpose(ctx, &t);
    let worst = tt
        .as_slice()
        .iter()
        .zip(a.as_slice())
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, dpf_core::nan_max);
    RunOutput {
        problem: format!("{side}x{side}, d"),
        verify: Verify::check("transpose involution error", worst, 0.0),
        points: (side * side) as u64,
        iterations: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, Machine};

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(8))
    }

    #[test]
    fn all_four_verify_at_small_size() {
        for (name, f) in [
            ("gather", run_gather as fn(&Ctx, ProblemClass) -> RunOutput),
            ("scatter", run_scatter),
            ("reduction", run_reduction),
            ("transpose", run_transpose),
        ] {
            let ctx = ctx();
            let out = f(&ctx, ProblemClass::S);
            assert!(out.verify.is_pass(), "{name}: {}", out.verify);
        }
    }

    #[test]
    fn non_reduction_benchmarks_charge_no_flops() {
        for f in [
            run_gather as fn(&Ctx, ProblemClass) -> RunOutput,
            run_scatter,
            run_transpose,
        ] {
            let ctx = ctx();
            let _ = f(&ctx, ProblemClass::S);
            // scatter's combining hot-spot pass legitimately adds; the
            // plain data-motion paths must not.
            let flops = ctx.instr.flops();
            assert!(flops <= 1 << 10, "unexpected FLOPs: {flops}");
        }
    }

    #[test]
    fn reduction_charges_n_minus_1() {
        let ctx = ctx();
        let _ = run_reduction(&ctx, ProblemClass::S);
        let n = 1u64 << 10;
        let side = 32u64;
        assert_eq!(ctx.instr.flops(), (n - 1) + side * (side - 1));
    }

    #[test]
    fn patterns_match_paper_section2() {
        let ctx = ctx();
        let _ = run_gather(&ctx, ProblemClass::S);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Gather), 2);
        let ctx = Ctx::new(Machine::cm5(8));
        let _ = run_transpose(&ctx, ProblemClass::S);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Aapc), 2);
    }
}
