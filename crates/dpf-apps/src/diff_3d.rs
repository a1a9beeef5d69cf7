//! `diff-3D` — the 3-D diffusion equation by explicit finite differences.
//!
//! Table 5: `x(:,:,:)`, all axes parallel. Table 6:
//! `9(n_x−2)(n_y−2)(n_z−2)` FLOPs per iteration — the interior update
//! only, selected with array sections (Table 8's technique for the
//! constant-boundary diff codes) — memory `8 n_x n_y n_z` bytes (d),
//! **1 7-point Stencil** per iteration, no local axes.

use dpf_array::{DistArray, Triplet, PAR};
use dpf_comm::{star_stencil, stencil, StencilBoundary};
use dpf_core::checkpoint::{drive, Step, MAX_RESTORES};
use dpf_core::{Ctx, DpfError, RecoveryStats, Verify};

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Grid extent per side.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// Diffusion number `λ = D·Δt/Δx²` (stability needs `λ ≤ 1/6`).
    pub lambda: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 32,
            steps: 8,
            lambda: 0.15,
        }
    }
}

/// Run the benchmark. Boundary values are held constant (Dirichlet); the
/// interior is updated through array sections. Under
/// `--checkpoint-every K` the field is rolled back and the window
/// recomputed when a step panics or leaves non-finite values behind.
pub fn run(ctx: &Ctx, p: &Params) -> Result<(DistArray<f64>, Verify, RecoveryStats), DpfError> {
    let n = p.n;
    assert!(n >= 3, "need an interior");
    let lam = p.lambda;
    let pi = std::f64::consts::PI;
    let mode = |i: &[usize]| {
        (pi * i[0] as f64 / (n - 1) as f64).sin()
            * (pi * i[1] as f64 / (n - 1) as f64).sin()
            * (pi * i[2] as f64 / (n - 1) as f64).sin()
    };
    let mut u = DistArray::<f64>::from_fn(ctx, &[n, n, n], &[PAR, PAR, PAR], mode).declare(ctx);
    let pts = star_stencil(3, 1.0 - 6.0 * lam, lam);
    let interior = [
        Triplet::range(1, n - 1),
        Triplet::range(1, n - 1),
        Triplet::range(1, n - 1),
    ];
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut u, p.steps, every, MAX_RESTORES, |u, _| {
        // 7-point stencil; the out-of-range reads never affect the result
        // because only the interior section is written back.
        let updated = stencil(ctx, u, &pts, StencilBoundary::Fill(0.0));
        let inner = updated.section(ctx, &interior);
        u.set_section(ctx, &interior, &inner);
        Step::Continue
    })?;
    // The initial condition is a product sine mode vanishing on the
    // boundary; explicit Euler damps it by an exact factor per step.
    let theta = pi / (n - 1) as f64;
    let factor = (1.0 - 6.0 * lam * (1.0 - theta.cos())).powi(p.steps as i32);
    let mut worst = 0.0f64;
    for (flat, &got) in u.as_slice().iter().enumerate() {
        let idx = dpf_array::unflatten(flat, u.shape());
        let want = factor * mode(&idx);
        worst = dpf_core::nan_max(worst, (got - want).abs());
    }
    let verify = Verify::check("diff-3D vs analytic mode decay", worst, 1e-9);
    Ok((u, verify, stats))
}

/// Optimized (C/DPEAC-style) version: one fused pass over the interior
/// with direct index arithmetic — no stencil temporary, no section
/// copies. Identical FLOP charge and halo accounting; the node-level
/// loop is what a low-level kernel writer would produce.
pub fn run_optimized(ctx: &Ctx, p: &Params) -> (DistArray<f64>, Verify) {
    let n = p.n;
    assert!(n >= 3, "need an interior");
    let lam = p.lambda;
    let pi = std::f64::consts::PI;
    let mode = |i: &[usize]| {
        (pi * i[0] as f64 / (n - 1) as f64).sin()
            * (pi * i[1] as f64 / (n - 1) as f64).sin()
            * (pi * i[2] as f64 / (n - 1) as f64).sin()
    };
    let mut u = DistArray::<f64>::from_fn(ctx, &[n, n, n], &[PAR, PAR, PAR], mode).declare(ctx);
    let mut next = u.clone();
    let centre = 1.0 - 6.0 * lam;
    for _ in 0..p.steps {
        // Same communication event and FLOP charge as the basic stencil.
        let halo = u.layout().offproc_per_lane(0, 1);
        let lanes = u.layout().lanes(0);
        ctx.record_comm(
            dpf_core::CommPattern::Stencil,
            3,
            3,
            u.len() as u64,
            (6 * halo * lanes * 8) as u64,
        );
        ctx.add_flops(u.len() as u64 * 13);
        ctx.busy(|| {
            let src = u.as_slice();
            let dst = next.as_mut_slice();
            let n2 = n * n;
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let base = i * n2 + j * n;
                    for k in 1..n - 1 {
                        let c = base + k;
                        dst[c] = centre * src[c]
                            + lam
                                * (src[c - 1]
                                    + src[c + 1]
                                    + src[c - n]
                                    + src[c + n]
                                    + src[c - n2]
                                    + src[c + n2]);
                    }
                }
            }
        });
        // Both buffers carry the initial (fixed) boundary — only interiors
        // are ever written — so the swap needs no boundary fix-up.
        std::mem::swap(&mut u, &mut next);
    }
    let theta = pi / (n - 1) as f64;
    let factor = (1.0 - 6.0 * lam * (1.0 - theta.cos())).powi(p.steps as i32);
    let mut worst = 0.0f64;
    for (flat, &got) in u.as_slice().iter().enumerate() {
        let idx = dpf_array::unflatten(flat, u.shape());
        let want = factor * mode(&idx);
        worst = dpf_core::nan_max(worst, (got - want).abs());
    }
    (
        u,
        Verify::check("diff-3D optimized vs analytic", worst, 1e-9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, Machine};

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(8))
    }

    #[test]
    fn matches_analytic_mode_decay() {
        let ctx = ctx();
        let (_, v, _) = run(
            &ctx,
            &Params {
                n: 16,
                steps: 6,
                lambda: 0.12,
            },
        )
        .unwrap();
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn one_stencil_per_iteration() {
        let ctx = ctx();
        let steps = 4;
        run(
            &ctx,
            &Params {
                n: 8,
                steps,
                lambda: 0.1,
            },
        )
        .unwrap();
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Stencil), steps as u64);
    }

    #[test]
    fn memory_is_8n_cubed() {
        let ctx = ctx();
        run(
            &ctx,
            &Params {
                n: 10,
                steps: 0,
                lambda: 0.1,
            },
        )
        .unwrap();
        assert_eq!(ctx.instr.declared_bytes(), 8 * 1000);
    }

    #[test]
    fn boundaries_stay_fixed() {
        let ctx = ctx();
        let (u, _, _) = run(
            &ctx,
            &Params {
                n: 12,
                steps: 5,
                lambda: 0.15,
            },
        )
        .unwrap();
        let n = 12;
        // The initial sine mode is ~0 on the boundary (up to sin(π)
        // rounding); the scheme must leave boundary cells untouched.
        for i in 0..n {
            for j in 0..n {
                assert!(u.get(&[0, i, j]).abs() < 1e-14);
                assert!(u.get(&[n - 1, i, j]).abs() < 1e-14);
                assert!(u.get(&[i, 0, j]).abs() < 1e-14);
                assert!(u.get(&[i, j, n - 1]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn optimized_matches_basic_exactly() {
        let p = Params {
            n: 12,
            steps: 5,
            lambda: 0.12,
        };
        let ctx_b = Ctx::new(Machine::cm5(8));
        let (ub, vb, _) = run(&ctx_b, &p).unwrap();
        let ctx_o = Ctx::new(Machine::cm5(8));
        let (uo, vo) = run_optimized(&ctx_o, &p);
        assert!(vb.is_pass() && vo.is_pass());
        for (a, b) in ub.as_slice().iter().zip(uo.as_slice()) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
        // Identical FLOP charge; the optimized path just fuses the loop.
        assert_eq!(ctx_b.instr.flops(), ctx_o.instr.flops());
    }

    #[test]
    fn checkpointed_run_recovers_under_faults() {
        use dpf_core::{FaultKind, FaultPlan};
        let p = Params {
            n: 8,
            steps: 8,
            lambda: 0.1,
        };
        let ctx_b = Ctx::with_faults(
            Machine::cm5(8),
            FaultPlan::default().with_checkpoint_every(2),
        );
        let (ub, vb, stats) = run(&ctx_b, &p).unwrap();
        assert!(vb.is_pass() && stats.restores == 0);
        let ctx_p = ctx();
        let (up, _, _) = run(&ctx_p, &p).unwrap();
        for (a, b) in up.as_slice().iter().zip(ub.as_slice()) {
            assert!((a - b).abs() < 1e-14);
        }
        // One decision point per step (the stencil), and poison landing on
        // the discarded boundary ring is harmless — drive the rate high so
        // the fixed seed corrupts the interior within the window budget.
        let plan = FaultPlan::new(0.6, 0xD1F3D)
            .only(FaultKind::NanPoison)
            .with_checkpoint_every(1);
        let ctx = Ctx::with_faults(Machine::cm5(8), plan);
        let (_, v, stats) = run(&ctx, &p).unwrap();
        assert!(ctx.faults.injected() > 0);
        assert!(stats.restores > 0);
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn unstable_lambda_grows() {
        // Sanity check of the scheme itself: beyond the explicit limit the
        // mode amplifies instead of decaying.
        let theta = std::f64::consts::PI / 15.0;
        let lam = 0.4; // > 1/6
        let factor = 1.0f64 - 6.0 * lam * (1.0 - theta.cos());
        assert!(factor < 1.0); // still damped for the smooth mode...
        let theta_max = std::f64::consts::PI;
        let worst = 1.0f64 - 6.0 * lam * (1.0 - theta_max.cos());
        assert!(worst.abs() > 1.0); // ...but the checkerboard mode blows up.
    }
}
