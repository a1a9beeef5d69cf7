//! `diff-1D` — the 1-D diffusion equation via an implicit tridiagonal
//! solver.
//!
//! Table 5: `x(:)` 1-D parallel. Table 6: `13 n_x + 4P log P − 8` FLOPs
//! per iteration, memory `32 n_x` bytes (d — four double vectors),
//! communication **1 3-point Stencil** (the right-hand side) plus the
//! substructured tridiagonal solve (here parallel cyclic reduction, the
//! same substructuring family), no local axes.
//!
//! Crank–Nicolson time stepping: `(I − ½λΔ) u^{k+1} = (I + ½λΔ) u^k`
//! with Dirichlet boundaries — the RHS is the 3-point stencil, the LHS
//! a constant tridiagonal system solved each step.

use dpf_array::{DistArray, PAR};
use dpf_comm::{stencil_into, StencilBoundary, StencilPoint};
use dpf_core::checkpoint::{drive, Step, MAX_RESTORES};
use dpf_core::{Ctx, DpfError, RecoveryStats, Verify};
use dpf_linalg::pcr::{pcr_solve, Tridiag};
use dpf_linalg::reference::thomas;

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Grid points.
    pub nx: usize,
    /// Time steps.
    pub steps: usize,
    /// Diffusion number `λ = D·Δt/Δx²`.
    pub lambda: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            nx: 256,
            steps: 8,
            lambda: 0.4,
        }
    }
}

/// Run the benchmark; returns the final field, the verification against
/// a serial Crank–Nicolson integration, and what recovery cost. Under
/// `--checkpoint-every K` the field is snapshotted every K steps and
/// rolled back + recomputed whenever a step panics (injected abort) or
/// leaves a non-finite value behind (injected corruption). The serial
/// reference is integrated fault-free afterwards, so a recovered run
/// still verifies.
pub fn run(ctx: &Ctx, p: &Params) -> Result<(DistArray<f64>, Verify, RecoveryStats), DpfError> {
    let n = p.nx;
    let lam = p.lambda;
    // Initial condition: a sine mode (Dirichlet-compatible).
    let mut u = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| {
        (std::f64::consts::PI * (i[0] + 1) as f64 / (n + 1) as f64).sin()
    })
    .declare(ctx);
    // Constant implicit system (I − ½λ Δ).
    let sys_l =
        DistArray::<f64>::from_fn(
            ctx,
            &[n],
            &[PAR],
            |i| {
                if i[0] == 0 {
                    0.0
                } else {
                    -0.5 * lam
                }
            },
        )
        .declare(ctx);
    let sys_d = DistArray::<f64>::full(ctx, &[n], &[PAR], 1.0 + lam).declare(ctx);
    let sys_u = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| {
        if i[0] + 1 == n {
            0.0
        } else {
            -0.5 * lam
        }
    })
    .declare(ctx);

    // Serial reference mirror.
    let mut u_ref = u.to_vec();

    let rhs_pts = vec![
        StencilPoint::new(&[-1], 0.5 * lam),
        StencilPoint::new(&[0], 1.0 - lam),
        StencilPoint::new(&[1], 0.5 * lam),
    ];
    // The implicit system is constant: build it once and refresh only the
    // right-hand side in place each step (no per-step clones/allocations).
    let mut sys = Tridiag {
        lower: sys_l,
        diag: sys_d,
        upper: sys_u,
        rhs: DistArray::<f64>::zeros(ctx, &[n], &[PAR]),
    };
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut u, p.steps, every, MAX_RESTORES, |u, _| {
        // RHS: the 3-point stencil with Dirichlet-0 ends. The buffer is
        // fully rewritten each step, so it needs no snapshot.
        stencil_into(ctx, u, &rhs_pts, StencilBoundary::Fill(0.0), &mut sys.rhs);
        // Substructured tridiagonal solve; recycle the previous field's
        // storage into the buffer pool.
        std::mem::replace(u, pcr_solve(ctx, &sys)).recycle(ctx);
        Step::Continue
    })?;
    for _ in 0..p.steps {
        u_ref = serial_cn_step(&u_ref, n, lam);
    }
    let worst = u
        .as_slice()
        .iter()
        .zip(&u_ref)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, dpf_core::nan_max);
    let verify = Verify::check("diff-1D vs serial CN", worst, 1e-9);
    Ok((u, verify, stats))
}

/// One serial Crank–Nicolson step (the verification mirror).
fn serial_cn_step(u_ref: &[f64], n: usize, lam: f64) -> Vec<f64> {
    let rl: Vec<f64> = (0..n)
        .map(|i| {
            let lo = if i > 0 { u_ref[i - 1] } else { 0.0 };
            let hi = if i + 1 < n { u_ref[i + 1] } else { 0.0 };
            0.5 * lam * (lo + hi) + (1.0 - lam) * u_ref[i]
        })
        .collect();
    let tl: Vec<f64> = (0..n)
        .map(|i| if i == 0 { 0.0 } else { -0.5 * lam })
        .collect();
    let td = vec![1.0 + lam; n];
    let tu: Vec<f64> = (0..n)
        .map(|i| if i + 1 == n { 0.0 } else { -0.5 * lam })
        .collect();
    thomas(&tl, &td, &tu, &rl)
}

/// The analytic decay factor of the first sine mode after `steps` of
/// Crank–Nicolson: `((1 − λ(1 − cos θ)) / (1 + λ(1 − cos θ)))^steps`.
pub fn analytic_mode_decay(p: &Params) -> f64 {
    let theta = std::f64::consts::PI / (p.nx + 1) as f64;
    let g = 2.0 * p.lambda * (1.0 - theta.cos());
    ((1.0 - 0.5 * g) / (1.0 + 0.5 * g)).powi(p.steps as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, FaultKind, FaultPlan, Machine};

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn matches_serial_crank_nicolson() {
        let ctx = ctx();
        let (_, v, _) = run(
            &ctx,
            &Params {
                nx: 64,
                steps: 5,
                lambda: 0.4,
            },
        )
        .unwrap();
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn sine_mode_decays_at_analytic_rate() {
        let ctx = ctx();
        let p = Params {
            nx: 128,
            steps: 10,
            lambda: 0.3,
        };
        let (u, _, _) = run(&ctx, &p).unwrap();
        // The initial condition is exactly the first eigenmode, so the
        // field stays proportional to it with the analytic decay factor.
        let factor = analytic_mode_decay(&p);
        let mid = u.as_slice()[64 - 1];
        let init = (std::f64::consts::PI * 64.0 / 129.0).sin();
        assert!(
            (mid - factor * init).abs() < 1e-9,
            "mid {mid} vs analytic {}",
            factor * init
        );
    }

    #[test]
    fn records_stencil_and_cshift_patterns() {
        let ctx = ctx();
        run(
            &ctx,
            &Params {
                nx: 32,
                steps: 3,
                lambda: 0.4,
            },
        )
        .unwrap();
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Stencil), 3);
        // PCR contributes 2·ceil(log2 n) cshifts per step.
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Cshift), 3 * 2 * 5);
    }

    #[test]
    fn memory_is_32nx() {
        let ctx = ctx();
        let p = Params {
            nx: 100,
            steps: 0,
            lambda: 0.4,
        };
        run(&ctx, &p).unwrap();
        // u + the three tridiagonal coefficient vectors = 4 × 8 n.
        assert_eq!(ctx.instr.declared_bytes(), 32 * 100);
    }

    #[test]
    fn maximum_principle_holds() {
        let ctx = ctx();
        let (u, _, _) = run(
            &ctx,
            &Params {
                nx: 64,
                steps: 20,
                lambda: 0.45,
            },
        )
        .unwrap();
        // Diffusion with zero boundaries keeps 0 <= u <= max(initial).
        for &x in u.as_slice() {
            assert!((-1e-12..=1.0 + 1e-12).contains(&x));
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_when_fault_free() {
        let p = Params {
            nx: 64,
            steps: 6,
            lambda: 0.4,
        };
        let ctx_a = ctx();
        let (ua, va, _) = run(&ctx_a, &p).unwrap();
        let ctx_b = Ctx::with_faults(
            Machine::cm5(4),
            FaultPlan::default().with_checkpoint_every(2),
        );
        let (ub, vb, stats) = run(&ctx_b, &p).unwrap();
        assert!(va.is_pass() && vb.is_pass());
        assert_eq!(stats.restores, 0);
        assert_eq!(stats.steps, p.steps);
        for (a, b) in ua.as_slice().iter().zip(ub.as_slice()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn checkpointed_run_recovers_from_injected_corruption() {
        let p = Params {
            nx: 64,
            steps: 8,
            lambda: 0.4,
        };
        let plan = FaultPlan::new(0.02, 0xD1F1D)
            .only(FaultKind::NanPoison)
            .with_checkpoint_every(2);
        let ctx = Ctx::with_faults(Machine::cm5(4), plan);
        let (_, v, stats) = run(&ctx, &p).unwrap();
        assert!(ctx.faults.injected() > 0, "plan never fired");
        assert!(stats.restores > 0, "corruption never tripped a rollback");
        assert!(v.is_pass(), "{v}");
    }
}
