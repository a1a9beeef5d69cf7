//! `diff-2D` — the 2-D diffusion equation via the alternating direction
//! implicit (ADI) method.
//!
//! Table 5: `x(:serial,:)` — rows local, columns parallel. Table 6:
//! `10n_x² − 16n_x + 16` FLOPs per iteration, memory `32n_x²` bytes (d),
//! communication **1 3-point Stencil + 1 AAPC** per iteration (the
//! implicit sweep along the local axis, then the distributed transpose
//! to sweep the other direction), *strided* local access.
//!
//! Peaceman–Rachford ADI on the unit square with Dirichlet-0 boundaries:
//! each half step is implicit in one direction (batched Thomas solves
//! along the serial axis) and explicit (3-point stencil) in the other;
//! the AAPC transpose re-orients the grid between half steps.

use dpf_array::{DistArray, PAR, SER};
use dpf_comm::{stencil_into, transpose, StencilBoundary, StencilPoint};
use dpf_core::checkpoint::{drive, Step, MAX_RESTORES};
use dpf_core::{Ctx, DpfError, RecoveryStats, Verify};
use dpf_linalg::reference::thomas;

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Grid extent per side (the field is `nx × nx`).
    pub nx: usize,
    /// Time steps (each = two ADI half steps).
    pub steps: usize,
    /// Diffusion number per half step `λ = D·Δt/(2Δx²)`.
    pub lambda: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            nx: 64,
            steps: 6,
            lambda: 0.3,
        }
    }
}

/// One implicit sweep along the **last** (serial) axis: solves
/// `(I − λΔ_row) u' = rhs` for every row with the Thomas algorithm —
/// the strided local-axis work of the benchmark.
fn implicit_rows(ctx: &Ctx, rhs: &DistArray<f64>, lam: f64) -> DistArray<f64> {
    let (nr, nc) = (rhs.shape()[0], rhs.shape()[1]);
    let tl: Vec<f64> = (0..nc).map(|i| if i == 0 { 0.0 } else { -lam }).collect();
    let td = vec![1.0 + 2.0 * lam; nc];
    let tu: Vec<f64> = (0..nc)
        .map(|i| if i + 1 == nc { 0.0 } else { -lam })
        .collect();
    // ~8 FLOPs per point for the forward/backward Thomas recurrences.
    ctx.add_flops((nr * nc) as u64 * 8);
    // Every row is overwritten by a full Thomas solve, so pooled scratch
    // storage is safe.
    let mut out = DistArray::<f64>::scratch(ctx, rhs.shape(), rhs.layout().axes());
    ctx.busy(|| {
        for r in 0..nr {
            let row = &rhs.as_slice()[r * nc..(r + 1) * nc];
            let solved = thomas(&tl, &td, &tu, row);
            out.as_mut_slice()[r * nc..(r + 1) * nc].copy_from_slice(&solved);
        }
    });
    out
}

/// Run the benchmark; verification compares against a serial ADI mirror.
/// Under `--checkpoint-every K` the field is snapshotted every K steps
/// and rolled back + recomputed when a step panics or leaves non-finite
/// values behind. The RHS buffers are rewritten from the field each
/// step, so only the field itself is snapshotted.
pub fn run(ctx: &Ctx, p: &Params) -> Result<(DistArray<f64>, Verify, RecoveryStats), DpfError> {
    let n = p.nx;
    let lam = p.lambda;
    let pi = std::f64::consts::PI;
    let mut u = DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, SER], |i| {
        (pi * (i[0] + 1) as f64 / (n + 1) as f64).sin()
            * (pi * (i[1] + 1) as f64 / (n + 1) as f64).sin()
    })
    .declare(ctx);
    let _scratch = DistArray::<f64>::zeros(ctx, &[n, n], &[PAR, SER]).declare(ctx);
    let expl_pts = vec![
        StencilPoint::new(&[-1, 0], lam),
        StencilPoint::new(&[0, 0], 1.0 - 2.0 * lam),
        StencilPoint::new(&[1, 0], lam),
    ];
    let mut u_ref = u.to_vec();
    // Reused RHS buffers, one per grid orientation so layouts (and hence
    // the recorded communication) match the allocating formulation.
    let mut rhs = DistArray::<f64>::zeros(ctx, &[n, n], &[PAR, SER]);
    let mut rhs_t = DistArray::<f64>::zeros(ctx, &[n, n], &[SER, PAR]);
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut u, p.steps, every, MAX_RESTORES, |u, _| {
        // Half step 1: explicit in the parallel direction (3-pt stencil),
        // implicit along the serial rows.
        stencil_into(ctx, u, &expl_pts, StencilBoundary::Fill(0.0), &mut rhs);
        let half = implicit_rows(ctx, &rhs, lam);
        // Transpose (AAPC) and repeat for the other direction.
        let ht = transpose(ctx, &half);
        half.recycle(ctx);
        stencil_into(ctx, &ht, &expl_pts, StencilBoundary::Fill(0.0), &mut rhs_t);
        let full_t = implicit_rows(ctx, &rhs_t, lam);
        ht.recycle(ctx);
        std::mem::replace(u, transpose(ctx, &full_t)).recycle(ctx);
        full_t.recycle(ctx);
        Step::Continue
    })?;
    for _ in 0..p.steps {
        u_ref = serial_adi_step(&u_ref, n, lam);
    }
    let worst = u
        .as_slice()
        .iter()
        .zip(&u_ref)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, dpf_core::nan_max);
    let verify = Verify::check("diff-2D vs serial ADI", worst, 1e-9);
    Ok((u, verify, stats))
}

fn serial_adi_step(u: &[f64], n: usize, lam: f64) -> Vec<f64> {
    let tl: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -lam }).collect();
    let td = vec![1.0 + 2.0 * lam; n];
    let tu: Vec<f64> = (0..n)
        .map(|i| if i + 1 == n { 0.0 } else { -lam })
        .collect();
    let at = |g: &[f64], r: isize, c: usize| -> f64 {
        if r < 0 || r >= n as isize {
            0.0
        } else {
            g[r as usize * n + c]
        }
    };
    // Half 1: explicit in rows (axis 0), implicit along columns' direction
    // (axis 1) — matching `run`, which stencils axis 0 and solves axis 1.
    let mut half = vec![0.0; n * n];
    for r in 0..n {
        let rhs: Vec<f64> = (0..n)
            .map(|c| {
                lam * (at(u, r as isize - 1, c) + at(u, r as isize + 1, c))
                    + (1.0 - 2.0 * lam) * u[r * n + c]
            })
            .collect();
        let solved = thomas(&tl, &td, &tu, &rhs);
        half[r * n..(r + 1) * n].copy_from_slice(&solved);
    }
    // Half 2 on the transpose.
    let ht: Vec<f64> = (0..n * n).map(|k| half[(k % n) * n + k / n]).collect();
    let mut full_t = vec![0.0; n * n];
    for r in 0..n {
        let rhs: Vec<f64> = (0..n)
            .map(|c| {
                lam * (at(&ht, r as isize - 1, c) + at(&ht, r as isize + 1, c))
                    + (1.0 - 2.0 * lam) * ht[r * n + c]
            })
            .collect();
        let solved = thomas(&tl, &td, &tu, &rhs);
        full_t[r * n..(r + 1) * n].copy_from_slice(&solved);
    }
    (0..n * n).map(|k| full_t[(k % n) * n + k / n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, Machine};

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn matches_serial_adi() {
        let ctx = ctx();
        let (_, v, _) = run(
            &ctx,
            &Params {
                nx: 24,
                steps: 4,
                lambda: 0.3,
            },
        )
        .unwrap();
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn decays_like_the_heat_equation() {
        // The first product mode decays by a known ADI amplification
        // factor per direction per step.
        let ctx = ctx();
        let p = Params {
            nx: 32,
            steps: 5,
            lambda: 0.25,
        };
        let (u, _, _) = run(&ctx, &p).unwrap();
        let pi = std::f64::consts::PI;
        let theta = pi / (p.nx + 1) as f64;
        let g = 2.0 * p.lambda * (1.0 - theta.cos());
        let factor = ((1.0 - g) / (1.0 + g)).powi(2 * p.steps as i32);
        // Compare at the grid centre.
        let c = p.nx / 2 - 1;
        let init = ((c + 1) as f64 * theta).sin().powi(2);
        let got = u.get(&[c, c]);
        assert!(
            (got - factor * init).abs() < 1e-9,
            "centre {got} vs analytic {}",
            factor * init
        );
    }

    #[test]
    fn comm_is_stencils_and_aapcs() {
        let ctx = ctx();
        let steps = 3;
        run(
            &ctx,
            &Params {
                nx: 16,
                steps,
                lambda: 0.3,
            },
        )
        .unwrap();
        // Per step: 2 stencils + 2 AAPC transposes (one per half step).
        assert_eq!(
            ctx.instr.pattern_calls(CommPattern::Stencil),
            2 * steps as u64
        );
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Aapc), 2 * steps as u64);
    }

    #[test]
    fn memory_is_32nx_squared() {
        let ctx = ctx();
        run(
            &ctx,
            &Params {
                nx: 20,
                steps: 0,
                lambda: 0.3,
            },
        )
        .unwrap();
        // Field + scratch = 2 × 8 n² ... the paper's 32 n² counts four
        // n²-sized doubles (u, rhs, and the two ADI workspaces); we
        // declare u and one scratch (16 n²) and the two per-step RHS
        // temporaries are compiler temps (not counted, per §1.5).
        assert_eq!(ctx.instr.declared_bytes(), 16 * 20 * 20);
    }

    #[test]
    fn maximum_principle_holds() {
        let ctx = ctx();
        let (u, _, _) = run(
            &ctx,
            &Params {
                nx: 16,
                steps: 10,
                lambda: 0.4,
            },
        )
        .unwrap();
        for &x in u.as_slice() {
            assert!((-1e-12..=1.0 + 1e-12).contains(&x));
        }
    }

    #[test]
    fn checkpointed_run_recovers_under_faults() {
        use dpf_core::{FaultKind, FaultPlan, Machine};
        let p = Params {
            nx: 16,
            steps: 4,
            lambda: 0.3,
        };
        // Fault-free: identical to the unchecked run.
        let ctx_a = ctx();
        let (ua, _, _) = run(&ctx_a, &p).unwrap();
        let ctx_b = Ctx::with_faults(
            Machine::cm5(4),
            FaultPlan::default().with_checkpoint_every(2),
        );
        let (ub, vb, stats) = run(&ctx_b, &p).unwrap();
        assert!(vb.is_pass() && stats.restores == 0);
        for (a, b) in ua.as_slice().iter().zip(ub.as_slice()) {
            assert!((a - b).abs() < 1e-14);
        }
        // Injected NaN poison: detected, rolled back, final answer intact.
        // A step has only ~4 decision points (2 stencils + 2 transposes),
        // so the rate is high to make the fixed seed fire within 4 steps.
        let plan = FaultPlan::new(0.25, 0xD1F2D)
            .only(FaultKind::NanPoison)
            .with_checkpoint_every(1);
        let ctx = Ctx::with_faults(Machine::cm5(4), plan);
        let (_, v, stats) = run(&ctx, &p).unwrap();
        assert!(ctx.faults.injected() > 0);
        assert!(stats.restores > 0);
        assert!(v.is_pass(), "{v}");
    }
}
