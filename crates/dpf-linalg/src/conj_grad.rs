//! `conj-grad` — tridiagonal solution by the conjugate gradient method.
//!
//! Table 2: all arrays `x(:)`, 1-D parallel. Table 4: `15n` FLOPs,
//! **4 CSHIFTs + 3 Reductions** per iteration, memory `40n` bytes (d —
//! five double-precision vectors), no local axes.
//!
//! Per iteration: the tridiagonal `A·p` uses two CSHIFTs of `p` (the
//! paper's count of four also shifts the coefficient arrays into
//! alignment; we pre-align them once and record the difference in
//! EXPERIMENTS.md), two inner products and one convergence reduction,
//! and three AXPY updates — `5n + 4n + 6n = 15n` FLOPs.

use dpf_array::{DistArray, Expr, PAR};
use dpf_comm::{dot, fuse, max_all};
use dpf_core::checkpoint::{drive, Checkpoint, Step, MAX_RESTORES};
use dpf_core::{Ctx, DpfError, RecoveryStats, Verify};

/// A symmetric positive-definite tridiagonal system (constant layout with
/// the boundary coefficients zeroed).
#[derive(Clone, Debug)]
pub struct CgSystem {
    /// Sub-diagonal (index 0 unused, = 0).
    pub lower: DistArray<f64>,
    /// Main diagonal.
    pub diag: DistArray<f64>,
    /// Super-diagonal (index n-1 unused, = 0).
    pub upper: DistArray<f64>,
    /// Right-hand side.
    pub rhs: DistArray<f64>,
}

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// The solution.
    pub x: DistArray<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual max-norm.
    pub residual: f64,
}

/// Tridiagonal matrix–vector product `A·v` (2 CSHIFTs, 5n FLOPs).
fn apply(ctx: &Ctx, sys: &CgSystem, v: &DistArray<f64>) -> DistArray<f64> {
    // q = l*down + d*v + u*up : 3 muls + 2 adds per element, built as a
    // deferred expression so the whole matvec runs as one fused sweep
    // with zero intermediate arrays (and the same two Cshift records
    // and FLOP charges the eager chain made).
    let q = Expr::leaf(&sys.diag)
        .zip(Expr::leaf(v), 1, |d, x| d * x)
        .zip(
            Expr::leaf(&sys.lower).zip(Expr::leaf(v).shift(0, -1), 1, |l, x| l * x),
            1,
            |a, b| a + b,
        )
        .zip(
            Expr::leaf(&sys.upper).zip(Expr::leaf(v).shift(0, 1), 1, |u, x| u * x),
            1,
            |a, b| a + b,
        );
    fuse::eval(ctx, &q)
}

/// Full iteration state of a CG solve, checkpointable as one unit.
struct CgState {
    x: DistArray<f64>,
    r: DistArray<f64>,
    p: DistArray<f64>,
    rho: f64,
    res: f64,
}

impl Checkpoint for CgState {
    fn capture(&self, out: &mut Vec<u8>) {
        self.x.capture(out);
        self.r.capture(out);
        self.p.capture(out);
        self.rho.capture(out);
        self.res.capture(out);
    }

    fn restore(&mut self, cursor: &mut &[u8]) {
        self.x.restore(cursor);
        self.r.restore(cursor);
        self.p.restore(cursor);
        self.rho.restore(cursor);
        self.res.restore(cursor);
    }

    fn healthy(&self) -> bool {
        self.x.healthy()
            && self.r.healthy()
            && self.p.healthy()
            && self.rho.healthy()
            && self.res.healthy()
    }
}

/// Solve to `tol` (residual max-norm) or `max_iter`. Under
/// `--checkpoint-every K` the full iteration state is snapshotted every
/// K iterations and rolled back + recomputed after injected comm-buffer
/// corruption or a forced abort. Returns the solve result plus what
/// recovery cost.
pub fn cg_solve(
    ctx: &Ctx,
    sys: &CgSystem,
    tol: f64,
    max_iter: usize,
) -> Result<(CgResult, RecoveryStats), DpfError> {
    let n = sys.diag.shape()[0];
    let x = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
    let r = sys.rhs.clone();
    let p = r.clone();
    let rho = dot(ctx, &r, &r);
    let res = max_all(ctx, &r.map(ctx, 0, f64::abs));
    let mut st = CgState { x, r, p, rho, res };
    let mut iters = 0;
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut st, max_iter, every, MAX_RESTORES, |st, i| {
        if st.res > tol {
            let q = apply(ctx, sys, &st.p);
            let alpha = st.rho / dot(ctx, &st.p, &q);
            st.x.zip_inplace(ctx, 2, &st.p, |xi, pi| *xi += alpha * pi);
            st.r.zip_inplace(ctx, 2, &q, |ri, qi| *ri -= alpha * qi);
            let rho_new = dot(ctx, &st.r, &st.r);
            let beta = rho_new / st.rho;
            st.p = st.r.zip_map(ctx, 2, &st.p, |ri, pi| ri + beta * pi);
            st.rho = rho_new;
            // Convergence reduction (3rd Reduction of the iteration; no FLOPs).
            st.res = max_all(ctx, &st.r.map(ctx, 0, f64::abs));
            iters = i + 1;
        }
        // Iterate while `res > tol`: a NaN residual ends the solve too.
        if st.res > tol {
            Step::Continue
        } else {
            Step::Done
        }
    })?;
    Ok((
        CgResult {
            x: st.x,
            iterations: iters,
            residual: st.res,
        },
        stats,
    ))
}

/// Optimized version: the matvec, both AXPYs and both inner products of
/// an iteration fused into two passes over flat slices — no CSHIFT
/// temporaries, no intermediate arrays. Records the same 2 CSHIFTs and
/// 3 Reductions per iteration (the data motion is unchanged) and charges
/// the same 15n FLOPs.
pub fn cg_solve_optimized(ctx: &Ctx, sys: &CgSystem, tol: f64, max_iter: usize) -> CgResult {
    let n = sys.diag.shape()[0];
    let mut x = vec![0.0f64; n];
    let mut r = sys.rhs.to_vec();
    let mut p = r.clone();
    let l = sys.lower.as_slice();
    let d = sys.diag.as_slice();
    let u = sys.upper.as_slice();
    let dot_serial = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    ctx.add_flops(2 * n as u64 - 1);
    ctx.record_comm(dpf_core::CommPattern::Reduction, 1, 0, n as u64, 0);
    let mut rho = ctx.busy(|| dot_serial(&r, &r));
    let mut res = r.iter().fold(0.0f64, |m, v| dpf_core::nan_max(m, v.abs()));
    let mut iters = 0usize;
    let mut q = vec![0.0f64; n];
    while res > tol && iters < max_iter {
        // Fused matvec + p·q: one pass.
        let halo = sys.diag.layout().offproc_per_lane(0, 1) * 8;
        ctx.record_comm(dpf_core::CommPattern::Cshift, 1, 1, n as u64, halo as u64);
        ctx.record_comm(dpf_core::CommPattern::Cshift, 1, 1, n as u64, halo as u64);
        ctx.record_comm(dpf_core::CommPattern::Reduction, 1, 0, n as u64, 0);
        ctx.add_flops(5 * n as u64 + 2 * n as u64 - 1);
        let pq = ctx.busy(|| {
            let mut acc = 0.0;
            for i in 0..n {
                let lo = if i > 0 { p[i - 1] } else { 0.0 };
                let hi = if i + 1 < n { p[i + 1] } else { 0.0 };
                q[i] = l[i] * lo + d[i] * p[i] + u[i] * hi;
                acc += p[i] * q[i];
            }
            acc
        });
        let alpha = rho / pq;
        // Fused AXPYs + r·r + |r|max: one pass.
        ctx.record_comm(dpf_core::CommPattern::Reduction, 1, 0, n as u64, 0);
        ctx.add_flops(4 * n as u64 + 2 * n as u64 - 1);
        let (rho_new, rmax) = ctx.busy(|| {
            let mut acc = 0.0;
            let mut m = 0.0f64;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
                acc += r[i] * r[i];
                m = dpf_core::nan_max(m, r[i].abs());
            }
            (acc, m)
        });
        let beta = rho_new / rho;
        ctx.add_flops(2 * n as u64);
        ctx.busy(|| {
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        });
        rho = rho_new;
        res = rmax;
        iters += 1;
    }
    CgResult {
        x: DistArray::<f64>::from_vec(ctx, &[n], &[PAR], x),
        iterations: iters,
        residual: res,
    }
}

/// SPD tridiagonal workload (a 1-D Laplacian with a diagonal boost).
pub fn workload(ctx: &Ctx, n: usize) -> CgSystem {
    let lower =
        DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| if i[0] == 0 { 0.0 } else { -1.0 })
            .declare(ctx);
    let diag = DistArray::<f64>::full(ctx, &[n], &[PAR], 4.0).declare(ctx);
    let upper =
        DistArray::<f64>::from_fn(
            ctx,
            &[n],
            &[PAR],
            |i| {
                if i[0] + 1 == n {
                    0.0
                } else {
                    -1.0
                }
            },
        )
        .declare(ctx);
    let rhs =
        DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| ((i[0] as f64) * 0.37).sin()).declare(ctx);
    CgSystem {
        lower,
        diag,
        upper,
        rhs,
    }
}

/// Verify against the Thomas algorithm.
pub fn verify(sys: &CgSystem, x: &DistArray<f64>, tol: f64) -> Verify {
    let want = crate::reference::thomas(
        sys.lower.as_slice(),
        sys.diag.as_slice(),
        sys.upper.as_slice(),
        sys.rhs.as_slice(),
    );
    let worst = x
        .as_slice()
        .iter()
        .zip(&want)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, dpf_core::nan_max);
    Verify::check("cg error", worst, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, Machine};

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn converges_to_thomas_solution() {
        let ctx = ctx(4);
        let sys = workload(&ctx, 64);
        let (out, _) = cg_solve(&ctx, &sys, 1e-12, 200).unwrap();
        assert!(out.residual <= 1e-12);
        assert!(verify(&sys, &out.x, 1e-9).is_pass());
    }

    #[test]
    fn converges_quickly_for_spd_tridiagonal() {
        let ctx = ctx(2);
        let sys = workload(&ctx, 128);
        let (out, _) = cg_solve(&ctx, &sys, 1e-10, 500).unwrap();
        // Condition number of the boosted Laplacian is ~3; CG converges in
        // far fewer than n iterations.
        assert!(out.iterations < 60, "took {} iterations", out.iterations);
    }

    #[test]
    fn checkpointed_solve_recovers_from_poison() {
        use dpf_core::{FaultKind, FaultPlan};
        for seed in 1..=5 {
            let plan = FaultPlan::new(0.02, seed)
                .only(FaultKind::NanPoison)
                .with_checkpoint_every(2);
            let ctx = Ctx::with_faults(Machine::cm5(4), plan);
            let sys = workload(&ctx, 64);
            let (out, stats) = cg_solve(&ctx, &sys, 1e-11, 640).unwrap();
            assert!(ctx.faults.injected() > 0, "seed {seed}: plan never fired");
            assert!(stats.restores > 0, "seed {seed}: no rollback exercised");
            let v = verify(&sys, &out.x, 1e-8);
            assert!(v.is_pass(), "seed {seed}: {v}");
        }
    }

    #[test]
    fn per_iteration_comm_is_2cshift_3reduction() {
        let ctx = ctx(4);
        let sys = workload(&ctx, 32);
        // Count one iteration's worth by running exactly one iteration.
        let snap0_cs = ctx.instr.pattern_calls(CommPattern::Cshift);
        let snap0_rd = ctx.instr.pattern_calls(CommPattern::Reduction);
        cg_solve(&ctx, &sys, f64::INFINITY, 1).unwrap(); // setup only, res <= inf
        let cs = ctx.instr.pattern_calls(CommPattern::Cshift) - snap0_cs;
        let rd = ctx.instr.pattern_calls(CommPattern::Reduction) - snap0_rd;
        // Setup performs 2 reductions (rho and the initial residual norm);
        // with zero iterations there are no cshifts.
        assert_eq!(cs, 0);
        assert_eq!(rd, 2);
        let ctx2 = Ctx::new(Machine::cm5(4));
        let sys2 = workload(&ctx2, 32);
        cg_solve(&ctx2, &sys2, 0.0, 1).unwrap(); // force exactly 1 iteration
        assert_eq!(ctx2.instr.pattern_calls(CommPattern::Cshift), 2);
        assert_eq!(ctx2.instr.pattern_calls(CommPattern::Reduction), 2 + 3);
    }

    #[test]
    fn flops_per_iteration_near_15n() {
        let ctx = ctx(1);
        let n = 256u64;
        let sys = workload(&ctx, n as usize);
        cg_solve(&ctx, &sys, 0.0, 1).unwrap();
        let setup = 2 * (2 * n - 1) - n; // rho dot (2n-1) + |r| map(0)
        let per_iter = ctx.instr.flops() - (2 * n - 1);
        // Expect ~15n: 5n matvec + 2 dots (4n) + 3 axpys (6n).
        let expect = 15.0 * n as f64;
        assert!(
            (per_iter as f64 - expect).abs() / expect < 0.1,
            "per-iter flops {per_iter} vs 15n = {expect}"
        );
        let _ = setup;
    }

    #[test]
    fn optimized_matches_basic_solution_and_flops() {
        let p = 96;
        let ctx_b = Ctx::new(Machine::cm5(4));
        let sys_b = workload(&ctx_b, p);
        let (out_b, _) = cg_solve(&ctx_b, &sys_b, 1e-12, 400).unwrap();
        let ctx_o = Ctx::new(Machine::cm5(4));
        let sys_o = workload(&ctx_o, p);
        let out_o = cg_solve_optimized(&ctx_o, &sys_o, 1e-12, 400);
        assert_eq!(out_b.iterations, out_o.iterations);
        for (a, b) in out_b.x.to_vec().iter().zip(out_o.x.to_vec()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Same comm inventory per iteration.
        assert_eq!(
            ctx_b.instr.pattern_calls(CommPattern::Cshift),
            ctx_o.instr.pattern_calls(CommPattern::Cshift)
        );
        // FLOP charges agree to within the convergence-check bookkeeping.
        let fb = ctx_b.instr.flops() as f64;
        let fo = ctx_o.instr.flops() as f64;
        assert!((fb - fo).abs() / fb < 0.05, "flops {fb} vs {fo}");
    }

    #[test]
    fn memory_is_40n_for_five_vectors() {
        let ctx = ctx(2);
        let n = 100;
        let sys = workload(&ctx, n);
        let _ = &sys;
        // lower + diag + upper + rhs declared; x allocated in solve —
        // the paper's 40n counts 5 double vectors. Declared here: 4.
        assert_eq!(ctx.instr.declared_bytes(), (4 * 8 * n) as u64);
    }
}
