//! `md` — molecular dynamics with long-range forces (all pairs).
//!
//! Table 5: `x(:)` and `x(:,:)`. Table 6: `(23 + 51 n_p) n_p` FLOPs per
//! iteration, memory `160 n_p + 80 n_p²` bytes (d — the particle vectors
//! plus the pairwise interaction matrices), communication **6 1-D to 2-D
//! SPREADs, 3 1-D to 2-D sends, 3 2-D to 1-D Reductions** per iteration,
//! no local axes. The paper also lists md's data motion as an AABC
//! (Table 7) — the spread pair per coordinate realizes it.
//!
//! 3-D Lennard-Jones gas with softened interactions and velocity-Verlet
//! integration: each step spreads the three coordinate vectors both ways
//! (6 SPREADs), evaluates the pairwise force matrix, reduces it back to
//! per-particle forces (3 Reductions), and sends the updated positions
//! back to the home arrays (3 sends).

use dpf_array::{DistArray, Expr, PAR};
use dpf_comm::fuse;
use dpf_core::checkpoint::{drive, Checkpoint, Step, MAX_RESTORES};
use dpf_core::{nan_max, CommPattern, Ctx, DpfError, RecoveryStats, Verify};

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Particles per side of the initial cubic lattice.
    pub side: usize,
    /// Time step.
    pub dt: f64,
    /// Steps.
    pub steps: usize,
    /// LJ well depth.
    pub epsilon: f64,
    /// LJ length scale.
    pub sigma: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            side: 3,
            dt: 2e-3,
            steps: 25,
            epsilon: 1.0,
            sigma: 1.0,
        }
    }
}

/// The particle phase state.
#[derive(Clone, Debug)]
pub struct State {
    /// Positions per axis.
    pub pos: [DistArray<f64>; 3],
    /// Velocities per axis.
    pub vel: [DistArray<f64>; 3],
}

impl Checkpoint for State {
    fn capture(&self, out: &mut Vec<u8>) {
        self.pos.capture(out);
        self.vel.capture(out);
    }

    fn restore(&mut self, cursor: &mut &[u8]) {
        self.pos.restore(cursor);
        self.vel.restore(cursor);
    }

    fn healthy(&self) -> bool {
        self.pos.healthy() && self.vel.healthy()
    }
}

/// Particles on a slightly-perturbed cubic lattice, at rest.
pub fn workload(ctx: &Ctx, p: &Params) -> State {
    let n = p.side.pow(3);
    let spacing = p.sigma * 1.2;
    let side = p.side;
    let mk = |axis: usize| {
        DistArray::<f64>::from_fn(ctx, &[n], &[PAR], move |i| {
            let cell = [i[0] / (side * side), (i[0] / side) % side, i[0] % side];
            cell[axis] as f64 * spacing + 0.01 * spacing * crate::util::pseudo(i[0] * 3 + axis)
        })
        .declare(ctx)
    };
    let zero = || DistArray::<f64>::zeros(ctx, &[n], &[PAR]).declare(ctx);
    State {
        pos: [mk(0), mk(1), mk(2)],
        vel: [zero(), zero(), zero()],
    }
}

/// Pairwise LJ force divided by displacement, as a function of `r²`
/// (softened so overlapping pairs cannot blow up).
fn lj_fac(r2: f64, epsilon: f64, sigma: f64) -> f64 {
    let r2 = r2 + 1e-4 * sigma * sigma;
    let s2 = sigma * sigma / r2;
    let s6 = s2 * s2 * s2;
    24.0 * epsilon * s6 * (2.0 * s6 - 1.0) / r2
}

/// Potential energy of the configuration (for the conservation check).
pub fn potential(p: &Params, st: &State) -> f64 {
    let n = st.pos[0].len();
    let xs: Vec<&[f64]> = st.pos.iter().map(|a| a.as_slice()).collect();
    let mut u = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let mut r2 = 1e-4 * p.sigma * p.sigma;
            for x in &xs {
                let dx = x[i] - x[j];
                r2 += dx * dx;
            }
            let s6 = (p.sigma * p.sigma / r2).powi(3);
            u += 4.0 * p.epsilon * s6 * (s6 - 1.0);
        }
    }
    u
}

/// Kinetic energy.
pub fn kinetic(st: &State) -> f64 {
    st.vel
        .iter()
        .map(|v| v.as_slice().iter().map(|x| 0.5 * x * x).sum::<f64>())
        .sum()
}

/// One force evaluation: 6 SPREADs, the pair matrix, 3 Reductions.
pub fn forces(ctx: &Ctx, p: &Params, st: &State) -> [DistArray<f64>; 3] {
    let n = st.pos[0].len();
    // The spread pair per coordinate realizes an all-to-all broadcast —
    // recorded once as the composite AABC of Table 7.
    ctx.record_comm(CommPattern::Aabc, 1, 2, (n * n) as u64, 0);
    // 6 SPREADs: each coordinate along rows and (recorded) columns; the
    // column orientation of x_i is the untouched home vector aligned with
    // the matrix rows, whose replication we record as the second spread
    // of the AABC pair.
    let spreads: Vec<DistArray<f64>> = st
        .pos
        .iter()
        .map(|c| {
            ctx.record_comm(CommPattern::Spread, 1, 2, (n * n) as u64, 0);
            dpf_comm::spread(ctx, c, 0, n, PAR)
        })
        .collect();
    ctx.add_flops(51 * (n as u64) * (n as u64));
    // Pairwise matrix and row reduction, fused for memory economy but
    // recorded as the 3 matrix Reductions of Table 6.
    for _ in 0..3 {
        ctx.record_comm(CommPattern::Reduction, 2, 1, (n * n) as u64, 0);
    }
    // Deferred pair matrix: dx_d[i][j] = x_d[j] − x_d[i], the spread row
    // against the home vector broadcast along the rows. The LJ factor
    // matrix materializes once (no records, FLOPs charged above), then
    // one fused row-fold per axis accumulates the forces without ever
    // materializing a dx or contribution matrix.
    let dx =
        |d: usize| Expr::leaf(&spreads[d]).zip(Expr::leaf(&st.pos[d]).bcast(1, n), 0, |s, x| s - x);
    let sq = |d: usize| dx(d).map(0, |v| v * v);
    let r2 = sq(0)
        .zip(sq(1), 0, |a, b| a + b)
        .zip(sq(2), 0, |a, b| a + b);
    let (eps, sigma) = (p.epsilon, p.sigma);
    let fmat = fuse::eval(ctx, &r2.map(0, move |v| lj_fac(v, eps, sigma)));
    // The diagonal pair (i,i) contributes lj_fac(0)·(±0.0) — a bitwise
    // no-op on the accumulator — so no self-term mask is needed and the
    // result matches the eager loop's explicit `i == j` skip exactly.
    let out = [0, 1, 2].map(|d| {
        let contrib = Expr::leaf(&fmat).zip(dx(d), 0, |f, v| f * v);
        let acc = fuse::fold_rows(ctx, &contrib, 0.0, |a, v| a - v);
        DistArray::from_vec(ctx, &[n], &[PAR], acc)
    });
    fmat.recycle(ctx);
    for s in spreads {
        s.recycle(ctx);
    }
    out
}

/// Run velocity-Verlet for `steps`; verification checks momentum (exact)
/// and energy (bounded drift). Each step carries its closing force
/// evaluation into the next, so under `--checkpoint-every K` the driven
/// state is the phase state plus those forces: a rollback restores the
/// forces together with the positions they were evaluated at.
pub fn run(ctx: &Ctx, p: &Params) -> Result<(State, Verify, RecoveryStats), DpfError> {
    let st = workload(ctx, p);
    let n = st.pos[0].len();
    let e0 = potential(p, &st) + kinetic(&st);
    let f = forces(ctx, p, &st);
    let mut state = (st, f);
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut state, p.steps, every, MAX_RESTORES, |(st, f), _| {
        for (d, fd) in f.iter().enumerate() {
            st.vel[d].zip_inplace(ctx, 2, fd, |v, a| *v += 0.5 * p.dt * a);
            let vd = st.vel[d].clone();
            st.pos[d].zip_inplace(ctx, 2, &vd, |x, v| *x += p.dt * v);
            // The "send" of the updated coordinate back to the home array.
            ctx.record_comm(CommPattern::Send, 1, 2, n as u64, 0);
        }
        *f = forces(ctx, p, st);
        for (d, fd) in f.iter().enumerate() {
            st.vel[d].zip_inplace(ctx, 2, fd, |v, a| *v += 0.5 * p.dt * a);
        }
        Step::Continue
    })?;
    let (st, _) = state;
    // Momentum: Σv must stay 0 (equal masses, zero initial momentum).
    let mom: f64 = st
        .vel
        .iter()
        .map(|v| v.as_slice().iter().sum::<f64>().abs())
        .fold(0.0, nan_max);
    let e1 = potential(p, &st) + kinetic(&st);
    let drift = ((e1 - e0) / nan_max(e0.abs(), 1.0)).abs();
    let metric = nan_max(mom, if drift < 0.05 { 0.0 } else { drift });
    let verify = Verify::check("md momentum + energy drift", metric, 1e-9);
    Ok((st, verify, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::Machine;

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn conserves_momentum_and_energy() {
        let ctx = ctx();
        let (_, v, _) = run(&ctx, &Params::default()).unwrap();
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn forces_are_antisymmetric() {
        let ctx = ctx();
        let p = Params::default();
        let st = workload(&ctx, &p);
        let f = forces(&ctx, &p, &st);
        for (d, fd) in f.iter().enumerate() {
            let tot: f64 = fd.as_slice().iter().sum();
            assert!(tot.abs() < 1e-10, "axis {d} total force {tot}");
        }
    }

    #[test]
    fn comm_per_force_eval_is_6spread_3reduction() {
        let ctx = ctx();
        let p = Params::default();
        let st = workload(&ctx, &p);
        let _ = forces(&ctx, &p, &st);
        // 3 genuine spreads + 3 recorded row-orientation spreads.
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Spread), 6);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 3);
    }

    #[test]
    fn checkpointed_run_matches_and_recovers() {
        use dpf_core::{FaultKind, FaultPlan};
        let p = Params {
            side: 2,
            steps: 6,
            ..Params::default()
        };
        // Fault-free: the checkpointed run is the unchecked one, FLOP for
        // FLOP and bit for bit.
        let ctx_a = ctx();
        let (sa, _, _) = run(&ctx_a, &p).unwrap();
        let ctx_b = Ctx::with_faults(
            Machine::cm5(4),
            FaultPlan::default().with_checkpoint_every(2),
        );
        let (sb, vb, stats) = run(&ctx_b, &p).unwrap();
        assert!(vb.is_pass() && stats.restores == 0);
        assert_eq!(ctx_a.instr.flops(), ctx_b.instr.flops());
        for d in 0..3 {
            assert_eq!(sa.pos[d].as_slice(), sb.pos[d].as_slice());
        }
        // NaN-poisoned spreads: the force matrix is corrupted, the state
        // goes non-finite, and the driver rolls back and replays.
        let plan = FaultPlan::new(0.05, 0x4D5FAA)
            .only(FaultKind::NanPoison)
            .with_checkpoint_every(1);
        let ctx = Ctx::with_faults(Machine::cm5(4), plan);
        let (_, v, stats) = run(&ctx, &p).unwrap();
        assert!(ctx.faults.injected() > 0);
        assert!(stats.restores > 0);
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn lattice_at_equilibrium_spacing_has_negative_potential() {
        let ctx = ctx();
        let p = Params::default();
        let st = workload(&ctx, &p);
        assert!(potential(&p, &st) < 0.0);
    }

    #[test]
    fn two_particles_attract_beyond_minimum() {
        // At r > 2^{1/6} σ the LJ force is attractive (factor < 0).
        assert!(lj_fac(1.5 * 1.5, 1.0, 1.0) < 0.0);
        // Below the minimum it is repulsive.
        assert!(lj_fac(0.9 * 0.9, 1.0, 1.0) > 0.0);
    }
}
