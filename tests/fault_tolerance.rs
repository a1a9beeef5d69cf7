//! Fault tolerance, end to end: deterministic injection, detection by
//! verification, checkpoint/restart recovery, and the guarded suite
//! sweep that the CI smoke job drives through `dpf all`.

use std::time::Duration;

use dpf::core::{derive_seed, Backend, Ctx, FaultKind, FaultPlan, Machine};
use dpf::suite::{run_guarded, run_suite, ProblemClass, RunOutcome, SuiteConfig, Version};

fn machine() -> Machine {
    Machine::cm5(8)
}

// ------------------------------------------------------------ determinism

#[test]
fn same_seed_gives_identical_fault_sites() {
    let entry = dpf::find("conj-grad").unwrap();
    let variant = entry.variant(Version::Basic).unwrap();
    let plan = FaultPlan::new(0.05, 42).only(FaultKind::NanPoison);
    let records = |plan: FaultPlan| {
        let ctx = Ctx::with_faults(machine(), plan);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (variant.run)(&ctx, ProblemClass::S)
        }));
        ctx.faults.records()
    };
    let a = records(plan.clone());
    let b = records(plan.clone());
    assert!(!a.is_empty(), "plan injected nothing");
    assert_eq!(a, b, "same seed must hit the same sites");
    // A different seed draws a different decision stream.
    let mut other = plan;
    other.seed = 43;
    assert_ne!(a, records(other));
}

#[test]
fn derive_seed_separates_benchmarks_and_attempts() {
    let base = derive_seed(42, "conj-grad", 0);
    assert_ne!(base, derive_seed(42, "conj-grad", 1));
    assert_ne!(base, derive_seed(42, "jacobi", 0));
    assert_ne!(base, derive_seed(7, "conj-grad", 0));
    assert_eq!(base, derive_seed(42, "conj-grad", 0));
}

#[test]
fn guarded_outcomes_are_deterministic_across_runs() {
    let entry = dpf::find("wave-1D").unwrap();
    let cfg = SuiteConfig {
        machine: machine(),
        faults: FaultPlan::new(0.02, 42),
        retries: 2,
        ..SuiteConfig::default()
    };
    let a = run_guarded(&entry, Version::Basic, &cfg);
    let b = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.faults_injected, b.faults_injected);
}

// -------------------------------------------------------------- detection

#[test]
fn injected_corruption_is_never_reported_as_pass() {
    // NaN poison must always be caught: either the kernel panics on it,
    // or it propagates into the residual and verification fails. With no
    // retry budget the guarded outcome can therefore never be a success.
    let entry = dpf::find("conj-grad").unwrap();
    for seed in [1u64, 2, 3, 4, 5] {
        let cfg = SuiteConfig {
            machine: machine(),
            faults: FaultPlan::new(0.5, seed).only(FaultKind::NanPoison),
            ..SuiteConfig::default()
        };
        let res = run_guarded(&entry, Version::Basic, &cfg);
        let injected_nothing = res.outcome == RunOutcome::Completed && res.faults_injected == 0;
        assert!(
            !res.outcome.is_success() || injected_nothing,
            "seed {seed}: corrupted run reported success: {}",
            res.outcome
        );
    }
}

#[test]
fn forced_abort_is_isolated_and_recovered_by_retry() {
    let entry = dpf::find("fft").unwrap();
    let mut cfg = SuiteConfig {
        machine: machine(),
        faults: FaultPlan::new(1.0, 9).only(FaultKind::Abort),
        ..SuiteConfig::default()
    };
    // No retries: the panic is caught, not propagated.
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert!(
        matches!(res.outcome, RunOutcome::Panicked(_)),
        "{}",
        res.outcome
    );
    // One retry: the final attempt runs fault-free and verifies.
    cfg.retries = 1;
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::Recovered { retries: 1 });
    assert!(res.result.unwrap().report.verify.is_pass());
}

#[test]
fn stalled_run_times_out_instead_of_hanging() {
    let entry = dpf::find("conj-grad").unwrap();
    let cfg = SuiteConfig {
        machine: machine(),
        faults: FaultPlan::new(1.0, 11)
            .only(FaultKind::Stall)
            .with_stall_ms(30_000),
        timeout: Duration::from_millis(200),
        ..SuiteConfig::default()
    };
    let start = std::time::Instant::now();
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::TimedOut);
    assert!(start.elapsed() < Duration::from_secs(10));
}

// ------------------------------------------------- checkpoint/restart

#[test]
fn checkpointed_kernel_survives_poison_within_one_run() {
    use dpf::apps::diff_1d;
    let plan = FaultPlan::new(0.02, 0xFA17)
        .only(FaultKind::NanPoison)
        .with_checkpoint_every(2);
    let ctx = Ctx::with_faults(machine(), plan);
    let p = diff_1d::Params::default();
    let (_, v, stats) = diff_1d::run(&ctx, &p).unwrap();
    assert!(ctx.faults.injected() > 0, "plan injected nothing");
    assert!(stats.restores > 0, "no rollback exercised");
    assert!(v.is_pass(), "{v}");
}

#[test]
fn suite_checkpointing_recovers_iterative_kernels() {
    // With --checkpoint-every the gated runners roll back inside a single
    // attempt instead of burning a retry: outcome stays Completed.
    let entry = dpf::find("diff-1D").unwrap();
    let mut plan = FaultPlan::new(0.02, 0xFA17).only(FaultKind::NanPoison);
    plan.checkpoint_every = 2;
    let cfg = SuiteConfig {
        machine: machine(),
        faults: plan,
        ..SuiteConfig::default()
    };
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::Completed, "{}", res.outcome);
    let result = res.result.unwrap();
    assert!(
        result.output.problem.contains("ck=2"),
        "{}",
        result.output.problem
    );
}

#[test]
fn checkpointing_is_transparent_without_faults() {
    // A fault-free run with --checkpoint-every 2 reports the §1.5
    // inventory of the unchecked run: one loop per kernel, so turning
    // snapshots on changes no FLOP, byte or call. Only the problem string
    // gains the cadence and restore count.
    const CHECKPOINT_AWARE: [&str; 7] = [
        "conj-grad",
        "jacobi",
        "diff-1D",
        "diff-2D",
        "diff-3D",
        "md",
        "wave-1D",
    ];
    for backend in [Backend::Virtual, Backend::Spmd] {
        for name in CHECKPOINT_AWARE {
            let entry = dpf::find(name).unwrap();
            let run = |every: usize| {
                let cfg = SuiteConfig {
                    machine: Machine::cm5(4),
                    faults: FaultPlan::default().with_checkpoint_every(every),
                    backend,
                    ..SuiteConfig::default()
                };
                let res = run_guarded(&entry, Version::Basic, &cfg);
                assert_eq!(res.outcome, RunOutcome::Completed, "{name} ck={every}");
                res.result.unwrap().report
            };
            let (plain, ck) = (run(0), run(2));
            let label = format!("{name} on {backend:?}");
            let problem = format!("{} (ck=2, restores=0)", plain.problem);
            assert_eq!(ck.problem, problem, "{label}");
            assert_eq!(ck.verify, plain.verify, "{label}");
            assert_eq!(ck.perf.flops, plain.perf.flops, "{label}: FLOPs");
            assert_eq!(ck.memory_bytes, plain.memory_bytes, "{label}: memory");
            assert_eq!(ck.comm, plain.comm, "{label}: per-pattern meters");
        }
    }
}

// ------------------------------------------------------- acceptance sweep

#[test]
fn full_sweep_under_faults_is_clean_and_deterministic() {
    // The ISSUE acceptance run: --faults 0.01 --fault-seed 42 --retries 2.
    // Every outcome must be Completed or Recovered (no aborts, no hangs)
    // and the whole outcome table must reproduce bit-for-bit.
    let cfg = SuiteConfig {
        machine: machine(),
        faults: FaultPlan::new(0.01, 42),
        retries: 2,
        ..SuiteConfig::default()
    };
    let sweep = |cfg: &SuiteConfig| {
        run_suite(cfg)
            .rows
            .iter()
            .map(|r| (r.name, r.outcome.clone()))
            .collect::<Vec<_>>()
    };
    let a = sweep(&cfg);
    assert_eq!(a.len(), dpf::registry().len());
    for (name, outcome) in &a {
        assert!(
            matches!(
                outcome,
                RunOutcome::Completed | RunOutcome::Recovered { .. }
            ),
            "{name}: {outcome}"
        );
    }
    let b = sweep(&cfg);
    assert_eq!(a, b, "outcome table must be deterministic");
}

// ------------------------------------------------------------ try_* twins

/// Every fallible `try_*` primitive keeps its exported panicking twin.
/// Naming both halves of each pair as fn items makes deleting either
/// one a build error. These 13 pairs are the tree's whole `try_*`
/// surface; a new `try_*` primitive joins the list by hand.
#[test]
fn every_try_primitive_keeps_its_panicking_twin() {
    use dpf::linalg::{gauss_jordan, lu};
    use dpf::{comm, fft};
    let _pairs = (
        (comm::gather::<f64>, comm::try_gather::<f64>),
        (comm::gather_nd::<f64>, comm::try_gather_nd::<f64>),
        (comm::scatter::<f64>, comm::try_scatter::<f64>),
        (
            comm::scatter_combine::<f64>,
            comm::try_scatter_combine::<f64>,
        ),
        (
            comm::scatter_nd_combine::<f64>,
            comm::try_scatter_nd_combine::<f64>,
        ),
        (comm::transpose::<f64>, comm::try_transpose::<f64>),
        (fft::fft, fft::try_fft),
        (fft::fft_row, fft::try_fft_row),
        (fft::fft_axis, fft::try_fft_axis),
        (fft::fft_axis_as, fft::try_fft_axis_as),
        (lu::lu_factor, lu::try_lu_factor),
        (lu::lu_factor_blocked, lu::try_lu_factor_blocked),
        (
            gauss_jordan::gauss_jordan_solve,
            gauss_jordan::try_gauss_jordan_solve,
        ),
    );
}
