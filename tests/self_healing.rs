//! Self-healing SPMD, end to end: a collective in which a worker is
//! killed mid-run is re-run from the replicas taken at its start, and the
//! healed run is bit-identical — results *and* §1.5 logical metrics — to
//! a clean one.
//! Corrupted replicas must fall back to harness restart (never wrong
//! answers), and the chaos soak must be a pure function of its seed.

use std::time::Duration;

use dpf::core::{Backend, Machine, RecoverMode};
use dpf::suite::{run_guarded, run_soak, RunOutcome, SoakConfig, SuiteConfig, Version};

fn spmd_cfg(nprocs: usize) -> SuiteConfig {
    SuiteConfig {
        machine: Machine::cm5(nprocs),
        backend: Backend::Spmd,
        timeout: Duration::from_secs(300),
        ..SuiteConfig::default()
    }
}

/// Everything about a completed run that must be fault-invariant: the
/// verification outcome, the output characterization, and the §1.5
/// logical metrics (FLOPs, memory, the whole comm-pattern table).
/// Wall-clock perf fields are deliberately excluded.
fn logical_fingerprint(res: &dpf::suite::GuardedResult) -> String {
    let r = res.result.as_ref().expect("run completed");
    format!(
        "verify={:?} problem={} points={} iters={} flops={} mem={} comm={:?}",
        r.output.verify,
        r.output.problem,
        r.output.points,
        r.output.iterations,
        r.report.perf.flops,
        r.report.memory_bytes,
        r.report.comm
    )
}

/// Run `name` clean and again with each `(rank, collective)` of `kills`
/// scheduled under in-run recovery; the healed run must report exactly
/// `(respawns, epochs_rewound)` and match the clean one.
fn healed_matches_clean(name: &str, nprocs: usize, kills: &[(usize, u64)], expect: (u64, u64)) {
    let entry = dpf::find(name).unwrap();
    let clean = run_guarded(&entry, Version::Basic, &spmd_cfg(nprocs));
    assert_eq!(clean.outcome, RunOutcome::Completed, "{name} clean run");

    let mut cfg = spmd_cfg(nprocs);
    cfg.faults.recover = RecoverMode::InRun;
    for &(rank, collective) in kills {
        cfg.faults = cfg.faults.with_kill_worker(rank, collective);
    }
    let healed = run_guarded(&entry, Version::Basic, &cfg);
    match healed.outcome {
        RunOutcome::Healed {
            respawns,
            epochs_rewound,
        } => assert_eq!(
            (respawns, epochs_rewound),
            expect,
            "{name}: (respawns, epochs rewound)"
        ),
        other => panic!("{name}: expected in-run heal, got {other}"),
    }
    assert_eq!(healed.attempts, 1, "{name}: healing is not a restart");
    assert_eq!(
        logical_fingerprint(&healed),
        logical_fingerprint(&clean),
        "{name}: healed run must be bit-identical to clean (results and §1.5 metrics)"
    );
}

#[test]
fn kill_mid_run_heals_bit_identically_small_procs() {
    healed_matches_clean("diff-1D", 4, &[(1, 2)], (1, 1));
}

#[test]
fn kill_mid_run_heals_bit_identically_64_worker_oversubscription() {
    healed_matches_clean("diff-1D", 64, &[(37, 3)], (1, 1));
}

/// Three deaths in two collectives: ranks 1 and 2 (a rank and the next
/// one) die together in collective 40 and are healed by one re-run, and
/// rank 3, which runs on the calling thread, dies in collective 41.
#[test]
fn several_kills_heal_with_one_rewind_per_collective() {
    healed_matches_clean("diff-1D", 4, &[(1, 40), (2, 40), (3, 41)], (3, 2));
}

/// A corrupted replica must never be restored: the CRC check turns the
/// heal into a typed `ReplicaCorrupt` abort, and the harness falls back
/// to checkpoint/restart — one retry, right answer, reported as
/// `recovered` (restart), not `healed` (in-run).
#[test]
fn corrupt_replica_falls_back_to_harness_restart() {
    let entry = dpf::find("diff-1D").unwrap();
    let mut cfg = spmd_cfg(4);
    cfg.retries = 2;
    cfg.faults = cfg
        .faults
        .with_kill_worker(1, 2)
        .with_recover(RecoverMode::InRun)
        .with_replica_corrupt();
    let res = run_guarded(&entry, Version::Basic, &cfg);
    match res.outcome {
        RunOutcome::Recovered { retries } => assert!(retries >= 1),
        other => panic!("expected restart fallback, got {other}"),
    }
    let r = res.result.as_ref().expect("fallback attempt completed");
    assert!(
        r.output.verify.is_pass(),
        "never a wrong answer: {:?}",
        r.output.verify
    );
}

/// Under `--recover off` a worker death is terminal: no in-run heal,
/// and the harness refuses to burn retries on it.
#[test]
fn recover_off_makes_worker_death_terminal() {
    let entry = dpf::find("diff-1D").unwrap();
    let mut cfg = spmd_cfg(4);
    cfg.retries = 3;
    cfg.faults = cfg
        .faults
        .with_kill_worker(1, 2)
        .with_recover(RecoverMode::Off);
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert!(
        matches!(res.outcome, RunOutcome::Panicked { .. }),
        "got {}",
        res.outcome
    );
    assert_eq!(res.attempts, 1, "terminal failure must not retry");
}

/// The soak summary is a pure function of its configuration: same seed
/// twice → byte-identical text; a different seed draws different kill
/// schedules.
#[test]
fn soak_summary_is_byte_identical_for_the_same_seed() {
    let mut base = spmd_cfg(4);
    base.faults.recover = RecoverMode::InRun;
    let cfg = SoakConfig {
        base,
        iterations: 1,
        kill_rate: 0.2,
        seed: 7,
    };
    let a = run_soak(&cfg);
    let b = run_soak(&cfg);
    assert_eq!(a.summary(), b.summary(), "same seed must replay exactly");
    assert_eq!(a.failures(), 0, "soak under in-run recovery must be clean");
    assert!(
        a.healed() >= 1,
        "rate 0.2 over 32 benchmarks must heal once"
    );
    let mut other = cfg.clone();
    other.seed = 8;
    assert_ne!(run_soak(&other).summary(), a.summary(), "seed must matter");
}
