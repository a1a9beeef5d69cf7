//! The run harness: wraps a registry entry's runner with a fresh context,
//! end-to-end timing, and the §1.5 report assembly.
//!
//! The fault-tolerant layer ([`run_guarded`], [`run_suite`]) isolates each
//! benchmark on a watchdog-monitored worker thread: panics are caught and
//! reported instead of aborting the sweep, wall-clock timeouts abandon the
//! worker, and failed attempts are retried (each with its own derived
//! fault seed, the final attempt fault-free) up to a bounded budget. Every
//! run ends in a [`RunOutcome`] recorded in the [`SuiteReport`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpf_core::{
    derive_seed, install_quiet_panic_hook, payload_str, set_quiet_panics, Backend, BenchReport,
    BufferPool, Ctx, DpfError, FaultPlan, Machine, ProblemClass, RecoverMode,
};

use crate::benchmark::{BenchEntry, RunOutput, Size, Version};
use crate::schema::Json;

/// Result of one harnessed run: the full metric report plus the runner's
/// own output.
pub struct HarnessResult {
    /// The §1.5 metric report.
    pub report: BenchReport,
    /// The runner's output (problem string, verification, points).
    pub output: RunOutput,
}

impl HarnessResult {
    /// Operation count per data point (paper §1.5, attribute 5).
    pub fn flops_per_point(&self) -> f64 {
        self.report.flops_per_point(self.output.points)
    }

    /// Communication calls per main-loop iteration (attribute 6).
    pub fn comm_per_iteration(&self) -> f64 {
        if self.output.iterations == 0 {
            return 0.0;
        }
        self.report.comm_calls() as f64 / self.output.iterations as f64
    }
}

/// Run one version of one benchmark on the given machine and problem
/// class under the default (virtual) backend.
pub fn run(
    entry: &BenchEntry,
    version: Version,
    machine: &Machine,
    class: ProblemClass,
) -> HarnessResult {
    run_on(entry, version, machine, class, Backend::Virtual)
}

/// Run one version of one benchmark on the given machine, problem class
/// and execution backend.
pub fn run_on(
    entry: &BenchEntry,
    version: Version,
    machine: &Machine,
    class: ProblemClass,
    backend: Backend,
) -> HarnessResult {
    let variant = entry
        .variant(version)
        .unwrap_or_else(|| panic!("{} has no {} variant", entry.name, version));
    let ctx = Ctx::with_backend(machine.clone(), backend);
    let start = Instant::now();
    let output = (variant.run)(&ctx, class);
    let elapsed = start.elapsed();
    let report = BenchReport::from_ctx(
        entry.name,
        version.name(),
        output.problem.clone(),
        &ctx,
        elapsed,
        output.verify.clone(),
    );
    HarnessResult { report, output }
}

/// Run the basic version.
pub fn run_basic(entry: &BenchEntry, machine: &Machine, class: ProblemClass) -> HarnessResult {
    run(entry, Version::Basic, machine, class)
}

// ------------------------------------------------- fault-tolerant harness

/// How one guarded benchmark run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// First attempt ran to completion and verified.
    Completed,
    /// Every attempt completed but verification failed.
    VerifyFailed,
    /// Every attempt panicked; holds the last panic message.
    Panicked(String),
    /// Every attempt died with an exhausted link retry budget
    /// ([`DpfError::LinkFailure`]); holds the last failure message.
    LinkFailed(String),
    /// Every attempt exceeded the wall-clock budget.
    TimedOut,
    /// The first attempt completed, but only because the SPMD backend
    /// healed worker deaths *inside* the run (`--recover in-run`): each
    /// collective a worker died in was restored from its replicas and
    /// run again, without restarting the benchmark. Distinct from
    /// [`RunOutcome::Recovered`], which is harness-level restart.
    Healed {
        /// Worker respawns performed across the run.
        respawns: u64,
        /// Collectives rewound to their start and re-run.
        epochs_rewound: u64,
    },
    /// A later attempt succeeded after `retries` failed ones — the
    /// harness restarted the whole benchmark (as opposed to
    /// [`RunOutcome::Healed`], which recovers without a restart).
    Recovered {
        /// Failed attempts before the one that succeeded.
        retries: u32,
    },
    /// Skipped: the benchmark is on the quarantine list.
    Quarantined,
    /// The run never started because it was misconfigured (e.g. the
    /// requested variant does not exist). Distinct from the runtime
    /// failure classes above: the CLI maps config errors to exit code 2
    /// (usage/config) rather than 1 (benchmark failure).
    ConfigError(String),
    /// The run was cancelled by a shutdown request (SIGINT/SIGTERM)
    /// before it could finish — or before it could start. Not a
    /// benchmark failure and not a success: the row simply was not
    /// measured, and a resumed campaign will run it for real. The CLI
    /// maps an interrupted sweep to the dedicated exit code 130.
    Interrupted,
    /// The run was cancelled because its tenant exceeded its wall-clock
    /// deadline (`--deadline-secs` / spec `deadline_secs`). Unlike
    /// [`RunOutcome::Interrupted`] this is a definitive per-row verdict
    /// — the straggler was measured as "too slow" — so it is journaled
    /// and counted as a runtime failure.
    DeadlineExceeded,
}

impl RunOutcome {
    /// True when the run produced a verified result (or was deliberately
    /// skipped) — the suite exit code counts everything else as a failure.
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            RunOutcome::Completed
                | RunOutcome::Healed { .. }
                | RunOutcome::Recovered { .. }
                | RunOutcome::Quarantined
        )
    }

    /// The outcome as a tagged JSON object (`{"kind": ..., ...}`). In-run
    /// healing and harness-level restart stay distinct kinds so
    /// downstream tooling never conflates the two recovery paths.
    pub fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind".to_string(), Json::str(k));
        Json::Obj(match self {
            RunOutcome::Completed => vec![kind("completed")],
            RunOutcome::VerifyFailed => vec![kind("verify-failed")],
            RunOutcome::Panicked(msg) => {
                vec![kind("panicked"), ("message".to_string(), Json::str(msg))]
            }
            RunOutcome::LinkFailed(msg) => {
                vec![
                    kind("link-failure"),
                    ("message".to_string(), Json::str(msg)),
                ]
            }
            RunOutcome::TimedOut => vec![kind("timed-out")],
            RunOutcome::Healed {
                respawns,
                epochs_rewound,
            } => vec![
                kind("healed"),
                ("respawns".to_string(), Json::U64(*respawns)),
                ("epochs_rewound".to_string(), Json::U64(*epochs_rewound)),
            ],
            RunOutcome::Recovered { retries } => vec![
                kind("recovered"),
                ("retries".to_string(), Json::U64(*retries as u64)),
            ],
            RunOutcome::Quarantined => vec![kind("quarantined")],
            RunOutcome::ConfigError(msg) => {
                vec![
                    kind("config-error"),
                    ("message".to_string(), Json::str(msg)),
                ]
            }
            RunOutcome::Interrupted => vec![kind("interrupted")],
            RunOutcome::DeadlineExceeded => vec![kind("deadline-exceeded")],
        })
    }

    /// Inverse of [`RunOutcome::to_json`].
    pub fn from_json(value: &Json) -> Result<RunOutcome, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("outcome object has no \"kind\"")?;
        let msg = || {
            value
                .get("message")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("outcome kind {kind:?} has no \"message\""))
        };
        let count = |field: &str| {
            value
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("outcome kind {kind:?} has no {field:?}"))
        };
        Ok(match kind {
            "completed" => RunOutcome::Completed,
            "verify-failed" => RunOutcome::VerifyFailed,
            "panicked" => RunOutcome::Panicked(msg()?),
            "link-failure" => RunOutcome::LinkFailed(msg()?),
            "timed-out" => RunOutcome::TimedOut,
            "healed" => RunOutcome::Healed {
                respawns: count("respawns")?,
                epochs_rewound: count("epochs_rewound")?,
            },
            "recovered" => RunOutcome::Recovered {
                retries: count("retries")? as u32,
            },
            "quarantined" => RunOutcome::Quarantined,
            "config-error" => RunOutcome::ConfigError(msg()?),
            "interrupted" => RunOutcome::Interrupted,
            "deadline-exceeded" => RunOutcome::DeadlineExceeded,
            other => return Err(format!("unknown outcome kind {other:?}")),
        })
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::VerifyFailed => f.write_str("verify-failed"),
            RunOutcome::Panicked(msg) => write!(f, "panicked: {msg}"),
            RunOutcome::LinkFailed(msg) => write!(f, "link-failure: {msg}"),
            RunOutcome::TimedOut => f.write_str("timed-out"),
            RunOutcome::Healed {
                respawns,
                epochs_rewound,
            } => write!(f, "healed({respawns}/{epochs_rewound})"),
            RunOutcome::Recovered { retries } => write!(f, "recovered({retries})"),
            RunOutcome::Quarantined => f.write_str("quarantined"),
            RunOutcome::ConfigError(msg) => write!(f, "config-error: {msg}"),
            RunOutcome::Interrupted => f.write_str("interrupted"),
            RunOutcome::DeadlineExceeded => f.write_str("deadline-exceeded"),
        }
    }
}

// ------------------------------------------------ cooperative cancellation

/// Why a cancelled run stopped: an operator shutdown request or a
/// per-tenant wall-clock deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cancelled {
    /// A shutdown flag (SIGINT/SIGTERM) was raised.
    Interrupt,
    /// The token's deadline passed.
    Deadline,
}

impl Cancelled {
    /// The row outcome this cancellation class records.
    pub fn outcome(self) -> RunOutcome {
        match self {
            Cancelled::Interrupt => RunOutcome::Interrupted,
            Cancelled::Deadline => RunOutcome::DeadlineExceeded,
        }
    }
}

/// A cooperative cancellation handle. The watchdog polls it between
/// 50 ms receive slices and [`run_guarded`] checks it before every
/// attempt; neither ever kills a thread — workers are asked (drained
/// within a grace period on interrupt) or abandoned (deadline), exactly
/// like the existing timeout path.
///
/// The default token never cancels, so every pre-existing call site
/// keeps its behavior.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token observing a shared shutdown flag (e.g. the one the
    /// signal handler flips).
    pub fn watching(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken {
            flag: Some(flag),
            deadline: None,
        }
    }

    /// This token with a wall-clock deadline `budget` from now. Used
    /// per tenant: the deadline starts when the tenant starts.
    pub fn with_deadline(mut self, budget: Duration) -> CancelToken {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Has cancellation been requested? An interrupt dominates a
    /// deadline: operator shutdown is reported as such even if the
    /// tenant's clock also ran out.
    pub fn check(&self) -> Option<Cancelled> {
        if self
            .flag
            .as_deref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            return Some(Cancelled::Interrupt);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Cancelled::Deadline);
        }
        None
    }
}

/// Configuration of a guarded run / suite sweep.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Virtual machine to run on.
    pub machine: Machine,
    /// Problem class every run solves.
    pub size: Size,
    /// Fault-injection plan (rate 0 = no injection). The seed is the
    /// *base* seed: every benchmark and every retry attempt derives its
    /// own decision stream from it, so a sweep is reproducible while no
    /// two runs share fault sites.
    pub faults: FaultPlan,
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Retry budget after a failed attempt (0 = single attempt). When
    /// faults are active the final attempt runs fault-free, so a sweep
    /// can always terminate with a clean answer.
    pub retries: u32,
    /// Benchmarks to skip entirely (recorded as [`RunOutcome::Quarantined`]).
    pub quarantine: Vec<String>,
    /// Execution backend every run's context is built with.
    pub backend: Backend,
    /// Buffer pool the runs' contexts share (`None` = a private pool per
    /// attempt). Campaign tenants pass one budgeted pool here; sharing is
    /// metric-invisible (see [`Ctx::build_shared`]).
    pub pool: Option<Arc<BufferPool>>,
    /// Cooperative cancellation handle (default: never cancels).
    /// Checked before each attempt and at 50 ms watchdog checkpoints;
    /// cancelled runs record [`RunOutcome::Interrupted`] or
    /// [`RunOutcome::DeadlineExceeded`].
    pub cancel: CancelToken,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            machine: Machine::cm5(32),
            size: Size::Class(ProblemClass::S),
            faults: FaultPlan::default(),
            timeout: Duration::from_secs(300),
            retries: 0,
            quarantine: Vec::new(),
            backend: Backend::Virtual,
            pool: None,
            cancel: CancelToken::default(),
        }
    }
}

/// Outcome of [`run_guarded`]: how the run ended, plus the full harness
/// result when an attempt ran to completion (also kept for
/// `VerifyFailed`, so the report still shows the failing metric).
pub struct GuardedResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The completed attempt's report, if any attempt completed.
    pub result: Option<HarnessResult>,
    /// Attempts actually launched.
    pub attempts: u32,
    /// Faults injected during the successful attempt (0 when none fired).
    pub faults_injected: u64,
}

/// A completed attempt's payload: the result plus the fault and in-run
/// recovery accounting read from the attempt's own context.
struct AttemptDone {
    result: Box<HarnessResult>,
    injected: u64,
    respawns: u64,
    epochs_rewound: u64,
}

enum Attempt {
    Done(AttemptDone),
    Panicked(String),
    LinkFailed(String),
    TimedOut,
    Cancelled(Cancelled),
}

/// True when a failure message describes an SPMD worker death (an
/// injected kill or the typed peer-death echo). Under `--recover off`
/// these are terminal: the harness does not retry them.
fn is_worker_death(msg: &str) -> bool {
    msg.contains("killed at collective") || msg.contains("died mid-collective")
}

/// Owned inputs for one watchdog attempt, so the worker thread borrows
/// nothing from the sweep.
struct AttemptSpec {
    machine: Machine,
    class: ProblemClass,
    plan: FaultPlan,
    timeout: Duration,
    backend: Backend,
    pool: Option<Arc<BufferPool>>,
    cancel: CancelToken,
}

/// One attempt on a watchdog-monitored worker thread. The runner is a
/// plain `fn` pointer and every input is owned, so the worker is fully
/// detachable: on timeout the thread is abandoned (it parks on a closed
/// channel when it eventually finishes) rather than blocking the sweep.
fn run_attempt(
    name: &'static str,
    version: Version,
    runner: fn(&Ctx, ProblemClass) -> RunOutput,
    spec: AttemptSpec,
) -> Attempt {
    install_quiet_panic_hook();
    let timeout = spec.timeout;
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("dpf-worker-{name}"))
        .spawn(move || {
            set_quiet_panics(true);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let ctx = match spec.pool {
                    Some(pool) => {
                        Ctx::build_shared(spec.machine, Some(spec.plan), spec.backend, pool)
                    }
                    None => Ctx::build(spec.machine, Some(spec.plan), spec.backend),
                };
                let start = Instant::now();
                let output = runner(&ctx, spec.class);
                let elapsed = start.elapsed();
                let injected = ctx.faults.injected() as u64;
                let respawns = ctx.link.respawns();
                let epochs_rewound = ctx.link.epochs_rewound();
                let report = BenchReport::from_ctx(
                    name,
                    version.name(),
                    output.problem.clone(),
                    &ctx,
                    elapsed,
                    output.verify.clone(),
                );
                AttemptDone {
                    result: Box::new(HarnessResult { report, output }),
                    injected,
                    respawns,
                    epochs_rewound,
                }
            }));
            let _ = tx.send(outcome.map_err(|payload| {
                let link_failed = payload
                    .downcast_ref::<DpfError>()
                    .is_some_and(|e| matches!(e, DpfError::LinkFailure { .. }));
                (payload_str(payload.as_ref()), link_failed)
            }));
        })
        .expect("spawn harness worker");
    // The watchdog waits in 50 ms slices so a shutdown request or a
    // tenant deadline is noticed promptly even under a long per-attempt
    // timeout. A finished worker is returned the moment its message
    // lands; nothing about the non-cancelled path's outcome changes.
    const CHECKPOINT: Duration = Duration::from_millis(50);
    // How long an interrupt waits for the in-flight attempt to finish
    // on its own before abandoning it. Deadlines get no grace: the
    // straggler already used its whole budget.
    const INTERRUPT_GRACE: Duration = Duration::from_millis(1500);
    let start = Instant::now();
    loop {
        let waited = start.elapsed();
        let slice = match spec.cancel.check() {
            Some(Cancelled::Deadline) => return Attempt::Cancelled(Cancelled::Deadline),
            Some(Cancelled::Interrupt) => {
                // Grace drain: give the worker one last bounded window.
                match rx.recv_timeout(INTERRUPT_GRACE) {
                    Ok(outcome) => return finish_attempt(worker, outcome),
                    Err(_) => return Attempt::Cancelled(Cancelled::Interrupt),
                }
            }
            None => {
                if waited >= timeout {
                    return Attempt::TimedOut;
                }
                CHECKPOINT.min(timeout - waited)
            }
        };
        match rx.recv_timeout(slice) {
            Ok(outcome) => return finish_attempt(worker, outcome),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return Attempt::TimedOut,
        }
    }
}

/// Join a finished worker and classify its message.
fn finish_attempt(
    worker: std::thread::JoinHandle<()>,
    outcome: Result<AttemptDone, (String, bool)>,
) -> Attempt {
    let _ = worker.join();
    match outcome {
        Ok(done) => Attempt::Done(done),
        Err((msg, true)) => Attempt::LinkFailed(msg),
        Err((msg, false)) => Attempt::Panicked(msg),
    }
}

/// Run one benchmark under the fault-tolerant harness: panic isolation,
/// wall-clock timeout, bounded retries with a short backoff. Attempt `k`
/// derives its fault seed as `derive_seed(base, name, k)`; when faults
/// are active and a retry budget exists, the final attempt runs
/// fault-free so the sweep always terminates with a definitive outcome.
pub fn run_guarded(entry: &BenchEntry, version: Version, cfg: &SuiteConfig) -> GuardedResult {
    // A missing variant is a configuration error, not a benchmark
    // failure: report it as such instead of panicking (the unguarded
    // [`run`] still panics, for callers that want the hard stop).
    let Some(variant) = entry.variant(version) else {
        return GuardedResult {
            outcome: RunOutcome::ConfigError(format!("{} has no {} variant", entry.name, version)),
            result: None,
            attempts: 0,
            faults_injected: 0,
        };
    };
    let name = entry.name;
    let runner = variant.run;
    let Size::Class(class) = cfg.size;
    let mut last_failure = RunOutcome::TimedOut;
    let mut verify_failed: Option<Box<HarnessResult>> = None;
    let mut launched = 0;
    for attempt in 0..=cfg.retries {
        // Cancellation wins over retries: once a shutdown or deadline
        // fires, no further attempt launches and the row records the
        // cancellation class (attempt 0: the run never started at all).
        if let Some(cancelled) = cfg.cancel.check() {
            return GuardedResult {
                outcome: cancelled.outcome(),
                result: None,
                attempts: launched,
                faults_injected: 0,
            };
        }
        if attempt > 0 {
            // Short linear backoff between attempts.
            std::thread::sleep(Duration::from_millis(10 * attempt as u64));
        }
        let mut plan = cfg.faults.clone();
        if plan.any_active() {
            plan.seed = derive_seed(cfg.faults.seed, name, attempt as u64);
            if attempt == cfg.retries && cfg.retries > 0 {
                // Last chance: no injection (data, link or kill faults),
                // so a healthy kernel always has a fault-free attempt to
                // finish on.
                plan.disarm();
            }
        }
        let spec = AttemptSpec {
            machine: cfg.machine.clone(),
            class,
            plan,
            timeout: cfg.timeout,
            backend: cfg.backend,
            pool: cfg.pool.clone(),
            cancel: cfg.cancel.clone(),
        };
        launched = attempt + 1;
        match run_attempt(name, version, runner, spec) {
            Attempt::Done(done) => {
                if done.result.report.verify.is_pass() {
                    return GuardedResult {
                        outcome: if attempt > 0 {
                            RunOutcome::Recovered { retries: attempt }
                        } else if done.respawns > 0 {
                            RunOutcome::Healed {
                                respawns: done.respawns,
                                epochs_rewound: done.epochs_rewound,
                            }
                        } else {
                            RunOutcome::Completed
                        },
                        result: Some(*done.result),
                        attempts: attempt + 1,
                        faults_injected: done.injected,
                    };
                }
                last_failure = RunOutcome::VerifyFailed;
                verify_failed = Some(done.result);
            }
            Attempt::Panicked(msg) => {
                let terminal = cfg.faults.recover == RecoverMode::Off && is_worker_death(&msg);
                last_failure = RunOutcome::Panicked(msg);
                if terminal {
                    // `--recover off`: a worker death is final — no
                    // harness restart, no in-run healing.
                    break;
                }
            }
            Attempt::LinkFailed(msg) => last_failure = RunOutcome::LinkFailed(msg),
            Attempt::TimedOut => last_failure = RunOutcome::TimedOut,
            Attempt::Cancelled(cancelled) => {
                // No retry can follow a cancellation; the in-flight
                // attempt's partial work is discarded unrecorded.
                last_failure = cancelled.outcome();
                break;
            }
        }
    }
    GuardedResult {
        outcome: last_failure,
        result: verify_failed.map(|b| *b),
        attempts: launched,
        faults_injected: 0,
    }
}

/// One row of a [`SuiteReport`].
pub struct SuiteRow {
    /// Benchmark name.
    pub name: &'static str,
    /// How the guarded run ended.
    pub outcome: RunOutcome,
    /// The completed attempt's report, when one exists.
    pub result: Option<HarnessResult>,
}

/// The outcome table of a whole guarded sweep.
pub struct SuiteReport {
    /// One row per registry benchmark, in registry order.
    pub rows: Vec<SuiteRow>,
    /// Configuration errors that do not correspond to any registry row
    /// (e.g. unknown benchmark names in the quarantine list).
    pub setup_errors: Vec<DpfError>,
}

impl SuiteReport {
    /// Rows whose outcome counts as a *runtime* failure. Config errors
    /// are counted separately by [`SuiteReport::config_errors`], and
    /// interrupted rows by [`SuiteReport::interrupted`] — a run that was
    /// never measured is neither pass nor fail.
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                !r.outcome.is_success()
                    && !matches!(
                        r.outcome,
                        RunOutcome::ConfigError(_) | RunOutcome::Interrupted
                    )
            })
            .count()
    }

    /// Rows cancelled by an operator shutdown request. Nonzero means
    /// the sweep is partial; the CLI reports exit code 130.
    pub fn interrupted(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::Interrupted))
            .count()
    }

    /// Configuration errors across the sweep: per-row
    /// [`RunOutcome::ConfigError`] outcomes plus setup errors that never
    /// mapped to a row (unknown quarantine names). The CLI turns a
    /// nonzero count into exit code 2.
    pub fn config_errors(&self) -> usize {
        self.setup_errors.len()
            + self
                .rows
                .iter()
                .filter(|r| matches!(r.outcome, RunOutcome::ConfigError(_)))
                .count()
    }

    /// Render the sweep summary: one line per benchmark with its verify
    /// state and outcome, then a failure count.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>12}  problem",
            "benchmark", "verify", "outcome"
        );
        for row in &self.rows {
            let (verify, problem) = match &row.result {
                Some(res) => (
                    if res.report.verify.is_pass() {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                    res.output.problem.as_str(),
                ),
                None => ("-", ""),
            };
            let _ = writeln!(
                s,
                "{:<20} {:>8} {:>12}  {}",
                row.name, verify, row.outcome, problem
            );
        }
        for err in &self.setup_errors {
            let _ = writeln!(s, "{err}");
        }
        let _ = writeln!(
            s,
            "{} benchmarks, {} failed",
            self.rows.len(),
            self.failures()
        );
        if self.config_errors() > 0 {
            let _ = writeln!(s, "{} config error(s)", self.config_errors());
        }
        if self.interrupted() > 0 {
            let _ = writeln!(s, "{} interrupted (partial sweep)", self.interrupted());
        }
        s
    }

    /// The sweep as a JSON tree on the shared [`schema`](crate::schema)
    /// model (one row per benchmark with its verify state, tagged
    /// [`RunOutcome`] object and problem string, then the counts).
    pub fn to_json(&self) -> Json {
        let benchmarks = self
            .rows
            .iter()
            .map(|row| {
                let (verify, problem) = match &row.result {
                    Some(res) => (
                        Json::str(if res.report.verify.is_pass() {
                            "pass"
                        } else {
                            "fail"
                        }),
                        res.output.problem.clone(),
                    ),
                    None => (Json::Null, String::new()),
                };
                Json::Obj(vec![
                    ("name".to_string(), Json::str(row.name)),
                    ("verify".to_string(), verify),
                    ("outcome".to_string(), row.outcome.to_json()),
                    ("problem".to_string(), Json::str(problem)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("benchmarks".to_string(), Json::Arr(benchmarks)),
            ("total".to_string(), Json::U64(self.rows.len() as u64)),
            ("failed".to_string(), Json::U64(self.failures() as u64)),
            (
                "config_errors".to_string(),
                Json::U64(self.config_errors() as u64),
            ),
        ];
        // Only partial sweeps carry the field, so a clean sweep's JSON
        // is byte-identical to what it was before interrupts existed.
        if self.interrupted() > 0 {
            fields.push((
                "interrupted".to_string(),
                Json::U64(self.interrupted() as u64),
            ));
        }
        Json::Obj(fields)
    }

    /// [`SuiteReport::to_json`] rendered through the shared schema
    /// renderer, so the suite report and the campaign tables can never
    /// drift apart in escaping or number formatting.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

/// Run the whole registry (basic versions) under the fault-tolerant
/// harness. The sweep never aborts on a single benchmark: every panic,
/// timeout or verification failure is recorded as that row's outcome.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    // Quarantine names that match no registry entry would otherwise be
    // silently ignored — a misspelled quarantine would quietly run the
    // benchmark it meant to skip. Surface them as typed config errors.
    let setup_errors = cfg
        .quarantine
        .iter()
        .filter(|q| crate::registry::find(q.as_str()).is_none())
        .map(|q| DpfError::Config {
            what: format!("unknown benchmark {q:?} in quarantine list"),
        })
        .collect();
    let rows = crate::registry::registry()
        .iter()
        .map(|entry| {
            if cfg.quarantine.iter().any(|q| q == entry.name) {
                return SuiteRow {
                    name: entry.name,
                    outcome: RunOutcome::Quarantined,
                    result: None,
                };
            }
            let guarded = run_guarded(entry, Version::Basic, cfg);
            SuiteRow {
                name: entry.name,
                outcome: guarded.outcome,
                result: guarded.result,
            }
        })
        .collect();
    SuiteReport { rows, setup_errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn harness_produces_complete_reports() {
        let entry = registry::find("conj-grad").unwrap();
        let res = run_basic(&entry, &Machine::cm5(8), ProblemClass::S);
        assert!(res.report.verify.is_pass());
        assert!(res.report.perf.flops > 0);
        assert!(res.report.perf.elapsed.as_nanos() > 0);
        assert!(res.report.perf.busy <= res.report.perf.elapsed);
        assert!(res.report.memory_bytes > 0);
        assert!(!res.report.comm.is_empty());
        assert!(res.flops_per_point() > 0.0);
    }

    #[test]
    fn busy_time_is_within_elapsed() {
        for name in ["fft", "ellip-2D", "step4"] {
            let entry = registry::find(name).unwrap();
            let res = run_basic(&entry, &Machine::cm5(4), ProblemClass::S);
            assert!(
                res.report.perf.busy <= res.report.perf.elapsed,
                "{name}: busy {:?} > elapsed {:?}",
                res.report.perf.busy,
                res.report.perf.elapsed
            );
        }
    }

    #[test]
    #[should_panic(expected = "has no")]
    fn missing_variant_panics() {
        let entry = registry::find("boson").unwrap();
        let _ = run(&entry, Version::CDpeac, &Machine::cm5(4), ProblemClass::S);
    }

    fn small_cfg() -> SuiteConfig {
        SuiteConfig {
            machine: Machine::cm5(8),
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn guarded_clean_run_completes() {
        let entry = registry::find("conj-grad").unwrap();
        let res = run_guarded(&entry, Version::Basic, &small_cfg());
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert_eq!(res.attempts, 1);
        assert_eq!(res.faults_injected, 0);
        assert!(res.result.unwrap().report.verify.is_pass());
    }

    #[test]
    fn guarded_isolates_injected_abort() {
        use dpf_core::FaultKind;
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan::new(1.0, 7).only(FaultKind::Abort);
        let res = run_guarded(&entry, Version::Basic, &cfg);
        match &res.outcome {
            RunOutcome::Panicked(msg) => {
                assert!(msg.contains("injected fault: forced abort"), "{msg}")
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert!(!res.outcome.is_success());
        assert!(res.result.is_none());
    }

    #[test]
    fn guarded_recovers_on_fault_free_final_attempt() {
        use dpf_core::FaultKind;
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan::new(1.0, 7).only(FaultKind::Abort);
        cfg.retries = 1;
        let res = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(res.outcome, RunOutcome::Recovered { retries: 1 });
        assert_eq!(res.attempts, 2);
        assert!(res.result.unwrap().report.verify.is_pass());
    }

    #[test]
    fn guarded_times_out_on_stall() {
        use dpf_core::FaultKind;
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan::new(1.0, 7)
            .only(FaultKind::Stall)
            .with_stall_ms(10_000);
        cfg.timeout = Duration::from_millis(100);
        let res = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(res.outcome, RunOutcome::TimedOut);
        assert!(!res.outcome.is_success());
    }

    #[test]
    fn guarded_outcome_is_deterministic() {
        use dpf_core::FaultKind;
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan::new(0.05, 42).only(FaultKind::NanPoison);
        cfg.retries = 2;
        let a = run_guarded(&entry, Version::Basic, &cfg);
        let b = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.faults_injected, b.faults_injected);
    }

    #[test]
    fn guarded_missing_variant_is_config_error() {
        let entry = registry::find("boson").unwrap();
        let res = run_guarded(&entry, Version::CDpeac, &small_cfg());
        match &res.outcome {
            RunOutcome::ConfigError(msg) => assert!(msg.contains("has no"), "{msg}"),
            other => panic!("expected ConfigError, got {other}"),
        }
        assert!(!res.outcome.is_success());
        assert_eq!(res.attempts, 0);
        assert!(res.result.is_none());
    }

    #[test]
    fn suite_flags_unknown_quarantine_names() {
        let mut cfg = small_cfg();
        cfg.quarantine = registry::registry()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        cfg.quarantine.push("no-such-benchmark".to_string());
        let report = run_suite(&cfg);
        assert_eq!(report.config_errors(), 1);
        // A config error is not a runtime failure: the failure count
        // (and its exit-code class) stays clean.
        assert_eq!(report.failures(), 0);
        let summary = report.summary();
        assert!(summary.contains("unknown benchmark \"no-such-benchmark\""));
        assert!(summary.contains("1 config error(s)"));
    }

    #[test]
    fn preset_interrupt_cancels_before_any_attempt() {
        let entry = registry::find("conj-grad").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let mut cfg = small_cfg();
        cfg.cancel = CancelToken::watching(flag);
        let res = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(res.outcome, RunOutcome::Interrupted);
        assert_eq!(res.attempts, 0);
        assert!(res.result.is_none());
        assert!(!res.outcome.is_success());
    }

    #[test]
    fn expired_deadline_cancels_into_deadline_exceeded() {
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.cancel = CancelToken::default().with_deadline(Duration::ZERO);
        let res = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(res.outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(res.attempts, 0);
    }

    #[test]
    fn deadline_cancels_a_stalled_attempt_promptly() {
        use dpf_core::FaultKind;
        let entry = registry::find("conj-grad").unwrap();
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan::new(1.0, 7)
            .only(FaultKind::Stall)
            .with_stall_ms(10_000);
        cfg.timeout = Duration::from_secs(60);
        cfg.cancel = CancelToken::default().with_deadline(Duration::from_millis(100));
        let start = Instant::now();
        let res = run_guarded(&entry, Version::Basic, &cfg);
        assert_eq!(res.outcome, RunOutcome::DeadlineExceeded);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline must beat the 60 s timeout"
        );
    }

    #[test]
    fn interrupted_rows_are_partial_not_failed() {
        let report = SuiteReport {
            rows: vec![
                SuiteRow {
                    name: "a",
                    outcome: RunOutcome::Completed,
                    result: None,
                },
                SuiteRow {
                    name: "b",
                    outcome: RunOutcome::Interrupted,
                    result: None,
                },
                SuiteRow {
                    name: "c",
                    outcome: RunOutcome::DeadlineExceeded,
                    result: None,
                },
            ],
            setup_errors: Vec::new(),
        };
        assert_eq!(report.failures(), 1, "only the deadline row is a failure");
        assert_eq!(report.interrupted(), 1);
        let summary = report.summary();
        assert!(summary.contains("1 interrupted (partial sweep)"));
        assert_eq!(
            report.to_json().get("interrupted").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn clean_report_json_has_no_interrupted_field() {
        let report = SuiteReport {
            rows: vec![SuiteRow {
                name: "a",
                outcome: RunOutcome::Completed,
                result: None,
            }],
            setup_errors: Vec::new(),
        };
        assert!(report.to_json().get("interrupted").is_none());
        assert!(!report.summary().contains("interrupted"));
    }

    #[test]
    fn suite_quarantine_skips_rows() {
        let mut cfg = small_cfg();
        cfg.quarantine = registry::registry()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let report = run_suite(&cfg);
        assert_eq!(report.rows.len(), registry::registry().len());
        assert!(report
            .rows
            .iter()
            .all(|r| r.outcome == RunOutcome::Quarantined));
        assert_eq!(report.failures(), 0);
        assert!(report.summary().contains("0 failed"));
    }
}
