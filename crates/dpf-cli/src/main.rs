//! `dpf` — command-line runner for the DPF benchmark suite.
//!
//! ```text
//! dpf list                          # all 32 benchmarks with their versions
//! dpf run <name> [options]          # run one benchmark, print the §1.5 report
//! dpf all [options]                 # run the whole suite, print a summary line each
//! dpf table <1..8|perf|eff|model|layouts>
//!                                   # one paper table (1..8: section N of
//!                                   # `dpf tables` for a one-shot campaign
//!                                   # at --size/--procs/--backend) or a
//!                                   # timed report
//! dpf soak [options]                # seeded chaos sweeps: kills + faults
//! dpf campaign <spec.toml> [--serial] [--format text|json] [--out DIR]
//!              [--resume] [--deadline-secs N]
//!                                   # run a multi-tenant sweep from a spec;
//!                                   # with --out the run keeps a durable
//!                                   # journal and --resume continues it
//! dpf tables [--campaign FILE] [--out DIR]
//!                                   # paper tables from a recorded campaign
//! dpf lint [--format text|json|sarif] [--deny warnings]
//!                                   # run the project lint rules over crates/*/src
//!
//! Exit codes: 0 = success; 1 = runtime/benchmark failure (verify
//! failure, panic, timeout, link failure); 2 = configuration error
//! (bad flags, unknown benchmark, missing variant, unknown quarantine
//! name, bad campaign spec, corrupt journal/artifact, lint findings);
//! 130 = interrupted (SIGINT/SIGTERM drained a partial run — for
//! campaigns the journal is kept, so `--resume` completes it). A reader
//! that closes stdout early (`dpf list | head -1`) is not an error: the
//! command exits quietly with its own code.
//!
//! options:
//!   --size small|S|W|A|B|C       NAS-style problem class (default A;
//!                                `small` is an alias of S)
//!   --version basic|optimized|library|CMSSL|C/DPEAC
//!   --procs N                    virtual processors (default 32, CM-5 style)
//!   --backend virtual|spmd       execution backend (default virtual)
//!   --faults RATE                fault-injection probability per comm event
//!   --fault-seed N               base seed for the deterministic fault plan
//!   --link-faults RATE           per-frame link-fault probability on the SPMD
//!                                transport (drop/duplicate/reorder/corrupt)
//!   --max-retransmits N          retransmissions allowed per frame before a
//!                                typed LinkFailure (default 6; 0 disables repair)
//!   --kill-worker R:C            kill SPMD worker R at collective C
//!                                (repeatable: a schedule of kills;
//!                                needs --backend spmd and R < --procs)
//!   --recover in-run|restart|off what a worker death does: heal inside the
//!                                run by re-running the collective from
//!                                its replicas (in-run), restart the
//!                                benchmark from the harness (restart,
//!                                default), or fail hard (off)
//!   --timeout-secs N             wall-clock budget per attempt (default 300)
//!   --retries N                  retry budget after a failed attempt
//!   --checkpoint-every N         snapshot iterative kernels every N steps
//!   --quarantine a,b             skip the named benchmarks (dpf all)
//!   --format text|json           suite/soak report format (dpf all, dpf soak)
//!   --iterations N               full-registry sweeps per soak (dpf soak)
//!   --kill-rate RATE             per-benchmark kill probability (dpf soak)
//! ```

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::time::Duration;

use dpf_core::{Backend, DpfError, FaultPlan, Machine, RecoverMode};
use dpf_suite::{
    find, journal, registry, report_tables, run_campaign, run_campaign_with, shutdown, tables,
    CampaignReport, CampaignRun, CampaignSpec, CancelToken, ExecMode, Json, ProblemClass, Size,
    SoakConfig, SuiteConfig, Version,
};

/// Accepted `--size` values, as the usage and error texts name them.
const SIZES: &str = "small|S|W|A|B|C";

/// The conventional "terminated by SIGINT" code: a partial run was
/// drained gracefully rather than completed.
const EXIT_INTERRUPTED: u8 = 130;

struct Options {
    class: ProblemClass,
    version: Version,
    procs: usize,
    backend: Backend,
    faults: f64,
    fault_seed: u64,
    link_faults: f64,
    max_retransmits: Option<u32>,
    kill_workers: Vec<(usize, u64)>,
    recover: Option<RecoverMode>,
    timeout_secs: u64,
    retries: u32,
    checkpoint_every: usize,
    quarantine: Vec<String>,
    format_json: bool,
    iterations: u32,
    kill_rate: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            class: ProblemClass::A,
            version: Version::Basic,
            procs: 32,
            backend: Backend::Virtual,
            faults: 0.0,
            fault_seed: 0,
            link_faults: 0.0,
            max_retransmits: None,
            kill_workers: Vec::new(),
            recover: None,
            timeout_secs: 300,
            retries: 0,
            checkpoint_every: 0,
            quarantine: Vec::new(),
            format_json: false,
            iterations: 1,
            kill_rate: 0.0,
        }
    }
}

impl Options {
    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.faults, self.fault_seed);
        plan.checkpoint_every = self.checkpoint_every;
        plan.link_rate = self.link_faults;
        if let Some(budget) = self.max_retransmits {
            plan.max_retransmits = budget;
        }
        plan.kill_workers = self.kill_workers.clone();
        plan.recover = self.recover.unwrap_or_default();
        plan
    }

    fn suite_config(&self) -> SuiteConfig {
        SuiteConfig {
            machine: Machine::cm5(self.procs),
            size: Size::Class(self.class),
            faults: self.plan(),
            timeout: Duration::from_secs(self.timeout_secs),
            retries: self.retries,
            quarantine: self.quarantine.clone(),
            backend: self.backend,
            pool: None,
            cancel: CancelToken::default(),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                // `small` is an alias of class S; any other value must
                // be a class letter.
                let value = it.next().map(String::as_str).unwrap_or_default();
                o.class = match value {
                    "small" => ProblemClass::S,
                    class => class
                        .parse()
                        .map_err(|_| format!("bad --size {value:?} (want {SIZES})"))?,
                };
            }
            "--version" => {
                o.version = match it.next().map(String::as_str) {
                    Some("basic") => Version::Basic,
                    Some("optimized") => Version::Optimized,
                    Some("library") => Version::Library,
                    Some("CMSSL") | Some("cmssl") => Version::Cmssl,
                    Some("C/DPEAC") | Some("cdpeac") => Version::CDpeac,
                    other => return Err(format!("bad --version {other:?}")),
                }
            }
            "--procs" => {
                o.procs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("bad --procs (want a positive count)")?;
            }
            "--backend" => {
                o.backend = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --backend (want virtual|spmd)")?;
            }
            "--faults" => {
                o.faults = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("bad --faults (want a rate in 0..=1)")?;
            }
            "--fault-seed" => {
                o.fault_seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --fault-seed")?;
            }
            "--link-faults" => {
                o.link_faults = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("bad --link-faults (want a rate in 0..=1)")?;
            }
            "--max-retransmits" => {
                o.max_retransmits = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --max-retransmits")?,
                );
            }
            "--kill-worker" => {
                // Repeatable: each occurrence appends one scheduled kill.
                let kill = it
                    .next()
                    .and_then(|s| {
                        let (rank, collective) = s.split_once(':')?;
                        Some((rank.parse().ok()?, collective.parse().ok()?))
                    })
                    .ok_or("bad --kill-worker (want RANK:COLLECTIVE)")?;
                o.kill_workers.push(kill);
            }
            "--recover" => {
                o.recover = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --recover (want in-run|restart|off)")?,
                );
            }
            "--format" => match it.next().map(String::as_str) {
                Some("json") => o.format_json = true,
                Some("text") => o.format_json = false,
                other => return Err(format!("bad --format {other:?} (want text|json)")),
            },
            "--iterations" => {
                o.iterations = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("bad --iterations (want a positive count)")?;
            }
            "--kill-rate" => {
                o.kill_rate = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("bad --kill-rate (want a rate in 0..=1)")?;
            }
            "--timeout-secs" => {
                o.timeout_secs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --timeout-secs")?;
            }
            "--retries" => {
                o.retries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --retries")?;
            }
            "--checkpoint-every" => {
                o.checkpoint_every = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --checkpoint-every")?;
            }
            "--quarantine" => {
                o.quarantine = it
                    .next()
                    .map(|s| s.split(',').map(str::to_string).collect())
                    .ok_or("bad --quarantine")?;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    // A kill that cannot fire is a usage error, not a clean run. Checked
    // once every flag is read: `--procs` and `--backend` may follow it.
    for &(rank, _) in &o.kill_workers {
        if o.backend != Backend::Spmd {
            return Err(format!(
                "--kill-worker needs --backend spmd: the {} backend has no workers",
                o.backend
            ));
        }
        if rank >= o.procs {
            return Err(format!(
                "--kill-worker rank {rank} is out of range for --procs {}",
                o.procs
            ));
        }
    }
    Ok(o)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dpf <list|run <name>|all|soak|campaign <spec>|tables|table <1-8|perf|eff|model|layouts>|lint> \
         [--size {SIZES}] [--version v] [--procs N] \
         [--backend virtual|spmd] [--faults RATE] [--fault-seed N] \
         [--link-faults RATE] [--max-retransmits N] [--kill-worker R:C]... \
         [--recover in-run|restart|off] [--timeout-secs N] [--retries N] \
         [--checkpoint-every N] [--quarantine a,b] [--format text|json]\n\
         \x20      dpf soak [--iterations N] [--kill-rate RATE] [common options]\n\
         \x20      dpf campaign <spec.toml> [--serial] [--format text|json] [--out DIR]\n\
         \x20                   [--resume] [--deadline-secs N]\n\
         \x20      dpf tables [--campaign FILE] [--out DIR]\n\
         \x20      dpf lint [--format text|json|sarif] [--deny warnings] [--root PATH]"
    );
    ExitCode::from(2)
}

/// `dpf campaign <spec.toml>`: expand the spec's sweep axes into tenants
/// and run them (concurrently unless `--serial`). With `--out DIR`, the
/// run keeps a durable row journal in DIR and — on completion — writes
/// the three artifacts `campaign.json`, `tables.md`, `tables.json`
/// atomically there; stdout gets the summary (or the campaign JSON
/// under `--format json`). `--resume` replays the journal from an
/// interrupted or killed run and measures only what is missing; the
/// finished artifacts are byte-identical to an uninterrupted run's.
/// Exit 1 when any row failed, 2 on spec/journal/IO errors, 130 when a
/// SIGINT/SIGTERM drained the run part-way (journal kept for --resume).
fn run_campaign_cmd(args: &[String], out: &mut String) -> Result<ExitCode, String> {
    let mut spec_path: Option<&str> = None;
    let mut serial = false;
    let mut format_json = false;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut deadline_secs: Option<u64> = None;
    let mut crash_after_rows: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serial" => serial = true,
            "--resume" => resume = true,
            "--deadline-secs" => {
                deadline_secs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("bad --deadline-secs (want a positive count)")?,
                );
            }
            // Hidden chaos hook (scripts/chaos_campaign.sh): SIGKILL
            // this process the instant N rows are durable in the
            // journal, simulating a power cut at a seeded point.
            "--crash-after-rows" => {
                crash_after_rows = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --crash-after-rows")?,
                );
            }
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => return Err(format!("bad --format {other:?} (want text|json)")),
            },
            "--out" => {
                out_dir = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .ok_or("bad --out (want a directory)")?,
                );
            }
            other if !other.starts_with("--") && spec_path.is_none() => spec_path = Some(other),
            other => return Err(format!("unknown campaign option {other}")),
        }
    }
    let spec_path = spec_path.ok_or("campaign needs a spec file: dpf campaign <spec.toml>")?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read campaign spec {spec_path:?}: {e}"))?;
    let spec = CampaignSpec::parse(&text).map_err(|e| e.to_string())?;
    shutdown::install();
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let journal_path = out_dir.as_ref().map(|d| d.join(journal::JOURNAL_FILE));
    let run = CampaignRun {
        mode: if serial {
            ExecMode::Serial
        } else {
            ExecMode::Concurrent
        },
        journal: journal_path.clone(),
        resume,
        deadline: deadline_secs.map(Duration::from_secs),
        cancel: Some(shutdown::flag()),
        crash_after_rows,
    };
    let outcome = run_campaign_with(&spec, &run).map_err(|e| e.to_string())?;
    let report = &outcome.report;
    if outcome.interrupted {
        // Partial run: the journal stays for --resume, and no artifact
        // is written — artifacts only ever hold a complete campaign.
        if format_json {
            out.push_str(&report.render_json());
        } else {
            out.push_str(&report.summary());
        }
        return Ok(ExitCode::from(EXIT_INTERRUPTED));
    }
    if let Some(dir) = &out_dir {
        report_tables::write_artifacts(report, dir).map_err(|e| e.to_string())?;
        if let Some(path) = &journal_path {
            // The artifacts are durable; the journal has served its
            // purpose (and its row order is schedule-dependent, so it
            // must not linger in an out-dir that byte-diffs cleanly).
            journal::discard(path).map_err(|e| e.to_string())?;
        }
    }
    if format_json {
        out.push_str(&report.render_json());
    } else {
        out.push_str(&report.summary());
    }
    Ok(if report.failed() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The one-shot campaign behind `dpf tables` and `dpf table N`: the
/// whole registry, run serially at one class × procs × backend point.
fn one_shot_campaign(
    class: ProblemClass,
    procs: usize,
    backend: Backend,
) -> Result<CampaignReport, String> {
    let spec = CampaignSpec {
        name: "tables".to_string(),
        classes: vec![class],
        procs: vec![procs],
        backends: vec![backend],
        ..CampaignSpec::default()
    };
    run_campaign(&spec, ExecMode::Serial).map_err(|e| e.to_string())
}

/// `dpf table N` for a paper table (1..8): section N of the Markdown
/// `dpf tables` renders, from a one-shot campaign at `--size`,
/// `--procs` and `--backend`. Exit 1 when a benchmark row failed (its
/// measured rows are left out of the table), 2 when the campaign
/// cannot run.
fn paper_table(table: u8, opts: &Options, out: &mut String) -> ExitCode {
    let report = match one_shot_campaign(opts.class, opts.procs, opts.backend) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let markdown = report_tables::render_markdown(&report);
    out.push_str(report_tables::section(&markdown, table).unwrap_or_default());
    if report.failed() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `dpf tables`: regenerate the paper tables from a recorded campaign
/// artifact (`--campaign FILE`), or — without one — from a fresh serial
/// class-S run of the whole registry. Markdown goes to stdout; `--out`
/// also writes `tables.md` + `tables.json`.
fn run_tables_cmd(args: &[String], out: &mut String) -> Result<ExitCode, String> {
    let mut campaign_file: Option<&str> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--campaign" => {
                campaign_file = Some(
                    it.next()
                        .map(String::as_str)
                        .ok_or("bad --campaign (want a campaign.json path)")?,
                );
            }
            "--out" => {
                out_dir = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .ok_or("bad --out (want a directory)")?,
                );
            }
            other => return Err(format!("unknown tables option {other}")),
        }
    }
    let report = match campaign_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read campaign artifact {path:?}: {e}"))?;
            // A truncated or hand-mangled artifact is a config error
            // (exit 2), reported with the file and the parse error's
            // byte offset — never a panic.
            CampaignReport::parse(&text).map_err(|e| {
                DpfError::Config {
                    what: format!("bad campaign artifact {path}: {e}"),
                }
                .to_string()
            })?
        }
        None => one_shot_campaign(ProblemClass::S, 4, Backend::Virtual)?,
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        for (file, content) in [
            ("tables.md", report_tables::render_markdown(&report)),
            ("tables.json", report_tables::render_json(&report)),
        ] {
            dpf_suite::write_atomic(&dir.join(file), &content).map_err(|e| e.to_string())?;
        }
    }
    out.push_str(&report_tables::render_markdown(&report));
    Ok(ExitCode::SUCCESS)
}

/// `dpf lint`: run the project's static-analysis rules over every
/// `crates/*/src/**.rs` file. Findings go to stdout (text or JSON);
/// exit 2 on errors (or on any finding under `--deny warnings`), the
/// configuration-error exit class.
fn run_lint(args: &[String], out: &mut String) -> Result<ExitCode, String> {
    let mut format = LintFormat::Text;
    let mut deny_warnings = false;
    let mut root: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = LintFormat::Json,
                Some("text") => format = LintFormat::Text,
                Some("sarif") => format = LintFormat::Sarif,
                other => return Err(format!("bad --format {other:?} (want text|json|sarif)")),
            },
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                other => return Err(format!("bad --deny {other:?} (want warnings)")),
            },
            "--root" => {
                root = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .ok_or("bad --root (want a path)")?,
                )
            }
            other => return Err(format!("unknown lint option {other}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            dpf_lint::find_root(&cwd).ok_or(
                "no DPF repo root found above the current directory \
                 (want crates/dpf-core/src); pass --root",
            )?
        }
    };
    let diags = dpf_lint::lint_tree(&root).map_err(|e| e.to_string())?;
    match format {
        LintFormat::Json => out.push_str(&dpf_lint::render_json(&diags)),
        LintFormat::Sarif => {
            let _ = writeln!(out, "{}", render_sarif(&diags).render());
        }
        LintFormat::Text => out.push_str(&dpf_lint::render_text(&diags)),
    }
    if dpf_lint::is_failing(&diags, deny_warnings) {
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Output format for `dpf lint`.
#[derive(Clone, Copy, PartialEq)]
enum LintFormat {
    Text,
    Json,
    Sarif,
}

/// Render lint diagnostics as a minimal SARIF 2.1.0 log, the format
/// GitHub code scanning ingests for inline PR annotations. The rule
/// catalog lists every per-file rule plus the pragma meta-diagnostics
/// (`bad-pragma`, `unused-pragma`) that occur in this run.
fn render_sarif(diags: &[dpf_lint::Diagnostic]) -> Json {
    let mut rule_ids: Vec<&str> = dpf_lint::rules::FILE_RULES.iter().map(|r| r.id).collect();
    let mut summaries: Vec<(&str, &str)> = dpf_lint::rules::FILE_RULES
        .iter()
        .map(|r| (r.id, r.summary))
        .collect();
    for d in diags {
        if !rule_ids.contains(&d.rule) {
            rule_ids.push(d.rule);
            summaries.push((d.rule, "pragma meta-diagnostic"));
        }
    }
    let rules: Vec<Json> = summaries
        .iter()
        .map(|(id, summary)| {
            Json::Obj(vec![
                ("id".into(), Json::str(*id)),
                (
                    "shortDescription".into(),
                    Json::Obj(vec![("text".into(), Json::str(*summary))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Json> = diags
        .iter()
        .map(|d| {
            let level = match d.severity {
                dpf_lint::Severity::Error => "error",
                dpf_lint::Severity::Warning => "warning",
            };
            Json::Obj(vec![
                ("ruleId".into(), Json::str(d.rule)),
                ("level".into(), Json::str(level)),
                (
                    "message".into(),
                    Json::Obj(vec![(
                        "text".into(),
                        Json::str(format!("{} — {}", d.message, d.suggestion)),
                    )]),
                ),
                (
                    "locations".into(),
                    Json::Arr(vec![Json::Obj(vec![(
                        "physicalLocation".into(),
                        Json::Obj(vec![
                            (
                                "artifactLocation".into(),
                                Json::Obj(vec![("uri".into(), Json::str(&d.file))]),
                            ),
                            (
                                "region".into(),
                                Json::Obj(vec![("startLine".into(), Json::U64(u64::from(d.line)))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "$schema".into(),
            Json::str("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version".into(), Json::str("2.1.0")),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".into(),
                    Json::Obj(vec![(
                        "driver".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::str("dpf-lint")),
                            ("rules".into(), Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results".into(), Json::Arr(results)),
            ])]),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let code = dispatch(&args, &mut out);
    match write_stdout(&out) {
        Ok(()) => code,
        // The reader hung up early (`dpf list | head -1`): it took what
        // it wanted, so the command's own outcome stands, with no error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            eprintln!("dpf: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_stdout(text: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    stdout.write_all(text.as_bytes())?;
    stdout.flush()
}

/// Run one subcommand. Its report is appended to `out`, which `main`
/// writes to stdout once the command has finished.
fn dispatch(args: &[String], out: &mut String) -> ExitCode {
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => {
            if let Some(extra) = args.get(1) {
                eprintln!("unknown option {extra}");
                return usage();
            }
            let _ = writeln!(out, "{:<20} {:<15} paper versions", "name", "group");
            for e in registry() {
                let versions: Vec<&str> = e.paper_versions.iter().map(|v| v.name()).collect();
                let _ = writeln!(
                    out,
                    "{:<20} {:<15} {}",
                    e.name,
                    e.group.to_string(),
                    versions.join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let Some(entry) = find(name) else {
                eprintln!("unknown benchmark {name:?}; try `dpf list`");
                return ExitCode::from(2);
            };
            if entry.variant(opts.version).is_none() {
                eprintln!(
                    "{name} has no runnable {} variant in this reproduction",
                    opts.version
                );
                return ExitCode::from(2);
            }
            let cfg = opts.suite_config();
            let guarded = dpf_suite::run_guarded(&entry, opts.version, &cfg);
            if let Some(res) = &guarded.result {
                let _ = write!(out, "{}", res.report);
                let _ = writeln!(
                    out,
                    "  FLOPs per point           : {:.2}",
                    res.flops_per_point()
                );
                let _ = writeln!(
                    out,
                    "  Comm calls per iteration  : {:.2}",
                    res.comm_per_iteration()
                );
            }
            let _ = writeln!(
                out,
                "outcome: {} ({} attempt(s), {} fault(s) injected)",
                guarded.outcome, guarded.attempts, guarded.faults_injected
            );
            match &guarded.outcome {
                o if o.is_success() => ExitCode::SUCCESS,
                dpf_suite::RunOutcome::ConfigError(_) => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
        "all" => {
            let opts = match parse_options(&args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            shutdown::install();
            let mut cfg = opts.suite_config();
            cfg.cancel = CancelToken::watching(shutdown::flag());
            let report = dpf_suite::run_suite(&cfg);
            if opts.format_json {
                out.push_str(&report.render_json());
            } else {
                out.push_str(&report.summary());
            }
            // The interrupt code dominates (the sweep is partial, so
            // pass/fail is not decided); then runtime failures (exit 1)
            // dominate config errors (exit 2): a broken benchmark is
            // the stronger signal.
            if report.interrupted() > 0 {
                ExitCode::from(EXIT_INTERRUPTED)
            } else if report.failures() > 0 {
                ExitCode::FAILURE
            } else if report.config_errors() > 0 {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        "soak" => {
            let mut opts = match parse_options(&args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            // Chaos soaks exist to exercise in-run healing; unless the
            // user explicitly picked a recover mode, arm it.
            if opts.recover.is_none() {
                opts.recover = Some(RecoverMode::InRun);
            }
            shutdown::install();
            let mut base = opts.suite_config();
            base.cancel = CancelToken::watching(shutdown::flag());
            let soak_cfg = SoakConfig {
                base,
                iterations: opts.iterations,
                kill_rate: opts.kill_rate,
                seed: opts.fault_seed,
            };
            let report = dpf_suite::run_soak(&soak_cfg);
            out.push_str(&report.summary());
            if report.interrupted() > 0 {
                ExitCode::from(EXIT_INTERRUPTED)
            } else if report.failures() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "campaign" => match run_campaign_cmd(&args[1..], out) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        "tables" => match run_tables_cmd(&args[1..], out) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        "lint" => match run_lint(&args[1..], out) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        "table" => {
            let Some(which) = args.get(1) else {
                return usage();
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let machine = Machine::cm5(opts.procs);
            let text = match which.as_str() {
                "perf" => tables::perf_report(&machine, opts.class),
                "eff" => tables::efficiency_table(&machine, opts.class),
                "model" => tables::scalability_table(opts.class),
                "layouts" => tables::matvec_layouts_table(&machine),
                n => match n.parse().ok().filter(|n| (1..=8).contains(n)) {
                    Some(table) => return paper_table(table, &opts, out),
                    None => {
                        eprintln!("unknown table {n}");
                        return usage();
                    }
                },
            };
            out.push_str(&text);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag `parse_options` accepts. A second copy of its match
    /// arms: a flag added there must be added here too, or it is never
    /// fuzzed.
    const FLAGS: &[&str] = &[
        "--size",
        "--version",
        "--procs",
        "--backend",
        "--faults",
        "--fault-seed",
        "--link-faults",
        "--max-retransmits",
        "--kill-worker",
        "--recover",
        "--format",
        "--iterations",
        "--kill-rate",
        "--timeout-secs",
        "--retries",
        "--checkpoint-every",
        "--quarantine",
    ];

    /// Values some flag accepts, then hostile ones.
    const VALUES: &[&str] = &[
        "small",
        "medium",
        "S",
        "C",
        "basic",
        "cmssl",
        "spmd",
        "in-run",
        "json",
        "1",
        "32",
        "0.5",
        "1:3",
        "fft,lu",
        "0",
        "-1",
        "abc",
        "1e99",
        "NaN",
        "inf",
        "",
        ":",
        "18446744073709551616",
    ];

    #[test]
    fn size_small_is_class_s_and_removed_tiers_are_rejected() {
        let class = |v: &str| parse_options(&["--size".into(), v.into()]).map(|o| o.class);
        assert_eq!(class("small"), Ok(ProblemClass::S));
        assert_eq!(class("S"), Ok(ProblemClass::S));
        assert_eq!(class("C"), Ok(ProblemClass::C));
        for removed in ["medium", "large"] {
            assert!(class(removed).unwrap_err().contains(SIZES), "{removed}");
        }
    }

    /// Seeded argv fuzzing of the option parser: no argv panics it, and
    /// every accepted argv builds a suite config. A flag drawn last, or
    /// followed by another flag, has its value missing.
    #[test]
    fn parse_options_never_panics_on_hostile_argv() {
        let mut draws = (0u64..).map(|k| dpf_core::derive_seed(7, "argv", k));
        let mut accepted = 0;
        for _ in 0..20_000 {
            let len = draws.next().unwrap() % 7;
            let argv: Vec<String> = (0..len)
                .map(|_| {
                    let r = draws.next().unwrap();
                    let pool = if r % 2 == 0 { FLAGS } else { VALUES };
                    pool[(r / 2 % pool.len() as u64) as usize].to_string()
                })
                .collect();
            let parsed =
                std::panic::catch_unwind(|| parse_options(&argv).map(|o| o.suite_config()).is_ok());
            match parsed {
                Ok(ok) => accepted += usize::from(ok && !argv.is_empty()),
                Err(_) => panic!("argv {argv:?} panicked"),
            }
        }
        assert!(accepted > 0, "no non-empty argv was accepted");
    }
}
