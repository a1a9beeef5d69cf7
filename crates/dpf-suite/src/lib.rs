//! The DPF suite layer: registry, harness and table generators.
//!
//! * [`registry`] — all 32 benchmarks with their paper characterization
//!   (version matrix, layouts, patterns, formulas) and runnable variants.
//! * [`harness`] — run a benchmark on a chosen virtual machine and
//!   problem class and collect the full §1.5 metric report.
//! * [`tables`] — the timed reports beside the paper's tables:
//!   performance, arithmetic efficiency, modeled scalability and the
//!   matrix-vector layout sweep.
//! * [`comm_bench`] — the four §2 communication benchmarks themselves.
//! * [`soak`] — the `dpf soak` chaos driver: seeded randomized kill/fault
//!   schedules swept over the registry with a deterministic summary.
//! * [`classes`] — the NAS-style S/W/A/B/C problem-class axis.
//! * [`campaign`] — the multi-tenant campaign engine: a spec sweeps
//!   (class × procs × backend × fault rate) into tenant suites run
//!   concurrently on a bounded worker pool.
//! * [`report_tables`] — render a recorded campaign into the paper's
//!   Tables 1–8 (Markdown + JSON, timing-free); the one renderer of
//!   those tables.
//! * [`schema`] — the shared hand-rolled JSON value model every
//!   machine-readable artifact renders through.
//! * [`journal`] — the durable write-ahead row journal behind
//!   `dpf campaign --resume`.
//! * [`artifact`] — the atomic (temp + fsync + rename) artifact writer
//!   every machine-read file goes through.
//! * [`shutdown`] — the process-global cooperative-shutdown flag the
//!   SIGINT/SIGTERM handler flips and the harness polls.

#![warn(missing_docs)]

pub mod artifact;
pub mod benchmark;
pub mod campaign;
pub mod classes;
pub mod comm_bench;
pub mod harness;
pub mod journal;
pub mod registry;
pub mod report_tables;
pub mod runners;
pub mod schema;
pub mod shutdown;
pub mod soak;
pub mod tables;

pub use artifact::write_atomic;
pub use benchmark::{BenchEntry, Group, RunOutput, Size, Variant, Version};
pub use campaign::{
    run_campaign, run_campaign_with, CampaignOutcome, CampaignReport, CampaignRun, CampaignSpec,
    CampaignStats, CommRow, ExecMode, TenantResult, TenantRow, TenantSpec,
};
pub use classes::ProblemClass;
pub use harness::{
    run, run_basic, run_guarded, run_on, run_suite, CancelToken, Cancelled, GuardedResult,
    HarnessResult, RunOutcome, SuiteConfig, SuiteReport, SuiteRow,
};
pub use journal::{Journal, Replay};
pub use registry::{find, registry};
pub use schema::Json;
pub use soak::{run_soak, SoakConfig, SoakIteration, SoakReport, SoakRow};
