//! Core substrate for the DPF (Data Parallel Fortran) benchmark suite.
//!
//! This crate provides everything the suite's HPF-style runtime needs that is
//! not an array operation: the virtual [`Machine`] model, the element-type
//! system with the paper's memory-size conventions ([`DType`], [`Elem`],
//! [`Complex`]), the FLOP-counting conventions of paper §1.5 ([`flops`]),
//! the instrumentation context ([`Ctx`], [`Instr`]) that records FLOPs,
//! communication events, memory usage and busy/elapsed phase timings, the
//! performance report ([`report`]) and an analytic [`cost`] model for a
//! CM-5-class machine.
//!
//! Everything in the higher crates (`dpf-array`, `dpf-comm`, `dpf-linalg`,
//! `dpf-apps`) threads a `&Ctx` through its operations so that each
//! benchmark run yields the full metric set the paper defines: busy and
//! elapsed times, busy and elapsed FLOP rates, FLOP count, memory usage,
//! communication patterns and counts, and local-memory-access class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod class;
pub mod complex;
pub mod cost;
pub mod ctx;
pub mod dtype;
pub mod fault;
pub mod flops;
pub mod instr;
pub mod machine;
pub mod numeric;
pub mod pool;
pub mod report;
pub mod spmd;
pub mod verify;

pub use checkpoint::{Checkpoint, RecoveryStats, Step};
pub use class::ProblemClass;
pub use complex::{Complex, Real, C32, C64};
pub use ctx::Ctx;
pub use dtype::{DType, Elem};
pub use fault::{
    derive_seed, splitmix64, DpfError, FaultInjector, FaultKind, FaultPlan, FaultRecord,
    LinkFaultKind, RecoverMode,
};
pub use instr::{CommKey, CommPattern, CommStats, Instr, LocalAccess, PhaseReport};
pub use machine::Machine;
pub use numeric::{Field, Num};
pub use pool::BufferPool;
pub use report::{BenchReport, PerfSummary};
pub use spmd::{
    crc32, install_quiet_panic_hook, payload_str, run_workers, set_quiet_panics, Backend,
    LinkMeter, Router, Transport, TransportCfg,
};
pub use verify::{nan_max, nan_min, Verify};
