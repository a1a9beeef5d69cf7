//! The time- and model-bearing reports that complement the paper's
//! tables: the §1.5 performance report, arithmetic efficiency, modeled
//! CM-5 scalability and the matrix-vector layout sweep. Each re-runs the
//! benchmarks, because wall-clock times and modeled times are not part
//! of a recorded campaign.
//!
//! The paper's Tables 1–8 themselves have one renderer,
//! [`crate::report_tables`], which works from a recorded campaign.

use std::fmt::Write as _;

use dpf_core::cost::CostModel;
use dpf_core::{Machine, ProblemClass};

use crate::benchmark::Group;
use crate::harness;
use crate::registry::registry;

/// The §1.5 performance report over the whole suite: busy/elapsed times
/// and FLOP rates, verification, plus the modeled CM-5-class time from
/// the recorded statistics.
pub fn perf_report(machine: &Machine, class: ProblemClass) -> String {
    let cost = CostModel::cm5();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "DPF performance report — machine: {} virtual processors, size: {class}",
        machine.nprocs
    );
    let _ = writeln!(
        s,
        "{:<20} {:>12} {:>11} {:>11} {:>11} {:>11} {:>13} {:>8}",
        "benchmark",
        "FLOPs",
        "busy (s)",
        "elapsed(s)",
        "busy MF/s",
        "elap MF/s",
        "modeled(s)",
        "verify"
    );
    for e in registry() {
        let res = harness::run_basic(&e, machine, class);
        let p = &res.report.perf;
        let modeled = cost.total_time(machine, p.flops, &res.report.comm);
        let _ = writeln!(
            s,
            "{:<20} {:>12} {:>11.4} {:>11.4} {:>11.1} {:>11.1} {:>13.4} {:>8}",
            e.name,
            p.flops,
            p.busy.as_secs_f64(),
            p.elapsed.as_secs_f64(),
            p.busy_mflops(),
            p.elapsed_mflops(),
            modeled.as_secs_f64(),
            if res.report.verify.is_pass() {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    s
}

/// Modeled-scalability table: for each benchmark, the analytic
/// CM-5-class time at the partition sizes the CM-5 shipped in
/// (32/64/128/256/512 nodes), from the measured FLOP and communication
/// statistics. This is the machine-size axis of the paper's evaluation:
/// compute-bound codes scale nearly linearly; communication-bound codes
/// flatten where the network terms dominate.
pub fn scalability_table(class: ProblemClass) -> String {
    let cost = CostModel::cm5();
    let partitions = [32usize, 64, 128, 256, 512];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Modeled CM-5 time (seconds) vs partition size, from measured statistics"
    );
    let _ = write!(s, "{:<20}", "benchmark");
    for p in partitions {
        let _ = write!(s, " {:>10}", format!("P={p}"));
    }
    let _ = writeln!(s, " {:>9}", "speedup");
    for e in registry() {
        let _ = write!(s, "{:<20}", e.name);
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        for (k, p) in partitions.iter().enumerate() {
            let machine = Machine::cm5(*p);
            let res = harness::run_basic(&e, &machine, class);
            let t = cost
                .total_time(&machine, res.report.perf.flops, &res.report.comm)
                .as_secs_f64();
            if k == 0 {
                first = t;
            }
            last = t;
            let _ = write!(s, " {:>10.5}", t);
        }
        let _ = writeln!(s, " {:>8.2}x", first / last.max(1e-300));
    }
    s
}

/// The matrix-vector layout sweep (Table 2's four variants, measured):
/// identical answers, different data motion — the layout axis the paper
/// uses matrix-vector to demonstrate.
pub fn matvec_layouts_table(machine: &Machine) -> String {
    use dpf_core::Ctx;
    use dpf_linalg::matvec::{matvec_basic, workload, MvLayout};
    let (ni, n, m) = (4usize, 64usize, 64usize);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "matrix-vector layout sweep (i={ni}, n={n}, m={m}, {} procs)",
        machine.nprocs
    );
    let _ = writeln!(
        s,
        "{:<42} {:>12} {:>12} {:>14}",
        "layout (Table 2)", "FLOPs", "comm calls", "off-proc bytes"
    );
    for layout in MvLayout::ALL {
        let ctx = Ctx::new(machine.clone());
        let (a, x) = workload(&ctx, layout, ni, n, m);
        let _ = matvec_basic(&ctx, &a, &x);
        let snap = ctx.instr.comm_snapshot();
        let calls: u64 = snap.values().map(|st| st.calls).sum();
        let bytes: u64 = snap.values().map(|st| st.offproc_bytes).sum();
        let _ = writeln!(
            s,
            "{:<42} {:>12} {:>12} {:>14}",
            layout.name(),
            ctx.instr.flops(),
            calls,
            bytes
        );
    }
    s
}

/// Arithmetic-efficiency table for the linear-algebra codes (§1.5
/// attribute 2: busy FLOP rate over the machine's peak).
pub fn efficiency_table(machine: &Machine, class: ProblemClass) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Arithmetic efficiency of the linear-algebra codes");
    let _ = writeln!(
        s,
        "{:<20} {:>12} {:>14}",
        "code", "busy MF/s", "efficiency (%)"
    );
    for e in registry()
        .iter()
        .filter(|e| e.group == Group::LinearAlgebra)
    {
        let res = harness::run_basic(e, machine, class);
        let _ = writeln!(
            s,
            "{:<20} {:>12.1} {:>14.2}",
            e.name,
            res.report.perf.busy_mflops(),
            res.report.perf.arithmetic_efficiency(machine)
        );
    }
    s
}
