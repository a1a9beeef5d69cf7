//! End-to-end integration: every benchmark in the registry runs and
//! verifies on a virtual CM-5, and its report carries the full §1.5
//! metric set.

use dpf::core::Machine;
use dpf::suite::{registry, run_basic, Group, ProblemClass};

#[test]
fn all_32_benchmarks_run_and_verify() {
    let machine = Machine::cm5(8);
    for entry in registry() {
        let res = run_basic(&entry, &machine, ProblemClass::S);
        assert!(
            res.report.verify.is_pass(),
            "{} failed verification: {}",
            entry.name,
            res.report.verify
        );
        assert!(
            res.report.perf.elapsed.as_nanos() > 0,
            "{} reported zero elapsed time",
            entry.name
        );
        assert!(res.output.points > 0, "{} reported zero points", entry.name);
    }
}

#[test]
fn communication_codes_move_data_off_processor() {
    // The §2 codes exist to exercise the network: on a multi-processor
    // machine they must report nonzero off-processor volume.
    let machine = Machine::cm5(16);
    for entry in registry()
        .iter()
        .filter(|e| e.group == Group::Communication)
    {
        let res = run_basic(entry, &machine, ProblemClass::S);
        assert!(
            res.report.offproc_bytes() > 0,
            "{} moved nothing off-processor",
            entry.name
        );
    }
}

#[test]
fn single_processor_machine_reports_no_offproc_traffic_for_shifts() {
    // With one virtual processor nothing crosses processor boundaries in
    // the shift/stencil codes.
    let machine = Machine::cm5(1);
    for name in ["step4", "diff-3D", "ellip-2D"] {
        let entry = dpf::suite::find(name).unwrap();
        let res = run_basic(&entry, &machine, ProblemClass::S);
        assert_eq!(
            res.report.offproc_bytes(),
            0,
            "{name} reported off-proc bytes on a 1-processor machine"
        );
    }
}

#[test]
fn flop_counts_are_machine_independent() {
    // The FLOP conventions are analytic: the count must not depend on the
    // virtual machine size (deterministic benchmarks only — iterative
    // solvers may take identical paths too since compute is identical).
    for name in ["matrix-vector", "fft", "diff-3D", "step4", "lu", "gmo"] {
        let entry = dpf::suite::find(name).unwrap();
        let f1 = run_basic(&entry, &Machine::cm5(1), ProblemClass::S)
            .report
            .perf
            .flops;
        let f32 = run_basic(&entry, &Machine::cm5(32), ProblemClass::S)
            .report
            .perf
            .flops;
        assert_eq!(f1, f32, "{name} FLOPs changed with machine size");
    }
}

#[test]
fn results_are_deterministic_across_runs() {
    for name in ["conj-grad", "qcd-kernel", "pic-gather-scatter"] {
        let entry = dpf::suite::find(name).unwrap();
        let a = run_basic(&entry, &Machine::cm5(4), ProblemClass::S);
        let b = run_basic(&entry, &Machine::cm5(4), ProblemClass::S);
        assert_eq!(a.report.perf.flops, b.report.perf.flops, "{name}");
        assert_eq!(a.report.comm_calls(), b.report.comm_calls(), "{name}");
    }
}

#[test]
fn phase_segments_are_reported_for_segmented_codes() {
    // The paper times lu/qr factor and solve separately (§1.5).
    for (name, phases) in [
        ("lu", vec!["lu:factor", "lu:solve"]),
        ("qr", vec!["qr:factor", "qr:solve"]),
    ] {
        let entry = dpf::suite::find(name).unwrap();
        let res = run_basic(&entry, &Machine::cm5(4), ProblemClass::S);
        let got: Vec<String> = res.report.phases.iter().map(|p| p.name.clone()).collect();
        assert_eq!(got, phases, "{name} phases");
        for p in &res.report.phases {
            assert!(p.flops > 0, "{name}/{} recorded no FLOPs", p.name);
        }
    }
}
