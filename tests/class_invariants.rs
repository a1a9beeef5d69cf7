//! Scaling invariants for the NAS-style problem classes.
//!
//! Every registry entry takes a [`ProblemClass`] and scales its problem
//! from the class descriptor. These tests pin the properties the campaign
//! tables rely on:
//!
//! * memory grows strictly across S < W < A (classes really scale);
//! * class S work is non-trivial — flops > 0 wherever the paper tabulates
//!   a non-zero operation count (pure data-motion codes excepted);
//! * the communication inventory (pattern/rank keys) is a property of the
//!   algorithm, not of the class: S and W record the same key set.

use std::collections::BTreeSet;

use dpf::suite::{registry, run_basic};
use dpf::{Machine, ProblemClass};

fn machine() -> Machine {
    Machine::cm5(4)
}

#[test]
fn memory_grows_strictly_with_class() {
    let machine = machine();
    for entry in registry() {
        let mut prev = 0u64;
        for class in [ProblemClass::S, ProblemClass::W, ProblemClass::A] {
            let res = run_basic(&entry, &machine, class);
            assert!(
                res.report.verify.is_pass(),
                "{} failed verification at class {class}",
                entry.name
            );
            assert!(
                res.report.memory_bytes > prev,
                "{}: memory did not grow from the previous class to {class} \
                 ({prev} -> {})",
                entry.name,
                res.report.memory_bytes
            );
            prev = res.report.memory_bytes;
        }
    }
}

#[test]
fn class_s_flops_are_nonzero_where_tabulated() {
    let machine = machine();
    for entry in registry() {
        // Tables 4/6 tabulate "0" for the pure data-motion communication
        // functions; everything else must count real operations.
        if entry.flops_formula.starts_with("0 (") {
            continue;
        }
        let res = run_basic(&entry, &machine, ProblemClass::S);
        assert!(
            res.report.perf.flops > 0,
            "{}: class S recorded zero flops but the paper tabulates {}",
            entry.name,
            entry.flops_formula
        );
    }
}

#[test]
fn comm_inventory_is_class_invariant() {
    let machine = machine();
    for entry in registry() {
        let keys = |class: ProblemClass| -> BTreeSet<String> {
            run_basic(&entry, &machine, class)
                .report
                .comm
                .keys()
                .map(|k| k.to_string())
                .collect()
        };
        let s = keys(ProblemClass::S);
        let w = keys(ProblemClass::W);
        assert_eq!(
            s, w,
            "{}: communication inventory changed between class S and W",
            entry.name
        );
    }
}
