//! Paper facts that live as plain Rust values, pinned where tier-1 runs
//! them: the §1.5 FLOP weights and the Table 1 versions the registry
//! claims but cannot run.

use dpf::core::flops::{reduction, ADD, DIV, EXP, LOG, MUL, SQRT, SUB, TRIG};
use dpf::suite::{registry, Version};

#[test]
fn weights_match_paper() {
    assert_eq!(
        [ADD, SUB, MUL, DIV, SQRT, LOG, TRIG, EXP],
        [1, 1, 1, 4, 4, 8, 8, 8],
        "§1.5 weights: add/sub/mul 1, div/sqrt 4, log/trig/exp 8"
    );
    // A reduction or scan over n elements costs its sequential n − 1.
    assert_eq!([reduction(0), reduction(1), reduction(100)], [0, 0, 99]);
}

/// Each entry's paper versions with no runnable variant. The reason for
/// every gap is a comment at its registry entry; a new gap and a newly
/// filled one both fail here.
#[test]
fn unrunnable_paper_versions_are_the_documented_gaps() {
    use Version::{CDpeac, Cmssl, Library, Optimized};
    let gaps: Vec<(&str, Vec<Version>)> = registry()
        .iter()
        .map(|e| {
            let missing: Vec<Version> = e
                .paper_versions
                .iter()
                .copied()
                .filter(|&v| e.variant(v).is_none())
                .collect();
            (e.name, missing)
        })
        .filter(|(_, missing)| !missing.is_empty())
        .collect();
    assert_eq!(
        gaps,
        [
            ("fem-3D", vec![Cmssl]),
            ("fft", vec![Library, Cmssl]),
            ("gmo", vec![CDpeac]),
            ("ks-spectral", vec![Library]),
            ("matrix-vector", vec![Optimized, Cmssl]),
            ("qcd-kernel", vec![CDpeac]),
            ("qr", vec![Cmssl]),
            ("transpose", vec![Optimized]),
        ],
        "a new gap needs a variant or a comment at its entry; a filled one leaves this list"
    );
}
