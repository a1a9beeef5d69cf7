//! Golden-file tests for the lint engine.
//!
//! Every `tests/fixtures/<name>.rs` is a known-bad (or deliberately
//! suppressed) source snippet; `tests/fixtures/<name>.expected` holds
//! the exact `render_text` output the engine must produce for it. A
//! fixture's first line may carry a `// lint-path: <repo-relative
//! path>` directive so path-scoped rules (metered-send, untimed-clock)
//! see the path they key on.
//!
//! Regenerate expectations after an intentional rule change with
//! `UPDATE_GOLDEN=1 cargo test -p dpf-lint --test golden` and review
//! the diff like any other golden update.

use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_sources() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("tests/fixtures exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    out.sort();
    out
}

/// The repo-relative path the fixture wants to be linted under.
fn lint_path_of(src: &str, stem: &str) -> String {
    src.lines()
        .find_map(|l| l.trim().strip_prefix("// lint-path:"))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| format!("crates/dpf-fixture/src/{stem}.rs"))
}

#[test]
fn fixtures_match_expected_text() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut checked = 0;
    for path in fixture_sources() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(&path).unwrap();
        let rendered =
            dpf_lint::render_text(&dpf_lint::lint_source(&lint_path_of(&src, &stem), &src));
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &rendered).unwrap();
            continue;
        }
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "{} is missing; run UPDATE_GOLDEN=1 cargo test -p dpf-lint --test golden",
                expected_path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "fixture {stem}: rendered diagnostics drifted from {}",
            expected_path.display()
        );
        checked += 1;
    }
    if !update {
        assert!(
            checked >= 7,
            "expected at least 7 fixtures, found {checked}"
        );
    }
}

/// Fixtures with violations must actually fail the run, and the
/// fully-suppressed fixture must not: the golden text alone would pass
/// even if `is_failing` regressed.
#[test]
fn fixture_failure_classes() {
    for path in fixture_sources() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(&path).unwrap();
        let diags = dpf_lint::lint_source(&lint_path_of(&src, &stem), &src);
        if stem == "suppressed" {
            assert!(diags.is_empty(), "{stem}: {diags:?}");
            assert!(!dpf_lint::is_failing(&diags, true));
        } else {
            assert!(
                dpf_lint::is_failing(&diags, true),
                "{stem} should fail under --deny warnings"
            );
        }
    }
}

/// Diagnostics carry a real `file:line` anchor — the acceptance
/// contract is that a regression names the offending site, not just
/// the rule.
#[test]
fn diagnostics_name_file_and_line() {
    let src = fs::read_to_string(fixture_dir().join("nan_fold.rs")).unwrap();
    let lint_path = lint_path_of(&src, "nan_fold");
    let diags = dpf_lint::lint_source(&lint_path, &src);
    assert!(!diags.is_empty());
    for d in &diags {
        assert_eq!(d.file, lint_path);
        assert!(d.line > 0, "{d:?}");
        // The reported line really holds the construct the rule names.
        let line_text = src.lines().nth(d.line as usize - 1).unwrap();
        assert!(
            line_text.contains("max") || line_text.contains("min"),
            "{d:?} points at {line_text:?}"
        );
    }
}

// ---------------------------------------------------- tree-level tests

/// A miniature repo checkout under tests/fixtures/tree: exercises the
/// directory walk, the output sort and output determinism.
fn tree_root() -> PathBuf {
    fixture_dir().join("tree")
}

#[test]
fn tree_output_is_sorted_and_deterministic() {
    let first = dpf_lint::lint_tree(&tree_root()).unwrap();
    let second = dpf_lint::lint_tree(&tree_root()).unwrap();
    assert_eq!(
        dpf_lint::render_json(&first),
        dpf_lint::render_json(&second),
        "JSON output must be byte-identical across runs"
    );
    assert_eq!(
        dpf_lint::render_text(&first),
        dpf_lint::render_text(&second)
    );
    let keys: Vec<_> = first
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    // The file emits its fold finding before the clock read above it,
    // so only the tree walk's sort puts these in line order.
    assert_eq!(
        first.iter().map(|d| d.rule).collect::<Vec<_>>(),
        ["untimed-clock", "nan-unsafe-fold"],
        "{}",
        dpf_lint::render_text(&first)
    );
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "diagnostics must be sorted by (file, line, rule)"
    );
}

#[test]
fn json_parses_as_stable_shape() {
    let diags = dpf_lint::lint_tree(&tree_root()).unwrap();
    let json = dpf_lint::render_json(&diags);
    // No JSON parser in the dependency set: check the stable envelope
    // and per-diagnostic field order textually.
    assert!(json.starts_with("{\n  \"diagnostics\": ["));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"summary\": {\"errors\":"));
    for d in &diags {
        assert!(json.contains(&format!("\"line\": {}, \"rule\": \"{}\"", d.line, d.rule)));
    }
}
