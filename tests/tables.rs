//! The paper's Tables 1–8, as `report_tables` renders them from a
//! campaign, and the timed reports of `tables` must have the expected
//! structure and content.

use std::sync::OnceLock;

use dpf::core::Machine;
use dpf::suite::{report_tables, run_campaign, tables, CampaignSpec, ExecMode, ProblemClass};

/// Tables 1–8 of one full-registry, class-S campaign on 8 processors,
/// rendered once and shared by every test.
fn paper_tables() -> &'static str {
    static MARKDOWN: OnceLock<String> = OnceLock::new();
    MARKDOWN.get_or_init(|| {
        let spec = CampaignSpec {
            classes: vec![ProblemClass::S],
            procs: vec![8],
            ..CampaignSpec::default()
        };
        let report = run_campaign(&spec, ExecMode::Serial).unwrap();
        assert_eq!(report.failed(), 0, "{}", report.summary());
        report_tables::render_markdown(&report)
    })
}

/// Section `n` of the rendered tables.
fn table(n: u8) -> &'static str {
    report_tables::section(paper_tables(), n).unwrap_or_else(|| panic!("no Table {n}"))
}

/// The body rows of table `n` (its header and rule lines skipped).
fn rows(n: u8) -> Vec<&'static str> {
    table(n)
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2)
        .collect()
}

/// The trimmed cells of a Markdown table row.
fn cells(row: &str) -> Vec<&str> {
    row.trim_matches('|').split('|').map(str::trim).collect()
}

#[test]
fn table1_reproduces_the_version_matrix() {
    // All 32 rows, every one marked basic.
    let rows = rows(1);
    assert_eq!(rows.len(), 32);
    for row in &rows {
        assert_eq!(cells(row)[1], "x", "row missing basic mark: {row}");
    }
    // Spot-check the reconstruction (count mark columns, not the name).
    let marks = |name: &str| {
        let row = rows.iter().find(|r| cells(r)[0] == name).unwrap();
        cells(row).iter().skip(1).filter(|c| **c == "x").count()
    };
    assert_eq!(marks("matrix-vector"), 4);
    assert_eq!(marks("qcd-kernel"), 2);
    assert!(rows.iter().any(|r| cells(r)[0] == "boson"));
    assert!(rows.iter().any(|r| cells(r)[0] == "wave-1D"));
}

#[test]
fn table2_and_5_show_serial_and_parallel_axes() {
    let t2 = table(2);
    assert!(t2.contains("pcr"));
    assert!(t2.contains("matrix-vector"));
    assert!(t2.contains(":serial"));
    let t5 = table(5);
    assert!(t5.contains("boson"));
    assert!(t5.contains("X(:serial,:,:)"));
    assert!(t5.contains("qcd-kernel"));
    assert!(t5.contains("x(:serial,:,:,:,:,:)"));
    // All 8 linalg + 20 app rows.
    assert_eq!(rows(2).len(), 8);
    assert_eq!(rows(5).len(), 20);
}

#[test]
fn table3_and_7_classify_measured_patterns() {
    let t3 = table(3);
    assert!(t3.contains("Reduction"));
    assert!(t3.contains("lu"));
    assert!(t3.contains("AAPC"));
    assert!(t3.contains("CSHIFT"));
    assert!(t3.contains("conj-grad"));
    let t7 = table(7);
    assert!(t7.contains("Stencil"));
    assert!(t7.contains("diff-3D"));
    assert!(t7.contains("Sort"));
    assert!(t7.contains("qptransport"));
    assert!(t7.contains("AABC"));
    assert!(t7.contains("Butterfly"));
}

#[test]
fn table4_and_6_report_measured_against_paper_formulas() {
    let t4 = table(4);
    assert!(t4.contains("matrix-vector"));
    assert!(t4.contains("2nmi"), "paper formula column missing");
    assert!(t4.contains("direct"));
    let t6 = table(6);
    assert!(t6.contains("qcd-kernel"));
    assert!(t6.contains("606"));
    assert!(t6.contains("strided"));
    assert!(t6.contains("indirect"));
}

#[test]
fn table8_reproduces_technique_rows() {
    let t = table(8);
    for needle in [
        "chained CSHIFT",
        "Array sections",
        "CMSSL partitioned gather utility",
        "FORALL w/ SUM",
        "SPREAD",
        "CMF send overwrite",
    ] {
        assert!(t.contains(needle), "missing technique: {needle}");
    }
}

#[test]
fn perf_report_covers_the_whole_suite_and_passes() {
    let m = Machine::cm5(8);
    let report = tables::perf_report(&m, ProblemClass::S);
    assert_eq!(report.lines().count(), 2 + 32);
    assert!(!report.contains("FAIL"), "{report}");
}

#[test]
fn matvec_layout_table_shows_layout_effect() {
    let m = Machine::cm5(16);
    let t = tables::matvec_layouts_table(&m);
    assert_eq!(t.lines().count(), 2 + 4);
    // Layout (3) keeps the broadcast within-processor: zero off-proc.
    let row3 = t.lines().find(|l| l.contains("(3)")).unwrap();
    assert!(row3.trim_end().ends_with(" 0"), "{row3}");
}

#[test]
fn scalability_table_models_all_benchmarks() {
    let t = tables::scalability_table(ProblemClass::S);
    assert_eq!(t.lines().count(), 2 + 32);
    assert!(t.contains("P=512"));
    // The embarrassingly parallel codes must scale best-in-class.
    let fermion = t.lines().find(|l| l.starts_with("fermion")).unwrap();
    let speedup: f64 = fermion
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('x')
        .parse()
        .unwrap();
    assert!(speedup > 10.0, "fermion modeled speedup only {speedup}");
}

#[test]
fn efficiency_table_reports_percentages() {
    let m = Machine::cm5(8);
    let t = tables::efficiency_table(&m, ProblemClass::S);
    assert_eq!(t.lines().count(), 2 + 8);
    assert!(t.contains("conj-grad"));
}
