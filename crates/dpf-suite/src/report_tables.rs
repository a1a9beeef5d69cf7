//! Render a recorded campaign into the paper's tables (1–8).
//!
//! This is the one renderer of Tables 1–8: `dpf campaign --out`,
//! `dpf tables` and `dpf table N` all print its Markdown (the last one
//! section N of it, from a one-shot campaign). It is a pure function of
//! a [`CampaignReport`]: the campaign already recorded every §1.5
//! logical quantity, so the tables can be regenerated from the JSON
//! artifact alone, any number of times, byte-for-byte.
//!
//! Only logical quantities appear — FLOPs, declared bytes, communication
//! records — never wall-clock times or rates. Together with the §1.5
//! metrics being backend-invariant, that makes the rendered tables
//! *backend-invariant by construction*: filter a campaign's tenants down
//! to one backend and the tables do not change. The golden tests pin
//! exactly that.
//!
//! Tables 1, 2, 5 and 8 come from registry metadata (they characterize
//! the source codes); Tables 3 and 7 from the first tenant's measured
//! pattern records; Tables 4 and 6 from the first tenant of each class.
//! Every table is restricted to the benchmarks the campaign actually ran,
//! and measured tables to the rows that verified.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dpf_core::DpfError;

use crate::benchmark::{BenchEntry, Group, Version};
use crate::campaign::{CampaignReport, TenantResult, TenantRow};
use crate::registry::registry;
use crate::schema::Json;

/// The registry entries the campaign ran, in registry order.
fn entries_in(report: &CampaignReport) -> Vec<BenchEntry> {
    let Some(first) = report.tenants.first() else {
        return Vec::new();
    };
    registry()
        .into_iter()
        .filter(|e| first.rows.iter().any(|r| r.name == e.name))
        .collect()
}

/// The first tenant recorded for each class, in order of appearance.
fn class_tenants(report: &CampaignReport) -> Vec<&TenantResult> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for tenant in &report.tenants {
        if !seen.contains(&tenant.spec.class) {
            seen.push(tenant.spec.class);
            out.push(tenant);
        }
    }
    out
}

/// A tenant's row for one benchmark, when it verified (failed rows carry
/// no trustworthy metrics and are excluded from the tables).
fn verified_row<'a>(tenant: &'a TenantResult, name: &str) -> Option<&'a TenantRow> {
    tenant.rows.iter().find(|r| r.name == name && r.verify)
}

fn comm_per_iter(row: &TenantRow) -> f64 {
    if row.iterations == 0 {
        return 0.0;
    }
    let calls: u64 = row.comm.iter().map(|c| c.calls).sum();
    calls as f64 / row.iterations as f64
}

fn flops_per_iter(row: &TenantRow) -> u64 {
    row.flops.checked_div(row.iterations).unwrap_or(row.flops)
}

/// Table 3/7 body: measured pattern → code labels, from the first
/// tenant's records (the pattern *set* is class- and backend-invariant).
fn measured_patterns(report: &CampaignReport, group: Group) -> Vec<(String, Vec<String>)> {
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let Some(first) = report.tenants.first() else {
        return Vec::new();
    };
    for entry in entries_in(report).iter().filter(|e| e.group == group) {
        let Some(row) = verified_row(first, entry.name) else {
            continue;
        };
        let mut seen: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for c in &row.comm {
            let label = if c.src_rank == c.dst_rank {
                format!("{} ({}-D)", entry.name, c.src_rank)
            } else {
                format!("{} ({}-D to {}-D)", entry.name, c.src_rank, c.dst_rank)
            };
            seen.entry(c.pattern.clone()).or_default().push(label);
        }
        for (pattern, mut labels) in seen {
            labels.dedup();
            rows.entry(pattern).or_default().extend(labels);
        }
    }
    rows.into_iter().collect()
}

/// One row of Table 4/6: `(entry, class name, verified row)`.
fn ratio_rows<'a>(
    report: &'a CampaignReport,
    entries: &'a [BenchEntry],
    group: Group,
) -> Vec<(&'a BenchEntry, &'a str, &'a TenantRow)> {
    let mut out = Vec::new();
    for entry in entries.iter().filter(|e| e.group == group) {
        for tenant in class_tenants(report) {
            if let Some(row) = verified_row(tenant, entry.name) {
                out.push((entry, tenant.spec.class.name(), row));
            }
        }
    }
    out
}

/// Table 8 body: pattern → `(code, technique)` rows, from registry
/// metadata of the benchmarks the campaign ran.
fn techniques(entries: &[BenchEntry]) -> BTreeMap<&str, Vec<(&str, &str)>> {
    let mut rows: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for e in entries {
        for &(pattern, technique) in e.techniques {
            rows.entry(pattern).or_default().push((e.name, technique));
        }
    }
    rows
}

/// Section headings, by table number (Table 1 first).
const TITLES: [&str; 8] = [
    "Table 1. Benchmark suite code versions",
    "Table 2. Data representation and layout, linear algebra kernels",
    "Table 3. Communication of linear algebra kernels (measured)",
    "Table 4. Computation to communication ratio, linear algebra codes",
    "Table 5. Data representation and layout, application codes",
    "Table 6. Computation to communication ratio, application codes",
    "Table 7. Communication patterns in application codes (measured)",
    "Table 8. Implementation techniques",
];

/// The order the sections appear in the document (pinned by the golden
/// `tables.expected.md`).
const ORDER: [usize; 8] = [1, 2, 5, 3, 7, 4, 6, 8];

/// Section `table` (1..=8): its `## Table N.` heading, a blank line and
/// the Markdown table. Tables 1, 2, 5 and 8 come from registry metadata,
/// 3 and 7 from the measured pattern records, 4 and 6 from the measured
/// main-loop quantities per class.
fn section_md(report: &CampaignReport, entries: &[BenchEntry], table: usize) -> String {
    let mut s = format!("## {}\n\n", TITLES[table - 1]);
    let group = if table <= 4 {
        Group::LinearAlgebra
    } else {
        Group::Application
    };
    match table {
        1 => {
            s.push_str("| Benchmark | basic | optimized | library | CMSSL | C/DPEAC |\n");
            s.push_str("|---|---|---|---|---|---|\n");
            for e in entries {
                let mark = |v: Version| {
                    if e.paper_versions.contains(&v) {
                        "x"
                    } else {
                        ""
                    }
                };
                let _ = writeln!(
                    s,
                    "| {} | {} | {} | {} | {} | {} |",
                    e.name,
                    mark(Version::Basic),
                    mark(Version::Optimized),
                    mark(Version::Library),
                    mark(Version::Cmssl),
                    mark(Version::CDpeac)
                );
            }
        }
        2 | 5 => {
            s.push_str("| Code | Arrays (`:serial` local, `:` parallel) |\n|---|---|\n");
            for e in entries.iter().filter(|e| e.group == group) {
                let _ = writeln!(s, "| {} | {} |", e.name, e.layouts.join("  "));
            }
        }
        3 | 7 => {
            s.push_str("| Communication Pattern | Codes (measured) |\n|---|---|\n");
            for (pattern, codes) in measured_patterns(report, group) {
                let _ = writeln!(s, "| {} | {} |", pattern, codes.join(", "));
            }
        }
        4 | 6 => {
            s.push_str(
                "| Code | Class | FLOPs/iter | Memory (B) | comm/iter | Access \
                 | Paper FLOPs/iter | Paper comm/iter |\n|---|---|---|---|---|---|---|---|\n",
            );
            for (entry, class, row) in ratio_rows(report, entries, group) {
                let _ = writeln!(
                    s,
                    "| {} | {} | {} | {} | {:.1} | {} | {} | {} |",
                    entry.name,
                    class,
                    flops_per_iter(row),
                    row.memory_bytes,
                    comm_per_iter(row),
                    entry.local_access,
                    entry.flops_formula,
                    entry.comm_formula
                );
            }
        }
        _ => {
            s.push_str("| Communication Pattern | Code | Technique |\n|---|---|---|\n");
            for (pattern, codes) in techniques(entries) {
                for (code, technique) in codes {
                    let _ = writeln!(s, "| {pattern} | {code} | {technique} |");
                }
            }
        }
    }
    s
}

/// Render the paper's tables from the recorded campaign as Markdown: a
/// header, then the eight `## Table N.` sections in document order.
pub fn render_markdown(report: &CampaignReport) -> String {
    let entries = entries_in(report);
    let classes: Vec<&str> = class_tenants(report)
        .iter()
        .map(|t| t.spec.class.name())
        .collect();
    let mut s = String::new();
    let _ = writeln!(s, "# DPF paper tables — campaign \"{}\"", report.name);
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "Classes: {}. {} of {} benchmarks. All measured columns are logical \
         §1.5 quantities recorded by the campaign; no wall-clock quantity \
         appears, so regeneration is deterministic.",
        if classes.is_empty() {
            "none".to_string()
        } else {
            classes.join(", ")
        },
        entries.len(),
        registry().len()
    );
    for table in ORDER {
        s.push('\n');
        s.push_str(&section_md(report, &entries, table));
    }
    s
}

/// Section `table` of a [`render_markdown`] document: the lines from its
/// `## Table N.` heading up to, but not including, the next `## `
/// heading. `None` when the document has no such table.
pub fn section(markdown: &str, table: u8) -> Option<&str> {
    let heading = format!("\n## Table {table}.");
    let start = markdown.find(&heading)? + 1;
    let end = markdown[start..]
        .find("\n## ")
        .map_or(markdown.len(), |k| start + k + 1);
    Some(&markdown[start..end])
}

/// The tables as a JSON tree on the shared schema (same content as
/// [`render_markdown`], machine-readable).
pub fn tables_json(report: &CampaignReport) -> Json {
    let entries = entries_in(report);
    let classes: Vec<Json> = class_tenants(report)
        .iter()
        .map(|t| Json::str(t.spec.class.name()))
        .collect();

    let table1 = entries
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(e.name)),
                (
                    "versions".to_string(),
                    Json::Arr(
                        e.paper_versions
                            .iter()
                            .map(|v| Json::str(v.name()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let layouts = |group: Group| -> Json {
        Json::Arr(
            entries
                .iter()
                .filter(|e| e.group == group)
                .map(|e| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::str(e.name)),
                        (
                            "layouts".to_string(),
                            Json::Arr(e.layouts.iter().map(|l| Json::str(*l)).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    };

    let patterns = |group: Group| -> Json {
        Json::Arr(
            measured_patterns(report, group)
                .into_iter()
                .map(|(pattern, codes)| {
                    Json::Obj(vec![
                        ("pattern".to_string(), Json::str(pattern)),
                        (
                            "codes".to_string(),
                            Json::Arr(codes.into_iter().map(Json::str).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    };

    let ratios = |group: Group| -> Json {
        Json::Arr(
            ratio_rows(report, &entries, group)
                .into_iter()
                .map(|(entry, class, row)| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::str(entry.name)),
                        ("class".to_string(), Json::str(class)),
                        ("flops_per_iter".to_string(), Json::U64(flops_per_iter(row))),
                        ("memory_bytes".to_string(), Json::U64(row.memory_bytes)),
                        ("comm_per_iter".to_string(), Json::F64(comm_per_iter(row))),
                        (
                            "access".to_string(),
                            Json::str(entry.local_access.to_string()),
                        ),
                        ("paper_flops".to_string(), Json::str(entry.flops_formula)),
                        ("paper_comm".to_string(), Json::str(entry.comm_formula)),
                    ])
                })
                .collect(),
        )
    };

    let table8 = techniques(&entries)
        .into_iter()
        .flat_map(|(pattern, codes)| {
            codes.into_iter().map(move |(code, technique)| {
                Json::Obj(vec![
                    ("pattern".to_string(), Json::str(pattern)),
                    ("code".to_string(), Json::str(code)),
                    ("technique".to_string(), Json::str(technique)),
                ])
            })
        })
        .collect();

    Json::Obj(vec![
        ("campaign".to_string(), Json::str(&report.name)),
        ("classes".to_string(), Json::Arr(classes)),
        ("table1".to_string(), Json::Arr(table1)),
        ("table2".to_string(), layouts(Group::LinearAlgebra)),
        ("table3".to_string(), patterns(Group::LinearAlgebra)),
        ("table4".to_string(), ratios(Group::LinearAlgebra)),
        ("table5".to_string(), layouts(Group::Application)),
        ("table6".to_string(), ratios(Group::Application)),
        ("table7".to_string(), patterns(Group::Application)),
        ("table8".to_string(), Json::Arr(table8)),
    ])
}

/// [`tables_json`] rendered via the shared schema.
pub fn render_json(report: &CampaignReport) -> String {
    tables_json(report).render()
}

/// Write a campaign's three artifacts — `campaign.json`, `tables.md`,
/// `tables.json` — into `dir`, each through the atomic writer: a crash
/// at any point leaves every file either absent, previous, or complete,
/// never torn.
pub fn write_artifacts(report: &CampaignReport, dir: &std::path::Path) -> Result<(), DpfError> {
    crate::artifact::write_atomic(&dir.join("campaign.json"), &report.render_json())?;
    crate::artifact::write_atomic(&dir.join("tables.md"), &render_markdown(report))?;
    crate::artifact::write_atomic(&dir.join("tables.json"), &render_json(report))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSpec, ExecMode};

    fn mini_report() -> CampaignReport {
        let spec = CampaignSpec {
            benchmarks: vec![
                "conj-grad".to_string(),
                "gather".to_string(),
                "wave-1D".to_string(),
            ],
            procs: vec![2],
            ..CampaignSpec::default()
        };
        run_campaign(&spec, ExecMode::Serial).unwrap()
    }

    #[test]
    fn markdown_covers_every_table() {
        let md = render_markdown(&mini_report());
        for n in 1..=8 {
            assert!(md.contains(&format!("Table {n}.")), "missing table {n}");
        }
        assert!(md.contains("| conj-grad |"));
        assert!(md.contains("CSHIFT"));
        assert!(!md.to_lowercase().contains("elapsed"), "no timing columns");
    }

    #[test]
    fn markdown_never_mentions_backends() {
        // Backend-invariance by construction: the artifact has no
        // backend axis to vary with.
        let md = render_markdown(&mini_report()).to_lowercase();
        assert!(!md.contains("virtual"));
        assert!(!md.contains("spmd"));
    }

    #[test]
    fn json_round_trips_through_schema() {
        let text = render_json(&mini_report());
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        assert_eq!(
            back.get("table1").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
