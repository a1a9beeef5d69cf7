//! The rule catalog. Every rule is a pure function over one lexed
//! [`SourceFile`], so rules compose and test in isolation. Facts that
//! live as Rust values (the §1.5 FLOP weights, the per-benchmark
//! pattern inventory, the Table 1 version matrix, the `try_*` twins)
//! are checked by the compiler or a `#[test]` over the value instead.
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | `nan-unsafe-fold`  | error   | verify/reduction folds must use `dpf_core::nan_max`/`nan_min` (IEEE `max` drops NaN) |
//! | `untimed-clock`    | warning | `Instant::now()` only in the sanctioned metrics/harness modules (§1.5 busy/elapsed stays centralized) |
//! | `hot-path-alloc`   | warning | no `Vec::new`/`vec![`/`.collect()`/`.to_vec()` inside `*_into`/`*_exec` hot paths (PR 1 buffer-reuse discipline) |
//! | `hot-path-clone`   | warning | no `.clone()` of a `DistArray` parameter inside `*_into`/`*_exec` hot paths (a clone is a whole-block copy) |
//! | `metered-send`     | error   | raw channel sends in `spmd.rs` only inside the LinkMeter/envelope path (`Router::send` → `transmit`/`send_ctl`) |
//! | `unsafe-forbid`    | error   | the repo is `unsafe`-free; any new `unsafe` needs a `// SAFETY:` comment *and* an allow pragma |
//! | `atomic-artifact`  | warning | no direct `fs::write`/`File::create` outside the atomic artifact writer (torn files break `--resume` and `dpf tables --campaign`) |
//! | `collective-parity`| error   | a collective (barrier, `*_exec`, `*_workers`, sparse-exchange handshake) under a rank-dependent branch needs a matching call on every sibling path (static SPMD deadlock) |
//! | `lock-order`       | error   | every lock pair is acquired in one consistent order across a file's functions (guard lifetimes per edition 2021) |
//! | `determinism-taint`| error   | hash iteration / wall clock / thread id / unordered FP reduce must not flow into Verify, instrumentation or serialized artifacts |

use crate::lex::Tok;
use crate::{Diagnostic, Severity, SourceFile};
use std::collections::BTreeMap;

/// One registered per-file rule.
pub struct Rule {
    /// Stable identifier used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line description for `--help` / docs.
    pub summary: &'static str,
    /// The check itself.
    pub check: fn(&SourceFile) -> Vec<Diagnostic>,
}

/// All per-file rules, in catalog order.
pub const FILE_RULES: &[Rule] = &[
    Rule {
        id: "nan-unsafe-fold",
        summary: "verify/reduction folds must use dpf_core::nan_max / nan_min",
        check: nan_unsafe_fold,
    },
    Rule {
        id: "untimed-clock",
        summary: "Instant::now() only in the sanctioned metrics/harness modules",
        check: untimed_clock,
    },
    Rule {
        id: "hot-path-alloc",
        summary: "no allocation inside *_into / *_exec hot paths",
        check: hot_path_alloc,
    },
    Rule {
        id: "hot-path-clone",
        summary: "no DistArray clones inside *_into / *_exec hot paths",
        check: hot_path_clone,
    },
    Rule {
        id: "metered-send",
        summary: "spmd.rs channel sends go through the LinkMeter/envelope path",
        check: metered_send,
    },
    Rule {
        id: "unsafe-forbid",
        summary: "no unsafe without a SAFETY comment and an allow pragma",
        check: unsafe_forbid,
    },
    Rule {
        id: "atomic-artifact",
        summary: "file writes go through the atomic artifact writer",
        check: atomic_artifact,
    },
    Rule {
        id: "collective-parity",
        summary: "collectives under rank-dependent branches must have matching sibling calls",
        check: crate::flow::check_collective_parity,
    },
    Rule {
        id: "lock-order",
        summary: "lock pairs are acquired in one consistent order",
        check: crate::flow::check_lock_order,
    },
    Rule {
        id: "determinism-taint",
        summary: "nondeterminism sources must not flow into Verify/meter/artifact state",
        check: crate::taint::check_determinism_taint,
    },
];

fn ident(t: Option<&crate::lex::Token>, s: &str) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Ident(i)) if i == s)
}

fn ident_in(t: Option<&crate::lex::Token>, set: &[&str]) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Ident(i)) if set.contains(&i.as_str()))
}

fn punct(t: Option<&crate::lex::Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `a::b` starting at token `i` (four tokens: Ident, ':', ':', Ident).
fn path2(f: &SourceFile, i: usize, heads: &[&str], tails: &[&str]) -> bool {
    ident_in(f.tokens.get(i), heads)
        && punct(f.tokens.get(i + 1), ':')
        && punct(f.tokens.get(i + 2), ':')
        && ident_in(f.tokens.get(i + 3), tails)
}

// ------------------------------------------------------ nan-unsafe-fold

/// Spans (token-index ranges) of `.fold(` / `.reduce(` argument lists
/// whose seed is a floating literal (or an `f64::`/`f32::` constant) —
/// the classic worst-error fold shape.
fn float_fold_spans(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..f.tokens.len() {
        if !(punct(f.tokens.get(i), '.')
            && ident_in(f.tokens.get(i + 1), &["fold", "reduce"])
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        let mut k = i + 3;
        // Skip a leading unary minus on the seed.
        if punct(f.tokens.get(k), '-') {
            k += 1;
        }
        let float_seed = matches!(f.tokens.get(k).map(|t| &t.tok), Some(Tok::Float(_)))
            || ident_in(f.tokens.get(k), &["f64", "f32"]);
        if !float_seed {
            continue;
        }
        // Find the matching close paren of the fold call.
        let mut depth = 1usize;
        let mut j = i + 3;
        while j < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(j), '(') {
                depth += 1;
            } else if punct(f.tokens.get(j), ')') {
                depth -= 1;
            }
            j += 1;
        }
        spans.push((i + 3, j));
    }
    spans
}

fn nan_unsafe_fold(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let spans = float_fold_spans(f);
    for i in 0..f.tokens.len() {
        // `f64::max` / `f32::min` as a path — NaN-dropping wherever it
        // appears (typically passed to a fold).
        if path2(f, i, &["f64", "f32"], &["max", "min"]) {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "nan-unsafe-fold",
                Severity::Error,
                "IEEE f64::max/min silently drops NaN, so a poisoned buffer can fold to a passing metric"
                    .into(),
                "use dpf_core::nan_max / dpf_core::nan_min".into(),
            ));
            continue;
        }
        // `.max(` / `.min(` method call.
        if !(punct(f.tokens.get(i), '.')
            && ident_in(f.tokens.get(i + 1), &["max", "min"])
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        // Integer clamps (`.max(1)`, `.min(8)`) are fine anywhere, and
        // zero-argument `.max()`/`.min()` is `Iterator::max` — it needs
        // `Ord`, which f64 does not implement, so it cannot drop NaN.
        if matches!(f.tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Int(_)))
            || punct(f.tokens.get(i + 3), ')')
        {
            continue;
        }
        let in_verify = f
            .fn_at(i)
            .is_some_and(|s| s.returns_verify || s.name.contains("verify"));
        let in_float_fold = spans.iter().any(|&(a, b)| i >= a && i < b);
        if in_verify || in_float_fold {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "nan-unsafe-fold",
                Severity::Error,
                "bare .max()/.min() in verify/reduction code drops NaN (0.0f64.max(NAN) == 0.0)"
                    .into(),
                "fold with dpf_core::nan_max / dpf_core::nan_min instead".into(),
            ));
        }
    }
    out
}

// -------------------------------------------------------- untimed-clock

/// Modules allowed to read the wall clock: the instrumentation layer
/// that owns §1.5 busy/elapsed accounting and the watchdog harness that
/// owns attempt timeouts. Everything else must go through them.
const CLOCK_SANCTIONED: &[&str] = &["dpf-core/src/instr.rs", "dpf-suite/src/harness.rs"];

fn untimed_clock(f: &SourceFile) -> Vec<Diagnostic> {
    if CLOCK_SANCTIONED.iter().any(|m| f.path.ends_with(m)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if path2(f, i, &["Instant", "SystemTime"], &["now"]) {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "untimed-clock",
                Severity::Warning,
                "raw clock read outside the metrics/harness layer fragments §1.5 busy/elapsed accounting"
                    .into(),
                "time phases via Ctx::busy / the Instr layer, or justify with an allow pragma"
                    .into(),
            ));
        }
    }
    out
}

// ------------------------------------------------------- hot-path-alloc

/// Token spans of `run_workers(...)` call argument lists. The worker
/// closure passed to `run_workers` is SPMD *protocol* code: message
/// payloads are owned frames handed to the router, so allocating them
/// is the point, not a hot-path leak. The rule guards the numeric path
/// around the protocol, not the protocol itself.
fn worker_closure_spans(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..f.tokens.len() {
        if !(ident(f.tokens.get(i), "run_workers") && punct(f.tokens.get(i + 1), '(')) {
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(j), '(') {
                depth += 1;
            } else if punct(f.tokens.get(j), ')') {
                depth -= 1;
            }
            j += 1;
        }
        spans.push((i + 2, j));
    }
    spans
}

fn hot_path_alloc(f: &SourceFile) -> Vec<Diagnostic> {
    let protocol = worker_closure_spans(f);
    let mut out = Vec::new();
    let mut flag = |i: usize, what: &str| {
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "hot-path-alloc",
            Severity::Warning,
            format!("{what} allocates inside a zero-allocation hot path"),
            "reuse a caller buffer or Ctx::scratch from the BufferPool".into(),
        ));
    };
    for i in 0..f.tokens.len() {
        let Some(span) = f.fn_at(i) else { continue };
        if !(span.name.ends_with("_into") || span.name.ends_with("_exec")) {
            continue;
        }
        if protocol.iter().any(|&(a, b)| i >= a && i < b) {
            continue;
        }
        if path2(f, i, &["Vec"], &["new", "with_capacity"]) {
            flag(i, "Vec::new/with_capacity");
        } else if ident(f.tokens.get(i), "vec") && punct(f.tokens.get(i + 1), '!') {
            flag(i, "vec![]");
        } else if punct(f.tokens.get(i), '.') && ident(f.tokens.get(i + 1), "collect") {
            flag(i, ".collect()");
        } else if punct(f.tokens.get(i), '.')
            && ident(f.tokens.get(i + 1), "to_vec")
            && punct(f.tokens.get(i + 2), '(')
        {
            flag(i, ".to_vec()");
        }
    }
    out
}

// ------------------------------------------------------- hot-path-clone

/// `DistArray`-typed parameter names per `*_into`/`*_exec` fn in the
/// file. Heuristic: inside the fn's parenthesized parameter list, an
/// `ident :` at top nesting level (not the `::` of a path) starts a
/// parameter whose type region runs to the next top-level parameter or
/// the closing paren; the parameter counts if `DistArray` appears
/// anywhere in that region.
fn hot_fn_distarray_params(f: &SourceFile) -> BTreeMap<String, Vec<String>> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for i in 0..f.tokens.len() {
        if !ident(f.tokens.get(i), "fn") {
            continue;
        }
        let Some(Tok::Ident(name)) = f.tokens.get(i + 1).map(|t| &t.tok) else {
            continue;
        };
        if !(name.ends_with("_into") || name.ends_with("_exec")) {
            continue;
        }
        // Skip any generic parameter list between the name and `(`.
        let mut j = i + 2;
        while j < f.tokens.len() && !punct(f.tokens.get(j), '(') {
            if punct(f.tokens.get(j), '{') {
                break;
            }
            j += 1;
        }
        if !punct(f.tokens.get(j), '(') {
            continue;
        }
        let mut depth = 1usize;
        let mut k = j + 1;
        let mut current: Option<String> = None;
        while k < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(k), '(') {
                depth += 1;
            } else if punct(f.tokens.get(k), ')') {
                depth -= 1;
            } else if depth == 1 {
                if let Some(Tok::Ident(p)) = f.tokens.get(k).map(|t| &t.tok) {
                    if punct(f.tokens.get(k + 1), ':') && !punct(f.tokens.get(k + 2), ':') {
                        current = Some(p.clone());
                    } else if p == "DistArray" {
                        if let Some(cur) = &current {
                            map.entry(name.clone()).or_default().push(cur.clone());
                        }
                    }
                }
            }
            k += 1;
        }
    }
    map
}

fn hot_path_clone(f: &SourceFile) -> Vec<Diagnostic> {
    let params = hot_fn_distarray_params(f);
    if params.is_empty() {
        return Vec::new();
    }
    let protocol = worker_closure_spans(f);
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let Some(Tok::Ident(var)) = f.tokens.get(i).map(|t| &t.tok) else {
            continue;
        };
        // `var.clone(` — a chained receiver like `x.layout().clone()`
        // never matches (the token before `.clone` is `)`), so cheap
        // clones of metadata stay legal.
        if !(punct(f.tokens.get(i + 1), '.')
            && ident(f.tokens.get(i + 2), "clone")
            && punct(f.tokens.get(i + 3), '('))
        {
            continue;
        }
        let Some(span) = f.fn_at(i) else { continue };
        if !(span.name.ends_with("_into") || span.name.ends_with("_exec")) {
            continue;
        }
        if protocol.iter().any(|&(a, b)| i >= a && i < b) {
            continue;
        }
        let Some(ps) = params.get(&span.name) else {
            continue;
        };
        if !ps.iter().any(|p| p == var) {
            continue;
        }
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "hot-path-clone",
            Severity::Warning,
            format!("`{var}.clone()` copies a whole DistArray inside a zero-allocation hot path"),
            "borrow the input, or reuse a pooled buffer via DistArray::scratch".into(),
        ));
    }
    out
}

// --------------------------------------------------------- metered-send

/// Functions inside the transport that *are* the envelope path: the
/// only places a raw channel `.send(` is legitimate. `send_ctl` carries
/// the one control frame — a dying worker's wake — which is never
/// metered as a §1.5 logical message.
const ENVELOPE_PATH: &[&str] = &["transmit", "send_ctl"];

fn metered_send(f: &SourceFile) -> Vec<Diagnostic> {
    if !(f.path.ends_with("/spmd.rs") || f.path == "spmd.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 1..f.tokens.len() {
        if !(punct(f.tokens.get(i), '.')
            && ident(f.tokens.get(i + 1), "send")
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        // Receiver heuristic: the identifier just before the dot. A
        // `router.send(...)` (or anything named `*router`) is the
        // metered API; everything else is a raw channel endpoint.
        let metered_receiver = matches!(
            f.tokens.get(i - 1).map(|t| &t.tok),
            Some(Tok::Ident(r)) if r.ends_with("router")
        );
        if metered_receiver {
            continue;
        }
        let in_envelope_path = f
            .fn_at(i)
            .is_some_and(|s| ENVELOPE_PATH.contains(&s.name.as_str()));
        if !in_envelope_path {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "metered-send",
                Severity::Error,
                "raw channel send bypasses the LinkMeter/envelope path, so §1.5 message counts drift"
                    .into(),
                "send through Router::send (or extend transmit/send_ctl if this is protocol traffic)"
                    .into(),
            ));
        }
    }
    out
}

// -------------------------------------------------------- unsafe-forbid

fn unsafe_forbid(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if !ident(f.tokens.get(i), "unsafe") {
            continue;
        }
        let line = f.tokens[i].line;
        let has_safety = f.comments.iter().any(|c| {
            c.line + 3 >= line && c.line <= line && c.text.trim_start().starts_with("SAFETY:")
        });
        let mut d = Diagnostic::new(
            &f.path,
            line,
            "unsafe-forbid",
            Severity::Error,
            if has_safety {
                "the repo is unsafe-free by policy; this block needs an explicit allow pragma"
                    .into()
            } else {
                "unsafe without a `// SAFETY:` justification comment".into()
            },
            "add `// SAFETY: <why this is sound>` and `// dpf-lint: allow(unsafe-forbid, reason = ...)`"
                .into(),
        );
        d.suppressible = has_safety;
        out.push(d);
    }
    out
}

// ------------------------------------------------------ atomic-artifact

/// The modules allowed to create files directly: the atomic writer
/// itself (its temp file is the mechanism) and the journal (its
/// append-only file is fsync'd per record, a different durability
/// discipline that rename-replace cannot express).
const ARTIFACT_SANCTIONED: &[&str] = &["dpf-suite/src/artifact.rs", "dpf-suite/src/journal.rs"];

/// A bare `fs::write` (or `File::create`) left a truncated file under
/// its final name when the process died mid-write — exactly the torn
/// artifact that `dpf tables --campaign` then chokes on. Everything
/// machine-read must go through `dpf_suite::artifact::write_atomic`
/// (temp + fsync + rename), so readers only ever observe complete
/// files.
fn atomic_artifact(f: &SourceFile) -> Vec<Diagnostic> {
    if ARTIFACT_SANCTIONED.iter().any(|m| f.path.ends_with(m)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let what = if path2(f, i, &["fs"], &["write"]) {
            "fs::write"
        } else if path2(f, i, &["File"], &["create"]) {
            "File::create"
        } else {
            continue;
        };
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "atomic-artifact",
            Severity::Warning,
            format!("direct {what} publishes a torn file if the process dies mid-write"),
            "write through dpf_suite::artifact::write_atomic (temp + fsync + rename)".into(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    fn rules_hit(src: &str, path: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn nan_fold_catches_the_pr2_bug_class() {
        let src = r#"
pub fn check(errs: &[f64]) -> Verify {
    let worst = errs.iter().fold(0.0, |m, v| m.max(v.abs()));
    Verify::check("residual", worst, 1e-9)
}
"#;
        let hits = rules_hit(src, "crates/dpf-apps/src/x.rs");
        assert!(hits.contains(&("nan-unsafe-fold", 3)), "{hits:?}");
    }

    #[test]
    fn nan_fold_catches_f64_max_path_and_float_folds_outside_verify() {
        let src = "fn any() { let w = xs.iter().copied().fold(0.0f64, f64::max); }";
        let hits = rules_hit(src, "a.rs");
        assert!(hits.iter().any(|h| h.0 == "nan-unsafe-fold"), "{hits:?}");
        let src2 = "fn any() { let w = xs.iter().fold(-f64::INFINITY, |m, v| m.max(v)); }";
        assert!(rules_hit(src2, "a.rs")
            .iter()
            .any(|h| h.0 == "nan-unsafe-fold"));
    }

    #[test]
    fn nan_fold_ignores_integer_clamps_and_domain_math() {
        // usize clamp inside a verify fn, and float math outside one.
        let src = "
pub fn verify_shape(n: usize) -> Verify { let m = n.max(1); Verify::NotApplicable }
fn step(d: f64, nx: f64) -> f64 { d.min(nx - d) }
";
        assert!(rules_hit(src, "a.rs").is_empty());
    }

    #[test]
    fn untimed_clock_spares_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(!rules_hit(src, "crates/dpf-core/src/instr.rs")
            .iter()
            .any(|h| h.0 == "untimed-clock"));
        assert!(rules_hit(src, "crates/dpf-apps/src/md.rs")
            .iter()
            .any(|h| h.0 == "untimed-clock"));
    }

    #[test]
    fn hot_path_alloc_scopes_to_into_and_exec() {
        let src = "
pub fn map_into(out: &mut [f64]) { let v: Vec<f64> = xs.iter().collect(); }
pub fn map(xs: &[f64]) -> Vec<f64> { xs.to_vec() }
";
        let hits = rules_hit(src, "a.rs");
        assert!(hits.contains(&("hot-path-alloc", 2)), "{hits:?}");
        assert_eq!(hits.iter().filter(|h| h.0 == "hot-path-alloc").count(), 1);
    }

    #[test]
    fn hot_path_clone_flags_distarray_param_clones() {
        let src = "
pub fn fuse_into(ctx: &Ctx, a: &DistArray<f64>, out: &mut DistArray<f64>) {
    let staging = a.clone();
    let lay = out.layout().clone();
}
pub fn build(a: &DistArray<f64>) -> DistArray<f64> { a.clone() }
";
        let hits = rules_hit(src, "a.rs");
        // The DistArray parameter clone in the hot path is flagged...
        assert!(hits.contains(&("hot-path-clone", 3)), "{hits:?}");
        // ...but the metadata clone and the non-hot fn are not.
        assert_eq!(hits.iter().filter(|h| h.0 == "hot-path-clone").count(), 1);
    }

    #[test]
    fn hot_path_clone_ignores_non_distarray_params() {
        let src = "
pub fn scale_into(plan: &Plan, out: &mut DistArray<f64>) {
    let p = plan.clone();
}
";
        assert!(!rules_hit(src, "a.rs")
            .iter()
            .any(|h| h.0 == "hot-path-clone"));
    }

    #[test]
    fn metered_send_flags_raw_channel_sends_in_spmd() {
        let src = "
fn leak(tx: &Sender<u8>) { tx.send(1).unwrap(); }
fn transmit(&self) { self.txs[0].send(frame).unwrap(); }
fn ok(router: &mut Router) { router.send(1, 8, msg); }
";
        let hits = rules_hit(src, "crates/dpf-core/src/spmd.rs");
        assert_eq!(
            hits.iter().filter(|h| h.0 == "metered-send").count(),
            1,
            "{hits:?}"
        );
        assert!(hits.contains(&("metered-send", 2)));
        // Same source outside spmd.rs: no rule.
        assert!(rules_hit(src, "crates/dpf-core/src/other.rs").is_empty());
    }

    #[test]
    fn atomic_artifact_spares_the_writer_and_journal() {
        let src = "
fn save(dir: &Path) {
    std::fs::write(dir.join(\"campaign.json\"), text).unwrap();
    let f = File::create(dir.join(\"tables.md\")).unwrap();
}
";
        let hits = rules_hit(src, "crates/dpf-cli/src/main.rs");
        assert_eq!(
            hits.iter().filter(|h| h.0 == "atomic-artifact").count(),
            2,
            "{hits:?}"
        );
        // The sanctioned modules are the mechanism, not a violation.
        assert!(!rules_hit(src, "crates/dpf-suite/src/artifact.rs")
            .iter()
            .any(|h| h.0 == "atomic-artifact"));
        assert!(!rules_hit(src, "crates/dpf-suite/src/journal.rs")
            .iter()
            .any(|h| h.0 == "atomic-artifact"));
    }

    #[test]
    fn unsafe_needs_safety_comment_and_pragma() {
        let bare = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let hits = lint_source("a.rs", bare);
        assert!(hits
            .iter()
            .any(|d| d.rule == "unsafe-forbid" && !d.suppressible));
        let excused = "
fn f() {
    // SAFETY: n < len checked above
    // dpf-lint: allow(unsafe-forbid, reason = \"bounds proven by caller\")
    unsafe { go(n) }
}
";
        let hits = lint_source("a.rs", excused);
        assert!(!hits.iter().any(|d| d.rule == "unsafe-forbid"), "{hits:?}");
        // SAFETY comment alone (no pragma) still fails.
        let half = "
fn f() {
    // SAFETY: trust me
    unsafe { go(n) }
}
";
        assert!(lint_source("a.rs", half)
            .iter()
            .any(|d| d.rule == "unsafe-forbid" && d.suppressible));
    }
}
