//! Control-flow rules over the brace tree: **collective-parity** and
//! **lock-order**.
//!
//! * collective-parity — inside `run_workers` worker closures and the
//!   `*_exec` protocol layer, a collective operation (barrier, the
//!   `*_exec` protocols and the `*_workers` bodies they run, the
//!   sparse-exchange handshake) reached under a rank-dependent branch
//!   with no matching call on the sibling branch is a *static*
//!   deadlock: every worker must arrive or none may. The
//!   runtime heartbeat detector only sees this class as a 2-second
//!   stall with a wait-for-graph dump; here it is a compile gate.
//!   Point-to-point `send`/`recv_from` are deliberately out of scope —
//!   asymmetric rank-0 sends (e.g. `broadcast_scalar_exec`) are the
//!   legitimate building blocks of the protocols.
//!
//! * lock-order — extract the lock-acquisition graph (which guards are
//!   held when another is taken) across all functions of a file and
//!   report pairwise ordering inversions. Guard lifetimes follow
//!   edition-2021 semantics: a `let`-bound guard lives to the end of
//!   its block; a temporary in an `if` condition or `match` scrutinee
//!   lives through the *whole* construct (the classic pre-2024
//!   footgun), and any other temporary dies at its statement's `;`.

use crate::ast::{self, Block, Node, Span};
use crate::lex::Tok;
use crate::{Diagnostic, Severity, SourceFile};
use std::collections::BTreeMap;

// ---------------------------------------------------- collective parity

/// Operations where every worker of the gang must participate: the
/// protocol layer by its naming convention — the `*_exec` drivers and the
/// `*_workers` bodies they run, `run_workers` among them — plus the
/// barrier and the sparse-exchange handshake.
fn is_collective(name: &str) -> bool {
    name.ends_with("_exec")
        || name.ends_with("_workers")
        || matches!(name, "barrier" | "sparse_send")
}

fn is_call(f: &SourceFile, i: usize) -> bool {
    matches!(f.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
}

/// Collective call sites `(name, line)` within a token span.
fn collective_calls(f: &SourceFile, span: Span) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in span.start..span.end.min(f.tokens.len()) {
        if let Tok::Ident(name) = &f.tokens[i].tok {
            if is_collective(name) && is_call(f, i) {
                out.push((name.clone(), f.tokens[i].line));
            }
        }
    }
    out
}

/// Does the span mention a rank-like identifier (`rank`, `wrank`,
/// `my_rank`, ...)? Worker closures universally bind the gang index
/// under a `rank`-suffixed name, so this is the divergence signal.
fn mentions_rank(f: &SourceFile, span: Span) -> bool {
    f.tokens[span.start..span.end.min(f.tokens.len())]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s.to_ascii_lowercase().contains("rank")))
}

/// Regions where collective parity must hold: every `run_workers(...)`
/// argument list (the worker closure lives there) and the body of every
/// `*_exec` protocol function.
fn parity_regions(f: &SourceFile) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if matches!(&f.tokens[i].tok, Tok::Ident(s) if s == "run_workers") && is_call(f, i) {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < f.tokens.len() {
                match &f.tokens[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push((
                "run_workers closure".to_string(),
                Span {
                    start: i + 2,
                    end: j,
                },
            ));
        }
    }
    // `*_exec` function bodies, from the enclosing-fn index.
    let mut ranges: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for (i, enc) in f.enclosing.iter().enumerate() {
        if let Some(k) = enc {
            if f.fns[*k].name.ends_with("_exec") {
                let e = ranges.entry(*k).or_insert((i, i));
                e.1 = i;
            }
        }
    }
    for (k, (lo, hi)) in ranges {
        out.push((
            format!("fn {}", f.fns[k].name),
            Span {
                start: lo,
                end: hi + 1,
            },
        ));
    }
    out
}

/// First exit token (`return`/`break`/`continue`) in a branch that
/// actually leaves the region: `break`/`continue` inside a loop nested
/// *within* the branch only exits that loop, so tokens inside nested
/// loop spans are skipped.
fn first_exit(f: &SourceFile, node: &Node) -> Option<(String, u32)> {
    match node {
        Node::Block(b) => first_exit_in_block(f, b),
        Node::If(n) => first_exit_in_block(f, &n.then_branch)
            .or_else(|| n.else_branch.as_deref().and_then(|e| first_exit(f, e))),
        _ => None,
    }
}

fn first_exit_in_block(f: &SourceFile, block: &Block) -> Option<(String, u32)> {
    let mut loop_spans: Vec<Span> = Vec::new();
    ast::walk(block, &mut |n| {
        if let Node::Loop(l) = n {
            loop_spans.push(l.span);
        }
    });
    let span = block.span;
    for i in span.start..span.end.min(f.tokens.len()) {
        if loop_spans.iter().any(|l| l.contains(i)) {
            continue;
        }
        if let Tok::Ident(s) = &f.tokens[i].tok {
            if s == "return" || s == "break" || s == "continue" {
                return Some((s.clone(), f.tokens[i].line));
            }
        }
    }
    None
}

/// A per-collective dynamic execution-count interval `[min, max]` for
/// one region of code: exact on straight-line code, widened through
/// branches (`min` of either side .. `max` of either side) and loops
/// (at-least-once assumed when the body participates). Two sibling
/// branches diverge only when some collective's intervals are
/// *disjoint* — a balanced `if` nested inside one branch (static count
/// 2, dynamic count 1) therefore never trips its parent.
type CountRange = BTreeMap<String, (u64, u64)>;

/// "Unbounded" loop iterations, kept finite so arithmetic stays simple.
const MANY: u64 = 1 << 30;

fn range_of_span(f: &SourceFile, span: Span) -> CountRange {
    let mut m = CountRange::new();
    for (name, _) in collective_calls(f, span) {
        let e = m.entry(name).or_insert((0, 0));
        e.0 += 1;
        e.1 += 1;
    }
    m
}

fn merge_seq(into: &mut CountRange, other: CountRange) {
    for (name, (lo, hi)) in other {
        let e = into.entry(name).or_insert((0, 0));
        e.0 = e.0.saturating_add(lo);
        e.1 = e.1.saturating_add(hi);
    }
}

fn merge_alt(branches: Vec<CountRange>) -> CountRange {
    let mut out = CountRange::new();
    let mut names: Vec<String> = branches.iter().flat_map(|b| b.keys().cloned()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for b in &branches {
            let (l, h) = b.get(&name).copied().unwrap_or((0, 0));
            lo = lo.min(l);
            hi = hi.max(h);
        }
        out.insert(name, (lo, hi));
    }
    out
}

fn range_of_node(f: &SourceFile, node: &Node) -> CountRange {
    match node {
        Node::Leaf(s) => range_of_span(f, *s),
        Node::Block(b) => range_of_block(f, b),
        Node::If(n) => {
            let mut header = range_of_span(f, n.cond);
            let then_r = range_of_block(f, &n.then_branch);
            let else_r = n
                .else_branch
                .as_deref()
                .map(|e| range_of_node(f, e))
                .unwrap_or_default();
            merge_seq(&mut header, merge_alt(vec![then_r, else_r]));
            header
        }
        Node::Match(n) => {
            let mut header = range_of_span(f, n.scrutinee);
            let arms: Vec<CountRange> = n.arms.iter().map(|a| range_of_node(f, &a.body)).collect();
            if !arms.is_empty() {
                merge_seq(&mut header, merge_alt(arms));
            }
            header
        }
        Node::Loop(n) => {
            // A loop whose body participates is assumed to run at least
            // once and possibly many times: a rank-gated loop around a
            // barrier is still a divergence.
            let mut header = range_of_span(f, n.header);
            let mut body = range_of_block(f, &n.body);
            for (_, (_, hi)) in body.iter_mut() {
                if *hi > 0 {
                    *hi = MANY;
                }
            }
            merge_seq(&mut header, body);
            header
        }
    }
}

fn range_of_block(f: &SourceFile, b: &Block) -> CountRange {
    let mut out = CountRange::new();
    for child in &b.children {
        merge_seq(&mut out, range_of_node(f, child));
    }
    out
}

/// Names whose intervals in `a` and `b` are disjoint (true divergence).
fn disjoint_names(a: &CountRange, b: &CountRange) -> Vec<String> {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter(|name| {
            let (al, ah) = a.get(*name).copied().unwrap_or((0, 0));
            let (bl, bh) = b.get(*name).copied().unwrap_or((0, 0));
            ah < bl || bh < al
        })
        .cloned()
        .collect()
}

/// The collective-parity rule.
pub fn check_collective_parity(f: &SourceFile) -> Vec<Diagnostic> {
    let regions = parity_regions(f);
    if regions.is_empty() {
        return Vec::new();
    }
    let tree = ast::parse(&f.tokens);
    let mut nodes: Vec<&Node> = Vec::new();
    ast::walk(&tree, &mut |n| nodes.push(n));
    // `else if` arms are branches of their chain head, not independent
    // rank gates: skip them at top level (the chain walk covers them).
    let mut chained: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for node in &nodes {
        if let Node::If(n) = node {
            if let Some(Node::If(e)) = n.else_branch.as_deref() {
                chained.insert(e.span.start);
            }
        }
    }
    let mut diags = Vec::new();
    let mut seen: std::collections::BTreeSet<(u32, String)> = std::collections::BTreeSet::new();
    for (label, region) in &regions {
        for node in &nodes {
            if !region.encloses(node.span()) {
                continue;
            }
            match node {
                Node::If(n) if !chained.contains(&n.span.start) => {
                    // Flatten the whole else-if chain into branches.
                    let mut branch_blocks: Vec<&Block> = Vec::new();
                    let mut rank_dep = false;
                    let mut has_final_else = false;
                    let mut cur = n;
                    loop {
                        rank_dep |= mentions_rank(f, cur.cond);
                        branch_blocks.push(&cur.then_branch);
                        match cur.else_branch.as_deref() {
                            Some(Node::If(e)) => cur = e,
                            Some(Node::Block(b)) => {
                                branch_blocks.push(b);
                                has_final_else = true;
                                break;
                            }
                            _ => break,
                        }
                    }
                    if !rank_dep {
                        continue;
                    }
                    let mut ranges: Vec<CountRange> =
                        branch_blocks.iter().map(|b| range_of_block(f, b)).collect();
                    if !has_final_else {
                        ranges.push(CountRange::new()); // the implicit empty else
                    }
                    let mut flagged = false;
                    for bi in 0..ranges.len() {
                        for bj in bi + 1..ranges.len() {
                            for name in disjoint_names(&ranges[bi], &ranges[bj]) {
                                // Anchor at the first call site of the
                                // richer branch.
                                let richer = if ranges[bi].get(&name).map_or(0, |r| r.0)
                                    >= ranges[bj].get(&name).map_or(0, |r| r.0)
                                {
                                    bi
                                } else {
                                    bj
                                };
                                let line = branch_blocks
                                    .get(richer)
                                    .and_then(|b| {
                                        collective_calls(f, b.span)
                                            .into_iter()
                                            .find(|(n2, _)| *n2 == name)
                                            .map(|(_, l)| l)
                                    })
                                    .unwrap_or(n.line);
                                if seen.insert((line, name.clone())) {
                                    flagged = true;
                                    diags.push(Diagnostic::new(
                                        &f.path,
                                        line,
                                        "collective-parity",
                                        Severity::Error,
                                        format!(
                                            "collective `{name}` is reached on one branch \
                                             of the rank-dependent `if` at line {} but not \
                                             on a sibling branch ({label}): ranks taking \
                                             the other path never arrive and the gang \
                                             deadlocks",
                                            n.line
                                        ),
                                        "hoist the collective out of the branch, or make \
                                         every rank execute a matching call"
                                            .into(),
                                    ));
                                }
                            }
                        }
                    }
                    if !flagged {
                        // Balanced collectives: still check for a
                        // rank-dependent early exit that skips
                        // collectives later in the region.
                        check_exit_divergence(f, n, *region, label, &mut seen, &mut diags);
                    }
                }
                Node::Match(n) => {
                    let rank_dep = mentions_rank(f, n.scrutinee)
                        || n.arms.iter().any(|a| mentions_rank(f, a.pat));
                    if !rank_dep || n.arms.is_empty() {
                        continue;
                    }
                    let ranges: Vec<CountRange> =
                        n.arms.iter().map(|a| range_of_node(f, &a.body)).collect();
                    'outer: for ai in 0..ranges.len() {
                        for aj in ai + 1..ranges.len() {
                            if let Some(name) = disjoint_names(&ranges[ai], &ranges[aj]).first() {
                                let richer = if ranges[ai].get(name).map_or(0, |r| r.0)
                                    >= ranges[aj].get(name).map_or(0, |r| r.0)
                                {
                                    ai
                                } else {
                                    aj
                                };
                                let line = collective_calls(f, n.arms[richer].body.span())
                                    .into_iter()
                                    .find(|(n2, _)| n2 == name)
                                    .map(|(_, l)| l)
                                    .unwrap_or(n.line);
                                if seen.insert((line, name.clone())) {
                                    diags.push(Diagnostic::new(
                                        &f.path,
                                        line,
                                        "collective-parity",
                                        Severity::Error,
                                        format!(
                                            "match on a rank-dependent value at line {} \
                                             reaches collective `{name}` in the arm at \
                                             line {} but not in the arm at line {} \
                                             ({label}): ranks taking the bare arm never \
                                             arrive",
                                            n.line,
                                            n.arms[richer].line,
                                            n.arms[if richer == ai { aj } else { ai }].line
                                        ),
                                        "give every arm the same collective sequence, or \
                                         lift the collective out of the match"
                                            .into(),
                                    ));
                                }
                                break 'outer;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    diags
}

/// A rank-dependent branch that exits early (return/break/continue)
/// while collectives remain later in the region strands the other
/// ranks at those collectives.
fn check_exit_divergence(
    f: &SourceFile,
    n: &ast::IfNode,
    region: Span,
    label: &str,
    seen: &mut std::collections::BTreeSet<(u32, String)>,
    diags: &mut Vec<Diagnostic>,
) {
    let then_exit = first_exit_in_block(f, &n.then_branch);
    let else_exit = n.else_branch.as_deref().and_then(|e| first_exit(f, e));
    let exit = match (then_exit, else_exit) {
        (Some(e), None) => e,
        (None, Some(e)) => e,
        _ => return, // symmetric (both or neither exit)
    };
    let rest = Span {
        start: n.span.end,
        end: region.end,
    };
    let later = collective_calls(f, rest);
    if let Some((name, cline)) = later.first() {
        let (kw, line) = exit;
        if seen.insert((line, name.clone())) {
            diags.push(Diagnostic::new(
                &f.path,
                line,
                "collective-parity",
                Severity::Error,
                format!(
                    "rank-dependent `{kw}` at line {line} skips collective `{name}` at \
                     line {cline} ({label}): exiting ranks never arrive and the rest \
                     of the gang blocks forever"
                ),
                "exit only after the remaining collectives, or exit on every rank".into(),
            ));
        }
    }
}

// ----------------------------------------------------------- lock order

/// One lock acquisition: which lock, where, and how long the guard
/// lives (token index one past the last held position).
#[derive(Debug)]
struct Acquisition {
    id: String,
    idx: usize,
    line: u32,
    scope_end: usize,
}

/// The lock-order rule: build the held-while-acquiring graph for one
/// file and report pairwise inversions.
pub fn check_lock_order(f: &SourceFile) -> Vec<Diagnostic> {
    let acqs = find_acquisitions(f);
    if acqs.len() < 2 {
        return Vec::new();
    }
    // edge (held → taken) -> (line taken under hold, line of hold)
    let mut edges: BTreeMap<(String, String), (u32, u32)> = BTreeMap::new();
    for a in &acqs {
        for b in &acqs {
            if b.idx > a.idx && b.idx < a.scope_end && b.id != a.id {
                edges
                    .entry((a.id.clone(), b.id.clone()))
                    .or_insert((b.line, a.line));
            }
        }
    }
    let mut diags = Vec::new();
    for ((x, y), &(xy_line, x_line)) in &edges {
        if x >= y {
            continue; // report each unordered pair once, from its sorted side
        }
        if let Some(&(yx_line, y_line)) = edges.get(&(y.clone(), x.clone())) {
            // Anchor at the later-in-file acquisition so a pragma sits
            // next to one concrete site.
            let line = xy_line.max(yx_line);
            diags.push(Diagnostic::new(
                &f.path,
                line,
                "lock-order",
                Severity::Error,
                format!(
                    "lock ordering inversion between `{x}` and `{y}`: `{y}` is taken \
                     while holding `{x}` (line {x_line} → {xy_line}) but `{x}` is taken \
                     while holding `{y}` (line {y_line} → {yx_line}); two threads \
                     interleaving these paths deadlock"
                ),
                "pick one acquisition order for this lock pair and use it on every path".into(),
            ));
        }
    }
    diags
}

/// Find every `Mutex`/`RwLock` acquisition (`.lock()`, and `.read()` /
/// `.write()` with empty argument lists) and compute its guard scope.
fn find_acquisitions(f: &SourceFile) -> Vec<Acquisition> {
    let toks = &f.tokens;
    // Innermost enclosing-block close index per token, by brace matching.
    let mut close_of: Vec<usize> = vec![toks.len(); toks.len()];
    {
        let mut stack: Vec<usize> = Vec::new();
        let mut opens: Vec<Option<usize>> = vec![None; toks.len()];
        for (i, t) in toks.iter().enumerate() {
            match &t.tok {
                Tok::Punct('{') => stack.push(i),
                Tok::Punct('}') => {
                    if let Some(open) = stack.pop() {
                        opens[open] = Some(i);
                    }
                }
                _ => {}
            }
        }
        let mut live: Vec<(usize, usize)> = Vec::new(); // (open, close)
        for i in 0..toks.len() {
            while let Some(&(_, c)) = live.last() {
                if i > c {
                    live.pop();
                } else {
                    break;
                }
            }
            if let Tok::Punct('{') = &toks[i].tok {
                if let Some(c) = opens[i] {
                    live.push((i, c));
                }
            }
            close_of[i] = live.last().map(|&(_, c)| c).unwrap_or(toks.len());
        }
    }
    // Construct spans whose header temporaries outlive the header:
    // if-conditions and match scrutinees hold guards through the whole
    // construct (edition-2021), while-let likewise through the loop.
    let tree = ast::parse(toks);
    let mut header_scopes: Vec<(Span, usize)> = Vec::new(); // (header, construct end)
    collect_headers(&tree, &mut header_scopes);

    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        let is_acq = matches!(&toks[i].tok, Tok::Punct('.'))
            && matches!(&toks[i + 1].tok, Tok::Ident(m) if m == "lock" || m == "read" || m == "write")
            && matches!(&toks[i + 2].tok, Tok::Punct('('))
            && matches!(&toks[i + 3].tok, Tok::Punct(')'));
        if !is_acq {
            i += 1;
            continue;
        }
        let Some(id) = receiver_name(toks, i) else {
            i += 1;
            continue;
        };
        let line = toks[i + 1].line;
        let after = i + 4; // one past `()`
        let scope_end = guard_scope(f, i, after, &close_of, &header_scopes);
        out.push(Acquisition {
            id,
            idx: i + 1,
            line,
            scope_end,
        });
        i = after;
    }
    out
}

fn collect_headers(block: &Block, out: &mut Vec<(Span, usize)>) {
    let mut visit = |n: &Node| match n {
        Node::If(i) => out.push((i.cond, i.span.end)),
        Node::Match(m) => out.push((m.scrutinee, m.span.end)),
        Node::Loop(l) => out.push((l.header, l.span.end)),
        _ => {}
    };
    ast::walk(block, &mut visit);
}

/// The lock's name: the field identifier the accessor is called on,
/// skipping index expressions (`self.sup.waits[rank].lock()` → `waits`)
/// and call parentheses (`self.shelf(k).lock()` → `shelf`).
fn receiver_name(toks: &[crate::lex::Token], dot: usize) -> Option<String> {
    let mut j = dot; // points at `.`
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &toks[j].tok {
            Tok::Ident(name) => return Some(name.clone()),
            Tok::Punct(']') | Tok::Punct(')') => {
                // Walk back over the balanced group, then continue.
                let mut depth = 1i32;
                while depth > 0 && j > 0 {
                    j -= 1;
                    match &toks[j].tok {
                        Tok::Punct(']') | Tok::Punct(')') => depth += 1,
                        Tok::Punct('[') | Tok::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
            }
            _ => return None,
        }
    }
}

/// How long the guard taken at token `dot` lives, as a token index.
fn guard_scope(
    f: &SourceFile,
    dot: usize,
    after: usize,
    close_of: &[usize],
    headers: &[(Span, usize)],
) -> usize {
    // Inside an if-condition / match-scrutinee / loop header: the
    // temporary lives through the whole construct. Pick the innermost.
    if let Some(end) = headers
        .iter()
        .filter(|(h, _)| h.contains(dot))
        .map(|&(_, e)| e)
        .min()
    {
        return end;
    }
    let toks = &f.tokens;
    // `let g = recv.lock();` (possibly `.unwrap()`/`.expect("...")`)
    // binds the guard to the enclosing block.
    let mut j = after;
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Punct('.')) => {
                let adapter = matches!(
                    toks.get(j + 1).map(|t| &t.tok),
                    Some(Tok::Ident(m)) if m == "unwrap" || m == "expect"
                );
                if adapter && matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    // Skip the adapter's argument group.
                    let mut depth = 0i32;
                    j += 2;
                    while j < toks.len() {
                        match &toks[j].tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            Some(Tok::Punct(';')) => {
                // Statement ends right after the acquisition chain: if
                // it started with `let`, the guard is named and block-
                // scoped.
                if stmt_is_let(toks, dot) {
                    return close_of[dot];
                }
                return j + 1;
            }
            _ => break,
        }
    }
    // Temporary inside a larger expression: dies at the statement `;`.
    let mut k = after;
    let mut depth = 0i32;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            Tok::Punct(';') if depth <= 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    toks.len()
}

/// Does the statement containing token `i` begin with `let`? Scan back
/// to the previous statement boundary.
fn stmt_is_let(toks: &[crate::lex::Token], i: usize) -> bool {
    let mut j = i;
    let mut depth = 0i32;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(')') | Tok::Punct(']') => depth += 1,
            Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth <= 0 => {
                return matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Ident(k)) if k == "let");
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("crates/dpf-core/src/spmd.rs", src);
        let mut d = check_collective_parity(&f);
        d.extend(check_lock_order(&f));
        d
    }

    #[test]
    fn rank_gated_barrier_is_flagged() {
        let d = lint(
            "fn go() { run_workers(p, t, w, |rank, w, router| { if rank == 0 { router.barrier(); } }); }",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == "collective-parity").count(),
            1
        );
        assert!(d[0].message.contains("barrier"));
    }

    #[test]
    fn handshake_skipped_by_a_rank_with_nothing_to_send_is_flagged() {
        let d = lint(
            "fn go() { run_workers(p, t, w, |rank, w, router| { if rank != 0 { hs.sparse_send(router, frames); } }); }",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == "collective-parity").count(),
            1
        );
        assert!(d[0].message.contains("sparse_send"));
    }

    #[test]
    fn rank_guarded_workers_protocol_is_flagged() {
        // Found by its `_workers` suffix: no list of protocol names.
        let d = lint(
            "fn fold_exec(ctx: &Ctx, rank: usize) { if rank == 0 { fold_workers(ctx, a, b); } }",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == "collective-parity").count(),
            1
        );
        assert!(d[0].message.contains("fold_workers"));
    }

    #[test]
    fn balanced_branches_are_clean() {
        let d = lint(
            "fn go() { run_workers(p, t, w, |rank, w, router| { if rank % 2 == 0 { router.barrier(); } else { router.barrier(); } }); }",
        );
        assert!(d.iter().all(|d| d.rule != "collective-parity"), "{d:?}");
    }

    #[test]
    fn rank_gated_early_return_before_barrier_is_flagged() {
        let d = lint(
            "fn go() { run_workers(p, t, w, |rank, w, router| { if rank == 1 { return; } router.barrier(); }); }",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == "collective-parity").count(),
            1
        );
        assert!(d[0].message.contains("return"));
    }

    #[test]
    fn match_arm_divergence_in_exec_fn() {
        let d =
            lint("fn fold_exec(rank: usize) { match rank { 0 => { router.barrier(); } _ => {} } }");
        assert_eq!(
            d.iter().filter(|d| d.rule == "collective-parity").count(),
            1
        );
    }

    #[test]
    fn rank_zero_point_to_point_send_is_legitimate() {
        let d = lint(
            "fn broadcast_scalar_exec(rank: usize) { if rank == 0 { router.send(1, b); } let v = router.recv_from(0); }",
        );
        assert!(d.iter().all(|d| d.rule != "collective-parity"), "{d:?}");
    }

    #[test]
    fn inverted_lock_pair_is_flagged() {
        let d = lint(
            "fn a(&self) { let d = self.deaths.lock(); let w = self.waits.lock(); }\n\
             fn b(&self) { let w = self.waits.lock(); let d = self.deaths.lock(); }",
        );
        assert_eq!(d.iter().filter(|d| d.rule == "lock-order").count(), 1);
        assert!(d[0].message.contains("deaths") && d[0].message.contains("waits"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = lint(
            "fn a(&self) { let d = self.deaths.lock(); let w = self.waits.lock(); }\n\
             fn b(&self) { let d = self.deaths.lock(); let w = self.waits.lock(); }",
        );
        assert!(d.iter().all(|d| d.rule != "lock-order"), "{d:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        // The first lock's guard is a temporary consumed by `.clone()`,
        // so nothing is held when the second lock is taken: no edge,
        // no inversion even against a reversed bound pair elsewhere.
        let d = lint(
            "fn a(&self) { let d = self.deaths.lock().clone(); let w = self.waits.lock(); }\n\
             fn b(&self) { let w = self.waits.lock().clone(); let d = self.deaths.lock(); }",
        );
        assert!(d.iter().all(|d| d.rule != "lock-order"), "{d:?}");
    }

    #[test]
    fn if_condition_temporary_held_through_body() {
        // Edition 2021: the scrutinee temporary lives through the if.
        let d = lint(
            "fn a(&self) { if self.waits.lock().is_none() { let d = self.deaths.lock(); } }\n\
             fn b(&self) { let d = self.deaths.lock(); let w = self.waits.lock(); }",
        );
        assert_eq!(d.iter().filter(|d| d.rule == "lock-order").count(), 1);
    }

    #[test]
    fn io_read_write_with_args_is_not_a_lock() {
        let d = lint(
            "fn a(&self) { let g = self.map.lock(); file.read(&mut buf); sock.write(&buf); }\n\
             fn b(&self) { file.read(&mut buf); let g = self.map.lock(); }",
        );
        assert!(d.iter().all(|d| d.rule != "lock-order"), "{d:?}");
    }
}
