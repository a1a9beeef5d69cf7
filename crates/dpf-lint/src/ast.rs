//! A brace-tree AST over the token stream — the control-flow skeleton
//! the deep rules (collective-parity, lock-order, determinism-taint)
//! walk. It is deliberately *not* a Rust parser: it recovers only the
//! structure those rules reason about — `if`/`else if`/`else` chains
//! with their condition spans, `match` arms with pattern (and guard)
//! spans, `loop`/`while`/`for` bodies, and plain blocks — and leaves
//! everything else as flat leaf runs of tokens.
//!
//! Two properties matter for rule soundness:
//!
//! * every node's [`Span`] covers its entire token range, so scanning a
//!   branch's span sees all nested calls, however deep;
//! * macro invocations (`matches!(x, Some(p) if p > 0)`, `vec![...]`)
//!   and `#[...]` attributes are consumed as opaque groups, so an `if`
//!   or `=>` *inside* a macro body never opens a phantom region.
//!
//! Spans are half-open token-index ranges into the `Vec<Token>` the
//! tree was parsed from; lines come from the underlying tokens.

use crate::lex::{Tok, Token};

/// Half-open token-index range `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Span {
    /// Does this span contain token index `i`?
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }

    /// Does this span fully contain `other`?
    pub fn encloses(&self, other: Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// One node of the brace tree.
#[derive(Debug)]
pub enum Node {
    /// `{ ... }`.
    Block(Block),
    /// `if cond { ... } else ...`.
    If(IfNode),
    /// `match scrutinee { arms }`.
    Match(MatchNode),
    /// `loop`/`while`/`for` with body.
    Loop(LoopNode),
    /// A flat run of tokens with no structure we track.
    Leaf(Span),
}

impl Node {
    /// The node's full token span (header + body + tail).
    pub fn span(&self) -> Span {
        match self {
            Node::Block(b) => b.span,
            Node::If(n) => n.span,
            Node::Match(n) => n.span,
            Node::Loop(n) => n.span,
            Node::Leaf(s) => *s,
        }
    }
}

/// A braced block and its children, in source order.
#[derive(Debug)]
pub struct Block {
    /// Token span including both braces.
    pub span: Span,
    /// Child nodes in source order.
    pub children: Vec<Node>,
}

/// `if cond { then } else <block-or-if>`.
#[derive(Debug)]
pub struct IfNode {
    /// Line of the `if` keyword.
    pub line: u32,
    /// Whole-construct span (through the final `else` branch).
    pub span: Span,
    /// Condition span (between `if` and the `{`; covers `if let` too).
    pub cond: Span,
    /// The then-block.
    pub then_branch: Block,
    /// `else { ... }` (a `Block`) or `else if ...` (an `If`), if any.
    pub else_branch: Option<Box<Node>>,
}

/// `match scrutinee { pat [if guard] => body, ... }`.
#[derive(Debug)]
pub struct MatchNode {
    /// Line of the `match` keyword.
    pub line: u32,
    /// Whole-construct span.
    pub span: Span,
    /// Scrutinee span (between `match` and the `{`).
    pub scrutinee: Span,
    /// The arms in source order.
    pub arms: Vec<Arm>,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Line the pattern starts on.
    pub line: u32,
    /// Pattern span, *including* any `if` guard (up to the `=>`).
    pub pat: Span,
    /// The arm body (block, nested structure, or expression leaf).
    pub body: Node,
}

/// `loop { .. }`, `while cond { .. }`, `for pat in iter { .. }`.
#[derive(Debug)]
pub struct LoopNode {
    /// Line of the loop keyword.
    pub line: u32,
    /// Whole-construct span.
    pub span: Span,
    /// Header span (condition / iterator; empty for bare `loop`).
    pub header: Span,
    /// The loop body.
    pub body: Block,
}

/// Parse a token stream into a brace tree. Never fails: unparseable
/// stretches degrade into leaf runs, and unbalanced braces close at
/// end of stream.
pub fn parse(tokens: &[Token]) -> Block {
    let mut p = Parser { t: tokens, i: 0 };
    let children = p.nodes(false);
    Block {
        span: Span {
            start: 0,
            end: tokens.len(),
        },
        children,
    }
}

/// Visit every node of the tree in source order.
pub fn walk<'a>(block: &'a Block, visit: &mut impl FnMut(&'a Node)) {
    for child in &block.children {
        walk_node(child, visit);
    }
}

fn walk_node<'a>(node: &'a Node, visit: &mut impl FnMut(&'a Node)) {
    visit(node);
    match node {
        Node::Block(b) => walk(b, visit),
        Node::If(n) => {
            walk(&n.then_branch, visit);
            if let Some(e) = &n.else_branch {
                walk_node(e, visit);
            }
        }
        Node::Match(n) => {
            for arm in &n.arms {
                walk_node(&arm.body, visit);
            }
        }
        Node::Loop(n) => walk(&n.body, visit),
        Node::Leaf(_) => {}
    }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
}

impl Parser<'_> {
    fn tok(&self, k: usize) -> Option<&Tok> {
        self.t.get(k).map(|t| &t.tok)
    }

    fn line(&self, k: usize) -> u32 {
        self.t.get(k).map(|t| t.line).unwrap_or(0)
    }

    fn is_ident(&self, k: usize, s: &str) -> bool {
        matches!(self.tok(k), Some(Tok::Ident(i)) if i == s)
    }

    fn is_punct(&self, k: usize, c: char) -> bool {
        matches!(self.tok(k), Some(Tok::Punct(p)) if *p == c)
    }

    /// `for` in `impl Trait for Type` / `for<'a>` HRTBs is not a loop:
    /// a statement-position `for` never follows an identifier, a `>`
    /// (generics close) or `)`.
    fn for_is_loop(&self, k: usize) -> bool {
        // `for<'a>` (HRTB) opens on `<`; a loop's pattern never does.
        if self.is_punct(k + 1, '<') {
            return false;
        }
        if k == 0 {
            return true;
        }
        !matches!(
            self.tok(k - 1),
            Some(Tok::Ident(_)) | Some(Tok::Punct('>')) | Some(Tok::Punct(')'))
        )
    }

    /// Keyword in statement position (not a field/method named like one).
    fn keyword_position(&self, k: usize) -> bool {
        k == 0 || !matches!(self.tok(k - 1), Some(Tok::Punct('.')))
    }

    /// Parse nodes until end of stream or (when `in_block`) the closing
    /// `}` of the current block, which is left unconsumed.
    fn nodes(&mut self, in_block: bool) -> Vec<Node> {
        let mut out = Vec::new();
        let mut leaf_start = self.i;
        macro_rules! flush_leaf {
            () => {
                if leaf_start < self.i {
                    out.push(Node::Leaf(Span {
                        start: leaf_start,
                        end: self.i,
                    }));
                }
            };
        }
        while self.i < self.t.len() {
            if in_block && self.is_punct(self.i, '}') {
                break;
            }
            match self.tok(self.i) {
                Some(Tok::Punct('{')) => {
                    flush_leaf!();
                    out.push(Node::Block(self.block()));
                    leaf_start = self.i;
                }
                Some(Tok::Punct('#')) if self.is_punct(self.i + 1, '[') => {
                    // Attribute: stays inside the current leaf run, but
                    // its group must not be parsed as structure.
                    self.i += 1;
                    self.skip_group();
                }
                Some(Tok::Ident(_))
                    if self.is_punct(self.i + 1, '!')
                        && matches!(
                            self.tok(self.i + 2),
                            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{'))
                        ) =>
                {
                    // Macro invocation: opaque. (`matches!(x, p if g)`
                    // must not open an if-node.)
                    self.i += 2;
                    self.skip_group();
                }
                Some(Tok::Ident(kw)) if kw == "if" && self.keyword_position(self.i) => {
                    flush_leaf!();
                    let n = self.if_node();
                    out.push(Node::If(n));
                    leaf_start = self.i;
                }
                Some(Tok::Ident(kw)) if kw == "match" && self.keyword_position(self.i) => {
                    flush_leaf!();
                    let n = self.match_node();
                    out.push(Node::Match(n));
                    leaf_start = self.i;
                }
                Some(Tok::Ident(kw))
                    if (kw == "loop" || kw == "while")
                        && self.keyword_position(self.i)
                        // `loop`/`while` must head a `{`-terminated
                        // construct; a stray use degrades to leaf.
                        && self.has_brace_ahead(self.i + 1) =>
                {
                    flush_leaf!();
                    let n = self.loop_node();
                    out.push(Node::Loop(n));
                    leaf_start = self.i;
                }
                Some(Tok::Ident(kw))
                    if kw == "for"
                        && self.keyword_position(self.i)
                        && self.for_is_loop(self.i)
                        && self.has_brace_ahead(self.i + 1) =>
                {
                    flush_leaf!();
                    let n = self.loop_node();
                    out.push(Node::Loop(n));
                    leaf_start = self.i;
                }
                _ => self.i += 1,
            }
        }
        flush_leaf!();
        out
    }

    /// Is there a `{` at delimiter depth 0 before the next `;` (or the
    /// enclosing block's `}`)? Distinguishes `while cond {` from stray
    /// identifier uses of the keywords.
    fn has_brace_ahead(&self, mut k: usize) -> bool {
        let mut depth = 0i32;
        while k < self.t.len() {
            match self.tok(k).unwrap() {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => return true,
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') if depth <= 0 => return false,
                Tok::Punct('}') => depth -= 1,
                Tok::Punct(';') if depth == 0 => return false,
                _ => {}
            }
            k += 1;
        }
        false
    }

    /// Consume a balanced delimiter group starting at the opening
    /// delimiter under the cursor.
    fn skip_group(&mut self) {
        let mut depth = 0i32;
        while self.i < self.t.len() {
            match self.tok(self.i).unwrap() {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth -= 1;
                    if depth <= 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Scan a construct header (if-condition, match scrutinee, loop
    /// header) up to the body's `{` at delimiter depth 0.
    fn scan_header(&mut self) -> Span {
        let start = self.i;
        let mut depth = 0i32;
        while self.i < self.t.len() {
            match self.tok(self.i).unwrap() {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => break,
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            self.i += 1;
        }
        Span { start, end: self.i }
    }

    fn block(&mut self) -> Block {
        let start = self.i;
        if !self.is_punct(self.i, '{') {
            return Block {
                span: Span { start, end: start },
                children: Vec::new(),
            };
        }
        self.i += 1;
        let children = self.nodes(true);
        if self.is_punct(self.i, '}') {
            self.i += 1;
        }
        Block {
            span: Span { start, end: self.i },
            children,
        }
    }

    fn if_node(&mut self) -> IfNode {
        let start = self.i;
        let line = self.line(start);
        self.i += 1; // `if`
        let cond = self.scan_header();
        let then_branch = self.block();
        let mut else_branch = None;
        if self.is_ident(self.i, "else") {
            self.i += 1;
            if self.is_ident(self.i, "if") {
                else_branch = Some(Box::new(Node::If(self.if_node())));
            } else if self.is_punct(self.i, '{') {
                else_branch = Some(Box::new(Node::Block(self.block())));
            }
        }
        IfNode {
            line,
            span: Span { start, end: self.i },
            cond,
            then_branch,
            else_branch,
        }
    }

    fn loop_node(&mut self) -> LoopNode {
        let start = self.i;
        let line = self.line(start);
        self.i += 1; // keyword
        let header = self.scan_header();
        let body = self.block();
        LoopNode {
            line,
            span: Span { start, end: self.i },
            header,
            body,
        }
    }

    fn match_node(&mut self) -> MatchNode {
        let start = self.i;
        let line = self.line(start);
        self.i += 1; // `match`
        let scrutinee = self.scan_header();
        let mut arms = Vec::new();
        if self.is_punct(self.i, '{') {
            self.i += 1;
            while self.i < self.t.len() && !self.is_punct(self.i, '}') {
                match self.arm() {
                    Some(arm) => arms.push(arm),
                    None => break,
                }
            }
            if self.is_punct(self.i, '}') {
                self.i += 1;
            }
        }
        MatchNode {
            line,
            span: Span { start, end: self.i },
            scrutinee,
            arms,
        }
    }

    fn arm(&mut self) -> Option<Arm> {
        let pat_start = self.i;
        let line = self.line(self.i);
        // Pattern (struct patterns may contain braces; guards contain
        // `if` which stays inside the pattern span) up to `=>`.
        let mut depth = 0i32;
        loop {
            match self.tok(self.i)? {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('}') if depth == 0 => return None, // match's `}`
                Tok::Punct('}') => depth -= 1,
                Tok::Punct('=') if depth == 0 && self.is_punct(self.i + 1, '>') => break,
                _ => {}
            }
            self.i += 1;
        }
        let pat = Span {
            start: pat_start,
            end: self.i,
        };
        self.i += 2; // `=>`
        let body = if self.is_punct(self.i, '{') {
            Node::Block(self.block())
        } else if self.is_ident(self.i, "if") && self.keyword_position(self.i) {
            Node::If(self.if_node())
        } else if self.is_ident(self.i, "match") && self.keyword_position(self.i) {
            Node::Match(self.match_node())
        } else if (self.is_ident(self.i, "loop")
            || self.is_ident(self.i, "while")
            || self.is_ident(self.i, "for"))
            && self.has_brace_ahead(self.i + 1)
        {
            Node::Loop(self.loop_node())
        } else {
            // Expression body to the `,` (or the match's `}`).
            let s = self.i;
            let mut depth = 0i32;
            while self.i < self.t.len() {
                match self.tok(self.i).unwrap() {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct('}') if depth == 0 => break,
                    Tok::Punct('}') => depth -= 1,
                    Tok::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                self.i += 1;
            }
            Node::Leaf(Span {
                start: s,
                end: self.i,
            })
        };
        if self.is_punct(self.i, ',') {
            self.i += 1;
        }
        Some(Arm { line, pat, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn tree(src: &str) -> (Vec<Token>, Block) {
        let (tokens, _) = lex(src);
        let b = parse(&tokens);
        (tokens, b)
    }

    fn collect(b: &Block) -> Vec<&Node> {
        let mut out = Vec::new();
        walk(b, &mut |n| out.push(n));
        out
    }

    fn text(tokens: &[Token], span: Span) -> String {
        tokens[span.start..span.end]
            .iter()
            .map(|t| match &t.tok {
                Tok::Ident(s) => s.clone(),
                Tok::Punct(c) => c.to_string(),
                Tok::Int(s) | Tok::Float(s) => s.clone(),
                Tok::Str => "\"\"".into(),
                Tok::Char => "' '".into(),
                Tok::Lifetime => "'_".into(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn if_else_chain_structure() {
        let (toks, b) = tree("fn f() { if a == 1 { x(); } else if b { y(); } else { z(); } }");
        let ifs: Vec<&IfNode> = collect(&b)
            .into_iter()
            .filter_map(|n| match n {
                Node::If(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(ifs.len(), 2);
        assert_eq!(text(&toks, ifs[0].cond), "a = = 1");
        // The outer if's span runs through the final else block.
        let outer = ifs[0];
        assert!(matches!(outer.else_branch.as_deref(), Some(Node::If(_))));
        let inner = match outer.else_branch.as_deref().unwrap() {
            Node::If(i) => i,
            _ => unreachable!(),
        };
        assert!(matches!(inner.else_branch.as_deref(), Some(Node::Block(_))));
        assert!(outer.span.encloses(inner.span));
    }

    #[test]
    fn nested_closures_keep_block_structure() {
        let src = "fn f() { run(|rank, w| { if rank == 0 { g(); } h(|| { i(); }); }); }";
        let (toks, b) = tree(src);
        let nodes = collect(&b);
        let ifs: Vec<&IfNode> = nodes
            .iter()
            .filter_map(|n| match n {
                Node::If(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(ifs.len(), 1);
        assert_eq!(text(&toks, ifs[0].cond), "rank = = 0");
        // Three nested blocks: fn body, outer closure, inner closure,
        // plus the if's then-block.
        let blocks = nodes.iter().filter(|n| matches!(n, Node::Block(_))).count();
        assert!(blocks >= 3, "blocks = {blocks}");
    }

    #[test]
    fn match_guards_stay_in_pattern_span() {
        let src = "fn f() { match r { 0 => a(), n if n > 3 => { b(); } Some(X { v, .. }) => c(v), _ => (), } }";
        let (toks, b) = tree(src);
        let m = collect(&b)
            .into_iter()
            .find_map(|n| match n {
                Node::Match(m) => Some(m),
                _ => None,
            })
            .unwrap();
        assert_eq!(m.arms.len(), 4);
        assert_eq!(text(&toks, m.arms[1].pat), "n if n > 3");
        // Struct pattern braces do not end the arm early.
        assert!(text(&toks, m.arms[2].pat).contains("X { v"));
        // The guard's `if` did not become an IfNode.
        let guard_ifs = collect(&b)
            .into_iter()
            .filter(|n| matches!(n, Node::If(_)))
            .count();
        assert_eq!(guard_ifs, 0);
    }

    #[test]
    fn macro_bodies_are_opaque() {
        let src = r#"fn f() {
            assert!(matches!(x, Some(p) if p > 0));
            let v = vec![if cfg { 1 } else { 2 }];
            writeln!(w, "a => b").unwrap();
            if real { g(); }
        }"#;
        let (toks, b) = tree(src);
        let ifs: Vec<&IfNode> = collect(&b)
            .into_iter()
            .filter_map(|n| match n {
                Node::If(i) => Some(i),
                _ => None,
            })
            .collect();
        // Only the `if real` survives; the `if` inside matches! and
        // vec! are swallowed by the macro groups.
        assert_eq!(ifs.len(), 1);
        assert_eq!(text(&toks, ifs[0].cond), "real");
    }

    #[test]
    fn loops_and_impl_for_disambiguate() {
        let src = "impl Fmt for Router { fn go(&self) { for x in 0..3 { a(); } while x < 2 { b(); } loop { break; } } }";
        let (_, b) = tree(src);
        let loops = collect(&b)
            .into_iter()
            .filter(|n| matches!(n, Node::Loop(_)))
            .count();
        // `for` in `impl Fmt for Router` is not a loop.
        assert_eq!(loops, 3);
    }

    #[test]
    fn unbalanced_input_degrades_gracefully() {
        let (_, b) = tree("fn f() { if x { y(); ");
        // No panic; the if exists with an unterminated then-block.
        assert!(collect(&b).into_iter().any(|n| matches!(n, Node::If(_))));
    }

    #[test]
    fn if_let_condition_span() {
        let (toks, b) = tree("fn f() { if let Some(g) = m.lock() { use_it(g); } }");
        let i = collect(&b)
            .into_iter()
            .find_map(|n| match n {
                Node::If(i) => Some(i),
                _ => None,
            })
            .unwrap();
        assert!(text(&toks, i.cond).contains("let Some ( g ) = m . lock ( )"));
    }
}
