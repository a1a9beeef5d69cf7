//! A hand-rolled Rust lexer — just enough of the language to drive the
//! lint rules: identifiers, punctuation, numeric literals and comments,
//! with string/char/lifetime literals recognised as single opaque tokens
//! so that rule patterns never fire inside literal text.
//!
//! The vendor set has no `syn`, and the rules only need token streams
//! with line numbers plus the comment channel (for `// dpf-lint:`
//! pragmas and `// SAFETY:` justifications), so a full parser would be
//! dead weight anyway.

/// One lexed token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `max`, `Vec`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `(`, `!`, ...).
    Punct(char),
    /// Integer literal, verbatim text (`42`, `0xFF`, `8u64`).
    Int(String),
    /// Floating literal, verbatim text (`0.0`, `1e-6`, `2.0f64`).
    Float(String),
    /// String literal (contents dropped).
    Str,
    /// Char literal (contents dropped).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// 1-based line number.
    pub line: u32,
    /// The token itself.
    pub tok: Tok,
}

/// A comment (line or block), attributed to its starting line.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line number of the comment's first character.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lex `src` into a token stream and a parallel comment channel.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                comments.push(Comment {
                    line,
                    text: b[start..j].iter().collect(),
                });
                i = j;
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let at = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                comments.push(Comment {
                    line: at,
                    text: b[start..j.saturating_sub(2).max(start)].iter().collect(),
                });
                i = j;
            }
            '"' => {
                toks.push(Token {
                    line,
                    tok: Tok::Str,
                });
                i = skip_string(&b, i, &mut line);
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                toks.push(Token {
                    line,
                    tok: Tok::Str,
                });
                i = skip_raw_or_byte_string(&b, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if is_char_literal(&b, i) {
                    toks.push(Token {
                        line,
                        tok: Tok::Char,
                    });
                    i = skip_char_literal(&b, i);
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    toks.push(Token {
                        line,
                        tok: Tok::Lifetime,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, j) = lex_number(&b, i);
                toks.push(Token { line, tok });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                toks.push(Token {
                    line,
                    tok: Tok::Ident(b[i..j].iter().collect()),
                });
                i = j;
            }
            c => {
                toks.push(Token {
                    line,
                    tok: Tok::Punct(c),
                });
                i += 1;
            }
        }
    }
    (toks, comments)
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` ahead at `i`?
fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
        while b.get(j) == Some(&'#') {
            j += 1;
        }
    }
    j > i && b.get(j) == Some(&'"')
}

fn skip_raw_or_byte_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    let raw = b.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // Opening quote.
    j += 1;
    if !raw {
        return skip_string(b, j - 1, line);
    }
    while j < b.len() {
        if b[j] == '\n' {
            *line += 1;
            j += 1;
        } else if b[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && b.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

/// Skip a `"…"` string starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

fn is_char_literal(b: &[char], i: usize) -> bool {
    // 'x' or '\x…': a quote, one (possibly escaped) char, then a quote.
    match b.get(i + 1) {
        Some('\\') => true,
        Some(_) => b.get(i + 2) == Some(&'\''),
        None => false,
    }
}

fn skip_char_literal(b: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if b.get(j) == Some(&'\\') {
        j += 2;
        // Escapes like '\u{1F600}' or '\x7f' run to the closing quote.
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        return j + 1;
    }
    j += 1;
    j + 1
}

fn lex_number(b: &[char], i: usize) -> (Tok, usize) {
    let mut j = i;
    let mut float = false;
    if b[j] == '0' && matches!(b.get(j + 1), Some('x') | Some('o') | Some('b')) {
        j += 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        return (Tok::Int(b[i..j].iter().collect()), j);
    }
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == '_') {
        j += 1;
    }
    // A dot makes it a float only when followed by a digit (so `0.max(x)`
    // and ranges like `0..n` lex as Int, Punct...).
    if b.get(j) == Some(&'.') && b.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == '_') {
            j += 1;
        }
    }
    if matches!(b.get(j), Some('e') | Some('E'))
        && b.get(j + 1)
            .is_some_and(|c| c.is_ascii_digit() || *c == '+' || *c == '-')
    {
        float = true;
        j += 2;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
    }
    // Type suffix (`u64`, `f64`, `usize`...). An `f` suffix forces float.
    let suffix_start = j;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    if b.get(suffix_start) == Some(&'f') {
        float = true;
    }
    let text: String = b[i..j].iter().collect();
    if float {
        (Tok::Float(text), j)
    } else {
        (Tok::Int(text), j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"let x = "max( unsafe "; // unsafe .max( in comment
let r = r#"Instant::now()"#; /* Vec::new() */
"##;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"Vec".to_string()));
        let (_, comments) = lex(src);
        assert_eq!(comments.len(), 2);
        assert!(comments[0].text.contains("unsafe .max("));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let src = "a\n\"two\nline\"\nb";
        let (toks, _) = lex(src);
        let b = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let (toks, _) = lex("0.0 1e-6 2.5f64 42 0xFF 8u64 0.max(x) 3f64");
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[0], Tok::Float(s) if s == "0.0"));
        assert!(matches!(kinds[1], Tok::Float(s) if s == "1e-6"));
        assert!(matches!(kinds[2], Tok::Float(s) if s == "2.5f64"));
        assert!(matches!(kinds[3], Tok::Int(s) if s == "42"));
        assert!(matches!(kinds[4], Tok::Int(s) if s == "0xFF"));
        assert!(matches!(kinds[5], Tok::Int(s) if s == "8u64"));
        // `0.max(x)` is an integer method call, not a float literal.
        assert!(matches!(kinds[6], Tok::Int(s) if s == "0"));
        assert!(matches!(kinds[7], Tok::Punct('.')));
        assert!(matches!(toks.last().unwrap().tok, Tok::Float(ref s) if s == "3f64"));
    }

    #[test]
    fn each_string_form_is_one_token() {
        let src = r###"let n = "fft"; let r = r#"raw "inner" text"#; let b = b"bytes";"###;
        let (toks, _) = lex(src);
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Str).count(), 3);
        assert_eq!(idents(src), ["let", "n", "let", "r", "let", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let (toks, _) = lex("&'a str 'x' '\\n'");
        let n_life = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let n_char = toks.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(n_life, 1);
        assert_eq!(n_char, 2);
    }
}
