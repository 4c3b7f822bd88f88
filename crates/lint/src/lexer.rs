//! A small hand-rolled Rust lexer — just enough syntax awareness for the
//! rule catalog, with none of `syn`'s weight.
//!
//! The lexer produces a flat token stream (identifiers, punctuation,
//! literals) with 1-based line/column positions, while *skipping* the three
//! places rule patterns must never match: comments, string/char literals,
//! and doc text. Two things are extracted on the side:
//!
//! * **Suppression comments** (`// jigsaw-lint: allow(R1) -- reason`) are
//!   parsed during the comment skip and returned separately, so waivers are
//!   data, not dead text.
//! * **`#[cfg(test)]` spans**: a post-pass marks every token belonging to a
//!   `#[cfg(test)]` item (attribute through the item's closing brace or
//!   semicolon) with `in_test`, which is how test-only code is exempted
//!   from the library rules without a real parse.
//!
//! The lexer understands line and (nested) block comments, string literals
//! with escapes, raw strings (`r"…"`, `r#"…"#`), byte/C strings, char
//! literals vs. lifetimes, numeric literals (including exponents), and raw
//! identifiers. That short list covers everything that can otherwise hide a
//! false match.

/// What a token is. Only the distinctions the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword; the text is kept for matching.
    Ident(String),
    /// One punctuation character (multi-char operators arrive as a
    /// sequence: `->` is `-` then `>`).
    Punct(char),
    /// A string literal (plain, raw, or byte). Contents deliberately
    /// discarded: they are data, and rule patterns must never match
    /// inside them.
    Str,
    /// A numeric/char/lifetime literal. Contents deliberately discarded.
    Lit,
}

/// One token with its position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: Kind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column, counted in characters.
    pub col: u32,
    /// `true` once the `mark_cfg_test` post-pass attributed this token to
    /// a `#[cfg(test)]` item.
    pub in_test: bool,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Kind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` iff this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }
}

/// A parsed `// jigsaw-lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on. The waiver covers findings on this line
    /// and the next (so it can trail the offending line or precede it).
    pub line: u32,
    /// Rule codes named in `allow(...)`, e.g. `["R1"]`.
    pub rules: Vec<String>,
    /// The text after ` -- `; empty when the author gave no reason, which
    /// the checker reports as a finding of its own.
    pub reason: String,
}

/// The marker every suppression comment must carry.
pub const SUPPRESS_MARKER: &str = "jigsaw-lint:";

/// Column advance for a skipped span. Saturating: a single source line
/// longer than `u32::MAX` characters only mis-reports columns, it cannot
/// wrap into a bogus small one.
fn width(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Lex `src`, returning the token stream (with `in_test` already marked)
/// and every suppression comment found.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Suppression>) {
    let mut toks = Vec::new();
    let mut sups = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advance over `n` chars, maintaining line/col.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comment (also doc `///` and `//!`); may carry a suppression.
        if c == '/' && next == Some('/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // Doc comments (`///`, `//!`) never carry suppressions — they
            // may legitimately *describe* the suppression syntax.
            let is_doc = text.starts_with("///") || text.starts_with("//!");
            if !is_doc {
                if let Some(s) = parse_suppression(&text, line) {
                    sups.push(s);
                }
            }
            // Reposition: the skipped span had no newline.
            col += width(i - start);
            continue;
        }

        // Block comment, nested.
        if c == '/' && next == Some('*') {
            bump!(2);
            let mut depth = 1u32;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Raw strings and raw identifiers: r"…", r#"…"#, br#"…"#, r#ident.
        if (c == 'r' || c == 'b' || c == 'c') && is_raw_string_start(&chars, i) {
            let (tline, tcol) = (line, col);
            // Skip prefix letters.
            while i < chars.len() && chars[i] != '"' && chars[i] != '#' {
                bump!(1);
            }
            let mut hashes = 0usize;
            while chars.get(i) == Some(&'#') {
                hashes += 1;
                bump!(1);
            }
            if chars.get(i) == Some(&'"') {
                bump!(1);
                // Scan for `"` followed by `hashes` hashes.
                'scan: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            bump!(1 + hashes);
                            break 'scan;
                        }
                    }
                    bump!(1);
                }
                toks.push(Tok {
                    kind: Kind::Str,
                    line: tline,
                    col: tcol,
                    in_test: false,
                });
                continue;
            }
            // `r#ident`: fall through to the identifier path below (the
            // hashes are already consumed).
        }

        // Identifiers and keywords (including the tail of a raw ident).
        if c.is_alphabetic() || c == '_' {
            let (tline, tcol) = (line, col);
            // A plain string/byte-string prefix like b"…" or c"…"?
            if (c == 'b' || c == 'c') && next == Some('"') {
                bump!(1); // eat the prefix; the string path below takes over
                          // fall through to string handling on the next loop turn
                let _ = (tline, tcol);
                continue;
            }
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            col += width(i - start);
            toks.push(Tok {
                kind: Kind::Ident(text),
                line: tline,
                col: tcol,
                in_test: false,
            });
            continue;
        }

        // String literal with escapes.
        if c == '"' {
            let (tline, tcol) = (line, col);
            bump!(1);
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!(2);
                } else if chars[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    bump!(1);
                }
            }
            toks.push(Tok {
                kind: Kind::Str,
                line: tline,
                col: tcol,
                in_test: false,
            });
            continue;
        }

        // Char literal vs. lifetime.
        if c == '\'' {
            let (tline, tcol) = (line, col);
            if next == Some('\\') {
                // Escaped char literal: '\n', '\u{1F600}', '\''…
                bump!(2);
                while i < chars.len() && chars[i] != '\'' {
                    bump!(1);
                }
                bump!(1);
                toks.push(Tok {
                    kind: Kind::Lit,
                    line: tline,
                    col: tcol,
                    in_test: false,
                });
            } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                // Plain char literal: 'x'.
                bump!(3);
                toks.push(Tok {
                    kind: Kind::Lit,
                    line: tline,
                    col: tcol,
                    in_test: false,
                });
            } else {
                // Lifetime: consume the quote and the label.
                bump!(1);
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!(1);
                }
                toks.push(Tok {
                    kind: Kind::Lit,
                    line: tline,
                    col: tcol,
                    in_test: false,
                });
            }
            continue;
        }

        // Numeric literal (0xff, 1_000u32, 1.5e-3, …).
        if c.is_ascii_digit() {
            let (tline, tcol) = (line, col);
            let start = i;
            while i < chars.len() {
                let d = chars[i];
                if d.is_alphanumeric() || d == '_' {
                    i += 1;
                } else if (d == '+' || d == '-')
                    && matches!(chars.get(i.wrapping_sub(1)), Some('e') | Some('E'))
                    && chars[start..i].iter().any(|x| x.is_ascii_digit())
                {
                    i += 1; // exponent sign
                } else if d == '.' && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                    i += 1; // decimal point (but not `..` or `.method()`)
                } else {
                    break;
                }
            }
            col += width(i - start);
            toks.push(Tok {
                kind: Kind::Lit,
                line: tline,
                col: tcol,
                in_test: false,
            });
            continue;
        }

        // Everything else: one punctuation character.
        toks.push(Tok {
            kind: Kind::Punct(c),
            line,
            col,
            in_test: false,
        });
        bump!(1);
    }

    mark_cfg_test(&mut toks);
    (toks, sups)
}

/// Does position `i` start a raw string (`r"`, `r#"`, `br#"` …) or a raw
/// identifier (`r#ident`)? Both begin with prefix letters then hashes.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (`br`, `cr`).
    while j < chars.len() && matches!(chars[j], 'r' | 'b' | 'c') && j - i < 2 {
        j += 1;
    }
    if j == i {
        return false;
    }
    // Must have seen an `r` and be followed by `#` or `"`.
    chars[i..j].contains(&'r') && matches!(chars.get(j), Some('#') | Some('"'))
}

/// Parse one line-comment's text as a suppression, if it carries the
/// marker. Accepted grammar:
/// `// jigsaw-lint: allow(R1, R2) -- reason text`
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let pos = comment.find(SUPPRESS_MARKER)?;
    let rest = comment[pos + SUPPRESS_MARKER.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let open = rest.strip_prefix('(')?;
    let close = open.find(')')?;
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = open[close + 1..].trim_start();
    let reason = tail
        .strip_prefix("--")
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some(Suppression {
        line,
        rules,
        reason,
    })
}

/// Mark every token belonging to a `#[cfg(test)]` item with `in_test`.
///
/// The walk is purely structural: on seeing an outer attribute whose token
/// span contains both `cfg` and `test`, it skips any further attributes and
/// then consumes one item — everything up to the matching close of the
/// first brace block, or a top-level `;` for brace-less items.
fn mark_cfg_test(toks: &mut [Tok]) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_start = i;
            let Some(attr_end) = matching_bracket(toks, i + 1) else {
                return;
            };
            let is_cfg_test = {
                let span = &toks[attr_start..=attr_end];
                span.iter().any(|t| t.ident() == Some("cfg"))
                    && span.iter().any(|t| t.ident() == Some("test"))
                    && !span.iter().any(|t| t.ident() == Some("not"))
            };
            if !is_cfg_test {
                i = attr_end + 1;
                continue;
            }
            // Skip further attributes on the same item.
            let mut k = attr_end + 1;
            while k < toks.len()
                && toks[k].is_punct('#')
                && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
            {
                match matching_bracket(toks, k + 1) {
                    Some(e) => k = e + 1,
                    None => return,
                }
            }
            // Consume the item.
            let mut depth = 0i32;
            let mut end = toks.len().saturating_sub(1);
            let mut saw_block = false;
            let mut j = k;
            while j < toks.len() {
                match toks[j].kind {
                    Kind::Punct('{') | Kind::Punct('(') | Kind::Punct('[') => {
                        depth += 1;
                        saw_block = true;
                    }
                    Kind::Punct('}') | Kind::Punct(')') | Kind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 && saw_block && toks[j].is_punct('}') {
                            end = j;
                            break;
                        }
                    }
                    Kind::Punct(';') if depth == 0 => {
                        end = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let last = end.min(toks.len() - 1);
            for t in &mut toks[attr_start..=last] {
                t.in_test = true;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
}

/// Index of the `]` matching the `[` at `open` (which must be a `[`).
fn matching_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter_map(|t| match t.kind {
                Kind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            let x = "unwrap() inside a string";
            // a comment mentioning panic!()
            /* block with unwrap() */
            let raw = r#"raw with expect("hi")"#;
            let c = 'x';
            let lt: &'static str = "s";
        "##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|s| s == "unwrap" || s == "panic" || s == "expect"));
        assert!(ids.iter().any(|s| s == "raw"));
    }

    #[test]
    fn positions_are_one_based() {
        let (toks, _) = lex("ab\n  cd");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].col, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 3);
    }

    #[test]
    fn cfg_test_marks_the_whole_module() {
        let src = "
            fn live() { x.unwrap() }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap() }
            }
            fn after() {}
        ";
        let (toks, _) = lex(src);
        let unwraps: Vec<&Tok> = toks
            .iter()
            .filter(|t| t.ident() == Some("unwrap"))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].in_test);
        assert!(unwraps[1].in_test);
        let after = toks.iter().find(|t| t.ident() == Some("after"));
        assert!(after.is_some_and(|t| !t.in_test));
    }

    #[test]
    fn cfg_test_on_braceless_item_stops_at_semicolon() {
        let src = "
            #[cfg(test)]
            use std::collections::HashMap;
            fn live() {}
        ";
        let (toks, _) = lex(src);
        let live = toks.iter().find(|t| t.ident() == Some("live"));
        assert!(live.is_some_and(|t| !t.in_test));
    }

    #[test]
    fn suppression_comment_parses() {
        let src = "let x = 1; // jigsaw-lint: allow(R1, R2) -- bounded by radix\n";
        let (_, sups) = lex(src);
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].rules, vec!["R1", "R2"]);
        assert_eq!(sups[0].reason, "bounded by radix");
        assert_eq!(sups[0].line, 1);
    }

    #[test]
    fn suppression_without_reason_has_empty_reason() {
        let (_, sups) = lex("// jigsaw-lint: allow(R3)\n");
        assert_eq!(sups.len(), 1);
        assert!(sups[0].reason.is_empty());
    }

    #[test]
    fn numeric_literals_do_not_eat_ranges_or_methods() {
        let ids = idents("for i in 0..n { 1.max(2); 1.5e-3; }");
        assert!(ids.iter().any(|s| s == "n"));
        assert!(ids.iter().any(|s| s == "max"));
        assert!(ids.iter().any(|s| s == "in"));
    }

    #[test]
    fn string_literal_contents_are_kept_but_not_tokens() {
        let src = r##"reg.counter("jigsaw_x_total", r#"help "quoted""#);"##;
        let (toks, _) = lex(src);
        let strs = toks.iter().filter(|t| t.kind == Kind::Str).count();
        assert_eq!(strs, 2);
        assert_eq!(idents(src), vec!["reg", "counter"]);
    }

    #[test]
    fn byte_string_prefix_keeps_contents() {
        let src = r#"let x = b"bytes here";"#;
        let (toks, _) = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn should_panic_attribute_is_not_a_panic_call() {
        let (toks, _) = lex("#[should_panic(expected = \"boom\")] fn t() {}");
        assert!(toks.iter().all(|t| t.ident() != Some("panic")));
    }
}
