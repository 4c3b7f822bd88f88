//! An item-level parser over the lexer's token stream — just enough
//! structure for the cross-file rules, with no expression grammar.
//!
//! The parser recovers three things from a file:
//!
//! * **Functions** ([`FnDef`]): name, the token range of their body, and
//!   whether they are test code. Free, `impl` and nested fns are all
//!   recorded.
//! * **`Mutex` struct fields** ([`MutexField`]): every named struct field
//!   whose type mentions `Mutex`, which is the universe the R7 lock-order
//!   graph is built over.
//! * **Top-level item spans** are implicit: everything is driven by brace
//!   matching, so macro bodies and expression interiors are traversed but
//!   never interpreted.
//!
//! Soundness posture: the parser is *conservative by construction*. It
//! never resolves types or paths — a name match is a match. The rules built
//! on top accept false positives (waivable) in exchange for zero false
//! structure: a fn body range always covers exactly the tokens between its
//! braces.

use crate::lexer::Tok;

/// One `fn` item (free, impl-associated, or nested).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The fn's name.
    pub name: String,
    /// Token range of the body: `toks[body.0]` is the `{`, `toks[body.1]`
    /// the matching `}`. `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` when the `fn` keyword token is inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// A named struct field of `Mutex` type.
#[derive(Debug, Clone)]
pub struct MutexField {
    /// The struct the field belongs to.
    pub owner: String,
    /// The field name — the node identity in the lock-order graph.
    pub field: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// Everything the item parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    pub mutex_fields: Vec<MutexField>,
}

/// Parse one file's token stream.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].ident() {
            Some("struct") => {
                let name = toks
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .unwrap_or("")
                    .to_string();
                // Only brace-bodied structs have named fields. Skip any
                // generics between the name and the body.
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                    } else if angle <= 0 && (t.is_punct('{') || t.is_punct(';') || t.is_punct('('))
                    {
                        break;
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    if let Some(close) = matching_brace(toks, j) {
                        collect_mutex_fields(toks, j + 1, close, &name, &mut out.mutex_fields);
                        i = close + 1;
                        continue;
                    }
                }
                i = j + 1;
            }
            Some("fn") => {
                record_fn(toks, i, &mut out);
                // Keep walking *into* the body so nested items are found.
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Record the fn whose `fn` keyword sits at `kw`.
fn record_fn(toks: &[Tok], kw: usize, out: &mut ParsedFile) {
    let Some(name) = toks.get(kw + 1).and_then(|t| t.ident()) else {
        return;
    };
    // Find the body `{` at angle/paren depth 0, or a `;` (trait decl).
    let mut body = None;
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut j = kw + 2;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            angle -= 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && angle <= 0 && paren == 0 {
            if let Some(close) = matching_brace(toks, j) {
                body = Some((j, close));
            }
            break;
        } else if t.is_punct(';') && angle <= 0 && paren == 0 {
            break;
        }
        j += 1;
    }
    out.fns.push(FnDef {
        name: name.to_string(),
        body,
        line: toks[kw].line,
        in_test: toks[kw].in_test,
    });
}

/// Collect `field: …Mutex…` declarations at depth 0 of a struct body.
fn collect_mutex_fields(
    toks: &[Tok],
    start: usize,
    end: usize,
    owner: &str,
    out: &mut Vec<MutexField>,
) {
    let mut i = start;
    let mut depth = 0i32;
    while i < end {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if depth == 0
            && t.ident().is_some()
            && t.ident() != Some("pub")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        {
            // Field name; scan its type until the `,` (or struct end) at
            // this depth, looking for `Mutex`.
            let field = t.ident().unwrap_or("").to_string();
            let line = t.line;
            let mut j = i + 2;
            let mut tdepth = 0i32;
            let mut is_mutex = false;
            while j < end {
                let ty = &toks[j];
                if ty.is_punct('<') || ty.is_punct('(') || ty.is_punct('[') {
                    tdepth += 1;
                } else if ty.is_punct('>') || ty.is_punct(')') || ty.is_punct(']') {
                    if ty.is_punct('>') && tdepth == 0 {
                        break;
                    }
                    tdepth -= 1;
                } else if ty.is_punct(',') && tdepth == 0 {
                    break;
                }
                if ty.ident() == Some("Mutex") {
                    is_mutex = true;
                }
                j += 1;
            }
            if is_mutex {
                out.push(MutexField {
                    owner: owner.to_string(),
                    field,
                    line,
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open` (which must be a `{`).
pub fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
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
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).0)
    }

    #[test]
    fn free_and_impl_fns_are_recorded() {
        let p = parse_src(
            "fn free_one() { body(); }\n\
             impl Engine {\n    fn method(&self) { x(); }\n}\n\
             impl Drop for Server { fn drop(&mut self) {} }",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free_one", "method", "drop"]);
        assert!(p.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn mutex_fields_are_collected() {
        let p = parse_src(
            "struct Inner {\n    pub entries: Mutex<Vec<Entry>>,\n    ring: std::sync::Mutex<Ring>,\n    plain: u32,\n}\nstruct Unit;",
        );
        let fields: Vec<(&str, &str)> = p
            .mutex_fields
            .iter()
            .map(|m| (m.owner.as_str(), m.field.as_str()))
            .collect();
        assert_eq!(fields, vec![("Inner", "entries"), ("Inner", "ring")]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let p = parse_src("trait T { fn required(&self) -> u32; fn provided(&self) {} }");
        let body = |name: &str| p.fns.iter().find(|f| f.name == name).expect(name).body;
        assert!(body("required").is_none());
        assert!(body("provided").is_some());
    }

    #[test]
    fn where_clauses_and_generic_returns_do_not_confuse_body_search() {
        let p = parse_src("fn f<T>(x: T) -> Vec<T> where T: Clone { g(); }");
        assert!(p.fns.iter().any(|f| f.name == "f" && f.body.is_some()));
    }
}
