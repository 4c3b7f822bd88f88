//! The rule catalog (R1–R10) and the per-file checking engine.
//!
//! R1–R5 are token-patterns over the [`lexer`](crate::lexer) stream, scoped
//! by [`FileClass`] — which crate the file belongs to and whether it is
//! test code. R6–R10 (in [`rules6_10`](crate::rules6_10)) are *cross-file*:
//! they run over the whole workspace at once, on top of the item parser
//! ([`parser`](crate::parser)) and the conservative call/lock graphs
//! ([`graph`](crate::graph)). The catalog is deliberately project-specific:
//! these are the Jigsaw workspace's safety contracts, not general style
//! opinions.
//!
//! | Rule | Contract |
//! |------|----------|
//! | R1 | No `unwrap()` / `expect()` / `panic!` in library crates outside tests. |
//! | R2 | No bare `as` casts to narrow integer types in library crates. |
//! | R3 | `SystemState` ownership mutators called only from audited files. |
//! | R4 | `pub fn`s returning allocation/persist `Result`s carry `#[must_use]`. |
//! | R5 | No `unsafe` anywhere in the workspace. |
//! | R6 | Durability ordering: engine paths that journal construct `Outcome` with a live `durable` flag, and no `flush()`/`append_batch()` result is discarded via `let _ =`. |
//! | R7 | Lock discipline: every `.lock()` is poison-tolerant, and the `Mutex`-field acquisition-order graph is cycle-free. |
//! | R8 | Metric-catalog drift: registration sites ↔ DESIGN §9 catalog, both directions. |
//! | R9 | Protocol-table drift: `Verb`/`ErrCode` tables ↔ HELP usage strings ↔ README grammar, both directions. |
//! | R10 | Recycle leak: locally bound `decide(...)`/`try_admit(...)` results in `bench`/`sim`/`cli` must be recycled, returned, or stored. |
//!
//! Suppressions: `// jigsaw-lint: allow(R1) -- reason` on the finding's
//! line or the line above waives it. A waiver without a reason is itself a
//! finding; unused waivers are reported so stale ones get cleaned up (and
//! deleted by `--fix`).

use crate::lexer::{lex, Suppression, Tok};

/// Library crates — the crates whose non-test code must be panic-free (R1),
/// truncation-free (R2) and `#[must_use]`-correct (R4). Binary crates
/// (`cli`, `bench`, `lint` itself) are exempt from those rules; R3 and R5
/// still apply to them.
pub const LIB_CRATES: [&str; 9] = [
    "topology", "routing", "core", "sim", "traces", "persist", "obs", "net", "jigsaw",
];

/// R2: `as` casts to these targets can truncate id/capacity arithmetic
/// (`NodeId`/`LinkId` payloads are `u32`, bandwidth is `u16`). Widening
/// casts (`as u64`, `as usize`, `as f64`) stay legal.
pub const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// R3: the `SystemState` ownership mutators. Everything allocation-related
/// that can violate the paper's exclusive-assignment guarantee when called
/// from unaudited code. (`set_node_offline`/`set_node_online` are the
/// failure-injection API, not allocation, and stay callable.)
pub const STATE_MUTATORS: [&str; 16] = [
    "claim_leaf_nodes",
    "release_leaf_nodes",
    "claim_leaf_uplinks",
    "release_leaf_uplinks",
    "claim_spine_uplinks",
    "release_spine_uplinks",
    "claim_node",
    "release_node",
    "claim_leaf_link",
    "release_leaf_link",
    "claim_spine_link",
    "release_spine_link",
    "try_reserve_leaf_link_bw",
    "try_reserve_spine_link_bw",
    "release_leaf_link_bw",
    "release_spine_link_bw",
];

/// R3: files allowed to call [`STATE_MUTATORS`] — the state implementation
/// itself plus the audited core entry points (`claim_allocation` /
/// `release_allocation` and the allocator scheme searches, all covered by
/// `jigsaw_core::audit` tests).
pub const MUTATION_ALLOWLIST: [&str; 8] = [
    "crates/topology/src/state.rs",
    "crates/core/src/alloc.rs",
    "crates/core/src/jigsaw.rs",
    "crates/core/src/baseline.rs",
    "crates/core/src/laas.rs",
    "crates/core/src/ta.rs",
    "crates/core/src/lcs.rs",
    "crates/core/src/search.rs",
];

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/core/src/search.rs`.
    pub rel_path: String,
    /// Crate name (`core`, `cli`, …), empty for files outside `crates/`.
    pub crate_name: String,
    /// `true` for `src/` files of a crate in [`LIB_CRATES`].
    pub lib_source: bool,
    /// `true` for files under `tests/`, `benches/` or `examples/`.
    pub test_code: bool,
}

impl FileClass {
    /// Classify a workspace-relative path (always `/`-separated).
    pub fn of(rel_path: &str) -> FileClass {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_name, rest) = match parts.as_slice() {
            ["crates", name, rest @ ..] => ((*name).to_string(), rest),
            _ => (String::new(), &parts[..]),
        };
        let test_code = rest
            .first()
            .is_some_and(|d| matches!(*d, "tests" | "benches" | "examples"));
        let lib_source = LIB_CRATES.contains(&crate_name.as_str()) && rest.first() == Some(&"src");
        FileClass {
            rel_path: rel_path.to_string(),
            crate_name,
            lib_source,
            test_code,
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Rule code: `R1`…`R5`.
    pub rule: &'static str,
    pub message: String,
}

/// One waived finding (kept visible: waivers are part of the report).
#[derive(Debug, Clone)]
pub struct Waiver {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub reason: String,
}

/// Everything the checker found in one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub waived: Vec<Waiver>,
    /// Suppression comments that matched nothing (line numbers).
    pub unused_suppressions: Vec<u32>,
}

/// Lint one file's source text with the per-file rules (R1–R5) only.
pub fn check_file(src: &str, class: &FileClass) -> FileReport {
    let (toks, sups) = lex(src);
    let raw = check_tokens_raw(&toks, class);
    apply_suppressions(raw, &sups, class)
}

/// The per-file rules (R1–R5) over an already-lexed stream, *without*
/// suppression handling — the workspace pipeline merges these raw findings
/// with the cross-file rules' before applying waivers once per file.
pub(crate) fn check_tokens_raw(toks: &[Tok], class: &FileClass) -> Vec<Violation> {
    let mut raw: Vec<Violation> = Vec::new();
    rule_r5_unsafe(toks, class, &mut raw);
    if class.lib_source {
        rule_r1_panics(toks, class, &mut raw);
        rule_r2_casts(toks, class, &mut raw);
        rule_r4_must_use(toks, class, &mut raw);
    }
    rule_r3_mutators(toks, class, &mut raw);
    raw
}

// --- R1 ---------------------------------------------------------------------

fn rule_r1_panics(toks: &[Tok], class: &FileClass, out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match t.ident() {
            Some("unwrap")
                if prev_is(toks, i, '.')
                    && next_is(toks, i, '(')
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                out.push(violation(
                    class,
                    t,
                    "R1",
                    "`unwrap()` in library code: convert to a typed error or a \
                     checked path (tests/benches are exempt)"
                        .into(),
                ));
            }
            Some("expect") if prev_is(toks, i, '.') && next_is(toks, i, '(') => {
                out.push(violation(
                    class,
                    t,
                    "R1",
                    "`expect()` in library code: convert to a typed error or a \
                     checked path (tests/benches are exempt)"
                        .into(),
                ));
            }
            Some("panic") if next_is(toks, i, '!') => {
                out.push(violation(
                    class,
                    t,
                    "R1",
                    "`panic!` in library code: return a typed error \
                     (`Reject`/`PersistError`) instead"
                        .into(),
                ));
            }
            _ => {}
        }
    }
}

// --- R2 ---------------------------------------------------------------------

fn rule_r2_casts(toks: &[Tok], class: &FileClass, out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.ident() != Some("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1).and_then(|n| n.ident()) else {
            continue;
        };
        if NARROW_INTS.contains(&target) {
            out.push(violation(
                class,
                t,
                "R2",
                format!(
                    "bare `as {target}` can truncate id/capacity arithmetic: use \
                     `try_into`, `{target}::from`, or the checked constructors in \
                     `topology::cast`/`topology::ids`"
                ),
            ));
        }
    }
}

// --- R3 ---------------------------------------------------------------------

fn rule_r3_mutators(toks: &[Tok], class: &FileClass, out: &mut Vec<Violation>) {
    // Test code sets up scenarios (and the audit proptests exercise the
    // mutators directly) — the confinement rule targets production paths.
    if class.test_code
        || MUTATION_ALLOWLIST
            .iter()
            .any(|allowed| class.rel_path == *allowed)
    {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if STATE_MUTATORS.contains(&name) && prev_is(toks, i, '.') && next_is(toks, i, '(') {
            out.push(violation(
                class,
                t,
                "R3",
                format!(
                    "`SystemState::{name}` called outside the audited-mutation \
                     allowlist: go through `jigsaw_core::alloc::claim_allocation` / \
                     `release_allocation` (or an allocator) so the audit invariants hold"
                ),
            ));
        }
    }
}

// --- R4 ---------------------------------------------------------------------

fn rule_r4_must_use(toks: &[Tok], class: &FileClass, out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].in_test
            || toks[i].ident() != Some("pub")
            || toks.get(i + 1).and_then(|t| t.ident()) != Some("fn")
        {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 2) else {
            break;
        };
        let fn_name = name_tok.ident().unwrap_or("?").to_string();
        let Some(ret) = return_type_text(toks, i + 2) else {
            i += 3;
            continue;
        };
        if must_use_required(&ret, class) && !has_must_use_attr(toks, i) {
            out.push(violation(
                class,
                &toks[i],
                "R4",
                format!(
                    "pub fn `{fn_name}` returns `{ret}` but carries no \
                     `#[must_use]`: dropping this Result loses claimed resources \
                     or durability errors"
                ),
            ));
        }
        i += 3;
    }
}

/// Does a return type demand `#[must_use]`? Allocation grants anywhere;
/// every `Result` in the persist crate (journal/snapshot I/O).
fn must_use_required(ret: &str, class: &FileClass) -> bool {
    if !ret.contains("Result") {
        return false;
    }
    class.crate_name == "persist" || ret.contains("Reject") || ret.contains("PersistError")
}

/// Flatten the return type of the `fn` whose name sits at `name_idx` into a
/// compact string, or `None` if the fn has no `->` clause.
fn return_type_text(toks: &[Tok], name_idx: usize) -> Option<String> {
    // Find the parameter list's `(` at angle-depth 0 (skipping generics).
    let mut j = name_idx + 1;
    let mut angle = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            crate::lexer::Kind::Punct('<') => angle += 1,
            crate::lexer::Kind::Punct('>') if !prev_is(toks, j, '-') => angle -= 1,
            crate::lexer::Kind::Punct('(') if angle <= 0 => break,
            crate::lexer::Kind::Punct('{') | crate::lexer::Kind::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    }
    // Matching `)`.
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    // `->` ?
    if !(toks.get(j + 1).is_some_and(|t| t.is_punct('-'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('>')))
    {
        return None;
    }
    let mut parts: Vec<String> = Vec::new();
    let mut k = j + 3;
    let mut bracket = 0i32;
    while k < toks.len() {
        match &toks[k].kind {
            crate::lexer::Kind::Punct('{') | crate::lexer::Kind::Punct(';') if bracket == 0 => {
                break;
            }
            crate::lexer::Kind::Ident(s) if s == "where" && bracket == 0 => break,
            crate::lexer::Kind::Punct(c) => {
                if matches!(c, '(' | '[') {
                    bracket += 1;
                } else if matches!(c, ')' | ']') {
                    bracket -= 1;
                }
                parts.push(c.to_string());
            }
            crate::lexer::Kind::Ident(s) => parts.push(s.clone()),
            crate::lexer::Kind::Str(_) | crate::lexer::Kind::Lit => parts.push("_".into()),
        }
        k += 1;
    }
    Some(render_type(&parts))
}

/// Join type tokens without spaces around punctuation, with one space
/// after commas, for readable diagnostics.
fn render_type(parts: &[String]) -> String {
    let mut out = String::new();
    for p in parts {
        if p == "," {
            out.push_str(", ");
        } else if p.chars().all(|c| c.is_alphanumeric() || c == '_') {
            if out
                .chars()
                .last()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                out.push(' ');
            }
            out.push_str(p);
        } else {
            out.push_str(p);
        }
    }
    out
}

/// Does the `pub` token at `pub_idx` carry a `#[must_use…]` attribute among
/// the attributes immediately preceding it?
fn has_must_use_attr(toks: &[Tok], pub_idx: usize) -> bool {
    let mut end = pub_idx;
    while end >= 1 && toks[end - 1].is_punct(']') {
        // Walk back to the matching `[`.
        let mut depth = 0i32;
        let mut j = end - 1;
        loop {
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        if j == 0 || !toks[j - 1].is_punct('#') {
            return false;
        }
        if toks[j..end].iter().any(|t| t.ident() == Some("must_use")) {
            return true;
        }
        end = j - 1;
    }
    false
}

// --- R5 ---------------------------------------------------------------------

fn rule_r5_unsafe(toks: &[Tok], class: &FileClass, out: &mut Vec<Violation>) {
    for t in toks {
        if t.ident() == Some("unsafe") {
            out.push(violation(
                class,
                t,
                "R5",
                "`unsafe` is banned workspace-wide (`#![forbid(unsafe_code)]`): \
                 the scheduler's guarantees are proven over safe code only"
                    .into(),
            ));
        }
    }
}

// --- shared helpers ---------------------------------------------------------

fn violation(class: &FileClass, t: &Tok, rule: &'static str, message: String) -> Violation {
    Violation {
        file: class.rel_path.clone(),
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

fn prev_is(toks: &[Tok], i: usize, c: char) -> bool {
    i > 0 && toks[i - 1].is_punct(c)
}

fn next_is(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(c))
}

/// Split raw findings into surviving violations and waived ones, and
/// collect unused / reason-less suppressions.
pub(crate) fn apply_suppressions(
    raw: Vec<Violation>,
    sups: &[Suppression],
    class: &FileClass,
) -> FileReport {
    let mut report = FileReport::default();
    let mut used = vec![false; sups.len()];

    'finding: for v in raw {
        for (si, s) in sups.iter().enumerate() {
            let covers_line = v.line == s.line || v.line == s.line + 1;
            if covers_line && s.rules.iter().any(|r| r == v.rule) {
                used[si] = true;
                if s.reason.is_empty() {
                    // A reason-less waiver does not waive: keep the finding
                    // and point at the broken comment.
                    report.violations.push(Violation {
                        message: format!(
                            "{} (suppression on line {} is missing a `-- reason`)",
                            v.message, s.line
                        ),
                        ..v
                    });
                } else {
                    report.waived.push(Waiver {
                        file: class.rel_path.clone(),
                        line: v.line,
                        rule: v.rule,
                        reason: s.reason.clone(),
                    });
                }
                continue 'finding;
            }
        }
        report.violations.push(v);
    }

    for (si, s) in sups.iter().enumerate() {
        if !used[si] {
            report.unused_suppressions.push(s.line);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class() -> FileClass {
        FileClass::of("crates/core/src/search.rs")
    }

    fn check(src: &str, class: &FileClass) -> Vec<(&'static str, u32)> {
        check_file(src, class)
            .violations
            .iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn classification() {
        let c = FileClass::of("crates/core/src/search.rs");
        assert!(c.lib_source && !c.test_code);
        assert_eq!(c.crate_name, "core");
        let t = FileClass::of("crates/core/tests/reject_paths.rs");
        assert!(!t.lib_source && t.test_code);
        let cli = FileClass::of("crates/cli/src/main.rs");
        assert!(!cli.lib_source && !cli.test_code);
        let root_test = FileClass::of("tests/properties.rs");
        assert!(root_test.test_code);
    }

    #[test]
    fn r1_fires_on_lib_but_not_cli_or_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); }";
        assert_eq!(
            check(src, &lib_class()),
            vec![("R1", 1), ("R1", 1), ("R1", 1)]
        );
        assert!(check(src, &FileClass::of("crates/cli/src/main.rs")).is_empty());
        assert!(check(src, &FileClass::of("crates/core/tests/t.rs")).is_empty());
    }

    #[test]
    fn r1_leaves_unwrap_or_else_alone() {
        let src = "fn f() { x.unwrap_or_else(g); x.unwrap_or(0); x.expect_err(\"m\"); }";
        assert!(check(src, &lib_class()).is_empty());
    }

    #[test]
    fn r2_flags_narrowing_not_widening() {
        let src = "fn f() { let a = x as u32; let b = x as u16; let c = x as usize; let d = x as u64; let e = x as f64; }";
        assert_eq!(check(src, &lib_class()), vec![("R2", 1), ("R2", 1)]);
    }

    #[test]
    fn r2_ignores_use_renames() {
        let src = "use std::io::Result as IoResult;";
        assert!(check(src, &lib_class()).is_empty());
    }

    #[test]
    fn r3_confines_mutators() {
        let src = "fn f(s: &mut SystemState) { s.claim_node(n, j); }";
        assert_eq!(
            check(src, &FileClass::of("crates/sim/src/engine.rs")),
            vec![("R3", 1)]
        );
        assert!(check(src, &FileClass::of("crates/core/src/alloc.rs")).is_empty());
        // Defining the method is not calling it.
        let def = "impl SystemState { pub fn claim_node(&mut self) {} }";
        assert!(check(def, &FileClass::of("crates/sim/src/engine.rs")).is_empty());
    }

    #[test]
    fn r4_requires_must_use_on_grant_results() {
        let src = "pub fn allocate(&mut self) -> Result<Allocation, Reject> { todo() }";
        assert_eq!(check(src, &lib_class()), vec![("R4", 1)]);
        let ok = "#[must_use = \"grants leak\"]\npub fn allocate(&mut self) -> Result<Allocation, Reject> { todo() }";
        assert!(check(ok, &lib_class()).is_empty());
        // Plain Results outside persist are not covered.
        let other = "pub fn parse(&self) -> Result<u32, String> { todo() }";
        assert!(check(other, &lib_class()).is_empty());
        // …but in persist every Result is.
        assert_eq!(
            check(other, &FileClass::of("crates/persist/src/journal.rs")),
            vec![("R4", 1)]
        );
    }

    #[test]
    fn r4_handles_generics_in_params() {
        let src =
            "pub fn save<T: Into<String>>(&self, t: T) -> std::io::Result<PathBuf> { todo() }";
        assert_eq!(
            check(src, &FileClass::of("crates/persist/src/snapshot.rs")),
            vec![("R4", 1)]
        );
    }

    #[test]
    fn r5_bans_unsafe_everywhere_even_tests() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(check(src, &lib_class()), vec![("R5", 1)]);
        assert_eq!(
            check(src, &FileClass::of("crates/cli/src/main.rs")),
            vec![("R5", 1)]
        );
        assert_eq!(
            check(src, &FileClass::of("tests/properties.rs")),
            vec![("R5", 1)]
        );
    }

    #[test]
    fn suppression_waives_with_reason_and_counts() {
        let src =
            "fn f() {\n    // jigsaw-lint: allow(R1) -- recovery invariant\n    x.unwrap();\n}";
        let rep = check_file(src, &lib_class());
        assert!(rep.violations.is_empty());
        assert_eq!(rep.waived.len(), 1);
        assert_eq!(rep.waived[0].reason, "recovery invariant");
        assert!(rep.unused_suppressions.is_empty());
    }

    #[test]
    fn reasonless_suppression_does_not_waive() {
        let src = "fn f() { x.unwrap(); // jigsaw-lint: allow(R1)\n}";
        let rep = check_file(src, &lib_class());
        assert_eq!(rep.violations.len(), 1);
        assert!(rep.violations[0].message.contains("missing a `-- reason`"));
        assert!(rep.waived.is_empty());
    }

    #[test]
    fn unused_suppressions_are_reported() {
        let src = "// jigsaw-lint: allow(R1) -- nothing here\nfn f() {}";
        let rep = check_file(src, &lib_class());
        assert_eq!(rep.unused_suppressions, vec![1]);
    }

    #[test]
    fn wrong_rule_suppression_does_not_waive() {
        let src = "fn f() {\n    // jigsaw-lint: allow(R2) -- wrong rule\n    x.unwrap();\n}";
        let rep = check_file(src, &lib_class());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.unused_suppressions, vec![2]);
    }
}
