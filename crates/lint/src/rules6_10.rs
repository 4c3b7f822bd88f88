//! The cross-file rule catalog (R6, R7, R10).
//!
//! These rules run once over the whole workspace, on top of the item
//! parser and the conservative graphs in [`graph`](crate::graph):
//!
//! * **R6 durability-ordering** — in `net::engine`, any fn that can reach
//!   a `persist::commit_*`/`append*` call must construct its `Outcome`
//!   with a live `durable` flag (a literal `false`, or a missing field,
//!   would let the server release an `OK` reply without a covering
//!   fsync — DESIGN §12). Workspace-wide, no `flush()`/`append_batch()`
//!   result may be discarded via `let _ =`.
//! * **R7 lock-discipline** — every `.lock()` call is immediately made
//!   poison-tolerant (`.unwrap_or_else(PoisonError::into_inner)`), and
//!   the acquisition-order graph over named `Mutex` struct fields is
//!   cycle-free.
//! * **R10 recycle-leak** — a `decide(...)`/`try_admit(...)` result in
//!   `bench`/`sim`/
//!   `cli` that is locally bound and then neither recycled, returned, nor
//!   stored escapes the PR-8 scratch-pool cycle and is flagged.
//!
//! R8 (metric-catalog drift) and R9 (protocol-table drift) are retired:
//! `tests/metric_catalog.rs` compares DESIGN §9 with a live registry's
//! exposition, and `crates/net/tests/readme_protocol.rs` compares the
//! README with the compiled `VERBS` and `ErrCode::ALL` tables.
//!
//! Soundness notes live in DESIGN §15. Every rule here over-approximates
//! (name-based matching, no type resolution); false positives are
//! expected to be rare and waivable with a reasoned
//! `// jigsaw-lint: allow(R…) -- why`.

use crate::graph::{calls_per_fn, Acquisition, LockOrder, Reach};
use crate::lexer::Tok;
use crate::rules::Violation;
use crate::Scan;
use std::collections::BTreeSet;

/// The one file whose `Outcome` constructions R6 audits.
pub const ENGINE_FILE: &str = "crates/net/src/engine.rs";

/// Journal-writing APIs: reaching any of these marks a path as durable.
const DURABILITY_APIS: [&str; 7] = [
    "commit_grant",
    "commit_submit",
    "commit_reserve",
    "commit_release",
    "commit_migrate",
    "append",
    "append_batch",
];

/// Crates whose locally bound `allocate(...)` results R10 audits —
/// the experiment drivers that own the scratch-pool cycle.
const R10_CRATES: [&str; 3] = ["bench", "sim", "cli"];

/// Run every cross-file rule over the scanned workspace.
pub(crate) fn check_workspace(scans: &[Scan]) -> Vec<Violation> {
    let mut out = Vec::new();
    for scan in scans {
        if scan.class.rel_path == ENGINE_FILE {
            r6_outcome_durability(scan, &mut out);
        }
        r6_discarded_flush(scan, &mut out);
        r7_poison_tolerance(scan, &mut out);
        r10_recycle_leak(scan, &mut out);
    }
    r7_lock_order(scans, &mut out);
    out
}

fn v(file: &str, line: u32, col: u32, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        col,
        rule,
        message,
    }
}

// --- R6: durability ordering ------------------------------------------------

/// In `net::engine`, any fn that can reach a journal-writing call must
/// construct `Outcome` with a live `durable` field.
fn r6_outcome_durability(scan: &Scan, out: &mut Vec<Violation>) {
    let toks = &scan.toks;
    let calls = calls_per_fn(toks, &scan.parsed);
    let reach = Reach::new(&scan.parsed, &calls);
    let target = |n: &str| DURABILITY_APIS.contains(&n);

    for (fi, f) in scan.parsed.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        if !reach.reaches(fi, &target) {
            continue;
        }
        let mut i = open + 1;
        while i < close {
            if toks[i].ident() == Some("Outcome")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('{'))
            {
                if let Some(lit_close) = crate::parser::matching_brace(toks, i + 1) {
                    check_outcome_literal(scan, toks, i, i + 1, lit_close, &f.name, out);
                    i = lit_close + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Inspect one `Outcome { … }` literal: the `durable` field must exist and
/// must not be the literal `false`.
fn check_outcome_literal(
    scan: &Scan,
    toks: &[Tok],
    name_idx: usize,
    open: usize,
    close: usize,
    fn_name: &str,
    out: &mut Vec<Violation>,
) {
    let mut depth = 0i32;
    let mut found = false;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 1
            && t.ident() == Some("durable")
            && (toks[i - 1].is_punct('{') || toks[i - 1].is_punct(','))
        {
            found = true;
            if toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                // Collect the value tokens at this depth.
                let mut vals: Vec<&Tok> = Vec::new();
                let mut j = i + 2;
                let mut vdepth = 0i32;
                while j < close {
                    let vt = &toks[j];
                    if vt.is_punct('(') || vt.is_punct('[') || vt.is_punct('{') {
                        vdepth += 1;
                    } else if vt.is_punct(')') || vt.is_punct(']') || vt.is_punct('}') {
                        vdepth -= 1;
                    } else if vt.is_punct(',') && vdepth == 0 {
                        break;
                    }
                    vals.push(vt);
                    j += 1;
                }
                if vals.len() == 1 && vals[0].ident() == Some("false") {
                    out.push(v(
                        &scan.class.rel_path,
                        toks[name_idx].line,
                        toks[name_idx].col,
                        "R6",
                        format!(
                            "`{fn_name}` journals (reaches a persist commit/append) but \
                             constructs `Outcome` with `durable: false` — the reply would \
                             be released without a covering fsync (DESIGN §12)"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
    if !found {
        out.push(v(
            &scan.class.rel_path,
            toks[name_idx].line,
            toks[name_idx].col,
            "R6",
            format!(
                "`{fn_name}` journals (reaches a persist commit/append) but constructs \
                 `Outcome` without a `durable` field — group commit cannot know to hold \
                 the reply for the next fsync (DESIGN §12)"
            ),
        ));
    }
}

/// Workspace-wide: `let _ = …flush(…)` / `let _ = …append_batch(…)`
/// silently discards a durability error (fail-stop contract, DESIGN §12).
fn r6_discarded_flush(scan: &Scan, out: &mut Vec<Violation>) {
    let toks = &scan.toks;
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].ident() == Some("let")
            && toks[i + 1].ident() == Some("_")
            && toks[i + 2].is_punct('=')
        {
            let mut depth = 0i32;
            let mut j = i + 3;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                }
                if matches!(t.ident(), Some("flush") | Some("append_batch"))
                    && j > 0
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    out.push(v(
                        &scan.class.rel_path,
                        toks[i].line,
                        toks[i].col,
                        "R6",
                        format!(
                            "`let _ =` discards a `{}()` result: a failed fsync must \
                             fail-stop, not vanish (DESIGN §12)",
                            toks[j].ident().unwrap_or("flush"),
                        ),
                    ));
                    break;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
}

// --- R7: lock discipline ----------------------------------------------------

/// Every `.lock()` call must be made poison-tolerant on the spot.
fn r7_poison_tolerance(scan: &Scan, out: &mut Vec<Violation>) {
    if scan.class.test_code {
        return;
    }
    let toks = &scan.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test
            || t.ident() != Some("lock")
            || i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        // Find the call's closing paren.
        let mut depth = 0i32;
        let mut j = i + 1;
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
        let tolerant = toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(j + 2).and_then(Tok::ident) == Some("unwrap_or_else")
            && toks[j + 3..toks.len().min(j + 16)]
                .iter()
                .any(|n| n.ident() == Some("into_inner"));
        if !tolerant {
            out.push(v(
                &scan.class.rel_path,
                t.line,
                t.col,
                "R7",
                "`.lock()` without poison tolerance: use the crate's `lock` helper or \
                 `.unwrap_or_else(std::sync::PoisonError::into_inner)` so one panicked \
                 thread cannot wedge the daemon"
                    .into(),
            ));
        }
    }
}

/// Build the workspace lock-order graph over named `Mutex` fields and
/// report a representative edge of any cycle.
fn r7_lock_order(scans: &[Scan], out: &mut Vec<Violation>) {
    // Universe: every named Mutex struct field in the workspace.
    let mut fields: BTreeSet<&str> = BTreeSet::new();
    for scan in scans {
        for mf in &scan.parsed.mutex_fields {
            fields.insert(mf.field.as_str());
        }
    }
    if fields.is_empty() {
        return;
    }

    let mut order = LockOrder::default();
    for scan in scans {
        if scan.class.test_code {
            continue;
        }
        let toks = &scan.toks;
        for f in &scan.parsed.fns {
            if f.in_test {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let mut acqs: Vec<Acquisition> = Vec::new();
            for i in open + 1..close {
                if toks[i].ident() != Some("lock")
                    || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                let acquired: Option<&str> = if toks[i - 1].is_punct('.') {
                    // `….field.lock()` — the field ident sits two back.
                    toks.get(i.wrapping_sub(2))
                        .and_then(Tok::ident)
                        .filter(|name| fields.contains(name))
                } else if toks
                    .get(i.wrapping_sub(1))
                    .and_then(Tok::ident)
                    .is_some_and(|p| p == "fn")
                {
                    None // the helper's own definition
                } else {
                    // Helper call `lock(&x.field)` — first known field in args.
                    let mut depth = 0i32;
                    let mut j = i + 1;
                    let mut hit = None;
                    while j < close {
                        if toks[j].is_punct('(') {
                            depth += 1;
                        } else if toks[j].is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if let Some(name) = toks[j].ident() {
                            if fields.contains(name) {
                                hit = Some(name);
                                break;
                            }
                        }
                        j += 1;
                    }
                    hit
                };
                if let Some(field) = acquired {
                    acqs.push(Acquisition {
                        field: field.to_string(),
                        file: scan.class.rel_path.clone(),
                        line: toks[i].line,
                    });
                }
            }
            order.add_fn(&acqs);
        }
    }

    if let Some((cycle, (file, line))) = order.find_cycle() {
        out.push(v(
            &file,
            line,
            1,
            "R7",
            format!(
                "lock-order cycle over Mutex fields: {} — two threads interleaving \
                 these acquisitions can deadlock; pick one global order",
                cycle.join(" -> "),
            ),
        ));
    }
}

// --- R10: recycle leak ------------------------------------------------------

/// A locally bound `decide(...)`/`try_admit(...)` result in the
/// experiment-driver crates must be recycled, returned, or stored —
/// anything else silently defeats the PR-8 zero-alloc pool cycle. (The
/// legacy `allocate` ident is still matched so stale call sites cannot
/// dodge the audit.)
fn r10_recycle_leak(scan: &Scan, out: &mut Vec<Violation>) {
    if !R10_CRATES.contains(&scan.class.crate_name.as_str()) || scan.class.test_code {
        return;
    }
    let toks = &scan.toks;
    for f in &scan.parsed.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut i = open + 1;
        while i < close {
            if toks[i].ident() != Some("let") {
                i += 1;
                continue;
            }
            let let_idx = i;
            let in_cond =
                let_idx > 0 && matches!(toks[let_idx - 1].ident(), Some("if") | Some("while"));
            // Binding pattern: `x`, `mut x`, `Ok(x)`, `Some(x)` (with
            // optional `mut`). Anything else (tuples, structs) is skipped.
            let mut k = i + 1;
            if toks.get(k).and_then(Tok::ident) == Some("mut") {
                k += 1;
            }
            let bound: Option<&str> = match toks.get(k).and_then(Tok::ident) {
                Some("Ok" | "Some") => {
                    if toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                        let inner = if toks.get(k + 2).and_then(Tok::ident) == Some("mut") {
                            k + 3
                        } else {
                            k + 2
                        };
                        if toks.get(inner + 1).is_some_and(|t| t.is_punct(')'))
                            && toks.get(inner + 2).is_some_and(|t| t.is_punct('='))
                        {
                            k = inner + 2;
                            toks.get(inner).and_then(Tok::ident)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
                Some(name) => {
                    if toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                        k += 1;
                        Some(name)
                    } else {
                        None
                    }
                }
                None => None,
            };
            let Some(bound) = bound else {
                i += 1;
                continue;
            };
            // Init range: from after `=` to the statement end (`;` for
            // plain lets — brace-aware for struct literals and `let-else`
            // blocks — or the block `{` for `if let`/`while let`).
            let mut j = k + 1;
            let mut depth = 0i32;
            let mut calls_allocate = false;
            while j < close {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || (!in_cond && t.is_punct('{')) {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || (!in_cond && t.is_punct('}')) {
                    depth -= 1;
                } else if (t.is_punct(';') || (in_cond && t.is_punct('{'))) && depth <= 0 {
                    break;
                }
                if matches!(t.ident(), Some("allocate" | "try_admit" | "decide"))
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    calls_allocate = true;
                }
                j += 1;
            }
            if !calls_allocate {
                i = j;
                continue;
            }
            // From the end of the statement to the end of the fn: the
            // binding must be recycled, or escape (any use not immediately
            // followed by `.` — a return, a call argument, a store).
            let mut escapes = false;
            for u in j..close {
                let t = &toks[u];
                if matches!(t.ident(), Some("recycle") | Some("release")) {
                    escapes = true;
                    break;
                }
                if t.ident() == Some(bound) && !toks.get(u + 1).is_some_and(|n| n.is_punct('.')) {
                    escapes = true;
                    break;
                }
            }
            if !escapes {
                out.push(v(
                    &scan.class.rel_path,
                    toks[let_idx].line,
                    toks[let_idx].col,
                    "R10",
                    format!(
                        "`{bound}` binds an allocation-decision result but is neither \
                         recycled, returned, nor stored — the grant leaks out of the \
                         scratch-pool cycle (DESIGN §14); call `recycle` or let the \
                         allocation escape"
                    ),
                ));
            }
            i = j;
        }
    }
}
