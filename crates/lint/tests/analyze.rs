//! Cross-file analysis tests (R6, R7, R10): every rule has a
//! seeded-violation fixture it fires on, a reasoned waiver silences it,
//! and a reason-less waiver keeps the run dirty. The emitters
//! (`--emit github`) and the waiver fixer (`--fix`) are tested directly.
//!
//! Fixture files are plain text to the lint engine (never compiled), so
//! they can hold deliberate violations without affecting the build.

use jigsaw_lint::rules6_10::ENGINE_FILE;
use jigsaw_lint::{analyze_sources, fix_stale_waivers, lint_workspace, render_github, Report};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Run the full pipeline over in-memory `(rel_path, src)` pairs.
fn analyze(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(r, s)| (r.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned)
}

fn rules_fired(report: &Report) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

/// Insert `text` as its own line immediately above 1-based `line`.
fn insert_above(src: &str, line: u32, text: &str) -> String {
    let mut out = Vec::new();
    for (i, l) in src.lines().enumerate() {
        if i + 1 == line as usize {
            out.push(text.to_string());
        }
        out.push(l.to_string());
    }
    out.join("\n")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-analyze-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// --- R6 ---------------------------------------------------------------------

#[test]
fn r6_fires_on_dead_flag_missing_field_and_discarded_flush() {
    let report = analyze(&[(ENGINE_FILE, &fixture("r6_firing.rs"))]);
    assert_eq!(rules_fired(&report), ["R6", "R6", "R6"]);
    assert!(report.violations[0].message.contains("durable: false"));
    assert!(report.violations[1]
        .message
        .contains("without a `durable` field"));
    assert!(report.violations[2].message.contains("discards"));
}

#[test]
fn r6_is_silenced_by_a_reasoned_waiver_but_not_a_bare_one() {
    let src = fixture("r6_firing.rs");
    let first = analyze(&[(ENGINE_FILE, &src)]).violations[0].line;

    let waived = insert_above(
        &src,
        first,
        "        // jigsaw-lint: allow(R6) -- fixture: fsync is covered one layer up",
    );
    let report = analyze(&[(ENGINE_FILE, &waived)]);
    assert_eq!(rules_fired(&report), ["R6", "R6"]);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].rule, "R6");

    let bare = insert_above(&src, first, "        // jigsaw-lint: allow(R6)");
    let report = analyze(&[(ENGINE_FILE, &bare)]);
    assert!(!report.is_clean());
    assert!(report
        .violations
        .iter()
        .any(|v| v.message.contains("missing a `-- reason`")));
}

// --- R7 ---------------------------------------------------------------------

const R7_PATH: &str = "crates/cli/src/locks.rs";

#[test]
fn r7_fires_on_intolerant_lock_and_order_cycle() {
    let report = analyze(&[(R7_PATH, &fixture("r7_firing.rs"))]);
    assert_eq!(rules_fired(&report), ["R7", "R7"]);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("lock-order cycle")));
    assert!(messages.iter().any(|m| m.contains("poison")));
}

#[test]
fn r7_findings_are_individually_waivable() {
    let src = fixture("r7_firing.rs");
    let report = analyze(&[(R7_PATH, &src)]);
    for v in &report.violations {
        let waived = insert_above(
            &src,
            v.line,
            "        // jigsaw-lint: allow(R7) -- fixture: single-threaded harness",
        );
        let rerun = analyze(&[(R7_PATH, &waived)]);
        assert_eq!(rerun.violations.len(), report.violations.len() - 1);
        assert_eq!(rerun.waived.len(), 1);
    }
}

// --- R10 --------------------------------------------------------------------

const R10_PATH: &str = "crates/bench/src/fixture.rs";

#[test]
fn r10_fires_only_on_the_leaked_binding() {
    let report = analyze(&[(R10_PATH, &fixture("r10_firing.rs"))]);
    assert_eq!(rules_fired(&report), ["R10"]);
    assert!(report.violations[0].message.contains("`got`"));
    assert!(report.violations[0].message.contains("recycled"));
}

#[test]
fn r10_is_silenced_by_a_reasoned_waiver() {
    let src = fixture("r10_firing.rs");
    let line = analyze(&[(R10_PATH, &src)]).violations[0].line;
    let waived = insert_above(
        &src,
        line,
        "    // jigsaw-lint: allow(R10) -- fixture: occupancy is the product",
    );
    let report = analyze(&[(R10_PATH, &waived)]);
    assert!(report.is_clean());
    assert_eq!(report.waived.len(), 1);
}

// --- pipeline infrastructure ------------------------------------------------

#[test]
fn github_emitter_renders_one_annotation_per_finding() {
    let report = analyze(&[(ENGINE_FILE, &fixture("r6_firing.rs"))]);
    let gh = render_github(&report);
    let annotations: Vec<&str> = gh.lines().filter(|l| l.starts_with("::error ")).collect();
    assert_eq!(annotations.len(), 3);
    for a in &annotations {
        assert!(a.starts_with(&format!("::error file={ENGINE_FILE},line=")));
        assert!(a.contains("title=jigsaw-lint R6::"));
    }
    // Stale waivers get their own annotation.
    let stale = analyze(&[(
        "crates/core/src/a.rs",
        "// jigsaw-lint: allow(R1) -- nothing here\nfn quiet() {}\n",
    )]);
    assert!(render_github(&stale).contains("title=jigsaw-lint stale-waiver::"));
}

#[test]
fn fix_deletes_stale_waivers_and_is_idempotent() {
    let dir = tmpdir("fix");
    std::fs::create_dir_all(dir.join("crates/cli/src")).unwrap();
    let file = dir.join("crates/cli/src/main.rs");
    std::fs::write(
        &file,
        "fn main() {\n    // jigsaw-lint: allow(R1) -- stale: nothing unwraps\n    \
         let x = 1;\n    tick(x); // jigsaw-lint: allow(R2) -- also stale\n}\n",
    )
    .unwrap();

    let report = lint_workspace(&dir).unwrap();
    assert_eq!(report.unused_suppressions.len(), 2);
    assert_eq!(fix_stale_waivers(&dir, &report).unwrap(), 2);

    let after = std::fs::read_to_string(&file).unwrap();
    assert!(!after.contains("jigsaw-lint:"), "waivers gone:\n{after}");
    assert!(after.contains("    tick(x);"), "code kept:\n{after}");

    let clean = lint_workspace(&dir).unwrap();
    assert!(clean.is_clean());
    assert_eq!(fix_stale_waivers(&dir, &clean).unwrap(), 0);
    assert_eq!(std::fs::read_to_string(&file).unwrap(), after);
    let _ = std::fs::remove_dir_all(&dir);
}
