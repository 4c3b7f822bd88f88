//! Golden-fixture tests: every rule has a known-firing and a known-clean
//! sample under `tests/fixtures/`, the suppression grammar round-trips,
//! the JSON report parses, and — the acceptance criterion — the workspace
//! itself is clean.
//!
//! Fixture files are plain text to the lint engine (they are never
//! compiled), so they can contain deliberate violations, including
//! `unsafe`, without affecting the build.

use jigsaw_lint::rules::FileReport;
use jigsaw_lint::{find_workspace_root, lint_source, lint_workspace, render_json, Report};
use std::path::Path;

/// Lint a fixture as if it were library-crate source.
fn lint_fixture(name: &str) -> FileReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lint_source(&format!("crates/core/src/{name}"), &src)
}

fn rules_fired(report: &FileReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn r1_fires_and_stays_quiet() {
    assert_eq!(
        rules_fired(&lint_fixture("r1_firing.rs")),
        ["R1", "R1", "R1"]
    );
    assert_eq!(rules_fired(&lint_fixture("r1_clean.rs")), [""; 0]);
}

#[test]
fn r2_fires_and_stays_quiet() {
    assert_eq!(rules_fired(&lint_fixture("r2_firing.rs")), ["R2", "R2"]);
    assert_eq!(rules_fired(&lint_fixture("r2_clean.rs")), [""; 0]);
}

#[test]
fn r3_fires_and_stays_quiet() {
    assert_eq!(rules_fired(&lint_fixture("r3_firing.rs")), ["R3", "R3"]);
    assert_eq!(rules_fired(&lint_fixture("r3_clean.rs")), [""; 0]);
}

#[test]
fn r3_is_quiet_inside_the_allowlist() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r3_firing.rs");
    let src = std::fs::read_to_string(path).unwrap();
    let report = lint_source("crates/topology/src/state.rs", &src);
    assert_eq!(rules_fired(&report), [""; 0]);
}

#[test]
fn r5_fires_and_stays_quiet() {
    // `unsafe` is flagged even inside `#[cfg(test)]`.
    assert_eq!(rules_fired(&lint_fixture("r5_firing.rs")), ["R5"]);
    assert_eq!(rules_fired(&lint_fixture("r5_clean.rs")), [""; 0]);
}

#[test]
fn suppression_round_trip() {
    let report = lint_fixture("suppressions.rs");
    // The reason-less waiver keeps its finding alive (with a pointer at
    // the broken comment); everything else waived or reported as stale.
    assert_eq!(rules_fired(&report), ["R1"]);
    assert!(report.violations[0]
        .message
        .contains("missing a `-- reason`"));
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].rule, "R2");
    assert_eq!(report.waived[0].reason, "clamped by the caller to fit");
    // The R5 waiver matches nothing and is reported stale.
    assert_eq!(report.unused_suppressions.len(), 1);
}

#[test]
fn violation_positions_are_exact() {
    let report = lint_fixture("r1_firing.rs");
    let v = &report.violations[0];
    // Line 3 of the fixture: `    let text = ... .unwrap();`
    assert_eq!((v.line, v.rule), (3, "R1"));
    assert!(v.col > 1);
    assert_eq!(v.file, "crates/core/src/r1_firing.rs");
}

#[test]
fn json_report_parses_with_serde_json() {
    let mut report = Report::default();
    for fixture in ["r1_firing.rs", "r2_firing.rs", "suppressions.rs"] {
        let file = lint_fixture(fixture);
        report.unused_suppressions.extend(
            file.unused_suppressions
                .iter()
                .map(|&l| (fixture.to_string(), l)),
        );
        report.violations.extend(file.violations);
        report.waived.extend(file.waived);
        report.files_scanned += 1;
    }
    let json = render_json(&report);
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let arr_len = |key: &str| value.get(key).and_then(|v| v.as_array()).map(<[_]>::len);
    assert_eq!(
        value.get("files_scanned"),
        Some(&serde_json::Value::UInt(3))
    );
    assert_eq!(value.get("clean"), Some(&serde_json::Value::Bool(false)));
    assert_eq!(arr_len("violations"), Some(report.violations.len()));
    assert_eq!(arr_len("waived"), Some(report.waived.len()));
    assert_eq!(arr_len("unused_suppressions"), Some(1));
    // Messages contain backticks and parens; spot-check escaping survived.
    let first_msg = value
        .get("violations")
        .and_then(|v| v.as_array())
        .and_then(<[_]>::first)
        .and_then(|v| v.get("message"))
        .and_then(|m| m.as_str())
        .expect("violations[0].message");
    assert!(first_msg.contains("unwrap"));
}

/// The acceptance criterion, enforced by `cargo test`: the workspace has
/// zero violations and zero stale suppressions — exactly what
/// `cargo run -p jigsaw-lint -- --deny` checks in CI.
#[test]
fn workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 100, "scan looks truncated");
    let rendered = jigsaw_lint::render_text(&report);
    assert!(report.is_clean(), "workspace not lint-clean:\n{rendered}");
}
