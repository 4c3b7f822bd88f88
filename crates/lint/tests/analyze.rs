//! Cross-file analysis tests (R6–R10): every rule has a seeded-violation
//! fixture it fires on, a reasoned waiver silences it, and a reason-less
//! waiver keeps the run dirty. The drift rules (R8/R9) are additionally
//! exercised *bidirectionally against the real workspace*: deleting a
//! catalog row, a registration, a protocol-table entry, or a README token
//! must each make the report unclean. The emitters (`--emit github`) and
//! the waiver fixer (`--fix`) are tested directly.
//!
//! Fixture files are plain text to the lint engine (never compiled), so
//! they can hold deliberate violations without affecting the build.

use jigsaw_lint::rules6_10::{ENGINE_FILE, PROTOCOL_FILE};
use jigsaw_lint::{
    analyze_sources, collect_workspace, find_workspace_root, fix_stale_waivers, lint_workspace,
    render_github, Docs, Report,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Run the full pipeline over in-memory `(rel_path, src)` pairs.
fn analyze(files: &[(&str, &str)], docs: &Docs) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(r, s)| (r.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned, docs)
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

fn workspace() -> (Vec<(String, String)>, Docs) {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    collect_workspace(&root).expect("workspace sources readable")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-analyze-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// --- R6 ---------------------------------------------------------------------

#[test]
fn r6_fires_on_dead_flag_missing_field_and_discarded_flush() {
    let report = analyze(&[(ENGINE_FILE, &fixture("r6_firing.rs"))], &Docs::default());
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
    let first = analyze(&[(ENGINE_FILE, &src)], &Docs::default()).violations[0].line;

    let waived = insert_above(
        &src,
        first,
        "        // jigsaw-lint: allow(R6) -- fixture: fsync is covered one layer up",
    );
    let report = analyze(&[(ENGINE_FILE, &waived)], &Docs::default());
    assert_eq!(rules_fired(&report), ["R6", "R6"]);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].rule, "R6");

    let bare = insert_above(&src, first, "        // jigsaw-lint: allow(R6)");
    let report = analyze(&[(ENGINE_FILE, &bare)], &Docs::default());
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
    let report = analyze(&[(R7_PATH, &fixture("r7_firing.rs"))], &Docs::default());
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
    let report = analyze(&[(R7_PATH, &src)], &Docs::default());
    for v in &report.violations {
        let waived = insert_above(
            &src,
            v.line,
            "        // jigsaw-lint: allow(R7) -- fixture: single-threaded harness",
        );
        let rerun = analyze(&[(R7_PATH, &waived)], &Docs::default());
        assert_eq!(rerun.violations.len(), report.violations.len() - 1);
        assert_eq!(rerun.waived.len(), 1);
    }
}

// --- R8 ---------------------------------------------------------------------

const R8_PATH: &str = "crates/obs/src/fixture.rs";
const R8_DESIGN: &str = "\
## 9. Observability

| Metric | Type |
|---|---|
| `jigsaw_fixture_depth` | gauge |
| `jigsaw_fixture_stale_total` | counter |

## 10. Next
";

#[test]
fn r8_fires_in_both_directions() {
    let docs = Docs {
        design: R8_DESIGN.to_string(),
        readme: String::new(),
    };
    let report = analyze(&[(R8_PATH, &fixture("r8_firing.rs"))], &docs);
    assert_eq!(rules_fired(&report), ["R8", "R8"]);
    // Sorted by file: the stale catalog row (DESIGN.md) comes first.
    assert_eq!(report.violations[0].file, "DESIGN.md");
    assert!(report.violations[0]
        .message
        .contains("jigsaw_fixture_stale_total"));
    assert_eq!(report.violations[1].file, R8_PATH);
    assert!(report.violations[1]
        .message
        .contains("jigsaw_fixture_hits_total"));
}

#[test]
fn r8_registration_finding_is_waivable_but_doc_drift_is_not() {
    let docs = Docs {
        design: R8_DESIGN.to_string(),
        readme: String::new(),
    };
    let src = fixture("r8_firing.rs");
    let site = analyze(&[(R8_PATH, &src)], &docs).violations[1].line;
    let waived = insert_above(
        &src,
        site,
        "    // jigsaw-lint: allow(R8) -- fixture: internal counter, not a catalog metric",
    );
    let report = analyze(&[(R8_PATH, &waived)], &docs);
    // The registration-side finding is waived; the DESIGN.md-anchored one
    // has no waiver channel — doc drift is fixed, not waived.
    assert_eq!(rules_fired(&report), ["R8"]);
    assert_eq!(report.violations[0].file, "DESIGN.md");
    assert_eq!(report.waived.len(), 1);
}

// --- R9 ---------------------------------------------------------------------

const R9_README: &str = "\
# Fixture

### Serve protocol & metrics

```text
ALLOC <id> <size>        -> OK GRANT <id> <nodes>
QUIT                     -> OK BYE
PING                     -> OK PONG
```

Error codes are a closed lowercase set — `denied` — and that is all.
";

#[test]
fn r9_fires_on_table_readme_and_help_drift() {
    let docs = Docs {
        design: String::new(),
        readme: R9_README.to_string(),
    };
    let report = analyze(&[(PROTOCOL_FILE, &fixture("r9_protocol.rs"))], &docs);
    assert_eq!(rules_fired(&report), ["R9", "R9", "R9", "R9"]);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    // Table entry with no README grammar line.
    assert!(messages
        .iter()
        .any(|m| m.contains("`FREE`") && m.contains("missing")));
    // README grammar line with no table entry.
    assert!(messages
        .iter()
        .any(|m| m.contains("`PING`") && m.contains("not in the")));
    // ErrCode variant missing from the README paragraph.
    assert!(messages
        .iter()
        .any(|m| m.contains("`busy`") && m.contains("missing")));
    // HELP usage that does not start with its verb.
    assert!(messages
        .iter()
        .any(|m| m.contains("`QUIT`") && m.contains("begin with the verb")));
}

#[test]
fn r9_help_finding_is_waivable() {
    let docs = Docs {
        design: String::new(),
        readme: R9_README.to_string(),
    };
    let src = fixture("r9_protocol.rs");
    let report = analyze(&[(PROTOCOL_FILE, &src)], &docs);
    let help = report
        .violations
        .iter()
        .find(|v| v.file == PROTOCOL_FILE)
        .expect("HELP structural finding");
    let waived = insert_above(
        &src,
        help.line,
        "    // jigsaw-lint: allow(R9) -- fixture: QUIT's reply line is the usage",
    );
    let rerun = analyze(&[(PROTOCOL_FILE, &waived)], &docs);
    assert_eq!(rerun.waived.len(), 1);
    assert!(rerun.violations.iter().all(|v| v.file == "README.md"));
}

// --- R10 --------------------------------------------------------------------

const R10_PATH: &str = "crates/bench/src/fixture.rs";

#[test]
fn r10_fires_only_on_the_leaked_binding() {
    let report = analyze(&[(R10_PATH, &fixture("r10_firing.rs"))], &Docs::default());
    assert_eq!(rules_fired(&report), ["R10"]);
    assert!(report.violations[0].message.contains("`got`"));
    assert!(report.violations[0].message.contains("recycled"));
}

#[test]
fn r10_is_silenced_by_a_reasoned_waiver() {
    let src = fixture("r10_firing.rs");
    let line = analyze(&[(R10_PATH, &src)], &Docs::default()).violations[0].line;
    let waived = insert_above(
        &src,
        line,
        "    // jigsaw-lint: allow(R10) -- fixture: occupancy is the product",
    );
    let report = analyze(&[(R10_PATH, &waived)], &Docs::default());
    assert!(report.is_clean());
    assert_eq!(report.waived.len(), 1);
}

// --- real-workspace bidirectional drift checks ------------------------------

#[test]
fn workspace_r8_catches_deleted_catalog_rows_and_renamed_registrations() {
    let (files, docs) = workspace();
    // Pick a cataloged metric registered in exactly one source file, so a
    // rename provably removes its only registration.
    let catalog: Vec<String> = docs
        .design
        .lines()
        .skip_while(|l| !l.starts_with("## 9"))
        .take_while(|l| !l.starts_with("## 10"))
        .filter_map(|l| {
            let rest = l.trim_start().strip_prefix("| `")?;
            Some(rest[..rest.find('`')?].to_string())
        })
        .filter(|n| n.starts_with("jigsaw_"))
        .collect();
    let (name, file_idx) = catalog
        .iter()
        .find_map(|n| {
            let needle = format!("\"{n}\"");
            let hits: Vec<usize> = files
                .iter()
                .enumerate()
                .filter(|(_, (_, s))| s.contains(&needle))
                .map(|(i, _)| i)
                .collect();
            (hits.len() == 1).then(|| (n.clone(), hits[0]))
        })
        .expect("a metric registered in exactly one file");

    // Direction 1: delete the catalog row — the registration is orphaned.
    let gutted = Docs {
        design: docs
            .design
            .lines()
            .filter(|l| !l.contains(&format!("`{name}`")))
            .collect::<Vec<_>>()
            .join("\n"),
        readme: docs.readme.clone(),
    };
    let report = analyze_sources(&files, &gutted);
    assert!(!report.is_clean());
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R8" && v.message.contains(&name)));

    // Direction 2: rename the registration — the catalog row goes stale
    // and the new name is un-cataloged.
    let mut renamed = files.clone();
    renamed[file_idx].1 = renamed[file_idx]
        .1
        .replace(&format!("\"{name}\""), &format!("\"{name}_zzz\""));
    let report = analyze_sources(&renamed, &docs);
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R8" && v.file == "DESIGN.md" && v.message.contains(&name)));
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R8" && v.message.contains("_zzz")));
}

#[test]
fn workspace_r9_catches_readme_and_table_drift() {
    let (files, docs) = workspace();

    // Direction 1: drop `busy` from the README error-code paragraph.
    let gutted = Docs {
        design: docs.design.clone(),
        readme: docs.readme.replace("`busy`", "`internal`"),
    };
    let report = analyze_sources(&files, &gutted);
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R9" && v.message.contains("`busy`")));

    // Direction 2: rename a table entry — README documents a ghost verb
    // and the new spelling has no grammar line.
    let mut renamed = files.clone();
    let proto = renamed
        .iter_mut()
        .find(|(rel, _)| rel == PROTOCOL_FILE)
        .expect("protocol file");
    proto.1 = proto.1.replace("\"QUIT\"", "\"QUIT-X\"");
    let report = analyze_sources(&renamed, &docs);
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R9" && v.message.contains("`QUIT`")));
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == "R9" && v.message.contains("`QUIT-X`")));
}

// --- pipeline infrastructure ------------------------------------------------

#[test]
fn github_emitter_renders_one_annotation_per_finding() {
    let report = analyze(&[(ENGINE_FILE, &fixture("r6_firing.rs"))], &Docs::default());
    let gh = render_github(&report);
    let annotations: Vec<&str> = gh.lines().filter(|l| l.starts_with("::error ")).collect();
    assert_eq!(annotations.len(), 3);
    for a in &annotations {
        assert!(a.starts_with(&format!("::error file={ENGINE_FILE},line=")));
        assert!(a.contains("title=jigsaw-lint R6::"));
    }
    // Stale waivers get their own annotation.
    let stale = analyze(
        &[(
            "crates/core/src/a.rs",
            "// jigsaw-lint: allow(R1) -- nothing here\nfn quiet() {}\n",
        )],
        &Docs::default(),
    );
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
