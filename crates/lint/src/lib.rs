//! jigsaw-analyze: the workspace's static analyzer (né jigsaw-lint).
//!
//! The Jigsaw scheduler's central guarantee — every node and link
//! exclusively assigned to at most one job — is defended at runtime by
//! `jigsaw_core::audit` and at the source level by this tool. It walks the
//! workspace's Rust sources with a hand-rolled lexer (no `syn`, no
//! third-party dependencies) and enforces the project rule catalog:
//!
//! * **R1–R5** are per-file token patterns ([`rules`]; DESIGN §10).
//! * **R6–R10** are cross-file semantic rules ([`rules6_10`]; DESIGN §15)
//!   built on an item-level parser ([`parser`]) and conservative call /
//!   lock-order graphs ([`graph`]): durability ordering in the net engine,
//!   lock discipline, metric-catalog drift against DESIGN §9,
//!   protocol-table drift against HELP and the README, and recycle leaks
//!   in the experiment drivers.
//!
//! The analysis pipeline is one sequential pass in three phases: a
//! per-file phase (lex + parse + R1–R5), a cross-file phase (R6–R10 over
//! the assembled workspace model), and a merge phase that applies waivers
//! once per file.
//!
//! The crate is a library plus a thin `main.rs` so the integration tests
//! can drive the engine directly against golden fixtures.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod rules6_10;

use lexer::Suppression;
use parser::ParsedFile;
use rules::{FileClass, FileReport, Violation, Waiver};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregated result of linting a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub waived: Vec<Waiver>,
    /// `(file, line)` of suppression comments that matched nothing.
    pub unused_suppressions: Vec<(String, u32)>,
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing needs fixing: no violations and no stale waivers.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_suppressions.is_empty()
    }

    fn absorb(&mut self, file: FileReport) {
        self.violations.extend(file.violations);
        self.waived.extend(file.waived);
    }
}

/// The non-Rust inputs the cross-file rules audit against: the DESIGN §9
/// metric catalog (R8) and the README serve-grammar section (R9). Empty
/// strings disable the corresponding checks.
#[derive(Debug, Clone, Default)]
pub struct Docs {
    pub design: String,
    pub readme: String,
}

/// One scanned file: the per-file phase's complete output, consumed by
/// the cross-file rules and the merge phase.
pub(crate) struct Scan {
    pub(crate) class: FileClass,
    pub(crate) toks: Vec<lexer::Tok>,
    pub(crate) sups: Vec<Suppression>,
    pub(crate) raw: Vec<Violation>,
    pub(crate) parsed: ParsedFile,
}

/// Directories never descended into: build output, vendored third-party
/// code, and the lint's own deliberately-violating fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | "vendor" | ".git" | ".github") || rel == "crates/lint/tests/fixtures"
}

/// Lint one in-memory source file with the per-file rules (R1–R5).
/// `rel_path` is workspace-relative with `/` separators; it decides which
/// rules apply. Cross-file rules need a workspace: see [`analyze_sources`].
pub fn lint_source(rel_path: &str, src: &str) -> FileReport {
    rules::check_file(src, &FileClass::of(rel_path))
}

fn scan_file(rel: &str, src: &str) -> Scan {
    let class = FileClass::of(rel);
    let (toks, sups) = lexer::lex(src);
    let parsed = parser::parse(&toks);
    let raw = rules::check_tokens_raw(&toks, &class);
    Scan {
        class,
        toks,
        sups,
        raw,
        parsed,
    }
}

/// Run the full R1–R10 pipeline over in-memory sources.
///
/// `files` are `(workspace-relative path, source)` pairs; order is
/// preserved into the report (callers wanting the canonical order sort
/// paths first, as [`collect_workspace`] does).
pub fn analyze_sources(files: &[(String, String)], docs: &Docs) -> Report {
    let scans: Vec<Scan> = files.iter().map(|(rel, src)| scan_file(rel, src)).collect();

    let cross = rules6_10::check_workspace(&scans, docs);
    let mut cross_by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in cross {
        cross_by_file.entry(v.file.clone()).or_default().push(v);
    }

    let mut report = Report::default();
    for scan in scans {
        let mut raw = scan.raw;
        if let Some(extra) = cross_by_file.remove(&scan.class.rel_path) {
            raw.extend(extra);
        }
        raw.sort_by_key(|v| (v.line, v.col));
        let fr = rules::apply_suppressions(raw, &scan.sups, &scan.class);
        report.unused_suppressions.extend(
            fr.unused_suppressions
                .iter()
                .map(|&l| (scan.class.rel_path.clone(), l)),
        );
        report.absorb(fr);
        report.files_scanned += 1;
    }
    // Findings anchored in non-Rust files (DESIGN.md / README.md drift)
    // have no waiver channel: doc drift is fixed, not waived.
    for (_, vs) in cross_by_file {
        report.violations.extend(vs);
    }
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    report
}

/// Collect every lintable `.rs` file (sorted) plus the doc inputs from a
/// workspace checkout. I/O errors abort: a lint that silently skips
/// unreadable files would report "clean" on a broken tree.
pub fn collect_workspace(root: &Path) -> io::Result<(Vec<(String, String)>, Docs)> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    let docs = Docs {
        design: std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default(),
        readme: std::fs::read_to_string(root.join("README.md")).unwrap_or_default(),
    };
    Ok((files, docs))
}

/// Walk `root` (a workspace checkout) and run the full R1–R10 pipeline.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let (files, docs) = collect_workspace(root)?;
    Ok(analyze_sources(&files, &docs))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !skip_dir(&rel) {
                collect_rs_files(root, &path, out)?;
            }
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Find the workspace root by ascending from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

// --- fixing -----------------------------------------------------------------

/// Delete the stale waivers listed in `report.unused_suppressions` from
/// the tree at `root`: a line that is only a suppression comment is
/// removed whole; a trailing comment is truncated. Returns how many
/// waivers were deleted. Running it again after a clean pass deletes
/// nothing — the operation is idempotent.
pub fn fix_stale_waivers(root: &Path, report: &Report) -> io::Result<usize> {
    let mut by_file: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (file, line) in &report.unused_suppressions {
        by_file.entry(file.as_str()).or_default().push(*line);
    }
    let mut fixed = 0usize;
    for (file, lines) in by_file {
        let path = root.join(file);
        let src = std::fs::read_to_string(&path)?;
        let had_final_newline = src.ends_with('\n');
        let mut out_lines: Vec<Option<String>> = src.lines().map(|l| Some(l.to_string())).collect();
        for &ln in &lines {
            let Some(idx) = usize::try_from(ln).ok().and_then(|n| n.checked_sub(1)) else {
                continue;
            };
            let Some(slot) = out_lines.get_mut(idx) else {
                continue;
            };
            let Some(text) = slot.clone() else { continue };
            let Some(marker_pos) = text.find(lexer::SUPPRESS_MARKER) else {
                continue;
            };
            let Some(comment_pos) = text[..marker_pos].rfind("//") else {
                continue;
            };
            if text[..comment_pos].trim().is_empty() {
                *slot = None; // the line was only the waiver
            } else {
                *slot = Some(text[..comment_pos].trim_end().to_string());
            }
            fixed += 1;
        }
        let mut rebuilt = out_lines
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join("\n");
        if had_final_newline && !rebuilt.is_empty() {
            rebuilt.push('\n');
        }
        std::fs::write(&path, rebuilt)?;
    }
    Ok(fixed)
}

// --- rendering --------------------------------------------------------------

/// Human-readable report: one `file:line:col RULE message` line per
/// violation, then waiver and stale-suppression summaries.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}:{} {} {}\n",
            v.file, v.line, v.col, v.rule, v.message
        ));
    }
    if !report.waived.is_empty() {
        out.push_str(&format!("\n{} waived finding(s):\n", report.waived.len()));
        for w in &report.waived {
            out.push_str(&format!(
                "  {}:{} {} -- {}\n",
                w.file, w.line, w.rule, w.reason
            ));
        }
    }
    for (file, line) in &report.unused_suppressions {
        out.push_str(&format!(
            "{file}:{line} unused suppression: no finding on this or the next line\n"
        ));
    }
    out.push_str(&format!(
        "\n{} file(s) scanned, {} violation(s), {} waived, {} unused suppression(s)\n",
        report.files_scanned,
        report.violations.len(),
        report.waived.len(),
        report.unused_suppressions.len()
    ));
    out
}

/// GitHub Actions workflow-annotation output: one
/// `::error file=…,line=…,col=…,title=…::message` per violation and per
/// stale waiver, so CI findings render inline on the PR diff.
pub fn render_github(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "::error file={},line={},col={},title=jigsaw-lint {}::{}\n",
            v.file,
            v.line,
            v.col,
            v.rule,
            gh_escape(&v.message)
        ));
    }
    for (file, line) in &report.unused_suppressions {
        out.push_str(&format!(
            "::error file={file},line={line},title=jigsaw-lint stale-waiver::unused \
             suppression: no finding on this or the next line (run --fix to delete)\n"
        ));
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} violation(s), {} waived, {} unused suppression(s)\n",
        report.files_scanned,
        report.violations.len(),
        report.waived.len(),
        report.unused_suppressions.len()
    ));
    out
}

/// GitHub annotation messages use `%xx` escapes for their own delimiters.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Machine-readable report. Hand-rolled emitter (the crate has no
/// dependencies); the integration tests parse it back with the vendored
/// `serde_json` to prove it is well-formed.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&v.file),
            v.line,
            v.col,
            json_str(v.rule),
            json_str(&v.message)
        ));
    }
    out.push_str("\n  ],\n  \"waived\": [");
    for (i, w) in report.waived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
            json_str(&w.file),
            w.line,
            json_str(w.rule),
            json_str(&w.reason)
        ));
    }
    out.push_str("\n  ],\n  \"unused_suppressions\": [");
    for (i, (file, line)) in report.unused_suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}}}",
            json_str(file),
            line
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
        report.files_scanned,
        report.is_clean()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_controls_and_quotes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn skip_list_blocks_vendor_and_fixtures() {
        assert!(skip_dir("vendor"));
        assert!(skip_dir("target"));
        assert!(skip_dir("crates/lint/tests/fixtures"));
        assert!(!skip_dir("crates/lint/tests"));
        assert!(!skip_dir("crates/core"));
    }

    #[test]
    fn lint_source_routes_by_path() {
        let bad = "fn f() { x.unwrap(); }";
        assert_eq!(lint_source("crates/core/src/x.rs", bad).violations.len(), 1);
        assert!(lint_source("crates/cli/src/x.rs", bad)
            .violations
            .is_empty());
    }

    #[test]
    fn render_text_includes_rule_and_position() {
        let rep = lint_source("crates/core/src/x.rs", "fn f() { x.unwrap(); }");
        let mut full = Report::default();
        full.absorb(rep);
        full.files_scanned = 1;
        let text = render_text(&full);
        assert!(text.contains("crates/core/src/x.rs:1:12 R1"));
    }

    #[test]
    fn gh_escape_encodes_newlines_and_percent() {
        assert_eq!(gh_escape("a%b\nc"), "a%25b%0Ac");
    }
}
