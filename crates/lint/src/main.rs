//! CLI entry point for jigsaw-analyze (binary name: jigsaw-lint).
//!
//! ```text
//! cargo run -p jigsaw-lint --                  # report, exit 0
//! cargo run -p jigsaw-lint -- --deny           # exit 1 on any violation (CI mode)
//! cargo run -p jigsaw-lint -- --emit github    # workflow annotations
//! cargo run -p jigsaw-lint -- --fix            # delete stale waivers
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Emit {
    Text,
    Json,
    Github,
}

struct Flags {
    deny: bool,
    emit: Emit,
    fix: bool,
    root: Option<PathBuf>,
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        deny: false,
        emit: Emit::Text,
        fix: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => flags.deny = true,
            "--fix" => flags.fix = true,
            "--emit" => {
                let v = args
                    .next()
                    .ok_or("--emit needs a mode (text|json|github)")?;
                flags.emit = match v.as_str() {
                    "text" => Emit::Text,
                    "json" => Emit::Json,
                    "github" => Emit::Github,
                    other => return Err(format!("unknown --emit mode `{other}`")),
                };
            }
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                flags.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "jigsaw-analyze: enforce the workspace safety contracts\n\
                     (R1-R3, R5-R7, R10)\n\n\
                     USAGE: jigsaw-lint [--deny] [--emit text|json|github] [--fix]\n\
                            [--root <dir>]\n\n\
                     --deny        exit nonzero on any violation or stale suppression\n\
                     --emit MODE   output mode: text (default), json, or github\n\
                     --fix         delete stale (unused) waiver comments, then re-run\n\
                     --root <dir>  lint this tree instead of the enclosing workspace\n\n\
                     Rules R1-R3 and R5 are documented in DESIGN.md section 10,\n\
                     R6, R7 and R10 in section 15 (R4, R8 and R9 are retired:\n\
                     rustc and cargo test check them now). Waive a finding with\n\
                     `// jigsaw-lint: allow(R1) -- <reason>` on the same or previous line."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("jigsaw-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match flags.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match jigsaw_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "jigsaw-lint: no workspace Cargo.toml above {} (use --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut report = match jigsaw_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jigsaw-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if flags.fix {
        match jigsaw_lint::fix_stale_waivers(&root, &report) {
            Ok(0) => {}
            Ok(n) => {
                eprintln!("jigsaw-analyze: deleted {n} stale waiver(s); re-running");
                report = match jigsaw_lint::lint_workspace(&root) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("jigsaw-lint: failed to re-scan {}: {e}", root.display());
                        return ExitCode::from(2);
                    }
                };
            }
            Err(e) => {
                eprintln!("jigsaw-lint: --fix failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match flags.emit {
        Emit::Text => print!("{}", jigsaw_lint::render_text(&report)),
        Emit::Json => print!("{}", jigsaw_lint::render_json(&report)),
        Emit::Github => print!("{}", jigsaw_lint::render_github(&report)),
    }

    if flags.deny && !report.is_clean() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
