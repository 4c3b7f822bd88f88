//! The README's serve-protocol reference against the compiled tables.
//!
//! The "Serve protocol" code fence must hold exactly one verb line per
//! row of `VERBS`, in table order, each beginning with that row's usage
//! string (the text `HELP` prints). The "Error codes" paragraph must list
//! exactly the `ErrCode::ALL` tokens, in order. The negative tests feed
//! the comparison a README with a verb dropped, a phantom verb and a code
//! missing, and tables with a verb renamed.

use jigsaw_net::{ErrCode, VERBS};

const README: &str = include_str!("../../../README.md");

/// The verb lines of the code fence after the "Serve protocol" heading:
/// unindented lines whose first word is an upper-case request word (reply
/// lines start with `OK`/`ERR`, continuation lines are indented).
fn fence_verb_lines(readme: &str) -> Option<Vec<&str>> {
    let mut lines = readme
        .lines()
        .skip_while(|l| !(l.starts_with('#') && l.contains("Serve protocol")))
        .skip_while(|l| !l.starts_with("```"));
    lines.next()?;
    let verb_lines = lines
        .take_while(|l| !l.starts_with("```"))
        .filter(|l| {
            let word = l.split(' ').next().unwrap_or("");
            !word.is_empty()
                && word.chars().all(|c| c.is_ascii_uppercase() || c == '-')
                && !matches!(word, "OK" | "ERR")
        })
        .collect();
    Some(verb_lines)
}

/// The backticked lower-case tokens of the paragraph that starts with
/// "Error codes".
fn err_code_tokens(readme: &str) -> Option<Vec<&str>> {
    let mut lines = readme.lines().skip_while(|l| !l.starts_with("Error codes"));
    let first = lines.next()?;
    let paragraph = std::iter::once(first).chain(lines.take_while(|l| !l.trim().is_empty()));
    let codes = paragraph
        .flat_map(|l| l.split('`').skip(1).step_by(2))
        .filter(|t| {
            !t.is_empty()
                && t.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        })
        .collect();
    Some(codes)
}

/// Does `line` begin with `usage` as whole words?
fn begins_with(line: &str, usage: &str) -> bool {
    line.strip_prefix(usage)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
}

/// Every disagreement between the README and the protocol tables (the
/// `VERBS` usage strings and the error-code tokens), one message each.
fn protocol_drift(readme: &str, usages: &[&str], codes: &[&str]) -> Vec<String> {
    let mut drift = Vec::new();
    match fence_verb_lines(readme) {
        None => drift.push("no code fence after a \"Serve protocol\" heading".to_string()),
        Some(lines) => {
            for usage in usages {
                match lines.iter().filter(|l| begins_with(l, usage)).count() {
                    0 => drift.push(format!("`{usage}` begins no verb line of the README")),
                    1 => {}
                    n => drift.push(format!("`{usage}` begins {n} verb lines of the README")),
                }
            }
            for line in &lines {
                if !usages.iter().any(|u| begins_with(line, u)) {
                    drift.push(format!(
                        "README verb line `{line}` begins with no VERBS usage"
                    ));
                }
            }
            let documented: Vec<&str> = lines
                .iter()
                .filter_map(|l| usages.iter().copied().find(|u| begins_with(l, u)))
                .collect();
            let expected: Vec<&str> = usages
                .iter()
                .copied()
                .filter(|u| documented.contains(u))
                .collect();
            if documented != expected {
                drift.push(format!(
                    "README lists the verbs as {documented:?}, VERBS as {expected:?}"
                ));
            }
        }
    }
    match err_code_tokens(readme) {
        None => drift.push("no paragraph starting with \"Error codes\"".to_string()),
        Some(tokens) => {
            let before = drift.len();
            for code in codes.iter().filter(|c| !tokens.contains(c)) {
                drift.push(format!("error code `{code}` is missing from the README"));
            }
            for token in tokens.iter().filter(|t| !codes.contains(t)) {
                drift.push(format!("README lists `{token}`, which is no error code"));
            }
            if drift.len() == before && tokens != codes {
                drift.push(format!(
                    "README lists the error codes as {tokens:?}, ErrCode::ALL as {codes:?}"
                ));
            }
        }
    }
    drift
}

fn usages() -> Vec<&'static str> {
    VERBS.iter().map(|v| v.usage).collect()
}

fn codes() -> Vec<&'static str> {
    ErrCode::ALL.iter().map(|c| c.as_str()).collect()
}

#[test]
fn readme_documents_exactly_the_compiled_protocol() {
    assert_eq!(
        protocol_drift(README, &usages(), &codes()),
        Vec::<String>::new()
    );
}

#[test]
fn readme_drift_is_reported_in_both_directions() {
    let lines = fence_verb_lines(README).unwrap();
    let line = |verb: &str| *lines.iter().find(|l| l.starts_with(verb)).unwrap();
    let drifted = README
        .replacen(&format!("{}\n", line("FREE ")), "", 1)
        .replacen(
            line("SHUTDOWN"),
            &format!("PING -> OK PONG\n{}", line("SHUTDOWN")),
            1,
        )
        .replacen("`busy`", "busy", 1);
    assert_eq!(
        protocol_drift(&drifted, &usages(), &codes()),
        [
            "`FREE <id>` begins no verb line of the README",
            "README verb line `PING -> OK PONG` begins with no VERBS usage",
            "error code `busy` is missing from the README",
        ]
    );
}

#[test]
fn table_drift_is_reported_in_both_directions() {
    let mut renamed = usages();
    let quit = renamed.iter().position(|u| *u == "QUIT").unwrap();
    renamed[quit] = "QUIT-X";
    let mut codes = codes();
    codes.push("teapot");
    assert_eq!(
        protocol_drift(README, &renamed, &codes),
        [
            "`QUIT-X` begins no verb line of the README",
            "README verb line `QUIT               -> OK BYE        (TCP: closes only this connection)` \
             begins with no VERBS usage",
            "error code `teapot` is missing from the README",
        ]
    );
}

#[test]
fn verb_order_and_code_order_are_checked() {
    let mut swapped = usages();
    swapped.swap(0, 1);
    let drift = protocol_drift(README, &swapped, &codes());
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(
        drift[0].starts_with("README lists the verbs as"),
        "{drift:?}"
    );

    let mut reversed = codes();
    reversed.reverse();
    let drift = protocol_drift(README, &usages(), &reversed);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].starts_with("README lists the error codes as"));
}

#[test]
fn readme_verb_fence_is_found_and_filtered() {
    let readme = "\
# Title\n\n### Serve protocol & metrics\n\nintro text\n\n```text\n\
success: OK <VERB>\nALLOC <id> <size>  -> OK GRANT\n   -> continuation\n\
OK STRAY\nQUIT -> OK BYE\n```\nLATER outside the fence\n";
    assert_eq!(
        fence_verb_lines(readme).unwrap(),
        ["ALLOC <id> <size>  -> OK GRANT", "QUIT -> OK BYE"]
    );
    assert_eq!(fence_verb_lines("# Serve protocol\n\nno fence\n"), None);
}

#[test]
fn readme_err_codes_filter_out_uppercase_snippets() {
    let readme = "\
Error codes are a closed lowercase set — `denied`, `bad-request` — and\n\
`OK METRICS <n>` is the only multi-line reply.\n\nnext paragraph `busy`\n";
    assert_eq!(err_code_tokens(readme).unwrap(), ["denied", "bad-request"]);
    assert_eq!(err_code_tokens("no such paragraph\n"), None);
}
