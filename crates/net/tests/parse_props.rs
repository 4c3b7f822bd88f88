//! Properties of `protocol::parse`, the one reader of request lines.
//!
//! * **Round trip**: every well-formed request, rendered by its
//!   `Display` (the canonical line loadgen sends), parses back to itself —
//!   for every verb.
//! * **Totality**: any text at all, from random bytes to near-miss
//!   requests assembled from protocol words, numbers and whitespace,
//!   parses to a request or a typed error without panicking, and a
//!   request it does accept renders to a line that parses to the same
//!   request again.

use jigsaw_net::{parse, Cmd, IdList, ParseError, Request, VERBS};
use proptest::prelude::*;

/// Build the request of verb `VERBS[kind]` from generated fields. The
/// parent list is rendered into `csv`, which the request borrows.
fn request<'a>(kind: usize, id: u32, size: u32, start: f64, csv: &'a str) -> Request<'a> {
    match VERBS[kind].cmd {
        Cmd::Alloc => Request::Alloc { id, size },
        Cmd::Free => Request::Free { id },
        Cmd::SubmitDag => Request::SubmitDag {
            id,
            size,
            parents: IdList::parse(csv).expect("generated ids parse"),
        },
        Cmd::Reserve => Request::Reserve { id, size, start },
        Cmd::Defrag => Request::Defrag { id, size },
        Cmd::Status => Request::Status,
        Cmd::Tables => Request::Tables,
        Cmd::Snapshot => Request::Snapshot,
        Cmd::Stats => Request::Stats,
        Cmd::Metrics => Request::Metrics,
        Cmd::Help => Request::Help,
        Cmd::Quit => Request::Quit,
        Cmd::Shutdown => Request::Shutdown,
    }
}

/// Words a near-miss request line is assembled from.
const WORDS: &[&str] = &[
    "ALLOC",
    "FREE",
    "SUBMIT-DAG",
    "RESERVE",
    "DEFRAG",
    "STATUS",
    "QUIT",
    "alloc",
    "0",
    "1",
    "-1",
    "+7",
    "4294967295",
    "4294967296",
    "1,2",
    ",",
    "3,,4",
    "NaN",
    "inf",
    "-0",
    "1e9",
    "0.5",
    "\u{4}",
    "Ä",
    "４",
    "`",
    "=",
];
/// Separators between words, including ones `split_whitespace` skips and
/// ones it does not.
const SEPARATORS: &[&str] = &[" ", "  ", "\t", "\r", "\u{a0}", "\u{3000}", "", ","];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_request_round_trips_through_its_line(
        kind in 0..VERBS.len(),
        id in any::<u32>(),
        size in 1u32..u32::MAX,
        parents in prop::collection::vec(any::<u32>(), 0..6),
        scale in (any::<f64>(), 0i32..15),
    ) {
        let csv = parents
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let start = scale.0 * 10f64.powi(scale.1);
        let req = request(kind, id, size, start, &csv);
        let line = req.to_string();
        prop_assert_eq!(parse(&line), Ok(req), "line `{}`", line);
        // Whitespace around and between the words does not matter.
        let padded = format!("  {}\t", line.replace(' ', " \t "));
        prop_assert_eq!(parse(&padded), Ok(req), "line `{}`", padded);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        let text = String::from_utf8_lossy(&bytes);
        check_total(&text);
    }

    #[test]
    fn near_miss_lines_never_panic(
        words in prop::collection::vec((0usize..WORDS.len(), 0usize..SEPARATORS.len()), 0..6),
        chars in prop::collection::vec(any::<u32>(), 0..3),
    ) {
        let mut line = String::new();
        for (w, sep) in words {
            line.push_str(WORDS[w]);
            line.push_str(SEPARATORS[sep]);
        }
        line.extend(chars.into_iter().filter_map(char::from_u32));
        check_total(&line);
    }
}

/// `parse` accepts or rejects `line` without panicking; an accepted
/// request re-renders to a line that parses back to it, and a rejection
/// names a verb exactly when the first word is one.
fn check_total(line: &str) {
    match parse(line) {
        Ok(req) => assert_eq!(parse(&req.to_string()), Ok(req), "line `{line}`"),
        Err(ParseError::Blank) => assert!(line.split_whitespace().next().is_none()),
        Err(e) => {
            let first = line.split_whitespace().next().unwrap();
            let known = VERBS.iter().find(|v| v.name == first).map(|v| v.cmd);
            assert_eq!(e.cmd(), known, "line `{line}`");
            assert!(!e.to_string().is_empty());
        }
    }
}
