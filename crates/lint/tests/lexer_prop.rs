//! Lexer robustness properties.
//!
//! Random well-formed fragment mixes — raw strings with 0–3 hashes,
//! escaped strings, nested block comments, doc comments, suppression
//! comments, `#[cfg(test)]` items, char/lifetime/numeric literals — are
//! concatenated into sources and the lexer must:
//!
//! * never panic (also on arbitrary prefix truncations, which produce
//!   unterminated strings, comments, and attributes),
//! * emit tokens at strictly increasing `(line, col)` positions,
//! * emit each string literal as one token and its contents as none,
//!   without letting the `jigsaw-lint:` marker inside strings, block
//!   comments, or doc comments register as a suppression,
//! * attribute `#[cfg(test)]` item bodies (and nothing else) to
//!   `in_test`.

use jigsaw_lint::lexer::{lex, Kind};
use proptest::prelude::*;

/// One generated source fragment plus what the lexer must recover.
struct Frag {
    src: String,
    /// The string literals' contents, one per expected `Kind::Str`.
    strings: Vec<String>,
    /// Expected suppression-comment count.
    suppressions: usize,
    /// Occurrences of the `marker_test` ident (must be `in_test`).
    test_markers: usize,
}

fn frag(kind: u8, seed: u32, hashes: usize) -> Frag {
    let mut f = Frag {
        src: String::new(),
        strings: Vec::new(),
        suppressions: 0,
        test_markers: 0,
    };
    match kind {
        0 => f.src = format!("let id{seed} = r#type;"),
        1 => f.src = "x -> y :: z . w ( ) ;".to_string(),
        2 => {
            // Raw string; for >= 1 hash the content embeds a quote and a
            // shorter hash run that must NOT terminate it.
            let content = if hashes == 0 {
                format!("raw jigsaw-lint: allow(R1) -- {seed}")
            } else {
                format!(
                    "raw \"q{}\" jigsaw-lint: allow(R1) -- {seed}",
                    "#".repeat(hashes - 1)
                )
            };
            let h = "#".repeat(hashes);
            f.src = format!("let r{seed} = r{h}\"{content}\"{h};");
            f.strings.push(content);
        }
        3 => {
            // Plain string with an escaped quote; contents are recorded
            // with escapes unprocessed.
            let content = format!("esc \\\" jigsaw-lint: allow(R2) -- {seed}");
            f.src = format!("let s{seed} = \"{content}\";");
            f.strings.push(content);
        }
        4 => f.src = format!("/* outer {seed} /* jigsaw-lint: allow(R3) -- hidden */ tail */"),
        5 => {
            f.src = "// jigsaw-lint: allow(R1, R2) -- seeded".to_string();
            f.suppressions = 1;
        }
        6 => f.src = "/// jigsaw-lint: allow(R4) -- doc text, not a waiver".to_string(),
        7 => {
            f.src = format!("#[cfg(test)]\nmod t{seed} {{ fn f() {{ marker_test(); }} }}");
            f.test_markers = 1;
        }
        8 => {
            f.src = format!(
                "fn live{seed}<'a>(x: &'a str) {{ marker_live('x', 1.5e-3, 0x{seed:x}); }}"
            );
        }
        _ => {
            f.src = format!("let b{seed} = b\"bytes {seed}\";");
            f.strings.push(format!("bytes {seed}"));
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lexer_is_total_and_structure_preserving(
        frags in prop::collection::vec((0u8..10, any::<u32>(), 0usize..=3), 1..24),
    ) {
        let parts: Vec<Frag> = frags.iter().map(|&(k, s, h)| frag(k, s, h)).collect();
        let src = parts
            .iter()
            .map(|f| f.src.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let (toks, sups) = lex(&src);

        // Token positions strictly increase.
        for w in toks.windows(2) {
            prop_assert!(
                (w[0].line, w[0].col) < (w[1].line, w[1].col),
                "span went backwards: {}:{} then {}:{} in\n{}",
                w[0].line, w[0].col, w[1].line, w[1].col, src
            );
        }

        // One token per string literal; the words inside are no tokens.
        let strings: usize = parts.iter().map(|f| f.strings.len()).sum();
        prop_assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), strings);
        prop_assert!(toks
            .iter()
            .all(|t| !matches!(t.ident(), Some("raw" | "esc" | "allow" | "bytes"))));

        // Only real `//` waiver comments register; the marker inside
        // strings, block comments, and doc comments stays inert.
        let want: usize = parts.iter().map(|f| f.suppressions).sum();
        prop_assert_eq!(sups.len(), want);
        for s in &sups {
            prop_assert_eq!(&s.rules, &["R1", "R2"]);
            prop_assert_eq!(&s.reason, "seeded");
        }

        // `#[cfg(test)]` bodies — and nothing else — are `in_test`.
        let test_marks: Vec<_> = toks
            .iter()
            .filter(|t| t.ident() == Some("marker_test"))
            .collect();
        prop_assert_eq!(
            test_marks.len(),
            parts.iter().map(|f| f.test_markers).sum::<usize>()
        );
        prop_assert!(test_marks.iter().all(|t| t.in_test));
        prop_assert!(toks
            .iter()
            .filter(|t| t.ident() == Some("marker_live"))
            .all(|t| !t.in_test));
    }

    #[test]
    fn lexer_is_total_on_truncated_sources(
        frags in prop::collection::vec((0u8..10, any::<u32>(), 0usize..=3), 1..8),
        cut in any::<u32>(),
    ) {
        let src = frags
            .iter()
            .map(|&(k, s, h)| frag(k, s, h).src)
            .collect::<Vec<_>>()
            .join("\n");
        let chars: Vec<char> = src.chars().collect();
        let cut = (cut as usize) % (chars.len() + 1);
        let truncated: String = chars[..cut].iter().collect();
        // Unterminated strings, comments, and attributes must still lex
        // without panicking, with monotone spans.
        let (toks, _) = lex(&truncated);
        for w in toks.windows(2) {
            prop_assert!((w[0].line, w[0].col) < (w[1].line, w[1].col));
        }
    }
}
