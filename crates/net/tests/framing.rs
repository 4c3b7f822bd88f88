//! Fragmentation-independence of the TCP request framing.
//!
//! TCP may deliver a pipelined request stream in any byte-level
//! fragmentation: one byte at a time, all at once, or split anywhere in
//! between — including mid-UTF-8, mid-CRLF, and mid-request. The daemon's
//! contract is that framing (and therefore every parsed command and every
//! reply) is identical for every fragmentation of the same byte stream.
//!
//! Two attacks on that claim:
//!
//! * **Exhaustive split**: a canonical stream exercising every verb is
//!   split at *every* byte boundary into two chunks, plus the
//!   byte-at-a-time worst case; the framed lines must match the
//!   single-chunk parse exactly, and the engine replies driven from the
//!   parsed lines must match the baseline reply-for-reply.
//! * **Randomized multi-split** (proptest): random request mixes cut at
//!   random positions into many chunks; same assertions.

use jigsaw_core::{ObservedAllocator, Scheme};
use jigsaw_net::{Engine, Framed, LineFramer};
use jigsaw_obs::Registry;
use jigsaw_persist::PersistentState;
use jigsaw_topology::FatTree;
use proptest::prelude::*;

/// Parse a byte stream delivered as the given chunks.
fn frame_chunks(chunks: &[&[u8]]) -> Vec<String> {
    let mut framer = LineFramer::default();
    let mut lines = Vec::new();
    for chunk in chunks {
        for framed in framer.push(chunk) {
            match framed {
                Framed::Line(line) => lines.push(line),
                other => panic!("well-formed stream must not poison the framer: {other:?}"),
            }
        }
    }
    lines
}

/// Drive a fresh deterministic engine over the lines and collect every
/// reply. Identical line sequences must give identical replies (the mix
/// avoids `METRICS`, whose latency histograms differ run to run).
fn replies_for(lines: &[String]) -> Vec<String> {
    let tree = FatTree::maximal(4).unwrap();
    let registry = Registry::new();
    let persist = PersistentState::ephemeral(tree);
    let allocator = Box::new(ObservedAllocator::new(
        Scheme::Jigsaw.make(&tree),
        &registry,
    ));
    let mut engine = Engine::new(tree, allocator, persist, &registry);
    lines
        .iter()
        .filter_map(|line| Some(engine.handle_line(line)?.reply.to_string()))
        .collect()
}

#[test]
fn every_two_chunk_split_frames_identically() {
    let stream: &[u8] =
        b"ALLOC 1 4\r\nSTATUS\nFREE 1\nALLOC 2 16\nBOGUS VERB\nSTATS\nHELP\nTABLES\nQUIT\n";
    let baseline = frame_chunks(&[stream]);
    assert_eq!(baseline.len(), 9);
    let baseline_replies = replies_for(&baseline);
    for split in 0..=stream.len() {
        let (a, b) = stream.split_at(split);
        let lines = frame_chunks(&[a, b]);
        assert_eq!(lines, baseline, "split at byte {split} changed framing");
        assert_eq!(
            replies_for(&lines),
            baseline_replies,
            "split at byte {split} changed replies"
        );
    }
}

#[test]
fn byte_at_a_time_frames_identically() {
    let stream: &[u8] = b"ALLOC 7 5\nSTATUS\r\nFREE 7\nSNAPSHOT\nSTATS\n";
    let baseline = frame_chunks(&[stream]);
    let chunks: Vec<&[u8]> = stream.chunks(1).collect();
    assert_eq!(frame_chunks(&chunks), baseline);
}

#[test]
fn incomplete_trailing_request_is_never_delivered_early() {
    let stream: &[u8] = b"ALLOC 1 4\nFREE 1\nALLOC 2 3"; // no final newline
    let baseline = frame_chunks(&[stream]);
    assert_eq!(
        baseline,
        vec!["ALLOC 1 4".to_string(), "FREE 1".to_string()]
    );
    for split in 0..=stream.len() {
        let (a, b) = stream.split_at(split);
        assert_eq!(frame_chunks(&[a, b]), baseline, "split at byte {split}");
    }
}

/// Build one request line from generated parts.
fn render_request(kind: u32, id: u32, size: u32, crlf: bool) -> String {
    let body = match kind {
        0 => format!("ALLOC {id} {size}"),
        1 => format!("FREE {id}"),
        2 => "STATUS".to_string(),
        3 => "STATS".to_string(),
        4 => "TABLES".to_string(),
        5 => format!("  ALLOC   {id}  {size}  "), // whitespace abuse
        6 => format!("NOISE {id}"),               // unknown verb
        _ => String::new(),                       // blank line (no reply)
    };
    if crlf {
        format!("{body}\r\n")
    } else {
        format!("{body}\n")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_fragmentation_preserves_commands_and_replies(
        requests in prop::collection::vec((0u32..8, 1u32..40, 1u32..9, any::<bool>()), 1..40),
        cuts in prop::collection::vec(0usize..10_000, 0..12),
    ) {
        let stream: Vec<u8> = requests
            .iter()
            .flat_map(|&(kind, id, size, crlf)| render_request(kind, id, size, crlf).into_bytes())
            .collect();
        let baseline = frame_chunks(&[&stream]);
        let baseline_replies = replies_for(&baseline);

        // Cut the stream at the generated positions (normalized into
        // range and sorted) to produce a multi-chunk fragmentation.
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut prev = 0;
        for &p in &points {
            chunks.push(&stream[prev..p]);
            prev = p;
        }
        chunks.push(&stream[prev..]);

        let lines = frame_chunks(&chunks);
        prop_assert_eq!(&lines, &baseline);
        prop_assert_eq!(replies_for(&lines), baseline_replies);
    }
}
