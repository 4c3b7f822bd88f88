//! Standard Workload Format (SWF) parsing and writing.
//!
//! The LLNL traces the paper evaluates (Thunder, Atlas via Feitelson's
//! archive; Cab via the Flux team's Zenodo release) are distributed in SWF:
//! one job per line, 18 whitespace-separated fields, `;` comments. This
//! module lets genuine traces drop into the simulation pipeline in place of
//! the generative stand-ins.
//!
//! Field usage (0-based): 1 = submit time, 3 = run time, 4 = allocated
//! processors, 7 = requested processors (fallback when 4 is `-1`). Jobs
//! with unusable size or runtime are skipped, matching common practice.

use crate::cast::count_u32;
use crate::synth::BW_CLASSES;
use crate::trace::{Trace, TraceJob};
use std::fmt::Write as _;

/// Why a non-comment SWF line was excluded from the parsed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfSkipReason {
    /// Fewer than 8 whitespace-separated fields.
    TooFewFields {
        /// How many fields the line actually had.
        found: usize,
    },
    /// Field 1 (submit time) missing, non-numeric, or negative.
    BadSubmitTime,
    /// Field 3 (run time) missing, non-numeric, or not positive.
    BadRuntime,
    /// Neither field 4 (allocated) nor field 7 (requested) gives a
    /// positive processor count.
    BadProcessorCount,
}

impl std::fmt::Display for SwfSkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfSkipReason::TooFewFields { found } => {
                write!(f, "expected >= 8 fields, found {found}")
            }
            SwfSkipReason::BadSubmitTime => write!(f, "submit time (field 1) is not a time >= 0"),
            SwfSkipReason::BadRuntime => write!(f, "run time (field 3) is not a time > 0"),
            SwfSkipReason::BadProcessorCount => {
                write!(
                    f,
                    "neither allocated (field 4) nor requested (field 7) processors is > 0"
                )
            }
        }
    }
}

/// A line the parser had to skip, with enough context to report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfSkipped {
    /// 1-based line number in the input text.
    pub line_no: usize,
    /// The offending line, trimmed.
    pub line: String,
    /// Why the line could not become a job.
    pub reason: SwfSkipReason,
}

impl std::fmt::Display for SwfSkipped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}: {} (`{}`)",
            self.line_no, self.reason, self.line
        )
    }
}

/// Parse SWF text into a trace.
///
/// `procs_per_node`: SWF records processors; for traces where jobs are
/// node-scheduled (the LLNL machines), pass the processors per node so
/// sizes convert to nodes (e.g. 4 for Thunder's quad-socket nodes). Pass 1
/// to take processor counts as node counts.
///
/// Unusable lines are dropped; use [`parse_swf_report`] to learn which
/// lines were skipped and why.
pub fn parse_swf(name: &str, system_nodes: u32, text: &str, procs_per_node: u32) -> Trace {
    parse_swf_report(name, system_nodes, text, procs_per_node).0
}

/// Like [`parse_swf`], but also reports every non-comment line the parser
/// had to skip, so callers can surface data problems instead of silently
/// losing jobs.
pub fn parse_swf_report(
    name: &str,
    system_nodes: u32,
    text: &str,
    procs_per_node: u32,
) -> (Trace, Vec<SwfSkipped>) {
    assert!(procs_per_node >= 1);
    let mut jobs = Vec::new();
    let mut skipped = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let mut skip = |reason: SwfSkipReason| {
            skipped.push(SwfSkipped {
                line_no: idx + 1,
                line: line.to_string(),
                reason,
            });
        };
        // Only the first 8 fields are read; a line with fewer has exactly
        // `found` of them. A fixed array keeps the parse allocation-free.
        let mut fields = [""; 8];
        let mut found = 0;
        for (slot, field) in fields.iter_mut().zip(line.split_whitespace()) {
            *slot = field;
            found += 1;
        }
        if found < 8 {
            skip(SwfSkipReason::TooFewFields { found });
            continue;
        }
        let submit: f64 = fields[1].parse().unwrap_or(-1.0);
        let runtime: f64 = fields[3].parse().unwrap_or(-1.0);
        let mut procs: i64 = fields[4].parse().unwrap_or(-1);
        if procs <= 0 {
            procs = fields[7].parse().unwrap_or(-1);
        }
        if submit < 0.0 {
            skip(SwfSkipReason::BadSubmitTime);
            continue;
        }
        if runtime <= 0.0 {
            skip(SwfSkipReason::BadRuntime);
            continue;
        }
        if procs <= 0 {
            skip(SwfSkipReason::BadProcessorCount);
            continue;
        }
        let procs: u32 = procs.try_into().unwrap_or(u32::MAX);
        let size = procs.div_ceil(procs_per_node).max(1);
        let id = count_u32(jobs.len());
        jobs.push(TraceJob {
            id,
            arrival: submit,
            size,
            runtime,
            // Deterministic pseudo-random class from the job id, mirroring
            // the paper's random assignment (§5.4.2).
            bw_tenths: BW_CLASSES[(id as usize * 2654435761) % BW_CLASSES.len()],
        });
    }
    (Trace::rigid(name, system_nodes, jobs), skipped)
}

/// Serialize a trace to SWF text (fields this pipeline does not track are
/// written as `-1`).
pub fn to_swf(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; Trace: {}", trace.name);
    let _ = writeln!(out, "; MaxNodes: {}", trace.system_nodes);
    for j in &trace.jobs {
        // id submit wait run procs cpu mem req_procs req_time req_mem
        // status uid gid exe queue part prev think
        let _ = writeln!(
            out,
            "{} {} -1 {} {} -1 -1 {} -1 -1 1 -1 -1 -1 -1 -1 -1 -1",
            j.id + 1,
            j.arrival,
            j.runtime,
            j.size,
            j.size,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Comment line
; MaxProcs: 4008

1 0 10 3600 16 -1 -1 16 -1 -1 1 5 1 -1 1 -1 -1 -1
2 30 5 60 -1 -1 -1 8 -1 -1 1 5 1 -1 1 -1 -1 -1
3 60 0 -5 4 -1 -1 4 -1 -1 0 5 1 -1 1 -1 -1 -1
bogus line
4 90 0 120 1 -1 -1 1 -1 -1 1 5 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_valid_lines_only() {
        let t = parse_swf("test", 1024, SAMPLE, 1);
        // Job 3 has negative runtime, "bogus line" too short.
        assert_eq!(t.len(), 3);
        assert_eq!(t.jobs[0].size, 16);
        assert_eq!(t.jobs[0].runtime, 3600.0);
        assert_eq!(t.jobs[1].size, 8, "falls back to requested processors");
        assert_eq!(t.jobs[2].arrival, 90.0);
    }

    #[test]
    fn processor_to_node_conversion() {
        let t = parse_swf("test", 1024, SAMPLE, 4);
        assert_eq!(t.jobs[0].size, 4); // 16 procs / 4 per node
        assert_eq!(t.jobs[2].size, 1); // 1 proc rounds up to 1 node
    }

    #[test]
    fn roundtrip_through_swf() {
        let t = parse_swf("test", 1024, SAMPLE, 1);
        let text = to_swf(&t);
        let back = parse_swf("test", 1024, &text, 1);
        assert_eq!(t.len(), back.len());
        for (a, b) in t.jobs.iter().zip(&back.jobs) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.runtime, b.runtime);
        }
    }

    #[test]
    fn hand_written_fixture_roundtrips_exactly() {
        // A fixture written by hand (not derived from parse output): every
        // job must survive trace -> SWF text -> trace unchanged.
        let original = Trace::rigid(
            "fixture",
            64,
            vec![
                TraceJob {
                    id: 0,
                    arrival: 0.0,
                    size: 1,
                    runtime: 30.0,
                    bw_tenths: 2,
                },
                TraceJob {
                    id: 1,
                    arrival: 12.5,
                    size: 17,
                    runtime: 3600.0,
                    bw_tenths: 5,
                },
                TraceJob {
                    id: 2,
                    arrival: 12.5,
                    size: 64,
                    runtime: 0.5,
                    bw_tenths: 10,
                },
                TraceJob {
                    id: 3,
                    arrival: 86400.0,
                    size: 3,
                    runtime: 7.25,
                    bw_tenths: 2,
                },
            ],
        );
        let text = to_swf(&original);
        let (back, skipped) = parse_swf_report("fixture", 64, &text, 1);
        assert!(
            skipped.is_empty(),
            "writer emitted unparseable lines: {skipped:?}"
        );
        assert_eq!(back.len(), original.len());
        for (a, b) in original.jobs.iter().zip(&back.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.size, b.size);
            assert_eq!(a.runtime, b.runtime);
        }
    }

    #[test]
    fn malformed_lines_are_reported_not_silently_dropped() {
        let (t, skipped) = parse_swf_report("test", 1024, SAMPLE, 1);
        assert_eq!(t.len(), 3);
        // Every excluded non-comment line is accounted for, with its
        // position and a reason a human can act on.
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0].line_no, 6);
        assert_eq!(skipped[0].reason, SwfSkipReason::BadRuntime);
        assert!(skipped[0].line.starts_with("3 60"));
        assert_eq!(skipped[1].line_no, 7);
        assert_eq!(skipped[1].reason, SwfSkipReason::TooFewFields { found: 2 });
        assert_eq!(skipped[1].line, "bogus line");
        // The Display form carries the line number and the raw line.
        let msg = skipped[1].to_string();
        assert!(
            msg.contains("line 7") && msg.contains("bogus line"),
            "{msg}"
        );
    }

    #[test]
    fn skip_reasons_cover_each_field_failure() {
        let text = "\
-1 -5 0 100 4 -1 -1 4 -1 -1 1 1 1 -1 1 -1 -1 -1
2 10 0 100 -1 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1
3 10 0 100 0 -1 -1 nonsense -1 -1 1 1 1 -1 1 -1 -1 -1
";
        let (t, skipped) = parse_swf_report("test", 16, text, 1);
        assert_eq!(t.len(), 0);
        let reasons: Vec<_> = skipped.iter().map(|s| s.reason.clone()).collect();
        assert_eq!(
            reasons,
            vec![
                SwfSkipReason::BadSubmitTime,
                SwfSkipReason::BadProcessorCount,
                SwfSkipReason::BadProcessorCount,
            ]
        );
    }

    #[test]
    fn bandwidth_classes_deterministic() {
        let a = parse_swf("t", 64, SAMPLE, 1);
        let b = parse_swf("t", 64, SAMPLE, 1);
        assert!(a
            .jobs
            .iter()
            .zip(&b.jobs)
            .all(|(x, y)| x.bw_tenths == y.bw_tenths));
        assert!(a.jobs.iter().all(|j| BW_CLASSES.contains(&j.bw_tenths)));
    }
}
