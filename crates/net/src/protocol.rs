//! The serve wire protocol: every reply the daemon can send, as one
//! [`Reply`] enum with a single serializer.
//!
//! The grammar is deliberately rigid so resource-manager plugins can parse
//! replies with `split_whitespace` and a prefix check:
//!
//! ```text
//! success: OK <VERB> [fields...]
//! failure: ERR <code> <message>
//! ```
//!
//! * Every success reply names the verb it answers, so replies remain
//!   self-describing even when a client pipelines requests.
//! * Error codes are a closed machine-readable set ([`ErrCode`]); the
//!   message after the code is human-readable and unstable.
//! * `OK METRICS <n>` is the one multi-line reply: the following `n` raw
//!   lines are a Prometheus text exposition (terminated by the line
//!   count, so clients never need a sentinel).
//!
//! The `HELP` reply is generated from the [`VERBS`] table, so the
//! documented surface can never drift from the dispatcher.
//!
//! The same grammar is served over two transports — the original
//! stdin/stdout session and the TCP daemon ([`crate::server`]) — through
//! one dispatcher ([`crate::engine::Engine`]), so the protocol cannot fork
//! between them.

use std::fmt;

/// Machine-readable error classes of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The allocator rejected the request (typed reason in the message).
    Denied,
    /// Arguments did not parse or violate the verb's contract.
    BadRequest,
    /// The job id is already allocated.
    Exists,
    /// The job id is not allocated.
    UnknownJob,
    /// The write-ahead journal failed; state was rolled back.
    Journal,
    /// The verb needs a journal but the session is ephemeral.
    NotDurable,
    /// The verb itself is not part of the protocol.
    UnknownVerb,
    /// The server is over capacity (connection limit); retry later.
    Busy,
    /// An invariant the server maintains was violated (bug surface).
    Internal,
}

impl ErrCode {
    /// Every code, in declaration order.
    pub const ALL: [ErrCode; 9] = [
        ErrCode::Denied,
        ErrCode::BadRequest,
        ErrCode::Exists,
        ErrCode::UnknownJob,
        ErrCode::Journal,
        ErrCode::NotDurable,
        ErrCode::UnknownVerb,
        ErrCode::Busy,
        ErrCode::Internal,
    ];

    /// The stable wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Denied => "denied",
            ErrCode::BadRequest => "bad-request",
            ErrCode::Exists => "exists",
            ErrCode::UnknownJob => "unknown-job",
            ErrCode::Journal => "journal",
            ErrCode::NotDurable => "not-durable",
            ErrCode::UnknownVerb => "unknown-verb",
            ErrCode::Busy => "busy",
            ErrCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verb of the protocol: its name, argument syntax, and what it does.
pub struct Verb {
    /// The request word.
    pub name: &'static str,
    /// Usage string shown by `HELP` (name plus argument placeholders).
    pub usage: &'static str,
    /// One-line description (doc comments, README).
    pub summary: &'static str,
}

/// The complete protocol surface, in dispatch order. `HELP` renders this
/// table; the dispatcher in [`crate::engine`] matches exactly these names.
pub const VERBS: &[Verb] = &[
    Verb {
        name: "ALLOC",
        usage: "ALLOC <id> <size>",
        summary: "allocate an isolated partition of <size> nodes for job <id>",
    },
    Verb {
        name: "FREE",
        usage: "FREE <id>",
        summary: "release job <id>'s allocation (or reservation/submission)",
    },
    Verb {
        name: "SUBMIT-DAG",
        usage: "SUBMIT-DAG <id> <size> [parents-csv]",
        summary: "submit a DAG job gated on its parents; starts when they finish",
    },
    Verb {
        name: "RESERVE",
        usage: "RESERVE <id> <size> <start>",
        summary: "claim <size> nodes now as an advance reservation for time <start>",
    },
    Verb {
        name: "DEFRAG",
        usage: "DEFRAG <id> <size>",
        summary: "allocate like ALLOC, but migrate live jobs if fragmentation blocks it",
    },
    Verb {
        name: "STATUS",
        usage: "STATUS",
        summary: "node occupancy, live jobs, utilization",
    },
    Verb {
        name: "TABLES",
        usage: "TABLES",
        summary: "forwarding-table entries for the live allocations",
    },
    Verb {
        name: "SNAPSHOT",
        usage: "SNAPSHOT",
        summary: "write a full snapshot and compact the journal",
    },
    Verb {
        name: "STATS",
        usage: "STATS",
        summary: "one-line key=value scheduler statistics",
    },
    Verb {
        name: "METRICS",
        usage: "METRICS",
        summary: "Prometheus text exposition of every registered metric",
    },
    Verb {
        name: "HELP",
        usage: "HELP",
        summary: "this command summary",
    },
    Verb {
        name: "QUIT",
        usage: "QUIT",
        summary: "end this session (TCP: closes only this connection)",
    },
    Verb {
        name: "SHUTDOWN",
        usage: "SHUTDOWN",
        summary: "gracefully stop the daemon: drain, flush, snapshot, exit",
    },
];

/// Every reply the serve loop can send. Serialization lives in exactly one
/// place: this type's [`Display`](fmt::Display) impl.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK GRANT <id> <n0,n1,...>` — the job's allocated node ids.
    Grant {
        /// Job id.
        id: u32,
        /// Granted node ids.
        nodes: Vec<u32>,
    },
    /// `OK FREE <id>` — with ` started=<id0,id1,...>` appended when the
    /// release unblocked queued DAG jobs that started in its wake.
    Freed {
        /// Job id.
        id: u32,
        /// Queued DAG jobs granted by the post-release drain, ascending.
        started: Vec<u32>,
    },
    /// `OK SUBMIT-DAG <id> granted=<n0,n1,...>` when the job started
    /// immediately, else `OK SUBMIT-DAG <id> queued deps=<n>`.
    Submitted {
        /// Job id.
        id: u32,
        /// Granted node ids, if the job started immediately.
        nodes: Option<Vec<u32>>,
        /// Unfinished parents blocking the job (0 when it waits only for
        /// resources).
        deps: usize,
    },
    /// `OK RESERVE <id> start=<t> <n0,n1,...>` — the reserved node ids,
    /// claimed from now until the job is freed.
    Reserved {
        /// Job id.
        id: u32,
        /// The promised start time.
        start: f64,
        /// Reserved node ids.
        nodes: Vec<u32>,
    },
    /// `OK DEFRAG <id> moved=<m> cost=<c> <n0,n1,...>` — the job's
    /// allocated node ids, after `m` live jobs were migrated (0 when the
    /// request fit without moving anyone) at total migration cost `c`.
    Defragged {
        /// Job id.
        id: u32,
        /// Live jobs migrated to make the request fit.
        moved: usize,
        /// Total migration cost (nodes moved × per-node cost).
        cost: f64,
        /// Granted node ids.
        nodes: Vec<u32>,
    },
    /// `OK STATUS nodes=<used>/<total> jobs=<n> util=<pct>%`.
    Status {
        /// Allocated nodes.
        used: u32,
        /// Total nodes.
        total: u32,
        /// Live jobs.
        jobs: usize,
    },
    /// `OK TABLES entries=<n>`.
    Tables {
        /// Forwarding entries installed.
        entries: usize,
    },
    /// `OK SNAPSHOT seq=<n>`.
    Snapshot {
        /// Sequence number the snapshot covers.
        seq: u64,
    },
    /// `OK STATS k=v k=v ...` — whitespace-separated key=value pairs.
    Stats {
        /// The pairs, in render order. Keys and values must not contain
        /// whitespace or `=`.
        pairs: Vec<(String, String)>,
    },
    /// `OK METRICS <nlines>` followed by that many raw Prometheus lines.
    Metrics {
        /// The rendered exposition (possibly empty).
        text: String,
    },
    /// `OK HELP ...` — generated from [`VERBS`].
    Help,
    /// `OK BYE`.
    Bye,
    /// `OK SHUTDOWN` — the daemon is draining and will exit.
    ShuttingDown,
    /// `ERR <code> <message>`.
    Err {
        /// Machine-readable class.
        code: ErrCode,
        /// Human-readable detail (unstable).
        msg: String,
    },
}

impl Reply {
    /// Shorthand for an error reply.
    pub fn err(code: ErrCode, msg: impl Into<String>) -> Reply {
        Reply::Err {
            code,
            msg: msg.into(),
        }
    }

    /// `true` for `ERR` replies.
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. })
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Grant { id, nodes } => {
                write!(f, "OK GRANT {id} ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            Reply::Freed { id, started } => {
                write!(f, "OK FREE {id}")?;
                if !started.is_empty() {
                    write!(f, " started=")?;
                    for (i, j) in started.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{j}")?;
                    }
                }
                Ok(())
            }
            Reply::Submitted { id, nodes, deps } => match nodes {
                Some(nodes) => {
                    write!(f, "OK SUBMIT-DAG {id} granted=")?;
                    for (i, n) in nodes.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{n}")?;
                    }
                    Ok(())
                }
                None => write!(f, "OK SUBMIT-DAG {id} queued deps={deps}"),
            },
            Reply::Reserved { id, start, nodes } => {
                write!(f, "OK RESERVE {id} start={start} ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            Reply::Defragged {
                id,
                moved,
                cost,
                nodes,
            } => {
                write!(f, "OK DEFRAG {id} moved={moved} cost={cost} ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            Reply::Status { used, total, jobs } => write!(
                f,
                "OK STATUS nodes={used}/{total} jobs={jobs} util={:.1}%",
                100.0 * f64::from(*used) / f64::from(*total)
            ),
            Reply::Tables { entries } => write!(f, "OK TABLES entries={entries}"),
            Reply::Snapshot { seq } => write!(f, "OK SNAPSHOT seq={seq}"),
            Reply::Stats { pairs } => {
                write!(f, "OK STATS")?;
                for (k, v) in pairs {
                    write!(f, " {k}={v}")?;
                }
                Ok(())
            }
            Reply::Metrics { text } => {
                let n = text.lines().count();
                write!(f, "OK METRICS {n}")?;
                for line in text.lines() {
                    write!(f, "\n{line}")?;
                }
                Ok(())
            }
            Reply::Help => {
                write!(f, "OK HELP")?;
                for (i, v) in VERBS.iter().enumerate() {
                    write!(
                        f,
                        " {}{}",
                        v.usage,
                        if i + 1 < VERBS.len() { " |" } else { "" }
                    )?;
                }
                Ok(())
            }
            Reply::Bye => write!(f, "OK BYE"),
            Reply::ShuttingDown => write!(f, "OK SHUTDOWN"),
            Reply::Err { code, msg } => write!(f, "ERR {code} {msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_replies_follow_the_ok_verb_grammar() {
        assert_eq!(
            Reply::Grant {
                id: 7,
                nodes: vec![0, 1, 5]
            }
            .to_string(),
            "OK GRANT 7 0,1,5"
        );
        assert_eq!(
            Reply::Freed {
                id: 3,
                started: vec![]
            }
            .to_string(),
            "OK FREE 3"
        );
        assert_eq!(
            Reply::Freed {
                id: 3,
                started: vec![4, 9]
            }
            .to_string(),
            "OK FREE 3 started=4,9"
        );
        assert_eq!(
            Reply::Submitted {
                id: 5,
                nodes: Some(vec![0, 2]),
                deps: 0
            }
            .to_string(),
            "OK SUBMIT-DAG 5 granted=0,2"
        );
        assert_eq!(
            Reply::Submitted {
                id: 5,
                nodes: None,
                deps: 2
            }
            .to_string(),
            "OK SUBMIT-DAG 5 queued deps=2"
        );
        assert_eq!(
            Reply::Reserved {
                id: 8,
                start: 120.5,
                nodes: vec![1, 3]
            }
            .to_string(),
            "OK RESERVE 8 start=120.5 1,3"
        );
        assert_eq!(
            Reply::Status {
                used: 4,
                total: 16,
                jobs: 1
            }
            .to_string(),
            "OK STATUS nodes=4/16 jobs=1 util=25.0%"
        );
        assert_eq!(
            Reply::Tables { entries: 9 }.to_string(),
            "OK TABLES entries=9"
        );
        assert_eq!(Reply::Snapshot { seq: 2 }.to_string(), "OK SNAPSHOT seq=2");
        assert_eq!(
            Reply::Defragged {
                id: 9,
                moved: 3,
                cost: 4.5,
                nodes: vec![0, 1, 2, 3]
            }
            .to_string(),
            "OK DEFRAG 9 moved=3 cost=4.5 0,1,2,3"
        );
        assert_eq!(
            Reply::Defragged {
                id: 9,
                moved: 0,
                cost: 0.0,
                nodes: vec![7]
            }
            .to_string(),
            "OK DEFRAG 9 moved=0 cost=0 7"
        );
        assert_eq!(Reply::Bye.to_string(), "OK BYE");
        assert_eq!(Reply::ShuttingDown.to_string(), "OK SHUTDOWN");
    }

    #[test]
    fn stats_render_as_key_value_pairs() {
        let r = Reply::Stats {
            pairs: vec![
                ("scheme".into(), "Jigsaw".into()),
                ("jobs".into(), "2".into()),
            ],
        };
        assert_eq!(r.to_string(), "OK STATS scheme=Jigsaw jobs=2");
    }

    #[test]
    fn metrics_reply_counts_its_own_lines() {
        let r = Reply::Metrics {
            text: "a 1\nb 2\n".into(),
        };
        assert_eq!(r.to_string(), "OK METRICS 2\na 1\nb 2");
        let empty = Reply::Metrics {
            text: String::new(),
        };
        assert_eq!(empty.to_string(), "OK METRICS 0");
    }

    #[test]
    fn errors_carry_a_stable_code_token() {
        let r = Reply::err(ErrCode::UnknownJob, "job 9 is not allocated");
        assert_eq!(r.to_string(), "ERR unknown-job job 9 is not allocated");
        assert!(r.is_err());
        // Codes are single lowercase tokens — parseable as field 2.
        for (i, code) in ErrCode::ALL.into_iter().enumerate() {
            assert!(!code.as_str().contains(char::is_whitespace));
            assert_eq!(code.as_str(), code.as_str().to_ascii_lowercase());
            let first = ErrCode::ALL
                .iter()
                .position(|c| c.as_str() == code.as_str());
            assert_eq!(first, Some(i), "tokens are distinct");
        }
    }

    #[test]
    fn help_is_generated_from_the_verb_table() {
        let help = Reply::Help.to_string();
        assert!(help.starts_with("OK HELP"));
        for v in VERBS {
            assert!(help.contains(v.name), "HELP must mention {}", v.name);
        }
        assert_eq!(help.lines().count(), 1, "HELP is a single line");
    }

    #[test]
    fn every_reply_starts_with_ok_or_err() {
        let replies = [
            Reply::Grant {
                id: 1,
                nodes: vec![0],
            },
            Reply::Freed {
                id: 1,
                started: vec![],
            },
            Reply::Submitted {
                id: 1,
                nodes: None,
                deps: 1,
            },
            Reply::Reserved {
                id: 1,
                start: 0.0,
                nodes: vec![0],
            },
            Reply::Status {
                used: 0,
                total: 16,
                jobs: 0,
            },
            Reply::Tables { entries: 0 },
            Reply::Snapshot { seq: 0 },
            Reply::Defragged {
                id: 1,
                moved: 0,
                cost: 0.0,
                nodes: vec![0],
            },
            Reply::Stats { pairs: vec![] },
            Reply::Metrics {
                text: String::new(),
            },
            Reply::Help,
            Reply::Bye,
            Reply::ShuttingDown,
            Reply::err(ErrCode::Internal, "x"),
        ];
        for r in replies {
            let s = r.to_string();
            assert!(
                s.starts_with("OK ") || s.starts_with("ERR "),
                "bad reply: {s}"
            );
        }
    }
}
