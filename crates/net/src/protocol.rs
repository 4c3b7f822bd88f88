//! The serve wire protocol: [`parse`] turns a request line into a typed
//! [`Request`], and every reply the daemon can send is one [`Reply`] enum
//! with a single encoder.
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
//! The [`VERBS`] table drives both directions: [`parse`] looks request
//! words up in it and `HELP` is generated from it, so the documented
//! surface can never drift from the dispatcher. Neither parsing nor
//! encoding the hot replies touches the heap: a [`Request`] borrows its
//! line, and [`Reply::write_to`] writes straight into the caller's
//! buffer.
//!
//! The same grammar is served over two transports — the original
//! stdin/stdout session and the TCP daemon ([`crate::server`]) — through
//! one dispatcher ([`crate::engine::Engine`]), so the protocol cannot fork
//! between them.

use jigsaw_core::Reject;
use jigsaw_topology::ids::NodeId;
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

/// The verbs of the protocol, in [`VERBS`] order: `cmd as usize` indexes
/// the table (and the engine's per-verb metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmd {
    /// `ALLOC`.
    Alloc,
    /// `FREE`.
    Free,
    /// `SUBMIT-DAG`.
    SubmitDag,
    /// `RESERVE`.
    Reserve,
    /// `DEFRAG`.
    Defrag,
    /// `STATUS`.
    Status,
    /// `TABLES`.
    Tables,
    /// `SNAPSHOT`.
    Snapshot,
    /// `STATS`.
    Stats,
    /// `METRICS`.
    Metrics,
    /// `HELP`.
    Help,
    /// `QUIT`.
    Quit,
    /// `SHUTDOWN`.
    Shutdown,
}

impl Cmd {
    /// This verb's row of [`VERBS`].
    pub fn verb(self) -> &'static Verb {
        &VERBS[self.index()]
    }

    /// Position in [`VERBS`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One verb of the protocol: its name, argument syntax, and what it does.
pub struct Verb {
    /// The verb this row describes; rows are in [`Cmd`] order.
    pub cmd: Cmd,
    /// The request word.
    pub name: &'static str,
    /// Usage string shown by `HELP` (name plus argument placeholders).
    pub usage: &'static str,
    /// One-line description (doc comments, README).
    pub summary: &'static str,
}

/// The complete protocol surface, in dispatch order. `HELP` renders this
/// table and [`parse`] looks request words up in it.
pub const VERBS: &[Verb] = &[
    Verb {
        cmd: Cmd::Alloc,
        name: "ALLOC",
        usage: "ALLOC <id> <size>",
        summary: "allocate an isolated partition of <size> nodes for job <id>",
    },
    Verb {
        cmd: Cmd::Free,
        name: "FREE",
        usage: "FREE <id>",
        summary: "release job <id>'s allocation (or reservation/submission)",
    },
    Verb {
        cmd: Cmd::SubmitDag,
        name: "SUBMIT-DAG",
        usage: "SUBMIT-DAG <id> <size> [parents-csv]",
        summary: "submit a DAG job gated on its parents; starts when they finish",
    },
    Verb {
        cmd: Cmd::Reserve,
        name: "RESERVE",
        usage: "RESERVE <id> <size> <start>",
        summary: "claim <size> nodes now as an advance reservation for time <start>",
    },
    Verb {
        cmd: Cmd::Defrag,
        name: "DEFRAG",
        usage: "DEFRAG <id> <size>",
        summary: "allocate like ALLOC, but migrate live jobs if fragmentation blocks it",
    },
    Verb {
        cmd: Cmd::Status,
        name: "STATUS",
        usage: "STATUS",
        summary: "node occupancy, live jobs, utilization",
    },
    Verb {
        cmd: Cmd::Tables,
        name: "TABLES",
        usage: "TABLES",
        summary: "forwarding-table entries for the live allocations",
    },
    Verb {
        cmd: Cmd::Snapshot,
        name: "SNAPSHOT",
        usage: "SNAPSHOT",
        summary: "write a full snapshot and compact the journal",
    },
    Verb {
        cmd: Cmd::Stats,
        name: "STATS",
        usage: "STATS",
        summary: "one-line key=value scheduler statistics",
    },
    Verb {
        cmd: Cmd::Metrics,
        name: "METRICS",
        usage: "METRICS",
        summary: "Prometheus text exposition of every registered metric",
    },
    Verb {
        cmd: Cmd::Help,
        name: "HELP",
        usage: "HELP",
        summary: "this command summary",
    },
    Verb {
        cmd: Cmd::Quit,
        name: "QUIT",
        usage: "QUIT",
        summary: "end this session (TCP: closes only this connection)",
    },
    Verb {
        cmd: Cmd::Shutdown,
        name: "SHUTDOWN",
        usage: "SHUTDOWN",
        summary: "gracefully stop the daemon: drain, flush, snapshot, exit",
    },
];

/// A comma-separated list of job ids (`3,5,9`), checked by [`parse`] and
/// borrowed from the request line.
#[derive(Debug, Clone, Copy)]
pub struct IdList<'a>(&'a str);

impl<'a> IdList<'a> {
    /// The empty list.
    pub const EMPTY: IdList<'static> = IdList("");

    /// Check `text`: `None` unless every comma-separated element is a
    /// `u32`. The empty string is the empty list.
    pub fn parse(text: &'a str) -> Option<IdList<'a>> {
        (text.is_empty() || text.split(',').all(|t| t.parse::<u32>().is_ok()))
            .then_some(IdList(text))
    }

    /// The ids, in order. (The empty list splits into one empty piece,
    /// which does not parse; no other piece fails, since [`IdList::parse`]
    /// checked them all.)
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.0.split(',').filter_map(|t| t.parse().ok())
    }

    /// `true` for the empty list.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl PartialEq for IdList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One request line, parsed. [`parse`] checks the arguments against the
/// verb's contract (sizes > 0, finite non-negative start times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request<'a> {
    /// `ALLOC <id> <size>`.
    Alloc {
        /// Job id.
        id: u32,
        /// Nodes requested (> 0).
        size: u32,
    },
    /// `FREE <id>`.
    Free {
        /// Job id.
        id: u32,
    },
    /// `SUBMIT-DAG <id> <size> [parents-csv]`.
    SubmitDag {
        /// Job id.
        id: u32,
        /// Nodes requested (> 0).
        size: u32,
        /// Jobs that must finish first.
        parents: IdList<'a>,
    },
    /// `RESERVE <id> <size> <start>`.
    Reserve {
        /// Job id.
        id: u32,
        /// Nodes requested (> 0).
        size: u32,
        /// Promised start time (finite, ≥ 0).
        start: f64,
    },
    /// `DEFRAG <id> <size>`.
    Defrag {
        /// Job id.
        id: u32,
        /// Nodes requested (> 0).
        size: u32,
    },
    /// `STATUS`.
    Status,
    /// `TABLES`.
    Tables,
    /// `SNAPSHOT`.
    Snapshot,
    /// `STATS`.
    Stats,
    /// `METRICS`.
    Metrics,
    /// `HELP`.
    Help,
    /// `QUIT`.
    Quit,
    /// `SHUTDOWN`.
    Shutdown,
}

impl Request<'_> {
    /// The verb of this request.
    pub fn cmd(&self) -> Cmd {
        match self {
            Request::Alloc { .. } => Cmd::Alloc,
            Request::Free { .. } => Cmd::Free,
            Request::SubmitDag { .. } => Cmd::SubmitDag,
            Request::Reserve { .. } => Cmd::Reserve,
            Request::Defrag { .. } => Cmd::Defrag,
            Request::Status => Cmd::Status,
            Request::Tables => Cmd::Tables,
            Request::Snapshot => Cmd::Snapshot,
            Request::Stats => Cmd::Stats,
            Request::Metrics => Cmd::Metrics,
            Request::Help => Cmd::Help,
            Request::Quit => Cmd::Quit,
            Request::Shutdown => Cmd::Shutdown,
        }
    }
}

/// The canonical request line (no newline); [`parse`] reads it back.
impl fmt::Display for Request<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cmd().verb().name)?;
        match *self {
            Request::Alloc { id, size } | Request::Defrag { id, size } => {
                write!(f, " {id} {size}")
            }
            Request::Free { id } => write!(f, " {id}"),
            Request::SubmitDag { id, size, parents } => {
                write!(f, " {id} {size}")?;
                if !parents.is_empty() {
                    f.write_str(" ")?;
                    write_ids(f, parents.iter())?;
                }
                Ok(())
            }
            Request::Reserve { id, size, start } => write!(f, " {id} {size} {start}"),
            _ => Ok(()),
        }
    }
}

/// Why a line is not a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError<'a> {
    /// The line has no words: nothing is owed, not even an error.
    Blank,
    /// The first word is not in [`VERBS`].
    UnknownVerb {
        /// The whole request line.
        line: &'a str,
    },
    /// A known verb with the wrong number of arguments.
    Arity {
        /// The verb.
        cmd: Cmd,
        /// The whole request line.
        line: &'a str,
    },
    /// A known verb whose arguments do not parse or break its contract.
    BadArguments(Cmd),
}

impl ParseError<'_> {
    /// The verb the line named, when it named one.
    pub fn cmd(&self) -> Option<Cmd> {
        match *self {
            ParseError::Arity { cmd, .. } | ParseError::BadArguments(cmd) => Some(cmd),
            ParseError::Blank | ParseError::UnknownVerb { .. } => None,
        }
    }

    /// The error class an `ERR` reply to this line carries.
    pub fn code(&self) -> ErrCode {
        match self {
            ParseError::UnknownVerb { .. } => ErrCode::UnknownVerb,
            _ => ErrCode::BadRequest,
        }
    }
}

/// The message of the `ERR` reply to this line.
impl fmt::Display for ParseError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Blank => f.write_str("blank request"),
            ParseError::UnknownVerb { line } | ParseError::Arity { line, .. } => {
                write!(f, "`{line}`")
            }
            ParseError::BadArguments(cmd) => write!(f, "bad {} arguments", cmd.verb().name),
        }
    }
}

/// The most arguments any verb takes.
const MAX_ARGS: usize = 3;

/// Parse one request line (without its newline). Total and
/// allocation-free: every input maps to a [`Request`] or a
/// [`ParseError`], and the result borrows from `line`.
pub fn parse(line: &str) -> Result<Request<'_>, ParseError<'_>> {
    let mut words = line.split_whitespace();
    let word = words.next().ok_or(ParseError::Blank)?;
    let cmd = VERBS
        .iter()
        .find(|v| v.name == word)
        .ok_or(ParseError::UnknownVerb { line })?
        .cmd;
    // One slot past the longest argument list: a line that fills it has
    // the wrong arity for every verb.
    let mut args = [""; MAX_ARGS + 1];
    let mut n = 0;
    for (slot, word) in args.iter_mut().zip(words) {
        *slot = word;
        n += 1;
    }
    let bad = ParseError::BadArguments(cmd);
    let id = |s: &str| s.parse::<u32>().map_err(|_| bad);
    let size = |s: &str| match s.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(bad),
    };
    Ok(match (cmd, &args[..n]) {
        (Cmd::Alloc, [i, s]) => Request::Alloc {
            id: id(i)?,
            size: size(s)?,
        },
        (Cmd::Free, [i]) => Request::Free { id: id(i)? },
        (Cmd::SubmitDag, [i, s]) => Request::SubmitDag {
            id: id(i)?,
            size: size(s)?,
            parents: IdList::EMPTY,
        },
        (Cmd::SubmitDag, [i, s, p]) => Request::SubmitDag {
            id: id(i)?,
            size: size(s)?,
            parents: IdList::parse(p).ok_or(bad)?,
        },
        (Cmd::Reserve, [i, s, t]) => Request::Reserve {
            id: id(i)?,
            size: size(s)?,
            start: match t.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => t,
                _ => return Err(bad),
            },
        },
        (Cmd::Defrag, [i, s]) => Request::Defrag {
            id: id(i)?,
            size: size(s)?,
        },
        (Cmd::Status, []) => Request::Status,
        (Cmd::Tables, []) => Request::Tables,
        (Cmd::Snapshot, []) => Request::Snapshot,
        (Cmd::Stats, []) => Request::Stats,
        (Cmd::Metrics, []) => Request::Metrics,
        (Cmd::Help, []) => Request::Help,
        (Cmd::Quit, []) => Request::Quit,
        (Cmd::Shutdown, []) => Request::Shutdown,
        _ => return Err(ParseError::Arity { cmd, line }),
    })
}

/// Every reply the serve loop can send. Serialization lives in exactly one
/// place, [`Reply::write_to`]; [`Display`](fmt::Display) forwards to it.
///
/// The replies a loaded daemon sends most (grants, frees, status, typed
/// denials) touch no heap: node lists borrow the engine's live set, and a
/// FREE that starts no queued job carries an empty (unallocated) list.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<'a> {
    /// `OK GRANT <id> <n0,n1,...>` — the job's allocated node ids.
    Grant {
        /// Job id.
        id: u32,
        /// Granted nodes.
        nodes: &'a [NodeId],
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
        /// Granted nodes, if the job started immediately.
        nodes: Option<&'a [NodeId]>,
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
        /// Reserved nodes.
        nodes: &'a [NodeId],
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
        /// Granted nodes.
        nodes: &'a [NodeId],
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
    /// `ERR denied job <id>: <reason>` — the allocator refused the job.
    Denied {
        /// Job id.
        id: u32,
        /// The typed refusal.
        reject: Reject,
    },
    /// `ERR <code> <message>`.
    Err {
        /// Machine-readable class.
        code: ErrCode,
        /// Human-readable detail (unstable).
        msg: String,
    },
}

impl Reply<'_> {
    /// Shorthand for an error reply.
    pub fn err(code: ErrCode, msg: impl Into<String>) -> Reply<'static> {
        Reply::Err {
            code,
            msg: msg.into(),
        }
    }

    /// `true` for `ERR` replies.
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. } | Reply::Denied { .. })
    }

    /// Encode the reply (without its newline) into `w`; the bytes are the
    /// protocol's, whatever the sink.
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            Reply::Grant { id, nodes } => {
                write!(w, "OK GRANT {id} ")?;
                write_ids(w, nodes.iter().map(|n| n.0))
            }
            Reply::Freed { id, started } => {
                write!(w, "OK FREE {id}")?;
                if !started.is_empty() {
                    w.write_str(" started=")?;
                    write_ids(w, started.iter().copied())?;
                }
                Ok(())
            }
            Reply::Submitted { id, nodes, deps } => {
                write!(w, "OK SUBMIT-DAG {id}")?;
                match nodes {
                    Some(nodes) => {
                        w.write_str(" granted=")?;
                        write_ids(w, nodes.iter().map(|n| n.0))
                    }
                    None => write!(w, " queued deps={deps}"),
                }
            }
            Reply::Reserved { id, start, nodes } => {
                write!(w, "OK RESERVE {id} start={start} ")?;
                write_ids(w, nodes.iter().map(|n| n.0))
            }
            Reply::Defragged {
                id,
                moved,
                cost,
                nodes,
            } => {
                write!(w, "OK DEFRAG {id} moved={moved} cost={cost} ")?;
                write_ids(w, nodes.iter().map(|n| n.0))
            }
            Reply::Status { used, total, jobs } => write!(
                w,
                "OK STATUS nodes={used}/{total} jobs={jobs} util={:.1}%",
                100.0 * f64::from(*used) / f64::from(*total)
            ),
            Reply::Tables { entries } => write!(w, "OK TABLES entries={entries}"),
            Reply::Snapshot { seq } => write!(w, "OK SNAPSHOT seq={seq}"),
            Reply::Stats { pairs } => {
                w.write_str("OK STATS")?;
                for (k, v) in pairs {
                    write!(w, " {k}={v}")?;
                }
                Ok(())
            }
            Reply::Metrics { text } => {
                write!(w, "OK METRICS {}", text.lines().count())?;
                for line in text.lines() {
                    write!(w, "\n{line}")?;
                }
                Ok(())
            }
            Reply::Help => {
                w.write_str("OK HELP")?;
                for (i, v) in VERBS.iter().enumerate() {
                    w.write_str(" ")?;
                    w.write_str(v.usage)?;
                    if i + 1 < VERBS.len() {
                        w.write_str(" |")?;
                    }
                }
                Ok(())
            }
            Reply::Bye => w.write_str("OK BYE"),
            Reply::ShuttingDown => w.write_str("OK SHUTDOWN"),
            Reply::Denied { id, reject } => write!(w, "ERR denied job {id}: {reject}"),
            Reply::Err { code, msg } => write!(w, "ERR {code} {msg}"),
        }
    }
}

impl fmt::Display for Reply<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Write `ids` comma-separated.
fn write_ids<W: fmt::Write + ?Sized>(w: &mut W, ids: impl Iterator<Item = u32>) -> fmt::Result {
    for (i, id) in ids.enumerate() {
        if i > 0 {
            w.write_str(",")?;
        }
        write!(w, "{id}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::RejectReason;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn success_replies_follow_the_ok_verb_grammar() {
        let n015 = ids(&[0, 1, 5]);
        let n02 = ids(&[0, 2]);
        let n13 = ids(&[1, 3]);
        let n0123 = ids(&[0, 1, 2, 3]);
        let n7 = ids(&[7]);
        let cases: [(Reply, &str); 12] = [
            (
                Reply::Grant {
                    id: 7,
                    nodes: &n015,
                },
                "OK GRANT 7 0,1,5",
            ),
            (
                Reply::Freed {
                    id: 3,
                    started: Vec::new(),
                },
                "OK FREE 3",
            ),
            (
                Reply::Freed {
                    id: 3,
                    started: vec![4, 9],
                },
                "OK FREE 3 started=4,9",
            ),
            (
                Reply::Submitted {
                    id: 5,
                    nodes: Some(&n02),
                    deps: 0,
                },
                "OK SUBMIT-DAG 5 granted=0,2",
            ),
            (
                Reply::Submitted {
                    id: 5,
                    nodes: None,
                    deps: 2,
                },
                "OK SUBMIT-DAG 5 queued deps=2",
            ),
            (
                Reply::Reserved {
                    id: 8,
                    start: 120.5,
                    nodes: &n13,
                },
                "OK RESERVE 8 start=120.5 1,3",
            ),
            (
                Reply::Status {
                    used: 4,
                    total: 16,
                    jobs: 1,
                },
                "OK STATUS nodes=4/16 jobs=1 util=25.0%",
            ),
            (Reply::Tables { entries: 9 }, "OK TABLES entries=9"),
            (Reply::Snapshot { seq: 2 }, "OK SNAPSHOT seq=2"),
            (
                Reply::Defragged {
                    id: 9,
                    moved: 3,
                    cost: 4.5,
                    nodes: &n0123,
                },
                "OK DEFRAG 9 moved=3 cost=4.5 0,1,2,3",
            ),
            (
                Reply::Defragged {
                    id: 9,
                    moved: 0,
                    cost: 0.0,
                    nodes: &n7,
                },
                "OK DEFRAG 9 moved=0 cost=0 7",
            ),
            (Reply::Bye, "OK BYE"),
        ];
        for (reply, wire) in cases {
            assert_eq!(reply.to_string(), wire);
        }
        assert_eq!(Reply::ShuttingDown.to_string(), "OK SHUTDOWN");
    }

    #[test]
    fn denials_carry_the_typed_reason() {
        let reject = Reject::with_hint(RejectReason::NoShape, true);
        let reply = Reply::Denied { id: 4, reject };
        assert!(reply.is_err());
        assert_eq!(
            reply.to_string(),
            format!("ERR denied job 4: {reject}"),
            "same bytes as the message the engine used to format"
        );
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
    fn verb_rows_are_in_cmd_order() {
        for (i, v) in VERBS.iter().enumerate() {
            assert_eq!(v.cmd.index(), i, "{} is out of place", v.name);
            assert_eq!(v.cmd.verb().name, v.name);
            // HELP prints the usage strings: each begins with its verb.
            let args = v.usage.strip_prefix(v.name);
            assert!(
                args.is_some_and(|a| a.is_empty() || a.starts_with(' ')),
                "usage `{}` must begin with the word `{}`",
                v.usage,
                v.name
            );
        }
    }

    #[test]
    fn parse_reads_every_verb() {
        let cases = [
            ("ALLOC 1 4", Request::Alloc { id: 1, size: 4 }),
            ("FREE 7", Request::Free { id: 7 }),
            (
                "SUBMIT-DAG 2 3",
                Request::SubmitDag {
                    id: 2,
                    size: 3,
                    parents: IdList::EMPTY,
                },
            ),
            (
                "SUBMIT-DAG 2 3 5,9",
                Request::SubmitDag {
                    id: 2,
                    size: 3,
                    parents: IdList::parse("5,9").unwrap(),
                },
            ),
            (
                "RESERVE 4 2 12.5",
                Request::Reserve {
                    id: 4,
                    size: 2,
                    start: 12.5,
                },
            ),
            ("DEFRAG 6 8", Request::Defrag { id: 6, size: 8 }),
            ("STATUS", Request::Status),
            ("TABLES", Request::Tables),
            ("SNAPSHOT", Request::Snapshot),
            ("STATS", Request::Stats),
            ("METRICS", Request::Metrics),
            ("HELP", Request::Help),
            ("QUIT", Request::Quit),
            ("SHUTDOWN", Request::Shutdown),
        ];
        assert_eq!(cases.len(), VERBS.len() + 1);
        for (line, req) in cases {
            assert_eq!(parse(line), Ok(req), "{line}");
            assert_eq!(req.to_string(), line);
        }
        assert_eq!(
            parse(" \tALLOC  1\t4  "),
            Ok(Request::Alloc { id: 1, size: 4 })
        );
    }

    #[test]
    fn parse_errors_name_the_verb_and_keep_the_old_messages() {
        assert_eq!(parse(""), Err(ParseError::Blank));
        assert_eq!(parse(" \t "), Err(ParseError::Blank));
        let unknown = parse("alloc 1 2").unwrap_err();
        assert_eq!(unknown, ParseError::UnknownVerb { line: "alloc 1 2" });
        assert_eq!(unknown.code(), ErrCode::UnknownVerb);
        assert_eq!(unknown.to_string(), "`alloc 1 2`");
        let arity = parse("STATUS now").unwrap_err();
        assert_eq!(arity.cmd(), Some(Cmd::Status));
        assert_eq!(arity.code(), ErrCode::BadRequest);
        assert_eq!(arity.to_string(), "`STATUS now`");
        for line in [
            "ALLOC 1 0",
            "ALLOC x 1",
            "FREE -1",
            "SUBMIT-DAG 1 2 3,",
            "RESERVE 1 2 NaN",
            "RESERVE 1 2 -1",
            "RESERVE 1 2 inf",
            "DEFRAG 1 0",
        ] {
            let e = parse(line).unwrap_err();
            let cmd = e.cmd().unwrap();
            assert_eq!(e, ParseError::BadArguments(cmd), "{line}");
            assert_eq!(e.to_string(), format!("bad {} arguments", cmd.verb().name));
        }
        assert!(matches!(
            parse("SUBMIT-DAG 1 2 3 4"),
            Err(ParseError::Arity {
                cmd: Cmd::SubmitDag,
                ..
            })
        ));
    }

    #[test]
    fn id_lists_compare_by_value() {
        let a = IdList::parse("3,5").unwrap();
        assert_eq!(a, IdList::parse("03,+5").unwrap());
        assert_ne!(a, IdList::parse("3").unwrap());
        assert_eq!(a.iter().collect::<Vec<_>>(), [3, 5]);
        assert_eq!(IdList::EMPTY.iter().count(), 0);
        assert!(IdList::parse("3,,5").is_none());
    }

    #[test]
    fn every_reply_starts_with_ok_or_err() {
        let n0 = ids(&[0]);
        let replies = [
            Reply::Grant { id: 1, nodes: &n0 },
            Reply::Freed {
                id: 1,
                started: Vec::new(),
            },
            Reply::Submitted {
                id: 1,
                nodes: None,
                deps: 1,
            },
            Reply::Reserved {
                id: 1,
                start: 0.0,
                nodes: &n0,
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
                nodes: &n0,
            },
            Reply::Stats { pairs: vec![] },
            Reply::Metrics {
                text: String::new(),
            },
            Reply::Help,
            Reply::Bye,
            Reply::ShuttingDown,
            Reply::Denied {
                id: 1,
                reject: Reject::new(RejectReason::NoLinks),
            },
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
