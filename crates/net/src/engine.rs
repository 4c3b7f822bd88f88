//! The single-writer command engine: one dispatcher for every transport.
//!
//! [`Engine`] owns the allocator, the (possibly durable) state, and the
//! per-verb observability, and turns one request line into one
//! [`Reply`]: [`protocol::parse`] reads the line into a typed
//! [`Request`], `Engine::apply` acts on it, and the reply borrows what
//! it reports (a grant's nodes from the live set) until the transport
//! encodes it. Both transports drive it:
//!
//! * the stdin/stdout session ([`serve_stream`]) feeds it one line at a
//!   time and flushes after each request,
//! * the TCP daemon ([`crate::server`]) feeds it batches of lines from
//!   many connections and flushes once per batch (group commit).
//!
//! In memory, a grant, a release, a status query and a denial do no heap
//! allocation once the engine is warm (`tests/request_allocs.rs`): spent
//! allocations go back to the allocator's pools through
//! [`Allocator::recycle`], and the event ring formats into the buffers it
//! evicts.
//!
//! The engine is deliberately **not** thread-safe: the allocator's search
//! is sequential and deterministic, and keeping a single writer is what
//! makes the daemon's behavior reproducible and the journal a total
//! order. Concurrency lives entirely in the transport (reader threads);
//! correctness lives here.
//!
//! # Durability contract
//!
//! The engine runs its [`PersistentState`] under [`SyncPolicy::Group`]:
//! `ALLOC`/`FREE` stage journal records in memory and their replies carry
//! [`Outcome::durable`] `= true`. Such a reply **must not** be released to
//! the client until a subsequent [`Engine::flush`] returns `Ok` — that
//! flush is the fsync that makes the acknowledgment true. A flush failure
//! is fail-stop: the transport reports `ERR journal` for every covered
//! reply and shuts the session down, so an `OK` can never outlive its
//! durability.

use crate::protocol::{self, ErrCode, IdList, ParseError, Reply, Request, VERBS};
use jigsaw_core::defrag::{self, plan_migrations, DefragConfig, MigrationPlan};
use jigsaw_core::{Allocation, Allocator, Decision, JobRequest};
use jigsaw_obs::{Counter, Histogram, Registry};
use jigsaw_persist::{PersistError, PersistentState, Released, SyncPolicy};
use jigsaw_routing::RoutingTables;
use jigsaw_topology::ids::{JobId, NodeId};
use jigsaw_topology::{FatTree, SystemState};
use std::io::{BufRead, Write};

/// Cost charged per node a `DEFRAG` migrates (checkpoint + restore +
/// requeue), in the unit `OK DEFRAG ... cost=` and `STATS` report.
const MIGRATION_COST_PER_NODE: f64 = 1.0;

/// What the transport should do after a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep the session/connection open.
    Continue,
    /// Close this client's session (TCP: this connection only).
    Close,
    /// Drain and stop the whole daemon.
    Shutdown,
}

/// One handled request: the reply, what to do next, and whether the reply
/// may only be released after a successful [`Engine::flush`].
#[derive(Debug)]
pub struct Outcome<'a> {
    /// The reply to send; it borrows the engine until it is encoded.
    pub reply: Reply<'a>,
    /// Session control.
    pub control: Control,
    /// `true` if this request staged journal records: its reply is
    /// covered by the *next* flush and must be held until then.
    pub durable: bool,
}

/// Per-verb request counters and latency histograms, indexed by
/// [`protocol::Cmd::index`]. Unknown verbs are not counted (an unbounded label set
/// would let a misbehaving client grow the registry without limit).
struct ServeObs {
    verbs: Vec<(Counter, Histogram)>,
    /// `ERR` replies of any code (including unknown verbs).
    errors: Counter,
}

impl ServeObs {
    fn new(registry: &Registry) -> ServeObs {
        ServeObs {
            errors: registry.counter(
                "jigsaw_serve_errors_total",
                "Requests answered with an ERR reply.",
            ),
            verbs: VERBS
                .iter()
                .map(|v| {
                    (
                        registry.counter_with(
                            "jigsaw_serve_requests_total",
                            "Requests handled, by verb.",
                            &[("verb", v.name)],
                        ),
                        registry.histogram_with(
                            "jigsaw_serve_request_latency_ns",
                            "Request handling latency including journaling (ns), by verb.",
                            &[("verb", v.name)],
                        ),
                    )
                })
                .collect(),
        }
    }

    fn total_requests(&self) -> u64 {
        self.verbs.iter().map(|(c, _)| c.get()).sum()
    }
}

/// What [`Engine::apply`] decided. Replies that report nodes are settled
/// only after every mutation and every metric update, by
/// [`Engine::reply`], so that they can borrow the nodes from the live
/// set instead of copying them.
enum Answer {
    /// A reply that borrows nothing.
    Ready(Reply<'static>),
    /// `OK GRANT`: job `id`'s live nodes.
    Grant(u32),
    /// `OK SUBMIT-DAG ... granted=`: job `id`'s live nodes.
    Started(u32),
    /// `OK RESERVE`: job `id`'s reserved nodes.
    Reserved { id: u32, start: f64 },
    /// `OK DEFRAG`: job `id`'s live nodes after `moved` migrations.
    Defragged { id: u32, moved: usize, cost: f64 },
}

impl From<Reply<'static>> for Answer {
    fn from(reply: Reply<'static>) -> Answer {
        Answer::Ready(reply)
    }
}

/// The single-writer dispatcher. See the module docs.
pub struct Engine {
    tree: FatTree,
    allocator: Box<dyn Allocator>,
    persist: PersistentState,
    registry: Registry,
    obs: ServeObs,
    /// Live jobs migrated by `DEFRAG` over the daemon's lifetime.
    migrations: u64,
    /// Accumulated migration cost over the daemon's lifetime.
    migration_cost: f64,
}

impl Engine {
    /// Build an engine over an allocator and a (possibly durable) state.
    /// Recovered allocations are re-adopted so schemes with internal
    /// bookkeeping (TA's per-leaf counters) catch up, and the persistent
    /// state is switched to [`SyncPolicy::Group`] — the transports decide
    /// when batches flush.
    pub fn new(
        tree: FatTree,
        mut allocator: Box<dyn Allocator>,
        mut persist: PersistentState,
        registry: &Registry,
    ) -> Engine {
        // Recovered allocations — live jobs *and* advance reservations —
        // were claimed into the state without the allocator watching;
        // replay them through `adopt` on a scratch state so
        // scheme-internal bookkeeping catches up. The scratch state is
        // discarded — the real one already has every claim.
        if !persist.live().is_empty() || !persist.reserved().is_empty() {
            let mut scratch = SystemState::new(tree);
            for alloc in persist.claimed_allocations() {
                allocator.adopt(&mut scratch, &alloc);
            }
        }
        persist.set_sync_policy(SyncPolicy::Group);
        Engine {
            tree,
            allocator,
            persist,
            registry: registry.clone(),
            obs: ServeObs::new(registry),
            migrations: 0,
            migration_cost: 0.0,
        }
    }

    /// The scheduling scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.allocator.name()
    }

    /// The topology being served.
    pub fn tree(&self) -> &FatTree {
        &self.tree
    }

    /// The engine's registry (shared with the transports' metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Read-only view of the persistent state (tests, status endpoints).
    pub fn persist(&self) -> &PersistentState {
        &self.persist
    }

    /// Handle one request line: [`protocol::parse`], then
    /// `Engine::apply`. `None` for blank lines (no reply owed).
    pub fn handle_line<'a>(&'a mut self, line: &'a str) -> Option<Outcome<'a>> {
        let parsed = protocol::parse(line);
        let cmd = match &parsed {
            Ok(req) => Some(req.cmd()),
            Err(ParseError::Blank) => return None,
            Err(e) => e.cmd(),
        };
        let t0 = cmd.and_then(|cmd| {
            let (requests, latency) = &self.obs.verbs[cmd.index()];
            requests.inc();
            latency.start()
        });
        let staged_before = self.persist.pending_records();
        let (answer, control) = match parsed {
            Ok(req) => self.apply(req),
            Err(e) => (
                Reply::err(e.code(), e.to_string()).into(),
                Control::Continue,
            ),
        };
        if matches!(&answer, Answer::Ready(reply) if reply.is_err()) {
            self.obs.errors.inc();
        }
        if let Some(cmd) = cmd {
            self.obs.verbs[cmd.index()].1.observe_since(t0);
        }
        let durable = self.persist.pending_records() > staged_before;
        let this: &'a Engine = self;
        Some(Outcome {
            reply: this.reply(answer),
            control,
            durable,
        })
    }

    /// Act on one parsed request.
    fn apply(&mut self, req: Request<'_>) -> (Answer, Control) {
        let answer = match req {
            Request::Alloc { id, size } => self.alloc(id, size),
            Request::Free { id } => self.free(id),
            Request::SubmitDag { id, size, parents } => self.submit_dag(id, size, parents),
            Request::Reserve { id, size, start } => self.reserve(id, size, start),
            Request::Defrag { id, size } => self.defrag(id, size),
            Request::Status => Reply::Status {
                used: self.persist.state().allocated_node_count(),
                total: self.tree.num_nodes(),
                jobs: self.persist.live().len(),
            }
            .into(),
            Request::Tables => {
                let allocs: Vec<Allocation> = self.persist.live_allocations();
                match RoutingTables::build(&self.tree, &allocs) {
                    Ok(tables) => Reply::Tables {
                        entries: tables.len(),
                    },
                    Err(e) => Reply::err(ErrCode::Internal, e.to_string()),
                }
                .into()
            }
            Request::Snapshot => match self.persist.snapshot() {
                Ok(seq) => Reply::Snapshot { seq },
                Err(PersistError::NotDurable) => {
                    Reply::err(ErrCode::NotDurable, "no journal configured")
                }
                Err(e) => Reply::err(ErrCode::Journal, e.to_string()),
            }
            .into(),
            Request::Stats => self.stats().into(),
            Request::Metrics => Reply::Metrics {
                text: self.registry.render_prometheus(),
            }
            .into(),
            Request::Help => Reply::Help.into(),
            Request::Quit => return (Reply::Bye.into(), Control::Close),
            Request::Shutdown => return (Reply::ShuttingDown.into(), Control::Shutdown),
        };
        (answer, Control::Continue)
    }

    /// Settle `answer` into the reply, borrowing reported nodes from the
    /// live and reserved sets.
    fn reply(&self, answer: Answer) -> Reply<'_> {
        let live = |id: u32| -> &[NodeId] {
            self.persist
                .live()
                .get(&id)
                .map_or(&[], |a| a.nodes.as_slice())
        };
        match answer {
            Answer::Ready(reply) => reply,
            Answer::Grant(id) => Reply::Grant {
                id,
                nodes: live(id),
            },
            Answer::Started(id) => Reply::Submitted {
                id,
                nodes: Some(live(id)),
                deps: 0,
            },
            Answer::Reserved { id, start } => Reply::Reserved {
                id,
                start,
                nodes: self
                    .persist
                    .reserved()
                    .get(&id)
                    .map_or(&[], |r| r.alloc.nodes.as_slice()),
            },
            Answer::Defragged { id, moved, cost } => Reply::Defragged {
                id,
                moved,
                cost,
                nodes: live(id),
            },
        }
    }

    /// `true` while `id` occupies any tracking map: live, queued, or
    /// reserved. A DAG parent counts as unfinished exactly while this
    /// holds.
    fn is_tracked(&self, id: u32) -> bool {
        self.persist.live().contains_key(&id)
            || self.persist.queued().contains_key(&id)
            || self.persist.reserved().contains_key(&id)
    }

    /// Move a fresh grant into the live set. On journal failure the claim
    /// is rolled back, so state and journal keep agreeing. (Unreachable
    /// under Group — staging does no I/O — kept for policy safety.)
    fn commit_grant(&mut self, alloc: Allocation) -> Result<(), Reply<'static>> {
        self.persist.commit_grant(alloc).map_err(|(e, alloc)| {
            self.allocator.release(self.persist.state_mut(), &alloc);
            Reply::err(ErrCode::Journal, e.to_string())
        })
    }

    fn alloc(&mut self, id: u32, size: u32) -> Answer {
        if self.is_tracked(id) {
            return Reply::err(ErrCode::Exists, format!("job {id} already tracked")).into();
        }
        let req = JobRequest::new(JobId(id), size);
        match self.allocator.try_admit(self.persist.state_mut(), &req) {
            Ok(alloc) => match self.commit_grant(alloc) {
                Ok(()) => Answer::Grant(id),
                Err(reply) => reply.into(),
            },
            Err(reject) => Reply::Denied { id, reject }.into(),
        }
    }

    /// `DEFRAG <id> <size>`: like `ALLOC`, but when Algorithm 1 rejects on
    /// fragmentation, compute a bounded [`MigrationPlan`] over the live
    /// jobs and apply it move by move — each move journaled write-ahead
    /// through [`PersistentState::commit_migrate`] before
    /// [`defrag::apply_move`] changes the state and re-audits it. Only
    /// live jobs migrate: advance reservations are planned around as
    /// pinned allocations and hold their exact placements.
    fn defrag(&mut self, id: u32, size: u32) -> Answer {
        if self.is_tracked(id) {
            return Reply::err(ErrCode::Exists, format!("job {id} already tracked")).into();
        }
        let req = JobRequest::new(JobId(id), size);
        match self.allocator.decide(self.persist.state_mut(), &req) {
            Decision::Admit(alloc) => match self.commit_grant(alloc) {
                Ok(()) => Answer::Defragged {
                    id,
                    moved: 0,
                    cost: 0.0,
                },
                Err(reply) => reply.into(),
            },
            Decision::Reconfigure(plan) => self.apply_migration_plan(id, plan),
            Decision::Reject(reject) if reject.is_fragmentation() => {
                let live = self.persist.live_allocations();
                let pinned: Vec<Allocation> = self
                    .persist
                    .reserved()
                    .values()
                    .map(|r| r.alloc.clone())
                    .collect();
                match plan_migrations(
                    &*self.allocator,
                    self.persist.state(),
                    &live,
                    &pinned,
                    &req,
                    reject,
                    &DefragConfig::default(),
                ) {
                    Some(plan) => self.apply_migration_plan(id, plan),
                    None => Reply::err(
                        ErrCode::Denied,
                        format!("job {id}: {reject} (no bounded migration plan)"),
                    )
                    .into(),
                }
            }
            Decision::Reject(reject) => Reply::Denied { id, reject }.into(),
        }
    }

    /// Execute a migration plan against the durable state: refuse it
    /// unless every move starts from a live job's current placement, then
    /// journal each move before applying it, and grant the triggering job
    /// on its proven placement.
    fn apply_migration_plan(&mut self, id: u32, plan: MigrationPlan) -> Answer {
        if let Some(m) = plan
            .moves
            .iter()
            .find(|m| self.persist.live().get(&m.job.0) != Some(&m.from))
        {
            return Reply::err(
                ErrCode::Denied,
                format!(
                    "job {id}: plan would move job {} which is not live",
                    m.job.0
                ),
            )
            .into();
        }
        let mut claimed = self.persist.claimed_allocations();
        for m in &plan.moves {
            if let Err(e) = self.persist.commit_migrate(&m.from, &m.to) {
                return Reply::err(ErrCode::Journal, e.to_string()).into();
            }
            if let Err(e) = defrag::apply_move(
                &mut *self.allocator,
                self.persist.state_mut(),
                &mut claimed,
                m,
            ) {
                return Reply::err(ErrCode::Internal, e.to_string()).into();
            }
        }
        self.allocator.adopt(self.persist.state_mut(), &plan.admits);
        let moved = plan.moves.len();
        let cost = plan.cost(MIGRATION_COST_PER_NODE);
        match self.commit_grant(plan.admits) {
            Ok(()) => {
                self.migrations += moved as u64;
                self.migration_cost += cost;
                Answer::Defragged { id, moved, cost }
            }
            Err(reply) => reply.into(),
        }
    }

    fn free(&mut self, id: u32) -> Answer {
        match self.persist.commit_release(JobId(id)) {
            Ok(Released::Held(alloc)) => {
                self.allocator.release(self.persist.state_mut(), &alloc);
                self.allocator.recycle(alloc);
            }
            Ok(Released::Withdrawn) => {} // a queued submission: nothing held
            Ok(Released::Unknown) => {
                return Reply::err(ErrCode::UnknownJob, format!("job {id} is not allocated"))
                    .into();
            }
            Err(e) => return Reply::err(ErrCode::Journal, e.to_string()).into(),
        }
        // The released job may have been some queued job's last unfinished
        // parent, and its nodes may fit a queued job that was waiting only
        // for resources.
        let started = self.drain_queued();
        Reply::Freed { id, started }.into()
    }

    fn submit_dag(&mut self, id: u32, size: u32, parents: IdList<'_>) -> Answer {
        if self.is_tracked(id) {
            return Reply::err(ErrCode::Exists, format!("job {id} already tracked")).into();
        }
        // A parent blocks while it is live, queued, or reserved; ids never
        // seen are treated as already finished, so replaying a prefix of a
        // workload is well-defined.
        let deps = parents.iter().filter(|&p| self.is_tracked(p)).count();
        if let Err(e) = self
            .persist
            .commit_submit(JobId(id), size, 10, parents.iter().collect())
        {
            return Reply::err(ErrCode::Journal, e.to_string()).into();
        }
        // Unblocked: start now if it fits, else wait in the queue for a
        // FREE to drain it.
        if deps == 0 && self.try_start_queued(id) {
            return Answer::Started(id);
        }
        Reply::Submitted {
            id,
            nodes: None,
            deps,
        }
        .into()
    }

    fn reserve(&mut self, id: u32, size: u32, start: f64) -> Answer {
        if self.is_tracked(id) {
            return Reply::err(ErrCode::Exists, format!("job {id} already tracked")).into();
        }
        match self
            .allocator
            .try_admit(self.persist.state_mut(), &JobRequest::new(JobId(id), size))
        {
            Ok(alloc) => match self.persist.commit_reserve(&alloc, start) {
                Ok(()) => Answer::Reserved { id, start },
                Err(e) => {
                    self.allocator.release(self.persist.state_mut(), &alloc);
                    Reply::err(ErrCode::Journal, e.to_string()).into()
                }
            },
            Err(reject) => Reply::Denied { id, reject }.into(),
        }
    }

    /// Grant queued job `id` if its allocation fits right now. The queue
    /// entry is consumed by [`PersistentState::commit_grant`]. `false`
    /// when the machine cannot host it yet (it stays queued) or on journal
    /// failure (the claim is rolled back).
    fn try_start_queued(&mut self, id: u32) -> bool {
        let Some(q) = self.persist.queued().get(&id) else {
            return false;
        };
        let req = JobRequest::with_bandwidth(q.job, q.size, q.bw_tenths);
        match self.allocator.try_admit(self.persist.state_mut(), &req) {
            Ok(alloc) => self.commit_grant(alloc).is_ok(),
            Err(_) => false,
        }
    }

    /// Start every queued job whose parents have all finished and whose
    /// allocation fits, in ascending job-id order. One pass suffices: a
    /// start only consumes capacity and turns the started job live (more
    /// blocking for its own children, never less for anyone else).
    fn drain_queued(&mut self) -> Vec<u32> {
        let candidates: Vec<u32> = self.persist.queued().keys().copied().collect();
        let mut started = Vec::new();
        for id in candidates {
            let blocked = match self.persist.queued().get(&id) {
                Some(q) => q.parents.iter().any(|&p| self.is_tracked(p)),
                None => continue,
            };
            if !blocked && self.try_start_queued(id) {
                started.push(id);
            }
        }
        started
    }

    fn stats(&self) -> Reply<'static> {
        let used = self.persist.state().allocated_node_count();
        let total = self.tree.num_nodes();
        Reply::Stats {
            pairs: vec![
                ("scheme".into(), self.allocator.name().into()),
                ("nodes".into(), format!("{used}/{total}")),
                ("jobs".into(), self.persist.live().len().to_string()),
                ("queued".into(), self.persist.queued().len().to_string()),
                ("reserved".into(), self.persist.reserved().len().to_string()),
                ("migrations".into(), self.migrations.to_string()),
                ("migration_cost".into(), self.migration_cost.to_string()),
                ("seq".into(), self.persist.last_seq().to_string()),
                ("durable".into(), self.persist.is_durable().to_string()),
                ("requests".into(), self.obs.total_requests().to_string()),
                ("errors".into(), self.obs.errors.get().to_string()),
                (
                    "events_dropped".into(),
                    self.registry.events_dropped().to_string(),
                ),
            ],
        }
    }

    /// Group-commit barrier: fsync every staged record (one `sync_all`
    /// for the whole batch), then auto-snapshot if the interval is due.
    /// Every [`Outcome::durable`] reply handled since the previous flush
    /// is releasable exactly when this returns `Ok`. A snapshot failure is
    /// survivable (the journal is intact; snapshots only bound recovery
    /// time) and is reported on stderr rather than failing the batch.
    #[must_use = "an ignored flush error releases acknowledgments that are not durable"]
    pub fn flush(&mut self) -> Result<usize, PersistError> {
        let n = self.persist.flush()?;
        if let Err(e) = self.persist.maybe_snapshot() {
            eprintln!("jigsaw-sched: warning: auto-snapshot failed: {e}");
        }
        Ok(n)
    }

    /// Graceful shutdown: flush the staged batch, then write a final
    /// snapshot so the next start recovers without replay. Ephemeral
    /// sessions just flush (a no-op).
    #[must_use = "an ignored shutdown error may leave acknowledged work unflushed"]
    pub fn shutdown(&mut self) -> Result<(), PersistError> {
        self.persist.flush()?;
        match self.persist.snapshot() {
            Ok(_) | Err(PersistError::NotDurable) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// The stdin/stdout protocol loop, generic over the streams for
/// testability — and the original `serve` transport, now routed through
/// the same [`Engine`] (and therefore the same group-commit path) as the
/// TCP daemon. Each request is flushed before its reply is written: batch
/// size 1, identical durability guarantee, one dispatcher.
pub fn serve_stream<R: BufRead, W: Write>(engine: &mut Engine, mut reader: R, mut out: W) -> i32 {
    let mut line = String::new();
    let mut reply = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        // The line without its `\n` or `\r\n`, as `BufRead::lines` yields it.
        let request = match line.strip_suffix('\n') {
            Some(text) => text.strip_suffix('\r').unwrap_or(text),
            None => &line,
        };
        reply.clear();
        let control = match engine.handle_line(request) {
            Some(outcome) => {
                // Writing into a `String` cannot fail.
                let _ = outcome.reply.write_to(&mut reply);
                reply.push('\n');
                outcome.control
            }
            None => continue,
        };
        if let Err(e) = engine.flush() {
            // Fail-stop: the staged record(s) behind this reply never
            // reached the disk, so the acknowledgment would be a lie.
            let _ = writeln!(out, "{}", Reply::err(ErrCode::Journal, e.to_string()));
            eprintln!("jigsaw-sched: fatal: journal flush failed: {e}");
            return 1;
        }
        if out.write_all(reply.as_bytes()).is_err() {
            break;
        }
        match control {
            Control::Continue => {}
            Control::Close => break,
            Control::Shutdown => {
                if let Err(e) = engine.shutdown() {
                    eprintln!("jigsaw-sched: warning: shutdown snapshot failed: {e}");
                }
                break;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::{ObservedAllocator, Scheme};
    use std::path::PathBuf;

    fn tree() -> FatTree {
        FatTree::maximal(4).unwrap()
    }

    /// Drive a session through [`serve_stream`] and return the registry
    /// plus every reply line (multi-line replies contribute multiple
    /// entries).
    fn drive_full(mut persist: PersistentState, script: &str) -> (Registry, Vec<String>) {
        let tree = tree();
        let registry = Registry::new();
        persist.attach_registry(&registry);
        let allocator = Box::new(ObservedAllocator::new(
            Scheme::Jigsaw.make(&tree),
            &registry,
        ));
        let mut engine = Engine::new(tree, allocator, persist, &registry);
        let mut out = Vec::new();
        let code = serve_stream(&mut engine, script.as_bytes(), &mut out);
        assert_eq!(code, 0);
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        (registry, lines)
    }

    fn drive_with(persist: PersistentState, script: &str) -> Vec<String> {
        drive_full(persist, script).1
    }

    fn drive(script: &str) -> Vec<String> {
        drive_with(PersistentState::ephemeral(tree()), script)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jigsaw-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn alloc_free_roundtrip() {
        let replies = drive("ALLOC 1 4\nSTATUS\nFREE 1\nSTATUS\nQUIT\n");
        assert!(replies[0].starts_with("OK GRANT 1 "));
        assert_eq!(replies[1], "OK STATUS nodes=4/16 jobs=1 util=25.0%");
        assert_eq!(replies[2], "OK FREE 1");
        assert_eq!(replies[3], "OK STATUS nodes=0/16 jobs=0 util=0.0%");
        assert_eq!(replies[4], "OK BYE");
    }

    #[test]
    fn deny_when_machine_full() {
        let replies = drive("ALLOC 1 16\nALLOC 2 1\nQUIT\n");
        assert!(replies[0].starts_with("OK GRANT 1 "));
        assert!(
            replies[1].starts_with("ERR denied job 2:"),
            "typed rejection: {}",
            replies[1]
        );
    }

    #[test]
    fn errors_reported_inline() {
        let replies = drive("ALLOC 1 4\nALLOC 1 4\nFREE 9\nBOGUS\nQUIT\n");
        assert!(replies[0].starts_with("OK GRANT"));
        assert_eq!(replies[1], "ERR exists job 1 already tracked");
        assert_eq!(replies[2], "ERR unknown-job job 9 is not allocated");
        assert!(replies[3].starts_with("ERR unknown-verb"));
    }

    #[test]
    fn known_verb_with_bad_arity_is_bad_request_not_unknown() {
        let replies = drive("ALLOC 1\nFREE\nQUIT\n");
        assert!(replies[0].starts_with("ERR bad-request"), "{}", replies[0]);
        assert!(replies[1].starts_with("ERR bad-request"), "{}", replies[1]);
    }

    #[test]
    fn zero_size_alloc_is_rejected() {
        let replies = drive("ALLOC 1 0\nSTATUS\nQUIT\n");
        assert_eq!(replies[0], "ERR bad-request bad ALLOC arguments");
        assert_eq!(replies[1], "OK STATUS nodes=0/16 jobs=0 util=0.0%");
    }

    #[test]
    fn help_is_a_single_line() {
        let replies = drive("HELP\nQUIT\n");
        assert!(replies[0].starts_with("OK HELP"));
        assert!(replies[0].contains("SNAPSHOT"));
        assert!(replies[0].contains("METRICS"));
        assert!(replies[0].contains("STATS"));
        assert!(replies[0].contains("SHUTDOWN"));
        assert_eq!(replies[1], "OK BYE");
    }

    #[test]
    fn snapshot_without_journal_is_an_error() {
        let replies = drive("SNAPSHOT\nQUIT\n");
        assert_eq!(replies[0], "ERR not-durable no journal configured");
    }

    #[test]
    fn shutdown_verb_ends_the_stream_session() {
        let replies = drive("ALLOC 1 4\nSHUTDOWN\nSTATUS\n");
        assert!(replies[0].starts_with("OK GRANT 1 "));
        assert_eq!(replies[1], "OK SHUTDOWN");
        assert_eq!(replies.len(), 2, "nothing is handled after SHUTDOWN");
    }

    #[test]
    fn tables_reflect_live_jobs() {
        let replies = drive("TABLES\nALLOC 1 8\nTABLES\nQUIT\n");
        assert_eq!(replies[0], "OK TABLES entries=0");
        assert!(replies[1].starts_with("OK GRANT"));
        let entries: u32 = replies[2]
            .strip_prefix("OK TABLES entries=")
            .unwrap()
            .parse()
            .unwrap();
        assert!(entries > 0);
    }

    #[test]
    fn grants_carry_exact_node_lists() {
        let replies = drive("ALLOC 7 5\nQUIT\n");
        let nodes: Vec<u32> = replies[0]
            .strip_prefix("OK GRANT 7 ")
            .unwrap()
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(nodes.len(), 5);
        let unique: std::collections::HashSet<_> = nodes.iter().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn stats_parse_as_key_value_pairs() {
        let replies = drive("ALLOC 1 4\nSTATS\nQUIT\n");
        let stats = &replies[1];
        assert!(stats.starts_with("OK STATS "), "{stats}");
        let pairs: std::collections::HashMap<&str, &str> = stats
            .strip_prefix("OK STATS ")
            .unwrap()
            .split_whitespace()
            .map(|kv| kv.split_once('=').expect("every field is k=v"))
            .collect();
        assert_eq!(pairs["scheme"], "Jigsaw");
        assert_eq!(pairs["nodes"], "4/16");
        assert_eq!(pairs["jobs"], "1");
        assert_eq!(pairs["durable"], "false");
        // The STATS request itself is counted.
        assert_eq!(pairs["requests"], "2");
        assert_eq!(pairs["events_dropped"], "0");
    }

    #[test]
    fn metrics_expose_prometheus_text_with_declared_line_count() {
        let replies = drive("ALLOC 1 4\nALLOC 2 99\nFREE 1\nMETRICS\nQUIT\n");
        let header_at = replies
            .iter()
            .position(|l| l.starts_with("OK METRICS "))
            .expect("METRICS header");
        let n: usize = replies[header_at]
            .strip_prefix("OK METRICS ")
            .unwrap()
            .parse()
            .unwrap();
        let body = &replies[header_at + 1..header_at + 1 + n];
        assert_eq!(body.len(), n);
        assert_eq!(replies[header_at + 1 + n], "OK BYE");
        let text = body.join("\n");
        // Per-scheme allocator metrics (latency, search effort, typed
        // rejections) and per-verb serve metrics are all present.
        assert!(text.contains("jigsaw_alloc_grants_total{scheme=\"Jigsaw\"} 1"));
        assert!(
            text.contains("jigsaw_alloc_rejects_total{scheme=\"Jigsaw\",reason=\"no_nodes\"} 1")
        );
        assert!(text.contains("jigsaw_alloc_latency_ns_bucket{scheme=\"Jigsaw\","));
        assert!(text.contains("jigsaw_alloc_search_steps_count{scheme=\"Jigsaw\"} 2"));
        assert!(text.contains("jigsaw_serve_requests_total{verb=\"ALLOC\"} 2"));
        assert!(text.contains("jigsaw_serve_requests_total{verb=\"FREE\"} 1"));
        assert!(text.contains("jigsaw_serve_request_latency_ns_count{verb=\"ALLOC\"} 2"));
    }

    #[test]
    fn durable_session_exposes_fsync_latency() {
        let dir = tmpdir("fsync");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let (registry, replies) = drive_full(ps, "ALLOC 1 4\nFREE 1\nQUIT\n");
        assert!(replies[0].starts_with("OK GRANT"));
        let text = registry.render_prometheus();
        // The stream transport flushes per request: batch size 1, one
        // fsync per committed op — exactly the old per-record behavior.
        assert!(
            text.contains("jigsaw_journal_fsync_latency_ns_count 2"),
            "one fsync per committed op: {text}"
        );
        assert!(
            text.contains("jigsaw_journal_batch_records_count 2"),
            "group-commit path records batch sizes: {text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_session_recovers_across_restarts() {
        let dir = tmpdir("recover");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let first = drive_with(
            ps,
            "ALLOC 1 4\nALLOC 2 6\nFREE 1\nALLOC 3 2\nSTATUS\nQUIT\n",
        );
        let status = first[4].clone();
        assert!(status.contains("jobs=2"));

        // Same directory, fresh process: identical state, same grants live.
        let (ps, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.live_jobs, 2);
        let second = drive_with(ps, "STATUS\nFREE 2\nFREE 3\nSTATUS\nQUIT\n");
        assert_eq!(second[0], status);
        assert_eq!(second[1], "OK FREE 2");
        assert_eq!(second[2], "OK FREE 3");
        assert_eq!(second[3], "OK STATUS nodes=0/16 jobs=0 util=0.0%");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_verb_compacts_and_reports_seq() {
        let dir = tmpdir("snapverb");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let replies = drive_with(ps, "ALLOC 1 4\nALLOC 2 2\nSNAPSHOT\nQUIT\n");
        assert_eq!(replies[2], "OK SNAPSHOT seq=2");
        // Restart recovers from the snapshot, not a long replay.
        let (ps, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.snapshot_seq, Some(2));
        let replies = drive_with(ps, "STATUS\nQUIT\n");
        assert!(replies[0].contains("nodes=6/16 jobs=2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_dag_without_parents_starts_immediately() {
        let replies = drive("SUBMIT-DAG 1 4\nSTATUS\nQUIT\n");
        assert!(
            replies[0].starts_with("OK SUBMIT-DAG 1 granted="),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("nodes=4/16 jobs=1"), "{}", replies[1]);
    }

    #[test]
    fn submit_dag_waits_for_tracked_parents_then_starts_on_free() {
        let replies = drive("ALLOC 1 4\nSUBMIT-DAG 2 4 1\nSTATS\nFREE 1\nSTATUS\nQUIT\n");
        assert_eq!(replies[1], "OK SUBMIT-DAG 2 queued deps=1");
        assert!(replies[2].contains("queued=1"), "{}", replies[2]);
        // FREE 1 completes the only parent: job 2 starts in the same reply.
        assert_eq!(replies[3], "OK FREE 1 started=2");
        assert!(replies[4].contains("jobs=1"), "{}", replies[4]);
    }

    #[test]
    fn unknown_parents_count_as_already_finished() {
        let replies = drive("SUBMIT-DAG 5 2 900,901\nQUIT\n");
        assert!(
            replies[0].starts_with("OK SUBMIT-DAG 5 granted="),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn dag_chain_drains_transitively_as_parents_free() {
        // 1 -> 2 -> 3: freeing 1 starts 2 only (3 still waits on 2);
        // freeing 2 then starts 3.
        let replies =
            drive("ALLOC 1 4\nSUBMIT-DAG 2 4 1\nSUBMIT-DAG 3 4 2\nFREE 1\nFREE 2\nSTATUS\nQUIT\n");
        assert_eq!(replies[3], "OK FREE 1 started=2");
        assert_eq!(replies[4], "OK FREE 2 started=3");
        assert!(replies[5].contains("jobs=1"), "{}", replies[5]);
    }

    #[test]
    fn queued_job_blocked_by_capacity_starts_when_nodes_free() {
        // Machine full: a parentless SUBMIT-DAG queues on capacity alone.
        let replies = drive("ALLOC 1 16\nSUBMIT-DAG 2 8\nFREE 1\nQUIT\n");
        assert_eq!(replies[1], "OK SUBMIT-DAG 2 queued deps=0");
        assert_eq!(replies[2], "OK FREE 1 started=2");
    }

    #[test]
    fn free_withdraws_a_queued_submission() {
        let replies = drive("ALLOC 1 4\nSUBMIT-DAG 2 4 1\nFREE 2\nSTATS\nQUIT\n");
        assert_eq!(replies[2], "OK FREE 2");
        assert!(replies[3].contains("queued=0"), "{}", replies[3]);
    }

    #[test]
    fn withdrawing_a_parent_unblocks_its_children() {
        // Job 3 waits on queued parent 2; withdrawing 2 releases 3.
        let replies = drive("ALLOC 1 16\nSUBMIT-DAG 2 4\nSUBMIT-DAG 3 4 2\nFREE 2\nFREE 1\nQUIT\n");
        assert_eq!(replies[2], "OK SUBMIT-DAG 3 queued deps=1");
        assert_eq!(replies[3], "OK FREE 2"); // unblocked, but no capacity yet
        assert_eq!(replies[4], "OK FREE 1 started=3");
    }

    #[test]
    fn reserve_claims_nodes_immediately() {
        let replies = drive("RESERVE 7 4 120.5\nSTATS\nFREE 7\nSTATUS\nQUIT\n");
        assert!(
            replies[0].starts_with("OK RESERVE 7 start=120.5 "),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("reserved=1"), "{}", replies[1]);
        // STATUS counts only live jobs, but the nodes are held.
        assert_eq!(replies[2], "OK FREE 7");
        assert!(replies[3].contains("nodes=0/16"), "{}", replies[3]);
    }

    #[test]
    fn reservation_holds_nodes_against_alloc_traffic() {
        // 12 reserved + 16 requested > 16 nodes: the reservation wins.
        let replies = drive("RESERVE 7 12 50\nALLOC 1 16\nALLOC 2 4\nQUIT\n");
        assert!(replies[0].starts_with("OK RESERVE 7"), "{}", replies[0]);
        assert!(
            replies[1].starts_with("ERR denied job 1:"),
            "{}",
            replies[1]
        );
        assert!(replies[2].starts_with("OK GRANT 2 "), "{}", replies[2]);
    }

    #[test]
    fn reserve_rejects_bad_start_times() {
        let replies = drive("RESERVE 1 4 -5\nRESERVE 2 4 NaN\nRESERVE 3 0 10\nQUIT\n");
        for r in &replies[..3] {
            assert!(r.starts_with("ERR bad-request"), "{r}");
        }
    }

    #[test]
    fn duplicate_ids_rejected_across_all_tracking_maps() {
        let replies = drive(
            "ALLOC 1 16\nSUBMIT-DAG 2 4 1\nRESERVE 3 0 10\nSUBMIT-DAG 1 2\nSUBMIT-DAG 2 2\nALLOC 2 2\nRESERVE 2 2 5\nQUIT\n",
        );
        // live id, queued id (twice: SUBMIT-DAG/ALLOC/RESERVE) all collide.
        assert!(replies[3].starts_with("ERR exists"), "{}", replies[3]);
        assert!(replies[4].starts_with("ERR exists"), "{}", replies[4]);
        assert!(replies[5].starts_with("ERR exists"), "{}", replies[5]);
        assert!(replies[6].starts_with("ERR exists"), "{}", replies[6]);
    }

    #[test]
    fn queued_and_reserved_survive_restart() {
        let dir = tmpdir("dagrecover");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let first = drive_with(
            ps,
            "ALLOC 1 4\nSUBMIT-DAG 2 4 1\nRESERVE 7 6 300\nSTATS\nQUIT\n",
        );
        assert!(first[1].contains("queued deps=1"), "{}", first[1]);
        assert!(first[2].starts_with("OK RESERVE 7"), "{}", first[2]);

        // Fresh process over the same journal: the queue entry, the
        // reservation's node claim, and the DAG gate all survive.
        let (ps, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.live_jobs, 1);
        assert_eq!(report.queued_jobs, 1);
        assert_eq!(report.reserved_jobs, 1);
        let second = drive_with(ps, "STATS\nFREE 1\nSTATUS\nQUIT\n");
        assert!(
            second[0].contains("queued=1") && second[0].contains("reserved=1"),
            "{}",
            second[0]
        );
        assert_eq!(second[1], "OK FREE 1 started=2");
        assert!(second[2].contains("nodes=10/16 jobs=1"), "{}", second[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fragment the radix-4 machine over the wire: fill all 16 nodes with
    /// 1-node jobs, then free one per leaf — every leaf keeps one pinned
    /// node, so no whole leaf (or pod) is free despite 8 free nodes.
    fn fragment_script() -> String {
        let mut s = String::new();
        for id in 0..16 {
            s.push_str(&format!("ALLOC {id} 1\n"));
        }
        for id in (0..16).step_by(2) {
            s.push_str(&format!("FREE {id}\n"));
        }
        s
    }

    #[test]
    fn defrag_grants_without_moves_when_the_request_fits() {
        let replies = drive("DEFRAG 1 4\nSTATS\nQUIT\n");
        assert!(
            replies[0].starts_with("OK DEFRAG 1 moved=0 cost=0 "),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("migrations=0"), "{}", replies[1]);
        assert!(replies[1].contains("migration_cost=0"), "{}", replies[1]);
    }

    #[test]
    fn defrag_migrates_live_jobs_to_admit_a_blocked_request() {
        // 6 nodes needs a free pod plus a free leaf; the fragmented state
        // has at most 2 free nodes per pod, so ALLOC rejects...
        let script = format!(
            "{}ALLOC 90 6\nDEFRAG 100 6\nSTATS\nQUIT\n",
            fragment_script()
        );
        let replies = drive(&script);
        assert!(
            replies[24].starts_with("ERR denied job 90:"),
            "{}",
            replies[24]
        );
        // ...but DEFRAG moves pinned 1-node jobs and admits it.
        let defrag = &replies[25];
        assert!(defrag.starts_with("OK DEFRAG 100 moved="), "{defrag}");
        let moved: usize = defrag
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("moved="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(moved >= 1, "{defrag}");
        let nodes: Vec<u32> = defrag
            .rsplit(' ')
            .next()
            .unwrap()
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(nodes.len(), 6);
        let stats = &replies[26];
        assert!(stats.contains(&format!("migrations={moved}")), "{stats}");
        assert!(stats.contains("jobs=9"), "{stats}"); // 8 pins + job 100
    }

    /// The machine of [`fragment_script`] with the jobs in `pins` placed
    /// as advance reservations instead of live jobs: the odd ids stay
    /// claimed, so each leaf keeps one busy node either way.
    fn fragmented_with_reservations(pins: &[u32]) -> Engine {
        let tree = tree();
        let mut engine = Engine::new(
            tree,
            Scheme::Jigsaw.make(&tree),
            PersistentState::ephemeral(tree),
            &Registry::disabled(),
        );
        let mut script: Vec<String> = (0..16)
            .map(|id| {
                if pins.contains(&id) {
                    format!("RESERVE {id} 1 1000")
                } else {
                    format!("ALLOC {id} 1")
                }
            })
            .collect();
        script.extend((0..16).step_by(2).map(|id| format!("FREE {id}")));
        for line in &script {
            let reply = engine.handle_line(line).unwrap().reply.to_string();
            assert!(reply.starts_with("OK "), "{line}: {reply}");
        }
        engine
    }

    /// `DEFRAG` plans around reservations: it moves live jobs only and
    /// leaves every reservation on its placement.
    fn assert_defrag_keeps_reservations(pins: &[u32]) {
        let mut engine = fragmented_with_reservations(pins);
        let before = engine.persist().reserved().clone();
        let reply = engine
            .handle_line("DEFRAG 100 6")
            .unwrap()
            .reply
            .to_string();
        assert!(reply.starts_with("OK DEFRAG 100 moved=3 "), "{reply}");
        assert_eq!(engine.persist().reserved(), &before);
    }

    #[test]
    fn defrag_moves_live_jobs_around_one_reservation() {
        assert_defrag_keeps_reservations(&[1]);
    }

    #[test]
    fn defrag_moves_live_jobs_around_two_reservations() {
        assert_defrag_keeps_reservations(&[5, 7]);
    }

    #[test]
    fn defrag_reports_exists_and_denied_like_alloc() {
        let replies = drive("ALLOC 1 4\nDEFRAG 1 2\nDEFRAG 2 17\nDEFRAG 3 0\nQUIT\n");
        assert!(replies[1].starts_with("ERR exists"), "{}", replies[1]);
        assert!(
            replies[2].starts_with("ERR denied job 2:"),
            "{}",
            replies[2]
        );
        assert_eq!(replies[3], "ERR bad-request bad DEFRAG arguments");
    }

    #[test]
    fn defrag_migrations_are_journaled_and_replay_on_recovery() {
        let dir = tmpdir("defrag");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let script = format!("{}DEFRAG 100 6\nSTATUS\nQUIT\n", fragment_script());
        let replies = drive_with(ps, &script);
        assert!(
            replies[24].starts_with("OK DEFRAG 100 moved="),
            "{}",
            replies[24]
        );
        let status = replies[25].clone();

        // Fresh process over the same journal: every migration replays and
        // the recovered schedule matches what the daemon acknowledged.
        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert!(report.migrations_replayed >= 1, "{report:?}");
        assert_eq!(report.live_jobs, 9);
        let second = drive_with(ps2, "STATUS\nQUIT\n");
        assert_eq!(second[0], status);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_on_durable_session_writes_a_final_snapshot() {
        let dir = tmpdir("shutsnap");
        let (ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let replies = drive_with(ps, "ALLOC 1 4\nSHUTDOWN\n");
        assert_eq!(replies[1], "OK SHUTDOWN");
        let (_, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(
            report.snapshot_seq,
            Some(1),
            "graceful shutdown seals the journal with a snapshot"
        );
        assert_eq!(report.live_jobs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
