//! # jigsaw-persist — durability for the scheduler's allocation state
//!
//! The scheduler core (`jigsaw-core`) is a pure in-memory machine: a
//! [`SystemState`] plus the set of live [`Allocation`]s. This crate makes
//! that state survive crashes:
//!
//! * **Journal** ([`journal::Journal`]): every grant and release is
//!   appended to a write-ahead log with per-record length + CRC-32
//!   framing, fsynced before the operation is acknowledged. A torn tail
//!   left by `kill -9` is detected and discarded on reopen.
//! * **Snapshots** ([`snapshot::SnapshotStore`]): periodically the full
//!   state is written atomically to `snap-<seq>.json`, after which the
//!   journal is truncated (snapshot-then-truncate compaction). Recovery
//!   cost is bounded by the snapshot interval, not by history length.
//! * **Recovery** ([`PersistentState::open`] / [`recover`]): load the
//!   newest readable snapshot, replay the journal suffix (records with
//!   `seq <= snapshot.last_seq` are already covered and skipped — this is
//!   what makes a crash *between* snapshot write and journal truncation
//!   harmless), then cross-check the result with `jigsaw_core::audit`.
//!   Recovery is deterministic: same files in, same state out.
//!
//! Replay never uses the panicking claim path blindly: each grant is
//! validated against the rebuilt state first, and any impossibility —
//! double-booked node, unknown release, out-of-range id — surfaces as a
//! typed [`PersistError::ReplayConflict`] instead of a panic, so a corrupt
//! journal is a diagnosable error, not a crash loop.
//!
//! [`PersistentState`] is the one-stop handle an embedding daemon (the
//! `jigsaw-sched serve` REPL) uses: it owns the state, the live set, and
//! the journal, and also runs in a journal-less *ephemeral* mode so callers
//! need one code path for both durable and throwaway sessions.

#![forbid(unsafe_code)]

pub mod journal;
pub mod snapshot;

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use jigsaw_core::alloc::{claim_allocation, release_allocation};
use jigsaw_core::audit::{audit_system, AuditError};
use jigsaw_core::Allocation;
use jigsaw_obs::{EventKind, Histogram, Registry};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};
use serde::{Deserialize, Serialize};

pub use journal::{crc32, Event, Journal, Record, Scan};
pub use snapshot::{Snapshot, SnapshotStore};

/// File name of the write-ahead log inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Snapshot files kept after compaction (the newest plus one fallback).
pub const SNAPSHOTS_KEPT: usize = 2;

/// Default auto-snapshot interval (events between snapshots); see
/// [`PersistentState::set_snapshot_every`].
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Why persistence or recovery failed.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The snapshot on disk was built for a different topology than the
    /// one the caller is recovering into.
    TopologyMismatch {
        /// Parameters the caller expected.
        expected: String,
        /// Parameters found in the snapshot.
        found: String,
    },
    /// The journal demanded a transition the rebuilt state cannot take
    /// (double-booked resource, release of an unknown job, non-monotonic
    /// sequence numbers, out-of-range ids).
    ReplayConflict {
        /// Sequence number of the offending record.
        seq: u64,
        /// What went wrong.
        detail: String,
    },
    /// Replay finished but `jigsaw_core::audit` found the result corrupt.
    AuditFailed {
        /// Every finding.
        errors: Vec<AuditError>,
    },
    /// The operation needs a journal directory but the handle is ephemeral.
    NotDurable,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::TopologyMismatch { expected, found } => write!(
                f,
                "snapshot topology mismatch: recovering into {expected}, snapshot built for {found}"
            ),
            PersistError::ReplayConflict { seq, detail } => {
                write!(f, "journal replay conflict at seq {seq}: {detail}")
            }
            PersistError::AuditFailed { errors } => {
                write!(
                    f,
                    "recovered state failed audit with {} finding(s): ",
                    errors.len()
                )?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            PersistError::NotDurable => {
                write!(f, "no journal directory configured (ephemeral session)")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// A durably submitted DAG job that has not started: it holds no
/// resources and waits until every parent in `parents` has been released.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    /// The submitted job.
    pub job: JobId,
    /// Nodes it will request once eligible.
    pub size: u32,
    /// Bandwidth class it will request (tenths of a link).
    pub bw_tenths: u16,
    /// Job ids that must be released before this job can be granted.
    pub parents: Vec<u32>,
}

/// A durable advance reservation: `alloc` is claimed in the system state
/// and set aside for the job until `start` (and beyond, until released),
/// so no later grant can delay it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservedJob {
    /// The reserved resources (already claimed).
    pub alloc: Allocation,
    /// The promised start time (caller-defined clock).
    pub start: f64,
}

/// What [`PersistentState::commit_release`] found under a job id.
// Unboxed on purpose: it is destructured at once, and a box would cost a
// heap allocation on every `FREE`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
pub enum Released {
    /// A live or reserved job: its claimed allocation, for the caller to
    /// release through the allocator.
    Held(Allocation),
    /// A queued job was withdrawn: journaled, but nothing was held.
    Withdrawn,
    /// No live, reserved or queued job has this id: nothing journaled.
    Unknown,
}

/// What recovery found and did. One of these is returned by every
/// [`PersistentState::open`] so the embedding daemon can log it.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `last_seq` of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Snapshot files skipped as unreadable while falling back.
    pub corrupt_snapshots_skipped: usize,
    /// Journal records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Journal records skipped because the snapshot already covered them.
    pub records_skipped: usize,
    /// Bytes of torn/corrupt journal tail discarded.
    pub torn_bytes_discarded: u64,
    /// Live jobs after recovery.
    pub live_jobs: usize,
    /// Allocated nodes after recovery (live plus reserved).
    pub allocated_nodes: u32,
    /// Submitted-but-unstarted DAG jobs after recovery.
    pub queued_jobs: usize,
    /// Advance reservations holding resources after recovery.
    pub reserved_jobs: usize,
    /// Defragmentation moves replayed from the journal (a subset of
    /// `records_replayed`).
    pub migrations_replayed: usize,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered {} live job(s) / {} node(s)",
            self.live_jobs, self.allocated_nodes
        )?;
        match self.snapshot_seq {
            Some(seq) => write!(f, " from snapshot seq {seq}")?,
            None => write!(f, " from empty state")?,
        }
        write!(f, " + {} replayed record(s)", self.records_replayed)?;
        if self.records_skipped > 0 {
            write!(f, " ({} already in snapshot)", self.records_skipped)?;
        }
        if self.torn_bytes_discarded > 0 {
            write!(
                f,
                "; discarded {} byte(s) of torn tail",
                self.torn_bytes_discarded
            )?;
        }
        if self.queued_jobs > 0 || self.reserved_jobs > 0 {
            write!(
                f,
                "; {} queued, {} reserved",
                self.queued_jobs, self.reserved_jobs
            )?;
        }
        if self.migrations_replayed > 0 {
            write!(f, "; {} migration(s) replayed", self.migrations_replayed)?;
        }
        if self.corrupt_snapshots_skipped > 0 {
            write!(
                f,
                "; skipped {} corrupt snapshot(s)",
                self.corrupt_snapshots_skipped
            )?;
        }
        Ok(())
    }
}

/// Durability observability: the latency of journaled appends (the
/// write-ahead fsync is the dominant cost of every durable operation)
/// plus journal/snapshot events in the registry's event ring. Disabled by
/// default; [`PersistentState::attach_registry`] turns it on.
#[derive(Debug, Clone)]
pub struct PersistObs {
    registry: Registry,
    fsync_ns: Histogram,
    batch_records: Histogram,
}

impl PersistObs {
    /// Register the durability metrics in `registry`.
    pub fn new(registry: &Registry) -> PersistObs {
        PersistObs {
            registry: registry.clone(),
            fsync_ns: registry.histogram(
                "jigsaw_journal_fsync_latency_ns",
                "Latency of journaled appends, write + fsync (ns).",
            ),
            batch_records: registry.histogram(
                "jigsaw_journal_batch_records",
                "Records made durable per fsync (group-commit amortization).",
            ),
        }
    }

    /// Inert handles: every record is a no-op.
    pub fn disabled() -> PersistObs {
        PersistObs {
            registry: Registry::disabled(),
            fsync_ns: Histogram::disabled(),
            batch_records: Histogram::disabled(),
        }
    }

    /// The journal append (write + fsync) latency histogram.
    pub fn fsync_ns(&self) -> &Histogram {
        &self.fsync_ns
    }

    /// Records per fsync — 1 under [`SyncPolicy::PerRecord`], the batch
    /// size under [`SyncPolicy::Group`].
    pub fn batch_records(&self) -> &Histogram {
        &self.batch_records
    }
}

/// When the write-ahead journal reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Every committed record is fsynced before the commit returns — the
    /// original policy, one fsync per operation. Right for a
    /// single-client session where each request waits for its own commit.
    #[default]
    PerRecord,
    /// Commits are staged in memory and made durable in batches by an
    /// explicit [`PersistentState::flush`] — **group commit**. The caller
    /// (the serve command loop) must not acknowledge an operation until
    /// the flush covering it has succeeded; a crash before the flush
    /// loses only *unacknowledged* work. One fsync then covers every
    /// record staged since the previous flush.
    Group,
}

/// The scheduler's allocation state plus its durability machinery.
///
/// Owns the [`SystemState`] and the live allocation set, but is
/// deliberately allocator-agnostic: allocators may keep internal
/// bookkeeping (TA's per-leaf counters) that only their own
/// `allocate`/`release` methods maintain, so *state mutation stays with
/// the caller* and this type confines itself to journaling and live-set
/// tracking. The daemon's write path is:
///
/// 1. the allocator searches and claims against [`state_mut`]
///    (exactly as in a non-durable session),
/// 2. the grant is made durable with [`commit_grant`]; if the journal
///    append fails the caller rolls the claim back (via the allocator),
///    so state and journal never diverge,
/// 3. releases journal first through [`commit_release`], then the caller
///    releases the returned allocation through the allocator — the
///    write-ahead order, so a crash between the two replays the release.
///
/// [`state_mut`]: PersistentState::state_mut
/// [`commit_grant`]: PersistentState::commit_grant
/// [`commit_release`]: PersistentState::commit_release
#[derive(Debug)]
pub struct PersistentState {
    backend: Option<Durable>,
    state: SystemState,
    live: BTreeMap<u32, Allocation>,
    queued: BTreeMap<u32, QueuedJob>,
    reserved: BTreeMap<u32, ReservedJob>,
    /// Sequence number of the last event recorded (0 = none yet).
    last_seq: u64,
    events_since_snapshot: u64,
    snapshot_every: u64,
    sync_policy: SyncPolicy,
    /// Records staged but not yet fsynced (only under [`SyncPolicy::Group`]).
    pending: Vec<Record>,
    obs: PersistObs,
}

#[derive(Debug)]
struct Durable {
    journal: Journal,
    store: SnapshotStore,
}

impl PersistentState {
    /// Open (creating if needed) the journal directory `dir` and recover
    /// the state it describes for topology `tree`. A fresh directory
    /// recovers to the empty state.
    #[must_use = "an unchecked open discards the recovered state and its report"]
    pub fn open(
        dir: &Path,
        tree: FatTree,
    ) -> Result<(PersistentState, RecoveryReport), PersistError> {
        std::fs::create_dir_all(dir)?;
        let store = SnapshotStore::new(dir);
        let (snapshot, outcome) = store.load_latest()?;
        let (journal, scan) = Journal::open(&dir.join(JOURNAL_FILE))?;
        let rebuilt = rebuild(tree, snapshot, &scan, outcome.corrupt_skipped)?;
        let report = rebuilt.report;
        let me = PersistentState {
            backend: Some(Durable { journal, store }),
            state: rebuilt.state,
            live: rebuilt.live,
            queued: rebuilt.queued,
            reserved: rebuilt.reserved,
            last_seq: rebuilt.last_seq,
            events_since_snapshot: report.records_replayed as u64,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            sync_policy: SyncPolicy::PerRecord,
            pending: Vec::new(),
            obs: PersistObs::disabled(),
        };
        Ok((me, report))
    }

    /// A journal-less in-memory session: same API, nothing written.
    pub fn ephemeral(tree: FatTree) -> PersistentState {
        PersistentState {
            backend: None,
            state: SystemState::new(tree),
            live: BTreeMap::new(),
            queued: BTreeMap::new(),
            reserved: BTreeMap::new(),
            last_seq: 0,
            events_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            sync_policy: SyncPolicy::PerRecord,
            pending: Vec::new(),
            obs: PersistObs::disabled(),
        }
    }

    /// `true` if backed by a journal directory.
    pub fn is_durable(&self) -> bool {
        self.backend.is_some()
    }

    /// Record durability metrics (journal fsync latency, journal and
    /// snapshot events) into `registry` from now on.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.obs = PersistObs::new(registry);
    }

    /// The allocation bookkeeping (read-only).
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// The allocation bookkeeping, for allocator searches and claims.
    /// Every claim made here must be followed by [`commit_grant`] (or
    /// rolled back by the caller) before the next operation.
    ///
    /// [`commit_grant`]: PersistentState::commit_grant
    pub fn state_mut(&mut self) -> &mut SystemState {
        &mut self.state
    }

    /// The live allocations, keyed by job id.
    pub fn live(&self) -> &BTreeMap<u32, Allocation> {
        &self.live
    }

    /// The live allocations as an owned vector (ascending job id) — the
    /// shape `jigsaw_core::audit::audit_system` consumes.
    pub fn live_allocations(&self) -> Vec<Allocation> {
        self.live.values().cloned().collect()
    }

    /// Submitted-but-unstarted DAG jobs, keyed by job id.
    pub fn queued(&self) -> &BTreeMap<u32, QueuedJob> {
        &self.queued
    }

    /// Advance reservations holding claimed resources, keyed by job id.
    pub fn reserved(&self) -> &BTreeMap<u32, ReservedJob> {
        &self.reserved
    }

    /// Every allocation claimed into the state — live jobs plus advance
    /// reservations — in ascending job-id order. This is the set
    /// `jigsaw_core::audit::audit_system` must balance against.
    pub fn claimed_allocations(&self) -> Vec<Allocation> {
        let mut out: Vec<(u32, Allocation)> = self
            .live
            .iter()
            .map(|(&id, a)| (id, a.clone()))
            .chain(self.reserved.iter().map(|(&id, r)| (id, r.alloc.clone())))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, a)| a).collect()
    }

    /// Sequence number of the last recorded event.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Auto-snapshot after every `n` journaled events (0 disables;
    /// default [`DEFAULT_SNAPSHOT_EVERY`]).
    pub fn set_snapshot_every(&mut self, n: u64) {
        self.snapshot_every = n;
    }

    /// Switch the durability policy (see [`SyncPolicy`]). Switching from
    /// [`SyncPolicy::Group`] back to [`SyncPolicy::PerRecord`] with staged
    /// records is a caller bug; flush first.
    ///
    /// # Panics
    /// If records are staged and the new policy is [`SyncPolicy::PerRecord`].
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        assert!(
            self.pending.is_empty() || policy == SyncPolicy::Group,
            "cannot leave group-commit mode with {} staged record(s)",
            self.pending.len()
        );
        self.sync_policy = policy;
    }

    /// The active durability policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Records staged but not yet made durable (always 0 under
    /// [`SyncPolicy::PerRecord`] and in ephemeral sessions).
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Make a grant durable and track it as live, moving `alloc` into the
    /// live set (the journal record is built, from a clone, only when a
    /// journal is attached). The allocation must already be claimed into
    /// [`state_mut`]. On journal failure nothing is tracked and the
    /// allocation comes back with the error: the caller must roll the
    /// claim back (through the allocator that made it) before continuing.
    ///
    /// # Panics
    /// If `alloc.job` is already live (caller bug — the daemon checks
    /// before allocating).
    ///
    /// [`state_mut`]: PersistentState::state_mut
    #[must_use = "an ignored commit error means the grant is not durable and must not be acted on"]
    pub fn commit_grant(
        &mut self,
        alloc: Allocation,
    ) -> Result<(), (PersistError, Box<Allocation>)> {
        let job = alloc.job.0;
        assert!(!self.live.contains_key(&job), "job {job} granted twice");
        assert!(
            !self.reserved.contains_key(&job),
            "job {job} granted while reserved"
        );
        if let Err(e) = self.record(|| Event::Grant(alloc.clone()), Some(job)) {
            return Err((e, Box::new(alloc)));
        }
        // A grant consumes the job's queue entry, if it was submitted.
        self.queued.remove(&job);
        self.live.insert(job, alloc);
        Ok(())
    }

    /// Make a DAG submission durable and track it as queued: the job holds
    /// no resources yet and may only be granted (via [`commit_grant`])
    /// once its parents have been released. The parent list is stored
    /// verbatim — eligibility policy lives with the caller.
    ///
    /// # Panics
    /// If `job` is already live, queued, or reserved (caller bug — the
    /// daemon checks before committing).
    ///
    /// [`commit_grant`]: PersistentState::commit_grant
    #[must_use = "an ignored commit error means the submission is not durable"]
    pub fn commit_submit(
        &mut self,
        job: JobId,
        size: u32,
        bw_tenths: u16,
        parents: Vec<u32>,
    ) -> Result<(), PersistError> {
        assert!(
            !self.live.contains_key(&job.0)
                && !self.queued.contains_key(&job.0)
                && !self.reserved.contains_key(&job.0),
            "job {} submitted while already tracked",
            job.0
        );
        self.record(
            || Event::Submit {
                job,
                size,
                bw_tenths,
                parents: parents.clone(),
            },
            Some(job.0),
        )?;
        self.queued.insert(
            job.0,
            QueuedJob {
                job,
                size,
                bw_tenths,
                parents,
            },
        );
        Ok(())
    }

    /// Make an advance reservation durable. The allocation must already be
    /// claimed into [`state_mut`] (the resources are held from now on, so
    /// nothing granted later can delay the reserved start). On journal
    /// failure nothing is tracked and the caller must roll the claim back.
    ///
    /// # Panics
    /// If `alloc.job` is already live, queued, or reserved.
    ///
    /// [`state_mut`]: PersistentState::state_mut
    #[must_use = "an ignored commit error means the reservation is not durable"]
    pub fn commit_reserve(&mut self, alloc: &Allocation, start: f64) -> Result<(), PersistError> {
        assert!(
            !self.live.contains_key(&alloc.job.0)
                && !self.queued.contains_key(&alloc.job.0)
                && !self.reserved.contains_key(&alloc.job.0),
            "job {} reserved while already tracked",
            alloc.job.0
        );
        self.record(
            || Event::Reserve {
                alloc: alloc.clone(),
                start,
            },
            Some(alloc.job.0),
        )?;
        self.reserved.insert(
            alloc.job.0,
            ReservedJob {
                alloc: alloc.clone(),
                start,
            },
        );
        Ok(())
    }

    /// Make a defragmentation move durable and retarget the live entry:
    /// journal `Event::Migrate { from, to }` write-ahead, then swap the
    /// tracked allocation from `from` to `to`. **State mutation stays with
    /// the caller** (release `from`, claim `to` through the allocator),
    /// exactly as for grants and releases — a crash between the journal
    /// append and the state change replays the move on recovery.
    ///
    /// # Panics
    /// If `from` and `to` name different jobs, sizes, or bandwidth
    /// classes, or if the live entry for the job is not `from` (stale
    /// plan — the daemon re-plans instead of committing).
    #[must_use = "an ignored commit error means the migration is not durable and must not be applied"]
    pub fn commit_migrate(
        &mut self,
        from: &Allocation,
        to: &Allocation,
    ) -> Result<(), PersistError> {
        assert_eq!(from.job, to.job, "migration must keep the job id");
        assert_eq!(
            from.nodes.len(),
            to.nodes.len(),
            "migration must keep the job size"
        );
        assert_eq!(
            from.bw_tenths, to.bw_tenths,
            "migration must keep the bandwidth class"
        );
        assert_eq!(
            self.live.get(&from.job.0),
            Some(from),
            "job {} migrated from a placement that is not live (stale plan)",
            from.job.0
        );
        self.record(
            || Event::Migrate {
                from: from.clone(),
                to: to.clone(),
            },
            Some(from.job.0),
        )?;
        self.live.insert(to.job.0, to.clone());
        Ok(())
    }

    /// Journal (or stage, under [`SyncPolicy::Group`]) one event and bump
    /// the sequence counters. The shared tail of every commit path.
    /// `event` runs only when a journal is attached: an ephemeral session
    /// builds no records.
    fn record(
        &mut self,
        event: impl FnOnce() -> Event,
        job: Option<u32>,
    ) -> Result<(), PersistError> {
        if let Some(backend) = &mut self.backend {
            let record = Record {
                seq: self.last_seq + 1,
                event: event(),
            };
            match self.sync_policy {
                SyncPolicy::PerRecord => {
                    let t0 = self.obs.fsync_ns.start();
                    backend.journal.append(&record)?;
                    self.obs.fsync_ns.observe_since(t0);
                    self.obs.batch_records.observe(1);
                    self.obs.registry.event(
                        EventKind::JournalFsync,
                        job,
                        format_args!("seq={}", record.seq),
                    );
                }
                SyncPolicy::Group => self.pending.push(record),
            }
        }
        self.last_seq += 1;
        self.events_since_snapshot += 1;
        Ok(())
    }

    /// Make every staged record durable with **one** write and one fsync
    /// (group commit), returning how many records the flush covered
    /// (0 when nothing is staged — including every [`SyncPolicy::PerRecord`]
    /// and ephemeral session, where this is free to call unconditionally).
    ///
    /// On error the staged records stay staged and the on-disk suffix is
    /// indeterminate (whatever the kernel wrote before failing; recovery
    /// discards torn frames). The caller must treat a flush failure as
    /// fail-stop for the session: none of the covered operations may be
    /// acknowledged, and retrying the flush would risk duplicate frames —
    /// which recovery would then reject as a sequence conflict rather than
    /// silently double-apply.
    #[must_use = "an ignored flush error means none of the staged records are durable"]
    pub fn flush(&mut self) -> Result<usize, PersistError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let Some(backend) = &mut self.backend else {
            // Unreachable in practice: records are only staged when a
            // backend exists. Treat defensively rather than panic.
            self.pending.clear();
            return Ok(0);
        };
        let n = self.pending.len();
        let t0 = self.obs.fsync_ns.start();
        backend.journal.append_batch(&self.pending)?;
        self.obs.fsync_ns.observe_since(t0);
        self.obs.batch_records.observe(n as u64);
        let last = self.last_seq;
        self.obs.registry.event(
            EventKind::JournalFsync,
            None,
            format_args!("group commit n={n} through seq={last}"),
        );
        self.pending.clear();
        Ok(n)
    }

    /// Journal a release and stop tracking `job` (write-ahead: the
    /// journal entry lands *before* the maps change). A live or reserved
    /// job comes back [`Released::Held`] with its claimed allocation, for
    /// the caller to release through the allocator; a queued job is
    /// [`Released::Withdrawn`]; an id in none of the three maps is
    /// [`Released::Unknown`] and journals nothing.
    #[must_use = "an ignored commit error means the release is not durable"]
    pub fn commit_release(&mut self, job: JobId) -> Result<Released, PersistError> {
        let id = job.0;
        if self.live.contains_key(&id) {
            self.record(|| Event::Release(job), Some(id))?;
            return Ok(self
                .live
                .remove(&id)
                .map_or(Released::Unknown, Released::Held));
        }
        if self.reserved.contains_key(&id) {
            self.record(|| Event::Release(job), Some(id))?;
            let held = self.reserved.remove(&id).map(|r| r.alloc);
            return Ok(held.map_or(Released::Unknown, Released::Held));
        }
        if self.queued.contains_key(&id) {
            self.record(|| Event::Release(job), Some(id))?;
            self.queued.remove(&id);
            return Ok(Released::Withdrawn);
        }
        Ok(Released::Unknown)
    }

    /// Write a full snapshot now, prune old ones, truncate the journal,
    /// and append a [`Event::Snapshot`] marker. Returns the sequence
    /// number the snapshot covers. Errors with [`PersistError::NotDurable`]
    /// on an ephemeral session.
    #[must_use = "an ignored snapshot error leaves recovery bounded by the full journal"]
    pub fn snapshot(&mut self) -> Result<u64, PersistError> {
        // Group-commit mode: staged records must land before the snapshot
        // covering their sequence numbers claims to; a snapshot must never
        // cover operations a crash could still lose.
        self.flush()?;
        let covered = self.last_seq;
        let snap = Snapshot {
            last_seq: covered,
            state: self.state.clone(),
            live: self.live_allocations(),
            queued: self.queued.values().cloned().collect(),
            reserved: self.reserved.values().cloned().collect(),
        };
        let Some(backend) = &mut self.backend else {
            return Err(PersistError::NotDurable);
        };
        backend.store.save(&snap)?;
        backend.store.prune(SNAPSHOTS_KEPT)?;
        // A crash in the window between `save` and `truncate` is safe:
        // recovery skips journal records with seq <= covered.
        backend.journal.truncate()?;
        let marker = Record {
            seq: self.last_seq + 1,
            event: Event::Snapshot { last_seq: covered },
        };
        backend.journal.append(&marker)?;
        self.last_seq += 1;
        self.events_since_snapshot = 0;
        self.obs.registry.event(
            EventKind::Snapshot,
            None,
            format_args!("covered_seq={covered}"),
        );
        Ok(covered)
    }

    /// Snapshot if the auto-snapshot threshold has been reached. The
    /// daemon calls this after each committed operation; a failure here
    /// is survivable (the journal is intact — snapshots only bound
    /// recovery time), so callers typically log and continue.
    #[must_use = "an ignored snapshot error leaves recovery bounded by the full journal"]
    pub fn maybe_snapshot(&mut self) -> Result<Option<u64>, PersistError> {
        if self.backend.is_some()
            && self.snapshot_every > 0
            && self.events_since_snapshot >= self.snapshot_every
        {
            return self.snapshot().map(Some);
        }
        Ok(None)
    }
}

/// Deterministic read-only recovery: load the newest snapshot under `dir`,
/// replay the journal suffix, audit, and return the state plus every
/// *claimed* allocation — live jobs and advance reservations, the set that
/// balances against the state under `jigsaw_core::audit`. Unlike
/// [`PersistentState::open`] this never writes (the torn tail, if any, is
/// ignored rather than truncated), so it is safe to point at a directory
/// another process is still appending to.
#[must_use = "an unchecked recovery discards the rebuilt state and its report"]
pub fn recover(
    dir: &Path,
    tree: FatTree,
) -> Result<(SystemState, Vec<Allocation>, RecoveryReport), PersistError> {
    let store = SnapshotStore::new(dir);
    let (snapshot, outcome) = store.load_latest()?;
    let scan = Journal::scan(&dir.join(JOURNAL_FILE))?;
    let rebuilt = rebuild(tree, snapshot, &scan, outcome.corrupt_skipped)?;
    let mut allocs: Vec<(u32, Allocation)> = rebuilt
        .live
        .into_iter()
        .chain(rebuilt.reserved.into_iter().map(|(id, r)| (id, r.alloc)))
        .collect();
    allocs.sort_by_key(|(id, _)| *id);
    Ok((
        rebuilt.state,
        allocs.into_iter().map(|(_, a)| a).collect(),
        rebuilt.report,
    ))
}

/// Everything [`rebuild`] reconstructs from disk.
struct Rebuilt {
    state: SystemState,
    live: BTreeMap<u32, Allocation>,
    queued: BTreeMap<u32, QueuedJob>,
    reserved: BTreeMap<u32, ReservedJob>,
    last_seq: u64,
    report: RecoveryReport,
}

/// Shared recovery core: snapshot base + journal replay + audit.
fn rebuild(
    tree: FatTree,
    snapshot: Option<Snapshot>,
    scan: &Scan,
    corrupt_snapshots_skipped: usize,
) -> Result<Rebuilt, PersistError> {
    let snapshot_seq = snapshot.as_ref().map(|s| s.last_seq);
    let (mut state, mut live, mut queued, mut reserved, base_seq) = match snapshot {
        Some(snap) => {
            if snap.state.tree() != &tree {
                return Err(PersistError::TopologyMismatch {
                    expected: format!("{:?}", tree.params()),
                    found: format!("{:?}", snap.state.tree().params()),
                });
            }
            let live: BTreeMap<u32, Allocation> =
                snap.live.into_iter().map(|a| (a.job.0, a)).collect();
            let queued: BTreeMap<u32, QueuedJob> =
                snap.queued.into_iter().map(|q| (q.job.0, q)).collect();
            let reserved: BTreeMap<u32, ReservedJob> = snap
                .reserved
                .into_iter()
                .map(|r| (r.alloc.job.0, r))
                .collect();
            (snap.state, live, queued, reserved, snap.last_seq)
        }
        None => (
            SystemState::new(tree),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            0,
        ),
    };

    let mut last_seq = base_seq;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut migrations = 0usize;
    for record in &scan.records {
        if record.seq <= base_seq {
            skipped += 1;
            continue;
        }
        if record.seq <= last_seq {
            return Err(PersistError::ReplayConflict {
                seq: record.seq,
                detail: format!("sequence number not monotonic (last was {last_seq})"),
            });
        }
        last_seq = record.seq;
        match &record.event {
            Event::Grant(alloc) => {
                if live.contains_key(&alloc.job.0) || reserved.contains_key(&alloc.job.0) {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!(
                            "job {} granted while already holding resources",
                            alloc.job.0
                        ),
                    });
                }
                if let Some(detail) = grant_conflict(&state, alloc) {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail,
                    });
                }
                claim_allocation(&mut state, alloc);
                queued.remove(&alloc.job.0);
                live.insert(alloc.job.0, alloc.clone());
            }
            Event::Submit {
                job,
                size,
                bw_tenths,
                parents,
            } => {
                if live.contains_key(&job.0)
                    || queued.contains_key(&job.0)
                    || reserved.contains_key(&job.0)
                {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!("job {} submitted while already tracked", job.0),
                    });
                }
                queued.insert(
                    job.0,
                    QueuedJob {
                        job: *job,
                        size: *size,
                        bw_tenths: *bw_tenths,
                        parents: parents.clone(),
                    },
                );
            }
            Event::Reserve { alloc, start } => {
                if live.contains_key(&alloc.job.0)
                    || queued.contains_key(&alloc.job.0)
                    || reserved.contains_key(&alloc.job.0)
                {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!("job {} reserved while already tracked", alloc.job.0),
                    });
                }
                if let Some(detail) = grant_conflict(&state, alloc) {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail,
                    });
                }
                claim_allocation(&mut state, alloc);
                reserved.insert(
                    alloc.job.0,
                    ReservedJob {
                        alloc: alloc.clone(),
                        start: *start,
                    },
                );
            }
            Event::Release(job) => {
                if let Some(alloc) = live.remove(&job.0) {
                    release_allocation(&mut state, &alloc);
                } else if let Some(r) = reserved.remove(&job.0) {
                    release_allocation(&mut state, &r.alloc);
                } else if queued.remove(&job.0).is_none() {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!("release of job {} which is not tracked", job.0),
                    });
                }
            }
            Event::Migrate { from, to } => {
                if live.get(&from.job.0) != Some(from) {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!(
                            "migration of job {} from a placement that is not live",
                            from.job.0
                        ),
                    });
                }
                if from.job != to.job
                    || from.nodes.len() != to.nodes.len()
                    || from.bw_tenths != to.bw_tenths
                {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail: format!(
                            "migration of job {} changes its identity, size, or bandwidth",
                            from.job.0
                        ),
                    });
                }
                release_allocation(&mut state, from);
                if let Some(detail) = grant_conflict(&state, to) {
                    return Err(PersistError::ReplayConflict {
                        seq: record.seq,
                        detail,
                    });
                }
                claim_allocation(&mut state, to);
                live.insert(to.job.0, to.clone());
                migrations += 1;
            }
            Event::Snapshot { .. } => {}
        }
        replayed += 1;
    }

    let claimed: Vec<Allocation> = live
        .iter()
        .map(|(&id, a)| (id, a.clone()))
        .chain(reserved.iter().map(|(&id, r)| (id, r.alloc.clone())))
        .collect::<std::collections::BTreeMap<u32, Allocation>>()
        .into_values()
        .collect();
    let errors = audit_system(&state, &claimed);
    if !errors.is_empty() {
        return Err(PersistError::AuditFailed { errors });
    }

    let report = RecoveryReport {
        snapshot_seq,
        corrupt_snapshots_skipped,
        records_replayed: replayed,
        records_skipped: skipped,
        torn_bytes_discarded: scan.file_len - scan.valid_len,
        live_jobs: live.len(),
        allocated_nodes: state.allocated_node_count(),
        queued_jobs: queued.len(),
        reserved_jobs: reserved.len(),
        migrations_replayed: migrations,
    };
    Ok(Rebuilt {
        state,
        live,
        queued,
        reserved,
        last_seq,
        report,
    })
}

/// Why `alloc` cannot be claimed into `state`, or `None` if it can. This
/// is the non-panicking twin of `jigsaw_core::claim_allocation`'s
/// assertions, used so journal corruption surfaces as a typed error.
fn grant_conflict(state: &SystemState, alloc: &Allocation) -> Option<String> {
    fn has_dup<T: Ord + Copy>(ids: &[T]) -> bool {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }
    let tree = state.tree();
    if has_dup(&alloc.nodes) || has_dup(&alloc.leaf_links) || has_dup(&alloc.spine_links) {
        return Some(format!(
            "job {}: duplicate resource ids in grant",
            alloc.job.0
        ));
    }
    for &n in &alloc.nodes {
        if n.0 >= tree.num_nodes() {
            return Some(format!("node {} out of range", n.0));
        }
        if !state.is_node_free(n) {
            return Some(format!("node {} is not free", n.0));
        }
    }
    for &l in &alloc.leaf_links {
        if l.0 >= tree.num_leaf_links() {
            return Some(format!("leaf link {} out of range", l.0));
        }
    }
    for &l in &alloc.spine_links {
        if l.0 >= tree.num_spine_links() {
            return Some(format!("spine link {} out of range", l.0));
        }
    }
    if alloc.bw_tenths == 0 {
        for &l in &alloc.leaf_links {
            if state.leaf_link_owner(l).is_some() {
                return Some(format!("leaf link {} already owned", l.0));
            }
        }
        for &l in &alloc.spine_links {
            if state.spine_link_owner(l).is_some() {
                return Some(format!("spine link {} already owned", l.0));
            }
        }
    } else {
        for &l in &alloc.leaf_links {
            if state.leaf_link_bw_spare(l) < alloc.bw_tenths {
                return Some(format!("leaf link {} lacks spare bandwidth", l.0));
            }
        }
        for &l in &alloc.spine_links {
            if state.spine_link_bw_spare(l) < alloc.bw_tenths {
                return Some(format!("spine link {} lacks spare bandwidth", l.0));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::allocator::Allocator;
    use jigsaw_core::{JigsawAllocator, JobRequest};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jigsaw-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tree() -> FatTree {
        FatTree::maximal(4).unwrap()
    }

    /// Allocate `size` nodes for `job` through the real allocator and
    /// commit the grant.
    fn grant(ps: &mut PersistentState, alloc8r: &mut JigsawAllocator, job: u32, size: u32) {
        let a = alloc8r
            .try_admit(ps.state_mut(), &JobRequest::new(JobId(job), size))
            .expect("allocation must fit");
        ps.commit_grant(a).unwrap();
    }

    /// Journal a release and apply it to the state, as the daemon does.
    fn release(ps: &mut PersistentState, job: u32) {
        let Released::Held(a) = ps.commit_release(JobId(job)).unwrap() else {
            panic!("job {job} must be live");
        };
        release_allocation(ps.state_mut(), &a);
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let (ps, report) = PersistentState::open(&dir, tree()).unwrap();
        assert!(ps.is_durable());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(ps.state().allocated_node_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_and_recover_roundtrip() {
        let dir = tmpdir("crash");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        grant(&mut ps, &mut a, 2, 2);
        release(&mut ps, 1);
        grant(&mut ps, &mut a, 3, 3);
        let want_state = ps.state().clone();
        let want_live = ps.live().clone();
        drop(ps); // "crash": no snapshot, no clean shutdown

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want_state);
        assert_eq!(ps2.live(), &want_live);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.live_jobs, 2);
        assert!(audit_system(ps2.state(), &ps2.live_allocations()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_the_journal() {
        let dir = tmpdir("compact");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        for job in 1..=4 {
            grant(&mut ps, &mut a, job, 2);
        }
        let before = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        let covered = ps.snapshot().unwrap();
        assert_eq!(covered, 4);
        let after = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(
            after < before,
            "journal should shrink ({before} -> {after})"
        );
        let want = ps.state().clone();
        drop(ps);

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want);
        assert_eq!(report.snapshot_seq, Some(4));
        // Only the snapshot marker remains in the journal.
        assert_eq!(report.records_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_harmless() {
        let dir = tmpdir("window");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        grant(&mut ps, &mut a, 2, 2);
        // Write the snapshot by hand, leaving the journal un-truncated —
        // exactly the state after a crash inside `snapshot()`.
        let store = SnapshotStore::new(&dir);
        store
            .save(&Snapshot {
                last_seq: ps.last_seq(),
                state: ps.state().clone(),
                live: ps.live_allocations(),
                queued: Vec::new(),
                reserved: Vec::new(),
            })
            .unwrap();
        let want = ps.state().clone();
        drop(ps);

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want);
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.records_skipped, 2, "journal suffix already covered");
        assert_eq!(report.records_replayed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        use std::io::Write;
        let dir = tmpdir("torn");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        let want = ps.state().clone();
        drop(ps);
        // Crash mid-append: garbage half-frame at the tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xab]).unwrap();
        drop(f);

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want);
        assert_eq!(report.torn_bytes_discarded, 5);
        assert_eq!(report.records_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_conflict_is_a_typed_error() {
        let dir = tmpdir("conflict");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        drop(ps);
        // Append a duplicate of the same grant straight to the journal:
        // same nodes, different job — a double-booking on replay.
        let scan = Journal::scan(&dir.join(JOURNAL_FILE)).unwrap();
        let Event::Grant(orig) = &scan.records[0].event else {
            panic!("expected grant")
        };
        let mut dup = orig.clone();
        dup.job = JobId(99);
        let (mut j, _) = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        j.append(&Record {
            seq: 2,
            event: Event::Grant(dup),
        })
        .unwrap();
        drop(j);

        match PersistentState::open(&dir, tree()) {
            Err(PersistError::ReplayConflict { seq: 2, .. }) => {}
            other => panic!("expected ReplayConflict at seq 2, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audit_failure_is_a_typed_error() {
        let dir = tmpdir("audit");
        // A snapshot whose state claims nodes no live allocation owns.
        let mut state = SystemState::new(tree());
        state.claim_node(jigsaw_topology::ids::NodeId(0), JobId(7));
        SnapshotStore::new(&dir)
            .save(&Snapshot {
                last_seq: 1,
                state,
                live: Vec::new(),
                queued: Vec::new(),
                reserved: Vec::new(),
            })
            .unwrap();
        match PersistentState::open(&dir, tree()) {
            Err(PersistError::AuditFailed { errors }) => assert!(!errors.is_empty()),
            other => panic!("expected AuditFailed, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn topology_mismatch_is_refused() {
        let dir = tmpdir("topo");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 2);
        ps.snapshot().unwrap();
        drop(ps);
        match PersistentState::open(&dir, FatTree::maximal(8).unwrap()) {
            Err(PersistError::TopologyMismatch { .. }) => {}
            other => panic!("expected TopologyMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_fires_on_threshold() {
        let dir = tmpdir("auto");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.set_snapshot_every(4);
        let mut a = JigsawAllocator::new(&tree());
        for job in 1..=2 {
            grant(&mut ps, &mut a, job, 1);
            release(&mut ps, job);
            ps.maybe_snapshot().unwrap();
        }
        // 4 events -> snapshot happened: snap file exists, journal compacted.
        let store = SnapshotStore::new(&dir);
        let (snap, _) = store.load_latest().unwrap();
        assert_eq!(snap.unwrap().last_seq, 4);
        drop(ps);
        let (_, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.snapshot_seq, Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_defers_durability_until_flush() {
        let dir = tmpdir("group");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.set_sync_policy(SyncPolicy::Group);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        grant(&mut ps, &mut a, 2, 2);
        release(&mut ps, 1);
        assert_eq!(ps.pending_records(), 3);
        // Nothing on disk yet: a crash here loses only unacknowledged work.
        assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        assert_eq!(
            Journal::scan(&dir.join(JOURNAL_FILE))
                .unwrap()
                .records
                .len(),
            0
        );

        assert_eq!(ps.flush().unwrap(), 3);
        assert_eq!(ps.pending_records(), 0);
        assert_eq!(ps.flush().unwrap(), 0, "second flush is a no-op");
        let want_state = ps.state().clone();
        let want_live = ps.live().clone();
        drop(ps);

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want_state);
        assert_eq!(ps2.live(), &want_live);
        assert_eq!(report.records_replayed, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_flushes_one_fsync_per_batch() {
        let dir = tmpdir("groupobs");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let reg = jigsaw_obs::Registry::new();
        ps.attach_registry(&reg);
        ps.set_sync_policy(SyncPolicy::Group);
        let mut a = JigsawAllocator::new(&tree());
        for job in 1..=4 {
            grant(&mut ps, &mut a, job, 1);
        }
        assert_eq!(ps.flush().unwrap(), 4);
        // One fsync covering four records, visible in both histograms.
        assert_eq!(ps.obs.fsync_ns().count(), 1);
        assert_eq!(ps.obs.batch_records().count(), 1);
        assert_eq!(ps.obs.batch_records().sum(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_flushes_staged_records_first() {
        let dir = tmpdir("groupsnap");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.set_sync_policy(SyncPolicy::Group);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        grant(&mut ps, &mut a, 2, 2);
        let covered = ps.snapshot().unwrap();
        assert_eq!(covered, 2);
        assert_eq!(ps.pending_records(), 0);
        let want = ps.state().clone();
        drop(ps);
        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps2.state(), &want);
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.live_jobs, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_staged_records_are_lost_on_crash_as_designed() {
        let dir = tmpdir("groupcrash");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.set_sync_policy(SyncPolicy::Group);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        assert_eq!(ps.flush().unwrap(), 1);
        grant(&mut ps, &mut a, 2, 2); // staged, never flushed
        drop(ps); // crash

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        // Job 1 was covered by a flush (acknowledgeable); job 2 was not
        // (its reply would still be held back by the serve loop).
        assert_eq!(report.live_jobs, 1);
        assert!(ps2.live().contains_key(&1));
        assert!(!ps2.live().contains_key(&2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot leave group-commit mode")]
    fn leaving_group_mode_with_staged_records_is_a_bug() {
        let dir = tmpdir("groupleave");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.set_sync_policy(SyncPolicy::Group);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        ps.set_sync_policy(SyncPolicy::PerRecord);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ephemeral_mode_journals_nothing() {
        let mut ps = PersistentState::ephemeral(tree());
        assert!(!ps.is_durable());
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        assert_eq!(ps.live().len(), 1);
        assert!(matches!(ps.snapshot(), Err(PersistError::NotDurable)));
        release(&mut ps, 1);
        assert_eq!(ps.state().allocated_node_count(), 0);
    }

    #[test]
    fn attached_registry_records_fsyncs_and_snapshot_events() {
        let dir = tmpdir("obs");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let reg = jigsaw_obs::Registry::new();
        ps.attach_registry(&reg);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        release(&mut ps, 1);
        ps.snapshot().unwrap();

        // One fsync per committed operation (the snapshot marker append is
        // not timed — it is not on the request path).
        assert_eq!(ps.obs.fsync_ns().count(), 2);
        let text = reg.render_prometheus();
        assert!(text.contains("jigsaw_journal_fsync_latency_ns_count 2"));
        let kinds: Vec<_> = reg.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::JournalFsync,
                EventKind::JournalFsync,
                EventKind::Snapshot
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ephemeral_session_with_registry_records_no_fsyncs() {
        let mut ps = PersistentState::ephemeral(tree());
        let reg = jigsaw_obs::Registry::new();
        ps.attach_registry(&reg);
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        assert_eq!(ps.obs.fsync_ns().count(), 0, "nothing was synced");
    }

    #[test]
    fn release_of_unknown_job_is_none_and_unjournaled() {
        let dir = tmpdir("unknown");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(ps.commit_release(JobId(42)).unwrap(), Released::Unknown);
        assert_eq!(ps.last_seq(), 0);
        assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_survives_crash_and_grant_consumes_the_queue_entry() {
        let dir = tmpdir("submit");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        ps.commit_submit(JobId(2), 3, 10, vec![1]).unwrap();
        drop(ps); // crash

        let (mut ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.queued_jobs, 1);
        assert_eq!(ps2.queued()[&2].parents, vec![1]);
        assert_eq!(ps2.queued()[&2].size, 3);
        // Parent released, child granted: the queue entry is consumed.
        release(&mut ps2, 1);
        let mut a2 = JigsawAllocator::new(&tree());
        grant(&mut ps2, &mut a2, 2, 3);
        assert!(ps2.queued().is_empty());
        drop(ps2); // crash again

        let (ps3, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.queued_jobs, 0);
        assert_eq!(report.live_jobs, 1);
        assert!(ps3.live().contains_key(&2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reservation_survives_crash_with_resources_claimed() {
        let dir = tmpdir("reserve");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        let alloc = a
            .try_admit(ps.state_mut(), &JobRequest::new(JobId(5), 6))
            .unwrap();
        ps.commit_reserve(&alloc, 250.0).unwrap();
        let want = ps.state().clone();
        drop(ps); // crash

        let (mut ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.reserved_jobs, 1);
        assert_eq!(report.allocated_nodes, 6);
        assert_eq!(ps2.state(), &want);
        assert_eq!(ps2.reserved()[&5].start, 250.0);
        assert_eq!(ps2.claimed_allocations().len(), 1);
        assert!(audit_system(ps2.state(), &ps2.claimed_allocations()).is_empty());
        // Releasing the reservation hands back its allocation.
        let Released::Held(freed) = ps2.commit_release(JobId(5)).unwrap() else {
            panic!("job 5 is reserved");
        };
        release_allocation(ps2.state_mut(), &freed);
        assert_eq!(ps2.state().allocated_node_count(), 0);
        drop(ps2);

        let (_, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.reserved_jobs, 0);
        assert_eq!(report.allocated_nodes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_covers_queued_and_reserved() {
        let dir = tmpdir("snapv2");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        ps.commit_submit(JobId(9), 2, 10, vec![1, 3]).unwrap();
        let alloc = a
            .try_admit(ps.state_mut(), &JobRequest::new(JobId(4), 4))
            .unwrap();
        ps.commit_reserve(&alloc, 100.0).unwrap();
        ps.snapshot().unwrap();
        drop(ps);

        // The journal was truncated: everything must come from the snapshot.
        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.records_replayed, 1, "only the snapshot marker");
        assert_eq!(report.queued_jobs, 1);
        assert_eq!(report.reserved_jobs, 1);
        assert_eq!(ps2.queued()[&9].parents, vec![1, 3]);
        assert_eq!(ps2.reserved()[&4].alloc.nodes.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn withdrawing_a_queued_job_is_journaled() {
        let dir = tmpdir("withdraw");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.commit_submit(JobId(2), 3, 10, vec![1]).unwrap();
        assert_eq!(ps.commit_release(JobId(2)).unwrap(), Released::Withdrawn);
        assert!(ps.queued().is_empty());
        assert_eq!(ps.last_seq(), 2, "the withdrawal is a journaled event");
        drop(ps);
        let (_, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.queued_jobs, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_submit_on_replay_is_a_typed_conflict() {
        let dir = tmpdir("dupsubmit");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        ps.commit_submit(JobId(2), 3, 10, vec![]).unwrap();
        drop(ps);
        let (mut j, _) = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        j.append(&Record {
            seq: 2,
            event: Event::Submit {
                job: JobId(2),
                size: 3,
                bw_tenths: 10,
                parents: vec![],
            },
        })
        .unwrap();
        drop(j);
        match PersistentState::open(&dir, tree()) {
            Err(PersistError::ReplayConflict { seq: 2, .. }) => {}
            other => panic!("expected ReplayConflict at seq 2, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_survives_crash() {
        let dir = tmpdir("migrate");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 2);
        let from = ps.live()[&1].clone();
        // New placement found while the old one is still claimed, so the
        // two are disjoint; then journal the move and swap the state.
        let to = {
            let mut probe = JigsawAllocator::new(&tree());
            probe
                .try_admit(ps.state_mut(), &JobRequest::new(JobId(1), 2))
                .unwrap()
        };
        assert_ne!(from.nodes, to.nodes);
        ps.commit_migrate(&from, &to).unwrap();
        release_allocation(ps.state_mut(), &from);
        let want = ps.state().clone();
        drop(ps); // crash

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.migrations_replayed, 1);
        assert_eq!(ps2.state(), &want);
        assert_eq!(ps2.live()[&1].nodes, to.nodes);
        assert!(audit_system(ps2.state(), &ps2.live_allocations()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_migrate_journal_and_state_change_replays_the_move() {
        // Write-ahead order: the Migrate record lands before the state
        // mutates. A crash in that window must replay the move, not lose
        // it — the recovered state reflects `to`, not `from`.
        let dir = tmpdir("migrate-wal");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 2);
        let from = ps.live()[&1].clone();
        let to = {
            let mut probe = JigsawAllocator::new(&tree());
            probe
                .try_admit(ps.state_mut(), &JobRequest::new(JobId(1), 2))
                .unwrap()
        };
        ps.commit_migrate(&from, &to).unwrap();
        // Crash HERE: `from` never released, `to` claimed but the daemon
        // died before finishing the swap.
        drop(ps);

        let (ps2, report) = PersistentState::open(&dir, tree()).unwrap();
        assert_eq!(report.migrations_replayed, 1);
        assert_eq!(ps2.live()[&1].nodes, to.nodes);
        assert!(
            ps2.state().is_node_free(from.nodes[0]),
            "the vacated placement must be free after replay"
        );
        assert!(audit_system(ps2.state(), &ps2.live_allocations()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_migration_on_replay_is_a_typed_conflict() {
        let dir = tmpdir("migrate-stale");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 2);
        let live = ps.live()[&1].clone();
        drop(ps);
        // Hand-append a Migrate whose `from` is not the live placement.
        let mut bogus_from = live.clone();
        bogus_from.nodes.reverse();
        bogus_from.nodes[0] = jigsaw_topology::ids::NodeId(15);
        let (mut j, _) = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        j.append(&Record {
            seq: 2,
            event: Event::Migrate {
                from: bogus_from,
                to: live,
            },
        })
        .unwrap();
        drop(j);
        match PersistentState::open(&dir, tree()) {
            Err(PersistError::ReplayConflict { seq: 2, .. }) => {}
            other => panic!("expected ReplayConflict at seq 2, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "stale plan")]
    fn commit_migrate_refuses_a_stale_from() {
        let dir = tmpdir("migrate-refuse");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 2);
        let mut stale = ps.live()[&1].clone();
        stale.nodes.reverse();
        let to = stale.clone();
        let _ = ps.commit_migrate(&stale, &to);
    }

    #[test]
    fn read_only_recover_matches_open() {
        let dir = tmpdir("readonly");
        let (mut ps, _) = PersistentState::open(&dir, tree()).unwrap();
        let mut a = JigsawAllocator::new(&tree());
        grant(&mut ps, &mut a, 1, 4);
        grant(&mut ps, &mut a, 2, 2);
        let want = ps.state().clone();
        drop(ps);
        let (state, live, report) = recover(&dir, tree()).unwrap();
        assert_eq!(state, want);
        assert_eq!(live.len(), 2);
        assert_eq!(report.live_jobs, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
