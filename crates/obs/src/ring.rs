//! A bounded in-memory event ring for discrete scheduler happenings.
//!
//! Metrics aggregate; the ring keeps the last N individual events (job
//! lifecycle, backfill decisions, rejections, durability actions) so an
//! operator can answer "what just happened" without a log pipeline. When
//! full, the oldest events are dropped and counted — never blocking the
//! recording path.

use std::collections::VecDeque;
use std::fmt::{self, Write};

/// Default ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The kinds of discrete events the scheduler emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A job entered the system (trace arrival or serve `ALLOC`).
    JobArrival,
    /// A job's allocation was granted and it started.
    JobStart,
    /// A job completed and its allocation was released.
    JobComplete,
    /// A job was started out of order by EASY backfilling.
    Backfill,
    /// An allocation attempt was rejected (detail carries the typed reason).
    Rejection,
    /// An allocation attempt produced a migration plan instead of a grant
    /// or a reject (the `Reconfigure` decision; detail carries the plan
    /// size and cost).
    Reconfigure,
    /// A journaled migration was applied (one plan move).
    Migration,
    /// The write-ahead journal fsynced an append.
    JournalFsync,
    /// A snapshot was durably written.
    Snapshot,
}

impl EventKind {
    /// Stable snake_case name used in rendered output.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::JobArrival => "job_arrival",
            EventKind::JobStart => "job_start",
            EventKind::JobComplete => "job_complete",
            EventKind::Backfill => "backfill",
            EventKind::Rejection => "rejection",
            EventKind::Reconfigure => "reconfigure",
            EventKind::Migration => "migration",
            EventKind::JournalFsync => "journal_fsync",
            EventKind::Snapshot => "snapshot",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (1-based, never reused), so dropped
    /// prefixes are visible as a gap.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The job involved, when one is.
    pub job: Option<u32>,
    /// Free-form detail (reject reason, verb, byte counts, …).
    pub detail: String,
}

/// Bounded FIFO of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            capacity: capacity.max(1),
            next_seq: 1,
            dropped: 0,
            buf: VecDeque::new(),
        }
    }

    /// Append an event, evicting the oldest if full: `detail` is formatted
    /// into the evicted event's buffer, so a full ring records without
    /// allocating once its buffers have grown to the details they carry.
    /// Returns the sequence number assigned.
    pub fn push(&mut self, kind: EventKind, job: Option<u32>, detail: fmt::Arguments<'_>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut text = String::new();
        if self.buf.len() == self.capacity {
            if let Some(evicted) = self.buf.pop_front() {
                text = evicted.detail;
                text.clear();
            }
            self.dropped += 1;
        }
        // Formatting into a `String` fails only if a `Display` impl does.
        let _ = text.write_fmt(detail);
        self.buf.push_back(Event {
            seq,
            kind,
            job,
            detail: text,
        });
        seq
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u32 {
            r.push(EventKind::JobArrival, Some(i), format_args!("job {i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(r.events().next().unwrap().job, Some(2));
        let details: Vec<&str> = r.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["job 2", "job 3", "job 4"]);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::Rejection.as_str(), "rejection");
        assert_eq!(EventKind::JournalFsync.to_string(), "journal_fsync");
    }
}
