//! Allocator decorators the benchmark passes to the program through
//! `Simulation::allocator` and `Engine::new`.
//!
//! * [`Recorder`] wraps the root allocator in every run, traced or not.
//!   It fingerprints the decision sequence on the live machine, counts
//!   grants, and audits ownership; in traced runs a `Record` span covers
//!   that bookkeeping after each `decide`, so it is not charged to the
//!   program. Its clones are the inner allocator's own clones, so
//!   speculative calls run undecorated.
//! * [`Timed`] is added under the recorder in traced runs only. It records
//!   a span around every allocator call, on the root and on every clone
//!   (`clone_box`/`fresh_box` return timed clones), and on the root
//!   samples `SystemState::clone` of the live machine.

use crate::trace::{self, Name};
use jigsaw_core::{audit_system, Allocation, Allocator, Decision, JobRequest};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::SystemState;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// FNV-1a over a stream of integers: an order-sensitive fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn add_alloc(&mut self, tag: u64, alloc: &Allocation) {
        self.add(tag);
        self.add(u64::from(alloc.job.0));
        self.add(alloc.nodes.len() as u64);
        for n in &alloc.nodes {
            self.add(u64::from(n.0));
        }
    }
}

/// What the root allocator saw on the live machine.
#[derive(Debug, Default)]
pub struct RootLog {
    /// Every decision, release and adoption, in order.
    pub fingerprint: Fingerprint,
    pub decides: u64,
    pub admits: u64,
    /// Sum of `last_search_steps` after each decision.
    pub search_steps: u64,
    /// Ownership violations: failed `audit_system` checks, releases of
    /// jobs that hold nothing, allocations still held when the run ended.
    pub audit_errors: u64,
    live: HashMap<JobId, Allocation>,
}

/// Audit the whole machine every this many grants (and at the end).
const AUDIT_EVERY: u64 = 256;

/// Root-allocator decorator; publishes its [`RootLog`] when dropped, which
/// the simulator and the engine do when their run ends.
pub struct Recorder {
    inner: Box<dyn Allocator>,
    log: RootLog,
    out: Arc<Mutex<Option<RootLog>>>,
}

impl Recorder {
    pub fn new(inner: Box<dyn Allocator>) -> (Recorder, Arc<Mutex<Option<RootLog>>>) {
        let out = Arc::new(Mutex::new(None));
        let rec = Recorder {
            inner,
            log: RootLog::default(),
            out: Arc::clone(&out),
        };
        (rec, out)
    }

    /// Take the log a dropped recorder published.
    pub fn collect(out: &Mutex<Option<RootLog>>) -> RootLog {
        out.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("the run dropped its allocator")
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let mut log = std::mem::take(&mut self.log);
        log.audit_errors += log.live.len() as u64;
        log.live.clear();
        *self.out.lock().unwrap_or_else(PoisonError::into_inner) = Some(log);
    }
}

impl Allocator for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &mut SystemState, req: &JobRequest) -> Decision {
        let decision = self.inner.decide(state, req);
        let span = trace::begin(Name::Record);
        let log = &mut self.log;
        log.decides += 1;
        log.search_steps += self.inner.last_search_steps();
        match &decision {
            Decision::Admit(alloc) => {
                log.admits += 1;
                log.fingerprint.add_alloc(1, alloc);
                log.live.insert(alloc.job, alloc.clone());
                if log.admits.is_multiple_of(AUDIT_EVERY) {
                    let live: Vec<Allocation> = log.live.values().cloned().collect();
                    log.audit_errors += audit_system(state, &live).len() as u64;
                }
            }
            Decision::Reject(_) | Decision::Reconfigure(_) => {
                log.fingerprint.add(0);
                log.fingerprint.add(u64::from(req.id.0));
            }
        }
        trace::end(span, false);
        decision
    }

    fn release(&mut self, state: &mut SystemState, alloc: &Allocation) {
        self.inner.release(state, alloc);
        self.log.fingerprint.add(2);
        self.log.fingerprint.add(u64::from(alloc.job.0));
        if self.log.live.remove(&alloc.job).is_none() {
            self.log.audit_errors += 1;
        }
    }

    fn adopt(&mut self, state: &mut SystemState, alloc: &Allocation) {
        self.inner.adopt(state, alloc);
        self.log.fingerprint.add_alloc(3, alloc);
        self.log.live.insert(alloc.job, alloc.clone());
    }

    fn recycle(&mut self, alloc: Allocation) {
        self.inner.recycle(alloc);
    }

    fn last_search_steps(&self) -> u64 {
        self.inner.last_search_steps()
    }

    fn clone_box(&self) -> Box<dyn Allocator> {
        self.inner.clone_box()
    }

    fn fresh_box(&self) -> Box<dyn Allocator> {
        self.inner.fresh_box()
    }
}

/// Sample `SystemState::clone` once per this many root `decide` calls.
const STATE_CLONE_EVERY: u32 = 64;

/// Span-recording decorator (traced runs only).
pub struct Timed {
    inner: Box<dyn Allocator>,
    /// `false` for speculative clones.
    root: bool,
    decides: u32,
}

impl Timed {
    /// Decorate the root allocator (`root`) or a speculative clone.
    pub fn new(inner: Box<dyn Allocator>, root: bool) -> Timed {
        Timed {
            inner,
            root,
            decides: 0,
        }
    }
}

impl Allocator for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &mut SystemState, req: &JobRequest) -> Decision {
        self.decides = self.decides.wrapping_add(1);
        if self.root && self.decides % STATE_CLONE_EVERY == 1 {
            let span = trace::begin(Name::StateClone);
            std::hint::black_box(state.clone());
            trace::end(span, false);
        }
        let span = trace::begin(if self.root {
            Name::Decide
        } else {
            Name::SpecDecide
        });
        let decision = self.inner.decide(state, req);
        trace::end(span, decision.is_admit());
        decision
    }

    fn release(&mut self, state: &mut SystemState, alloc: &Allocation) {
        let span = trace::begin(Name::Release);
        self.inner.release(state, alloc);
        trace::end(span, false);
    }

    fn adopt(&mut self, state: &mut SystemState, alloc: &Allocation) {
        let span = trace::begin(Name::Adopt);
        self.inner.adopt(state, alloc);
        trace::end(span, false);
    }

    fn recycle(&mut self, alloc: Allocation) {
        self.inner.recycle(alloc);
    }

    fn last_search_steps(&self) -> u64 {
        self.inner.last_search_steps()
    }

    fn clone_box(&self) -> Box<dyn Allocator> {
        let span = trace::begin(Name::Clone);
        let inner = self.inner.clone_box();
        trace::end(span, false);
        Box::new(Timed::new(inner, false))
    }

    fn fresh_box(&self) -> Box<dyn Allocator> {
        let span = trace::begin(Name::Clone);
        let inner = self.inner.fresh_box();
        trace::end(span, false);
        Box::new(Timed::new(inner, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::Scheme;
    use jigsaw_topology::FatTree;

    #[test]
    fn fingerprint_is_order_sensitive() {
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.add(1);
        c.add(2);
        assert_eq!(a, c);
        let (mut d, mut e) = (Fingerprint::default(), Fingerprint::default());
        d.add_bytes(b"ab");
        d.add_bytes(b"c");
        e.add_bytes(b"a");
        e.add_bytes(b"bc");
        assert_ne!(d, e, "byte strings are length-delimited");
    }

    fn session(alloc: Box<dyn Allocator>, sizes: &[u32]) -> RootLog {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let (mut rec, out) = Recorder::new(alloc);
        let mut granted = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let req = JobRequest::new(JobId(i as u32), size);
            if let Ok(a) = rec.try_admit(&mut state, &req) {
                granted.push(a);
            }
        }
        for a in &granted {
            rec.release(&mut state, a);
        }
        drop(rec);
        Recorder::collect(&out)
    }

    #[test]
    fn recorder_fingerprints_the_decision_sequence() {
        let tree = FatTree::maximal(4).unwrap();
        let a = session(Scheme::Jigsaw.make(&tree), &[4, 2, 8, 3]);
        let b = session(Scheme::Jigsaw.make(&tree), &[4, 2, 8, 3]);
        let c = session(Scheme::Jigsaw.make(&tree), &[2, 4, 8, 3]);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!((a.decides, a.admits, a.audit_errors), (4, 3, 0));
    }

    #[test]
    fn timed_decorator_changes_no_decision() {
        let tree = FatTree::maximal(4).unwrap();
        let plain = session(Scheme::Jigsaw.make(&tree), &[3, 5, 16, 1]);
        trace::enable();
        let timed = session(
            Box::new(Timed::new(Scheme::Jigsaw.make(&tree), true)),
            &[3, 5, 16, 1],
        );
        let spans = trace::take();
        assert_eq!(plain.fingerprint, timed.fingerprint);
        let decides = spans.iter().filter(|s| s.name == Name::Decide).count();
        assert_eq!(decides, 4);
    }

    #[test]
    fn allocations_held_at_the_end_are_audit_errors() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let (mut rec, out) = Recorder::new(Scheme::Jigsaw.make(&tree));
        let _leaked = rec.try_admit(&mut state, &JobRequest::new(JobId(1), 2));
        drop(rec);
        assert_eq!(Recorder::collect(&out).audit_errors, 1);
    }
}
