//! Allocator instrumentation: [`ObservedAllocator`] wraps any scheme and
//! feeds per-scheme metrics into a [`Registry`].
//!
//! The wrapper records, labeled by scheme name:
//!
//! * `jigsaw_alloc_attempts_total` / `jigsaw_alloc_grants_total` /
//!   `jigsaw_alloc_releases_total` — allocation outcome counters;
//! * `jigsaw_alloc_rejects_total{reason=…}` — one counter per typed
//!   [`Reject`](crate::Reject) kind;
//! * `jigsaw_alloc_reconfigures_total` — decisions that produced a
//!   [`MigrationPlan`](crate::defrag::MigrationPlan) instead of a grant
//!   or a reject;
//! * `jigsaw_alloc_latency_ns` / `jigsaw_release_latency_ns` — log2
//!   latency histograms over the decide/release calls;
//! * `jigsaw_alloc_search_steps` — the scheme's machine-independent
//!   backtracking effort (Table 3's second metric);
//! * `jigsaw_alloc_nodes_in_use` — gauge of currently granted nodes.
//!
//! [`Allocator::clone_box`] and [`Allocator::fresh_box`] return clones with
//! *disabled* observation: the simulator clones allocators to replay
//! hypothetical schedules (EASY reservations, fits-empty probes), and those
//! scratch replays must neither pollute the latency histograms nor
//! unbalance the grant/release counters.

use crate::alloc::Allocation;
use crate::allocator::{Allocator, Decision};
use crate::job::JobRequest;
use crate::reject::RejectReason;
use jigsaw_obs::{Counter, EventKind, Gauge, Histogram, Registry};
use jigsaw_topology::SystemState;

/// The per-scheme metric handles [`ObservedAllocator`] records into.
/// Usable standalone when an embedder wants the metrics without the
/// trait-object wrapper.
#[derive(Debug, Clone)]
pub struct AllocatorObs {
    registry: Registry,
    attempts: Counter,
    grants: Counter,
    releases: Counter,
    rejects: Vec<Counter>,
    reconfigures: Counter,
    alloc_ns: Histogram,
    release_ns: Histogram,
    search_steps: Histogram,
    nodes_in_use: Gauge,
}

impl AllocatorObs {
    /// Register the allocator metric family for `scheme` in `registry`.
    /// Every [`Reject`](crate::Reject) kind's counter is registered eagerly so the
    /// exposition shows zeroes rather than omitting untripped reasons.
    pub fn new(registry: &Registry, scheme: &'static str) -> AllocatorObs {
        let labels = [("scheme", scheme)];
        let rejects = RejectReason::ALL_KINDS
            .iter()
            .map(|reason| {
                registry.counter_with(
                    "jigsaw_alloc_rejects_total",
                    "Rejected allocation attempts by typed reason.",
                    &[("scheme", scheme), ("reason", reason)],
                )
            })
            .collect();
        AllocatorObs {
            registry: registry.clone(),
            attempts: registry.counter_with(
                "jigsaw_alloc_attempts_total",
                "Allocation attempts.",
                &labels,
            ),
            grants: registry.counter_with(
                "jigsaw_alloc_grants_total",
                "Granted allocations.",
                &labels,
            ),
            releases: registry.counter_with(
                "jigsaw_alloc_releases_total",
                "Released allocations.",
                &labels,
            ),
            rejects,
            reconfigures: registry.counter_with(
                "jigsaw_alloc_reconfigures_total",
                "Decisions that produced a migration plan (Reconfigure).",
                &labels,
            ),
            alloc_ns: registry.histogram_with(
                "jigsaw_alloc_latency_ns",
                "Latency of Allocator::decide calls (ns).",
                &labels,
            ),
            release_ns: registry.histogram_with(
                "jigsaw_release_latency_ns",
                "Latency of Allocator::release calls (ns).",
                &labels,
            ),
            search_steps: registry.histogram_with(
                "jigsaw_alloc_search_steps",
                "Backtracking steps per allocate call (machine-independent effort).",
                &labels,
            ),
            nodes_in_use: registry.gauge_with(
                "jigsaw_alloc_nodes_in_use",
                "Nodes currently granted to running jobs.",
                &labels,
            ),
        }
    }

    /// Inert handles: every record is a no-op.
    pub fn disabled() -> AllocatorObs {
        AllocatorObs {
            registry: Registry::disabled(),
            attempts: Counter::disabled(),
            grants: Counter::disabled(),
            releases: Counter::disabled(),
            rejects: Vec::new(),
            reconfigures: Counter::disabled(),
            alloc_ns: Histogram::disabled(),
            release_ns: Histogram::disabled(),
            search_steps: Histogram::disabled(),
            nodes_in_use: Gauge::disabled(),
        }
    }

    /// Record one allocation decision (latency is recorded separately via
    /// the histogram handles).
    pub fn record_decision(&self, req: &JobRequest, decision: &Decision) {
        match decision {
            Decision::Admit(alloc) => {
                self.grants.inc();
                self.nodes_in_use.add(alloc.nodes.len() as i64);
                self.registry.event(
                    EventKind::JobStart,
                    Some(req.id.0),
                    format_args!("size={} granted={}", req.size, alloc.nodes.len()),
                );
            }
            Decision::Reject(reject) => {
                if let Some(c) = self.rejects.get(reject.kind_index()) {
                    c.inc();
                }
                self.registry.event(
                    EventKind::Rejection,
                    Some(req.id.0),
                    format_args!("size={} reason={reject}", req.size),
                );
            }
            Decision::Reconfigure(plan) => {
                self.reconfigures.inc();
                self.registry.event(
                    EventKind::Reconfigure,
                    Some(req.id.0),
                    format_args!(
                        "size={} moves={} nodes_moved={}",
                        req.size,
                        plan.moves.len(),
                        plan.nodes_moved()
                    ),
                );
            }
        }
    }

    /// Counter of granted allocations.
    pub fn grants(&self) -> &Counter {
        &self.grants
    }

    /// Counter of released allocations.
    pub fn releases(&self) -> &Counter {
        &self.releases
    }

    /// Gauge of nodes currently granted.
    pub fn nodes_in_use(&self) -> &Gauge {
        &self.nodes_in_use
    }

    /// Counter of `Reconfigure` decisions.
    pub fn reconfigures(&self) -> &Counter {
        &self.reconfigures
    }
}

/// An [`Allocator`] wrapper recording per-scheme observability. See the
/// module docs for the metric catalog.
pub struct ObservedAllocator {
    inner: Box<dyn Allocator>,
    obs: AllocatorObs,
}

impl ObservedAllocator {
    /// Wrap `inner`, registering its metrics (labeled by
    /// [`Allocator::name`]) in `registry`. With a disabled registry the
    /// wrapper's overhead is a handful of null checks — bounded by the
    /// `obs_overhead` bench in `jigsaw-bench`.
    pub fn new(inner: Box<dyn Allocator>, registry: &Registry) -> ObservedAllocator {
        let obs = AllocatorObs::new(registry, inner.name());
        ObservedAllocator { inner, obs }
    }

    /// The metric handles this wrapper records into.
    pub fn obs(&self) -> &AllocatorObs {
        &self.obs
    }
}

impl Allocator for ObservedAllocator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &mut SystemState, req: &JobRequest) -> Decision {
        self.obs.attempts.inc();
        let t0 = self.obs.alloc_ns.start();
        let decision = self.inner.decide(state, req);
        self.obs.alloc_ns.observe_since(t0);
        if self.obs.search_steps.is_enabled() {
            self.obs
                .search_steps
                .observe(self.inner.last_search_steps());
        }
        self.obs.record_decision(req, &decision);
        decision
    }

    fn release(&mut self, state: &mut SystemState, alloc: &Allocation) {
        let t0 = self.obs.release_ns.start();
        self.inner.release(state, alloc);
        self.obs.release_ns.observe_since(t0);
        self.obs.releases.inc();
        self.obs.nodes_in_use.sub(alloc.nodes.len() as i64);
        self.obs.registry.event(
            EventKind::JobComplete,
            Some(alloc.job.0),
            format_args!("released={}", alloc.nodes.len()),
        );
    }

    fn adopt(&mut self, state: &mut SystemState, alloc: &Allocation) {
        self.inner.adopt(state, alloc);
        // Adopted allocations (recovery replay) occupy nodes like granted
        // ones; count them in the gauge but not as fresh grants.
        self.obs.nodes_in_use.add(alloc.nodes.len() as i64);
    }

    fn recycle(&mut self, alloc: Allocation) {
        self.inner.recycle(alloc);
    }

    fn last_search_steps(&self) -> u64 {
        self.inner.last_search_steps()
    }

    fn clone_box(&self) -> Box<dyn Allocator> {
        // Scratch clones (reservation replay) must not pollute metrics.
        Box::new(ObservedAllocator {
            inner: self.inner.clone_box(),
            obs: AllocatorObs::disabled(),
        })
    }

    fn fresh_box(&self) -> Box<dyn Allocator> {
        Box::new(ObservedAllocator {
            inner: self.inner.fresh_box(),
            obs: AllocatorObs::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Scheme;
    use jigsaw_topology::ids::JobId;
    use jigsaw_topology::{FatTree, SystemState};

    #[test]
    fn records_grants_rejects_and_balance() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let reg = Registry::new();
        let mut alloc = ObservedAllocator::new(Scheme::Jigsaw.make(&tree), &reg);

        let a = alloc
            .try_admit(&mut state, &JobRequest::new(JobId(1), 5))
            .unwrap();
        assert!(alloc
            .try_admit(&mut state, &JobRequest::new(JobId(2), 99))
            .is_err());
        assert_eq!(alloc.obs().grants().get(), 1);
        assert_eq!(alloc.obs().nodes_in_use().get(), 5);
        alloc.release(&mut state, &a);
        assert_eq!(alloc.obs().releases().get(), 1);
        assert_eq!(alloc.obs().nodes_in_use().get(), 0);

        let text = reg.render_prometheus();
        assert!(text.contains("jigsaw_alloc_grants_total{scheme=\"Jigsaw\"} 1"));
        assert!(
            text.contains("jigsaw_alloc_rejects_total{scheme=\"Jigsaw\",reason=\"no_nodes\"} 1")
        );
        assert!(text.contains("jigsaw_alloc_latency_ns_count{scheme=\"Jigsaw\"} 2"));
        assert!(text.contains("jigsaw_alloc_search_steps_count{scheme=\"Jigsaw\"} 2"));
        // Events captured for both outcomes plus the release.
        let kinds: Vec<_> = reg.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::JobStart));
        assert!(kinds.contains(&EventKind::Rejection));
        assert!(kinds.contains(&EventKind::JobComplete));
    }

    #[test]
    fn scratch_clones_do_not_pollute() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let reg = Registry::new();
        let alloc = ObservedAllocator::new(Scheme::Jigsaw.make(&tree), &reg);

        let mut scratch = alloc.clone_box();
        let _ = scratch.try_admit(&mut state, &JobRequest::new(JobId(1), 5));
        let text = reg.render_prometheus();
        assert!(text.contains("jigsaw_alloc_attempts_total{scheme=\"Jigsaw\"} 0"));
        assert!(text.contains("jigsaw_alloc_grants_total{scheme=\"Jigsaw\"} 0"));
    }

    #[test]
    fn disabled_registry_costs_nothing_and_still_allocates() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let reg = Registry::disabled();
        let mut alloc = ObservedAllocator::new(Scheme::Ta.make(&tree), &reg);
        let a = alloc
            .try_admit(&mut state, &JobRequest::new(JobId(1), 3))
            .unwrap();
        assert_eq!(a.nodes.len(), 3);
        assert_eq!(alloc.obs().grants().get(), 0);
        assert_eq!(reg.render_prometheus(), "");
    }
}
