//! Conservative backfilling, and the future-machine replay (`Horizon`)
//! it shares with EASY's shadow and advance reservations.
//!
//! Where EASY (§5.3) reserves for the queue head only, conservative
//! backfilling reserves resource-concrete slots for *every* waiting job
//! (up to a depth) in queue order, so no job is ever delayed by a later
//! one — a trade the paper does not explore (`backfill_policies`). Each
//! queued job sweeps its candidate instants (now, each completion, each
//! reservation boundary) forward over one horizon and takes the first
//! where it fits beside the reservations active then and misses every
//! reservation beginning during its run; a slot *now* starts for real.
//!
//! Cost per pass: at most one state clone per planned job; per candidate
//! instant with room for the job, one allocator clone and one trial.

use crate::engine::{PendingReservation, RunningSet};
use jigsaw_core::alloc::{is_claimable, release_allocation};
use jigsaw_core::{Allocation, Allocator, JobRequest};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::SystemState;

/// The machine as the scheduler expects it at a future instant: one clone
/// of the live state and allocator, with the running jobs' estimated
/// completions, sorted once by `(estimated_end, idx)`, released up to it
/// (`timeline[..next]`). Releases commute, so every prefix is exact.
///
/// One-shot replays may adopt and admit on `state` and `alloc` directly;
/// a sweep over many instants may not. TA's `adopt` overwrites slots a
/// running job may hold and `release` clears every slot with the released
/// id, so adopt-then-release would erase that job's mark: the sweep holds
/// and trials on a copy of the allocator and rolls `state` back.
pub(crate) struct Horizon<'a> {
    pub(crate) state: SystemState,
    pub(crate) alloc: Box<dyn Allocator>,
    timeline: Vec<(f64, u32, &'a Allocation)>,
    next: usize,
}

impl<'a> Horizon<'a> {
    pub(crate) fn new(
        state: &'a SystemState,
        allocator: &'a dyn Allocator,
        running: &'a RunningSet,
    ) -> Horizon<'a> {
        let mut timeline: Vec<_> = running
            .iter()
            .map(|(r, a)| (r.estimated_end, r.idx, a))
            .collect();
        timeline.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Horizon {
            state: state.clone(),
            alloc: allocator.clone_box(),
            timeline,
            next: 0,
        }
    }

    /// Release the next completion and return its time.
    pub(crate) fn release_next(&mut self) -> Option<f64> {
        let &(end, _, alloc) = self.timeline.get(self.next)?;
        self.alloc.release(&mut self.state, alloc);
        self.next += 1;
        Some(end)
    }

    /// Release every completion due by `t`.
    pub(crate) fn advance_to(&mut self, t: f64) {
        while self.timeline.get(self.next).is_some_and(|c| c.0 <= t) {
            self.release_next();
        }
    }

    /// Adopt `alloc` unless a node or link of it is still taken (by a job
    /// outliving its estimate, or a reservation placed while this one's
    /// nodes looked taken). Skipping is a conservative approximation; the
    /// claim-time re-check keeps the live machine safe either way.
    pub(crate) fn adopt(&mut self, alloc: &Allocation) -> bool {
        let free = is_claimable(&self.state, alloc);
        if free {
            self.alloc.adopt(&mut self.state, alloc);
        }
        free
    }

    /// Adopt `alloc` (job `idx`) now and release it at `end`, in
    /// `(end, idx)` order with the completions.
    pub(crate) fn hold_until(&mut self, idx: u32, end: f64, alloc: &'a Allocation) {
        if self.adopt(alloc) {
            let at = (self.timeline)
                .partition_point(|c| c.0.total_cmp(&end).then(c.1.cmp(&idx)).is_lt());
            self.timeline.insert(at, (end, idx, alloc));
        }
    }

    /// Try `req` at the current instant with `held` adopted (guarded as in
    /// [`Horizon::adopt`]) on a copy of the allocator, then roll `state`
    /// back: state-level claims and releases are exact inverses.
    fn try_admit_holding<'r>(
        &mut self,
        held: impl Iterator<Item = &'r Allocation>,
        req: &JobRequest,
    ) -> Option<Allocation> {
        // Holding only takes nodes away.
        if self.state.free_node_count() < req.size {
            return None;
        }
        let mut trial = self.alloc.clone_box();
        let mut adopted = Vec::new();
        for alloc in held {
            if is_claimable(&self.state, alloc) {
                trial.adopt(&mut self.state, alloc);
                adopted.push(alloc);
            }
        }
        let admitted = (self.state.free_node_count() >= req.size)
            .then(|| trial.try_admit(&mut self.state, req).ok())
            .flatten();
        for alloc in admitted.iter().chain(adopted) {
            release_allocation(&mut self.state, alloc);
        }
        admitted
    }
}

/// Plan reservations for the first `depth` queued jobs. `queue` carries
/// `(trace index, size, bw, estimate)` per waiting job in FIFO order, and
/// every slot respects the `fixed` advance reservations. Returns the queue
/// positions that may start now and every placed slot, in queue order.
pub(crate) fn plan(
    state: &SystemState,
    allocator: &dyn Allocator,
    running: &RunningSet,
    fixed: &[&PendingReservation],
    queue: &[(u32, u32, u16, f64)],
    now: f64,
    depth: usize,
) -> (Vec<usize>, Vec<PendingReservation>) {
    let mut horizon = Horizon::new(state, allocator, running);
    let (mut start_now, mut placed, mut instants) = (Vec::new(), Vec::new(), Vec::new());
    for (qi, &(idx, size, bw, runtime)) in queue.iter().enumerate().take(depth) {
        let req = JobRequest::with_bandwidth(JobId(idx), size, bw);
        let reservations = || fixed.iter().copied().chain(&placed);
        // The machine changes only at these instants.
        instants.clear();
        instants.push(now);
        instants.extend(horizon.timeline.iter().map(|c| c.0));
        instants.extend(reservations().flat_map(|r| [r.start, r.est_end]));
        instants.retain(|&t| t >= now);
        instants.sort_by(f64::total_cmp);
        instants.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        if horizon.next > 0 {
            horizon = Horizon::new(state, allocator, running);
        }
        let slot = instants.iter().find_map(|&tau| {
            horizon.advance_to(tau + 1e-12);
            let held = reservations()
                .filter(|r| r.start <= tau + 1e-12 && tau < r.est_end - 1e-12)
                .map(|r| &r.alloc);
            let alloc = horizon.try_admit_holding(held, &req)?;
            // No collision with reservations beginning during the run.
            let est_end = tau + runtime;
            let collides = reservations()
                .any(|r| r.start >= tau && r.start < est_end && !alloc.is_disjoint_from(&r.alloc));
            (!collides).then_some(PendingReservation {
                start: tau,
                est_end,
                alloc,
            })
        });
        if let Some(slot) = slot {
            if slot.start <= now + 1e-9 {
                start_now.push(qi);
            }
            placed.push(slot);
        }
    }
    (start_now, placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Running;
    use jigsaw_core::{Scheme, Shape};
    use jigsaw_topology::FatTree;
    use jigsaw_traces::synth::random_bw_class;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// One running job (trace index 0) on `alloc`, ending at t=100.
    fn running_until_100(alloc: Allocation) -> RunningSet {
        let mut running = RunningSet::new(1);
        running.insert(
            Running {
                idx: 0,
                end: 100.0,
                estimated_end: 100.0,
            },
            alloc,
        );
        running
    }

    fn setup() -> (SystemState, Box<dyn Allocator>) {
        let tree = FatTree::maximal(4).unwrap(); // 16 nodes
        (SystemState::new(tree), Scheme::Baseline.make(&tree))
    }

    #[test]
    fn empty_machine_starts_everything_that_fits() {
        let (state, alloc) = setup();
        let queue = vec![
            (0u32, 8u32, 10u16, 10.0),
            (1, 8, 10, 10.0),
            (2, 8, 10, 10.0),
        ];
        let (start_now, _) = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &[],
            &queue,
            0.0,
            50,
        );
        // First two fill the machine; the third reserves later.
        assert_eq!(start_now, vec![0, 1]);
    }

    #[test]
    fn later_job_backfills_only_without_disturbing_reservations() {
        let (mut state, mut alloc) = setup();
        // A 12-node job runs until t=100.
        let running_alloc = alloc
            .try_admit(&mut state, &JobRequest::new(JobId(99), 12))
            .unwrap();
        let running = running_until_100(running_alloc);
        // Head wants 16 nodes: reserves [100, 110) over the whole machine.
        // A 4-node/200s filler would overlap that reservation — held back;
        // a 4-node/50s filler ends in time — starts now.
        let queue = vec![
            (0u32, 16u32, 10u16, 10.0),
            (1, 4, 10, 200.0),
            (2, 4, 10, 50.0),
        ];
        let (start_now, _) = plan(&state, alloc.as_ref(), &running, &[], &queue, 0.0, 50);
        assert!(!start_now.contains(&1), "long filler would delay the head");
        assert!(
            start_now.contains(&2),
            "short filler ends before the head's slot"
        );
    }

    #[test]
    fn reservations_respect_queue_priority() {
        let (mut state, mut alloc) = setup();
        // 12 nodes busy until t=100; two queued 16-node jobs, then a
        // 4-node/1000s job. The second 16-node job reserves [110, 120),
        // so even a filler ending at t=1000 < ∞ must not start if it
        // collides with either reservation window... with 4 free nodes and
        // the machine-wide reservations at 100 and 110, it cannot start.
        let running_alloc = alloc
            .try_admit(&mut state, &JobRequest::new(JobId(99), 12))
            .unwrap();
        let running = running_until_100(running_alloc);
        let queue = vec![
            (0u32, 16u32, 10u16, 10.0),
            (1, 16, 10, 10.0),
            (2, 4, 10, 1000.0),
        ];
        let (start_now, _) = plan(&state, alloc.as_ref(), &running, &[], &queue, 0.0, 50);
        assert!(start_now.is_empty(), "{start_now:?}");
    }

    #[test]
    fn depth_limits_planning() {
        let (state, alloc) = setup();
        let queue = vec![(0u32, 16u32, 10u16, 10.0), (1, 1, 10, 1.0)];
        let (start_now, _) = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &[],
            &queue,
            0.0,
            1,
        );
        assert_eq!(start_now, vec![0]);
    }

    #[test]
    fn fixed_reservations_preempt_queue_slots() {
        // A whole-machine advance reservation over [100, 150): a queued job
        // whose run would cross t=100 must not start now, even on an empty
        // machine; one that finishes by 100 may.
        let (mut state, mut alloc) = setup();
        let reserved_alloc = alloc
            .try_admit(&mut state, &JobRequest::new(JobId(7), 16))
            .unwrap();
        alloc.release(&mut state, &reserved_alloc);
        let fixed = PendingReservation {
            start: 100.0,
            est_end: 150.0,
            alloc: reserved_alloc,
        };
        let queue = vec![(0u32, 4u32, 10u16, 500.0), (1, 4, 10, 50.0)];
        let (start_now, _) = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &[&fixed],
            &queue,
            0.0,
            50,
        );
        assert!(
            !start_now.contains(&0),
            "long job would overlap the advance reservation"
        );
        assert!(
            start_now.contains(&1),
            "short job completes before the reserved window"
        );
    }

    /// The planner before the sweep line, kept as the oracle for [`plan`]:
    /// at every (queued job × candidate instant) it rebuilds the machine
    /// from a fresh clone of the live state and allocator.
    fn plan_rebuild(
        state: &SystemState,
        allocator: &dyn Allocator,
        running: &RunningSet,
        fixed: &[PendingReservation],
        queue: &[(u32, u32, u16, f64)],
        now: f64,
        depth: usize,
    ) -> (Vec<usize>, Vec<PendingReservation>) {
        let mut completions: Vec<(f64, &Allocation)> =
            running.iter().map(|(r, a)| (r.estimated_end, a)).collect();
        completions.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut reservations: Vec<PendingReservation> = fixed
            .iter()
            .map(|f| PendingReservation {
                start: f.start,
                est_end: f.est_end,
                alloc: f.alloc.clone(),
            })
            .collect();
        let mut start_now = Vec::new();
        for (qi, &(idx, size, bw, runtime)) in queue.iter().enumerate().take(depth) {
            let req = JobRequest::with_bandwidth(JobId(idx), size, bw);
            let mut instants: Vec<f64> = vec![now];
            instants.extend(completions.iter().map(|&(t, _)| t));
            instants.extend(reservations.iter().flat_map(|r| [r.start, r.est_end]));
            instants.retain(|&t| t >= now);
            instants.sort_by(f64::total_cmp);
            instants.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            'instants: for &tau in &instants {
                let mut scratch = state.clone();
                let mut salloc = allocator.clone_box();
                for &(end, alloc) in &completions {
                    if end <= tau + 1e-12 {
                        salloc.release(&mut scratch, alloc);
                    }
                }
                for r in &reservations {
                    if r.start <= tau + 1e-12
                        && tau < r.est_end - 1e-12
                        && is_claimable(&scratch, &r.alloc)
                    {
                        salloc.adopt(&mut scratch, &r.alloc);
                    }
                }
                if scratch.free_node_count() < size {
                    continue;
                }
                let Ok(alloc) = salloc.try_admit(&mut scratch, &req) else {
                    continue;
                };
                let end = tau + runtime;
                for r in &reservations {
                    if r.start >= tau && r.start < end && !alloc.is_disjoint_from(&r.alloc) {
                        continue 'instants;
                    }
                }
                if tau <= now + 1e-9 {
                    start_now.push(qi);
                }
                reservations.push(PendingReservation {
                    start: tau,
                    est_end: end,
                    alloc,
                });
                break;
            }
        }
        let placed = reservations.split_off(fixed.len());
        (start_now, placed)
    }

    /// The oracle's "now": some estimated ends lie before it.
    const NOW: f64 = 5.0;

    /// Job ids below this are free for the running set, the advance
    /// reservations and the queue, which all draw from one counter.
    const IDS: usize = 256;

    /// A churned radix-8 machine under `scheme`: running jobs whose
    /// estimated ends fall on a 10-s grid (ties are common, some ends are
    /// already past at [`NOW`]); up to two advance reservations planned on
    /// a scratch copy at grid instants; and one reservation on the free
    /// nodes of a leaf a running job holds, over a window inside that
    /// job's estimated run — what a migration that slips a job's end can
    /// leave behind. Under TA it is a pod-class hold on a leaf whose mark
    /// belongs to the running job.
    fn churned(
        scheme: Scheme,
        seed: u64,
        next_id: &mut u32,
    ) -> (
        SystemState,
        Box<dyn Allocator>,
        RunningSet,
        Vec<PendingReservation>,
    ) {
        let tree = FatTree::maximal(8).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SystemState::new(tree);
        let mut alloc = scheme.make(&tree);
        let mut live: Vec<Allocation> = Vec::new();
        for _ in 0..40 {
            if live.is_empty() || rng.random_bool(0.7) {
                let req = JobRequest::with_bandwidth(
                    JobId(*next_id),
                    rng.random_range(1..=20),
                    random_bw_class(&mut rng),
                );
                *next_id += 1;
                if let Ok(a) = alloc.try_admit(&mut state, &req) {
                    live.push(a);
                }
            } else {
                let a = live.swap_remove(rng.random_range(0..live.len()));
                alloc.release(&mut state, &a);
            }
        }
        let mut running = RunningSet::new(IDS);
        for a in live {
            let end = 10.0 * f64::from(rng.random_range(0..=10u32));
            let run = Running {
                idx: a.job.0,
                end,
                estimated_end: end,
            };
            running.insert(run, a);
        }
        let mut fixed: Vec<PendingReservation> = Vec::new();
        for _ in 0..2 {
            let start = 10.0 * f64::from(rng.random_range(1..=10u32));
            let est_end = start + 10.0 * f64::from(rng.random_range(1..=10u32));
            let mut scratch = state.clone();
            let mut salloc = alloc.clone_box();
            for (r, a) in running.iter() {
                if r.estimated_end <= start {
                    salloc.release(&mut scratch, a);
                }
            }
            for r in &fixed {
                if r.start < est_end && start < r.est_end && is_claimable(&scratch, &r.alloc) {
                    salloc.adopt(&mut scratch, &r.alloc);
                }
            }
            let req = JobRequest::with_bandwidth(
                JobId(*next_id),
                rng.random_range(1..=20),
                random_bw_class(&mut rng),
            );
            *next_id += 1;
            if let Ok(alloc) = salloc.try_admit(&mut scratch, &req) {
                fixed.push(PendingReservation {
                    start,
                    est_end,
                    alloc,
                });
            }
        }
        // The shared leaf: the largest running job that outlives t=30 and
        // leaves free nodes on one of its leaves. The hold ends before the
        // job does, so later instants see the leaf's mark again.
        let shared = running
            .iter()
            .filter(|(r, _)| r.estimated_end >= 30.0)
            .flat_map(|(r, a)| a.nodes.iter().map(move |&n| (r, a, tree.leaf_of_node(n))))
            .filter(|&(_, _, leaf)| state.free_nodes_on_leaf(leaf) > 0)
            .max_by_key(|&(_, a, leaf)| (a.nodes.len(), leaf.0));
        if let Some((r, _, leaf)) = shared {
            fixed.push(PendingReservation {
                start: r.estimated_end - 20.0,
                est_end: r.estimated_end - 10.0,
                alloc: Allocation {
                    job: JobId(*next_id),
                    requested: tree.nodes_per_leaf() + 1,
                    nodes: state.free_nodes_on_leaf_iter(leaf).collect(),
                    leaf_links: Vec::new(),
                    spine_links: Vec::new(),
                    bw_tenths: 0,
                    shape: Shape::Unstructured,
                },
            });
            *next_id += 1;
        }
        (state, alloc, running, fixed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sweep plans exactly what rebuilding the machine at every
        /// instant plans: the same starts and the same slots.
        #[test]
        fn sweep_matches_the_per_instant_rebuild(
            scheme in 0usize..5,
            seed in any::<u64>(),
            depth in 1usize..=8,
        ) {
            let scheme = Scheme::ALL[scheme];
            let mut next_id = 0;
            let (state, alloc, running, fixed) = churned(scheme, seed, &mut next_id);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5157);
            let queue: Vec<(u32, u32, u16, f64)> = (next_id..next_id + depth as u32)
                .map(|id| {
                    let size = rng.random_range(1..=24);
                    let runtime = 10.0 * f64::from(rng.random_range(1..=15u32));
                    (id, size, random_bw_class(&mut rng), runtime)
                })
                .collect();
            let before = state.clone();
            let held: Vec<&PendingReservation> = fixed.iter().collect();
            let (start_now, placed) =
                plan(&state, alloc.as_ref(), &running, &held, &queue, NOW, depth);
            let (want_now, want) =
                plan_rebuild(&state, alloc.as_ref(), &running, &fixed, &queue, NOW, depth);
            let slots = |p: &[PendingReservation]| -> Vec<(f64, f64, Vec<_>)> {
                p.iter().map(|r| (r.start, r.est_end, r.alloc.nodes.clone())).collect()
            };
            prop_assert_eq!(start_now, want_now, "{}", scheme);
            prop_assert_eq!(slots(&placed), slots(&want), "{}", scheme);
            prop_assert!(state == before);
        }
    }
}
