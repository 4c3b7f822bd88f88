//! Conservative backfilling.
//!
//! EASY (the paper's policy, §5.3) gives a reservation only to the queue
//! head; conservative backfilling gives one to *every* waiting job (up to
//! a depth), in queue-priority order, and a job may start early only if it
//! disturbs no earlier reservation. Conservative trades utilization for a
//! strict no-delay guarantee to every job — a classic scheduling trade-off
//! the paper does not explore; we expose it as an extension and an
//! ablation.
//!
//! Reservations are *resource-concrete* (actual node/link sets), so the
//! planner is exact for topology-aware allocators: no processor-count
//! profile approximation. For each queued job (FIFO order) we scan the
//! event timeline (running-job completions plus earlier reservations'
//! starts and ends); at each candidate instant a scratch state is
//! reconstructed — completions released, active reservations re-adopted —
//! and the job tries to allocate. A slot is valid only if the chosen
//! allocation is also disjoint from every reservation that begins during
//! the job's run. Jobs whose slot is *now* start for real.
//!
//! Cost: `O(depth × events × machine)` per scheduling pass — conservative
//! backfilling is intrinsically heavier than EASY, which is half of why
//! production sites run EASY (the other half is utilization; see the
//! `backfill_policies` experiment).

use crate::engine::RunningSet;
use jigsaw_core::{Allocation, Allocator, JobRequest};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::SystemState;

/// Result of a conservative planning sweep.
pub(crate) struct ConservativePlan {
    /// Queue positions (indices into the waiting queue) that may start now.
    pub start_now: Vec<usize>,
}

/// An immovable reservation the planner must schedule around: the job
/// holds `alloc` during `[start, end)`. The engine seeds the plan with one
/// per pending *advance* reservation (workload model v2, DESIGN §13), so
/// conservative backfilling never hands reserved resources to queue
/// traffic.
pub(crate) struct FixedReservation {
    pub(crate) start: f64,
    pub(crate) end: f64,
    pub(crate) alloc: Allocation,
}

/// A reservation the planner placed itself (same shape, internal).
struct Reservation {
    start: f64,
    end: f64,
    alloc: Allocation,
}

/// Plan reservations for the first `depth` queued jobs. `queue` carries
/// `(trace index, size, bw, effective runtime)` per waiting job in FIFO
/// order; `fixed` carries advance reservations that pre-empt any slot the
/// planner might otherwise hand out.
pub(crate) fn plan(
    state: &SystemState,
    allocator: &dyn Allocator,
    running: &RunningSet,
    fixed: &[FixedReservation],
    queue: &[(u32, u32, u16, f64)],
    now: f64,
    depth: usize,
) -> ConservativePlan {
    // The planner sees estimated completion times, like a real scheduler.
    let mut completions: Vec<(f64, &Allocation)> =
        running.iter().map(|(r, a)| (r.estimated_end, a)).collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Advance reservations are planned first, before any queued job, so
    // every slot handed out below respects them.
    let mut reservations: Vec<Reservation> = fixed
        .iter()
        .map(|f| Reservation {
            start: f.start,
            end: f.end,
            alloc: f.alloc.clone(),
        })
        .collect();
    let mut start_now = Vec::new();

    for (qi, &(idx, size, bw, runtime)) in queue.iter().enumerate().take(depth) {
        let req = JobRequest::with_bandwidth(JobId(idx), size, bw);

        // Candidate instants: now, each completion, and each reservation
        // boundary (state only changes there).
        let mut instants: Vec<f64> = vec![now];
        instants.extend(completions.iter().map(|&(t, _)| t));
        instants.extend(reservations.iter().flat_map(|r| [r.start, r.end]));
        instants.retain(|&t| t >= now);
        instants.sort_by(f64::total_cmp);
        instants.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        'instants: for &tau in &instants {
            // Reconstruct the machine at time tau.
            let mut scratch = state.clone();
            let mut salloc = allocator.clone_box();
            for &(end, alloc) in &completions {
                if end <= tau + 1e-12 {
                    salloc.release(&mut scratch, alloc);
                }
            }
            for r in &reservations {
                // Adoption is guarded: a node still claimed at tau means a
                // running job (per the estimates) outlives the
                // reservation's start — only possible under estimate
                // divergence; skipping keeps the scratch consistent.
                if r.start <= tau + 1e-12
                    && tau < r.end - 1e-12
                    && scratch.all_nodes_free(&r.alloc.nodes)
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
            // The slot must not collide with reservations that begin while
            // this job runs.
            let end = tau + runtime;
            for r in &reservations {
                if r.start >= tau && r.start < end && !alloc.is_disjoint_from(&r.alloc) {
                    continue 'instants;
                }
            }
            if tau <= now + 1e-9 {
                start_now.push(qi);
            }
            reservations.push(Reservation {
                start: tau,
                end,
                alloc,
            });
            break;
        }
    }
    ConservativePlan { start_now }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Running;
    use jigsaw_core::Scheme;
    use jigsaw_topology::FatTree;

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
        let plan = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &[],
            &queue,
            0.0,
            50,
        );
        // First two fill the machine; the third reserves later.
        assert_eq!(plan.start_now, vec![0, 1]);
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
        let plan = plan(&state, alloc.as_ref(), &running, &[], &queue, 0.0, 50);
        assert!(
            !plan.start_now.contains(&1),
            "long filler would delay the head"
        );
        assert!(
            plan.start_now.contains(&2),
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
        let plan = plan(&state, alloc.as_ref(), &running, &[], &queue, 0.0, 50);
        assert!(plan.start_now.is_empty(), "{:?}", plan.start_now);
    }

    #[test]
    fn depth_limits_planning() {
        let (state, alloc) = setup();
        let queue = vec![(0u32, 16u32, 10u16, 10.0), (1, 1, 10, 1.0)];
        let plan = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &[],
            &queue,
            0.0,
            1,
        );
        assert_eq!(plan.start_now, vec![0]);
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
        let fixed = vec![FixedReservation {
            start: 100.0,
            end: 150.0,
            alloc: reserved_alloc,
        }];
        let queue = vec![(0u32, 4u32, 10u16, 500.0), (1, 4, 10, 50.0)];
        let plan = plan(
            &state,
            alloc.as_ref(),
            &RunningSet::new(0),
            &fixed,
            &queue,
            0.0,
            50,
        );
        assert!(
            !plan.start_now.contains(&0),
            "long job would overlap the advance reservation"
        );
        assert!(
            plan.start_now.contains(&1),
            "short job completes before the reserved window"
        );
    }
}
