//! Property test: every migration plan the planner returns applies
//! cleanly and soundly on the state it was planned against, under either
//! search scheme.
//!
//! The planner promises ([`plan_migrations`]) that a returned plan was
//! fully executed on a scratch clone — evictions, re-placements, and the
//! triggering admission all through the real allocator — and audited
//! there. This test closes the loop on the REAL state: apply the plan
//! with [`apply_plan`] (per-move release/adopt with a system
//! audit after every move) and check the post-state invariants for any
//! randomly fragmented machine:
//!
//! * the triggering job is admitted with exactly its requested size,
//! * the final schedule passes [`audit_system`] and the topology-level
//!   `assert_consistent`,
//! * every migrated job keeps its size (migration never resizes),
//! * the move count respects the configured bound,
//! * node accounting balances: applying a plan changes the allocated
//!   count by exactly the admitted size.
//!
//! Planning is also checked to be deterministic: the same inputs yield
//! the identical plan.

use jigsaw_core::defrag::{apply_plan, plan_migrations, DefragConfig, PlanScheme};
use jigsaw_core::{audit_system, Allocation, Allocator, JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};
use proptest::prelude::*;

/// Churn a radix-8 machine (128 nodes, 4-node leaves) with `sizes`, then
/// complete the jobs selected by `releases` to scatter holes.
fn fragmented_state(
    sizes: &[u32],
    releases: &[usize],
) -> (SystemState, Box<dyn Allocator>, Vec<Allocation>) {
    let tree = FatTree::maximal(8).unwrap();
    let mut state = SystemState::new(tree);
    let mut alloc = Scheme::Jigsaw.make(&tree);
    let mut live: Vec<Allocation> = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let id = JobId(jigsaw_topology::cast::count_u32(i));
        if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(id, size)) {
            live.push(a);
        }
    }
    // Completions alone hand back leaf-aligned holes (Jigsaw placements
    // are leaf-aligned by construction), which a new job can re-use
    // outright. Fragment for real: backfill every completion with 1-node
    // fillers, then complete every other filler — free capacity ends up
    // scattered as sub-leaf holes across many leaves.
    let mut filler_id = 10_000u32;
    let mut fillers: Vec<Allocation> = Vec::new();
    for &r in releases {
        if live.is_empty() {
            break;
        }
        let done = live.swap_remove(r % live.len());
        alloc.release(&mut state, &done);
        alloc.recycle(done);
        while let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(filler_id), 1)) {
            fillers.push(a);
            filler_id += 1;
        }
    }
    for (i, a) in fillers.into_iter().enumerate() {
        if i % 2 == 0 {
            alloc.release(&mut state, &a);
            alloc.recycle(a);
        } else {
            live.push(a);
        }
    }
    (state, alloc, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn applied_plans_are_sound_under_both_schemes(
        sizes in prop::collection::vec(1u32..9, 48..96),
        releases in prop::collection::vec(0usize..64, 3..10),
        probe_size in 5u32..17,
    ) {
        let (state, alloc, live) = fragmented_state(&sizes, &releases);
        let req = JobRequest::new(JobId(9_999), probe_size);
        let probe = alloc.clone_box().try_admit(&mut state.clone(), &req);
        let reject = match probe {
            Ok(_) => return, // fits outright: nothing to plan
            Err(r) if !r.is_fragmentation() => return,
            Err(r) => r,
        };

        for scheme in [PlanScheme::Greedy, PlanScheme::Anneal { iters: 32, seed: 11 }] {
            let cfg = DefragConfig { scheme, ..DefragConfig::default() };
            let plan = plan_migrations(alloc.as_ref(), &state, &live, &[], &req, reject, &cfg);
            // Planning must be deterministic: same inputs, same plan.
            let again = plan_migrations(alloc.as_ref(), &state, &live, &[], &req, reject, &cfg);
            prop_assert_eq!(&plan, &again);
            let Some(plan) = plan else { continue };

            prop_assert!(plan.moves.len() <= cfg.max_moves);
            for m in &plan.moves {
                prop_assert_eq!(m.from.nodes.len(), m.to.nodes.len());
            }

            // Apply on clones of the REAL state (per-move audits inside).
            let mut state = state.clone();
            let mut alloc = alloc.clone_box();
            let mut live = live.clone();
            let before = state.allocated_node_count();
            let admitted = apply_plan(alloc.as_mut(), &mut state, &mut live, &plan)
                .expect("a plan applies cleanly to the state it was planned on");
            prop_assert_eq!(admitted.job, req.id);
            prop_assert_eq!(admitted.nodes.len() as u32, probe_size);
            prop_assert_eq!(state.allocated_node_count(), before + probe_size);
            live.push(admitted);

            state.assert_consistent();
            prop_assert!(audit_system(&state, &live).is_empty());
        }
    }
}
