//! Interference-freedom of defragmented placements.
//!
//! `core`'s audit proves the formal shape conditions for every placement
//! a [`MigrationPlan`] produces; this test executes the theorem those
//! conditions buy (DESIGN.md §16): after applying a plan on a fragmented
//! machine, the admitted partition AND every migrated partition are
//! still rearrangeable non-blocking — an adversarial permutation of each
//! partition's nodes routes with at most one flow per directed link,
//! confined to the partition's own links.

use jigsaw_core::defrag::{apply_plan, plan_migrations, DefragConfig, PlanScheme};
use jigsaw_core::{Allocation, Allocator, JobRequest, Scheme};
use jigsaw_routing::permutation::reversal_permutation;
use jigsaw_routing::route_permutation;
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};

/// Route the reversal permutation over `alloc` and assert the paper's
/// bound: ≤ 1 flow per directed link.
fn assert_interference_free(tree: &FatTree, alloc: &Allocation) {
    let perm = reversal_permutation(&alloc.nodes);
    let routing = route_permutation(tree, alloc, &perm)
        .unwrap_or_else(|e| panic!("job {} does not route: {e:?}", alloc.job.0));
    assert!(
        routing.max_link_load(tree) <= 1,
        "job {}: a permutation needs a shared link",
        alloc.job.0
    );
}

/// Fragment a radix-8 machine the way the defrag benchmarks do: churn to
/// capacity, complete a few residents, poison the aligned holes with
/// 1-node fillers, complete every other filler.
fn fragmented_state(
    tree: &FatTree,
    releases: &[usize],
) -> (SystemState, Box<dyn Allocator>, Vec<Allocation>) {
    let mut state = SystemState::new(*tree);
    let mut alloc = Scheme::Jigsaw.make(tree);
    let mut live: Vec<Allocation> = Vec::new();
    for i in 0..64u32 {
        let size = 1 + (i * 13 + 7) % 8;
        if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(i), size)) {
            live.push(a);
        }
    }
    let mut filler_id = 10_000u32;
    let mut fillers: Vec<Allocation> = Vec::new();
    for &r in releases {
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

#[test]
fn migrated_partitions_stay_rearrangeable_non_blocking() {
    let tree = FatTree::maximal(8).unwrap();
    let mut plans_applied = 0u32;
    for (case, releases) in [
        vec![0, 5, 11, 3],
        vec![7, 7, 2, 9, 1],
        vec![13, 4, 8],
        vec![2, 17, 6, 10, 14],
    ]
    .iter()
    .enumerate()
    {
        for scheme in [
            PlanScheme::Greedy,
            PlanScheme::Anneal { iters: 32, seed: 3 },
        ] {
            let (mut state, mut alloc, mut live) = fragmented_state(&tree, releases);
            for probe_size in [5u32, 9, 13] {
                let id = JobId(50_000 + jigsaw_topology::cast::count_u32(case) * 10 + probe_size);
                let req = JobRequest::new(id, probe_size);
                let reject = match alloc.try_admit(&mut state, &req) {
                    Ok(a) => {
                        live.push(a);
                        continue;
                    }
                    Err(r) if !r.is_fragmentation() => continue,
                    Err(r) => r,
                };
                let cfg = DefragConfig {
                    scheme,
                    ..DefragConfig::default()
                };
                let Some(plan) =
                    plan_migrations(alloc.as_ref(), &state, &live, &[], &req, reject, &cfg)
                else {
                    continue;
                };
                let admitted = apply_plan(alloc.as_mut(), &mut state, &mut live, &plan)
                    .expect("plan applies to the state it was planned on");
                plans_applied += 1;

                // The theorem, executed: the new partition and every
                // migrated partition still route any permutation with
                // ≤ 1 flow per directed link.
                assert_interference_free(&tree, &admitted);
                for m in &plan.moves {
                    let current = live
                        .iter()
                        .find(|a| a.job == m.job)
                        .expect("migrated job stays live");
                    assert_eq!(current, &m.to, "live set tracks the plan's placements");
                    assert_interference_free(&tree, current);
                }
                live.push(admitted);
            }
        }
    }
    assert!(
        plans_applied >= 4,
        "only {plans_applied} plans applied; the fragmented states are too easy"
    );
}
