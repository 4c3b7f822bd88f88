//! The allocator contract the simulator's probe memo relies on (DESIGN §13
//! "Epoch memo"; stated on [`Allocator::decide`]), checked for all five
//! schemes on randomly churned radix-4 and radix-8 machines:
//!
//! * a rejecting `decide` leaves the [`SystemState`] exactly as it was;
//! * an admitting `decide` followed by `release` restores it exactly;
//! * after that, a second `decide` of the same `(size, bw)` under another
//!   job id answers the same: a rejection again, or the same nodes and
//!   links.

use jigsaw_core::{Allocation, Allocator, Decision, JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};
use proptest::prelude::*;

/// The LC+S bandwidth classes plus the exclusive-link mode.
const BW: [u16; 5] = [0, 5, 10, 15, 20];

/// Admit jobs of `sizes` (bandwidth class by index), complete the ones
/// `releases` picks, and refill with small jobs after each completion:
/// holes of every size, partly occupied leaves and shared links.
fn churned(
    scheme: Scheme,
    radix: u32,
    sizes: &[u32],
    releases: &[usize],
) -> (SystemState, Box<dyn Allocator>) {
    let tree = FatTree::maximal(radix).unwrap();
    let mut state = SystemState::new(tree);
    let mut alloc = scheme.make(&tree);
    let mut live: Vec<Allocation> = Vec::new();
    let mut next_id = 0u32;
    let mut admit = |alloc: &mut Box<dyn Allocator>, state: &mut SystemState, size: u32| {
        next_id += 1;
        let bw = BW[next_id as usize % BW.len()];
        alloc
            .try_admit(state, &JobRequest::with_bandwidth(JobId(next_id), size, bw))
            .ok()
    };
    for &size in sizes {
        live.extend(admit(&mut alloc, &mut state, size));
    }
    for &r in releases {
        if live.is_empty() {
            break;
        }
        let done = live.swap_remove(r % live.len());
        alloc.release(&mut state, &done);
        let refill = 1 + (r as u32 % 3);
        live.extend(admit(&mut alloc, &mut state, refill));
    }
    (state, alloc)
}

/// The resources a decision claimed, for comparing two admissions.
fn footprint(a: &Allocation) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    (
        a.nodes.iter().map(|n| n.0).collect(),
        a.leaf_links.iter().map(|l| l.0).collect(),
        a.spine_links.iter().map(|l| l.0).collect(),
    )
}

/// Check the contract for every scheme on one churn script, probing each
/// `(size, bw)` of `probes`.
fn check_contract(radix: u32, sizes: &[u32], releases: &[usize], probes: &[(u32, usize)]) {
    for scheme in Scheme::ALL {
        let (mut state, mut alloc) = churned(scheme, radix, sizes, releases);
        for (p, &(size, bw_class)) in probes.iter().enumerate() {
            let bw = BW[bw_class % BW.len()];
            let before = state.clone();
            let first = JobRequest::with_bandwidth(JobId(50_000 + p as u32), size, bw);
            let second = JobRequest::with_bandwidth(JobId(60_000 + p as u32), size, bw);
            match alloc.decide(&mut state, &first) {
                Decision::Admit(a) => {
                    alloc.release(&mut state, &a);
                    assert!(
                        state == before,
                        "{scheme}: admit + release of size {size} bw {bw} changed the state"
                    );
                    match alloc.decide(&mut state, &second) {
                        Decision::Admit(b) => {
                            assert_eq!(
                                footprint(&a),
                                footprint(&b),
                                "{scheme}: size {size} bw {bw} placed differently under another id"
                            );
                            alloc.release(&mut state, &b);
                        }
                        other => panic!(
                            "{scheme}: size {size} bw {bw} admitted, then {} under another id",
                            other.kind()
                        ),
                    }
                }
                Decision::Reject(_) | Decision::Reconfigure(_) => {
                    assert!(
                        state == before,
                        "{scheme}: a rejecting decide of size {size} bw {bw} changed the state"
                    );
                    let again = alloc.decide(&mut state, &second);
                    assert!(
                        !again.is_admit(),
                        "{scheme}: size {size} bw {bw} rejected, then admitted under another id"
                    );
                }
            }
            assert!(
                state == before,
                "{scheme}: probe {p} left the state changed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decide_is_a_pure_probe_on_radix_4(
        sizes in proptest::collection::vec(1u32..9, 2..12),
        releases in proptest::collection::vec(any::<usize>(), 0..8),
        probes in proptest::collection::vec((1u32..18, 0usize..5), 1..8),
    ) {
        check_contract(4, &sizes, &releases, &probes);
    }

    #[test]
    fn decide_is_a_pure_probe_on_radix_8(
        sizes in proptest::collection::vec(1u32..40, 4..24),
        releases in proptest::collection::vec(any::<usize>(), 0..16),
        probes in proptest::collection::vec((1u32..130, 0usize..5), 1..10),
    ) {
        check_contract(8, &sizes, &releases, &probes);
    }
}
