//! Property-based tests for the topology substrate: id arithmetic is a
//! bijection, and the incrementally maintained allocation-state indices
//! agree with recomputation after arbitrary operation sequences.

use jigsaw_topology::bitset::iter_mask;
use jigsaw_topology::ids::{JobId, L2Id, LeafId, NodeId};
use jigsaw_topology::{FatTree, FatTreeParams, SystemState};
use proptest::prelude::*;

/// Strategy: valid (possibly non-maximal, possibly tapered) parameters.
fn params() -> impl Strategy<Value = FatTreeParams> {
    (1u32..6, 1u32..6, 1u32..6, 1u32..6, 1u32..6).prop_map(|(p, l, m, w, g)| {
        FatTreeParams::new(p, l, m, w, g).expect("small parameters are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// node → (leaf, slot) → node round-trips for every node.
    #[test]
    fn node_addressing_is_a_bijection(p in params()) {
        let tree = FatTree::new(p);
        for node in tree.nodes() {
            let leaf = tree.leaf_of_node(node);
            let slot = tree.node_slot(node);
            prop_assert_eq!(tree.node_at(leaf, slot), node);
            prop_assert!(tree.pod_of_leaf(leaf).0 < tree.num_pods());
        }
        // Every (leaf, slot) pair maps to a distinct node.
        let mut seen = vec![false; tree.num_nodes() as usize];
        for leaf in tree.leaves() {
            for slot in 0..tree.nodes_per_leaf() {
                let n = tree.node_at(leaf, slot);
                prop_assert!(!seen[n.idx()]);
                seen[n.idx()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Link endpoint arithmetic round-trips.
    #[test]
    fn link_addressing_round_trips(p in params()) {
        let tree = FatTree::new(p);
        for leaf in tree.leaves() {
            for pos in 0..tree.l2_per_pod() {
                let link = tree.leaf_link(leaf, pos);
                prop_assert_eq!(tree.leaf_of_link(link), leaf);
                prop_assert_eq!(tree.l2_position_of_link(link), pos);
            }
        }
        for pod in tree.pods() {
            for pos in 0..tree.l2_per_pod() {
                for slot in 0..tree.spines_per_group() {
                    let link = tree.spine_link_at(pod, pos, slot);
                    let l2 = tree.l2_of_spine_link(link);
                    prop_assert_eq!(tree.pod_of_l2(l2), pod);
                    prop_assert_eq!(tree.l2_position(l2), pos);
                    prop_assert_eq!(tree.spine_slot(tree.spine_of_link(link)), slot);
                }
            }
        }
    }

    /// Arbitrary claim/release interleavings keep the derived indices
    /// consistent (checked by full recomputation) and land back at the
    /// pristine state when all operations are undone.
    #[test]
    fn state_indices_survive_arbitrary_churn(ops in prop::collection::vec((0u32..64, any::<bool>()), 1..120)) {
        let tree = FatTree::maximal(8).unwrap(); // 128 nodes
        let mut state = SystemState::new(tree);
        let pristine = state.clone();
        let mut owned_nodes: Vec<NodeId> = Vec::new();
        let mut owned_links: Vec<(LeafId, u32)> = Vec::new();
        for (k, claim) in ops {
            if claim {
                let node = NodeId(k % tree.num_nodes());
                if state.is_node_free(node) {
                    state.claim_node(node, JobId(1));
                    owned_nodes.push(node);
                }
                let leaf = LeafId(k % tree.num_leaves());
                let pos = k % tree.l2_per_pod();
                if state.leaf_link_owner(tree.leaf_link(leaf, pos)).is_none() {
                    state.claim_leaf_link(tree.leaf_link(leaf, pos), JobId(1));
                    owned_links.push((leaf, pos));
                }
            } else {
                if let Some(node) = owned_nodes.pop() {
                    state.release_node(node);
                }
                if let Some((leaf, pos)) = owned_links.pop() {
                    state.release_leaf_link(tree.leaf_link(leaf, pos));
                }
            }
            state.assert_consistent();
        }
        for node in owned_nodes {
            state.release_node(node);
        }
        for (leaf, pos) in owned_links {
            state.release_leaf_link(tree.leaf_link(leaf, pos));
        }
        prop_assert_eq!(state, pristine);
    }

    /// The per-pod search indices (min free spine slots, max free leaf
    /// nodes) always equal a from-scratch recount, under arbitrary
    /// interleavings of node claims/releases, spine-link claims/releases,
    /// and offline/online transitions.
    #[test]
    fn pod_indices_match_recount(ops in prop::collection::vec((0u32..96, 0u8..5), 1..150)) {
        let tree = FatTree::maximal(6).unwrap(); // 54 nodes, 3 pods
        let mut state = SystemState::new(tree);
        let mut owned_nodes: Vec<NodeId> = Vec::new();
        let mut owned_spines: Vec<jigsaw_topology::ids::SpineLinkId> = Vec::new();
        let mut offline: Vec<NodeId> = Vec::new();
        for (k, op) in ops {
            match op {
                0 => {
                    let node = NodeId(k % tree.num_nodes());
                    if state.is_node_free(node) && !state.is_node_offline(node) {
                        state.claim_node(node, JobId(1));
                        owned_nodes.push(node);
                    }
                }
                1 => {
                    if let Some(node) = owned_nodes.pop() {
                        state.release_node(node);
                    }
                }
                2 => {
                    let pod = jigsaw_topology::ids::PodId(k % tree.num_pods());
                    let pos = k % tree.l2_per_pod();
                    let slot = k % tree.spines_per_group();
                    let link = tree.spine_link_at(pod, pos, slot);
                    if state.spine_link_owner(link).is_none() {
                        state.claim_spine_link(link, JobId(1));
                        owned_spines.push(link);
                    }
                }
                3 => {
                    if let Some(link) = owned_spines.pop() {
                        state.release_spine_link(link);
                    }
                }
                _ => {
                    let node = NodeId(k % tree.num_nodes());
                    if state.is_node_offline(node) {
                        state.set_node_online(node);
                        offline.retain(|&n| n != node);
                    } else if state.is_node_free(node) {
                        state.set_node_offline(node);
                        offline.push(node);
                    }
                }
            }
            for pod in tree.pods() {
                let min_spine = (0..tree.l2_per_pod())
                    .map(|pos| state.spine_uplink_free_mask(tree.l2_at(pod, pos)).count_ones())
                    .min()
                    .unwrap_or(0);
                prop_assert_eq!(state.min_free_spine_slots_in_pod(pod), min_spine);
                let max_leaf = tree
                    .leaves_of_pod(pod)
                    .map(|leaf| state.free_nodes_on_leaf(leaf))
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(state.max_free_nodes_on_leaf_in_pod(pod), max_leaf);
            }
        }
        state.assert_consistent();
    }

    /// The word-parallel free-node mask iterator visits exactly the nodes a
    /// per-slot `is_node_free` scan finds, in the same (ascending-slot)
    /// order, after arbitrary claim/release/offline histories.
    #[test]
    fn mask_iterator_matches_per_slot_scan(ops in prop::collection::vec((0u32..96, 0u8..3), 0..150)) {
        let tree = FatTree::maximal(8).unwrap(); // 128 nodes
        let mut state = SystemState::new(tree);
        let mut owned: Vec<NodeId> = Vec::new();
        for (k, op) in ops {
            let node = NodeId(k % tree.num_nodes());
            match op {
                0 => {
                    if state.is_node_free(node) {
                        state.claim_node(node, JobId(1));
                        owned.push(node);
                    }
                }
                1 => {
                    if let Some(n) = owned.pop() {
                        state.release_node(n);
                    }
                }
                _ => {
                    if state.is_node_offline(node) {
                        state.set_node_online(node);
                    } else if state.is_node_free(node) {
                        state.set_node_offline(node);
                    }
                }
            }
            let mut global_scan_first = None;
            for leaf in tree.leaves() {
                let scan: Vec<NodeId> = (0..tree.nodes_per_leaf())
                    .map(|slot| tree.node_at(leaf, slot))
                    .filter(|&n| state.is_node_free(n))
                    .collect();
                let mask: Vec<NodeId> = state.free_nodes_on_leaf_iter(leaf).collect();
                prop_assert_eq!(&mask, &scan);
                prop_assert_eq!(state.first_free_node_on_leaf(leaf), scan.first().copied());
                prop_assert_eq!(state.free_nodes_on_leaf(leaf) as usize, scan.len());
                if global_scan_first.is_none() {
                    global_scan_first = scan.first().copied();
                }
            }
            prop_assert_eq!(state.first_free_node(), global_scan_first);
        }
        state.assert_consistent();
    }

    /// Fractional reservations never exceed the cap and always release to
    /// zero.
    #[test]
    fn bandwidth_accounting_balances(amounts in prop::collection::vec(1u16..25, 1..30)) {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let link = tree.leaf_link(LeafId(0), 0);
        let cap = state.bandwidth().cap_tenths;
        let mut reserved = Vec::new();
        for amount in amounts {
            if state.try_reserve_leaf_link_bw(link, amount) {
                reserved.push(amount);
            }
            prop_assert!(state.leaf_link_bw_used(link) <= cap);
        }
        for amount in reserved {
            state.release_leaf_link_bw(link, amount);
        }
        prop_assert_eq!(state.leaf_link_bw_used(link), 0);
        state.assert_consistent();
    }

    /// The run forms and the one-bit calls are one code path: random
    /// claim/release sequences applied as runs to one state and bit by bit
    /// to another leave the two equal, with every derived index (the
    /// shared-bandwidth masks included) matching a recount at each step.
    #[test]
    fn run_forms_match_one_bit_calls(ops in prop::collection::vec((0u8..8, 0u32..1024, any::<u64>()), 1..120)) {
        let tree = FatTree::maximal(6).unwrap(); // 3 nodes/leaf, 3 L2/pod, 3 spine slots
        let mut runs = SystemState::new(tree);
        let mut bits = runs.clone();
        // Held runs: (layer, leaf or L2 index, mask); layer 0 nodes,
        // 1 leaf uplinks, 2 spine uplinks.
        let mut held: Vec<(u8, u32, u64)> = Vec::new();
        let mut reserved: Vec<(bool, u32, u16)> = Vec::new();
        for (op, k, mask) in ops {
            let job = JobId(k % 7);
            match op {
                0 => {
                    let leaf = LeafId(k % tree.num_leaves());
                    let slots = mask & runs.leaf_free_node_mask(leaf);
                    if slots != 0 {
                        runs.claim_leaf_nodes(leaf, slots, job);
                        for s in iter_mask(slots) {
                            bits.claim_node(tree.node_at(leaf, s), job);
                        }
                        held.push((0, leaf.0, slots));
                    }
                }
                1 => {
                    let leaf = LeafId(k % tree.num_leaves());
                    let positions = mask
                        & runs.leaf_uplink_free_mask(leaf)
                        & !runs.leaf_uplink_shared_mask(leaf);
                    if positions != 0 {
                        runs.claim_leaf_uplinks(leaf, positions, job);
                        for pos in iter_mask(positions) {
                            bits.claim_leaf_link(tree.leaf_link(leaf, pos), job);
                        }
                        held.push((1, leaf.0, positions));
                    }
                }
                2 => {
                    let l2 = L2Id(k % tree.num_l2());
                    let slots = mask
                        & runs.spine_uplink_free_mask(l2)
                        & !runs.spine_uplink_shared_mask(l2);
                    if slots != 0 {
                        runs.claim_spine_uplinks(l2, slots, job);
                        for s in iter_mask(slots) {
                            bits.claim_spine_link(tree.spine_link(l2, s), job);
                        }
                        held.push((2, l2.0, slots));
                    }
                }
                3 | 4 if !held.is_empty() => {
                    // Release part (op 3) or all (op 4) of a held run.
                    let i = k as usize % held.len();
                    let (layer, g, run) = held[i];
                    let part = if op == 3 && mask & run != 0 { mask & run } else { run };
                    match layer {
                        0 => {
                            runs.release_leaf_nodes(LeafId(g), part);
                            for s in iter_mask(part) {
                                bits.release_node(tree.node_at(LeafId(g), s));
                            }
                        }
                        1 => {
                            runs.release_leaf_uplinks(LeafId(g), part);
                            for pos in iter_mask(part) {
                                bits.release_leaf_link(tree.leaf_link(LeafId(g), pos));
                            }
                        }
                        _ => {
                            runs.release_spine_uplinks(L2Id(g), part);
                            for s in iter_mask(part) {
                                bits.release_spine_link(tree.spine_link(L2Id(g), s));
                            }
                        }
                    }
                    if part == run {
                        held.swap_remove(i);
                    } else {
                        held[i].2 &= !part;
                    }
                }
                5 => {
                    // Fractional bandwidth on a leaf or spine link.
                    let amount = u16::try_from(mask % 20 + 1).unwrap();
                    let leaf_layer = mask & (1 << 40) != 0;
                    let (ok_runs, ok_bits) = if leaf_layer {
                        let link = jigsaw_topology::ids::LeafLinkId(k % tree.num_leaf_links());
                        (runs.try_reserve_leaf_link_bw(link, amount), bits.try_reserve_leaf_link_bw(link, amount))
                    } else {
                        let link = jigsaw_topology::ids::SpineLinkId(k % tree.num_spine_links());
                        (runs.try_reserve_spine_link_bw(link, amount), bits.try_reserve_spine_link_bw(link, amount))
                    };
                    prop_assert_eq!(ok_runs, ok_bits);
                    if ok_runs {
                        let n = if leaf_layer { tree.num_leaf_links() } else { tree.num_spine_links() };
                        reserved.push((leaf_layer, k % n, amount));
                    }
                }
                6 if !reserved.is_empty() => {
                    let (leaf_layer, id, amount) = reserved.swap_remove(k as usize % reserved.len());
                    for s in [&mut runs, &mut bits] {
                        if leaf_layer {
                            s.release_leaf_link_bw(jigsaw_topology::ids::LeafLinkId(id), amount);
                        } else {
                            s.release_spine_link_bw(jigsaw_topology::ids::SpineLinkId(id), amount);
                        }
                    }
                }
                7 => {
                    // Failure injection on a free node, or its repair.
                    let node = NodeId(k % tree.num_nodes());
                    if runs.is_node_offline(node) {
                        prop_assert!(runs.set_node_online(node) && bits.set_node_online(node));
                    } else if runs.is_node_free(node) {
                        prop_assert!(runs.set_node_offline(node) && bits.set_node_offline(node));
                    }
                }
                _ => {}
            }
            runs.assert_consistent();
            prop_assert_eq!(&runs, &bits);
        }
    }
}
