//! Structured allocations.
//!
//! An [`Allocation`] is the exact set of nodes and links granted to a job,
//! together with a structured [`Shape`] describing *how* the resources are
//! arranged. The shape is what the formal conditions of §3.2.2 constrain and
//! what the wraparound routing of §4 consumes; the flat resource lists are
//! what the [`SystemState`] bookkeeping
//! claims and releases.

use jigsaw_topology::bitset::iter_mask;
use jigsaw_topology::cast::count_u32;
use jigsaw_topology::ids::{JobId, LeafId, LeafLinkId, NodeId, PodId, SpineLinkId};
use jigsaw_topology::{FatTree, SystemState};
use serde::{Deserialize, Serialize};

/// One full (non-remainder) two-level tree of a three-level allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeAlloc {
    /// The pod hosting this tree of the allocation.
    pub pod: PodId,
    /// The `L_T` leaves holding `n_L` nodes each.
    pub leaves: Vec<LeafId>,
}

/// The optional remainder tree of a three-level allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemTree {
    /// The pod hosting the remainder tree.
    pub pod: PodId,
    /// `L_T^r < L_T` leaves holding `n_L` nodes each.
    pub leaves: Vec<LeafId>,
    /// The optional remainder leaf: `(leaf, n_L^r, S^r)` with
    /// `n_L^r < n_L` nodes and uplinks at positions `S^r ⊂ S`.
    pub rem_leaf: Option<(LeafId, u32, u64)>,
    /// Per L2 position `i`: the spine slots `S*^r_i ⊆ S*_i` this tree's L2
    /// switch `i` uplinks to. Indexed by position; zero for positions ∉ S.
    pub spine_sets: Vec<u64>,
}

/// The arrangement of an allocation's resources.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Shape {
    /// All nodes under a single leaf switch. Intra-leaf traffic crosses only
    /// the leaf crossbar, so no links are allocated (the high-utilization
    /// condition of §3.2.3 demands the *minimum* number of links).
    SingleLeaf {
        /// The leaf.
        leaf: LeafId,
        /// Node count on it.
        n: u32,
    },
    /// A two-level (single-subtree) allocation: `L_T` leaves with `n_L`
    /// nodes each plus an optional remainder leaf, all within one pod.
    TwoLevel {
        /// The pod.
        pod: PodId,
        /// Nodes per full leaf (`n_L`).
        n_l: u32,
        /// The `L_T` full leaves.
        leaves: Vec<LeafId>,
        /// L2 positions `S` shared by every full leaf; `|S| = n_L`.
        l2_set: u64,
        /// Optional remainder leaf `(leaf, n_L^r, S^r ⊂ S)`.
        rem_leaf: Option<(LeafId, u32, u64)>,
    },
    /// A three-level allocation: `T` identical trees plus an optional
    /// remainder tree, connected through per-position spine sets.
    ThreeLevel {
        /// Nodes per full leaf (`n_L`; equals the leaf size under Jigsaw's
        /// full-leaf restriction, may be smaller under LC+S).
        n_l: u32,
        /// Full leaves per full tree (`L_T`).
        l_t: u32,
        /// L2 positions `S` used in every tree; `|S| = n_L` (condition 5).
        l2_set: u64,
        /// The `T` full trees.
        trees: Vec<TreeAlloc>,
        /// Per L2 position `i ∈ S`: spine slots `S*_i` (condition 6);
        /// `|S*_i| = L_T`. Indexed by position; zero for positions ∉ S.
        spine_sets: Vec<u64>,
        /// Optional remainder tree.
        rem_tree: Option<RemTree>,
    },
    /// No network structure: Baseline and TA allocate nodes only.
    Unstructured,
}

impl Shape {
    /// Number of nodes the shape describes.
    pub fn node_count(&self) -> u32 {
        match self {
            Shape::SingleLeaf { n, .. } => *n,
            Shape::TwoLevel {
                n_l,
                leaves,
                rem_leaf,
                ..
            } => n_l * count_u32(leaves.len()) + rem_leaf.map_or(0, |(_, n, _)| n),
            Shape::ThreeLevel {
                n_l,
                trees,
                rem_tree,
                ..
            } => {
                let full: u32 = trees.iter().map(|t| n_l * count_u32(t.leaves.len())).sum();
                let rem = rem_tree.as_ref().map_or(0, |r| {
                    n_l * count_u32(r.leaves.len()) + r.rem_leaf.map_or(0, |(_, n, _)| n)
                });
                full + rem
            }
            Shape::Unstructured => 0,
        }
    }

    /// Visit every `(leaf, node-count)` pair of the shape, in a
    /// deterministic order (full trees first, remainder last). The
    /// closure-based form lets hot paths walk the shape without building a
    /// list; [`Shape::leaf_occupancy`] is the collecting wrapper.
    pub fn for_each_occupied_leaf(&self, mut f: impl FnMut(LeafId, u32)) {
        match self {
            Shape::SingleLeaf { leaf, n } => f(*leaf, *n),
            Shape::TwoLevel {
                n_l,
                leaves,
                rem_leaf,
                ..
            } => {
                for &l in leaves {
                    f(l, *n_l);
                }
                if let Some((l, n, _)) = rem_leaf {
                    f(*l, *n);
                }
            }
            Shape::ThreeLevel {
                n_l,
                trees,
                rem_tree,
                ..
            } => {
                for t in trees {
                    for &l in &t.leaves {
                        f(l, *n_l);
                    }
                }
                if let Some(r) = rem_tree {
                    for &l in &r.leaves {
                        f(l, *n_l);
                    }
                    if let Some((l, n, _)) = r.rem_leaf {
                        f(l, n);
                    }
                }
            }
            Shape::Unstructured => {}
        }
    }

    /// Every `(leaf, node-count)` pair of the shape, in a deterministic
    /// order (full trees first, remainder last).
    pub fn leaf_occupancy(&self) -> Vec<(LeafId, u32)> {
        let mut v = Vec::new();
        self.for_each_occupied_leaf(|leaf, n| v.push((leaf, n)));
        v
    }

    /// The leaf↔L2 links the shape implies.
    ///
    /// Convenience wrapper over [`Shape::leaf_links_into`], the primary
    /// allocation-free form; hot paths should call `_into` with a reused
    /// buffer.
    #[must_use]
    pub fn leaf_links(&self, tree: &FatTree) -> Vec<LeafLinkId> {
        let mut links = Vec::new();
        self.leaf_links_into(tree, &mut links);
        links
    }

    /// Append the shape's leaf↔L2 links to `links` without allocating.
    pub fn leaf_links_into(&self, tree: &FatTree, links: &mut Vec<LeafLinkId>) {
        match self {
            Shape::SingleLeaf { .. } | Shape::Unstructured => {}
            Shape::TwoLevel {
                leaves,
                l2_set,
                rem_leaf,
                ..
            } => {
                for &leaf in leaves {
                    for pos in iter_mask(*l2_set) {
                        links.push(tree.leaf_link(leaf, pos));
                    }
                }
                if let Some((leaf, _, s_r)) = rem_leaf {
                    for pos in iter_mask(*s_r) {
                        links.push(tree.leaf_link(*leaf, pos));
                    }
                }
            }
            Shape::ThreeLevel {
                l2_set,
                trees,
                rem_tree,
                ..
            } => {
                for t in trees {
                    for &leaf in &t.leaves {
                        for pos in iter_mask(*l2_set) {
                            links.push(tree.leaf_link(leaf, pos));
                        }
                    }
                }
                if let Some(r) = rem_tree {
                    for &leaf in &r.leaves {
                        for pos in iter_mask(*l2_set) {
                            links.push(tree.leaf_link(leaf, pos));
                        }
                    }
                    if let Some((leaf, _, s_r)) = r.rem_leaf {
                        for pos in iter_mask(s_r) {
                            links.push(tree.leaf_link(leaf, pos));
                        }
                    }
                }
            }
        }
    }

    /// The L2↔spine links the shape implies (three-level shapes only).
    ///
    /// Convenience wrapper over [`Shape::spine_links_into`], the primary
    /// allocation-free form; hot paths should call `_into` with a reused
    /// buffer.
    #[must_use]
    pub fn spine_links(&self, tree: &FatTree) -> Vec<SpineLinkId> {
        let mut links = Vec::new();
        self.spine_links_into(tree, &mut links);
        links
    }

    /// Append the shape's L2↔spine links to `links` without allocating.
    pub fn spine_links_into(&self, tree: &FatTree, links: &mut Vec<SpineLinkId>) {
        if let Shape::ThreeLevel {
            trees,
            spine_sets,
            rem_tree,
            ..
        } = self
        {
            for t in trees {
                for (pos, &slots) in spine_sets.iter().enumerate() {
                    for slot in iter_mask(slots) {
                        links.push(tree.spine_link_at(t.pod, count_u32(pos), slot));
                    }
                }
            }
            if let Some(r) = rem_tree {
                for (pos, &slots) in r.spine_sets.iter().enumerate() {
                    for slot in iter_mask(slots) {
                        links.push(tree.spine_link_at(r.pod, count_u32(pos), slot));
                    }
                }
            }
        }
    }
}

/// The exact resources granted to one job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// The owning job.
    pub job: JobId,
    /// Nodes the job asked for (`N_r`). May be smaller than `nodes.len()`
    /// under LaaS, whose rounding *assigns* extra nodes the job cannot use
    /// (internal fragmentation, Fig. 2-left of the paper).
    pub requested: u32,
    /// The specific nodes assigned.
    pub nodes: Vec<NodeId>,
    /// Exclusively owned (or bandwidth-shared) leaf↔L2 links.
    pub leaf_links: Vec<LeafLinkId>,
    /// Exclusively owned (or bandwidth-shared) L2↔spine links.
    pub spine_links: Vec<SpineLinkId>,
    /// `0` ⇒ links are owned exclusively; `> 0` ⇒ that much bandwidth
    /// (tenths of GB/s) is reserved on each link (LC+S).
    pub bw_tenths: u16,
    /// The structured arrangement.
    pub shape: Shape,
}

impl Allocation {
    /// Build an allocation from a shape by picking the lowest-indexed free
    /// nodes on each leaf of the shape. The shape's resources must be
    /// available in `state` (allocator searches guarantee this).
    pub fn from_shape(
        state: &SystemState,
        job: JobId,
        requested: u32,
        bw_tenths: u16,
        shape: Shape,
    ) -> Allocation {
        Allocation::from_shape_with(
            &mut crate::scratch::SearchScratch::default(),
            state,
            job,
            requested,
            bw_tenths,
            shape,
        )
    }

    /// [`Allocation::from_shape`] drawing the node and link vectors from a
    /// [`SearchScratch`](crate::scratch::SearchScratch) — alloc-free once
    /// the pools are warm. [`SearchScratch::recycle`](crate::scratch::SearchScratch::recycle)
    /// returns the vectors when the allocation is spent.
    pub fn from_shape_with(
        scratch: &mut crate::scratch::SearchScratch,
        state: &SystemState,
        job: JobId,
        requested: u32,
        bw_tenths: u16,
        shape: Shape,
    ) -> Allocation {
        let tree = state.tree();
        let mut nodes = scratch.nodes.take();
        shape.for_each_occupied_leaf(|leaf, count| {
            free_nodes_on_into(state, leaf, count, &mut nodes);
        });
        let mut leaf_links = scratch.leaf_links.take();
        shape.leaf_links_into(tree, &mut leaf_links);
        let mut spine_links = scratch.spine_links.take();
        shape.spine_links_into(tree, &mut spine_links);
        Allocation {
            job,
            requested,
            nodes,
            leaf_links,
            spine_links,
            bw_tenths,
            shape,
        }
    }

    /// Total links of both layers.
    pub fn link_count(&self) -> usize {
        self.leaf_links.len() + self.spine_links.len()
    }

    /// `true` iff this allocation shares no node or link with `other`.
    /// Fractionally shared links are still counted as an intersection.
    ///
    /// A linear merge when both lists are sorted; otherwise the lists are
    /// sorted on copies first.
    pub fn is_disjoint_from(&self, other: &Allocation) -> bool {
        disjoint(&self.nodes, &other.nodes)
            && disjoint(&self.leaf_links, &other.leaf_links)
            && disjoint(&self.spine_links, &other.spine_links)
    }
}

/// `true` iff the two resource lists share no element.
fn disjoint<T: Ord + Copy>(a: &[T], b: &[T]) -> bool {
    if a.is_empty() || b.is_empty() {
        return true;
    }
    if a.is_sorted() && b.is_sorted() {
        return disjoint_sorted(a, b);
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    disjoint_sorted(&a, &b)
}

/// [`disjoint`] for sorted lists: one merge pass.
fn disjoint_sorted<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// The lowest-indexed `count` free nodes under `leaf`.
///
/// Convenience wrapper over [`free_nodes_on_into`], the primary
/// allocation-free form; hot paths should call `_into` with a reused buffer.
///
/// # Panics
/// If the leaf has fewer free nodes (allocator search bug).
#[must_use]
pub fn free_nodes_on(state: &SystemState, leaf: LeafId, count: u32) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(count as usize);
    free_nodes_on_into(state, leaf, count, &mut out);
    out
}

/// Append the lowest-indexed `count` free nodes under `leaf` to `out`
/// without allocating: one `u64` mask walk, no per-slot ownership probes.
///
/// # Panics
/// If the leaf has fewer free nodes (allocator search bug).
pub fn free_nodes_on_into(state: &SystemState, leaf: LeafId, count: u32, out: &mut Vec<NodeId>) {
    let before = out.len();
    out.extend(state.free_nodes_on_leaf_iter(leaf).take(count as usize));
    assert!(
        out.len() - before == count as usize,
        "leaf {leaf} has fewer than {count} free nodes"
    );
}

/// Claim every resource of `alloc` in `state`, one leaf (or L2 switch) run
/// at a time: consecutive nodes or links of one leaf are one
/// [`SystemState::claim_leaf_nodes`] / [`SystemState::claim_leaf_uplinks`]
/// call, which checks each element and updates the derived indices once.
///
/// Exclusive mode (`bw_tenths == 0`) takes ownership of each link;
/// fractional mode reserves bandwidth instead.
///
/// # Panics
/// On any isolation violation (resource already taken, or listed twice) —
/// allocator searches must only produce available resources.
pub fn claim_allocation(state: &mut SystemState, alloc: &Allocation) {
    let tree = *state.tree();
    for (leaf, slots) in tree.node_runs(&alloc.nodes) {
        state.claim_leaf_nodes(leaf, slots, alloc.job);
    }
    if alloc.bw_tenths == 0 {
        for (leaf, positions) in tree.leaf_link_runs(&alloc.leaf_links) {
            state.claim_leaf_uplinks(leaf, positions, alloc.job);
        }
        for (l2, slots) in tree.spine_link_runs(&alloc.spine_links) {
            state.claim_spine_uplinks(l2, slots, alloc.job);
        }
    } else {
        for &l in &alloc.leaf_links {
            assert!(
                state.try_reserve_leaf_link_bw(l, alloc.bw_tenths),
                "bandwidth over-commit on {l}"
            );
        }
        for &l in &alloc.spine_links {
            assert!(
                state.try_reserve_spine_link_bw(l, alloc.bw_tenths),
                "bandwidth over-commit on {l}"
            );
        }
    }
}

/// Release every resource of `alloc` from `state`, one leaf (or L2 switch)
/// run at a time — the inverse of [`claim_allocation`].
///
/// # Panics
/// On a double release (a resource already free, or listed twice).
pub fn release_allocation(state: &mut SystemState, alloc: &Allocation) {
    let tree = *state.tree();
    for (leaf, slots) in tree.node_runs(&alloc.nodes) {
        state.release_leaf_nodes(leaf, slots);
    }
    if alloc.bw_tenths == 0 {
        for (leaf, positions) in tree.leaf_link_runs(&alloc.leaf_links) {
            state.release_leaf_uplinks(leaf, positions);
        }
        for (l2, slots) in tree.spine_link_runs(&alloc.spine_links) {
            state.release_spine_uplinks(l2, slots);
        }
    } else {
        for &l in &alloc.leaf_links {
            state.release_leaf_link_bw(l, alloc.bw_tenths);
        }
        for &l in &alloc.spine_links {
            state.release_spine_link_bw(l, alloc.bw_tenths);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_topology::FatTree;
    use proptest::prelude::*;

    /// The copy-and-sort version of [`disjoint`], kept as its oracle.
    fn disjoint_oracle(a: &[u32], b: &[u32]) -> bool {
        let mut a = a.to_vec();
        let mut b = b.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        a.iter().all(|x| b.binary_search(x).is_err())
    }

    /// An unstructured allocation over the given raw resource ids.
    fn raw_alloc(nodes: &[u32], leaf_links: &[u32], spine_links: &[u32]) -> Allocation {
        Allocation {
            job: JobId(1),
            requested: count_u32(nodes.len()),
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            leaf_links: leaf_links.iter().map(|&l| LeafLinkId(l)).collect(),
            spine_links: spine_links.iter().map(|&l| SpineLinkId(l)).collect(),
            bw_tenths: 0,
            shape: Shape::Unstructured,
        }
    }

    /// Distinct ids, sorted or in random order, so both the merge and the
    /// sorted-copy fallback run.
    fn id_list() -> impl Strategy<Value = Vec<u32>> {
        (
            proptest::collection::vec(0u32..600, 0..60),
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(mut ids, sorted, seed)| {
                ids.sort_unstable();
                ids.dedup();
                if !sorted && ids.len() > 1 {
                    let n = ids.len();
                    let mut x = seed | 1;
                    for i in (1..n).rev() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ids.swap(i, (x % (i as u64 + 1)) as usize);
                    }
                }
                ids
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn is_disjoint_from_matches_the_sorting_oracle(
            a_lists in (id_list(), id_list(), id_list()),
            b_lists in (id_list(), id_list(), id_list()),
        ) {
            let (an, al, asp) = a_lists;
            let (bn, bl, bsp) = b_lists;
            let a = raw_alloc(&an, &al, &asp);
            let b = raw_alloc(&bn, &bl, &bsp);
            let want = disjoint_oracle(&an, &bn)
                && disjoint_oracle(&al, &bl)
                && disjoint_oracle(&asp, &bsp);
            prop_assert_eq!(a.is_disjoint_from(&b), want);
            prop_assert_eq!(b.is_disjoint_from(&a), want);
        }
    }

    fn tiny_state() -> SystemState {
        SystemState::new(FatTree::maximal(4).unwrap())
    }

    #[test]
    fn claim_and_release_walk_leaf_runs() {
        let mut state = tiny_state();
        // Leaf 0 (nodes 0, 1), leaf 2 (node 4), then leaf 0's links and
        // one spine link: four runs in all.
        let a = raw_alloc(&[0, 1, 4], &[0, 1], &[3]);
        claim_allocation(&mut state, &a);
        state.assert_consistent();
        assert_eq!(state.allocated_node_count(), 3);
        assert_eq!(state.leaf_uplink_free_mask(LeafId(0)), 0);
        release_allocation(&mut state, &a);
        state.assert_consistent();
        assert_eq!(state, tiny_state());
    }

    #[test]
    #[should_panic(expected = "isolation violation")]
    fn double_claim_of_an_allocation_panics() {
        let mut state = tiny_state();
        let a = raw_alloc(&[0, 1], &[], &[]);
        claim_allocation(&mut state, &a);
        claim_allocation(&mut state, &a);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_of_an_allocation_panics() {
        let mut state = tiny_state();
        let a = raw_alloc(&[0, 1], &[0], &[0]);
        claim_allocation(&mut state, &a);
        release_allocation(&mut state, &a);
        release_allocation(&mut state, &a);
    }

    #[test]
    #[should_panic(expected = "isolation violation: NodeId(1) already owned")]
    fn node_listed_twice_in_one_allocation_panics() {
        claim_allocation(&mut tiny_state(), &raw_alloc(&[0, 1, 1], &[], &[]));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn leaf_link_listed_twice_in_one_allocation_panics() {
        claim_allocation(&mut tiny_state(), &raw_alloc(&[], &[2, 3, 2], &[]));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn spine_link_listed_twice_in_one_allocation_panics() {
        claim_allocation(&mut tiny_state(), &raw_alloc(&[], &[], &[5, 5]));
    }

    #[test]
    #[should_panic(expected = "double release of NodeId(1)")]
    fn node_listed_twice_in_a_release_panics() {
        let mut state = tiny_state();
        claim_allocation(&mut state, &raw_alloc(&[0, 1], &[], &[]));
        release_allocation(&mut state, &raw_alloc(&[0, 1, 1], &[], &[]));
    }

    #[test]
    fn single_leaf_shape_has_no_links() {
        let state = tiny_state();
        let shape = Shape::SingleLeaf {
            leaf: LeafId(2),
            n: 2,
        };
        assert_eq!(shape.node_count(), 2);
        assert!(shape.leaf_links(state.tree()).is_empty());
        assert!(shape.spine_links(state.tree()).is_empty());
    }

    #[test]
    fn two_level_shape_links() {
        let state = tiny_state();
        // Pod 0, two leaves with 1 node each on L2 position 0,
        // no remainder.
        let shape = Shape::TwoLevel {
            pod: PodId(0),
            n_l: 1,
            leaves: vec![LeafId(0), LeafId(1)],
            l2_set: 0b01,
            rem_leaf: None,
        };
        assert_eq!(shape.node_count(), 2);
        let links = shape.leaf_links(state.tree());
        assert_eq!(links.len(), 2);
        assert!(shape.spine_links(state.tree()).is_empty());
    }

    #[test]
    fn three_level_shape_links_count() {
        let state = tiny_state();
        let tree = *state.tree();
        // Two pods, each with 2 full leaves of 2 nodes (full pods), all L2
        // positions, spine sets of size L_T = 2 per position.
        let shape = Shape::ThreeLevel {
            n_l: 2,
            l_t: 2,
            l2_set: 0b11,
            trees: vec![
                TreeAlloc {
                    pod: PodId(0),
                    leaves: vec![LeafId(0), LeafId(1)],
                },
                TreeAlloc {
                    pod: PodId(1),
                    leaves: vec![LeafId(2), LeafId(3)],
                },
            ],
            spine_sets: vec![0b11, 0b11],
            rem_tree: None,
        };
        assert_eq!(shape.node_count(), 8);
        // 4 leaves × 2 uplinks.
        assert_eq!(shape.leaf_links(&tree).len(), 8);
        // 2 pods × 2 positions × 2 spine slots.
        assert_eq!(shape.spine_links(&tree).len(), 8);
    }

    #[test]
    fn claim_release_roundtrip_exclusive() {
        let mut state = tiny_state();
        let shape = Shape::TwoLevel {
            pod: PodId(0),
            n_l: 1,
            leaves: vec![LeafId(0), LeafId(1)],
            l2_set: 0b01,
            rem_leaf: None,
        };
        let alloc = Allocation::from_shape(&state, JobId(1), 2, 0, shape);
        assert_eq!(alloc.nodes, vec![NodeId(0), NodeId(2)]);
        claim_allocation(&mut state, &alloc);
        assert_eq!(state.allocated_node_count(), 2);
        assert_eq!(state.leaf_uplink_free_mask(LeafId(0)), 0b10);
        state.assert_consistent();
        release_allocation(&mut state, &alloc);
        assert_eq!(state.allocated_node_count(), 0);
        assert_eq!(state.leaf_uplink_free_mask(LeafId(0)), 0b11);
        state.assert_consistent();
    }

    #[test]
    fn claim_release_roundtrip_fractional() {
        let mut state = tiny_state();
        let shape = Shape::TwoLevel {
            pod: PodId(0),
            n_l: 1,
            leaves: vec![LeafId(0), LeafId(1)],
            l2_set: 0b01,
            rem_leaf: None,
        };
        let link = state.tree().leaf_link(LeafId(0), 0);
        let a = Allocation::from_shape(&state, JobId(1), 2, 15, shape.clone());
        claim_allocation(&mut state, &a);
        assert_eq!(state.leaf_link_bw_used(link), 15);
        // A second fractional job can share the same links.
        let mut nodes_shape = shape;
        if let Shape::TwoLevel {
            n_l: _, leaves: _, ..
        } = &mut nodes_shape
        {}
        let b = Allocation {
            job: JobId(2),
            requested: 2,
            nodes: vec![NodeId(1), NodeId(3)],
            leaf_links: a.leaf_links.clone(),
            spine_links: vec![],
            bw_tenths: 20,
            shape: Shape::Unstructured,
        };
        claim_allocation(&mut state, &b);
        assert_eq!(state.leaf_link_bw_used(link), 35);
        release_allocation(&mut state, &a);
        release_allocation(&mut state, &b);
        assert_eq!(state.leaf_link_bw_used(link), 0);
        state.assert_consistent();
    }

    #[test]
    fn disjointness() {
        let state = tiny_state();
        let a = Allocation::from_shape(
            &state,
            JobId(1),
            2,
            0,
            Shape::SingleLeaf {
                leaf: LeafId(0),
                n: 2,
            },
        );
        let b = Allocation::from_shape(
            &state,
            JobId(2),
            2,
            0,
            Shape::SingleLeaf {
                leaf: LeafId(1),
                n: 2,
            },
        );
        assert!(a.is_disjoint_from(&b));
        assert!(!a.is_disjoint_from(&a));
    }

    #[test]
    #[should_panic(expected = "fewer than")]
    fn from_shape_panics_when_leaf_exhausted() {
        let mut state = tiny_state();
        state.claim_node(NodeId(0), JobId(9));
        state.claim_node(NodeId(1), JobId(9));
        let _ = Allocation::from_shape(
            &state,
            JobId(1),
            1,
            0,
            Shape::SingleLeaf {
                leaf: LeafId(0),
                n: 1,
            },
        );
    }

    #[test]
    fn leaf_occupancy_orders_remainder_last() {
        let shape = Shape::TwoLevel {
            pod: PodId(0),
            n_l: 2,
            leaves: vec![LeafId(0)],
            l2_set: 0b11,
            rem_leaf: Some((LeafId(1), 1, 0b01)),
        };
        assert_eq!(shape.leaf_occupancy(), vec![(LeafId(0), 2), (LeafId(1), 1)]);
        assert_eq!(shape.node_count(), 3);
    }
}
