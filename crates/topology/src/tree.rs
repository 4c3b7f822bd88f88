//! The [`FatTree`] type: id arithmetic and adjacency for a three-level
//! fat-tree. The topology is fully regular, so adjacency is computed rather
//! than stored.

use crate::bitset::runs;
use crate::error::TopologyError;
use crate::ids::{L2Id, LeafId, LeafLinkId, NodeId, PodId, SpineId, SpineLinkId};
use crate::params::FatTreeParams;
use serde::{Deserialize, Serialize};

/// A three-level fat-tree. Thin wrapper over [`FatTreeParams`] exposing all
/// the id arithmetic the routing and allocation layers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FatTree {
    params: FatTreeParams,
}

impl FatTree {
    /// Build a tree from validated parameters.
    pub fn new(params: FatTreeParams) -> Self {
        FatTree { params }
    }

    /// The maximal radix-`r` tree (see [`FatTreeParams::maximal`]).
    pub fn maximal(radix: u32) -> Result<Self, TopologyError> {
        Ok(FatTree::new(FatTreeParams::maximal(radix)?))
    }

    /// The structural parameters.
    #[inline]
    pub fn params(&self) -> &FatTreeParams {
        &self.params
    }

    /// `true` iff the tree is full bandwidth (see
    /// [`FatTreeParams::is_full_bandwidth`]).
    #[inline]
    pub fn is_full_bandwidth(&self) -> bool {
        self.params.is_full_bandwidth()
    }

    // --- counts ---------------------------------------------------------

    /// Total compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.params.num_nodes()
    }
    /// Total leaf switches.
    #[inline]
    pub fn num_leaves(&self) -> u32 {
        self.params.num_leaves()
    }
    /// Total pods.
    #[inline]
    pub fn num_pods(&self) -> u32 {
        self.params.pods
    }
    /// Total L2 switches.
    #[inline]
    pub fn num_l2(&self) -> u32 {
        self.params.num_l2()
    }
    /// Total spines.
    #[inline]
    pub fn num_spines(&self) -> u32 {
        self.params.num_spines()
    }
    /// Total leaf↔L2 links.
    #[inline]
    pub fn num_leaf_links(&self) -> u32 {
        self.params.num_leaf_links()
    }
    /// Total L2↔spine links.
    #[inline]
    pub fn num_spine_links(&self) -> u32 {
        self.params.num_spine_links()
    }
    /// Nodes per leaf (`W`).
    #[inline]
    pub fn nodes_per_leaf(&self) -> u32 {
        self.params.nodes_per_leaf
    }
    /// Leaves per pod (`L`).
    #[inline]
    pub fn leaves_per_pod(&self) -> u32 {
        self.params.leaves_per_pod
    }
    /// L2 switches per pod (`M`).
    #[inline]
    pub fn l2_per_pod(&self) -> u32 {
        self.params.l2_per_pod
    }
    /// Spines per group (`G`).
    #[inline]
    pub fn spines_per_group(&self) -> u32 {
        self.params.spines_per_group
    }
    /// Nodes per pod (`L * W`).
    #[inline]
    pub fn nodes_per_pod(&self) -> u32 {
        self.params.nodes_per_pod()
    }

    // --- node relations ---------------------------------------------------

    /// The leaf switch a node hangs off.
    #[inline]
    pub fn leaf_of_node(&self, node: NodeId) -> LeafId {
        LeafId(node.0 / self.params.nodes_per_leaf)
    }

    /// A node's slot index within its leaf, `∈ [0, W)`.
    #[inline]
    pub fn node_slot(&self, node: NodeId) -> u32 {
        node.0 % self.params.nodes_per_leaf
    }

    /// The pod a node belongs to.
    #[inline]
    pub fn pod_of_node(&self, node: NodeId) -> PodId {
        self.pod_of_leaf(self.leaf_of_node(node))
    }

    /// The `slot`-th node of a leaf.
    #[inline]
    pub fn node_at(&self, leaf: LeafId, slot: u32) -> NodeId {
        debug_assert!(slot < self.params.nodes_per_leaf);
        NodeId(leaf.0 * self.params.nodes_per_leaf + slot)
    }

    /// Iterator over the nodes of a leaf.
    pub fn nodes_of_leaf(&self, leaf: LeafId) -> impl Iterator<Item = NodeId> {
        let base = leaf.0 * self.params.nodes_per_leaf;
        (base..base + self.params.nodes_per_leaf).map(NodeId)
    }

    // --- leaf / pod relations ----------------------------------------------

    /// The pod a leaf belongs to.
    #[inline]
    pub fn pod_of_leaf(&self, leaf: LeafId) -> PodId {
        PodId(leaf.0 / self.params.leaves_per_pod)
    }

    /// A leaf's index within its pod, `∈ [0, L)`.
    #[inline]
    pub fn leaf_slot(&self, leaf: LeafId) -> u32 {
        leaf.0 % self.params.leaves_per_pod
    }

    /// The `slot`-th leaf of a pod.
    #[inline]
    pub fn leaf_at(&self, pod: PodId, slot: u32) -> LeafId {
        debug_assert!(slot < self.params.leaves_per_pod);
        LeafId(pod.0 * self.params.leaves_per_pod + slot)
    }

    /// Iterator over the leaves of a pod.
    pub fn leaves_of_pod(&self, pod: PodId) -> impl Iterator<Item = LeafId> {
        let base = pod.0 * self.params.leaves_per_pod;
        (base..base + self.params.leaves_per_pod).map(LeafId)
    }

    /// Iterator over all pods.
    pub fn pods(&self) -> impl Iterator<Item = PodId> {
        (0..self.params.pods).map(PodId)
    }

    /// Iterator over all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = LeafId> {
        (0..self.num_leaves()).map(LeafId)
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    // --- L2 / spine relations ----------------------------------------------

    /// The L2 switch at `position` within `pod`.
    #[inline]
    pub fn l2_at(&self, pod: PodId, position: u32) -> L2Id {
        debug_assert!(position < self.params.l2_per_pod);
        L2Id(pod.0 * self.params.l2_per_pod + position)
    }

    /// The pod an L2 switch belongs to.
    #[inline]
    pub fn pod_of_l2(&self, l2: L2Id) -> PodId {
        PodId(l2.0 / self.params.l2_per_pod)
    }

    /// An L2 switch's position within its pod, `∈ [0, M)`.
    #[inline]
    pub fn l2_position(&self, l2: L2Id) -> u32 {
        l2.0 % self.params.l2_per_pod
    }

    /// The spine in `group` at `slot`.
    #[inline]
    pub fn spine_at(&self, group: u32, slot: u32) -> SpineId {
        debug_assert!(group < self.params.l2_per_pod && slot < self.params.spines_per_group);
        SpineId(group * self.params.spines_per_group + slot)
    }

    /// A spine's group (the L2 position it serves).
    #[inline]
    pub fn spine_group(&self, spine: SpineId) -> u32 {
        spine.0 / self.params.spines_per_group
    }

    /// A spine's slot within its group.
    #[inline]
    pub fn spine_slot(&self, spine: SpineId) -> u32 {
        spine.0 % self.params.spines_per_group
    }

    // --- links --------------------------------------------------------------

    /// The link between `leaf` and its pod's L2 switch at `position`.
    #[inline]
    pub fn leaf_link(&self, leaf: LeafId, position: u32) -> LeafLinkId {
        debug_assert!(position < self.params.l2_per_pod);
        LeafLinkId(leaf.0 * self.params.l2_per_pod + position)
    }

    /// The leaf endpoint of a leaf↔L2 link.
    #[inline]
    pub fn leaf_of_link(&self, link: LeafLinkId) -> LeafId {
        LeafId(link.0 / self.params.l2_per_pod)
    }

    /// The L2 position endpoint of a leaf↔L2 link.
    #[inline]
    pub fn l2_position_of_link(&self, link: LeafLinkId) -> u32 {
        link.0 % self.params.l2_per_pod
    }

    /// The L2 switch endpoint of a leaf↔L2 link.
    #[inline]
    pub fn l2_of_leaf_link(&self, link: LeafLinkId) -> L2Id {
        let leaf = self.leaf_of_link(link);
        self.l2_at(self.pod_of_leaf(leaf), self.l2_position_of_link(link))
    }

    /// The link between `l2` and the spine of its group at `slot`.
    #[inline]
    pub fn spine_link(&self, l2: L2Id, slot: u32) -> SpineLinkId {
        debug_assert!(slot < self.params.spines_per_group);
        SpineLinkId(l2.0 * self.params.spines_per_group + slot)
    }

    /// The link between pod `pod`'s L2 at `position` and spine slot `slot`
    /// of group `position`.
    #[inline]
    pub fn spine_link_at(&self, pod: PodId, position: u32, slot: u32) -> SpineLinkId {
        self.spine_link(self.l2_at(pod, position), slot)
    }

    /// The L2 endpoint of an L2↔spine link.
    #[inline]
    pub fn l2_of_spine_link(&self, link: SpineLinkId) -> L2Id {
        L2Id(link.0 / self.params.spines_per_group)
    }

    /// The spine endpoint of an L2↔spine link.
    #[inline]
    pub fn spine_of_link(&self, link: SpineLinkId) -> SpineId {
        let l2 = self.l2_of_spine_link(link);
        let slot = link.0 % self.params.spines_per_group;
        self.spine_at(self.l2_position(l2), slot)
    }

    // --- runs ---------------------------------------------------------------

    /// `nodes` as per-leaf runs `(leaf, slot mask)`: consecutive nodes of one
    /// leaf share a run (see [`runs`] for where a run ends).
    pub fn node_runs<'a>(&self, nodes: &'a [NodeId]) -> impl Iterator<Item = (LeafId, u64)> + 'a {
        runs(nodes.iter().map(|n| n.0), self.params.nodes_per_leaf).map(|(g, m)| (LeafId(g), m))
    }

    /// `links` as per-leaf runs `(leaf, L2-position mask)`.
    pub fn leaf_link_runs<'a>(
        &self,
        links: &'a [LeafLinkId],
    ) -> impl Iterator<Item = (LeafId, u64)> + 'a {
        runs(links.iter().map(|l| l.0), self.params.l2_per_pod).map(|(g, m)| (LeafId(g), m))
    }

    /// `links` as per-L2 runs `(l2, spine-slot mask)`.
    pub fn spine_link_runs<'a>(
        &self,
        links: &'a [SpineLinkId],
    ) -> impl Iterator<Item = (L2Id, u64)> + 'a {
        runs(links.iter().map(|l| l.0), self.params.spines_per_group).map(|(g, m)| (L2Id(g), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FatTree {
        // radix 4: 4 pods, 2 leaves/pod, 2 L2/pod, 2 nodes/leaf, 2 spines/group.
        FatTree::maximal(4).unwrap()
    }

    #[test]
    fn node_leaf_pod_arithmetic() {
        let t = tiny();
        // Node 13: leaf 6, pod 3, slot 1.
        let n = NodeId(13);
        assert_eq!(t.leaf_of_node(n), LeafId(6));
        assert_eq!(t.node_slot(n), 1);
        assert_eq!(t.pod_of_node(n), PodId(3));
        assert_eq!(t.node_at(LeafId(6), 1), n);
    }

    #[test]
    fn leaf_iteration_covers_pod() {
        let t = tiny();
        let leaves: Vec<_> = t.leaves_of_pod(PodId(2)).collect();
        assert_eq!(leaves, vec![LeafId(4), LeafId(5)]);
        for l in &leaves {
            assert_eq!(t.pod_of_leaf(*l), PodId(2));
        }
        assert_eq!(t.leaf_slot(LeafId(5)), 1);
        assert_eq!(t.leaf_at(PodId(2), 1), LeafId(5));
    }

    #[test]
    fn node_iteration_covers_leaf() {
        let t = tiny();
        let nodes: Vec<_> = t.nodes_of_leaf(LeafId(3)).collect();
        assert_eq!(nodes, vec![NodeId(6), NodeId(7)]);
    }

    #[test]
    fn l2_and_spine_arithmetic() {
        let t = tiny();
        let l2 = t.l2_at(PodId(3), 1);
        assert_eq!(l2, L2Id(7));
        assert_eq!(t.pod_of_l2(l2), PodId(3));
        assert_eq!(t.l2_position(l2), 1);
        let s = t.spine_at(1, 0);
        assert_eq!(s, SpineId(2));
        assert_eq!(t.spine_group(s), 1);
        assert_eq!(t.spine_slot(s), 0);
    }

    #[test]
    fn leaf_link_endpoints_roundtrip() {
        let t = tiny();
        for leaf in t.leaves() {
            for pos in 0..t.l2_per_pod() {
                let link = t.leaf_link(leaf, pos);
                assert_eq!(t.leaf_of_link(link), leaf);
                assert_eq!(t.l2_position_of_link(link), pos);
                let l2 = t.l2_of_leaf_link(link);
                assert_eq!(t.pod_of_l2(l2), t.pod_of_leaf(leaf));
                assert_eq!(t.l2_position(l2), pos);
            }
        }
    }

    #[test]
    fn spine_link_endpoints_roundtrip() {
        let t = tiny();
        for pod in t.pods() {
            for pos in 0..t.l2_per_pod() {
                for slot in 0..t.spines_per_group() {
                    let link = t.spine_link_at(pod, pos, slot);
                    let l2 = t.l2_of_spine_link(link);
                    assert_eq!(t.pod_of_l2(l2), pod);
                    assert_eq!(t.l2_position(l2), pos);
                    let spine = t.spine_of_link(link);
                    assert_eq!(t.spine_group(spine), pos);
                    assert_eq!(t.spine_slot(spine), slot);
                }
            }
        }
    }

    #[test]
    fn link_ids_are_dense_and_unique() {
        let t = tiny();
        let mut seen = vec![false; t.num_leaf_links() as usize];
        for leaf in t.leaves() {
            for pos in 0..t.l2_per_pod() {
                let id = t.leaf_link(leaf, pos);
                assert!(!seen[id.idx()], "duplicate link id {id}");
                seen[id.idx()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn spine_connects_to_one_l2_per_pod() {
        // Structural invariant of the maximal tree: spine (group i, slot j)
        // is reachable from pod p only via spine_link_at(p, i, j).
        let t = tiny();
        let mut per_spine = vec![0u32; t.num_spines() as usize];
        for pod in t.pods() {
            for pos in 0..t.l2_per_pod() {
                for slot in 0..t.spines_per_group() {
                    let link = t.spine_link_at(pod, pos, slot);
                    per_spine[t.spine_of_link(link).idx()] += 1;
                }
            }
        }
        // Every spine has exactly `pods` links, one per pod.
        assert!(per_spine.iter().all(|&c| c == t.num_pods()));
    }

    #[test]
    fn runs_group_by_leaf_and_l2() {
        let t = tiny();
        let nodes = [NodeId(0), NodeId(1), NodeId(5), NodeId(4)];
        let got: Vec<_> = t.node_runs(&nodes).collect();
        assert_eq!(got, vec![(LeafId(0), 0b11), (LeafId(2), 0b11)]);
        let links = [t.leaf_link(LeafId(3), 1), t.leaf_link(LeafId(3), 0)];
        let got: Vec<_> = t.leaf_link_runs(&links).collect();
        assert_eq!(got, vec![(LeafId(3), 0b11)]);
        let l2 = t.l2_at(PodId(1), 1);
        let links = [t.spine_link(l2, 1), t.spine_link(l2, 1)];
        let got: Vec<_> = t.spine_link_runs(&links).collect();
        assert_eq!(
            got,
            vec![(l2, 0b10), (l2, 0b10)],
            "a repeat opens a new run"
        );
    }
}
