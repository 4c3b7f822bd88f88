//! Link-level allocation state for a fat-tree.
//!
//! [`SystemState`] tracks which job owns every node, every leaf↔L2 link and
//! every L2↔spine link, together with the derived free-capacity indices the
//! allocator searches consult on their hot paths:
//!
//! * per-leaf free-node counts,
//! * per-leaf bitmask of free uplinks (bit `i` ⇔ the link to the pod's L2
//!   switch at position `i` is free),
//! * per-L2 bitmask of free spine uplinks (bit `j` ⇔ the link to slot `j` of
//!   the matching spine group is free),
//! * per-leaf and per-L2 bitmasks of uplinks carrying fractional bandwidth,
//! * per-pod counts of free nodes and of *fully free* leaves (all nodes and
//!   all uplinks free — the unit of Jigsaw's three-level search).
//!
//! Ownership changes one leaf (or one L2 switch) at a time: the run forms
//! [`SystemState::claim_leaf_nodes`], [`SystemState::claim_leaf_uplinks`],
//! [`SystemState::claim_spine_uplinks`] and their releases take a slot mask,
//! check and set each element's owner, and update every derived index once
//! per run. The per-element calls (`claim_node`, `release_leaf_link`, …) are
//! one-bit runs through the same code.
//!
//! Exclusive ownership (Jigsaw, LaaS) and fractional bandwidth reservation
//! (LC+S, §5.4.2 of the paper) are both supported; a link is *free* only if
//! it has no exclusive owner **and** no reserved bandwidth, so the two modes
//! compose safely.
//!
//! The state is plain data and `Clone` is cheap (a few `Vec`s of machine
//! words), which the EASY-backfilling reservation logic exploits by
//! replaying future completions on a scratch copy.

use crate::bitset::iter_mask;
use crate::cast::count_u32;
use crate::ids::{JobId, L2Id, LeafId, LeafLinkId, NodeId, PodId, SpineLinkId};
use crate::tree::FatTree;
use serde::{Deserialize, Serialize};

/// Sentinel meaning "no owner".
const FREE: u32 = u32::MAX;
/// Sentinel meaning "node offline" (failed hardware); not free, owned by
/// no job.
const OFFLINE: u32 = u32::MAX - 1;

/// Link bandwidth configuration for fractional (LC+S-style) reservation.
///
/// Bandwidth is tracked in tenths of GB/s to keep the arithmetic integral
/// and exact. The paper's setting (§5.4.2): 5 GB/s links, total utilization
/// capped at 80% (4 GB/s), job classes from 0.5 to 2.0 GB/s per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkBandwidth {
    /// Physical link capacity, tenths of GB/s.
    pub capacity_tenths: u16,
    /// Reservable ceiling, tenths of GB/s (≤ `capacity_tenths`).
    pub cap_tenths: u16,
}

impl LinkBandwidth {
    /// The paper's configuration: 5 GB/s capacity, 80% cap.
    pub const PAPER: LinkBandwidth = LinkBandwidth {
        capacity_tenths: 50,
        cap_tenths: 40,
    };
}

impl Default for LinkBandwidth {
    fn default() -> Self {
        LinkBandwidth::PAPER
    }
}

/// Convenience alias: the owner tag stored per resource.
pub type JobTag = JobId;

/// Full allocation state of one fat-tree system. See the module docs.
///
/// Serialization (manual impls below) carries only the *primary* vectors —
/// owners and reserved bandwidth; every derived index is rebuilt on
/// deserialize. That keeps snapshots forward-compatible: adding a derived
/// index (as the free-node mask was) never invalidates existing snapshots,
/// and a loaded state is consistent by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemState {
    tree: FatTree,
    bandwidth: LinkBandwidth,

    node_owner: Vec<u32>,
    leaf_link_owner: Vec<u32>,
    spine_link_owner: Vec<u32>,

    /// Fractional bandwidth reserved per link, tenths of GB/s.
    leaf_link_bw: Vec<u16>,
    spine_link_bw: Vec<u16>,

    free_nodes_per_leaf: Vec<u32>,
    free_nodes_per_pod: Vec<u32>,
    /// Bit `s` set ⇔ the node at slot `s` of this leaf is free (neither
    /// owned nor offline). The word-parallel twin of `free_nodes_per_leaf`:
    /// `count_ones` is the capacity, `trailing_zeros` the first-fit slot.
    leaf_node_free: Vec<u64>,
    /// Bit `i` set ⇔ this leaf's uplink to L2 position `i` is free.
    leaf_uplink_free: Vec<u64>,
    /// Bit `j` set ⇔ this L2 switch's uplink to spine slot `j` is free.
    spine_uplink_free: Vec<u64>,
    /// Bit `i` set ⇔ this leaf's uplink to L2 position `i` carries
    /// fractional bandwidth (`leaf_link_bw != 0`).
    leaf_uplink_shared: Vec<u64>,
    /// Bit `j` set ⇔ this L2 switch's uplink to spine slot `j` carries
    /// fractional bandwidth (`spine_link_bw != 0`).
    spine_uplink_shared: Vec<u64>,
    fully_free_leaves_per_pod: Vec<u32>,
    leaf_fully_free: Vec<bool>,

    /// Per pod: `min` over its L2 switches of the free-spine-uplink count
    /// (`spine_uplink_free[l2].count_ones()`). An allocation asking for
    /// `l_t` common spine slots per position cannot use a pod whose minimum
    /// is below `l_t`, so the searches use this to skip pods wholesale.
    min_free_spine_slots_per_pod: Vec<u32>,
    /// Per pod: `max` over its leaves of the free-node count. A search
    /// asking for `n_l` nodes on one leaf cannot use a pod whose maximum is
    /// below `n_l`.
    max_free_leaf_nodes_per_pod: Vec<u32>,

    allocated_nodes: u32,
}

impl SystemState {
    /// Fresh, fully free state with the paper's bandwidth configuration.
    pub fn new(tree: FatTree) -> Self {
        Self::with_bandwidth(tree, LinkBandwidth::PAPER)
    }

    /// Fresh, fully free state with an explicit bandwidth configuration.
    pub fn with_bandwidth(tree: FatTree, bandwidth: LinkBandwidth) -> Self {
        let leaf_mask = mask_of(tree.l2_per_pod());
        let spine_mask = mask_of(tree.spines_per_group());
        SystemState {
            tree,
            bandwidth,
            node_owner: vec![FREE; tree.num_nodes() as usize],
            leaf_link_owner: vec![FREE; tree.num_leaf_links() as usize],
            spine_link_owner: vec![FREE; tree.num_spine_links() as usize],
            leaf_link_bw: vec![0; tree.num_leaf_links() as usize],
            spine_link_bw: vec![0; tree.num_spine_links() as usize],
            free_nodes_per_leaf: vec![tree.nodes_per_leaf(); tree.num_leaves() as usize],
            free_nodes_per_pod: vec![tree.nodes_per_pod(); tree.num_pods() as usize],
            leaf_node_free: vec![mask_of(tree.nodes_per_leaf()); tree.num_leaves() as usize],
            leaf_uplink_free: vec![leaf_mask; tree.num_leaves() as usize],
            spine_uplink_free: vec![spine_mask; tree.num_l2() as usize],
            leaf_uplink_shared: vec![0; tree.num_leaves() as usize],
            spine_uplink_shared: vec![0; tree.num_l2() as usize],
            fully_free_leaves_per_pod: vec![tree.leaves_per_pod(); tree.num_pods() as usize],
            leaf_fully_free: vec![true; tree.num_leaves() as usize],
            min_free_spine_slots_per_pod: vec![tree.spines_per_group(); tree.num_pods() as usize],
            max_free_leaf_nodes_per_pod: vec![tree.nodes_per_leaf(); tree.num_pods() as usize],
            allocated_nodes: 0,
        }
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &FatTree {
        &self.tree
    }

    /// The bandwidth configuration for fractional reservation.
    #[inline]
    pub fn bandwidth(&self) -> LinkBandwidth {
        self.bandwidth
    }

    // --- node queries -----------------------------------------------------

    /// The job owning `node`, if any.
    #[inline]
    pub fn node_owner(&self, node: NodeId) -> Option<JobId> {
        owner(self.node_owner[node.idx()])
    }

    /// `true` iff `node` is unallocated.
    #[inline]
    pub fn is_node_free(&self, node: NodeId) -> bool {
        self.node_owner[node.idx()] == FREE
    }

    /// Free nodes under `leaf`.
    #[inline]
    pub fn free_nodes_on_leaf(&self, leaf: LeafId) -> u32 {
        self.free_nodes_per_leaf[leaf.idx()]
    }

    /// Free nodes in `pod`.
    #[inline]
    pub fn free_nodes_in_pod(&self, pod: PodId) -> u32 {
        self.free_nodes_per_pod[pod.idx()]
    }

    /// Bitmask of `leaf`'s free nodes (bit `s` ⇔ the node at slot `s` is
    /// free). `count_ones()` equals [`SystemState::free_nodes_on_leaf`];
    /// `trailing_zeros()` is the first-fit slot.
    #[inline]
    pub fn leaf_free_node_mask(&self, leaf: LeafId) -> u64 {
        self.leaf_node_free[leaf.idx()]
    }

    /// The free nodes under `leaf`, in slot order, straight off the free
    /// mask — no per-slot ownership probes.
    #[inline]
    pub fn free_nodes_on_leaf_iter(&self, leaf: LeafId) -> impl Iterator<Item = NodeId> + '_ {
        let tree = self.tree;
        crate::bitset::iter_mask(self.leaf_node_free[leaf.idx()])
            .map(move |s| tree.node_at(leaf, s))
    }

    /// First-fit: the lowest-slot free node under `leaf`, if any.
    #[inline]
    pub fn first_free_node_on_leaf(&self, leaf: LeafId) -> Option<NodeId> {
        let mask = self.leaf_node_free[leaf.idx()];
        if mask == 0 {
            None
        } else {
            Some(self.tree.node_at(leaf, mask.trailing_zeros()))
        }
    }

    /// The lowest-id free node in the whole system, if any. Scans one `u64`
    /// per leaf instead of one owner word per node.
    pub fn first_free_node(&self) -> Option<NodeId> {
        self.leaf_node_free.iter().enumerate().find_map(|(l, &m)| {
            if m == 0 {
                None
            } else {
                Some(self.tree.node_at(LeafId(count_u32(l)), m.trailing_zeros()))
            }
        })
    }

    /// `true` iff every node in `nodes` is free. Word-parallel: consecutive
    /// nodes on the same leaf (the layout `Allocation::nodes` uses) are
    /// checked with one mask test per leaf run, not one probe per node.
    pub fn all_nodes_free(&self, nodes: &[NodeId]) -> bool {
        self.tree
            .node_runs(nodes)
            .all(|(leaf, want)| self.leaf_node_free[leaf.idx()] & want == want)
    }

    /// Total allocated nodes (for instantaneous-utilization sampling).
    #[inline]
    pub fn allocated_node_count(&self) -> u32 {
        self.allocated_nodes
    }

    /// Total free nodes (offline nodes are not free).
    #[inline]
    pub fn free_node_count(&self) -> u32 {
        self.tree.num_nodes() - self.allocated_nodes
    }

    /// `true` iff `node` is marked offline (failed).
    #[inline]
    pub fn is_node_offline(&self, node: NodeId) -> bool {
        self.node_owner[node.idx()] == OFFLINE
    }

    /// Number of offline nodes.
    pub fn offline_node_count(&self) -> u32 {
        count_u32(self.node_owner.iter().filter(|&&o| o == OFFLINE).count())
    }

    /// Mark a *free* node offline (failed hardware). Returns `false` — and
    /// changes nothing — if the node is currently owned by a job (the
    /// caller must kill/release the job first) or already offline.
    pub fn set_node_offline(&mut self, node: NodeId) -> bool {
        if self.node_owner[node.idx()] != FREE {
            return false;
        }
        self.node_owner[node.idx()] = OFFLINE;
        let leaf = self.tree.leaf_of_node(node);
        self.nodes_taken(leaf, 1 << self.tree.node_slot(node));
        true
    }

    /// Bring an offline node back online. Returns `false` if the node was
    /// not offline.
    pub fn set_node_online(&mut self, node: NodeId) -> bool {
        if self.node_owner[node.idx()] != OFFLINE {
            return false;
        }
        self.node_owner[node.idx()] = FREE;
        let leaf = self.tree.leaf_of_node(node);
        self.nodes_returned(leaf, 1 << self.tree.node_slot(node));
        true
    }

    /// `true` iff `leaf` has all nodes free, all uplinks unowned, and no
    /// fractional bandwidth reserved on any uplink.
    #[inline]
    pub fn is_leaf_fully_free(&self, leaf: LeafId) -> bool {
        self.leaf_fully_free[leaf.idx()]
    }

    /// Number of fully free leaves in `pod` (Jigsaw's three-level currency).
    #[inline]
    pub fn fully_free_leaves_in_pod(&self, pod: PodId) -> u32 {
        self.fully_free_leaves_per_pod[pod.idx()]
    }

    /// Minimum over `pod`'s L2 switches of the free-spine-uplink count.
    ///
    /// Counts exclusive ownership only (fractional reservations may make a
    /// "free" link unusable for a bandwidth-aware view), so this is an
    /// *upper bound* on what any view can use — if it is below a search's
    /// per-position spine demand, the pod can be skipped without looking at
    /// any mask.
    #[inline]
    pub fn min_free_spine_slots_in_pod(&self, pod: PodId) -> u32 {
        self.min_free_spine_slots_per_pod[pod.idx()]
    }

    /// Maximum over `pod`'s leaves of the free-node count. If it is below a
    /// search's per-leaf node demand `n_l`, no leaf of the pod qualifies
    /// and the pod can be skipped without iterating its leaves.
    #[inline]
    pub fn max_free_nodes_on_leaf_in_pod(&self, pod: PodId) -> u32 {
        self.max_free_leaf_nodes_per_pod[pod.idx()]
    }

    // --- link queries -------------------------------------------------------

    /// Bitmask of `leaf`'s free uplinks (bit `i` ⇔ link to L2 position `i`).
    #[inline]
    pub fn leaf_uplink_free_mask(&self, leaf: LeafId) -> u64 {
        self.leaf_uplink_free[leaf.idx()]
    }

    /// Bitmask of `l2`'s free spine uplinks (bit `j` ⇔ link to group slot `j`).
    #[inline]
    pub fn spine_uplink_free_mask(&self, l2: L2Id) -> u64 {
        self.spine_uplink_free[l2.idx()]
    }

    /// Bitmask of `leaf`'s uplinks carrying fractional bandwidth (bit `i` ⇔
    /// [`SystemState::leaf_link_bw_used`] of the link to L2 position `i` is
    /// non-zero).
    #[inline]
    pub fn leaf_uplink_shared_mask(&self, leaf: LeafId) -> u64 {
        self.leaf_uplink_shared[leaf.idx()]
    }

    /// Bitmask of `l2`'s spine uplinks carrying fractional bandwidth (bit
    /// `j` ⇔ [`SystemState::spine_link_bw_used`] of the link to group slot
    /// `j` is non-zero).
    #[inline]
    pub fn spine_uplink_shared_mask(&self, l2: L2Id) -> u64 {
        self.spine_uplink_shared[l2.idx()]
    }

    /// The job exclusively owning a leaf↔L2 link, if any.
    #[inline]
    pub fn leaf_link_owner(&self, link: LeafLinkId) -> Option<JobId> {
        owner(self.leaf_link_owner[link.idx()])
    }

    /// The job exclusively owning an L2↔spine link, if any.
    #[inline]
    pub fn spine_link_owner(&self, link: SpineLinkId) -> Option<JobId> {
        owner(self.spine_link_owner[link.idx()])
    }

    /// Reserved fractional bandwidth on a leaf↔L2 link, tenths of GB/s.
    #[inline]
    pub fn leaf_link_bw_used(&self, link: LeafLinkId) -> u16 {
        self.leaf_link_bw[link.idx()]
    }

    /// Reserved fractional bandwidth on an L2↔spine link, tenths of GB/s.
    #[inline]
    pub fn spine_link_bw_used(&self, link: SpineLinkId) -> u16 {
        self.spine_link_bw[link.idx()]
    }

    /// Spare fractional capacity on a leaf↔L2 link, tenths of GB/s.
    /// Zero if the link is exclusively owned.
    #[inline]
    pub fn leaf_link_bw_spare(&self, link: LeafLinkId) -> u16 {
        if self.leaf_link_owner[link.idx()] != FREE {
            0
        } else {
            self.bandwidth
                .cap_tenths
                .saturating_sub(self.leaf_link_bw[link.idx()])
        }
    }

    /// Spare fractional capacity on an L2↔spine link, tenths of GB/s.
    /// Zero if the link is exclusively owned.
    #[inline]
    pub fn spine_link_bw_spare(&self, link: SpineLinkId) -> u16 {
        if self.spine_link_owner[link.idx()] != FREE {
            0
        } else {
            self.bandwidth
                .cap_tenths
                .saturating_sub(self.spine_link_bw[link.idx()])
        }
    }

    // --- ownership mutation: run forms ----------------------------------------

    /// Give the nodes at `slots` (bit `s` ⇔ slot `s`) of `leaf` to `job`.
    /// Each node's owner is checked and set; the free mask, the leaf, pod
    /// and system counts, the pod-max index and the fully-free flag are
    /// updated once for the whole run.
    ///
    /// # Panics
    /// If any of the nodes is already owned or offline — allocators must
    /// check availability first; double allocation is an isolation
    /// violation.
    pub fn claim_leaf_nodes(&mut self, leaf: LeafId, slots: u64, job: JobId) {
        let t = self.tree;
        for s in iter_mask(slots) {
            let node = t.node_at(leaf, s);
            let owner = &mut self.node_owner[node.idx()];
            assert!(
                *owner == FREE,
                "isolation violation: {node} already owned by job#{}",
                *owner
            );
            *owner = job.0;
        }
        self.nodes_taken(leaf, slots);
    }

    /// Release the nodes at `slots` of `leaf`: the inverse of
    /// [`SystemState::claim_leaf_nodes`].
    ///
    /// # Panics
    /// If any of the nodes is already free (double release is a scheduler
    /// bug).
    pub fn release_leaf_nodes(&mut self, leaf: LeafId, slots: u64) {
        let t = self.tree;
        for s in iter_mask(slots) {
            let node = t.node_at(leaf, s);
            let owner = &mut self.node_owner[node.idx()];
            assert!(*owner != FREE, "double release of {node}");
            *owner = FREE;
        }
        self.nodes_returned(leaf, slots);
    }

    /// Exclusively claim `leaf`'s uplinks at the L2 `positions` for `job`.
    ///
    /// # Panics
    /// If any of the links is owned or carries fractional reservations.
    pub fn claim_leaf_uplinks(&mut self, leaf: LeafId, positions: u64, job: JobId) {
        let t = self.tree;
        let shared = self.leaf_uplink_shared[leaf.idx()];
        for pos in iter_mask(positions) {
            let link = t.leaf_link(leaf, pos);
            let owner = &mut self.leaf_link_owner[link.idx()];
            assert!(
                *owner == FREE,
                "isolation violation: {link} already owned by job#{}",
                *owner
            );
            assert!(
                shared & (1 << pos) == 0,
                "isolation violation: {link} carries shared bandwidth"
            );
            *owner = job.0;
        }
        self.leaf_uplink_free[leaf.idx()] &= !positions;
        self.refresh_leaf_fully_free(leaf);
    }

    /// Release `leaf`'s exclusively owned uplinks at `positions`.
    ///
    /// # Panics
    /// If any of the links is not owned.
    pub fn release_leaf_uplinks(&mut self, leaf: LeafId, positions: u64) {
        let t = self.tree;
        for pos in iter_mask(positions) {
            let link = t.leaf_link(leaf, pos);
            let owner = &mut self.leaf_link_owner[link.idx()];
            assert!(*owner != FREE, "double release of {link}");
            *owner = FREE;
        }
        self.leaf_uplink_free[leaf.idx()] |= positions;
        self.refresh_leaf_fully_free(leaf);
    }

    /// Exclusively claim `l2`'s spine uplinks at the group `slots` for
    /// `job`.
    ///
    /// # Panics
    /// If any of the links is owned or carries fractional reservations.
    pub fn claim_spine_uplinks(&mut self, l2: L2Id, slots: u64, job: JobId) {
        let t = self.tree;
        let shared = self.spine_uplink_shared[l2.idx()];
        for slot in iter_mask(slots) {
            let link = t.spine_link(l2, slot);
            let owner = &mut self.spine_link_owner[link.idx()];
            assert!(
                *owner == FREE,
                "isolation violation: {link} already owned by job#{}",
                *owner
            );
            assert!(
                shared & (1 << slot) == 0,
                "isolation violation: {link} carries shared bandwidth"
            );
            *owner = job.0;
        }
        self.spine_uplink_free[l2.idx()] &= !slots;
        // A lowered count can only lower the pod minimum.
        let pod = t.pod_of_l2(l2);
        let left = self.spine_uplink_free[l2.idx()].count_ones();
        let min = &mut self.min_free_spine_slots_per_pod[pod.idx()];
        *min = (*min).min(left);
    }

    /// Release `l2`'s exclusively owned spine uplinks at `slots`.
    ///
    /// # Panics
    /// If any of the links is not owned.
    pub fn release_spine_uplinks(&mut self, l2: L2Id, slots: u64) {
        let t = self.tree;
        for slot in iter_mask(slots) {
            let link = t.spine_link(l2, slot);
            let owner = &mut self.spine_link_owner[link.idx()];
            assert!(*owner != FREE, "double release of {link}");
            *owner = FREE;
        }
        let before = self.spine_uplink_free[l2.idx()].count_ones();
        self.spine_uplink_free[l2.idx()] |= slots;
        // Only an L2 that was (one of) the pod's minimum can raise it; the
        // pod's L2 switches are rescanned then.
        let pod = t.pod_of_l2(l2);
        if before == self.min_free_spine_slots_per_pod[pod.idx()] {
            let min = (0..t.l2_per_pod())
                .map(|pos| self.spine_uplink_free[t.l2_at(pod, pos).idx()].count_ones())
                .min()
                .unwrap_or(0);
            self.min_free_spine_slots_per_pod[pod.idx()] = min;
        }
    }

    // --- ownership mutation: one element --------------------------------------

    /// Give `node` to `job`: the one-bit [`SystemState::claim_leaf_nodes`].
    ///
    /// # Panics
    /// If the node is already owned or offline.
    pub fn claim_node(&mut self, node: NodeId, job: JobId) {
        let leaf = self.tree.leaf_of_node(node);
        self.claim_leaf_nodes(leaf, 1 << self.tree.node_slot(node), job);
    }

    /// Release `node`: the one-bit [`SystemState::release_leaf_nodes`].
    ///
    /// # Panics
    /// If the node is already free (double release is a scheduler bug).
    pub fn release_node(&mut self, node: NodeId) {
        let leaf = self.tree.leaf_of_node(node);
        self.release_leaf_nodes(leaf, 1 << self.tree.node_slot(node));
    }

    /// Exclusively claim a leaf↔L2 link for `job`: the one-bit
    /// [`SystemState::claim_leaf_uplinks`].
    ///
    /// # Panics
    /// If the link is owned or carries fractional reservations.
    pub fn claim_leaf_link(&mut self, link: LeafLinkId, job: JobId) {
        let leaf = self.tree.leaf_of_link(link);
        self.claim_leaf_uplinks(leaf, 1 << self.tree.l2_position_of_link(link), job);
    }

    /// Release an exclusively owned leaf↔L2 link: the one-bit
    /// [`SystemState::release_leaf_uplinks`].
    pub fn release_leaf_link(&mut self, link: LeafLinkId) {
        let leaf = self.tree.leaf_of_link(link);
        self.release_leaf_uplinks(leaf, 1 << self.tree.l2_position_of_link(link));
    }

    /// Exclusively claim an L2↔spine link for `job`: the one-bit
    /// [`SystemState::claim_spine_uplinks`].
    ///
    /// # Panics
    /// If the link is owned or carries fractional reservations.
    pub fn claim_spine_link(&mut self, link: SpineLinkId, job: JobId) {
        let (l2, bit) = self.spine_link_bit(link);
        self.claim_spine_uplinks(l2, bit, job);
    }

    /// Release an exclusively owned L2↔spine link: the one-bit
    /// [`SystemState::release_spine_uplinks`].
    pub fn release_spine_link(&mut self, link: SpineLinkId) {
        let (l2, bit) = self.spine_link_bit(link);
        self.release_spine_uplinks(l2, bit);
    }

    // --- fractional link mutation (LC+S) ---------------------------------------

    /// Reserve `amount` tenths of GB/s on a leaf↔L2 link if it fits under
    /// the cap and the link is not exclusively owned. Returns success.
    pub fn try_reserve_leaf_link_bw(&mut self, link: LeafLinkId, amount: u16) -> bool {
        if self.leaf_link_bw_spare(link) < amount {
            return false;
        }
        self.leaf_link_bw[link.idx()] += amount;
        self.note_leaf_link_bw(link);
        true
    }

    /// Release `amount` tenths of GB/s from a leaf↔L2 link.
    ///
    /// # Panics
    /// If more is released than was reserved.
    pub fn release_leaf_link_bw(&mut self, link: LeafLinkId, amount: u16) {
        let used = &mut self.leaf_link_bw[link.idx()];
        assert!(*used >= amount, "bandwidth release underflow on {link}");
        *used -= amount;
        self.note_leaf_link_bw(link);
    }

    /// Reserve `amount` tenths of GB/s on an L2↔spine link. Returns success.
    pub fn try_reserve_spine_link_bw(&mut self, link: SpineLinkId, amount: u16) -> bool {
        if self.spine_link_bw_spare(link) < amount {
            return false;
        }
        self.spine_link_bw[link.idx()] += amount;
        self.note_spine_link_bw(link);
        true
    }

    /// Release `amount` tenths of GB/s from an L2↔spine link.
    ///
    /// # Panics
    /// If more is released than was reserved.
    pub fn release_spine_link_bw(&mut self, link: SpineLinkId, amount: u16) {
        let used = &mut self.spine_link_bw[link.idx()];
        assert!(*used >= amount, "bandwidth release underflow on {link}");
        *used -= amount;
        self.note_spine_link_bw(link);
    }

    // --- integrity ---------------------------------------------------------------

    /// Recompute every derived index from the ownership vectors and assert
    /// it matches the incrementally maintained copy. Test/debug helper;
    /// `O(system size)`.
    pub fn assert_consistent(&self) {
        let t = &self.tree;
        let mut alloc = 0u32;
        for pod in t.pods() {
            let mut pod_free = 0u32;
            let mut pod_ff = 0u32;
            for leaf in t.leaves_of_pod(pod) {
                let free = count_u32(
                    t.nodes_of_leaf(leaf)
                        .filter(|n| self.node_owner[n.idx()] == FREE)
                        .count(),
                );
                alloc += t.nodes_per_leaf() - free;
                pod_free += free;
                assert_eq!(
                    self.free_nodes_per_leaf[leaf.idx()],
                    free,
                    "free-node count stale for {leaf}"
                );
                let mut node_mask = 0u64;
                for slot in 0..t.nodes_per_leaf() {
                    if self.node_owner[t.node_at(leaf, slot).idx()] == FREE {
                        node_mask |= 1 << slot;
                    }
                }
                assert_eq!(
                    self.leaf_node_free[leaf.idx()],
                    node_mask,
                    "free-node mask stale for {leaf}"
                );
                let mut mask = 0u64;
                let mut shared = 0u64;
                for pos in 0..t.l2_per_pod() {
                    let link = t.leaf_link(leaf, pos);
                    if self.leaf_link_owner[link.idx()] == FREE {
                        mask |= 1 << pos;
                    }
                    if self.leaf_link_bw[link.idx()] != 0 {
                        shared |= 1 << pos;
                    }
                }
                assert_eq!(
                    self.leaf_uplink_free[leaf.idx()],
                    mask,
                    "uplink mask stale for {leaf}"
                );
                assert_eq!(
                    self.leaf_uplink_shared[leaf.idx()],
                    shared,
                    "shared-uplink mask stale for {leaf}"
                );
                let ff =
                    free == t.nodes_per_leaf() && mask == mask_of(t.l2_per_pod()) && shared == 0;
                assert_eq!(
                    self.leaf_fully_free[leaf.idx()],
                    ff,
                    "fully-free stale for {leaf}"
                );
                pod_ff += u32::from(ff);
            }
            assert_eq!(
                self.free_nodes_per_pod[pod.idx()],
                pod_free,
                "pod free count stale"
            );
            assert_eq!(
                self.fully_free_leaves_per_pod[pod.idx()],
                pod_ff,
                "pod fully-free count stale"
            );
            let max_leaf_nodes = t
                .leaves_of_pod(pod)
                .map(|l| self.free_nodes_per_leaf[l.idx()])
                .max()
                .unwrap_or(0);
            assert_eq!(
                self.max_free_leaf_nodes_per_pod[pod.idx()],
                max_leaf_nodes,
                "pod max-free-leaf-nodes index stale"
            );
            let mut min_spine = t.spines_per_group();
            for pos in 0..t.l2_per_pod() {
                let l2 = t.l2_at(pod, pos);
                let mut mask = 0u64;
                let mut shared = 0u64;
                for slot in 0..t.spines_per_group() {
                    let link = t.spine_link(l2, slot);
                    if self.spine_link_owner[link.idx()] == FREE {
                        mask |= 1 << slot;
                    }
                    if self.spine_link_bw[link.idx()] != 0 {
                        shared |= 1 << slot;
                    }
                }
                assert_eq!(
                    self.spine_uplink_free[l2.idx()],
                    mask,
                    "spine uplink mask stale for {l2}"
                );
                assert_eq!(
                    self.spine_uplink_shared[l2.idx()],
                    shared,
                    "shared spine-uplink mask stale for {l2}"
                );
                min_spine = min_spine.min(mask.count_ones());
            }
            assert_eq!(
                self.min_free_spine_slots_per_pod[pod.idx()],
                min_spine,
                "pod min-free-spine-slots index stale"
            );
        }
        assert_eq!(self.allocated_nodes, alloc, "allocated-node count stale");
    }

    /// The derived-index half of taking the free nodes at `slots` of `leaf`
    /// (claimed or taken offline): masks and counts once for the run. The
    /// pod-max index is rescanned only if this leaf was (one of) the pod's
    /// maximum.
    fn nodes_taken(&mut self, leaf: LeafId, slots: u64) {
        let pod = self.tree.pod_of_leaf(leaf);
        let n = slots.count_ones();
        let before = self.free_nodes_per_leaf[leaf.idx()];
        self.leaf_node_free[leaf.idx()] &= !slots;
        self.free_nodes_per_leaf[leaf.idx()] = before - n;
        self.free_nodes_per_pod[pod.idx()] -= n;
        self.allocated_nodes += n;
        if before == self.max_free_leaf_nodes_per_pod[pod.idx()] {
            let t = self.tree;
            let max = t
                .leaves_of_pod(pod)
                .map(|l| self.free_nodes_per_leaf[l.idx()])
                .max()
                .unwrap_or(0);
            self.max_free_leaf_nodes_per_pod[pod.idx()] = max;
        }
        self.refresh_leaf_fully_free(leaf);
    }

    /// The inverse of [`SystemState::nodes_taken`]. A raised count can only
    /// raise the pod maximum, so that update is O(1).
    fn nodes_returned(&mut self, leaf: LeafId, slots: u64) {
        let pod = self.tree.pod_of_leaf(leaf);
        let n = slots.count_ones();
        self.leaf_node_free[leaf.idx()] |= slots;
        let now = self.free_nodes_per_leaf[leaf.idx()] + n;
        self.free_nodes_per_leaf[leaf.idx()] = now;
        self.free_nodes_per_pod[pod.idx()] += n;
        self.allocated_nodes -= n;
        let max = &mut self.max_free_leaf_nodes_per_pod[pod.idx()];
        *max = (*max).max(now);
        self.refresh_leaf_fully_free(leaf);
    }

    /// `link`'s L2 switch and its one-bit slot mask.
    fn spine_link_bit(&self, link: SpineLinkId) -> (L2Id, u64) {
        let l2 = self.tree.l2_of_spine_link(link);
        (l2, 1 << (link.0 - self.tree.spine_link(l2, 0).0))
    }

    /// Re-derive `link`'s bit of its leaf's shared-uplink mask from the
    /// reserved bandwidth, then the leaf's fully-free flag.
    fn note_leaf_link_bw(&mut self, link: LeafLinkId) {
        let leaf = self.tree.leaf_of_link(link);
        let bit = 1u64 << self.tree.l2_position_of_link(link);
        let shared = &mut self.leaf_uplink_shared[leaf.idx()];
        if self.leaf_link_bw[link.idx()] == 0 {
            *shared &= !bit;
        } else {
            *shared |= bit;
        }
        self.refresh_leaf_fully_free(leaf);
    }

    /// Re-derive `link`'s bit of its L2's shared-uplink mask.
    fn note_spine_link_bw(&mut self, link: SpineLinkId) {
        let (l2, bit) = self.spine_link_bit(link);
        let shared = &mut self.spine_uplink_shared[l2.idx()];
        if self.spine_link_bw[link.idx()] == 0 {
            *shared &= !bit;
        } else {
            *shared |= bit;
        }
    }

    /// Recompute every derived index from the primary ownership/bandwidth
    /// vectors. `O(system size)`; used when a state is rebuilt from a
    /// snapshot, where only the primaries are stored.
    fn rebuild_derived(&mut self) {
        let t = self.tree;
        let all_links = mask_of(t.l2_per_pod());
        let mut alloc = 0u32;
        for pod in t.pods() {
            let mut pod_free = 0u32;
            let mut pod_ff = 0u32;
            let mut max_leaf_nodes = 0u32;
            for leaf in t.leaves_of_pod(pod) {
                let mut node_mask = 0u64;
                for slot in 0..t.nodes_per_leaf() {
                    if self.node_owner[t.node_at(leaf, slot).idx()] == FREE {
                        node_mask |= 1 << slot;
                    }
                }
                let free = node_mask.count_ones();
                alloc += t.nodes_per_leaf() - free;
                pod_free += free;
                max_leaf_nodes = max_leaf_nodes.max(free);
                self.leaf_node_free[leaf.idx()] = node_mask;
                self.free_nodes_per_leaf[leaf.idx()] = free;
                let mut link_mask = 0u64;
                let mut shared = 0u64;
                for pos in 0..t.l2_per_pod() {
                    let link = t.leaf_link(leaf, pos);
                    if self.leaf_link_owner[link.idx()] == FREE {
                        link_mask |= 1 << pos;
                    }
                    if self.leaf_link_bw[link.idx()] != 0 {
                        shared |= 1 << pos;
                    }
                }
                self.leaf_uplink_free[leaf.idx()] = link_mask;
                self.leaf_uplink_shared[leaf.idx()] = shared;
                let ff = free == t.nodes_per_leaf() && link_mask == all_links && shared == 0;
                self.leaf_fully_free[leaf.idx()] = ff;
                pod_ff += u32::from(ff);
            }
            self.free_nodes_per_pod[pod.idx()] = pod_free;
            self.fully_free_leaves_per_pod[pod.idx()] = pod_ff;
            self.max_free_leaf_nodes_per_pod[pod.idx()] = max_leaf_nodes;
            let mut min_spine = t.spines_per_group();
            for pos in 0..t.l2_per_pod() {
                let l2 = t.l2_at(pod, pos);
                let mut mask = 0u64;
                let mut shared = 0u64;
                for slot in 0..t.spines_per_group() {
                    let link = t.spine_link(l2, slot);
                    if self.spine_link_owner[link.idx()] == FREE {
                        mask |= 1 << slot;
                    }
                    if self.spine_link_bw[link.idx()] != 0 {
                        shared |= 1 << slot;
                    }
                }
                self.spine_uplink_free[l2.idx()] = mask;
                self.spine_uplink_shared[l2.idx()] = shared;
                min_spine = min_spine.min(mask.count_ones());
            }
            self.min_free_spine_slots_per_pod[pod.idx()] = min_spine;
        }
        self.allocated_nodes = alloc;
    }

    /// Re-derive `leaf`'s fully-free flag (and its pod's count) from the
    /// leaf's masks. Fractional reservations also disqualify a leaf from
    /// being the unit of a full-leaf allocation.
    fn refresh_leaf_fully_free(&mut self, leaf: LeafId) {
        let t = &self.tree;
        let pod = t.pod_of_leaf(leaf);
        let ff = self.free_nodes_per_leaf[leaf.idx()] == t.nodes_per_leaf()
            && self.leaf_uplink_free[leaf.idx()] == mask_of(t.l2_per_pod())
            && self.leaf_uplink_shared[leaf.idx()] == 0;
        let was = self.leaf_fully_free[leaf.idx()];
        if was != ff {
            self.leaf_fully_free[leaf.idx()] = ff;
            if ff {
                self.fully_free_leaves_per_pod[pod.idx()] += 1;
            } else {
                self.fully_free_leaves_per_pod[pod.idx()] -= 1;
            }
        }
    }
}

/// Snapshots carry the primaries only (see the struct docs): owners,
/// reserved bandwidth, and the embedded tree/bandwidth config. Derived
/// indices are rebuilt on load, so adding one never breaks old snapshots.
impl Serialize for SystemState {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("tree".to_string(), self.tree.to_value()),
            ("bandwidth".to_string(), self.bandwidth.to_value()),
            ("node_owner".to_string(), self.node_owner.to_value()),
            (
                "leaf_link_owner".to_string(),
                self.leaf_link_owner.to_value(),
            ),
            (
                "spine_link_owner".to_string(),
                self.spine_link_owner.to_value(),
            ),
            ("leaf_link_bw".to_string(), self.leaf_link_bw.to_value()),
            ("spine_link_bw".to_string(), self.spine_link_bw.to_value()),
        ])
    }
}

impl Deserialize for SystemState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("SystemState object"))?;
        let tree = FatTree::from_value(serde::field(obj, "tree"))?;
        let bandwidth = LinkBandwidth::from_value(serde::field(obj, "bandwidth"))?;
        let mut state = SystemState::with_bandwidth(tree, bandwidth);
        state.node_owner = Deserialize::from_value(serde::field(obj, "node_owner"))?;
        state.leaf_link_owner = Deserialize::from_value(serde::field(obj, "leaf_link_owner"))?;
        state.spine_link_owner = Deserialize::from_value(serde::field(obj, "spine_link_owner"))?;
        state.leaf_link_bw = Deserialize::from_value(serde::field(obj, "leaf_link_bw"))?;
        state.spine_link_bw = Deserialize::from_value(serde::field(obj, "spine_link_bw"))?;
        for (name, len, want) in [
            ("node_owner", state.node_owner.len(), tree.num_nodes()),
            (
                "leaf_link_owner",
                state.leaf_link_owner.len(),
                tree.num_leaf_links(),
            ),
            (
                "spine_link_owner",
                state.spine_link_owner.len(),
                tree.num_spine_links(),
            ),
            (
                "leaf_link_bw",
                state.leaf_link_bw.len(),
                tree.num_leaf_links(),
            ),
            (
                "spine_link_bw",
                state.spine_link_bw.len(),
                tree.num_spine_links(),
            ),
        ] {
            if len != want as usize {
                return Err(serde::DeError::custom(format!(
                    "SystemState.{name}: {len} entries, tree wants {want}"
                )));
            }
        }
        state.rebuild_derived();
        Ok(state)
    }
}

#[inline]
fn owner(raw: u32) -> Option<JobId> {
    if raw == FREE || raw == OFFLINE {
        None
    } else {
        Some(JobId(raw))
    }
}

/// A mask with the lowest `n` bits set.
#[inline]
pub fn mask_of(n: u32) -> u64 {
    debug_assert!(n <= 64);
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> SystemState {
        SystemState::new(FatTree::maximal(4).unwrap())
    }

    #[test]
    fn fresh_state_is_fully_free() {
        let s = fresh();
        assert_eq!(s.allocated_node_count(), 0);
        assert_eq!(s.free_node_count(), 16);
        for leaf in s.tree().leaves() {
            assert!(s.is_leaf_fully_free(leaf));
            assert_eq!(s.free_nodes_on_leaf(leaf), 2);
            assert_eq!(s.leaf_uplink_free_mask(leaf), 0b11);
        }
        for pod in s.tree().pods() {
            assert_eq!(s.fully_free_leaves_in_pod(pod), 2);
            assert_eq!(s.free_nodes_in_pod(pod), 4);
        }
        s.assert_consistent();
    }

    #[test]
    fn claim_and_release_node_maintain_counters() {
        let mut s = fresh();
        let n = NodeId(5);
        let leaf = s.tree().leaf_of_node(n);
        let pod = s.tree().pod_of_leaf(leaf);
        s.claim_node(n, JobId(1));
        assert_eq!(s.node_owner(n), Some(JobId(1)));
        assert!(!s.is_node_free(n));
        assert_eq!(s.free_nodes_on_leaf(leaf), 1);
        assert_eq!(s.free_nodes_in_pod(pod), 3);
        assert!(!s.is_leaf_fully_free(leaf));
        assert_eq!(s.fully_free_leaves_in_pod(pod), 1);
        assert_eq!(s.allocated_node_count(), 1);
        s.assert_consistent();

        s.release_node(n);
        assert!(s.is_node_free(n));
        assert!(s.is_leaf_fully_free(leaf));
        assert_eq!(s.allocated_node_count(), 0);
        s.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "isolation violation")]
    fn double_claim_node_panics() {
        let mut s = fresh();
        s.claim_node(NodeId(0), JobId(1));
        s.claim_node(NodeId(0), JobId(2));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_node_panics() {
        let mut s = fresh();
        s.claim_node(NodeId(0), JobId(1));
        s.release_node(NodeId(0));
        s.release_node(NodeId(0));
    }

    #[test]
    fn run_forms_update_indices_once_per_run() {
        let mut s = fresh(); // 2 nodes/leaf, 2 L2/pod, 2 spine slots
        let t = *s.tree();
        let leaf = LeafId(2);
        let pod = t.pod_of_leaf(leaf);
        s.claim_leaf_nodes(leaf, 0b11, JobId(4));
        assert_eq!(s.free_nodes_on_leaf(leaf), 0);
        assert_eq!(s.free_nodes_in_pod(pod), 2);
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 2);
        assert_eq!(s.fully_free_leaves_in_pod(pod), 1);
        s.claim_leaf_uplinks(leaf, 0b11, JobId(4));
        let l2 = t.l2_at(pod, 1);
        s.claim_spine_uplinks(l2, 0b11, JobId(4));
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 0);
        s.assert_consistent();
        s.release_spine_uplinks(l2, 0b01);
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 1);
        s.release_spine_uplinks(l2, 0b10);
        s.release_leaf_uplinks(leaf, 0b11);
        s.release_leaf_nodes(leaf, 0b11);
        s.assert_consistent();
        assert_eq!(s, fresh());
    }

    #[test]
    #[should_panic(expected = "isolation violation: NodeId(5) already owned")]
    fn run_claim_over_an_owned_node_panics() {
        let mut s = fresh();
        s.claim_node(NodeId(5), JobId(1));
        s.claim_leaf_nodes(LeafId(2), 0b11, JobId(2));
    }

    #[test]
    #[should_panic(expected = "double release of NodeId(4)")]
    fn run_release_of_a_free_node_panics() {
        let mut s = fresh();
        s.claim_node(NodeId(5), JobId(1));
        s.release_leaf_nodes(LeafId(2), 0b11);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_spine_uplinks_panics() {
        let mut s = fresh();
        s.claim_spine_uplinks(L2Id(1), 0b01, JobId(1));
        s.release_spine_uplinks(L2Id(1), 0b01);
        s.release_spine_uplinks(L2Id(1), 0b01);
    }

    #[test]
    #[should_panic(expected = "carries shared bandwidth")]
    fn run_claim_of_a_shared_spine_link_panics() {
        let mut s = fresh();
        assert!(s.try_reserve_spine_link_bw(s.tree().spine_link(L2Id(3), 1), 5));
        s.claim_spine_uplinks(L2Id(3), 0b11, JobId(1));
    }

    #[test]
    fn shared_masks_track_fractional_bandwidth() {
        let mut s = fresh();
        let t = *s.tree();
        let link = t.leaf_link(LeafId(1), 1);
        let spine = t.spine_link(L2Id(2), 0);
        assert!(s.try_reserve_leaf_link_bw(link, 10));
        assert!(s.try_reserve_spine_link_bw(spine, 10));
        assert_eq!(s.leaf_uplink_shared_mask(LeafId(1)), 0b10);
        assert_eq!(s.spine_uplink_shared_mask(L2Id(2)), 0b01);
        assert!(!s.is_leaf_fully_free(LeafId(1)));
        s.assert_consistent();
        s.release_leaf_link_bw(link, 10);
        s.release_spine_link_bw(spine, 10);
        assert_eq!(s.leaf_uplink_shared_mask(LeafId(1)), 0);
        assert_eq!(s.spine_uplink_shared_mask(L2Id(2)), 0);
        assert!(s.is_leaf_fully_free(LeafId(1)));
        assert_eq!(s, fresh());
    }

    #[test]
    fn leaf_link_claims_update_masks() {
        let mut s = fresh();
        let t = *s.tree();
        let leaf = LeafId(3);
        let link = t.leaf_link(leaf, 1);
        s.claim_leaf_link(link, JobId(7));
        assert_eq!(s.leaf_link_owner(link), Some(JobId(7)));
        assert_eq!(s.leaf_uplink_free_mask(leaf), 0b01);
        assert!(!s.is_leaf_fully_free(leaf));
        s.assert_consistent();
        s.release_leaf_link(link);
        assert_eq!(s.leaf_uplink_free_mask(leaf), 0b11);
        assert!(s.is_leaf_fully_free(leaf));
        s.assert_consistent();
    }

    #[test]
    fn spine_link_claims_update_masks() {
        let mut s = fresh();
        let t = *s.tree();
        let l2 = t.l2_at(PodId(2), 1);
        let link = t.spine_link(l2, 0);
        s.claim_spine_link(link, JobId(3));
        assert_eq!(s.spine_link_owner(link), Some(JobId(3)));
        assert_eq!(s.spine_uplink_free_mask(l2), 0b10);
        s.assert_consistent();
        s.release_spine_link(link);
        assert_eq!(s.spine_uplink_free_mask(l2), 0b11);
        s.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "isolation violation")]
    fn double_claim_leaf_link_panics() {
        let mut s = fresh();
        let link = s.tree().leaf_link(LeafId(0), 0);
        s.claim_leaf_link(link, JobId(1));
        s.claim_leaf_link(link, JobId(2));
    }

    #[test]
    fn fractional_reservation_respects_cap() {
        let mut s = fresh();
        let link = s.tree().leaf_link(LeafId(0), 0);
        assert!(s.try_reserve_leaf_link_bw(link, 20)); // 2.0 GB/s
        assert!(s.try_reserve_leaf_link_bw(link, 20)); // 4.0 total = cap
        assert!(!s.try_reserve_leaf_link_bw(link, 5)); // over the 80% cap
        assert_eq!(s.leaf_link_bw_used(link), 40);
        assert_eq!(s.leaf_link_bw_spare(link), 0);
        s.release_leaf_link_bw(link, 20);
        assert_eq!(s.leaf_link_bw_spare(link), 20);
        s.assert_consistent();
    }

    #[test]
    fn fractional_and_exclusive_modes_exclude_each_other() {
        let mut s = fresh();
        let link = s.tree().leaf_link(LeafId(0), 0);
        assert!(s.try_reserve_leaf_link_bw(link, 5));
        // A leaf carrying shared bandwidth is not fully free.
        assert!(!s.is_leaf_fully_free(LeafId(0)));
        s.release_leaf_link_bw(link, 5);
        s.claim_leaf_link(link, JobId(1));
        // Exclusive ownership leaves no spare fractional capacity.
        assert_eq!(s.leaf_link_bw_spare(link), 0);
        assert!(!s.try_reserve_leaf_link_bw(link, 5));
    }

    #[test]
    #[should_panic(expected = "carries shared bandwidth")]
    fn exclusive_claim_of_shared_link_panics() {
        let mut s = fresh();
        let link = s.tree().leaf_link(LeafId(0), 0);
        assert!(s.try_reserve_leaf_link_bw(link, 5));
        s.claim_leaf_link(link, JobId(1));
    }

    #[test]
    fn spine_fractional_reservation() {
        let mut s = fresh();
        let link = s.tree().spine_link(L2Id(0), 1);
        assert!(s.try_reserve_spine_link_bw(link, 40));
        assert!(!s.try_reserve_spine_link_bw(link, 1));
        assert_eq!(s.spine_link_bw_spare(link), 0);
        s.release_spine_link_bw(link, 40);
        assert_eq!(s.spine_link_bw_spare(link), 40);
    }

    #[test]
    fn clone_is_independent_snapshot() {
        let mut s = fresh();
        s.claim_node(NodeId(0), JobId(1));
        let snap = s.clone();
        s.claim_node(NodeId(1), JobId(1));
        assert_eq!(snap.allocated_node_count(), 1);
        assert_eq!(s.allocated_node_count(), 2);
        snap.assert_consistent();
    }

    #[test]
    fn offline_nodes_are_not_free_and_not_owned() {
        let mut s = fresh();
        let n = NodeId(3);
        assert!(s.set_node_offline(n));
        assert!(!s.is_node_free(n));
        assert!(s.is_node_offline(n));
        assert_eq!(s.node_owner(n), None, "offline is not ownership");
        assert_eq!(s.offline_node_count(), 1);
        assert_eq!(s.free_node_count(), 15);
        assert!(!s.is_leaf_fully_free(s.tree().leaf_of_node(n)));
        s.assert_consistent();
        // Double-offline and offline-of-owned are rejected.
        assert!(!s.set_node_offline(n));
        s.claim_node(NodeId(0), JobId(1));
        assert!(!s.set_node_offline(NodeId(0)));
        // Repair restores everything.
        assert!(s.set_node_online(n));
        assert!(!s.set_node_online(n));
        assert!(s.is_node_free(n));
        assert_eq!(s.offline_node_count(), 0);
        s.assert_consistent();
    }

    #[test]
    fn pod_max_free_leaf_nodes_tracks_claims() {
        let mut s = fresh(); // 2 nodes/leaf, 2 leaves/pod
        let pod = PodId(0);
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 2);
        // Claiming one node of leaf 0 leaves leaf 1 at the max.
        s.claim_node(NodeId(0), JobId(1));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 2);
        // Draining leaf 1 drops the max to leaf 0's remaining free node.
        s.claim_node(NodeId(2), JobId(1));
        s.claim_node(NodeId(3), JobId(1));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 1);
        s.assert_consistent();
        // Releases raise it again; other pods were never affected.
        s.release_node(NodeId(2));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 1);
        s.release_node(NodeId(0));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 2);
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(PodId(1)), 2);
        s.assert_consistent();
    }

    #[test]
    fn pod_max_free_leaf_nodes_tracks_offline() {
        let mut s = fresh();
        let pod = PodId(0);
        s.set_node_offline(NodeId(0));
        s.set_node_offline(NodeId(2));
        s.set_node_offline(NodeId(3));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 1);
        s.set_node_online(NodeId(0));
        assert_eq!(s.max_free_nodes_on_leaf_in_pod(pod), 2);
        s.assert_consistent();
    }

    #[test]
    fn pod_min_free_spine_slots_tracks_claims() {
        let mut s = fresh(); // 2 L2/pod, 2 spine slots each
        let t = *s.tree();
        let pod = PodId(1);
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 2);
        let l2 = t.l2_at(pod, 0);
        s.claim_spine_link(t.spine_link(l2, 0), JobId(4));
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 1);
        s.claim_spine_link(t.spine_link(l2, 1), JobId(4));
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 0);
        // The other L2 still has both slots; min stays at the drained L2.
        s.release_spine_link(t.spine_link(l2, 0));
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 1);
        s.assert_consistent();
        s.release_spine_link(t.spine_link(l2, 1));
        assert_eq!(s.min_free_spine_slots_in_pod(pod), 2);
        assert_eq!(s.min_free_spine_slots_in_pod(PodId(0)), 2);
        s.assert_consistent();
    }

    #[test]
    fn free_node_mask_tracks_claims_and_offline() {
        let mut s = fresh(); // 2 nodes/leaf
        let leaf = s.tree().leaf_of_node(NodeId(0));
        assert_eq!(s.leaf_free_node_mask(leaf), 0b11);
        assert_eq!(s.first_free_node_on_leaf(leaf), Some(NodeId(0)));
        s.claim_node(NodeId(0), JobId(1));
        assert_eq!(s.leaf_free_node_mask(leaf), 0b10);
        assert_eq!(s.first_free_node_on_leaf(leaf), Some(NodeId(1)));
        assert_eq!(
            s.free_nodes_on_leaf_iter(leaf).collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        s.set_node_offline(NodeId(1));
        assert_eq!(s.leaf_free_node_mask(leaf), 0);
        assert_eq!(s.first_free_node_on_leaf(leaf), None);
        assert_eq!(s.first_free_node(), Some(NodeId(2)));
        s.assert_consistent();
        s.release_node(NodeId(0));
        s.set_node_online(NodeId(1));
        assert_eq!(s.leaf_free_node_mask(leaf), 0b11);
        assert_eq!(s.first_free_node(), Some(NodeId(0)));
        s.assert_consistent();
    }

    #[test]
    fn all_nodes_free_is_word_parallel_per_leaf() {
        let mut s = fresh();
        let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(5)];
        assert!(s.all_nodes_free(&nodes));
        assert!(s.all_nodes_free(&[]));
        s.claim_node(NodeId(5), JobId(9));
        assert!(!s.all_nodes_free(&nodes));
        assert!(s.all_nodes_free(&[NodeId(0), NodeId(1), NodeId(2)]));
        s.set_node_offline(NodeId(2));
        assert!(!s.all_nodes_free(&[NodeId(2)]));
    }

    #[test]
    fn serde_round_trip_rebuilds_derived_indices() {
        let mut s = fresh();
        s.claim_node(NodeId(3), JobId(2));
        s.set_node_offline(NodeId(6));
        s.claim_leaf_link(s.tree().leaf_link(LeafId(1), 0), JobId(2));
        s.claim_spine_link(s.tree().spine_link(L2Id(2), 1), JobId(2));
        assert!(s.try_reserve_leaf_link_bw(s.tree().leaf_link(LeafId(2), 1), 15));
        let back = SystemState::from_value(&s.to_value()).expect("round trip");
        assert_eq!(back, s);
        back.assert_consistent();
    }

    #[test]
    fn deserialize_tolerates_old_snapshots_with_derived_fields() {
        // Snapshots written before the primaries-only format carried every
        // derived vector; unknown keys must be ignored, derived state
        // rebuilt from the primaries alone.
        let s = fresh();
        let serde::Value::Object(mut pairs) = s.to_value() else {
            panic!("state serializes as an object");
        };
        pairs.push((
            "free_nodes_per_leaf".to_string(),
            vec![0u32; 8].to_value(), // stale garbage: must be ignored
        ));
        let back = SystemState::from_value(&serde::Value::Object(pairs)).expect("compat");
        assert_eq!(back, s);
        back.assert_consistent();
    }

    #[test]
    fn deserialize_rejects_wrong_length_vectors() {
        let s = fresh();
        let serde::Value::Object(pairs) = s.to_value() else {
            panic!("state serializes as an object");
        };
        let truncated: Vec<(String, serde::Value)> = pairs
            .into_iter()
            .map(|(k, v)| {
                if k == "node_owner" {
                    (k, vec![u32::MAX; 3].to_value())
                } else {
                    (k, v)
                }
            })
            .collect();
        let err = SystemState::from_value(&serde::Value::Object(truncated));
        assert!(err.is_err(), "length mismatch must be a typed error");
    }

    #[test]
    fn mask_of_widths() {
        assert_eq!(mask_of(0), 0);
        assert_eq!(mask_of(1), 1);
        assert_eq!(mask_of(8), 0xFF);
        assert_eq!(mask_of(64), u64::MAX);
    }
}
