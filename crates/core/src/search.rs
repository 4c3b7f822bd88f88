//! Shared search machinery behind the condition-respecting allocators.
//!
//! This module implements the recursive-backtracking searches of the paper's
//! Algorithm 1 (`FIND_L2`, `FIND_ALL_L2`, `FIND_L3`) once, parameterized
//! over a [`LinkView`] so the same code serves:
//!
//! * **Jigsaw / LaaS** — exclusive link availability straight from the
//!   [`SystemState`] masks,
//! * **LC+S** — bandwidth-aware availability ("the link has ≥ b spare
//!   tenths of GB/s under the 80% cap").
//!
//! The three-level search comes in two flavors:
//!
//! * [`find_three_level_full`] — Jigsaw's restriction (§4): all leaves full
//!   except the remainder leaf. On a full-bandwidth tree a full leaf uses
//!   *all* `M` uplinks, so condition 5's "same L2 positions in every tree"
//!   is automatically the full set and the per-pod sub-solutions collapse to
//!   fully-free-leaf counts; only the cross-tree spine matching (the paper's
//!   `FIND_L3`) needs backtracking.
//! * [`find_three_level_general`] — the least-constrained search used by
//!   LC+S, where `n_L` may be smaller than the leaf size. Per pod we
//!   enumerate up to a cap of two-level sub-solutions (the paper's
//!   `FIND_ALL_L2` with a cap standing in for the 5 s wall-clock timeout),
//!   then backtrack over (pod, sub-solution) pairs.

use crate::alloc::{RemTree, Shape, TreeAlloc};
use crate::scratch::SearchScratch;
use jigsaw_topology::bitset::{iter_mask, lowest_n_bits};
use jigsaw_topology::cast::count_u32;
use jigsaw_topology::ids::{L2Id, LeafId, PodId};
use jigsaw_topology::state::mask_of;
use jigsaw_topology::SystemState;

/// How the search decides whether a link can carry the job.
pub trait LinkView {
    /// Bitmask of `leaf`'s uplink positions usable by the job.
    fn leaf_avail_mask(&self, state: &SystemState, leaf: LeafId) -> u64;
    /// Bitmask of `l2`'s spine slots usable by the job.
    fn spine_avail_mask(&self, state: &SystemState, l2: L2Id) -> u64;
    /// `true` iff `leaf` can serve as a *full* leaf: every node free and
    /// every uplink usable.
    fn is_full_leaf(&self, state: &SystemState, leaf: LeafId) -> bool;
    /// Number of leaves in `pod` satisfying [`LinkView::is_full_leaf`].
    fn full_leaves_in_pod(&self, state: &SystemState, pod: PodId) -> u32;
}

/// Exclusive ownership (Jigsaw, LaaS): a link is usable iff unowned and
/// carrying no shared bandwidth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exclusive;

impl LinkView for Exclusive {
    #[inline]
    fn leaf_avail_mask(&self, state: &SystemState, leaf: LeafId) -> u64 {
        // Exclude links carrying fractional bandwidth (relevant only if
        // schemes are mixed on one state; individually harmless).
        state.leaf_uplink_free_mask(leaf) & !state.leaf_uplink_shared_mask(leaf)
    }

    #[inline]
    fn spine_avail_mask(&self, state: &SystemState, l2: L2Id) -> u64 {
        state.spine_uplink_free_mask(l2) & !state.spine_uplink_shared_mask(l2)
    }

    #[inline]
    fn is_full_leaf(&self, state: &SystemState, leaf: LeafId) -> bool {
        state.is_leaf_fully_free(leaf)
    }

    #[inline]
    fn full_leaves_in_pod(&self, state: &SystemState, pod: PodId) -> u32 {
        state.fully_free_leaves_in_pod(pod)
    }
}

/// Bandwidth-aware availability (LC+S): a link is usable iff it has at
/// least `bw_tenths` spare capacity under the cap.
#[derive(Debug, Clone, Copy)]
pub struct Shared {
    /// The job's per-link demand, tenths of GB/s.
    pub bw_tenths: u16,
}

impl LinkView for Shared {
    fn leaf_avail_mask(&self, state: &SystemState, leaf: LeafId) -> u64 {
        let tree = state.tree();
        let mut mask = 0u64;
        for pos in 0..tree.l2_per_pod() {
            if state.leaf_link_bw_spare(tree.leaf_link(leaf, pos)) >= self.bw_tenths {
                mask |= 1 << pos;
            }
        }
        mask
    }

    fn spine_avail_mask(&self, state: &SystemState, l2: L2Id) -> u64 {
        let tree = state.tree();
        let mut mask = 0u64;
        for slot in 0..tree.spines_per_group() {
            if state.spine_link_bw_spare(tree.spine_link(l2, slot)) >= self.bw_tenths {
                mask |= 1 << slot;
            }
        }
        mask
    }

    fn is_full_leaf(&self, state: &SystemState, leaf: LeafId) -> bool {
        state.free_nodes_on_leaf(leaf) == state.tree().nodes_per_leaf()
            && self.leaf_avail_mask(state, leaf) == mask_of(state.tree().l2_per_pod())
    }

    fn full_leaves_in_pod(&self, state: &SystemState, pod: PodId) -> u32 {
        count_u32(
            state
                .tree()
                .leaves_of_pod(pod)
                .filter(|&l| self.is_full_leaf(state, l))
                .count(),
        )
    }
}

/// Deterministic search budget: the paper guards LC+S's worst-case
/// hours-long search with a wall-clock timeout; we use a step budget so
/// simulations stay reproducible.
#[derive(Debug, Clone)]
pub struct Budget {
    steps: u64,
    limit: u64,
}

impl Budget {
    /// A budget allowing `limit` backtracking steps.
    pub fn new(limit: u64) -> Self {
        Budget { steps: 0, limit }
    }

    /// Effectively unlimited (Jigsaw's restricted search is fast; see §6.4).
    pub fn unlimited() -> Self {
        Budget::new(u64::MAX)
    }

    /// A budget that has already spent `spent` steps and may spend `limit`
    /// more (used to carry accounting across search phases).
    pub fn resumed(spent: u64, limit: u64) -> Self {
        Budget {
            steps: spent,
            limit: spent.saturating_add(limit),
        }
    }

    /// Record one step. Returns `false` once the budget is exhausted.
    #[inline]
    pub fn spend(&mut self) -> bool {
        self.steps += 1;
        self.steps <= self.limit
    }

    /// Steps spent so far.
    pub fn spent(&self) -> u64 {
        self.steps
    }

    /// `true` once the budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.steps > self.limit
    }
}

/// Result of a two-level (single-pod) search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelPick {
    /// The `L_T` full leaves.
    pub leaves: Vec<LeafId>,
    /// The chosen common L2 position set `S`, `|S| = n_L`.
    pub l2_set: u64,
    /// Optional remainder leaf `(leaf, S^r)` — the node count is the
    /// caller's `n_r`.
    pub rem_leaf: Option<(LeafId, u64)>,
}

/// The paper's `FIND_L2`: search `pod` for `l_t` leaves with `n_l` nodes
/// each sharing `n_l` usable uplink positions, plus (if `n_r > 0`) a
/// remainder leaf with `n_r` nodes whose usable uplinks cover `n_r`
/// positions of the common set.
#[allow(clippy::too_many_arguments)]
pub fn find_two_level<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pod: PodId,
    l_t: u32,
    n_l: u32,
    n_r: u32,
    budget: &mut Budget,
) -> Option<TwoLevelPick> {
    let tree = state.tree();
    debug_assert!(n_l >= 1 && n_r < n_l);
    debug_assert!(l_t + u32::from(n_r > 0) <= tree.leaves_per_pod());

    // Index skip: no leaf of the pod can host n_l nodes — nothing to scan.
    if state.max_free_nodes_on_leaf_in_pod(pod) < n_l {
        return None;
    }

    // Candidate full leaves: enough free nodes and enough usable uplinks.
    let mut candidates = scratch.cands.take();
    for leaf in tree.leaves_of_pod(pod) {
        if state.free_nodes_on_leaf(leaf) >= n_l {
            let mask = view.leaf_avail_mask(state, leaf);
            if mask.count_ones() >= n_l {
                candidates.push((leaf, mask));
            }
        }
    }
    let pick = if count_u32(candidates.len()) < l_t {
        None
    } else {
        let mut chosen = scratch.leaves.take();
        let pick = search_leaves(
            state,
            view,
            scratch,
            pod,
            &candidates,
            0,
            mask_of(tree.l2_per_pod()),
            l_t,
            n_l,
            n_r,
            &mut chosen,
            budget,
        );
        scratch.leaves.put(chosen);
        pick
    };
    scratch.cands.put(candidates);
    pick
}

#[allow(clippy::too_many_arguments)]
fn search_leaves<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pod: PodId,
    candidates: &[(LeafId, u64)],
    idx: usize,
    inter: u64,
    l_t: u32,
    n_l: u32,
    n_r: u32,
    chosen: &mut Vec<LeafId>,
    budget: &mut Budget,
) -> Option<TwoLevelPick> {
    if count_u32(chosen.len()) == l_t {
        return complete_two_level(state, view, scratch, pod, inter, n_l, n_r, chosen, budget);
    }
    if budget.exhausted() {
        return None;
    }
    let needed = l_t as usize - chosen.len();
    // Not enough candidates left to finish.
    if candidates.len() - idx < needed {
        return None;
    }
    for i in idx..=candidates.len() - needed {
        if !budget.spend() {
            return None;
        }
        let (leaf, mask) = candidates[i];
        let next = inter & mask;
        if next.count_ones() < n_l {
            continue;
        }
        chosen.push(leaf);
        if let Some(pick) = search_leaves(
            state,
            view,
            scratch,
            pod,
            candidates,
            i + 1,
            next,
            l_t,
            n_l,
            n_r,
            chosen,
            budget,
        ) {
            return Some(pick);
        }
        chosen.pop();
    }
    None
}

/// Base case of the two-level search: the full leaves are fixed with common
/// usable positions `inter`; pick `S` (and the remainder leaf if needed).
#[allow(clippy::too_many_arguments)]
fn complete_two_level<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pod: PodId,
    inter: u64,
    n_l: u32,
    n_r: u32,
    chosen: &[LeafId],
    budget: &mut Budget,
) -> Option<TwoLevelPick> {
    debug_assert!(inter.count_ones() >= n_l);
    if n_r == 0 {
        let mut leaves = scratch.leaves.take();
        leaves.extend_from_slice(chosen);
        return Some(TwoLevelPick {
            leaves,
            l2_set: lowest_n_bits(inter, n_l),
            rem_leaf: None,
        });
    }
    let tree = state.tree();
    for leaf in tree.leaves_of_pod(pod) {
        if chosen.contains(&leaf) || state.free_nodes_on_leaf(leaf) < n_r {
            continue;
        }
        if !budget.spend() {
            return None;
        }
        let rem_avail = view.leaf_avail_mask(state, leaf) & inter;
        if rem_avail.count_ones() < n_r {
            continue;
        }
        // Build S to contain the remainder leaf's n_r positions, then fill
        // with further positions from the intersection.
        let s_r = lowest_n_bits(rem_avail, n_r);
        let mut l2_set = s_r;
        let fill = inter & !s_r;
        l2_set |= lowest_n_bits(fill, n_l - n_r);
        let mut leaves = scratch.leaves.take();
        leaves.extend_from_slice(chosen);
        return Some(TwoLevelPick {
            leaves,
            l2_set,
            rem_leaf: Some((leaf, s_r)),
        });
    }
    None
}

/// Result of a three-level search, ready to become a
/// [`Shape::ThreeLevel`].
#[derive(Debug, Clone)]
pub struct ThreeLevelPick {
    /// Nodes per full leaf.
    pub n_l: u32,
    /// Full leaves per full tree.
    pub l_t: u32,
    /// The common L2 position set `S`.
    pub l2_set: u64,
    /// The `T` full trees.
    pub trees: Vec<TreeAlloc>,
    /// Per-position spine sets `S*_i`.
    pub spine_sets: Vec<u64>,
    /// Optional remainder tree.
    pub rem_tree: Option<RemTree>,
}

impl ThreeLevelPick {
    /// Convert into an allocation shape.
    pub fn into_shape(self) -> Shape {
        Shape::ThreeLevel {
            n_l: self.n_l,
            l_t: self.l_t,
            l2_set: self.l2_set,
            trees: self.trees,
            spine_sets: self.spine_sets,
            rem_tree: self.rem_tree,
        }
    }
}

/// Jigsaw's restricted three-level search (`FIND_L3` with full leaves, §4):
/// find `t_full` pods contributing `l_t` fully-free leaves each, plus — if
/// `l_rt > 0 || n_rl > 0` — a remainder pod contributing `l_rt` fully-free
/// leaves and a remainder leaf with `n_rl` nodes, such that per L2 position
/// the chosen pods share enough free spine uplinks (condition 6).
///
/// Requires a full-bandwidth tree (`W == M`): a full leaf then uses all `M`
/// uplink positions, so `S` is the full set.
#[allow(clippy::too_many_arguments)]
pub fn find_three_level_full<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    l_t: u32,
    t_full: u32,
    l_rt: u32,
    n_rl: u32,
    budget: &mut Budget,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    let m = tree.l2_per_pod();
    debug_assert!(tree.is_full_bandwidth());
    debug_assert!(t_full >= 1);
    debug_assert!(l_t >= 1 && l_t <= tree.leaves_per_pod());
    // Condition 1: the remainder tree holds fewer nodes than full trees.
    debug_assert!(l_rt < l_t, "remainder tree must be smaller than full trees");

    // Candidate full pods. The index checks are necessary conditions on
    // the ownership state, a superset of what any view can use: a full
    // leaf needs all W nodes free, and condition 6 needs ≥ l_t free spine
    // uplinks on every one of the pod's L2 switches — so pods failing
    // either index are skipped before any mask or per-leaf scan.
    let mut pods = scratch.pods.take();
    pods.extend(tree.pods().filter(|&p| {
        state.max_free_nodes_on_leaf_in_pod(p) == tree.nodes_per_leaf()
            && state.min_free_spine_slots_in_pod(p) >= l_t
            && view.full_leaves_in_pod(state, p) >= l_t
    }));
    let pick = if count_u32(pods.len()) < t_full {
        None
    } else {
        let mut inter = scratch.words.take();
        inter.resize(m as usize, mask_of(tree.spines_per_group()));
        let mut chosen = scratch.pods.take();
        let pick = search_pods_full(
            state,
            view,
            scratch,
            &pods,
            0,
            &inter,
            l_t,
            t_full,
            l_rt,
            n_rl,
            &mut chosen,
            budget,
        );
        scratch.pods.put(chosen);
        scratch.words.put(inter);
        pick
    };
    scratch.pods.put(pods);
    pick
}

#[allow(clippy::too_many_arguments)]
fn search_pods_full<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pods: &[PodId],
    idx: usize,
    inter: &[u64],
    l_t: u32,
    t_full: u32,
    l_rt: u32,
    n_rl: u32,
    chosen: &mut Vec<PodId>,
    budget: &mut Budget,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    if count_u32(chosen.len()) == t_full {
        return complete_three_level_full(
            state, view, scratch, chosen, inter, l_t, l_rt, n_rl, budget,
        );
    }
    if budget.exhausted() {
        return None;
    }
    let needed = t_full as usize - chosen.len();
    if pods.len() - idx < needed {
        return None;
    }
    for i in idx..=pods.len() - needed {
        if !budget.spend() {
            return None;
        }
        let pod = pods[i];
        let mut next = scratch.words.take();
        next.extend_from_slice(inter);
        let mut viable = true;
        for (pos, slot_mask) in next.iter_mut().enumerate() {
            *slot_mask &= view.spine_avail_mask(state, tree.l2_at(pod, count_u32(pos)));
            if slot_mask.count_ones() < l_t {
                viable = false;
                break;
            }
        }
        if !viable {
            scratch.words.put(next);
            continue;
        }
        chosen.push(pod);
        let pick = search_pods_full(
            state,
            view,
            scratch,
            pods,
            i + 1,
            &next,
            l_t,
            t_full,
            l_rt,
            n_rl,
            chosen,
            budget,
        );
        scratch.words.put(next);
        if pick.is_some() {
            return pick;
        }
        chosen.pop();
    }
    None
}

/// Base case of the full-leaf three-level search: the full pods are fixed
/// with per-position spine intersections `inter`; find the remainder pod
/// (if any) and construct the spine sets.
#[allow(clippy::too_many_arguments)]
fn complete_three_level_full<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    chosen: &[PodId],
    inter: &[u64],
    l_t: u32,
    l_rt: u32,
    n_rl: u32,
    budget: &mut Budget,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    let m = tree.l2_per_pod();
    let n_l = tree.nodes_per_leaf();
    let l2_set = mask_of(m);

    if l_rt == 0 && n_rl == 0 {
        let mut spine_sets = scratch.words.take();
        spine_sets.extend(inter.iter().map(|&mask| lowest_n_bits(mask, l_t)));
        return Some(ThreeLevelPick {
            n_l,
            l_t,
            l2_set,
            trees: make_full_trees(state, view, scratch, chosen, l_t),
            spine_sets,
            rem_tree: None,
        });
    }

    // Search for the remainder pod. The remainder's full leaves need every
    // L2 of the pod to offer at least l_rt free spine uplinks, so the
    // pod-min index rejects hopeless pods before any budget is spent.
    // The two probe buffers are reused across candidate pods and recycled
    // on every exit path.
    let mut rem_full = scratch.leaves.take();
    let mut rem_spine = scratch.words.take();
    'rem: for pod in tree.pods() {
        if chosen.contains(&pod) {
            continue;
        }
        if state.min_free_spine_slots_in_pod(pod) < l_rt {
            continue;
        }
        if !budget.spend() {
            break 'rem;
        }
        if view.full_leaves_in_pod(state, pod) < l_rt {
            continue;
        }
        rem_full.clear();
        full_leaves_into(state, view, pod, l_rt, None, &mut rem_full);

        // Per-position usable spine slots of the remainder pod within the
        // intersection chosen so far.
        rem_spine.clear();
        rem_spine.extend(
            (0..m).map(|pos| {
                view.spine_avail_mask(state, tree.l2_at(pod, pos)) & inter[pos as usize]
            }),
        );

        // Pick the remainder leaf and its S^r positions.
        let mut rem_leaf = None;
        let mut s_r = 0u64;
        if n_rl > 0 {
            let mut found = false;
            'leaves: for leaf in tree.leaves_of_pod(pod) {
                if rem_full.contains(&leaf) || state.free_nodes_on_leaf(leaf) < n_rl {
                    continue;
                }
                let avail = view.leaf_avail_mask(state, leaf);
                if avail.count_ones() < n_rl {
                    continue;
                }
                // S^r must be positions where the remainder pod's L2 can
                // carry one extra spine uplink beyond l_rt.
                let mut mask = 0u64;
                let mut count = 0;
                for pos in iter_mask(avail) {
                    if rem_spine[pos as usize].count_ones() > l_rt {
                        mask |= 1 << pos;
                        count += 1;
                        if count == n_rl {
                            rem_leaf = Some((leaf, n_rl, mask));
                            s_r = mask;
                            found = true;
                            break 'leaves;
                        }
                    }
                }
            }
            if !found {
                continue 'rem;
            }
        }

        // Per-position feasibility for the full leaves of the remainder.
        for pos in 0..m {
            let need = l_rt + u32::from(s_r & (1 << pos) != 0);
            if rem_spine[pos as usize].count_ones() < need {
                continue 'rem;
            }
        }

        // Construct spine sets: the remainder part first (so S*^r_i ⊆ S*_i
        // by construction), then fill to l_t from the intersection.
        let mut spine_sets = scratch.words.take();
        spine_sets.resize(m as usize, 0);
        let mut rem_sets = scratch.words.take();
        rem_sets.resize(m as usize, 0);
        for pos in 0..m as usize {
            let need = l_rt + u32::from(s_r & (1 << pos) != 0);
            let rem_part = lowest_n_bits(rem_spine[pos], need);
            rem_sets[pos] = rem_part;
            let fill = inter[pos] & !rem_part;
            spine_sets[pos] = rem_part | lowest_n_bits(fill, l_t - need);
        }

        scratch.words.put(rem_spine);
        return Some(ThreeLevelPick {
            n_l,
            l_t,
            l2_set,
            trees: make_full_trees(state, view, scratch, chosen, l_t),
            spine_sets,
            rem_tree: Some(RemTree {
                pod,
                leaves: rem_full,
                rem_leaf,
                spine_sets: rem_sets,
            }),
        });
    }
    scratch.leaves.put(rem_full);
    scratch.words.put(rem_spine);
    None
}

/// One full tree per chosen pod, leaves drawn from the scratch pools.
fn make_full_trees<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pods: &[PodId],
    l_t: u32,
) -> Vec<TreeAlloc> {
    let mut trees = scratch.trees.take();
    for &pod in pods {
        let mut leaves = scratch.leaves.take();
        full_leaves_into(state, view, pod, l_t, None, &mut leaves);
        trees.push(TreeAlloc { pod, leaves });
    }
    trees
}

/// The first `count` full leaves of `pod`, optionally skipping one leaf,
/// appended to `out` (cleared by the caller).
fn full_leaves_into<V: LinkView>(
    state: &SystemState,
    view: &V,
    pod: PodId,
    count: u32,
    skip: Option<LeafId>,
    out: &mut Vec<LeafId>,
) {
    debug_assert!(out.is_empty());
    for leaf in state.tree().leaves_of_pod(pod) {
        if count_u32(out.len()) == count {
            break;
        }
        if Some(leaf) != skip && view.is_full_leaf(state, leaf) {
            out.push(leaf);
        }
    }
    debug_assert_eq!(
        count_u32(out.len()),
        count,
        "caller verified full-leaf availability"
    );
}

/// One per-pod sub-solution of the general three-level search.
#[derive(Debug, Clone)]
pub(crate) struct PodSolution {
    pub(crate) leaves: Vec<LeafId>,
    /// Common usable uplink positions of the chosen leaves.
    pub(crate) inter: u64,
}

/// The least-constrained three-level search (LC+S): like
/// [`find_three_level_full`] but `n_l` may be smaller than the leaf size,
/// so the common L2 position set `S` must be discovered. Per pod, up to
/// `per_pod_cap` sub-solutions are enumerated (the paper's `FIND_ALL_L2`)
/// and the cross-pod combination is found by backtracking (`FIND_L3`).
#[allow(clippy::too_many_arguments)]
pub fn find_three_level_general<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    n_l: u32,
    l_t: u32,
    t_full: u32,
    l_rt: u32,
    n_rl: u32,
    budget: &mut Budget,
    per_pod_cap: usize,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    debug_assert!(t_full >= 1 && n_l >= 1);

    // Enumerate sub-solutions per pod, skipping pods whose best leaf
    // cannot host n_l nodes (the collect would come back empty anyway).
    let mut solutions = scratch.sol_lists.take();
    let mut aborted = false;
    for pod in tree.pods() {
        if state.max_free_nodes_on_leaf_in_pod(pod) < n_l {
            continue;
        }
        if budget.exhausted() {
            aborted = true;
            break;
        }
        let mut sltns = scratch.sols.take();
        collect_pod_solutions(
            state,
            view,
            scratch,
            pod,
            l_t,
            n_l,
            per_pod_cap,
            &mut sltns,
            budget,
        );
        if sltns.is_empty() {
            scratch.sols.put(sltns);
        } else {
            solutions.push((pod, sltns));
        }
    }
    let pick = if aborted || count_u32(solutions.len()) < t_full {
        None
    } else {
        let m = tree.l2_per_pod();
        let mut spine_inter = scratch.words.take();
        spine_inter.resize(m as usize, mask_of(tree.spines_per_group()));
        let mut chosen = scratch.picks.take();
        let pick = search_pods_general(
            state,
            view,
            scratch,
            &solutions,
            0,
            mask_of(m),
            &spine_inter,
            n_l,
            l_t,
            t_full,
            l_rt,
            n_rl,
            &mut chosen,
            budget,
        );
        scratch.picks.put(chosen);
        scratch.words.put(spine_inter);
        pick
    };
    scratch.put_solutions(solutions);
    pick
}

/// Enumerate up to `cap` two-level sub-solutions (`l_t` leaves × `n_l`
/// nodes, no remainder) inside `pod`.
#[allow(clippy::too_many_arguments)]
fn collect_pod_solutions<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    pod: PodId,
    l_t: u32,
    n_l: u32,
    cap: usize,
    out: &mut Vec<PodSolution>,
    budget: &mut Budget,
) {
    let tree = state.tree();
    let mut candidates = scratch.cands.take();
    for leaf in tree.leaves_of_pod(pod) {
        if state.free_nodes_on_leaf(leaf) >= n_l {
            let mask = view.leaf_avail_mask(state, leaf);
            if mask.count_ones() >= n_l {
                candidates.push((leaf, mask));
            }
        }
    }
    if count_u32(candidates.len()) >= l_t {
        let mut chosen = scratch.leaves.take();
        collect_rec(
            scratch,
            &candidates,
            0,
            mask_of(tree.l2_per_pod()),
            l_t,
            n_l,
            cap,
            &mut chosen,
            out,
            budget,
        );
        scratch.leaves.put(chosen);
    }
    scratch.cands.put(candidates);
}

#[allow(clippy::too_many_arguments)]
fn collect_rec(
    scratch: &mut SearchScratch,
    candidates: &[(LeafId, u64)],
    idx: usize,
    inter: u64,
    l_t: u32,
    n_l: u32,
    cap: usize,
    chosen: &mut Vec<LeafId>,
    out: &mut Vec<PodSolution>,
    budget: &mut Budget,
) {
    if out.len() >= cap || budget.exhausted() {
        return;
    }
    if count_u32(chosen.len()) == l_t {
        // Keep solutions with distinct intersections only — duplicates add
        // no matching power at the L3 stage.
        if !out.iter().any(|s| s.inter == inter) {
            let mut leaves = scratch.leaves.take();
            leaves.extend_from_slice(chosen);
            out.push(PodSolution { leaves, inter });
        }
        return;
    }
    let needed = l_t as usize - chosen.len();
    if candidates.len() - idx < needed {
        return;
    }
    for i in idx..=candidates.len() - needed {
        if !budget.spend() {
            return;
        }
        let (leaf, mask) = candidates[i];
        let next = inter & mask;
        if next.count_ones() < n_l {
            continue;
        }
        chosen.push(leaf);
        collect_rec(
            scratch,
            candidates,
            i + 1,
            next,
            l_t,
            n_l,
            cap,
            chosen,
            out,
            budget,
        );
        chosen.pop();
        if out.len() >= cap {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn search_pods_general<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    solutions: &[(PodId, Vec<PodSolution>)],
    idx: usize,
    pos_cand: u64,
    spine_inter: &[u64],
    n_l: u32,
    l_t: u32,
    t_full: u32,
    l_rt: u32,
    n_rl: u32,
    chosen: &mut Vec<(PodId, usize)>,
    budget: &mut Budget,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    if count_u32(chosen.len()) == t_full {
        return complete_three_level_general(
            state,
            view,
            scratch,
            solutions,
            chosen,
            pos_cand,
            spine_inter,
            n_l,
            l_t,
            l_rt,
            n_rl,
            budget,
        );
    }
    if budget.exhausted() {
        return None;
    }
    let needed = t_full as usize - chosen.len();
    if solutions.len() - idx < needed {
        return None;
    }
    let mut pod_spines = scratch.words.take();
    for i in idx..=solutions.len() - needed {
        let (pod, sltns) = &solutions[i];
        // Spine availability of this pod per position (independent of which
        // sub-solution is used — spine links hang off the pod's L2
        // switches, not its leaves).
        pod_spines.clear();
        pod_spines.extend(
            (0..tree.l2_per_pod()).map(|pos| view.spine_avail_mask(state, tree.l2_at(*pod, pos))),
        );
        for (si, sltn) in sltns.iter().enumerate() {
            if !budget.spend() {
                scratch.words.put(pod_spines);
                return None;
            }
            let next_pos = pos_cand & sltn.inter;
            if next_pos.count_ones() < n_l {
                continue;
            }
            let mut next_spine = scratch.words.take();
            next_spine.extend_from_slice(spine_inter);
            let mut good_positions = 0;
            for pos in iter_mask(next_pos) {
                next_spine[pos as usize] &= pod_spines[pos as usize];
                if next_spine[pos as usize].count_ones() >= l_t {
                    good_positions += 1;
                }
            }
            if good_positions < n_l {
                scratch.words.put(next_spine);
                continue;
            }
            chosen.push((*pod, si));
            let pick = search_pods_general(
                state,
                view,
                scratch,
                solutions,
                i + 1,
                next_pos,
                &next_spine,
                n_l,
                l_t,
                t_full,
                l_rt,
                n_rl,
                chosen,
                budget,
            );
            scratch.words.put(next_spine);
            if pick.is_some() {
                scratch.words.put(pod_spines);
                return pick;
            }
            chosen.pop();
        }
    }
    scratch.words.put(pod_spines);
    None
}

#[allow(clippy::too_many_arguments)]
fn complete_three_level_general<V: LinkView>(
    state: &SystemState,
    view: &V,
    scratch: &mut SearchScratch,
    solutions: &[(PodId, Vec<PodSolution>)],
    chosen: &[(PodId, usize)],
    pos_cand: u64,
    spine_inter: &[u64],
    n_l: u32,
    l_t: u32,
    l_rt: u32,
    n_rl: u32,
    budget: &mut Budget,
) -> Option<ThreeLevelPick> {
    let tree = state.tree();
    let m = tree.l2_per_pod() as usize;

    // Positions usable for S: in every chosen sub-solution's intersection
    // and with ≥ l_t common spines.
    let mut usable = scratch.positions.take();
    usable.extend(iter_mask(pos_cand).filter(|&pos| spine_inter[pos as usize].count_ones() >= l_t));
    if count_u32(usable.len()) < n_l {
        scratch.positions.put(usable);
        return None;
    }

    let no_remainder = l_rt == 0 && n_rl == 0;
    if no_remainder {
        let l2_set: u64 = usable.iter().take(n_l as usize).map(|&p| 1u64 << p).sum();
        scratch.positions.put(usable);
        let trees = picked_trees(scratch, solutions, chosen)?;
        let mut spine_sets = scratch.words.take();
        spine_sets.resize(m, 0);
        for pos in iter_mask(l2_set) {
            spine_sets[pos as usize] = lowest_n_bits(spine_inter[pos as usize], l_t);
        }
        return Some(ThreeLevelPick {
            n_l,
            l_t,
            l2_set,
            trees,
            spine_sets,
            rem_tree: None,
        });
    }

    // Remainder pod search (general shapes). The remainder needs a leaf
    // with n_l nodes (or n_rl when it is only a remainder leaf), so the
    // pod-max index rejects drained pods before any budget is spent.
    // The probe buffers are reused across candidate pods and recycled on
    // every exit path.
    let min_leaf_nodes = if l_rt > 0 { n_l } else { n_rl };
    let mut pod_spines = scratch.words.take();
    let mut ranked = scratch.positions.take();
    let mut rem_leaves = scratch.leaves.take();
    'rem: for pod in tree.pods() {
        if chosen.iter().any(|&(p, _)| p == pod) {
            continue;
        }
        if state.max_free_nodes_on_leaf_in_pod(pod) < min_leaf_nodes {
            continue;
        }
        if !budget.spend() {
            break 'rem;
        }
        pod_spines.clear();
        pod_spines.extend((0..tree.l2_per_pod()).map(|pos| {
            view.spine_avail_mask(state, tree.l2_at(pod, pos)) & spine_inter[pos as usize]
        }));

        // Rank usable positions by remainder-pod spine slack and keep those
        // able to carry at least l_rt uplinks. The tie-break on position
        // keeps the pick deterministic (and alloc-free — stable sorts buy
        // a merge buffer from the heap).
        ranked.clear();
        ranked.extend(
            usable
                .iter()
                .copied()
                .filter(|&pos| pod_spines[pos as usize].count_ones() >= l_rt),
        );
        if count_u32(ranked.len()) < n_l {
            continue 'rem;
        }
        ranked.sort_unstable_by_key(|&pos| {
            (
                std::cmp::Reverse(pod_spines[pos as usize].count_ones()),
                pos,
            )
        });
        ranked.truncate(n_l as usize);
        let l2_set: u64 = ranked.iter().map(|&p| 1u64 << p).sum();

        // Find l_rt full leaves (n_l nodes, uplinks covering S).
        rem_leaves.clear();
        let mut rem_leaf = None;
        let mut s_r = 0u64;
        for leaf in tree.leaves_of_pod(pod) {
            if count_u32(rem_leaves.len()) < l_rt
                && state.free_nodes_on_leaf(leaf) >= n_l
                && view.leaf_avail_mask(state, leaf) & l2_set == l2_set
            {
                rem_leaves.push(leaf);
            }
        }
        if count_u32(rem_leaves.len()) < l_rt {
            continue 'rem;
        }
        if n_rl > 0 {
            let mut found = false;
            'leaves: for leaf in tree.leaves_of_pod(pod) {
                if rem_leaves.contains(&leaf) || state.free_nodes_on_leaf(leaf) < n_rl {
                    continue;
                }
                let avail = view.leaf_avail_mask(state, leaf) & l2_set;
                if avail.count_ones() < n_rl {
                    continue;
                }
                let mut mask = 0u64;
                let mut count = 0;
                for pos in iter_mask(avail) {
                    if pod_spines[pos as usize].count_ones() > l_rt {
                        mask |= 1 << pos;
                        count += 1;
                        if count == n_rl {
                            rem_leaf = Some((leaf, n_rl, mask));
                            s_r = mask;
                            found = true;
                            break 'leaves;
                        }
                    }
                }
            }
            if !found {
                continue 'rem;
            }
        }

        // Construct spine sets.
        let mut spine_sets = scratch.words.take();
        spine_sets.resize(m, 0);
        let mut rem_sets = scratch.words.take();
        rem_sets.resize(m, 0);
        let mut feasible = true;
        for pos in iter_mask(l2_set) {
            let need = l_rt + u32::from(s_r & (1 << pos) != 0);
            let rem_part = lowest_n_bits(pod_spines[pos as usize], need);
            rem_sets[pos as usize] = rem_part;
            let fill = spine_inter[pos as usize] & !rem_part;
            if fill.count_ones() < l_t - need {
                feasible = false;
                break;
            }
            spine_sets[pos as usize] = rem_part | lowest_n_bits(fill, l_t - need);
        }
        if !feasible {
            scratch.words.put(spine_sets);
            scratch.words.put(rem_sets);
            continue 'rem;
        }

        scratch.words.put(pod_spines);
        scratch.positions.put(ranked);
        scratch.positions.put(usable);
        let trees = match picked_trees(scratch, solutions, chosen) {
            Some(trees) => trees,
            None => {
                scratch.leaves.put(rem_leaves);
                scratch.words.put(spine_sets);
                scratch.words.put(rem_sets);
                return None;
            }
        };
        return Some(ThreeLevelPick {
            n_l,
            l_t,
            l2_set,
            trees,
            spine_sets,
            rem_tree: Some(RemTree {
                pod,
                leaves: rem_leaves,
                rem_leaf,
                spine_sets: rem_sets,
            }),
        });
    }
    scratch.words.put(pod_spines);
    scratch.positions.put(ranked);
    scratch.positions.put(usable);
    scratch.leaves.put(rem_leaves);
    None
}

/// Copy the chosen sub-solutions' leaf sets into pooled [`TreeAlloc`]s.
/// `chosen` only ever holds pods drawn from `solutions`, so the lookup
/// cannot miss; propagating the `Option` keeps this panic-free anyway.
fn picked_trees(
    scratch: &mut SearchScratch,
    solutions: &[(PodId, Vec<PodSolution>)],
    chosen: &[(PodId, usize)],
) -> Option<Vec<TreeAlloc>> {
    let mut trees = scratch.trees.take();
    for &(pod, si) in chosen {
        let sltn = solutions
            .iter()
            .find(|(p, _)| *p == pod)
            .and_then(|(_, sltns)| sltns.get(si));
        let Some(sltn) = sltn else {
            for t in trees.drain(..) {
                scratch.leaves.put(t.leaves);
            }
            scratch.trees.put(trees);
            return None;
        };
        let mut leaves = scratch.leaves.take();
        leaves.extend_from_slice(&sltn.leaves);
        trees.push(TreeAlloc { pod, leaves });
    }
    Some(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_topology::ids::JobId;
    use jigsaw_topology::FatTree;

    fn fresh(radix: u32) -> SystemState {
        SystemState::new(FatTree::maximal(radix).unwrap())
    }

    #[test]
    fn two_level_on_empty_pod() {
        let state = fresh(8); // W=4, L=4, M=4
        let pick = find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            2,
            3,
            2,
            &mut Budget::unlimited(),
        )
        .expect("allocation exists");
        assert_eq!(pick.leaves.len(), 2);
        assert_eq!(pick.l2_set.count_ones(), 3);
        let (_, s_r) = pick.rem_leaf.unwrap();
        assert_eq!(s_r.count_ones(), 2);
        assert_eq!(s_r & !pick.l2_set, 0, "S^r ⊆ S");
    }

    #[test]
    fn two_level_fails_when_nodes_busy() {
        let mut state = fresh(4); // W=2, L=2 per pod
        for n in state.tree().nodes_of_leaf(LeafId(0)).collect::<Vec<_>>() {
            state.claim_node(n, JobId(9));
        }
        // Pod 0 now has one free leaf; asking for two full leaves fails.
        assert!(find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            2,
            2,
            0,
            &mut Budget::unlimited()
        )
        .is_none());
        // One full leaf still works.
        assert!(find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            1,
            2,
            0,
            &mut Budget::unlimited()
        )
        .is_some());
    }

    #[test]
    fn two_level_respects_link_availability() {
        let mut state = fresh(4);
        let t = *state.tree();
        // Take one uplink of each leaf in pod 0 (positions 0 and 1 resp.)
        // so the two leaves share no common free position.
        state.claim_leaf_link(t.leaf_link(LeafId(0), 0), JobId(9));
        state.claim_leaf_link(t.leaf_link(LeafId(1), 1), JobId(9));
        // Two leaves with 1 node each need one COMMON position — none left.
        assert!(find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            2,
            1,
            0,
            &mut Budget::unlimited()
        )
        .is_none());
        // A single leaf with 2 nodes still fits (uses its one free position
        // ... n_l = 2 needs 2 positions though, so that fails too).
        assert!(find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            1,
            2,
            0,
            &mut Budget::unlimited()
        )
        .is_none());
        assert!(find_two_level(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            PodId(0),
            1,
            1,
            0,
            &mut Budget::unlimited()
        )
        .is_some());
    }

    #[test]
    fn three_level_full_on_empty_tree() {
        let state = fresh(4); // pods of 2 leaves × 2 nodes
                              // T=2 full trees × (l_t=2 × W=2) + remainder tree (1 full leaf + 1-node leaf).
        let pick = find_three_level_full(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            2,
            2,
            1,
            1,
            &mut Budget::unlimited(),
        )
        .expect("allocation exists");
        assert_eq!(pick.trees.len(), 2);
        assert_eq!(pick.l2_set, 0b11);
        let rem = pick.rem_tree.as_ref().unwrap();
        assert_eq!(rem.leaves.len(), 1);
        assert!(rem.rem_leaf.is_some());
        // Every spine set has l_t bits; remainder subsets are consistent.
        for pos in 0..2usize {
            assert_eq!(pick.spine_sets[pos].count_ones(), 2);
            assert_eq!(rem.spine_sets[pos] & !pick.spine_sets[pos], 0);
        }
    }

    #[test]
    fn three_level_full_respects_spine_conflicts() {
        let mut state = fresh(4);
        let t = *state.tree();
        // Burn all spine uplinks at position 0 of pods 0 and 1.
        for pod in [PodId(0), PodId(1)] {
            for slot in 0..2 {
                state.claim_spine_link(t.spine_link_at(pod, 0, slot), JobId(9));
            }
        }
        // A 2-tree allocation needing l_t = 2 spine uplinks per position can
        // only use pods 2 and 3 now.
        let pick = find_three_level_full(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            2,
            2,
            0,
            0,
            &mut Budget::unlimited(),
        )
        .expect("pods 2,3 remain");
        let pods: Vec<_> = pick.trees.iter().map(|t| t.pod).collect();
        assert_eq!(pods, vec![PodId(2), PodId(3)]);
        // Asking for three trees must fail.
        assert!(find_three_level_full(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            2,
            3,
            0,
            0,
            &mut Budget::unlimited()
        )
        .is_none());
    }

    #[test]
    fn general_three_level_with_partial_leaves() {
        let state = fresh(8); // W=4, M=4, L=4, G=4, P=8
                              // n_l = 2 (< W): least-constrained shape Jigsaw would not use.
        let pick = find_three_level_general(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            2,
            3,
            2,
            0,
            0,
            &mut Budget::unlimited(),
            8,
        )
        .expect("allocation exists");
        assert_eq!(pick.n_l, 2);
        assert_eq!(pick.l2_set.count_ones(), 2);
        assert_eq!(pick.trees.len(), 2);
        for tree_alloc in &pick.trees {
            assert_eq!(tree_alloc.leaves.len(), 3);
        }
    }

    #[test]
    fn budget_exhaustion_aborts() {
        let state = fresh(8);
        let mut budget = Budget::new(1);
        let _ = find_three_level_general(
            &state,
            &Exclusive,
            &mut SearchScratch::default(),
            2,
            3,
            2,
            1,
            1,
            &mut budget,
            8,
        );
        assert!(budget.exhausted() || budget.spent() <= 2);
    }

    #[test]
    fn shared_view_sees_spare_bandwidth() {
        let mut state = fresh(4);
        let t = *state.tree();
        let link = t.leaf_link(LeafId(0), 0);
        assert!(state.try_reserve_leaf_link_bw(link, 35));
        let heavy = Shared { bw_tenths: 10 };
        let light = Shared { bw_tenths: 5 };
        assert_eq!(heavy.leaf_avail_mask(&state, LeafId(0)), 0b10);
        assert_eq!(light.leaf_avail_mask(&state, LeafId(0)), 0b11);
        // Exclusive view treats the shared link as unavailable.
        assert_eq!(Exclusive.leaf_avail_mask(&state, LeafId(0)), 0b10);
    }
}
