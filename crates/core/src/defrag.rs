//! Migration planning and execution: turning fragmentation rejects into
//! [`Decision::Reconfigure`] proposals, and replaying them on the live
//! machine.
//!
//! The paper's Algorithm 1 admits or rejects — which is exactly why
//! fragmented fat-tree states strand capacity a bounded set of migrations
//! would recover. This module computes those migrations:
//!
//! * [`plan_migrations`] searches, **on scratch clones** of the state and
//!   allocator, for a bounded eviction set whose re-placement compacts the
//!   machine enough to admit the blocked request. Two comparable search
//!   schemes are provided ([`PlanScheme`]): a greedy smallest-first
//!   compactor and a simulated-annealing improver over eviction orders
//!   (after Lan et al.'s neural simulated annealing — the classic
//!   Metropolis schedule is used here). Claimed allocations that must not
//!   move (the daemon's advance reservations) are passed as `pinned`.
//! * [`MigrationPlan`] is the proposal: an ordered move list plus the
//!   proven placement for the triggering job. The move order is
//!   *sequentially applicable* — applying moves one at a time (release the
//!   old placement, adopt the new) never double-claims a node or link, so
//!   a daemon can journal each move and survive a crash mid-plan.
//! * [`apply_move`] and [`apply_plan`] are the one executor: every caller
//!   (simulator, daemon, benchmarks, tests) replays plans through them.
//!
//! # Plan soundness
//!
//! Every plan returned by [`plan_migrations`] was *executed* on a scratch
//! clone first: the evictions, the re-placements, and the triggering
//! admission all went through the real allocator, and the resulting scratch
//! state passed [`audit_system`] (node/link ownership balances, shape
//! conditions hold). The move order is then topologically sorted so each
//! move's destination is disjoint from every *later* move's source; a
//! cyclic dependency (jobs swapping places) aborts the plan rather than
//! risk a double-claim. Interference-freedom of the compacted placement is
//! re-proven at the call sites that can reach `jigsaw-routing`
//! (`route_permutation` on each moved partition); core's own audit already
//! enforces the formal shape conditions the proof rests on.

use crate::alloc::Allocation;
use crate::allocator::{Allocator, Decision};
use crate::audit::{audit_system, AuditError};
use crate::job::JobRequest;
use crate::reject::{Reject, RejectReason};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::SystemState;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One migration: move `job` from its current placement to a new one.
///
/// `from` must be the job's *exact* current allocation (the applier
/// validates this before releasing anything).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Migration {
    /// The job being moved.
    pub job: JobId,
    /// The placement it currently holds.
    pub from: Allocation,
    /// The placement it moves to.
    pub to: Allocation,
}

impl Migration {
    /// Nodes that must checkpoint/restart for this move — the unit the
    /// migration cost model charges for.
    pub fn nodes_moved(&self) -> u32 {
        jigsaw_topology::cast::count_u32(self.from.nodes.len())
    }
}

/// A bounded, audited list of migrations that makes a blocked request fit.
///
/// Produced by [`plan_migrations`]; carried by
/// [`Decision::Reconfigure`]. Applying the
/// moves in order (see [`apply_plan`]) and then adopting
/// [`MigrationPlan::admits`] yields a state in which the triggering job
/// runs on the proven placement — no re-search is needed (or allowed: the
/// placement was verified on the scratch clone, a fresh search might pick
/// a different one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The proven placement for the job that triggered the plan.
    pub admits: Allocation,
    /// The rejection Algorithm 1 alone produced (kept so callers that
    /// decline to migrate can degrade to the two-outcome view).
    pub blocking: Reject,
    /// The moves, in a sequentially-applicable order.
    pub moves: Vec<Migration>,
}

impl MigrationPlan {
    /// Total nodes that must migrate to execute this plan.
    pub fn nodes_moved(&self) -> u32 {
        self.moves.iter().map(Migration::nodes_moved).sum()
    }

    /// Migration cost under a per-node cost model: every moved node pays
    /// `cost_per_node` (checkpoint + restore + requeue), independent of
    /// distance — fat-tree bisection bandwidth makes transfer distance a
    /// second-order term.
    pub fn cost(&self, cost_per_node: f64) -> f64 {
        f64::from(self.nodes_moved()) * cost_per_node
    }
}

/// How [`plan_migrations`] searches the space of eviction sets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlanScheme {
    /// Evict smallest-resident-first until the blocked request fits, then
    /// re-place the evicted jobs largest-first. One deterministic pass.
    Greedy,
    /// Start from the greedy eviction order and anneal it: swap two
    /// candidates per step, accept worse plans with Metropolis probability
    /// under a geometric cooling schedule, keep the cheapest valid plan
    /// (fewest nodes moved). Deterministic for a fixed `seed`.
    Anneal {
        /// Annealing steps (each evaluates one candidate plan).
        iters: u32,
        /// RNG seed; identical seeds yield identical plans.
        seed: u64,
    },
}

/// Bounds and scheme selection for [`plan_migrations`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefragConfig {
    /// Hard cap on evictions per plan (the paper-style bounded
    /// reconfiguration: a plan that needs more moves is not worth its
    /// disruption).
    pub max_moves: usize,
    /// Plan-search scheme.
    pub scheme: PlanScheme,
}

impl Default for DefragConfig {
    fn default() -> DefragConfig {
        DefragConfig {
            max_moves: 8,
            scheme: PlanScheme::Greedy,
        }
    }
}

/// Why applying a [`MigrationPlan`] failed. See [`apply_move`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanApplyError {
    /// A move's `from` placement is not in the caller's live set — the
    /// plan was computed against a state that has since changed.
    StaleMove {
        /// The job whose placement went stale.
        job: JobId,
    },
    /// The post-move audit found inconsistencies (a planner bug: plans
    /// are audited on scratch before being returned).
    AuditFailed {
        /// The job whose move (or admission) broke the audit.
        job: JobId,
        /// What the audit found.
        errors: Vec<AuditError>,
    },
}

impl std::fmt::Display for PlanApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanApplyError::StaleMove { job } => {
                write!(f, "stale migration: job {} moved since planning", job.0)
            }
            PlanApplyError::AuditFailed { job, errors } => {
                write!(
                    f,
                    "audit failed after migrating job {} ({} error(s), first: {})",
                    job.0,
                    errors.len(),
                    errors
                        .first()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "none".into())
                )
            }
        }
    }
}

impl std::error::Error for PlanApplyError {}

/// Compute a migration plan that admits `req`, or `None` when no bounded
/// plan exists.
///
/// `alloc` and `state` are only cloned, never mutated. `live` and
/// `pinned` together are every allocation claimed in `state` (besides
/// system-pinned nodes): `live` may move, `pinned` may not — pinned
/// allocations are never eviction candidates but are part of every
/// scratch audit. `blocking` is the rejection the plain decision
/// produced — plans are only searched for occupancy-caused rejections
/// (shape/links/sharing/budget); `ZeroSize` and `NoNodes` return `None`
/// immediately, since no rearrangement conjures capacity.
pub fn plan_migrations(
    alloc: &dyn Allocator,
    state: &SystemState,
    live: &[Allocation],
    pinned: &[Allocation],
    req: &JobRequest,
    blocking: Reject,
    cfg: &DefragConfig,
) -> Option<MigrationPlan> {
    if matches!(
        blocking.reason,
        RejectReason::ZeroSize | RejectReason::NoNodes { .. }
    ) {
        return None;
    }
    // Candidate victims ordered to vacate whole leaves cheapest-first.
    // Occupancy-class rejects are starved of *full leaves* (free nodes
    // exist, but scattered): an eviction only helps once it empties a
    // leaf completely, so size-ordered eviction is placement-blind and
    // wastes the move budget. Instead, rank leaves by how few allocated
    // nodes they hold (cheapest to empty), then list each leaf's resident
    // jobs smallest-first; a job spanning several leaves appears at its
    // best-ranked leaf. The greedy scheme evicts along this order; the
    // annealer uses it as its starting point.
    let order = leaf_coherent_order(state, live);
    let planner = Planner {
        alloc,
        state,
        live,
        pinned,
        req,
        blocking,
        max_moves: cfg.max_moves,
    };
    match cfg.scheme {
        PlanScheme::Greedy => planner.evaluate_order(&order).map(|(plan, _)| plan),
        PlanScheme::Anneal { iters, seed } => planner.anneal(order, iters, seed),
    }
}

/// Execute one planned move on a real state: find `m.from` in `claimed`
/// (the caller's list of every allocation claimed in `state`), release
/// it, adopt `m.to`, replace the entry, and **re-audit the full system**.
///
/// This is the one place a migration touches a live state; the daemon
/// journals each move write-ahead and then calls this, and [`apply_plan`]
/// calls it for every move of a plan. All mutations go through
/// [`Allocator::release`] / [`Allocator::adopt`], so schemes with
/// internal bookkeeping (TA's classes) stay consistent.
#[must_use = "a failed move leaves the plan half-applied; the caller must stop and report it"]
pub fn apply_move(
    alloc: &mut dyn Allocator,
    state: &mut SystemState,
    claimed: &mut [Allocation],
    m: &Migration,
) -> Result<(), PlanApplyError> {
    let Some(idx) = claimed.iter().position(|a| *a == m.from) else {
        return Err(PlanApplyError::StaleMove { job: m.job });
    };
    alloc.release(state, &m.from);
    alloc.adopt(state, &m.to);
    claimed[idx] = m.to.clone();
    audited(state, &*claimed, m.job)
}

/// Apply a whole [`MigrationPlan`]: every move through [`apply_move`],
/// then adopt the plan's admitted placement and audit once more, with the
/// admission counted among the claimed allocations. Returns the admitted
/// placement, which is claimed in `state` but *not* added to `claimed`:
/// recording it is the caller's, together with whatever it tracks per
/// job. The caller must *not* re-decide the triggering request (a fresh
/// search might pick a different placement than the proven one).
#[must_use = "an unapplied or failed plan leaves the admitted placement unclaimed"]
pub fn apply_plan(
    alloc: &mut dyn Allocator,
    state: &mut SystemState,
    claimed: &mut [Allocation],
    plan: &MigrationPlan,
) -> Result<Allocation, PlanApplyError> {
    for m in &plan.moves {
        apply_move(alloc, state, claimed, m)?;
    }
    alloc.adopt(state, &plan.admits);
    audited(state, claimed.iter().chain([&plan.admits]), plan.admits.job)?;
    Ok(plan.admits.clone())
}

/// `Ok` when `claimed` balances `state`, else the findings blamed on `job`.
fn audited<'a>(
    state: &SystemState,
    claimed: impl IntoIterator<Item = &'a Allocation> + Clone,
    job: JobId,
) -> Result<(), PlanApplyError> {
    let errors = audit_system(state, claimed);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(PlanApplyError::AuditFailed { job, errors })
    }
}

/// The eviction-candidate order that empties whole leaves cheapest-first.
///
/// A leaf's emptying cost is the **total size of every job touching it**
/// — not its allocated-node count: a leaf holding one node of a large
/// job is cheap-looking but expensive to vacate (the whole job must
/// move, surrendering nodes it held in other, fuller leaves). Leaves are
/// ranked by that cost ascending (ties by leaf id); each contributes its
/// resident jobs smallest-first (ties by job id), and a job spanning
/// several leaves is listed at its best-ranked leaf.
///
/// Linear bookkeeping: cost, rank and the per-allocation dedup are dense
/// vectors indexed by leaf id, and each allocation's sort key is computed
/// once. Untouched leaves rank (cost 0) ahead of every touched one, which
/// shifts all touched ranks equally and so leaves the order unchanged.
/// Allocations list a leaf's nodes consecutively, so both passes divide
/// once per run of same-leaf nodes (`FatTree::node_runs`), not once per node.
fn leaf_coherent_order(state: &SystemState, live: &[Allocation]) -> Vec<usize> {
    let tree = state.tree();
    let leaves = tree.num_leaves() as usize;
    let mut cost = vec![0u64; leaves];
    // The last allocation (index into `live`) that charged each leaf: a
    // job charges every leaf it touches exactly once.
    let mut charged_by = vec![usize::MAX; leaves];
    for (i, a) in live.iter().enumerate() {
        for (leaf, _) in tree.node_runs(&a.nodes) {
            let l = leaf.idx();
            if charged_by[l] != i {
                charged_by[l] = i;
                cost[l] += a.nodes.len() as u64;
            }
        }
    }
    let mut by_cost: Vec<usize> = (0..leaves).collect();
    by_cost.sort_unstable_by_key(|&l| (cost[l], l));
    let mut rank = vec![0usize; leaves];
    for (r, &l) in by_cost.iter().enumerate() {
        rank[l] = r;
    }
    let keys: Vec<(usize, usize, u32)> = live
        .iter()
        .map(|a| {
            let best = tree
                .node_runs(&a.nodes)
                .map(|(leaf, _)| rank[leaf.idx()])
                .min()
                .unwrap_or(usize::MAX);
            (best, a.nodes.len(), a.job.0)
        })
        .collect();
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order
}

/// One plan search: the inputs every candidate eviction order is
/// evaluated against.
struct Planner<'a> {
    alloc: &'a dyn Allocator,
    state: &'a SystemState,
    /// Movable allocations; eviction orders index into this.
    live: &'a [Allocation],
    /// Claimed allocations that never move.
    pinned: &'a [Allocation],
    req: &'a JobRequest,
    blocking: Reject,
    max_moves: usize,
}

impl Planner<'_> {
    /// Execute one candidate eviction order on a scratch clone. Returns the
    /// sequenced, audited plan and its score (nodes moved) or `None` when
    /// the order yields no valid bounded plan.
    ///
    /// Most calls find no plan, so the failing path is kept cheap: one
    /// scratch state and allocator serve the whole order, every failed
    /// step is undone by releasing what it claimed (claims and releases
    /// are exact inverses), and the audit set is built only for a
    /// candidate whose evicted jobs were all re-homed.
    fn evaluate_order(&self, order: &[usize]) -> Option<(MigrationPlan, u32)> {
        let live = self.live;
        // Evict a growing prefix of `order`. A prefix where the request
        // fits but some evicted job cannot be re-homed is not a dead end —
        // the next eviction frees more room for BOTH the request and the
        // re-placements — so phase-2 failure falls through to a longer
        // prefix instead of aborting the whole order. Prefix k extends
        // prefix k-1 by one victim, so the scratch pair carries over: a
        // rejecting `decide` claims nothing, and an admission whose phase 2
        // fails is released before the next victim goes.
        let mut scratch = self.state.clone();
        let mut salloc = self.alloc.clone_box();
        for k in 1..=self.max_moves.min(order.len()) {
            let evicted = &order[..k];
            salloc.release(&mut scratch, &live[order[k - 1]]);

            // Phase 1: does the blocked request fit after these evictions?
            let Decision::Admit(admits) = salloc.decide(&mut scratch, self.req) else {
                continue;
            };

            // Phase 2: re-place every evicted job. The re-placement order
            // decides which holes each job sees, and hence whether the
            // move set is *sequentially applicable* — jobs placed into
            // each other's old spots form a cyclic swap no
            // one-move-at-a-time applier can execute. Try a small
            // deterministic family of orders; the first one that yields a
            // sound, acyclic plan wins. Largest-first leads (big jobs have
            // the fewest placement options; give them first pick of the
            // holes). An order equal to one already tried would fail the
            // same way and is skipped (for k = 1 all three coincide). The
            // triggering job is already claimed in `scratch`, so every
            // re-placement is disjoint from `admits` by construction.
            let mut largest_first: Vec<usize> = evicted.to_vec();
            largest_first.sort_by_key(|&i| (std::cmp::Reverse(live[i].nodes.len()), live[i].job.0));
            let mut eviction_rev: Vec<usize> = evicted.to_vec();
            eviction_rev.reverse();
            let candidates = [largest_first, evicted.to_vec(), eviction_rev];
            for (c, replace_order) in candidates.iter().enumerate() {
                if candidates[..c].contains(replace_order) {
                    continue;
                }
                let replaced = self.replace_evicted(
                    salloc.as_mut(),
                    &mut scratch,
                    evicted,
                    replace_order,
                    &admits,
                );
                if let Some(moves) = replaced {
                    let score = moves.iter().map(Migration::nodes_moved).sum();
                    return Some((
                        MigrationPlan {
                            admits,
                            blocking: self.blocking,
                            moves,
                        },
                        score,
                    ));
                }
            }
            salloc.release(&mut scratch, &admits);
            salloc.recycle(admits);
        }
        None
    }

    /// Phase 2 of [`Planner::evaluate_order`] for one re-placement order,
    /// run on the phase-1 scratch pair (which already holds `admits`).
    /// Returns the sequenced moves, or `None` — with every re-placement
    /// released again — when some evicted job cannot be re-homed, the
    /// executed schedule fails the audit, or the moves form a cycle.
    fn replace_evicted(
        &self,
        salloc: &mut dyn Allocator,
        scratch: &mut SystemState,
        evicted: &[usize],
        replace_order: &[usize],
        admits: &Allocation,
    ) -> Option<Vec<Migration>> {
        let mut placed: Vec<Allocation> = Vec::with_capacity(replace_order.len());
        for &i in replace_order {
            let old = &self.live[i];
            let back = JobRequest::with_bandwidth(old.job, old.requested, old.bw_tenths);
            let Decision::Admit(new_placement) = salloc.decide(scratch, &back) else {
                break; // cannot re-home everyone at this depth
            };
            placed.push(new_placement);
        }
        if placed.len() == replace_order.len() {
            if let Some(moves) =
                self.audited_moves(scratch, evicted, replace_order, admits, &placed)
            {
                return Some(moves);
            }
        }
        for p in placed.into_iter().rev() {
            salloc.release(scratch, &p);
            salloc.recycle(p);
        }
        None
    }

    /// The moves of a fully re-homed candidate, sequenced, provided the
    /// executed scratch schedule audits clean (defensive — a failure here
    /// is an allocator bug, not a caller error) and the moves form no
    /// cycle.
    fn audited_moves(
        &self,
        scratch: &SystemState,
        evicted: &[usize],
        replace_order: &[usize],
        admits: &Allocation,
        placed: &[Allocation],
    ) -> Option<Vec<Migration>> {
        let live = self.live;
        let scratch_live = live
            .iter()
            .enumerate()
            .filter(|(i, _)| !evicted.contains(i))
            .map(|(_, a)| a)
            .chain(std::iter::once(admits))
            .chain(placed)
            .chain(self.pinned);
        if !audit_system(scratch, scratch_live).is_empty() {
            return None;
        }
        let moves = replace_order
            .iter()
            .zip(placed)
            .filter(|&(&i, to)| *to != live[i])
            .map(|(&i, to)| Migration {
                job: live[i].job,
                from: live[i].clone(),
                to: to.clone(),
            })
            .collect();
        sequence_moves(moves)
    }

    /// Metropolis annealing over eviction orders, starting from the greedy
    /// order. Deterministic for fixed inputs and `seed`.
    fn anneal(&self, start_order: Vec<usize>, iters: u32, seed: u64) -> Option<MigrationPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current_order = start_order;
        let mut current = self.evaluate_order(&current_order);
        let mut best = current.clone();
        if current_order.len() < 2 {
            return best.map(|(plan, _)| plan);
        }
        // Initial temperature of a few nodes' worth of cost; geometric
        // cooling.
        let mut temperature = 8.0_f64;
        let cooling = 0.95_f64;
        // Swapping positions past the eviction window never changes the
        // plan; keep proposals inside (a bit beyond) the window so steps
        // matter.
        let window = (self.max_moves + 2).min(current_order.len());
        for _ in 0..iters {
            let a = rng.random_range(0..window);
            let b = rng.random_range(0..window);
            if a == b {
                temperature *= cooling;
                continue;
            }
            let mut candidate_order = current_order.clone();
            candidate_order.swap(a, b);
            let candidate = self.evaluate_order(&candidate_order);
            let accept = match (&candidate, &current) {
                (Some((_, new_score)), Some((_, cur_score))) => {
                    let delta = f64::from(*new_score) - f64::from(*cur_score);
                    delta <= 0.0 || rng.random_bool((-delta / temperature).exp())
                }
                (Some(_), None) => true,
                (None, _) => false,
            };
            if accept {
                current_order = candidate_order;
                current = candidate;
                let improves = match (&current, &best) {
                    (Some((_, s)), Some((_, b))) => s < b,
                    (Some(_), None) => true,
                    _ => false,
                };
                if improves {
                    best = current.clone();
                }
            }
            temperature *= cooling;
        }
        best.map(|(plan, _)| plan)
    }
}

/// Order `moves` so they are sequentially applicable: each move's `to`
/// must be disjoint from every **later** move's `from` (a later job still
/// holds its old placement when an earlier move claims its destination).
/// A move's own `from`/`to` may overlap — application releases before it
/// adopts. Returns `None` on a cyclic dependency (e.g. two jobs swapping
/// placements), which cannot be applied one move at a time.
fn sequence_moves(mut moves: Vec<Migration>) -> Option<Vec<Migration>> {
    let mut ordered = Vec::with_capacity(moves.len());
    while !moves.is_empty() {
        // A move is ready when its destination is disjoint from every
        // other pending move's current (old) placement.
        let ready = moves.iter().position(|m| {
            moves
                .iter()
                .all(|other| other.job == m.job || m.to.is_disjoint_from(&other.from))
        })?;
        ordered.push(moves.swap_remove(ready));
    }
    Some(ordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use jigsaw_topology::FatTree;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Fragment a radix-8 machine (128 nodes, 4-node leaves, 16-node pods):
    /// fill every leaf with a 3-node job plus a 1-node job, then free every
    /// 3-node job. Result: each of the 32 leaves holds one pinned node and
    /// a 3-node hole — 96 nodes free, yet no fully free leaf and at most 12
    /// free nodes per pod. A pod-exceeding request (20 nodes) then rejects
    /// with NoShape: the two-level search needs one pod with 20 free, the
    /// three-level search needs full leaves. Moving five 1-node jobs
    /// recovers five whole leaves and admits it.
    fn fragmented() -> (SystemState, Box<dyn Allocator>, Vec<Allocation>) {
        let tree = FatTree::maximal(8).unwrap();
        let mut state = SystemState::new(tree);
        let mut alloc = Scheme::Jigsaw.make(&tree);
        let mut live = Vec::new();
        let leaves = tree.num_nodes() / tree.nodes_per_leaf();
        for i in 0..leaves {
            for (slot, size) in [(0u32, 3u32), (1, 1)] {
                match alloc.decide(&mut state, &JobRequest::new(JobId(2 * i + slot), size)) {
                    Decision::Admit(a) => live.push(a),
                    other => panic!("setup grant failed: {other:?}"),
                }
            }
        }
        // Free every 3-node job, keeping the 1-node pins.
        live.retain(|a| {
            let keep = a.job.0 % 2 == 1;
            if !keep {
                // Split borrows: release through a fresh handle.
                crate::alloc::release_allocation(&mut state, a);
            }
            keep
        });
        (state, alloc, live)
    }

    /// The blocked request of the `fragmented` fixture: larger than any
    /// pod's free capacity, needing five whole leaves.
    fn blocked_req(tree: &FatTree) -> JobRequest {
        JobRequest::new(JobId(1000), tree.nodes_per_pod() + tree.nodes_per_leaf())
    }

    #[test]
    fn greedy_plan_admits_a_blocked_leaf_job() {
        let (mut state, mut alloc, mut live) = fragmented();
        let tree = *state.tree();
        let req = blocked_req(&tree);
        let reject = match alloc.decide(&mut state, &req) {
            Decision::Reject(r) => r,
            other => panic!("expected fragmentation reject, got {other:?}"),
        };
        assert!(reject.is_fragmentation(), "{reject:?}");

        let plan = plan_migrations(
            &*alloc,
            &state,
            &live,
            &[],
            &req,
            reject,
            &DefragConfig::default(),
        )
        .expect("a bounded plan exists");
        assert!(!plan.moves.is_empty());
        assert!(plan.moves.len() <= DefragConfig::default().max_moves);
        assert_eq!(plan.admits.job, req.id);
        assert_eq!(plan.admits.nodes.len() as u32, req.size);

        let admitted =
            apply_plan(alloc.as_mut(), &mut state, &mut live, &plan).expect("plan applies cleanly");
        assert_eq!(admitted, plan.admits);
        assert!(
            !live.contains(&admitted),
            "the caller records the admission"
        );
        live.push(admitted);
        state.assert_consistent();
        assert!(audit_system(&state, &live).is_empty());
    }

    #[test]
    fn anneal_never_beats_greedy_by_breaking_soundness() {
        let (mut state, mut alloc, mut live) = fragmented();
        let tree = *state.tree();
        let req = blocked_req(&tree);
        let reject = match alloc.decide(&mut state, &req) {
            Decision::Reject(r) => r,
            other => panic!("expected reject, got {other:?}"),
        };
        let cfg = DefragConfig {
            max_moves: 8,
            scheme: PlanScheme::Anneal { iters: 16, seed: 7 },
        };
        let plan = plan_migrations(&*alloc, &state, &live, &[], &req, reject, &cfg)
            .expect("anneal finds at least the greedy plan");
        // Same seed, same plan: the annealer is deterministic.
        let again = plan_migrations(&*alloc, &state, &live, &[], &req, reject, &cfg).unwrap();
        assert_eq!(plan, again);
        let admitted =
            apply_plan(alloc.as_mut(), &mut state, &mut live, &plan).expect("anneal plan applies");
        live.push(admitted);
        assert!(audit_system(&state, &live).is_empty());
    }

    #[test]
    fn stale_plans_are_refused() {
        let (mut state, mut alloc, mut live) = fragmented();
        let tree = *state.tree();
        let req = blocked_req(&tree);
        let reject = match alloc.decide(&mut state, &req) {
            Decision::Reject(r) => r,
            other => panic!("expected reject, got {other:?}"),
        };
        let plan = plan_migrations(
            &*alloc,
            &state,
            &live,
            &[],
            &req,
            reject,
            &DefragConfig::default(),
        )
        .unwrap();
        // The world moved on: the first victim's job finished.
        let moved = plan.moves[0].job;
        let idx = live.iter().position(|a| a.job == moved).unwrap();
        let gone = live.remove(idx);
        alloc.release(&mut state, &gone);
        assert_eq!(
            apply_plan(alloc.as_mut(), &mut state, &mut live, &plan),
            Err(PlanApplyError::StaleMove { job: moved })
        );
    }

    #[test]
    fn sequencing_refuses_swaps() {
        // Two jobs exchanging placements cannot be applied one at a time.
        let (state, mut alloc, _) = fragmented();
        let mut s = SystemState::new(*state.tree());
        let a = match alloc.decide(&mut s, &JobRequest::new(JobId(1), 3)) {
            Decision::Admit(a) => a,
            other => panic!("{other:?}"),
        };
        let b = match alloc.decide(&mut s, &JobRequest::new(JobId(2), 3)) {
            Decision::Admit(a) => a,
            other => panic!("{other:?}"),
        };
        let swap = vec![
            Migration {
                job: a.job,
                from: a.clone(),
                to: Allocation {
                    job: a.job,
                    ..b.clone()
                },
            },
            Migration {
                job: b.job,
                from: b.clone(),
                to: Allocation {
                    job: b.job,
                    ..a.clone()
                },
            },
        ];
        assert_eq!(sequence_moves(swap), None);
        // A single self-overlapping move is fine (release precedes adopt).
        let solo = vec![Migration {
            job: a.job,
            from: a.clone(),
            to: a.clone(),
        }];
        assert_eq!(sequence_moves(solo.clone()), Some(solo));
    }

    /// The `HashMap` version of [`leaf_coherent_order`], kept as the oracle
    /// its dense rewrite must match.
    fn leaf_coherent_order_oracle(state: &SystemState, live: &[Allocation]) -> Vec<usize> {
        let tree = state.tree();
        let mut leaf_cost: HashMap<u32, u64> = HashMap::new();
        for a in live {
            let mut touched: Vec<u32> = a.nodes.iter().map(|&n| tree.leaf_of_node(n).0).collect();
            touched.sort_unstable();
            touched.dedup();
            for l in touched {
                *leaf_cost.entry(l).or_insert(0) += a.nodes.len() as u64;
            }
        }
        let mut leaves: Vec<(u64, u32)> = leaf_cost.iter().map(|(&l, &c)| (c, l)).collect();
        leaves.sort_unstable();
        let rank: HashMap<u32, usize> = leaves
            .iter()
            .enumerate()
            .map(|(r, &(_, l))| (l, r))
            .collect();
        let mut order: Vec<usize> = (0..live.len()).collect();
        order.sort_by_key(|&i| {
            let best = live[i]
                .nodes
                .iter()
                .map(|&n| rank[&tree.leaf_of_node(n).0])
                .min()
                .unwrap_or(usize::MAX);
            (best, live[i].nodes.len(), live[i].job.0)
        });
        order
    }

    /// The oracle case the proptest's churn rarely builds: allocations
    /// whose first node is on leaf 0 (a dense rewrite that starts its
    /// "current leaf" at 0 would skip those nodes) and one whose nodes
    /// return to a leaf after leaving it.
    #[test]
    fn leaf_coherent_order_matches_the_oracle_from_leaf_zero() {
        let state = SystemState::new(FatTree::maximal(8).unwrap()); // 4-node leaves
        let alloc = |job: u32, nodes: &[u32]| Allocation {
            job: JobId(job),
            requested: nodes.len() as u32,
            nodes: nodes
                .iter()
                .map(|&n| jigsaw_topology::ids::NodeId(n))
                .collect(),
            leaf_links: Vec::new(),
            spine_links: Vec::new(),
            bw_tenths: 0,
            shape: crate::alloc::Shape::Unstructured,
        };
        let live = vec![
            alloc(0, &[0, 1, 5]),
            alloc(1, &[2, 3]),
            alloc(2, &[4, 8, 9]),
            alloc(3, &[12]),
            alloc(4, &[16, 20, 17]),
        ];
        let order = leaf_coherent_order(&state, &live);
        assert_eq!(order, leaf_coherent_order_oracle(&state, &live));
        // Leaf costs: 3 → 1, then 2, 4 and 5 → 3 each, 0 → 5, 1 → 6.
        assert_eq!(order, [3, 2, 4, 1, 0]);
    }

    /// Random churn on a radix-8 machine: admit `sizes`, complete the
    /// jobs `releases` picks, backfill with 1-node fillers and complete
    /// every other filler — sub-leaf holes, multi-leaf jobs and many
    /// equal-size ties in the candidate order.
    fn churned(
        sizes: &[u32],
        releases: &[usize],
    ) -> (SystemState, Box<dyn Allocator>, Vec<Allocation>) {
        let tree = FatTree::maximal(8).unwrap();
        let mut state = SystemState::new(tree);
        let mut alloc = Scheme::Jigsaw.make(&tree);
        let mut live = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(i as u32), size)) {
                live.push(a);
            }
        }
        let mut filler = 10_000u32;
        for &r in releases {
            if live.is_empty() {
                break;
            }
            let done = live.swap_remove(r % live.len());
            alloc.release(&mut state, &done);
            while let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(filler), 1)) {
                live.push(a);
                filler += 1;
            }
        }
        let mut i = 0;
        live.retain(|a| {
            i += 1;
            let keep = a.job.0 < 10_000 || i % 2 == 0;
            if !keep {
                crate::alloc::release_allocation(&mut state, a);
            }
            keep
        });
        (state, alloc, live)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn leaf_coherent_order_matches_the_hashmap_oracle(
            sizes in proptest::collection::vec(1u32..40, 1..40),
            releases in proptest::collection::vec(any::<usize>(), 0..12),
        ) {
            let (state, _, live) = churned(&sizes, &releases);
            prop_assert_eq!(
                leaf_coherent_order(&state, &live),
                leaf_coherent_order_oracle(&state, &live)
            );
        }

        /// Pinned allocations (the daemon's advance reservations) never
        /// move, and a plan made around them applies with the whole
        /// claimed set — movable and pinned — auditing clean.
        #[test]
        fn plans_never_move_pinned_allocations(
            sizes in proptest::collection::vec(1u32..9, 48..96),
            releases in proptest::collection::vec(0usize..64, 3..10),
            pin_mask in any::<u64>(),
            probe_size in 5u32..17,
        ) {
            let (state, alloc, claimed) = churned(&sizes, &releases);
            let (mut live, mut pinned) = (Vec::new(), Vec::new());
            for (i, a) in claimed.into_iter().enumerate() {
                if pin_mask >> (i % 64) & 1 == 1 {
                    pinned.push(a);
                } else {
                    live.push(a);
                }
            }
            let req = JobRequest::new(JobId(9_999), probe_size);
            let reject = match alloc.clone_box().try_admit(&mut state.clone(), &req) {
                Err(r) if r.is_fragmentation() => r,
                _ => return,
            };
            for scheme in [PlanScheme::Greedy, PlanScheme::Anneal { iters: 32, seed: 5 }] {
                let cfg = DefragConfig { scheme, ..DefragConfig::default() };
                let plan = plan_migrations(&*alloc, &state, &live, &pinned, &req, reject, &cfg);
                let Some(plan) = plan else { continue };
                for m in &plan.moves {
                    prop_assert!(pinned.iter().all(|p| p.job != m.job), "moved pinned job {}", m.job.0);
                }
                let mut state = state.clone();
                let mut alloc = alloc.clone_box();
                let mut all: Vec<Allocation> = live.iter().chain(&pinned).cloned().collect();
                let admitted = apply_plan(alloc.as_mut(), &mut state, &mut all, &plan)
                    .expect("a plan applies with every claimed allocation audited");
                prop_assert_eq!(admitted.job, req.id);
                for p in &pinned {
                    prop_assert!(all.contains(p));
                }
            }
        }
    }
}
