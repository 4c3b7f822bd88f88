//! Shared machine-occupancy scenarios for the allocation benchmarks.
//!
//! The Criterion micro-benchmark (`benches/alloc_hot_path.rs`) and the
//! committed perf trajectories (`alloc_trajectory`,
//! `defrag_recovery`) measure the same three regimes, so the setup lives
//! here once:
//!
//! * `empty` — fresh machine: the fast path must stay fast on small trees,
//! * `fragmented90` — churned to ~90% occupancy with a deterministic mixed
//!   job stream: candidate enumeration is skip-dominated,
//! * `drained_pods` — every pod but the last fully allocated: the search
//!   rejects P−1 pods per attempt.
//!
//! Every builder returns the **live allocation set** alongside the state
//! and allocator: the defragmentation planner ([`jigsaw_core::defrag`])
//! needs the resident placements to compute migration plans, and the
//! system audit needs them to prove a scenario state is coherent.

use jigsaw_core::{Allocation, Allocator, JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};

/// A prepared occupancy regime: the machine state, the allocator that
/// produced it, and every allocation still resident.
pub type PreparedState = (SystemState, Box<dyn Allocator>, Vec<Allocation>);

/// Churn the machine to roughly `target` occupancy with a deterministic
/// mixed job stream.
pub fn churned(tree: &FatTree, scheme: Scheme, target: f64) -> PreparedState {
    let mut state = SystemState::new(*tree);
    let mut alloc = scheme.make(tree);
    let mut live = Vec::new();
    let mut i = 0u32;
    while (state.allocated_node_count() as f64) < target * f64::from(tree.num_nodes()) {
        let size = 1 + (i * 13 + 7) % (tree.nodes_per_pod() / 2);
        if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(i), size)) {
            live.push(a);
        }
        i += 1;
        if i > 4 * tree.num_nodes() {
            break;
        }
    }
    (state, alloc, live)
}

/// Allocate every pod except the last one wholesale, so candidate
/// enumeration faces a machine of exhausted pods.
pub fn drained(tree: &FatTree, scheme: Scheme) -> PreparedState {
    let mut state = SystemState::new(*tree);
    let mut alloc = scheme.make(tree);
    let mut live = Vec::new();
    let pods = tree.num_pods();
    for i in 0..pods - 1 {
        if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(i), tree.nodes_per_pod()))
        {
            live.push(a);
        }
    }
    (state, alloc, live)
}

/// The three benchmark regimes, with their prepared state and probe size.
pub fn scenario(
    name: &str,
    tree: &FatTree,
    scheme: Scheme,
) -> (SystemState, Box<dyn Allocator>, Vec<Allocation>, u32) {
    match name {
        "empty" => {
            let state = SystemState::new(*tree);
            (
                state,
                scheme.make(tree),
                Vec::new(),
                tree.nodes_per_pod() / 2,
            )
        }
        "fragmented90" => {
            let (state, alloc, live) = churned(tree, scheme, 0.9);
            (state, alloc, live, tree.nodes_per_leaf() + 1)
        }
        "drained_pods" => {
            let (state, alloc, live) = drained(tree, scheme);
            // One pod's worth still fits; the search must skip the P−1
            // drained pods to find it.
            (state, alloc, live, tree.nodes_per_pod() / 2)
        }
        other => panic!("unknown scenario `{other}`"),
    }
}

/// Scenario names in reporting order.
pub const SCENARIOS: [&str; 3] = ["empty", "fragmented90", "drained_pods"];
