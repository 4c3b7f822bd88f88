//! Pins the schedule the simulator produces with the background
//! defragmenter on, so a change to the migration planner's cost cannot
//! silently change what it plans.
//!
//! One seeded Synth-16 slice (500 jobs) runs on the radix-16 tree under
//! Jigsaw + EASY (window 50) + the greedy defragmenter at 60 s per migrated
//! node — the configuration the `sim_defrag` benchmark measures. The test
//! asserts the migration count and a hash of every job's `(start, end)`
//! bits against values recorded before the planner's bookkeeping was made
//! linear (DESIGN §16 "Plan search"): any change to a plan moves a start or
//! an end, and the hash catches it. It also bounds the run's scheduling
//! calls, which the EASY pass's probe memo cut without changing a start.

use jigsaw_core::defrag::DefragConfig;
use jigsaw_core::Scheme;
use jigsaw_sim::{BackfillPolicy, SimConfig, Simulation};
use jigsaw_topology::FatTree;
use jigsaw_traces::synth::synth;

/// Golden values for `synth(16, 500, 2021)`.
const GOLDEN_MIGRATIONS: u64 = 150;
const GOLDEN_SCHEDULE_HASH: u64 = 0x1f58_3f03_15d9_99ff;
/// Upper bound on allocator searches and plan attempts for the slice. The
/// engine made 19,334 before its per-epoch probe memo (DESIGN §13 "Epoch
/// memo") and 13,940 with it; a change that quietly undoes the memo keeps
/// the schedule but fails this bound.
const GOLDEN_MAX_SCHED_CALLS: u64 = 14_400;

/// FNV-1a over the little-endian bytes of each word: a stable hash whose
/// value never depends on the standard library's hasher.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn greedy_defrag_schedule_is_pinned() {
    let tree = FatTree::maximal(16).unwrap();
    let trace = synth(16, 500, 2021);
    let config = SimConfig {
        policy: BackfillPolicy::Easy,
        backfill_window: 50,
        defrag: Some(DefragConfig::default()),
        migration_cost_per_node: 60.0,
        ..SimConfig::default()
    };
    let result = Simulation::new(&tree, &trace)
        .scheme(Scheme::Jigsaw)
        .config(config)
        .run();
    let hash = fnv1a(
        result
            .jobs
            .iter()
            .flat_map(|j| [j.start.to_bits(), j.end.to_bits()]),
    );
    assert!(result.migrations > 0, "the slice must exercise the planner");
    assert_eq!(result.migrations, GOLDEN_MIGRATIONS);
    assert_eq!(hash, GOLDEN_SCHEDULE_HASH, "schedule hash {hash:#018x}");
    assert!(
        result.sched_calls <= GOLDEN_MAX_SCHED_CALLS,
        "{} scheduling calls: the EASY pass re-probes an unchanged machine",
        result.sched_calls
    );
}
