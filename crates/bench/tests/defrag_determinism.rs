//! `--jobs N` must not change defrag outcomes.
//!
//! Every experiment binary fans its grid out through
//! [`jigsaw_bench::fan_out`], at most `--jobs` cells at once. With the defragmenter in the scheduling loop, each cell now
//! computes and applies migration plans mid-simulation — so plan search
//! must be as deterministic as the allocator itself, or worker count
//! would leak into committed BENCH artifacts. This fans identical
//! defrag-enabled simulations across 1, 2, and 4 workers and requires
//! byte-identical serialized outcomes (wall-clock fields excluded; they
//! differ even between two sequential runs).

use jigsaw_bench::fan_out;
use jigsaw_bench::registry::trace_by_name;
use jigsaw_core::defrag::{DefragConfig, PlanScheme};
use jigsaw_core::Scheme;
use jigsaw_sim::{SimConfig, Simulation};

/// One grid cell: a defrag-enabled sim, serialized without wall-clock.
fn run_cell(trace_name: &str, scheme: PlanScheme, cost: f64) -> String {
    let (trace, tree) = trace_by_name(trace_name, 0.002, 5);
    let config = SimConfig {
        defrag: Some(DefragConfig {
            max_moves: 8,
            scheme,
        }),
        migration_cost_per_node: cost,
        ..SimConfig::default()
    };
    let result = Simulation::new(&tree, &trace)
        .scheme(Scheme::Jigsaw)
        .config(config)
        .run();
    format!(
        "trace={trace_name} migrations={} cost={} jobs={:?}",
        result.migrations, result.migration_cost, result.jobs
    )
}

#[test]
fn worker_count_does_not_change_defrag_results() {
    let t = "Oct-Cab";
    let cells: Vec<(String, PlanScheme, f64)> = vec![
        (t.to_string(), PlanScheme::Greedy, 0.0),
        (t.to_string(), PlanScheme::Greedy, 3.0),
        (
            t.to_string(),
            PlanScheme::Anneal {
                iters: 48,
                seed: 17,
            },
            3.0,
        ),
    ];

    let run = |jobs: usize| -> Vec<String> {
        fan_out(jobs, &cells, |(t, s, c)| run_cell(t, *s, *c)).expect("no cell panics")
    };
    let seq = run(1);
    let two = run(2);
    let four = run(4);
    assert!(
        seq.iter().any(|s| !s.contains("migrations=0")),
        "at least one cell must actually migrate, or this test is vacuous"
    );
    assert_eq!(seq, two, "2 workers changed defrag outcomes");
    assert_eq!(seq, four, "4 workers changed defrag outcomes");
}
