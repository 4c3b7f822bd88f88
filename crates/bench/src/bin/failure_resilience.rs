//! Extension experiment: scheduling under node failures.
//!
//! The paper evaluates a failure-free machine; production fat-trees lose
//! nodes routinely. This sweep injects memoryless node failures (MTBF per
//! node from years down to weeks, scaled to the shortened trace horizon)
//! and asks whether Jigsaw's structured placements degrade any faster than
//! Baseline's — they should not: a failed node costs Jigsaw at most the
//! fully-free status of one leaf, and killed jobs requeue identically
//! under every scheme.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin failure_resilience [--scale f]
//! ```

use jigsaw_bench::{fan_out, or_exit, simulate, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::{FailureModel, SimConfig};

fn main() {
    let args = HarnessArgs::parse();
    let (trace, tree) = trace_by_name("Synth-16", args.scale, args.seed);
    eprintln!("trace: {} jobs on {} nodes", trace.len(), tree.num_nodes());

    println!("## Node-failure resilience (Synth-16)\n");
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>11} {:>11} {:>12}",
        "failure model", "failures", "killed", "scheme", "utilization", "turnaround", "makespan"
    );
    // MTBFs chosen relative to the trace horizon (~10^4 s at default
    // scale) so the sweep spans "rare" to "constant" failures.
    let models = [
        ("none", FailureModel::None),
        (
            "mtbf 2e6 s/node",
            FailureModel::Random {
                mtbf_node_seconds: 2e6,
                repair_seconds: 600.0,
            },
        ),
        (
            "mtbf 5e5 s/node",
            FailureModel::Random {
                mtbf_node_seconds: 5e5,
                repair_seconds: 600.0,
            },
        ),
        (
            "mtbf 1e5 s/node",
            FailureModel::Random {
                mtbf_node_seconds: 1e5,
                repair_seconds: 600.0,
            },
        ),
    ];
    let schemes = [Scheme::Baseline, Scheme::Jigsaw, Scheme::Laas];
    let cells: Vec<(&str, FailureModel, Scheme)> = models
        .iter()
        .flat_map(|&(label, m)| schemes.iter().map(move |&k| (label, m, k)))
        .collect();
    let results = or_exit(fan_out(args.jobs, &cells, |&(_, failures, kind)| {
        let base = SimConfig {
            failures,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, kind, base)
    }));
    for (&(label, _, kind), r) in cells.iter().zip(&results) {
        println!(
            "{:<22} {:>9} {:>8} {:>8} {:>10.1}% {:>11.0} {:>12.0}",
            label,
            r.failures,
            r.killed_jobs,
            kind.name(),
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.makespan,
        );
        if kind == *schemes.last().unwrap() {
            println!();
        }
    }
    println!("Jigsaw's utilization should track Baseline's decline point-for-point:");
    println!("isolation does not amplify failure cost.");
}
