//! Extension experiment: backfilling disciplines under Jigsaw.
//!
//! The paper fixes EASY with window 50 (§5.3/§5.4.3). This experiment
//! quantifies that choice: strict FIFO vs. EASY vs. conservative
//! backfilling, on one heavy synthetic trace, under the Jigsaw allocator.
//! Expected shape: FIFO craters utilization (head-of-line blocking on a
//! job-isolating scheduler is brutal); EASY recovers it; conservative sits
//! between on utilization but pays 10–100× the scheduling cost and gives
//! every job a no-delay guarantee (lower wait-time tail).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin backfill_policies [--scale f]
//! ```

use jigsaw_bench::{fan_out, or_exit, simulate, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::{BackfillPolicy, SimConfig};

fn main() {
    let args = HarnessArgs::parse();
    // Conservative is O(depth × events × machine) per pass — use a
    // fraction of the requested scale so the comparison stays quick.
    let scale = (args.scale * 0.4).max(0.002);
    let (trace, tree) = trace_by_name("Synth-16", scale, args.seed);
    eprintln!("trace: {} jobs on {} nodes", trace.len(), tree.num_nodes());

    let policies = [
        ("FIFO", BackfillPolicy::None),
        ("EASY", BackfillPolicy::Easy),
        ("conservative", BackfillPolicy::Conservative),
    ];
    let results = or_exit(fan_out(args.jobs, &policies, |&(_, policy)| {
        let base = SimConfig {
            policy,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, Scheme::Jigsaw, base)
    }));

    println!("## Backfilling disciplines under Jigsaw\n");
    println!(
        "{:<14} {:>11} {:>14} {:>12} {:>12} {:>14}",
        "policy", "utilization", "avg turnaround", "p95 wait", "makespan", "sched µs/job"
    );
    for ((name, _), r) in policies.iter().zip(&results) {
        println!(
            "{:<14} {:>10.1}% {:>14.0} {:>12.0} {:>12.0} {:>14.1}",
            name,
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.wait_quantile(0.95),
            r.makespan,
            1e6 * r.avg_sched_time_per_job(),
        );
    }
    println!(
        "\nEASY (the paper's choice) should dominate FIFO on every metric and\n\
         match or beat conservative on utilization at a fraction of the cost."
    );
}
