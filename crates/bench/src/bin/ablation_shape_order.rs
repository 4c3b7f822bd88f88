//! Ablation (DESIGN.md §6): shape enumeration order in Algorithm 1.
//!
//! Our Jigsaw enumerates shapes densest-first (`n_L` descending): jobs are
//! packed onto as few leaves as legally possible, preserving fully free
//! leaves — the currency of three-level allocations. This ablation flips
//! the order to widest-first and measures the utilization cost.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin ablation_shape_order [--scale f]
//! ```

use jigsaw_bench::{fan_out, or_exit, trace_by_name, HarnessArgs};
use jigsaw_core::JigsawAllocator;
use jigsaw_sim::{SimConfig, Simulation};

fn main() {
    let args = HarnessArgs::parse();
    let names = ["Synth-16", "Thunder"];
    let config = SimConfig::default();

    // One task per (trace, order) cell; trace generation is cheap next to
    // the simulation, so each cell regenerates its own copy.
    let cells: Vec<(&str, bool)> = names
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let results = or_exit(fan_out(args.jobs, &cells, |&(name, widest)| {
        let (trace, tree) = trace_by_name(name, args.scale, args.seed);
        let alloc = if widest {
            JigsawAllocator::with_widest_first_order(&tree)
        } else {
            JigsawAllocator::new(&tree)
        };
        Simulation::new(&tree, &trace)
            .allocator(Box::new(alloc))
            .config(config.clone())
            .run()
    }));

    println!("## Ablation — Jigsaw shape enumeration order\n");
    println!(
        "{:<10} {:>16} {:>15} {:>16} {:>15}",
        "trace", "densest util", "densest µs/job", "widest util", "widest µs/job"
    );
    for (i, name) in names.iter().enumerate() {
        let (dense, wide) = (&results[2 * i], &results[2 * i + 1]);
        println!(
            "{:<10} {:>15.1}% {:>15.1} {:>15.1}% {:>15.1}",
            name,
            100.0 * dense.utilization,
            1e6 * dense.avg_sched_time_per_job(),
            100.0 * wide.utilization,
            1e6 * wide.avg_sched_time_per_job(),
        );
    }
    println!("\nDensest-first should match or beat widest-first: spreading small jobs");
    println!("destroys the fully free leaves that three-level allocations need.");
}
