//! Quantify the one scale sensitivity EXPERIMENTS.md documents: Figure 6's
//! Thunder column as the trace grows from 2% to 15% of the paper's job
//! count. The 965-node maximum-size job is over-represented at small
//! scales; its machine drain shrinks relative to the horizon as the trace
//! grows, and the column converges to the paper's values.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin scale_sweep [--jobs n]
//! ```

use jigsaw_bench::{or_exit, run_sweep, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::SimConfig;

fn main() {
    let args = HarnessArgs::parse();
    let scales = [0.02f64, 0.05, 0.1, 0.15];
    let schemes = [Scheme::Baseline, Scheme::Jigsaw, Scheme::LcS];
    let runs = or_exit(run_sweep(
        args.jobs,
        &scales,
        &schemes,
        &SimConfig::default(),
        |&scale| trace_by_name("Thunder", scale, args.seed),
    ));

    println!("## Thunder utilization vs. trace scale\n");
    println!(
        "{:>7} {:>7} {:>10} {:>8} {:>8}",
        "scale", "jobs", "Baseline", "Jigsaw", "LC+S"
    );
    for &scale in &scales {
        let cells: Vec<String> = runs
            .iter()
            .filter(|r| r.point == scale)
            .map(|r| format!("{:>7.1}%", 100.0 * r.result.utilization))
            .collect();
        println!(
            "{:>7} {:>7} {:>10} {:>8} {:>8}",
            scale,
            trace_by_name("Thunder", scale, args.seed).0.len(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!("\nJigsaw and LC+S converge toward the paper's 95-96% as the horizon");
    println!("amortizes the single whole-machine-scale job.");
}
