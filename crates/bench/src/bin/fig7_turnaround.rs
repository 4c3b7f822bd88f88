//! Regenerate **Figure 7**: average job turnaround times for Aug-Cab and
//! Oct-Cab, normalized to Baseline, across the six job-performance
//! scenarios — for all jobs and for large jobs (> 100 nodes).
//!
//! Paper shape to reproduce: Jigsaw beats Baseline (< 1.00) under modest
//! speed-ups (Aug-Cab: every scenario; Oct-Cab: 10%/20%), always beats TA
//! and LaaS; large jobs are a few percent worse than Baseline except in
//! the 10%/20% scenarios.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig7_turnaround [--scale f]
//! ```

use jigsaw_bench::report::{cell, norm, table, write_json};
use jigsaw_bench::runner::product;
use jigsaw_bench::{or_exit, run_grid, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    let trace_names = ["Aug-Cab", "Oct-Cab"];
    eprintln!("generating Cab traces at scale {} ...", args.scale);
    let traces: Vec<_> = trace_names
        .iter()
        .map(|n| trace_by_name(n, args.scale, args.seed))
        .collect();
    let cells = product(&trace_names, &Scheme::ALL, &Scenario::ALL);
    eprintln!("running {} simulations ...", cells.len());
    let results = or_exit(run_grid(args.jobs, &cells, &traces, args.seed, false));

    let scenario_labels: Vec<String> = Scenario::ALL.iter().map(|s| s.label()).collect();
    let columns: Vec<&str> = scenario_labels.iter().map(String::as_str).collect();
    for trace in trace_names {
        let mut rows = Vec::new();
        for kind in Scheme::ISOLATING {
            for (suffix, pick) in [("all", 0usize), ("large", 1usize)] {
                let values = Scenario::ALL
                    .iter()
                    .map(|&s| {
                        let r = cell(&results, trace, kind, s);
                        let b = cell(&results, trace, Scheme::Baseline, s);
                        if pick == 0 {
                            norm(r.turnaround_all, b.turnaround_all)
                        } else {
                            norm(r.turnaround_large, b.turnaround_large)
                        }
                    })
                    .collect();
                rows.push((format!("{} ({suffix})", kind.name()), values));
            }
        }
        println!(
            "{}",
            table(
                &format!(
                    "Figure 7 — turnaround on {trace}, normalized to Baseline (lower is better)"
                ),
                &columns,
                &rows
            )
        );
    }
    write_json(&args.out_dir, "fig7_turnaround", &results).expect("write results");
}
