//! Regenerate **Figure 8**: makespans for Thunder and Atlas, normalized to
//! Baseline, across the six job-performance scenarios.
//!
//! Paper shape to reproduce: Jigsaw ≤ Baseline under every speed-up
//! scenario (up to −15%), at most +6% in the no-speed-up worst case; TA
//! almost always worse than Baseline; LaaS between TA and Jigsaw; LC+S
//! tracks Jigsaw closely.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig8_makespan [--scale f]
//! ```

use jigsaw_bench::report::{cell, norm, table, write_json};
use jigsaw_bench::runner::product;
use jigsaw_bench::{or_exit, run_grid, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    let trace_names = ["Thunder", "Atlas"];
    eprintln!("generating traces at scale {} ...", args.scale);
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
        let rows: Vec<(String, Vec<String>)> = Scheme::ISOLATING
            .iter()
            .map(|kind| {
                let values = Scenario::ALL
                    .iter()
                    .map(|&s| {
                        let r = cell(&results, trace, *kind, s);
                        let b = cell(&results, trace, Scheme::Baseline, s);
                        norm(r.makespan, b.makespan)
                    })
                    .collect();
                (kind.name().to_string(), values)
            })
            .collect();
        println!(
            "{}",
            table(
                &format!(
                    "Figure 8 — makespan on {trace}, normalized to Baseline (lower is better)"
                ),
                &columns,
                &rows
            )
        );
    }
    write_json(&args.out_dir, "fig8_makespan", &results).expect("write results");
}
