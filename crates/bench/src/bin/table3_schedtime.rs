//! Regenerate **Table 3**: average scheduling time per job for four
//! representative experiments, smallest to largest cluster.
//!
//! Paper shape to reproduce: TA/LaaS/Jigsaw within the same order of
//! magnitude of each other on every cluster (milliseconds in the paper's
//! C++ on 2021 hardware; microseconds here), LC+S one to two orders of
//! magnitude slower and degrading with cluster size (255 ms at 5488 nodes
//! in the paper).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin table3_schedtime [--scale f]
//! ```

use jigsaw_bench::report::{cell, table, write_json};
use jigsaw_bench::runner::product;
use jigsaw_bench::{or_exit, run_grid, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    // Smallest to largest cluster (1024, 1296, 1458, 5488 nodes).
    let trace_names = ["Synth-16", "Sep-Cab", "Thunder", "Synth-28"];
    eprintln!("generating traces at scale {} ...", args.scale);
    let traces: Vec<_> = trace_names
        .iter()
        .map(|n| trace_by_name(n, args.scale, args.seed))
        .collect();
    let schemes = [Scheme::Ta, Scheme::Laas, Scheme::Jigsaw, Scheme::LcS];
    let cells = product(&trace_names, &schemes, &[Scenario::None]);
    eprintln!("running {} simulations ...", cells.len());
    let results = or_exit(run_grid(args.jobs, &cells, &traces, args.seed, false));

    let rows: Vec<(String, Vec<String>)> = schemes
        .iter()
        .map(|&k| {
            let values = trace_names
                .iter()
                .map(|t| {
                    let r = cell(&results, t, k, Scenario::None);
                    format!("{:.5}", r.sched_time_per_job)
                })
                .collect();
            (k.name().to_string(), values)
        })
        .collect();
    println!(
        "{}",
        table(
            "Table 3 — average scheduling time per job (seconds)",
            &trace_names,
            &rows
        )
    );
    write_json(&args.out_dir, "table3_schedtime", &results).expect("write results");
}
