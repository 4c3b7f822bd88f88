//! Regenerate **Table 2**: frequency of instantaneous-utilization ranges
//! on the Thunder trace for the three job-isolating approaches.
//!
//! Paper shape to reproduce: Jigsaw spends ~a quarter of samples at ≥98%
//! (LaaS virtually never — its rounding strands nodes); TA is below 80%
//! far more often than either (external fragmentation).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin table2_inst_util [--scale f]
//! ```

use jigsaw_bench::report::{table, write_json};
use jigsaw_bench::runner::product;
use jigsaw_bench::{or_exit, run_grid, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::metrics::INST_UTIL_LABELS;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    let traces = vec![trace_by_name("Thunder", args.scale, args.seed)];
    let schemes = [Scheme::Laas, Scheme::Jigsaw, Scheme::Ta];
    let cells = product(&["Thunder"], &schemes, &[Scenario::None]);
    eprintln!("simulating Thunder under LaaS/Jigsaw/TA ...");
    let results = or_exit(run_grid(args.jobs, &cells, &traces, args.seed, true));

    let rows: Vec<(String, Vec<String>)> = schemes
        .iter()
        .map(|&k| {
            let r = jigsaw_bench::report::cell(&results, "Thunder", k, Scenario::None);
            let total: u64 = r.inst_util_buckets.iter().sum();
            let values = r
                .inst_util_buckets
                .iter()
                .map(|&c| format!("{c} ({:.0}%)", 100.0 * c as f64 / total.max(1) as f64))
                .collect();
            (k.name().to_string(), values)
        })
        .collect();
    println!(
        "{}",
        table(
            "Table 2 — instantaneous utilization ranges on Thunder (count of samples)",
            &INST_UTIL_LABELS,
            &rows
        )
    );
    write_json(&args.out_dir, "table2_inst_util", &results).expect("write results");
}
