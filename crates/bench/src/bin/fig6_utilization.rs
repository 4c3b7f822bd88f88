//! Regenerate **Figure 6**: average steady-state system utilization for
//! all five scheduling approaches on all nine traces.
//!
//! Paper shape to reproduce: Baseline 97–100%, LC+S ≈ Jigsaw 93–96%,
//! LaaS below both (internal fragmentation), TA lowest (external
//! fragmentation); worst case for everyone on Atlas (whole-machine jobs).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig6_utilization [--scale f]
//! ```

use jigsaw_bench::registry::SPECS;
use jigsaw_bench::report::{pct, table, write_json};
use jigsaw_bench::runner::product;
use jigsaw_bench::{or_exit, paper_traces, run_grid, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    eprintln!("generating traces at scale {} ...", args.scale);
    let traces = paper_traces(args.scale, args.seed);
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let cells = product(&names, &Scheme::ALL, &[Scenario::None]);
    eprintln!("running {} simulations ...", cells.len());
    let results = or_exit(run_grid(args.jobs, &cells, &traces, args.seed, false));

    let columns: Vec<&str> = Scheme::ALL.iter().map(|k| k.name()).collect();
    let rows: Vec<(String, Vec<String>)> = names
        .iter()
        .map(|&trace| {
            let values = Scheme::ALL
                .iter()
                .map(|&k| {
                    pct(jigsaw_bench::report::cell(&results, trace, k, Scenario::None).utilization)
                })
                .collect();
            (trace.to_string(), values)
        })
        .collect();
    println!(
        "{}",
        table("Figure 6 — average system utilization", &columns, &rows)
    );
    write_json(&args.out_dir, "fig6_utilization", &results).expect("write results");
}
