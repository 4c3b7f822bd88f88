//! Extension experiment: workload model v2 (DESIGN §13).
//!
//! The paper evaluates only independent rigid jobs; this harness runs the
//! three v2 scenarios — `dag_pipeline` (chained stages), `dag_fanout`
//! (fork/join groups), and `reserved_mix` (rigid load with advance
//! reservations) — across every scheme, and reports utilization,
//! turnaround, makespan, and missed reservations. DAG gating serializes
//! work the queue would otherwise overlap, so utilization lands below the
//! rigid-workload numbers of Fig. 6; the interesting signal is the *gap
//! between schemes* under dependency-structured arrivals.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin workload_v2 [--scale f] [--jobs n]
//! ```
//!
//! Results land in `results/workload_v2.json`; like every harness, output
//! is byte-identical for any `--jobs` worker count.

use jigsaw_bench::registry::WORKLOAD_V2;
use jigsaw_bench::report::{pct, table, write_json};
use jigsaw_bench::{or_exit, run_grid, trace_by_name, GridCell, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;

fn main() {
    let args = HarnessArgs::parse();
    let traces: Vec<_> = WORKLOAD_V2
        .iter()
        .map(|name| trace_by_name(name, args.scale, args.seed))
        .collect();
    for (trace, tree) in &traces {
        eprintln!(
            "trace: {} — {} jobs on {} nodes",
            trace.name,
            trace.len(),
            tree.num_nodes()
        );
    }

    // Cells key on the generated trace's own name (`dag_pipeline-16`),
    // which carries the mean job size; the registry key is the bare
    // scenario name.
    let cells: Vec<GridCell> = traces
        .iter()
        .flat_map(|(trace, _)| {
            Scheme::ALL.iter().map(|&scheme| GridCell {
                trace: trace.name.clone(),
                scheme,
                scenario: Scenario::None,
            })
        })
        .collect();
    let results = or_exit(run_grid(args.jobs, &cells, &traces, args.seed, false));

    for (trace, _) in &traces {
        let name = trace.name.as_str();
        let rows: Vec<(String, Vec<String>)> = results
            .iter()
            .filter(|r| r.trace == name)
            .map(|r| {
                (
                    r.scheme.to_string(),
                    vec![
                        pct(r.utilization),
                        format!("{:.0}", r.turnaround_all),
                        format!("{:.0}", r.makespan),
                        format!("{}", r.unschedulable),
                    ],
                )
            })
            .collect();
        println!(
            "{}",
            table(
                name,
                &["utilization", "turnaround", "makespan", "unsched"],
                &rows
            )
        );
    }

    if let Err(e) = write_json(&args.out_dir, "workload_v2", &results) {
        eprintln!("error: writing report: {e}");
        std::process::exit(1);
    }
    println!("report: {}/workload_v2.json", args.out_dir);
}
