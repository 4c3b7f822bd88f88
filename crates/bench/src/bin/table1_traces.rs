//! Regenerate **Table 1**: characteristics of the job-queue traces.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin table1_traces [--scale f | --full]
//! ```

use jigsaw_bench::registry::SPECS;
use jigsaw_bench::{fan_out, or_exit, trace_by_name, HarnessArgs};
use jigsaw_traces::stats::{format_table1, TraceSummary};

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Table 1 — trace characteristics (scale {}; paper job counts at --full)\n",
        args.scale
    );
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let summaries: Vec<TraceSummary> = or_exit(fan_out(args.jobs, &names, |name| {
        let (trace, _) = trace_by_name(name, args.scale, args.seed);
        TraceSummary::of(&trace)
    }));
    println!("{}", format_table1(&summaries));
    println!(
        "(System nodes for synthetic traces is '–' as in the paper; they are\n\
         simulated on the 1024/2662/5488-node clusters per §5.4.3.)"
    );
}
