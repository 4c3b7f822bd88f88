//! `jigsaw-sched trace --name <name> [--scale F] [--swf|--json]` —
//! generate a built-in workload and print it.

use crate::args::{fail, Flags};
use jigsaw_topology::FatTree;
use jigsaw_traces::stats::TraceSummary;
use jigsaw_traces::swf::to_swf;

pub fn run(args: &[String]) -> i32 {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(name) = flags.get("name") else {
        return fail("--name <built-in trace> is required");
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let seed = match flags.get_u64("seed", 2021) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let Some((trace, radix)) = jigsaw_traces::builtin::generate(name, scale, seed) else {
        return fail(&format!("unknown built-in trace `{name}`"));
    };
    let tree = FatTree::maximal(radix).expect("built-in radixes are valid");

    if flags.has("--swf") {
        print!("{}", to_swf(&trace));
        return 0;
    }
    if flags.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&trace).expect("serializable")
        );
        return 0;
    }
    let summary = TraceSummary::of(&trace);
    println!("{}", jigsaw_traces::stats::format_table1(&[summary]));
    if flags.has("--analyze") {
        println!("{}", jigsaw_traces::stats::TraceAnalysis::of(&trace));
    }
    println!(
        "evaluation cluster: {} nodes (radix {}); total demand {:.3e} node-seconds",
        tree.num_nodes(),
        tree.num_pods(),
        trace.total_node_seconds(),
    );
    println!("(use --swf or --json to emit the jobs, --analyze for size analytics)");
    0
}
