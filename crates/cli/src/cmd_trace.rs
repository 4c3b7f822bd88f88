//! `jigsaw-sched trace --name <name> [--scale F] [--swf|--json]` —
//! generate a built-in workload and print it.

use crate::args::{fail, Flags};
use jigsaw_topology::FatTree;
use jigsaw_traces::llnl::{atlas_model, cab_model, thunder_model, CabMonth};
use jigsaw_traces::stats::TraceSummary;
use jigsaw_traces::swf::to_swf;
use jigsaw_traces::synth::{synth, PAPER_JOBS};
use jigsaw_traces::workload::{dag_fanout, dag_pipeline, reserved_mix};
use jigsaw_traces::Trace;

/// Resolve a built-in trace name to (trace, evaluation cluster). Mirrors
/// the experiment registry (§5.4.3 of the paper) without depending on the
/// bench crate.
pub fn builtin_trace(name: &str, scale: f64, seed: u64) -> Option<(Trace, FatTree)> {
    let n_synth = ((PAPER_JOBS as f64) * scale).round().max(1.0) as usize;
    let (trace, radix) = match name {
        "Synth-16" => (synth(16, n_synth, seed), 16),
        "Synth-22" => (synth(22, n_synth, seed + 1), 22),
        "Synth-28" => (synth(28, n_synth, seed + 2), 28),
        "Thunder" => (thunder_model().generate(scale, seed + 3), 18),
        "Atlas" => (atlas_model().generate(scale, seed + 4), 18),
        "Aug-Cab" => (cab_model(CabMonth::Aug).generate(scale, seed + 5), 18),
        "Sep-Cab" => (cab_model(CabMonth::Sep).generate(scale, seed + 6), 18),
        "Oct-Cab" => (cab_model(CabMonth::Oct).generate(scale, seed + 7), 18),
        "Nov-Cab" => (cab_model(CabMonth::Nov).generate(scale, seed + 8), 18),
        // Workload model v2 (DESIGN §13): DAG and reservation scenarios on
        // the Synth-16 cluster.
        "dag_pipeline" => (dag_pipeline(16, n_synth, seed + 9), 16),
        "dag_fanout" => (dag_fanout(16, n_synth, seed + 10), 16),
        "reserved_mix" => (reserved_mix(16, n_synth, seed + 11), 16),
        _ => return None,
    };
    Some((trace, FatTree::maximal(radix).expect("valid radix")))
}

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
    let Some((trace, tree)) = builtin_trace(name, scale, seed) else {
        return fail(&format!("unknown built-in trace `{name}`"));
    };

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
