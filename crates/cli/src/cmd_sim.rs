//! `jigsaw-sched sim --trace <name|file.swf> [...]` — simulate a job queue
//! and report the paper's metrics. With `--metrics` the run also records
//! the observability registry (engine histograms, backfill counters, event
//! ring) and emits it as JSON.

use crate::args::{fail, Flags};
use crate::cmd_trace::builtin_trace;
use jigsaw_core::Scheme;
use jigsaw_obs::Registry;
use jigsaw_sim::{SimConfig, Simulation};
use jigsaw_topology::FatTree;
use jigsaw_traces::swf::parse_swf_report;
use jigsaw_traces::Trace;

pub fn run(args: &[String]) -> i32 {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(trace_arg) = flags.get("trace") else {
        return fail("--trace <built-in name or .swf path> is required");
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let seed = match flags.get_u64("seed", 2021) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let kind = match flags.scheme() {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let scenario = match flags.scenario() {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    // Resolve the trace: built-in generator or an SWF file.
    let (trace, default_radix): (Trace, u32) = if trace_arg.ends_with(".swf") {
        match std::fs::read_to_string(trace_arg) {
            Ok(text) => {
                let (t, skipped) = parse_swf_report(trace_arg, 0, &text, 1);
                if !skipped.is_empty() {
                    eprintln!(
                        "warning: {trace_arg}: skipped {} unusable line(s):",
                        skipped.len()
                    );
                    for s in skipped.iter().take(10) {
                        eprintln!("warning:   {s}");
                    }
                    if skipped.len() > 10 {
                        eprintln!("warning:   ... and {} more", skipped.len() - 10);
                    }
                }
                if t.is_empty() {
                    return fail(&format!("{trace_arg}: no usable jobs"));
                }
                (t, 18)
            }
            Err(e) => return fail(&format!("{trace_arg}: {e}")),
        }
    } else {
        match builtin_trace(trace_arg, scale, seed) {
            Some((t, tree)) => {
                let radix = tree.num_pods(); // maximal tree: radix == pods
                (t, radix)
            }
            None => return fail(&format!("unknown built-in trace `{trace_arg}`")),
        }
    };
    let radix = match flags.get_u64("radix", default_radix as u64) {
        Ok(r) => r as u32,
        Err(e) => return fail(&e),
    };
    let tree = match FatTree::maximal(radix) {
        Ok(t) => t,
        Err(e) => return fail(&e.to_string()),
    };
    if trace.max_size() > tree.num_nodes() {
        eprintln!(
            "warning: largest job ({}) exceeds the {}-node cluster; it will be rejected",
            trace.max_size(),
            tree.num_nodes()
        );
    }

    let config = SimConfig {
        scenario,
        scenario_seed: seed,
        scheme_benefits: kind != Scheme::Baseline,
        ..SimConfig::default()
    };
    let registry = if flags.has("--metrics") {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let result = Simulation::new(&tree, &trace)
        .scheme(kind)
        .config(config)
        .with_registry(&registry)
        .run();

    if flags.has("--json") {
        let mut out = serde_json::json!({
            "trace": trace.name,
            "jobs": trace.len(),
            "cluster_nodes": tree.num_nodes(),
            "scheme": kind.name(),
            "scenario": scenario.label(),
            "utilization": result.utilization,
            "utilization_granted": result.utilization_granted,
            "avg_turnaround": result.avg_turnaround(),
            "median_turnaround": result.median_turnaround(),
            "avg_turnaround_large": result.avg_turnaround_large(100),
            "p95_wait": result.wait_quantile(0.95),
            "makespan": result.makespan,
            "sched_time_per_job": result.avg_sched_time_per_job(),
            "unschedulable": result.unschedulable,
        });
        if registry.is_enabled() {
            let metrics: serde_json::Value =
                serde_json::from_str(&registry.render_json()).expect("registry JSON is valid");
            if let serde_json::Value::Object(pairs) = &mut out {
                pairs.push(("metrics".to_string(), metrics));
            }
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
        return 0;
    }

    println!(
        "{} × {} ({} jobs) on {} nodes, scenario {}",
        kind.name(),
        trace.name,
        trace.len(),
        tree.num_nodes(),
        scenario.label()
    );
    println!(
        "  utilization (steady)   {:>10.1}%",
        100.0 * result.utilization
    );
    if result.internal_fragmentation() > 1e-6 {
        println!(
            "  internal fragmentation {:>10.1} pts",
            100.0 * result.internal_fragmentation()
        );
    }
    println!(
        "  avg turnaround         {:>10.0} s",
        result.avg_turnaround()
    );
    println!(
        "  median turnaround      {:>10.0} s",
        result.median_turnaround()
    );
    println!(
        "  avg turnaround >100n   {:>10.0} s",
        result.avg_turnaround_large(100)
    );
    println!(
        "  p95 wait               {:>10.0} s",
        result.wait_quantile(0.95)
    );
    println!("  makespan               {:>10.0} s", result.makespan);
    println!(
        "  sched time per job     {:>10.1} µs",
        1e6 * result.avg_sched_time_per_job()
    );
    if result.unschedulable > 0 {
        println!("  unschedulable jobs     {:>10}", result.unschedulable);
    }
    if registry.is_enabled() {
        println!("\nmetrics: {}", registry.render_json());
    }
    0
}
