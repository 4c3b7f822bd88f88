//! The paper's own artifacts: Tables 1–3 and Figures 6–8 (§5).

use crate::registry::SPECS;
use crate::report::{cell, norm, pct, table, write_json};
use crate::runner::product;
use crate::{fan_out, run_grid, trace_by_name, GridResult, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::metrics::INST_UTIL_LABELS;
use jigsaw_sim::Scenario;
use jigsaw_traces::stats::{format_table1, TraceSummary};

/// Simulate every (trace, scheme, scenario) cell of the product grid.
fn grid(
    args: &HarnessArgs,
    traces: &[&str],
    schemes: &[Scheme],
    scenarios: &[Scenario],
    collect_inst_util: bool,
) -> Result<Vec<GridResult>, String> {
    eprintln!("generating traces at scale {} ...", args.scale);
    let generated: Vec<_> = traces
        .iter()
        .map(|n| trace_by_name(n, args.scale, args.seed))
        .collect();
    let cells = product(traces, schemes, scenarios);
    eprintln!("running {} simulations ...", cells.len());
    Ok(run_grid(
        args.jobs,
        &cells,
        &generated,
        args.seed,
        collect_inst_util,
    )?)
}

/// **Table 1**: characteristics of the job-queue traces.
pub(super) fn table1_traces(args: &HarnessArgs) -> Result<(), String> {
    println!(
        "Table 1 — trace characteristics (scale {}; paper job counts at --full)\n",
        args.scale
    );
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let summaries: Vec<TraceSummary> = fan_out(args.jobs, &names, |name| {
        let (trace, _) = trace_by_name(name, args.scale, args.seed);
        TraceSummary::of(&trace)
    })?;
    println!("{}", format_table1(&summaries));
    println!(
        "(System nodes for synthetic traces is '–' as in the paper; they are\n\
         simulated on the 1024/2662/5488-node clusters per §5.4.3.)"
    );
    Ok(())
}

/// **Figure 6**: average steady-state system utilization for all five
/// scheduling approaches on all nine traces.
///
/// Paper shape to reproduce: Baseline 97–100%, LC+S ≈ Jigsaw 93–96%,
/// LaaS below both (internal fragmentation), TA lowest (external
/// fragmentation); worst case for everyone on Atlas (whole-machine jobs).
pub(super) fn fig6_utilization(args: &HarnessArgs) -> Result<(), String> {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let results = grid(args, &names, &Scheme::ALL, &[Scenario::None], false)?;
    let columns: Vec<&str> = Scheme::ALL.iter().map(|k| k.name()).collect();
    let rows: Vec<(String, Vec<String>)> = names
        .iter()
        .map(|&trace| {
            let values = Scheme::ALL
                .iter()
                .map(|&k| pct(cell(&results, trace, k, Scenario::None).utilization))
                .collect();
            (trace.to_string(), values)
        })
        .collect();
    println!(
        "{}",
        table("Figure 6 — average system utilization", &columns, &rows)
    );
    write_json(&args.out_dir, "fig6_utilization", &results)
}

/// **Table 2**: frequency of instantaneous-utilization ranges on the
/// Thunder trace for the three job-isolating approaches.
///
/// Paper shape to reproduce: Jigsaw spends ~a quarter of samples at ≥98%
/// (LaaS virtually never — its rounding strands nodes); TA is below 80%
/// far more often than either (external fragmentation).
pub(super) fn table2_inst_util(args: &HarnessArgs) -> Result<(), String> {
    let schemes = [Scheme::Laas, Scheme::Jigsaw, Scheme::Ta];
    let results = grid(args, &["Thunder"], &schemes, &[Scenario::None], true)?;
    let rows: Vec<(String, Vec<String>)> = schemes
        .iter()
        .map(|&k| {
            let r = cell(&results, "Thunder", k, Scenario::None);
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
    write_json(&args.out_dir, "table2_inst_util", &results)
}

/// A metric of a grid cell that Figures 7 and 8 normalize, with the row
/// label's suffix (`""` for none).
type Metric = (&'static str, fn(&GridResult) -> f64);

/// **Figure 7**: average job turnaround times for Aug-Cab and Oct-Cab,
/// for all jobs and for large jobs (> 100 nodes).
///
/// Paper shape to reproduce: Jigsaw beats Baseline (< 1.00) under modest
/// speed-ups (Aug-Cab: every scenario; Oct-Cab: 10%/20%), always beats TA
/// and LaaS; large jobs are a few percent worse than Baseline except in
/// the 10%/20% scenarios.
pub(super) fn fig7_turnaround(args: &HarnessArgs) -> Result<(), String> {
    normalized(
        args,
        "fig7_turnaround",
        "Figure 7 — turnaround",
        ["Aug-Cab", "Oct-Cab"],
        &[
            ("all", |r| r.turnaround_all),
            ("large", |r| r.turnaround_large),
        ],
    )
}

/// **Figure 8**: makespans for Thunder and Atlas.
///
/// Paper shape to reproduce: Jigsaw ≤ Baseline under every speed-up
/// scenario (up to −15%), at most +6% in the no-speed-up worst case; TA
/// almost always worse than Baseline; LaaS between TA and Jigsaw; LC+S
/// tracks Jigsaw closely.
pub(super) fn fig8_makespan(args: &HarnessArgs) -> Result<(), String> {
    normalized(
        args,
        "fig8_makespan",
        "Figure 8 — makespan",
        ["Thunder", "Atlas"],
        &[("", |r| r.makespan)],
    )
}

/// Figures 7 and 8: each metric of every isolating scheme on `traces`,
/// normalized to Baseline over [`Scenario::ALL`].
fn normalized(
    args: &HarnessArgs,
    name: &str,
    title: &str,
    traces: [&str; 2],
    metrics: &[Metric],
) -> Result<(), String> {
    let results = grid(args, &traces, &Scheme::ALL, &Scenario::ALL, false)?;
    let scenario_labels: Vec<String> = Scenario::ALL.iter().map(|s| s.label()).collect();
    let columns: Vec<&str> = scenario_labels.iter().map(String::as_str).collect();
    for trace in traces {
        let mut rows = Vec::new();
        for kind in Scheme::ISOLATING {
            for (suffix, metric) in metrics {
                let values = Scenario::ALL
                    .iter()
                    .map(|&s| {
                        let r = cell(&results, trace, kind, s);
                        let b = cell(&results, trace, Scheme::Baseline, s);
                        norm(metric(r), metric(b))
                    })
                    .collect();
                let label = if suffix.is_empty() {
                    kind.name().to_string()
                } else {
                    format!("{} ({suffix})", kind.name())
                };
                rows.push((label, values));
            }
        }
        println!(
            "{}",
            table(
                &format!("{title} on {trace}, normalized to Baseline (lower is better)"),
                &columns,
                &rows
            )
        );
    }
    write_json(&args.out_dir, name, &results)
}

/// **Table 3**: average scheduling time per job for four representative
/// experiments, smallest to largest cluster. The text table prints
/// microseconds; the JSON keeps `sched_time_per_job` in seconds.
///
/// Paper shape to reproduce: TA/LaaS/Jigsaw within the same order of
/// magnitude of each other on every cluster (milliseconds in the paper's
/// C++ on 2021 hardware; microseconds here), LC+S one to two orders of
/// magnitude slower and degrading with cluster size (255 ms at 5488 nodes
/// in the paper).
pub(super) fn table3_schedtime(args: &HarnessArgs) -> Result<(), String> {
    // Smallest to largest cluster (1024, 1296, 1458, 5488 nodes).
    let trace_names = ["Synth-16", "Sep-Cab", "Thunder", "Synth-28"];
    let schemes = [Scheme::Ta, Scheme::Laas, Scheme::Jigsaw, Scheme::LcS];
    let results = grid(args, &trace_names, &schemes, &[Scenario::None], false)?;
    let rows: Vec<(String, Vec<String>)> = schemes
        .iter()
        .map(|&k| {
            let values = trace_names
                .iter()
                .map(|t| {
                    let r = cell(&results, t, k, Scenario::None);
                    format!("{:.2}", r.sched_time_per_job * 1e6)
                })
                .collect();
            (k.name().to_string(), values)
        })
        .collect();
    println!(
        "{}",
        table(
            "Table 3 — average scheduling time per job (µs)",
            &trace_names,
            &rows
        )
    );
    write_json(&args.out_dir, "table3_schedtime", &results)
}
