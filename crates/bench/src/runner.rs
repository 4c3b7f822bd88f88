//! Parallel experiment execution over (trace × scheme × scenario) grids.
//!
//! Cells go through [`fan_out`] and come back in submission order, so
//! reports built from the results are byte-identical whatever `--jobs`
//! says. A cell that panics mid-simulation surfaces as a [`CellFailure`]
//! naming the cell, instead of unwinding through a report writer with a
//! half-written JSON file on disk.

use crate::{fan_out, CellFailure};
use jigsaw_core::Scheme;
use jigsaw_sim::{Scenario, SimConfig, SimResult, Simulation};
use jigsaw_topology::FatTree;
use jigsaw_traces::Trace;
use serde::{Deserialize, Serialize};

/// One cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Trace name (looked up in the registry by the caller).
    pub trace: String,
    /// Scheduling scheme.
    pub scheme: Scheme,
    /// Speed-up scenario.
    pub scenario: Scenario,
}

/// A completed cell: the cell plus headline metrics (the full `SimResult`
/// is kept for table/figure extraction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// Trace name.
    pub trace: String,
    /// Scheduling scheme (serialized as its paper label).
    pub scheme: Scheme,
    /// Speed-up scenario (serialized as its figure label).
    pub scenario: Scenario,
    /// Steady-state utilization.
    pub utilization: f64,
    /// Average turnaround, all jobs.
    pub turnaround_all: f64,
    /// Average turnaround, jobs > 100 nodes.
    pub turnaround_large: f64,
    /// Makespan.
    pub makespan: f64,
    /// Average scheduling wall time per job (seconds).
    pub sched_time_per_job: f64,
    /// Jobs dropped as unschedulable.
    pub unschedulable: u32,
    /// Instantaneous-utilization buckets (Table 2), when collected.
    pub inst_util_buckets: [u64; 6],
}

impl GridResult {
    fn from(cell: &GridCell, r: &SimResult) -> Self {
        GridResult {
            trace: cell.trace.clone(),
            scheme: cell.scheme,
            scenario: cell.scenario,
            utilization: r.utilization,
            turnaround_all: r.avg_turnaround(),
            turnaround_large: r.avg_turnaround_large(100),
            makespan: r.makespan,
            sched_time_per_job: r.avg_sched_time_per_job(),
            unschedulable: r.unschedulable,
            inst_util_buckets: r.inst_util.buckets,
        }
    }
}

/// Simulate `scheme` on `(trace, tree)` under `base`, with
/// `scheme_benefits` set per scheme from
/// [`Scheme::benefits_from_isolation`]: the paper's rule that every scheme
/// but Baseline enjoys the scenario speed-ups. Every harness cell that
/// runs a named scheme is built here.
pub fn simulate(trace: &Trace, tree: &FatTree, scheme: Scheme, base: SimConfig) -> SimResult {
    let config = SimConfig {
        scheme_benefits: scheme.benefits_from_isolation(),
        ..base
    };
    Simulation::new(tree, trace)
        .scheme(scheme)
        .config(config)
        .run()
}

/// Run every cell of the grid on at most `jobs` threads. `traces` resolves
/// a trace name to its (trace, cluster) pair — generation happens once per
/// trace up front, not per cell. Results are in the cells' submission
/// order; the first failing cell (in that order) is returned instead.
pub fn run_grid(
    jobs: usize,
    cells: &[GridCell],
    traces: &[(Trace, FatTree)],
    scenario_seed: u64,
    collect_inst_util: bool,
) -> Result<Vec<GridResult>, CellFailure> {
    fan_out(jobs, cells, |cell| {
        let (trace, tree) = traces
            .iter()
            .find(|(t, _)| t.name == cell.trace)
            .unwrap_or_else(|| panic!("trace {} not generated", cell.trace));
        let base = SimConfig {
            scenario: cell.scenario,
            scenario_seed,
            collect_inst_util,
            ..SimConfig::default()
        };
        GridResult::from(cell, &simulate(trace, tree, cell.scheme, base))
    })
}

/// Convenience: the full scheme × scenario product for a set of traces.
pub fn product(traces: &[&str], schemes: &[Scheme], scenarios: &[Scenario]) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for &trace in traces {
        for &scheme in schemes {
            for &scenario in scenarios {
                cells.push(GridCell {
                    trace: trace.into(),
                    scheme,
                    scenario,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::trace_by_name;

    #[test]
    fn grid_runs_in_parallel_and_is_complete() {
        let traces = vec![trace_by_name("Synth-16", 0.005, 3)];
        let cells = product(
            &["Synth-16"],
            &[Scheme::Baseline, Scheme::Jigsaw],
            &[Scenario::None, Scenario::Fixed(10)],
        );
        let results = run_grid(4, &cells, &traces, 7, false).expect("grid runs");
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.utilization > 0.0));
        // Scenario does not change Baseline.
        let base: Vec<&GridResult> = results
            .iter()
            .filter(|r| r.scheme == Scheme::Baseline)
            .collect();
        assert_eq!(base[0].makespan, base[1].makespan);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let traces = vec![trace_by_name("Synth-16", 0.005, 3)];
        let cells = product(
            &["Synth-16"],
            &[Scheme::Baseline, Scheme::Jigsaw, Scheme::LcS],
            &[Scenario::None],
        );
        let mut seq = run_grid(1, &cells, &traces, 7, false).expect("seq");
        let mut par = run_grid(3, &cells, &traces, 7, false).expect("par");
        // Scheduling time is measured wall clock — the one field that
        // differs even between two sequential runs. Everything else must
        // serialize byte-identically whatever the worker count.
        for r in seq.iter_mut().chain(par.iter_mut()) {
            r.sched_time_per_job = 0.0;
        }
        let seq_json = serde_json::to_string(&seq).expect("serialize");
        let par_json = serde_json::to_string(&par).expect("serialize");
        assert_eq!(seq_json, par_json);
    }

    #[test]
    fn v2_workloads_are_deterministic_across_worker_counts() {
        // The workload-model-v2 scenarios (DAG gating, advance
        // reservations) exercise scheduler paths the rigid traces never
        // touch; their reports must still be byte-identical whatever
        // `--jobs` says.
        let traces: Vec<_> = crate::registry::WORKLOAD_V2
            .iter()
            .map(|name| trace_by_name(name, 0.005, 3))
            .collect();
        let names: Vec<&str> = traces.iter().map(|(t, _)| t.name.as_str()).collect();
        let cells = product(
            &names,
            &[Scheme::Baseline, Scheme::Jigsaw],
            &[Scenario::None],
        );
        let mut seq = run_grid(1, &cells, &traces, 7, false).expect("seq");
        let mut par = run_grid(3, &cells, &traces, 7, false).expect("par");
        for r in seq.iter_mut().chain(par.iter_mut()) {
            r.sched_time_per_job = 0.0; // wall clock, never deterministic
        }
        let seq_json = serde_json::to_string(&seq).expect("serialize");
        let par_json = serde_json::to_string(&par).expect("serialize");
        assert_eq!(seq_json, par_json);
    }

    #[test]
    fn missing_trace_is_a_named_failure() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let traces = vec![trace_by_name("Synth-16", 0.005, 3)];
        let cells = product(&["Nope"], &[Scheme::Jigsaw], &[Scenario::None]);
        let err = run_grid(2, &cells, &traces, 7, false).expect_err("unknown trace fails");
        std::panic::set_hook(prev_hook);
        assert_eq!(err.index, 0);
        assert!(err.cell.contains("\"Nope\""), "{err}");
        assert!(err.cell.contains("Jigsaw"), "{err}");
        assert!(err.to_string().contains("not generated"), "{err}");
    }
}
