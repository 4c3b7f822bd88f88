//! # jigsaw-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Jigsaw paper's evaluation (Smith & Lowenthal, HPDC 2021, §5–6). One
//! binary, `jigsaw-bench <experiment> [flags]`, dispatches over
//! [`experiments::EXPERIMENTS`]:
//!
//! | experiment | artifact |
//! |------------|----------|
//! | `table1_traces`     | Table 1 — trace characteristics |
//! | `fig6_utilization`  | Fig. 6 — average system utilization, 5 schemes × 9 traces |
//! | `table2_inst_util`  | Table 2 — instantaneous-utilization buckets on Thunder |
//! | `fig7_turnaround`   | Fig. 7 — normalized turnaround, Aug-Cab & Oct-Cab × 6 scenarios |
//! | `fig8_makespan`     | Fig. 8 — normalized makespan, Thunder & Atlas × 6 scenarios |
//! | `table3_schedtime`  | Table 3 — average scheduling time per job |
//! | `ablation_lc`       | DESIGN.md §6 — the full-leaf restriction vs. least-constrained |
//! | `ablation_shape_order` | DESIGN.md §6 — densest-first vs. widest-first shape order |
//! | `motivation_interference` | §1–2.2 measured: interference under Baseline/SAR/Jigsaw |
//! | `backfill_policies` | extension — FIFO vs. EASY vs. conservative backfilling |
//! | `estimate_error`    | extension — runtime-estimate sensitivity |
//! | `failure_resilience`| extension — node-failure injection sweep |
//! | `variance_check`    | Fig. 6 across five trace seeds |
//! | `scale_sweep`       | Fig. 6's Thunder column across trace scales |
//! | `workload_v2`       | DESIGN.md §13 — DAG and reservation workloads |
//! | `alloc_trajectory`  | `BENCH_alloc.json` — allocation latency, gated |
//! | `defrag_recovery`   | `BENCH_defrag.json` — defragmentation recovery, gated |
//! | `serve_saturation`  | `BENCH_serve.json` — daemon throughput, gated |
//! | `all`               | the first fourteen above, results to `results/*.json` |
//!
//! Every experiment accepts `--scale <f>` (default 0.02) for the trace
//! job counts, `--full` for paper scale or `--smoke` for a quick run, plus
//! `--seed <n>`, `--out <dir>` and `--jobs <n>`; the trajectories also
//! take `--floor <file>` (see [`gate`]). Experiments fan their independent
//! cells out through [`fan_out`]: results come back in submission order,
//! so reports are byte-identical for any worker count.
//!
//! ```
//! use jigsaw_bench::fan_out;
//!
//! let squares = fan_out(4, &(0u64..32).collect::<Vec<_>>(), |x| x * x)
//!     .expect("no cell panics");
//! assert_eq!(squares[5], 25); // submission order, not completion order
//! ```

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod gate;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sweep;

pub use args::HarnessArgs;
pub use registry::{trace_by_name, WORKLOAD_V2};
pub use runner::{run_grid, simulate, GridCell, GridResult};
pub use sweep::{run_sweep, SweepRun};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cell whose task panicked, named so an experiment can report it and
/// fail instead of unwinding through a half-written report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Position of the cell in the submitted slice.
    pub index: usize,
    /// The cell, as its `Debug` form renders it.
    pub cell: String,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} {} failed: {}",
            self.index, self.cell, self.message
        )
    }
}

impl std::error::Error for CellFailure {}

impl From<CellFailure> for String {
    fn from(failure: CellFailure) -> String {
        failure.to_string()
    }
}

/// Run `task` over every cell on at most `jobs` threads (the caller's
/// thread is one of them, so `jobs <= 1` runs inline) and return the
/// outputs in submission order, whatever order the cells finish in.
///
/// A panicking cell affects no other cell: every cell runs, and the first
/// failure in submission order comes back as a [`CellFailure`]. Tasks must
/// be pure functions of their cell for the output to be independent of
/// `jobs`; every harness cell is (a simulation is fully determined by its
/// trace, scheme and seed).
pub fn fan_out<C, T, F>(jobs: usize, cells: &[C], task: F) -> Result<Vec<T>, CellFailure>
where
    C: std::fmt::Debug + Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    // Workers take cells off one shared cursor and keep (index, outcome)
    // pairs; the indices put the outcomes back in submission order.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(index) else {
                return done;
            };
            done.push((index, catch_unwind(AssertUnwindSafe(|| task(cell)))));
        }
    };
    let mut outcomes = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..jobs.min(cells.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        outcomes.extend(worker());
        for handle in spawned {
            outcomes.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
    });
    outcomes.sort_by_key(|&(index, _)| index);
    outcomes
        .into_iter()
        .map(|(index, outcome)| {
            outcome.map_err(|payload| CellFailure {
                index,
                cell: format!("{:?}", cells[index]),
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        // Make late submissions finish first: earlier cells sleep longer.
        let cells: Vec<u64> = (0..16).collect();
        let out = fan_out(4, &cells, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x * 10
        })
        .expect("no panics");
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let cells: Vec<u64> = (0..100).collect();
        let f = |&x: &u64| (x * 1_000_003) ^ x.wrapping_mul(2_654_435_761);
        let seq = fan_out(1, &cells, f).expect("seq");
        let par = fan_out(8, &cells, f).expect("par");
        assert_eq!(seq, par);
    }

    #[test]
    fn panics_are_contained_and_named() {
        let cells: Vec<u32> = (0..7).collect();
        let ran = AtomicU64::new(0);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let err = fan_out(3, &cells, |&x| {
            ran.fetch_add(1, Ordering::SeqCst);
            assert!(x != 2 && x != 5, "cell {x} exploded");
            x + 1
        })
        .expect_err("two cells panicked");
        std::panic::set_hook(prev_hook);
        assert_eq!(err.index, 2, "first failure by submission order");
        assert_eq!(err.cell, "2");
        assert!(err.message.contains("cell 2 exploded"), "{}", err.message);
        assert!(err.to_string().contains("cell #2 2 failed"), "{err}");
        assert_eq!(ran.load(Ordering::SeqCst), 7, "siblings still ran");
    }

    #[test]
    fn zero_jobs_clamps_and_empty_input_is_fine() {
        let out: Vec<u32> = fan_out(0, &[] as &[u32], |&x| x).expect("empty");
        assert!(out.is_empty());
        assert_eq!(fan_out(0, &[1u32, 2], |&x| x * 2).expect("inline"), [2, 4]);
    }

    #[test]
    fn workers_never_exceed_jobs() {
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let cells: Vec<u32> = (0..32).collect();
        let _ = fan_out(2, &cells, |&x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        })
        .expect("no panics");
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }
}
