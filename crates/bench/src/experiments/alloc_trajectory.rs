//! The allocation-latency perf trajectory: per-radix, per-scenario p50/p99
//! of a single Jigsaw `allocate` call, committed as `BENCH_alloc.json` so
//! every PR's speedup or regression is visible in the bench record.
//!
//! Radixes 10 (250 nodes) and 22 (2662 nodes) bracket the original
//! acceptance criterion; radix 28 (5488 nodes) is the target the word-
//! parallel masks and the zero-alloc scratch arena aim at: fragmented90
//! single-allocation p50 in single-digit microseconds. Scenarios come from
//! [`crate::scenarios`] (shared with the `alloc_hot_path` Criterion
//! bench). Alongside wall-clock quantiles every cell records the scheme's
//! mean backtracking steps — the machine-independent effort metric of
//! Table 3 — so deterministic search regressions show up even under CI
//! timing noise.
//!
//! `jigsaw-bench alloc_trajectory --out .` regenerates the committed file;
//! with `--floor BENCH_alloc.json` the run fails if any cell's fresh p50
//! exceeds 4× the committed one (conservative for shared CI runners).

use crate::gate::{self, Bound, Gate};
use crate::report::{rounded, write_json};
use crate::scenarios::{scenario, SCENARIOS};
use crate::HarnessArgs;
use jigsaw_core::Scheme;
use jigsaw_topology::FatTree;
use serde::Serialize;
use std::time::Instant;

const RADIXES: [u32; 3] = [10, 22, 28];

/// Every cell's p50 stays within 4× of the committed one.
pub(super) const GATES: &[Gate] = &[Gate {
    rows: "cells",
    key: &[("radix", "*"), ("scenario", "*")],
    metric: "p50_ns",
    bound: Bound::TimesFloor(4.0),
}];

#[derive(Serialize)]
struct Trajectory {
    benchmark: &'static str,
    iters: usize,
    cells: Vec<Cell>,
}

#[derive(Serialize)]
struct Cell {
    radix: u32,
    scenario: &'static str,
    scheme: &'static str,
    grants: usize,
    p50_ns: u64,
    p99_ns: u64,
    mean_steps: f64,
}

/// Measure one (radix, scenario) cell: `iters` timed allocate calls, each
/// followed by an untimed release + recycle so the machine state and the
/// scratch pools are identical on every iteration.
fn measure(radix: u32, scenario_name: &'static str, iters: usize) -> Cell {
    let tree = FatTree::maximal(radix).expect("even radix");
    let (mut state, mut alloc, _live, size) = scenario(scenario_name, &tree, Scheme::Jigsaw);
    let req = jigsaw_core::JobRequest::new(jigsaw_topology::ids::JobId(1_000_000), size);
    // Warm-up: fill the scratch pools and fault in the state.
    for _ in 0..(iters / 10).max(32) {
        if let Ok(a) = alloc.try_admit(&mut state, &req) {
            alloc.release(&mut state, &a);
            alloc.recycle(a);
        }
    }
    let mut lat = Vec::with_capacity(iters);
    let mut grants = 0usize;
    let mut steps = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = alloc.try_admit(&mut state, &req);
        lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        steps += alloc.last_search_steps();
        if let Ok(a) = r {
            grants += 1;
            alloc.release(&mut state, &a);
            alloc.recycle(a);
        }
    }
    lat.sort_unstable();
    Cell {
        radix,
        scenario: scenario_name,
        scheme: "Jigsaw",
        grants,
        p50_ns: lat[iters / 2],
        p99_ns: lat[(iters * 99 / 100).min(iters - 1)],
        mean_steps: rounded(steps as f64 / iters as f64, 1),
    }
}

/// Measure every (radix, scenario) cell, write `BENCH_alloc.json` and
/// check [`GATES`].
pub(super) fn alloc_trajectory(args: &HarnessArgs) -> Result<(), String> {
    let iters = args.size(4000, 300);
    let mut cells = Vec::new();
    for radix in RADIXES {
        for scenario_name in SCENARIOS {
            eprintln!("measuring radix {radix} / {scenario_name} ({iters} iters)");
            cells.push(measure(radix, scenario_name, iters));
        }
    }

    println!("## allocation latency trajectory — Jigsaw, {iters} iters/cell\n");
    println!(
        "{:<8} {:<14} {:>8} {:>12} {:>12} {:>12}",
        "radix", "scenario", "grants", "p50 (us)", "p99 (us)", "steps"
    );
    for c in &cells {
        println!(
            "{:<8} {:<14} {:>8} {:>12.2} {:>12.2} {:>12.1}",
            c.radix,
            c.scenario,
            c.grants,
            c.p50_ns as f64 / 1000.0,
            c.p99_ns as f64 / 1000.0,
            c.mean_steps
        );
    }

    let trajectory = Trajectory {
        benchmark: "alloc_trajectory",
        iters,
        cells,
    };
    write_json(&args.out_dir, "BENCH_alloc", &trajectory)?;
    gate::check(GATES, &trajectory.to_value(), args.floor.as_deref())
}
