//! The defragmentation-recovery trajectory: how much of the utilization
//! lost to fragmentation the
//! [`Decision::Reconfigure`](jigsaw_core::Decision::Reconfigure) outcome
//! wins back, committed as `BENCH_defrag.json` so every PR's recovery
//! rate is visible in the bench record.
//!
//! Each arm prepares the shared `fragmented90` scenario (a machine
//! churned to ~90% occupancy — `jigsaw_bench::scenarios`), then streams
//! deterministic probe jobs sized to need full leaves. Admitted probes
//! stay resident; whenever raw capacity runs short, the *smallest*
//! resident jobs "complete" first — scattering the freed nodes across
//! many leaves, the canonical fragmentation regime. A probe Algorithm 1
//! rejects *for fragmentation* goes to the planner
//! ([`jigsaw_core::defrag::plan_migrations`]), and a found plan is
//! applied through [`jigsaw_core::defrag::apply_plan`] —
//! per-move audits included — with the admitted job left resident. The
//! headline number per arm is `recovered_pct`: the share of
//! fragmentation-rejected probes a bounded migration plan admitted.
//! Three arms run on identical starting states and probe streams: `none`
//! (no planner — the Algorithm-1 baseline, whose mean utilization
//! anchors "utilization recovered"), `greedy`, and `anneal`.
//!
//! `jigsaw-bench defrag_recovery --out .` regenerates the committed file.
//! Two kinds of gate can fail the run (see [`GATES`]): every radix-22
//! planner arm must recover at least 30% of its fragmentation rejects,
//! and with `--floor BENCH_defrag.json` no arm's `recovered_pct` may fall
//! more than 15 points below the committed one.

use crate::gate::{self, Bound, Gate};
use crate::report::{rounded, write_json};
use crate::scenarios::scenario;
use crate::HarnessArgs;
use jigsaw_core::defrag::{apply_plan, plan_migrations, DefragConfig, PlanScheme};
use jigsaw_core::{JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::FatTree;
use serde::Serialize;
use std::time::Instant;

const RADIXES: [u32; 2] = [10, 22];

/// The arms, on identical starting states and probe streams: the
/// no-planner baseline, then the two plan-search schemes.
const ARMS: [(&str, Option<PlanScheme>); 3] = [
    ("none", None),
    ("greedy", Some(PlanScheme::Greedy)),
    (
        "anneal",
        Some(PlanScheme::Anneal {
            iters: 256,
            seed: 42,
        }),
    ),
];

/// On fragmented90 at radix 22, Reconfigure must admit at least 30% of
/// the jobs Algorithm 1 alone rejects for fragmentation (the `none` arm
/// is the baseline, not a contestant); no arm may fall more than 15
/// points below the committed floor.
pub(super) const GATES: &[Gate] = &[
    Gate {
        rows: "arms",
        key: &[("radix", "22"), ("scheme", "greedy")],
        metric: "recovered_pct",
        bound: Bound::AtLeast(30.0),
    },
    Gate {
        rows: "arms",
        key: &[("radix", "22"), ("scheme", "anneal")],
        metric: "recovered_pct",
        bound: Bound::AtLeast(30.0),
    },
    Gate {
        rows: "arms",
        key: &[("radix", "*"), ("scheme", "*")],
        metric: "recovered_pct",
        bound: Bound::PointsBelowFloor(15.0),
    },
];

#[derive(Serialize)]
struct Trajectory {
    benchmark: &'static str,
    probes: usize,
    arms: Vec<Arm>,
}

#[derive(Serialize)]
struct Arm {
    radix: u32,
    scheme: &'static str,
    probes: usize,
    admitted_plain: usize,
    frag_rejects: usize,
    recovered: usize,
    /// Share of fragmentation-rejected probes a plan admitted, percent.
    recovered_pct: f64,
    moves: usize,
    nodes_moved: u64,
    /// Occupancy sampled after every probe, averaged — the utilization
    /// this arm sustains under the identical demand stream. The delta
    /// against the `none` arm is the utilization defragmentation
    /// recovers.
    mean_util_pct: f64,
    plan_p50_ns: u64,
    plan_p99_ns: u64,
}

/// Run one (radix, plan-scheme) arm: stream `probes` deterministic jobs
/// against a fresh `fragmented90` state, planning and applying a
/// migration for every fragmentation reject.
fn measure(
    radix: u32,
    scheme_name: &'static str,
    scheme: Option<PlanScheme>,
    probes: usize,
) -> Arm {
    let tree = FatTree::maximal(radix).expect("even radix");
    let (mut state, mut alloc, mut live, _probe) = scenario("fragmented90", &tree, Scheme::Jigsaw);
    let cfg = scheme.map(|s| DefragConfig {
        scheme: s,
        ..DefragConfig::default()
    });
    let total_nodes = f64::from(tree.num_nodes());

    let leaf = tree.nodes_per_leaf();

    // The churned residents are large and therefore leaf-aligned (Jigsaw
    // places every multi-leaf job as full leaves + remainder), so their
    // completions hand whole leaves back and fragmentation cannot
    // persist. Real fragmentation is made by SMALL jobs sharing leaves:
    // replace each resident larger than a leaf with 1–3-node fillers
    // until utilization returns to 90%. Deterministic, identical across
    // arms.
    let mut next_filler = 2_000_000u32;
    while let Some(pos) = live.iter().position(|a| a.nodes.len() > leaf as usize) {
        let done = live.swap_remove(pos);
        alloc.release(&mut state, &done);
        alloc.recycle(done);
        while u64::from(state.free_node_count() * 10) > u64::from(tree.num_nodes()) {
            let size = 1 + (next_filler * 7) % 3;
            let req = JobRequest::new(JobId(next_filler), size);
            next_filler += 1;
            match alloc.try_admit(&mut state, &req) {
                Ok(a) => live.push(a),
                Err(_) => break,
            }
        }
    }

    let mut arm = Arm {
        radix,
        scheme: scheme_name,
        probes,
        admitted_plain: 0,
        frag_rejects: 0,
        recovered: 0,
        recovered_pct: 0.0,
        moves: 0,
        nodes_moved: 0,
        mean_util_pct: 0.0,
        plan_p50_ns: 0,
        plan_p99_ns: 0,
    };
    let mut plan_lat: Vec<u64> = Vec::new();
    let mut util_sum = 0.0;
    for i in 0..probes {
        // Sizes in (leaf, 2·leaf]: each needs at least one full leaf, the
        // placement class a fragmented machine is starved of.
        let size = leaf + 1 + (jigsaw_topology::cast::count_u32(i) * 5) % leaf;
        // Make raw capacity available by "completing" resident jobs,
        // draining back to 10% free — the fragmented90 occupancy the
        // scenario defines. Completions model the adversarial steady
        // state: prefer jobs whose departure does NOT hand back a fully
        // free leaf (departures rarely align to leaf boundaries), then
        // smallest first. Capacity returns scattered across many leaves,
        // so raw nodes exist but the full-leaf placement class stays
        // rare — the fragmentation under study. The rule is deterministic
        // and placement-blind in the same way for every arm.
        while u64::from(state.free_node_count() * 10) < u64::from(tree.num_nodes()) {
            let Some(victim) = live
                .iter()
                .enumerate()
                .min_by_key(|(_, a)| (frees_full_leaf(&state, a), a.nodes.len(), a.job.0))
                .map(|(idx, _)| idx)
            else {
                break;
            };
            let done = live.swap_remove(victim);
            alloc.release(&mut state, &done);
            alloc.recycle(done);
        }
        let req = JobRequest::new(JobId(1_000_000 + i as u32), size);
        match alloc.try_admit(&mut state, &req) {
            Ok(a) => {
                // No help needed; the probe stays resident.
                arm.admitted_plain += 1;
                live.push(a);
            }
            Err(reject) if reject.is_fragmentation() => {
                arm.frag_rejects += 1;
                if let Some(cfg) = &cfg {
                    let t0 = Instant::now();
                    let plan =
                        plan_migrations(alloc.as_ref(), &state, &live, &[], &req, reject, cfg);
                    plan_lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    if let Some(plan) = plan {
                        arm.moves += plan.moves.len();
                        arm.nodes_moved += u64::from(plan.nodes_moved());
                        // Apply with per-move audits; the admitted job
                        // stays resident — that occupancy IS the recovery.
                        let admitted = apply_plan(alloc.as_mut(), &mut state, &mut live, &plan)
                            .expect(
                                "an audited plan applies cleanly to the state it was planned on",
                            );
                        debug_assert_eq!(admitted.job, req.id);
                        live.push(admitted);
                        arm.recovered += 1;
                    }
                }
            }
            Err(_) => {}
        }
        util_sum += 100.0 * state.allocated_node_count() as f64 / total_nodes;
    }
    arm.mean_util_pct = rounded(util_sum / probes as f64, 1);
    if arm.frag_rejects > 0 {
        arm.recovered_pct = rounded(100.0 * arm.recovered as f64 / arm.frag_rejects as f64, 1);
    }
    if !plan_lat.is_empty() {
        plan_lat.sort_unstable();
        arm.plan_p50_ns = plan_lat[plan_lat.len() / 2];
        arm.plan_p99_ns = plan_lat[(plan_lat.len() * 99 / 100).min(plan_lat.len() - 1)];
    }
    arm
}

/// Would completing `a` leave some leaf entirely free? Used to bias the
/// synthetic completion stream away from departures that align to leaf
/// boundaries (those un-fragment the machine for free).
fn frees_full_leaf(state: &jigsaw_topology::SystemState, a: &jigsaw_core::Allocation) -> bool {
    let tree = state.tree();
    let per_leaf = tree.nodes_per_leaf();
    let mut leaves: Vec<u32> = a.nodes.iter().map(|&n| tree.leaf_of_node(n).0).collect();
    leaves.sort_unstable();
    let mut i = 0;
    while i < leaves.len() {
        let leaf = leaves[i];
        let mut held = 0u32;
        while i < leaves.len() && leaves[i] == leaf {
            held += 1;
            i += 1;
        }
        if state.free_nodes_on_leaf(jigsaw_topology::ids::LeafId(leaf)) + held == per_leaf {
            return true;
        }
    }
    false
}

/// Measure every (radix, arm) pair, write `BENCH_defrag.json` and check
/// [`GATES`].
pub(super) fn defrag_recovery(args: &HarnessArgs) -> Result<(), String> {
    let probes = args.size(300, 60);
    let mut arms = Vec::new();
    for radix in RADIXES {
        for (name, scheme) in ARMS {
            eprintln!("measuring radix {radix} / {name} ({probes} probes)");
            arms.push(measure(radix, name, scheme, probes));
        }
    }

    println!("## defrag recovery trajectory — fragmented90, {probes} probes/arm\n");
    println!(
        "{:<8} {:<8} {:>8} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "radix", "scheme", "frag", "recov", "recov %", "mean util", "p50 (us)", "p99 (us)"
    );
    for a in &arms {
        println!(
            "{:<8} {:<8} {:>8} {:>8} {:>10.1} {:>10.1} {:>12.2} {:>12.2}",
            a.radix,
            a.scheme,
            a.frag_rejects,
            a.recovered,
            a.recovered_pct,
            a.mean_util_pct,
            a.plan_p50_ns as f64 / 1000.0,
            a.plan_p99_ns as f64 / 1000.0
        );
    }

    let trajectory = Trajectory {
        benchmark: "defrag_recovery",
        probes,
        arms,
    };
    write_json(&args.out_dir, "BENCH_defrag", &trajectory)?;
    gate::check(GATES, &trajectory.to_value(), args.floor.as_deref())
}
