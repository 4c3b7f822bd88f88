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
//! ```text
//! cargo run --release -p jigsaw-bench --bin defrag_recovery
//!     [--smoke] [--probes N] [--out PATH]
//!     [--floor PATH] [--tolerance PCT] [--min-recovered PCT]
//! ```
//!
//! Two gates can fail the run:
//!
//! * `--min-recovered` (default 30.0): every radix-22 arm must recover at
//!   least this share of its fragmentation rejects — the PR's acceptance
//!   criterion, enforced on every run;
//! * `--floor`: re-read a committed `BENCH_defrag.json` and exit non-zero
//!   if any arm's fresh `recovered_pct` falls more than `--tolerance`
//!   (default 15.0 points) below the committed one.

use jigsaw_bench::scenarios::scenario;
use jigsaw_core::defrag::{apply_plan, plan_migrations, DefragConfig, PlanScheme};
use jigsaw_core::{JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::FatTree;
use serde::Deserialize;
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

struct Args {
    probes: usize,
    out: String,
    floor: Option<String>,
    tolerance: f64,
    min_recovered: f64,
}

struct Arm {
    radix: u32,
    scheme: &'static str,
    probes: usize,
    admitted_plain: usize,
    frag_rejects: usize,
    recovered: usize,
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

impl Arm {
    /// Share of fragmentation-rejected probes a plan admitted, percent.
    fn recovered_pct(&self) -> f64 {
        if self.frag_rejects == 0 {
            0.0
        } else {
            100.0 * self.recovered as f64 / self.frag_rejects as f64
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        probes: 300,
        out: "BENCH_defrag.json".to_string(),
        floor: None,
        tolerance: 15.0,
        min_recovered: 30.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => args.probes = 60,
            "--probes" => {
                args.probes = value("--probes")?
                    .parse()
                    .map_err(|e| format!("--probes: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--floor" => args.floor = Some(value("--floor")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--min-recovered" => {
                args.min_recovered = value("--min-recovered")?
                    .parse()
                    .map_err(|e| format!("--min-recovered: {e}"))?
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (see source header for usage)"
                ))
            }
        }
    }
    Ok(args)
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
                        arm.recovered += 1;
                    }
                }
            }
            Err(_) => {}
        }
        util_sum += 100.0 * state.allocated_node_count() as f64 / total_nodes;
    }
    arm.mean_util_pct = util_sum / probes as f64;
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

fn arm_json(a: &Arm) -> String {
    format!(
        "    {{\n      \"radix\": {},\n      \"scheme\": \"{}\",\n      \"probes\": {},\n      \
         \"admitted_plain\": {},\n      \"frag_rejects\": {},\n      \
         \"recovered\": {},\n      \"recovered_pct\": {:.1},\n      \"moves\": {},\n      \
         \"nodes_moved\": {},\n      \"mean_util_pct\": {:.1},\n      \
         \"plan_p50_ns\": {},\n      \"plan_p99_ns\": {}\n    }}",
        a.radix,
        a.scheme,
        a.probes,
        a.admitted_plain,
        a.frag_rejects,
        a.recovered,
        a.recovered_pct(),
        a.moves,
        a.nodes_moved,
        a.mean_util_pct,
        a.plan_p50_ns,
        a.plan_p99_ns
    )
}

/// Committed `recovered_pct` for (radix, scheme) from a previous
/// `BENCH_defrag.json`.
fn floor_recovered(floor: &serde::Value, radix: u32, scheme: &str) -> Option<f64> {
    let arms = serde::field(floor.as_object()?, "arms").as_array()?;
    for arm in arms {
        let obj = arm.as_object()?;
        if u32::from_value(serde::field(obj, "radix")).ok()? == radix
            && String::from_value(serde::field(obj, "scheme")).ok()? == scheme
        {
            return f64::from_value(serde::field(obj, "recovered_pct")).ok();
        }
    }
    None
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("defrag_recovery: {e}");
            std::process::exit(2);
        }
    };

    let mut arms = Vec::new();
    for radix in RADIXES {
        for (name, scheme) in ARMS {
            eprintln!("measuring radix {radix} / {name} ({} probes)", args.probes);
            arms.push(measure(radix, name, scheme, args.probes));
        }
    }

    println!(
        "## defrag recovery trajectory — fragmented90, {} probes/arm\n",
        args.probes
    );
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
            a.recovered_pct(),
            a.mean_util_pct,
            a.plan_p50_ns as f64 / 1000.0,
            a.plan_p99_ns as f64 / 1000.0
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"defrag_recovery\",\n  \"probes\": {},\n  \"arms\": [\n{}\n  ]\n}}\n",
        args.probes,
        arms.iter().map(arm_json).collect::<Vec<_>>().join(",\n")
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("defrag_recovery: write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);

    let mut failed = false;

    // Gate 1 — the acceptance criterion: on fragmented90 at radix 22,
    // Reconfigure must admit at least `--min-recovered` percent of the
    // jobs Algorithm 1 alone rejects for fragmentation. (The `none` arm
    // is the baseline, not a contestant.)
    for a in arms.iter().filter(|a| a.radix == 22 && a.scheme != "none") {
        if a.frag_rejects == 0 {
            eprintln!(
                "defrag_recovery: radix 22 / {} saw no fragmentation rejects — probe stream too easy",
                a.scheme
            );
            failed = true;
        } else if a.recovered_pct() < args.min_recovered {
            eprintln!(
                "defrag_recovery: radix 22 / {} recovered {:.1}% < required {:.1}%",
                a.scheme,
                a.recovered_pct(),
                args.min_recovered
            );
            failed = true;
        }
    }

    // Gate 2 — the committed floor.
    if let Some(floor_path) = &args.floor {
        let text = match std::fs::read_to_string(floor_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("defrag_recovery: read floor {floor_path}: {e}");
                std::process::exit(1);
            }
        };
        let floor = match serde_json::from_str::<serde::Value>(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("defrag_recovery: parse floor {floor_path}: {e}");
                std::process::exit(1);
            }
        };
        for a in &arms {
            let Some(committed) = floor_recovered(&floor, a.radix, a.scheme) else {
                eprintln!(
                    "defrag_recovery: floor has no arm for radix {} / {} — skipping",
                    a.radix, a.scheme
                );
                continue;
            };
            if a.recovered_pct() + args.tolerance < committed {
                eprintln!(
                    "defrag_recovery: radix {} / {} recovered {:.1}% fell more than {:.1} points \
                     below the committed {:.1}%",
                    a.radix,
                    a.scheme,
                    a.recovered_pct(),
                    args.tolerance,
                    committed
                );
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!("all gates passed");
}
