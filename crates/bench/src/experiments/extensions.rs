//! Ablations (DESIGN.md §6), extensions beyond the paper, and the
//! stability sweeps behind Figure 6.

use crate::registry::WORKLOAD_V2;
use crate::report::{pct, table, write_json};
use crate::{fan_out, run_grid, run_sweep, simulate, trace_by_name, GridCell, HarnessArgs};
use jigsaw_core::{JigsawAllocator, Scheme};
use jigsaw_sim::{BackfillPolicy, EstimateModel, FailureModel, Scenario, SimConfig, Simulation};

/// Ablation (§4 of the paper / DESIGN.md §6): why Jigsaw restricts
/// three-level allocations to full leaves.
///
/// The paper argues being maximally permissive (LC: every legal placement,
/// exclusive links) *lowers* utilization through external fragmentation of
/// scattered free nodes — only adding link *sharing* (LC+S) recovers it.
/// We run Jigsaw vs. LC vs. LC+S on one heavy trace; **LC** is LC+S with
/// every job's bandwidth class set to the full 80% cap — a link then fits
/// exactly one job, i.e. exclusive links over the least-constrained
/// placement space.
pub(super) fn ablation_lc(args: &HarnessArgs) -> Result<(), String> {
    let (trace, tree) = trace_by_name("Synth-16", args.scale, args.seed);
    eprintln!("trace: {} jobs on {} nodes", trace.len(), tree.num_nodes());

    // LC: least-constrained placements, exclusive links (bw = the cap).
    let mut lc_trace = trace.clone();
    for j in &mut lc_trace.jobs {
        j.bw_tenths = 40;
    }

    // (name, scheme, exclusive links: run on `lc_trace`)
    let variants = [
        ("Jigsaw (restricted)", Scheme::Jigsaw, false),
        ("LC (least constrained)", Scheme::LcS, true),
        // LC+S: the real bandwidth classes.
        ("LC+S (LC + link sharing)", Scheme::LcS, false),
    ];
    let results = fan_out(args.jobs, &variants, |&(_, scheme, exclusive)| {
        let t = if exclusive { &lc_trace } else { &trace };
        simulate(t, &tree, scheme, SimConfig::default())
    })?;

    println!("## Ablation — the full-leaf restriction (§4)\n");
    println!(
        "{:<28} {:>12} {:>16} {:>14}",
        "variant", "utilization", "sched time/job", "makespan"
    );
    for ((name, _, _), r) in variants.iter().zip(&results) {
        println!(
            "{:<28} {:>11.1}% {:>14.1}µs {:>14.0}",
            name,
            100.0 * r.utilization,
            1e6 * r.avg_sched_time_per_job(),
            r.makespan,
        );
    }
    println!(
        "\nExpected shape (paper §4/§5.2.3): LC underperforms Jigsaw — permitting\n\
         every legal placement scatters free nodes and fragments links — while\n\
         LC+S recovers utilization only via (unrealistic) link sharing, at a\n\
         much higher scheduling cost."
    );
    Ok(())
}

/// Ablation (DESIGN.md §6): shape enumeration order in Algorithm 1.
///
/// Our Jigsaw enumerates shapes densest-first (`n_L` descending): jobs are
/// packed onto as few leaves as legally possible, preserving fully free
/// leaves — the currency of three-level allocations. This ablation flips
/// the order to widest-first and measures the utilization cost.
pub(super) fn ablation_shape_order(args: &HarnessArgs) -> Result<(), String> {
    let names = ["Synth-16", "Thunder"];
    // One task per (trace, order) cell; trace generation is cheap next to
    // the simulation, so each cell regenerates its own copy.
    let cells: Vec<(&str, bool)> = names
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let results = fan_out(args.jobs, &cells, |&(name, widest)| {
        let (trace, tree) = trace_by_name(name, args.scale, args.seed);
        let alloc = if widest {
            JigsawAllocator::with_widest_first_order(&tree)
        } else {
            JigsawAllocator::new(&tree)
        };
        Simulation::new(&tree, &trace)
            .allocator(Box::new(alloc))
            .config(SimConfig::default())
            .run()
    })?;

    println!("## Ablation — Jigsaw shape enumeration order\n");
    println!(
        "{:<10} {:>16} {:>15} {:>16} {:>15}",
        "trace", "densest util", "densest µs/job", "widest util", "widest µs/job"
    );
    for (name, pair) in names.iter().zip(results.chunks(2)) {
        let (dense, wide) = (&pair[0], &pair[1]);
        println!(
            "{:<10} {:>15.1}% {:>15.1} {:>15.1}% {:>15.1}",
            name,
            100.0 * dense.utilization,
            1e6 * dense.avg_sched_time_per_job(),
            100.0 * wide.utilization,
            1e6 * wide.avg_sched_time_per_job(),
        );
    }
    println!("\nDensest-first should match or beat widest-first: spreading small jobs");
    println!("destroys the fully free leaves that three-level allocations need.");
    Ok(())
}

/// Extension: backfilling disciplines under Jigsaw.
///
/// The paper fixes EASY with window 50 (§5.3/§5.4.3). This experiment
/// quantifies that choice: strict FIFO vs. EASY vs. conservative
/// backfilling, on one heavy synthetic trace, under the Jigsaw allocator.
/// Expected shape: FIFO craters utilization (head-of-line blocking on a
/// job-isolating scheduler is brutal); EASY recovers it; conservative sits
/// between on utilization but pays 10–100× the scheduling cost and gives
/// every job a no-delay guarantee (lower wait-time tail).
pub(super) fn backfill_policies(args: &HarnessArgs) -> Result<(), String> {
    // Conservative is O(depth × events × machine) per pass — use a
    // fraction of the requested scale so the comparison stays quick.
    let scale = (args.scale * 0.4).max(0.002);
    let (trace, tree) = trace_by_name("Synth-16", scale, args.seed);
    eprintln!("trace: {} jobs on {} nodes", trace.len(), tree.num_nodes());

    let policies = [
        ("FIFO", BackfillPolicy::None),
        ("EASY", BackfillPolicy::Easy),
        ("conservative", BackfillPolicy::Conservative),
    ];
    let results = fan_out(args.jobs, &policies, |&(_, policy)| {
        let base = SimConfig {
            policy,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, Scheme::Jigsaw, base)
    })?;

    println!("## Backfilling disciplines under Jigsaw\n");
    println!(
        "{:<14} {:>11} {:>14} {:>12} {:>12} {:>14}",
        "policy", "utilization", "avg turnaround", "p95 wait", "makespan", "sched µs/job"
    );
    for ((name, _), r) in policies.iter().zip(&results) {
        println!(
            "{:<14} {:>10.1}% {:>14.0} {:>12.0} {:>12.0} {:>14.1}",
            name,
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.wait_quantile(0.95),
            r.makespan,
            1e6 * r.avg_sched_time_per_job(),
        );
    }
    println!(
        "\nEASY (the paper's choice) should dominate FIFO on every metric and\n\
         match or beat conservative on utilization at a fraction of the cost."
    );
    Ok(())
}

/// Extension: sensitivity of the evaluation to runtime-estimate quality.
///
/// The paper's simulator (like the LaaS code base it extends) schedules
/// with exact runtimes; production EASY runs on user estimates, which are
/// overwhelmingly over-estimates. This sweep scales the per-job
/// over-estimation factor and reports Jigsaw's utilization and turnaround.
/// Expected shape: EASY is famously robust to over-estimation —
/// utilization degrades by at most a point or two even at 10×.
pub(super) fn estimate_error(args: &HarnessArgs) -> Result<(), String> {
    let names = ["Synth-16", "Oct-Cab"];
    let models = [
        ("exact", EstimateModel::Exact),
        ("over up to 2x", EstimateModel::Over { max_factor: 2.0 }),
        ("over up to 5x", EstimateModel::Over { max_factor: 5.0 }),
        ("over up to 10x", EstimateModel::Over { max_factor: 10.0 }),
    ];
    // One cell per (trace, model); each cell generates its own trace.
    let cells: Vec<(&str, &str, EstimateModel)> = names
        .iter()
        .flat_map(|&name| models.iter().map(move |&(label, m)| (name, label, m)))
        .collect();
    let results = fan_out(args.jobs, &cells, |&(name, _, estimates)| {
        let (trace, tree) = trace_by_name(name, args.scale, args.seed);
        let base = SimConfig {
            estimates,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, Scheme::Jigsaw, base)
    })?;

    println!("## Runtime-estimate sensitivity (Jigsaw, EASY backfilling)\n");
    println!(
        "{:<12} {:>24} {:>11} {:>14} {:>12}",
        "trace", "estimates", "utilization", "avg turnaround", "makespan"
    );
    for (&(name, label, _), r) in cells.iter().zip(&results) {
        println!(
            "{:<12} {:>24} {:>10.1}% {:>14.0} {:>12.0}",
            name,
            label,
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.makespan,
        );
    }
    println!("\nEASY's robustness to over-estimation means the paper's exact-runtime");
    println!("simulator does not flatter Jigsaw: the utilization gap to Baseline is");
    println!("estimate-insensitive.");
    Ok(())
}

/// Extension: scheduling under node failures.
///
/// The paper evaluates a failure-free machine; production fat-trees lose
/// nodes routinely. This sweep injects memoryless node failures (MTBF per
/// node from years down to weeks, scaled to the shortened trace horizon)
/// and asks whether Jigsaw's structured placements degrade any faster than
/// Baseline's — they should not: a failed node costs Jigsaw at most the
/// fully-free status of one leaf, and killed jobs requeue identically
/// under every scheme.
pub(super) fn failure_resilience(args: &HarnessArgs) -> Result<(), String> {
    let (trace, tree) = trace_by_name("Synth-16", args.scale, args.seed);
    eprintln!("trace: {} jobs on {} nodes", trace.len(), tree.num_nodes());

    println!("## Node-failure resilience (Synth-16)\n");
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>11} {:>11} {:>12}",
        "failure model", "failures", "killed", "scheme", "utilization", "turnaround", "makespan"
    );
    // MTBFs chosen relative to the trace horizon (~10^4 s at default
    // scale) so the sweep spans "rare" to "constant" failures.
    let random = |mtbf_node_seconds| FailureModel::Random {
        mtbf_node_seconds,
        repair_seconds: 600.0,
    };
    let models = [
        ("none", FailureModel::None),
        ("mtbf 2e6 s/node", random(2e6)),
        ("mtbf 5e5 s/node", random(5e5)),
        ("mtbf 1e5 s/node", random(1e5)),
    ];
    let schemes = [Scheme::Baseline, Scheme::Jigsaw, Scheme::Laas];
    let cells: Vec<(&str, FailureModel, Scheme)> = models
        .iter()
        .flat_map(|&(label, m)| schemes.iter().map(move |&k| (label, m, k)))
        .collect();
    let results = fan_out(args.jobs, &cells, |&(_, failures, kind)| {
        let base = SimConfig {
            failures,
            ..SimConfig::default()
        };
        simulate(&trace, &tree, kind, base)
    })?;
    for (&(label, _, kind), r) in cells.iter().zip(&results) {
        println!(
            "{:<22} {:>9} {:>8} {:>8} {:>10.1}% {:>11.0} {:>12.0}",
            label,
            r.failures,
            r.killed_jobs,
            kind.name(),
            100.0 * r.utilization,
            r.avg_turnaround(),
            r.makespan,
        );
        if Some(&kind) == schemes.last() {
            println!();
        }
    }
    println!("Jigsaw's utilization should track Baseline's decline point-for-point:");
    println!("isolation does not amplify failure cost.");
    Ok(())
}

/// The one scale sensitivity EXPERIMENTS.md documents: Figure 6's Thunder
/// column as the trace grows from 2% to 15% of the paper's job count. The
/// 965-node maximum-size job is over-represented at small scales; its
/// machine drain shrinks relative to the horizon as the trace grows, and
/// the column converges to the paper's values.
pub(super) fn scale_sweep(args: &HarnessArgs) -> Result<(), String> {
    let scales = [0.02f64, 0.05, 0.1, 0.15];
    let schemes = [Scheme::Baseline, Scheme::Jigsaw, Scheme::LcS];
    let runs = run_sweep(
        args.jobs,
        &scales,
        &schemes,
        &SimConfig::default(),
        |&scale| trace_by_name("Thunder", scale, args.seed),
    )?;

    println!("## Thunder utilization vs. trace scale\n");
    println!(
        "{:>7} {:>7} {:>10} {:>8} {:>8}",
        "scale", "jobs", "Baseline", "Jigsaw", "LC+S"
    );
    for (&scale, point) in scales.iter().zip(runs.chunks(schemes.len())) {
        let cells: Vec<String> = point
            .iter()
            .map(|r| format!("{:>7.1}%", 100.0 * r.result.utilization))
            .collect();
        println!(
            "{:>7} {:>7} {:>10} {:>8} {:>8}",
            scale,
            trace_by_name("Thunder", scale, args.seed).0.len(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!("\nJigsaw and LC+S converge toward the paper's 95-96% as the horizon");
    println!("amortizes the single whole-machine-scale job.");
    Ok(())
}

/// Statistical stability of the headline result: Figure 6's utilization
/// values across independent trace seeds.
///
/// The paper reports single runs per trace; this sweep regenerates
/// Synth-16 and Oct-Cab with several seeds and reports mean ± sample
/// standard deviation per scheme. Jigsaw must beat LaaS and TA on every
/// seed, and the spread should be well under the between-scheme gaps —
/// otherwise Figure 6 would be noise.
pub(super) fn variance_check(args: &HarnessArgs) -> Result<(), String> {
    const SEEDS: u64 = 5;
    let schemes = Scheme::ALL;
    println!("## Utilization stability over {SEEDS} trace seeds (mean ± stddev)\n");
    println!(
        "{:<10} {}",
        "trace",
        schemes
            .iter()
            .map(|k| format!("{:>16}", k.name()))
            .collect::<String>()
    );
    for name in ["Synth-16", "Oct-Cab"] {
        let seeds: Vec<u64> = (0..SEEDS).map(|s| args.seed + 1000 * s).collect();
        let runs = run_sweep(
            args.jobs,
            &seeds,
            &schemes,
            &SimConfig::default(),
            |&seed| trace_by_name(name, args.scale, seed),
        )?;
        // samples[k][seed]: runs are point-major, so scheme k of every seed.
        let samples: Vec<Vec<f64>> = (0..schemes.len())
            .map(|k| {
                runs.iter()
                    .skip(k)
                    .step_by(schemes.len())
                    .map(|r| r.result.utilization)
                    .collect()
            })
            .collect();
        let cells: String = samples
            .iter()
            .map(|v| {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let var =
                    v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1).max(1) as f64;
                format!("{:>9.1}%±{:>4.1}", 100.0 * mean, 100.0 * var.sqrt())
            })
            .collect();
        println!("{name:<10} {cells}");
        let row = |k: Scheme| &samples[schemes.iter().position(|&x| x == k).expect("every scheme")];
        let ordered = (row(Scheme::Jigsaw).iter().zip(row(Scheme::Laas)))
            .zip(row(Scheme::Ta))
            .all(|((&jig, &laas), &ta)| jig > laas && jig > ta);
        if !ordered {
            return Err(format!(
                "{name}: Jigsaw > LaaS and Jigsaw > TA must hold for every seed"
            ));
        }
    }
    println!("\nordering Jigsaw > LaaS and Jigsaw > TA held on every seed.");
    Ok(())
}

/// Extension: workload model v2 (DESIGN §13).
///
/// The paper evaluates only independent rigid jobs; this harness runs the
/// three v2 scenarios — `dag_pipeline` (chained stages), `dag_fanout`
/// (fork/join groups), and `reserved_mix` (rigid load with advance
/// reservations) — across every scheme, and reports utilization,
/// turnaround, makespan, and missed reservations. DAG gating serializes
/// work the queue would otherwise overlap, so utilization lands below the
/// rigid-workload numbers of Fig. 6; the interesting signal is the *gap
/// between schemes* under dependency-structured arrivals.
pub(super) fn workload_v2(args: &HarnessArgs) -> Result<(), String> {
    let traces: Vec<_> = WORKLOAD_V2
        .iter()
        .map(|name| trace_by_name(name, args.scale, args.seed))
        .collect();
    for (trace, tree) in &traces {
        eprintln!(
            "trace: {} — {} jobs on {} nodes",
            trace.name,
            trace.len(),
            tree.num_nodes()
        );
    }

    // Cells key on the generated trace's own name (`dag_pipeline-16`),
    // which carries the mean job size; the registry key is the bare
    // scenario name.
    let cells: Vec<GridCell> = traces
        .iter()
        .flat_map(|(trace, _)| {
            Scheme::ALL.iter().map(|&scheme| GridCell {
                trace: trace.name.clone(),
                scheme,
                scenario: Scenario::None,
            })
        })
        .collect();
    let results = run_grid(args.jobs, &cells, &traces, args.seed, false)?;

    for (trace, _) in &traces {
        let name = trace.name.as_str();
        let rows: Vec<(String, Vec<String>)> = results
            .iter()
            .filter(|r| r.trace == name)
            .map(|r| {
                (
                    r.scheme.to_string(),
                    vec![
                        pct(r.utilization),
                        format!("{:.0}", r.turnaround_all),
                        format!("{:.0}", r.makespan),
                        format!("{}", r.unschedulable),
                    ],
                )
            })
            .collect();
        println!(
            "{}",
            table(
                name,
                &["utilization", "turnaround", "makespan", "unsched"],
                &rows
            )
        );
    }
    write_json(&args.out_dir, "workload_v2", &results)?;
    println!("report: {}/workload_v2.json", args.out_dir);
    Ok(())
}
