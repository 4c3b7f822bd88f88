//! The paper's *motivation* (§1–2.2), measured: inter-job network
//! interference under traditional scheduling vs. its structural absence
//! under Jigsaw.
//!
//! A churned machine runs several communication-heavy jobs concurrently;
//! each executes random permutation traffic. We compute max-min fair flow
//! rates and report each job's communication slowdown, three ways:
//!
//! * **Baseline + D-mod-k** — network-oblivious placement, default routing
//!   (the paper cites slowdowns up to 120% for this configuration);
//! * **Jigsaw + partition routing** — static in-partition routing: some
//!   *intra*-job contention may remain (static routing is not perfect),
//!   but it is provably independent of the neighbors;
//! * **Jigsaw + rearranged routing** — the offline routing of Theorem 6:
//!   slowdown exactly 1.0 for every job and every permutation.

use crate::HarnessArgs;
use jigsaw_core::{Allocation, Allocator, JobRequest, Scheme};
use jigsaw_routing::dmodk::dmodk_route;
use jigsaw_routing::flowsim::{job_slowdowns, Flow};
use jigsaw_routing::permutation::random_permutation;
use jigsaw_routing::{route_permutation, PartitionRouter};
use jigsaw_topology::ids::{JobId, NodeId};
use jigsaw_topology::{FatTree, SystemState};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SIZES: [u32; 6] = [96, 64, 48, 112, 80, 40];

/// Run the four configurations on one churned radix-16 machine.
pub(super) fn motivation_interference(args: &HarnessArgs) -> Result<(), String> {
    let tree = FatTree::maximal(16).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    println!(
        "six permutation-traffic jobs ({:?} nodes) on a {}-node fat-tree\n",
        SIZES,
        tree.num_nodes()
    );

    // Churn the machine so placements fragment, as in production.
    let churn = |state: &mut SystemState, alloc: &mut Box<dyn Allocator>, rng: &mut StdRng| {
        let mut held = Vec::new();
        for i in 0..400u32 {
            if let Ok(a) = alloc.try_admit(
                state,
                &JobRequest::new(JobId(1000 + i), 1 + rng.random_range(0u32..24)),
            ) {
                held.push(a);
            }
        }
        use rand::seq::SliceRandom;
        held.shuffle(rng);
        for a in held.iter().skip(held.len() / 3) {
            alloc.release(state, a);
        }
    };

    let place = |kind: Scheme, rng: &mut StdRng| -> (Vec<Allocation>, SystemState) {
        let mut state = SystemState::new(tree);
        let mut alloc = kind.make(&tree);
        churn(&mut state, &mut alloc, rng);
        let allocs = SIZES
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| {
                alloc
                    .try_admit(&mut state, &JobRequest::new(JobId(i as u32), s))
                    .ok()
            })
            .collect();
        (allocs, state)
    };

    // --- Baseline + D-mod-k. ------------------------------------------------
    let (allocs, _) = place(Scheme::Baseline, &mut rng);
    let flows: Vec<Vec<Flow>> = allocs
        .iter()
        .map(|a| {
            random_permutation(&a.nodes, &mut rng)
                .into_iter()
                .map(|(s, d)| Flow {
                    src: s,
                    dst: d,
                    route: dmodk_route(&tree, s, d),
                })
                .collect()
        })
        .collect();
    let together = job_slowdowns(&tree, &flows);
    let alone: Vec<f64> = flows
        .iter()
        .map(|f| job_slowdowns(&tree, std::slice::from_ref(f))[0])
        .collect();
    report_delta("Baseline + D-mod-k", &allocs, &alone, &together);

    // --- Baseline + SAR-like reactive rerouting (§7 related work). ----------
    // Same placements, but a global balancer re-routes every live flow.
    let all_pairs: Vec<(NodeId, NodeId)> = flows.iter().flatten().map(|f| (f.src, f.dst)).collect();
    let balanced = jigsaw_routing::adaptive::balance_routes(&tree, &all_pairs);
    let mut rerouted: Vec<Vec<Flow>> = Vec::new();
    let mut cursor = 0;
    for job_flows in &flows {
        rerouted.push(
            job_flows
                .iter()
                .zip(&balanced[cursor..cursor + job_flows.len()])
                .map(|(f, &route)| Flow {
                    src: f.src,
                    dst: f.dst,
                    route,
                })
                .collect(),
        );
        cursor += job_flows.len();
    }
    let together = job_slowdowns(&tree, &rerouted);
    let alone: Vec<f64> = rerouted
        .iter()
        .map(|f| job_slowdowns(&tree, std::slice::from_ref(f))[0])
        .collect();
    report_delta("Baseline + SAR-like rerouting", &allocs, &alone, &together);
    println!("  (mitigates, but interference can remain nonzero — no guarantee)\n");

    // --- Jigsaw + static partition routing. ----------------------------------
    let (allocs, _) = place(Scheme::Jigsaw, &mut rng);
    let perms: Vec<Vec<(NodeId, NodeId)>> = allocs
        .iter()
        .map(|a| random_permutation(&a.nodes, &mut rng))
        .collect();
    let flows: Vec<Vec<Flow>> = allocs
        .iter()
        .zip(&perms)
        .map(|(a, perm)| {
            let router = PartitionRouter::new(&tree, a).expect("structured");
            perm.iter()
                .map(|&(s, d)| Flow {
                    src: s,
                    dst: d,
                    route: router.route(&tree, s, d).unwrap(),
                })
                .collect()
        })
        .collect();
    let together = job_slowdowns(&tree, &flows);
    let alone: Vec<f64> = flows
        .iter()
        .map(|f| job_slowdowns(&tree, std::slice::from_ref(f))[0])
        .collect();
    report_delta(
        "Jigsaw + partition routing (static)",
        &allocs,
        &alone,
        &together,
    );
    // Neighbor-independence: each job alone has the same slowdown.
    for (i, (&a, &t)) in alone.iter().zip(&together).enumerate() {
        if (a - t).abs() >= 1e-9 {
            return Err(format!("job {i} slowdown must be neighbor-independent"));
        }
    }
    println!("  (verified: zero interference — alone == together for every job)\n");

    // --- Jigsaw + rearranged (offline) routing. -----------------------------
    let flows: Vec<Vec<Flow>> = allocs
        .iter()
        .zip(&perms)
        .map(|(a, perm)| {
            route_permutation(&tree, a, perm)
                .expect("legal partitions are rearrangeable")
                .flows
                .into_iter()
                .map(|(s, d, route)| Flow {
                    src: s,
                    dst: d,
                    route,
                })
                .collect()
        })
        .collect();
    let slowdowns = job_slowdowns(&tree, &flows);
    report(
        "Jigsaw + rearranged routing (Theorem 6)",
        &allocs,
        &slowdowns,
    );
    if slowdowns.iter().any(|&s| (s - 1.0).abs() >= 1e-9) {
        return Err("rearranged routing left a job slowed down".into());
    }
    println!("  (guaranteed: every permutation routes contention-free)");
    Ok(())
}

fn report(title: &str, allocs: &[Allocation], slowdowns: &[f64]) {
    println!("{title}:");
    for (a, s) in allocs.iter().zip(slowdowns) {
        println!(
            "  job {:>2} ({:>3} nodes): slowdown {:.2}x ({:+.0}%)",
            a.job.0,
            a.requested,
            s,
            100.0 * (s - 1.0)
        );
    }
    let worst = slowdowns.iter().copied().fold(1.0f64, f64::max);
    println!("  worst case: {worst:.2}x\n");
}

/// Per-job slowdown alone vs. beside neighbors; the delta is pure
/// inter-job interference (intra-job static-routing contention is in both
/// columns).
fn report_delta(title: &str, allocs: &[Allocation], alone: &[f64], together: &[f64]) {
    println!("{title}:");
    for ((a, &al), &tg) in allocs.iter().zip(alone).zip(together) {
        println!(
            "  job {:>2} ({:>3} nodes): alone {:.2}x, with neighbors {:.2}x  → interference {:+.0}%",
            a.job.0,
            a.requested,
            al,
            tg,
            100.0 * (tg / al - 1.0)
        );
    }
    let worst = alone
        .iter()
        .zip(together)
        .map(|(&a, &t)| t / a)
        .fold(1.0f64, f64::max);
    println!("  worst interference: {:+.0}%\n", 100.0 * (worst - 1.0));
}
