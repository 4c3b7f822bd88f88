//! Saturation benchmark for the `jigsaw-sched` TCP daemon: journaled
//! requests/s and latency quantiles under concurrent load, group-commit
//! versus the per-record-fsync baseline.
//!
//! Two daemon configurations serve the identical seeded request mix from
//! the same loadgen (8 connections, pipelined):
//!
//! * `per_record_fsync` — `max_batch = 1`: every request's journal
//!   record gets its own fsync before the reply, byte-identical on disk
//!   to the original stdin serve path.
//! * `group_commit` — `max_batch = 64`: concurrent requests drained in
//!   one batch share a single fsync; replies still release only after
//!   the covering sync, so the durability guarantee is unchanged.
//!
//! The ratio of the two throughputs is the payoff of the group-commit
//! design (the tentpole claim is ≥ 3× at 8 connections). Results land in
//! `BENCH_serve.json` as the PR-over-PR perf-trajectory record.
//!
//! `jigsaw-bench serve_saturation --out .` regenerates the committed file;
//! the run fails if group commit is less than 1.5× faster than per-record
//! fsync (a conservative floor for shared CI runners).

use crate::gate::{self, Bound, Gate};
use crate::report::{rounded, write_json};
use crate::HarnessArgs;
use jigsaw_core::{ObservedAllocator, Scheme};
use jigsaw_net::{loadgen, Engine, LoadgenConfig, LoadgenReport, Server, ServerConfig};
use jigsaw_obs::Registry;
use jigsaw_persist::PersistentState;
use jigsaw_topology::FatTree;
use serde::{Serialize, Value};
use std::path::PathBuf;

const RADIX: u32 = 8; // 128 nodes
const CONNECTIONS: usize = 8;
const PIPELINE: usize = 8;

/// Group commit must beat per-record fsync by at least 1.5×.
pub(super) const GATES: &[Gate] = &[Gate {
    rows: "",
    key: &[],
    metric: "group_commit_speedup",
    bound: Bound::AtLeast(1.5),
}];

#[derive(Serialize)]
struct Trajectory {
    benchmark: &'static str,
    connections: usize,
    requests_per_conn: usize,
    pipeline: usize,
    modes: Vec<Mode>,
    group_commit_speedup: f64,
}

#[derive(Serialize)]
struct Mode {
    mode: &'static str,
    max_batch: usize,
    requests: u64,
    ok: u64,
    err: u64,
    err_by_code: Value,
    rps: f64,
    p50_ns: u64,
    p99_ns: u64,
    mean_ns: u64,
}

impl Mode {
    fn new(mode: &'static str, max_batch: usize, r: &LoadgenReport) -> Mode {
        let codes = r
            .err_by_code
            .iter()
            .map(|(code, n)| (code.to_string(), Value::UInt(*n)));
        Mode {
            mode,
            max_batch,
            requests: r.requests,
            ok: r.ok,
            err: r.err,
            err_by_code: Value::Object(codes.collect()),
            rps: rounded(r.rps(), 1),
            p50_ns: r.p50_ns,
            p99_ns: r.p99_ns,
            mean_ns: r.mean_ns,
        }
    }
}

/// Start a durable daemon with the given fsync batching, drive the full
/// seeded load through it, shut it down, and return the loadgen report.
fn run_mode(
    mode: &str,
    max_batch: usize,
    requests_per_conn: usize,
) -> Result<LoadgenReport, String> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "jigsaw-serve-saturation-{mode}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = FatTree::maximal(RADIX).map_err(|e| e.to_string())?;
    let registry = Registry::new();
    let (mut persist, _report) =
        PersistentState::open(&dir, tree).map_err(|e| format!("journal {}: {e}", dir.display()))?;
    persist.attach_registry(&registry);
    let allocator = Box::new(ObservedAllocator::new(
        Scheme::Jigsaw.make(&tree),
        &registry,
    ));
    let engine = Engine::new(tree, allocator, persist, &registry);
    let server = Server::start(
        engine,
        &ServerConfig {
            max_batch,
            max_conns: CONNECTIONS + 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start daemon: {e}"))?;

    let config = LoadgenConfig {
        addr: server.addr().to_string(),
        connections: CONNECTIONS,
        requests_per_conn,
        pipeline: PIPELINE,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config, &Registry::new()).map_err(|e| format!("loadgen: {e}"))?;
    let code = server.wait();
    if code != 0 {
        return Err(format!("daemon exited with status {code}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Drive both modes, write `BENCH_serve.json` and check [`GATES`].
pub(super) fn serve_saturation(args: &HarnessArgs) -> Result<(), String> {
    let requests_per_conn = args.size(2000, 300);
    eprintln!(
        "saturating a durable radix-{RADIX} daemon: {CONNECTIONS} connections x \
         {requests_per_conn} requests, pipeline {PIPELINE}"
    );
    let mut results = Vec::new();
    for (mode, max_batch) in [("per_record_fsync", 1), ("group_commit", 64)] {
        eprintln!("running {mode} (max_batch={max_batch}) ...");
        let report =
            run_mode(mode, max_batch, requests_per_conn).map_err(|e| format!("{mode}: {e}"))?;
        eprintln!("  {report}");
        results.push((mode, max_batch, report));
    }
    let (baseline, group) = (results[0].2.rps(), results[1].2.rps());
    let speedup = if baseline > 0.0 {
        group / baseline
    } else {
        0.0
    };

    println!("## serve saturation — journaled daemon throughput ({CONNECTIONS} connections)\n");
    println!(
        "{:<18} {:>9} {:>12} {:>12} {:>12}",
        "mode", "max_batch", "req/s", "p50 (us)", "p99 (us)"
    );
    for (mode, max_batch, r) in &results {
        println!(
            "{:<18} {:>9} {:>12.0} {:>12} {:>12}",
            mode,
            max_batch,
            r.rps(),
            r.p50_ns / 1_000,
            r.p99_ns / 1_000
        );
    }
    println!("\ngroup-commit speedup over per-record fsync: {speedup:.2}x");

    let trajectory = Trajectory {
        benchmark: "serve_saturation",
        connections: CONNECTIONS,
        requests_per_conn,
        pipeline: PIPELINE,
        modes: results
            .iter()
            .map(|(m, b, r)| Mode::new(m, *b, r))
            .collect(),
        group_commit_speedup: rounded(speedup, 2),
    };
    write_json(&args.out_dir, "BENCH_serve", &trajectory)?;
    gate::check(GATES, &trajectory.to_value(), args.floor.as_deref())
}
