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
//! ```text
//! cargo run --release -p jigsaw-bench --bin serve_saturation
//!     [--smoke] [--connections N] [--requests N] [--pipeline N]
//!     [--out PATH] [--min-speedup F]
//! ```

use jigsaw_core::{ObservedAllocator, Scheme};
use jigsaw_net::{loadgen, Engine, LoadgenConfig, LoadgenReport, Server, ServerConfig};
use jigsaw_obs::Registry;
use jigsaw_persist::PersistentState;
use jigsaw_topology::FatTree;
use std::path::PathBuf;

const RADIX: u32 = 8; // 128 nodes

struct Args {
    connections: usize,
    requests_per_conn: usize,
    pipeline: usize,
    out: String,
    min_speedup: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        connections: 8,
        requests_per_conn: 2000,
        pipeline: 8,
        out: "BENCH_serve.json".to_string(),
        min_speedup: 0.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => args.requests_per_conn = 300,
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--requests" => {
                args.requests_per_conn = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--pipeline" => {
                args.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?
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

/// Start a durable daemon with the given fsync batching, drive the full
/// seeded load through it, shut it down, and return the loadgen report.
fn run_mode(mode: &str, max_batch: usize, args: &Args) -> Result<LoadgenReport, String> {
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
            max_conns: args.connections + 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start daemon: {e}"))?;

    let config = LoadgenConfig {
        addr: server.addr().to_string(),
        connections: args.connections,
        requests_per_conn: args.requests_per_conn,
        pipeline: args.pipeline,
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

fn mode_json(mode: &str, max_batch: usize, r: &LoadgenReport) -> String {
    format!(
        "    {{\n      \"mode\": \"{mode}\",\n      \"max_batch\": {max_batch},\n      \
         \"requests\": {},\n      \"ok\": {},\n      \"err\": {},\n      \
         \"err_by_code\": {},\n      \"rps\": {:.1},\n      \"p50_ns\": {},\n      \
         \"p99_ns\": {},\n      \"mean_ns\": {}\n    }}",
        r.requests,
        r.ok,
        r.err,
        r.err_by_code_json(),
        r.rps(),
        r.p50_ns,
        r.p99_ns,
        r.mean_ns
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_saturation: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "saturating a durable radix-{RADIX} daemon: {} connections x {} requests, pipeline {}",
        args.connections, args.requests_per_conn, args.pipeline
    );

    let mut results = Vec::new();
    for (mode, max_batch) in [("per_record_fsync", 1), ("group_commit", 64)] {
        eprintln!("running {mode} (max_batch={max_batch}) ...");
        match run_mode(mode, max_batch, &args) {
            Ok(report) => {
                eprintln!("  {report}");
                results.push((mode, max_batch, report));
            }
            Err(e) => {
                eprintln!("serve_saturation: {mode}: {e}");
                std::process::exit(1);
            }
        }
    }

    let baseline = &results[0].2;
    let group = &results[1].2;
    let speedup = if baseline.rps() > 0.0 {
        group.rps() / baseline.rps()
    } else {
        0.0
    };

    println!(
        "## serve saturation — journaled daemon throughput ({} connections)\n",
        args.connections
    );
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

    let json = format!(
        "{{\n  \"benchmark\": \"serve_saturation\",\n  \"connections\": {},\n  \
         \"requests_per_conn\": {},\n  \"pipeline\": {},\n  \"modes\": [\n{}\n  ],\n  \
         \"group_commit_speedup\": {:.2}\n}}\n",
        args.connections,
        args.requests_per_conn,
        args.pipeline,
        results
            .iter()
            .map(|(m, b, r)| mode_json(m, *b, r))
            .collect::<Vec<_>>()
            .join(",\n"),
        speedup
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("serve_saturation: write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);

    if args.min_speedup > 0.0 && speedup < args.min_speedup {
        eprintln!(
            "serve_saturation: group-commit speedup {speedup:.2}x is below the required {:.2}x",
            args.min_speedup
        );
        std::process::exit(1);
    }
}
