//! Saturation load generator for the TCP daemon.
//!
//! Opens N concurrent connections (fanned out over a [`Pool`], one task
//! per connection), drives each with a seeded random `ALLOC`/`FREE`/
//! `STATUS` mix, and records per-request latency into a
//! [`Histogram`] so p50/p99 come from the same
//! observability primitives the daemon itself exports.
//!
//! Two loop disciplines:
//!
//! * **Closed loop** (default): each connection keeps at most
//!   [`LoadgenConfig::pipeline`] requests outstanding and sends the next
//!   only as replies return — throughput is set by the server. A pipeline
//!   of 1 measures pure request-response latency; deeper pipelines are
//!   what saturate group commit (the daemon batches whatever arrives
//!   during one fsync).
//! * **Open loop** ([`LoadgenConfig::rate_per_conn`]): sends are paced on
//!   a fixed schedule regardless of replies (bounded by the pipeline
//!   window), which measures latency under a configured arrival rate.
//!
//! Request ids are partitioned per connection (stride
//! [`JOB_ID_STRIDE`]), so generators never collide on job ids and every
//! `ERR` in the tally is a real protocol outcome (allocator denial under
//! saturation, `FREE` of a denied alloc), not an artifact of the
//! generator.

use crate::protocol::{ErrCode, Request};
use jigsaw_obs::{Histogram, Registry};
use jigsaw_par::Pool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Job-id stride between connections: connection `i` allocates ids in
/// `[i * stride + 1, (i + 1) * stride)`.
pub const JOB_ID_STRIDE: u32 = 1_000_000;

/// Tunables for [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_conn: usize,
    /// Maximum outstanding requests per connection (closed-loop window).
    pub pipeline: usize,
    /// Open-loop arrival rate (requests/second per connection); `None`
    /// runs closed-loop.
    pub rate_per_conn: Option<u64>,
    /// Probability a request is `STATUS` (read-only, never journaled).
    pub status_ratio: f64,
    /// Probability a non-`STATUS` request is `ALLOC` (vs `FREE`) while
    /// jobs are live; with nothing live it is always `ALLOC`.
    pub alloc_bias: f64,
    /// `ALLOC` sizes are uniform in `1..=max_job_size`.
    pub max_job_size: u32,
    /// Seed for the per-connection request streams (connection index is
    /// mixed in, so connections differ but the whole run is reproducible).
    pub seed: u64,
    /// Send `SHUTDOWN` on a fresh connection after the run completes.
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            connections: 4,
            requests_per_conn: 100,
            pipeline: 1,
            rate_per_conn: None,
            status_ratio: 0.1,
            alloc_bias: 0.6,
            max_job_size: 4,
            seed: 0x4a49_4753_4157,
            shutdown: false,
        }
    }
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests sent (and answered — every request gets exactly one reply).
    pub requests: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `ERR` replies (allocator denials under saturation are expected).
    pub err: u64,
    /// `ERR` replies by code, in [`ErrCode::ALL`] order; codes that never
    /// occurred are left out. A reply whose code is not in the protocol
    /// counts in `err` only.
    pub err_by_code: Vec<(ErrCode, u64)>,
    /// Wall-clock duration of the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// Median request latency (histogram bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th-percentile request latency, ns.
    pub p99_ns: u64,
    /// Mean request latency, ns.
    pub mean_ns: u64,
}

impl LoadgenReport {
    /// Aggregate throughput in requests per second.
    pub fn rps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.requests as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }

    /// `err_by_code` as a JSON object, e.g. `{"denied": 3, "unknown-job": 1}`.
    pub fn err_by_code_json(&self) -> String {
        let fields: Vec<String> = self
            .err_by_code
            .iter()
            .map(|(code, n)| format!("\"{code}\": {n}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conns, {} requests ({} ok, {} err{}) in {:.3}s: {:.0} req/s, p50 {}us, p99 {}us",
            self.connections,
            self.requests,
            self.ok,
            self.err,
            self.err_by_code
                .iter()
                .enumerate()
                .map(|(i, (code, n))| format!("{}{code} {n}", if i == 0 { ": " } else { ", " }))
                .collect::<String>(),
            f64::from(u32::try_from(self.elapsed_ns / 1_000_000).unwrap_or(u32::MAX)) / 1e3,
            self.rps(),
            self.p50_ns / 1000,
            self.p99_ns / 1000,
        )
    }
}

/// Per-connection tally, merged into the report.
struct ConnTally {
    sent: u64,
    ok: u64,
    err: u64,
    /// Indexed like [`ErrCode::ALL`].
    err_by_code: [u64; ErrCode::ALL.len()],
}

/// Drive the configured load against a running daemon. Latencies land in
/// the `jigsaw_loadgen_latency_ns` histogram of `registry` (also the
/// source of the report's quantiles).
pub fn run(config: &LoadgenConfig, registry: &Registry) -> std::io::Result<LoadgenReport> {
    let latency = registry.histogram(
        "jigsaw_loadgen_latency_ns",
        "Client-observed request latency (ns), including pipeline queueing.",
    );
    let connections = config.connections.max(1);
    let pool = Pool::new(connections);
    let t0 = Instant::now();
    let outcomes = pool.run((0..connections).collect(), |_, conn_idx| {
        run_conn(conn_idx, config, &latency)
    });
    let elapsed_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut requests = 0u64;
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut err_by_code = [0u64; ErrCode::ALL.len()];
    for outcome in outcomes {
        let tally = match outcome {
            Ok(Ok(tally)) => tally,
            Ok(Err(e)) => return Err(e),
            Err(panic) => return Err(std::io::Error::other(panic.to_string())),
        };
        requests += tally.sent;
        ok += tally.ok;
        err += tally.err;
        for (total, n) in err_by_code.iter_mut().zip(tally.err_by_code) {
            *total += n;
        }
    }

    if config.shutdown {
        shutdown_daemon(&config.addr)?;
    }

    let count = latency.count().max(1);
    Ok(LoadgenReport {
        connections,
        requests,
        ok,
        err,
        err_by_code: ErrCode::ALL
            .into_iter()
            .zip(err_by_code)
            .filter(|&(_, n)| n > 0)
            .collect(),
        elapsed_ns,
        p50_ns: latency.quantile(0.5),
        p99_ns: latency.quantile(0.99),
        mean_ns: latency.sum() / count,
    })
}

/// Send `SHUTDOWN` on a fresh connection and wait for the confirmation.
fn shutdown_daemon(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(b"SHUTDOWN\n")?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    if reply.trim_end() == crate::protocol::Reply::ShuttingDown.to_string() {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected SHUTDOWN reply: {}", reply.trim_end()),
        ))
    }
}

/// One connection's request loop: pipelined sends, in-order reply reads,
/// per-request latency observation.
fn run_conn(
    conn_idx: usize,
    config: &LoadgenConfig,
    latency: &Histogram,
) -> std::io::Result<ConnTally> {
    let mut stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let conn_idx_u64 = u64::try_from(conn_idx).unwrap_or(0);
    let conn_idx_u32 = u32::try_from(conn_idx).unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add(conn_idx_u64.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let mut live: Vec<u32> = Vec::new();
    let mut next_job = conn_idx_u32.saturating_mul(JOB_ID_STRIDE) + 1;
    let window = config.pipeline.max(1);
    let total = config.requests_per_conn;
    let interval = config
        .rate_per_conn
        .filter(|&r| r > 0)
        .map(|r| Duration::from_nanos(1_000_000_000 / r));

    let start = Instant::now();
    // Each pending entry is (send time, allocated id if the request was
    // an ALLOC) — the id lets the in-order reply undo optimistic live
    // tracking when the allocator denies.
    let mut pending: VecDeque<(Instant, Option<u32>)> = VecDeque::with_capacity(window);
    let mut tally = ConnTally {
        sent: 0,
        ok: 0,
        err: 0,
        err_by_code: [0; ErrCode::ALL.len()],
    };
    let mut submitted = 0usize;
    let mut received = 0usize;
    while received < total {
        // Fill the pipeline window (pacing sends in open-loop mode).
        while submitted < total && pending.len() < window {
            if let Some(interval) = interval {
                let due = start + interval * u32::try_from(submitted).unwrap_or(u32::MAX);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let req = next_request(&mut rng, &mut live, &mut next_job, config);
            let alloc_id = match req {
                Request::Alloc { id, .. } => Some(id),
                _ => None,
            };
            // The request and its newline leave in one write.
            stream.write_all(format!("{req}\n").as_bytes())?;
            pending.push_back((Instant::now(), alloc_id));
            submitted += 1;
            tally.sent += 1;
        }
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "connection {conn_idx}: daemon closed with {} replies outstanding",
                    pending.len()
                ),
            ));
        }
        let (sent_at, alloc_id) = pending.pop_front().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("connection {conn_idx}: reply without a pending request"),
            )
        })?;
        latency.observe(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if reply.starts_with("OK") {
            tally.ok += 1;
        } else {
            tally.err += 1;
            let code = reply
                .strip_prefix("ERR ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|token| ErrCode::ALL.iter().position(|c| c.as_str() == token));
            if let Some(i) = code {
                tally.err_by_code[i] += 1;
            }
            // A denied ALLOC never became a job: drop the optimistic id
            // so later FREEs keep targeting genuinely live jobs and the
            // mix stays churn (durable traffic) under saturation.
            if let Some(id) = alloc_id {
                if let Some(pos) = live.iter().position(|&x| x == id) {
                    live.swap_remove(pos);
                }
            }
        }
        received += 1;
    }
    Ok(tally)
}

/// Draw the next request of the mix, tracking the connection's view of
/// its live jobs. Tracking is optimistic — an `ALLOC`'s id joins `live`
/// at send time — but [`run_conn`] removes the id again when the
/// in-order reply turns out to be a denial, so ghost ids only exist
/// while their reply is in flight (a `FREE` racing one of those draws
/// `ERR unknown-job` — real protocol traffic, tallied as such).
fn next_request(
    rng: &mut StdRng,
    live: &mut Vec<u32>,
    next_job: &mut u32,
    config: &LoadgenConfig,
) -> Request<'static> {
    if rng.random_bool(config.status_ratio) {
        return Request::Status;
    }
    if live.is_empty() || rng.random_bool(config.alloc_bias) {
        let id = *next_job;
        *next_job = next_job.saturating_add(1);
        let size = rng.random_range(1..=config.max_job_size.max(1));
        live.push(id);
        Request::Alloc { id, size }
    } else {
        let slot = rng.random_range(0..live.len());
        let id = live.swap_remove(slot);
        Request::Free { id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Server, ServerConfig};
    use jigsaw_core::{ObservedAllocator, Scheme};
    use jigsaw_persist::PersistentState;
    use jigsaw_topology::FatTree;

    #[test]
    fn errors_are_tallied_by_code() {
        // 16 nodes and jobs of up to 16: two connections churning against
        // each other draw allocator denials.
        let tree = FatTree::maximal(4).unwrap();
        let registry = Registry::new();
        let persist = PersistentState::ephemeral(tree);
        let allocator = Box::new(ObservedAllocator::new(
            Scheme::Jigsaw.make(&tree),
            &registry,
        ));
        let engine = Engine::new(tree, allocator, persist, &registry);
        let server = Server::start(engine, &ServerConfig::default()).unwrap();
        let config = LoadgenConfig {
            addr: server.addr().to_string(),
            connections: 2,
            requests_per_conn: 200,
            pipeline: 4,
            max_job_size: 16,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run(&config, &Registry::new()).unwrap();
        assert_eq!(server.wait(), 0);
        assert_eq!(report.ok + report.err, report.requests);
        let by_code: u64 = report.err_by_code.iter().map(|&(_, n)| n).sum();
        assert_eq!(by_code, report.err, "every ERR carries a protocol code");
        assert!(
            report
                .err_by_code
                .iter()
                .any(|&(code, n)| code == ErrCode::Denied && n > 0),
            "{report}"
        );
        assert!(report.err_by_code.iter().all(|&(_, n)| n > 0));
        let shown = report.to_string();
        let json = report.err_by_code_json();
        for (code, n) in &report.err_by_code {
            assert!(shown.contains(&format!("{code} {n}")), "{shown}");
            assert!(json.contains(&format!("\"{code}\": {n}")), "{json}");
        }
    }

    #[test]
    fn request_mix_is_reproducible_and_well_formed() {
        let config = LoadgenConfig::default();
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = Vec::new();
            let mut next_job = JOB_ID_STRIDE + 1;
            (0..200)
                .map(|_| next_request(&mut rng, &mut live, &mut next_job, &config))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same stream");
        assert_ne!(draw(7), draw(8), "different seeds diverge");
        for req in draw(7) {
            // The encoded line reads back as the same request.
            assert_eq!(crate::protocol::parse(&req.to_string()), Ok(req));
            match req {
                Request::Status | Request::Free { .. } => {}
                Request::Alloc { id, size } => {
                    assert!(id > JOB_ID_STRIDE, "ids live in the connection's band");
                    assert!((1..=4).contains(&size));
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
    }

    #[test]
    fn frees_target_previously_allocated_ids() {
        let config = LoadgenConfig {
            status_ratio: 0.0,
            alloc_bias: 0.5,
            ..LoadgenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut live = Vec::new();
        let mut next_job = 1;
        let mut allocated = std::collections::HashSet::new();
        for _ in 0..500 {
            match next_request(&mut rng, &mut live, &mut next_job, &config) {
                Request::Alloc { id, .. } => {
                    assert!(allocated.insert(id), "ids never reused");
                }
                Request::Free { id } => {
                    assert!(
                        allocated.contains(&id),
                        "FREE only targets ids the generator allocated"
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
