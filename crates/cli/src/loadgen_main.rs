//! `jigsaw-loadgen` — saturation load generator for the `jigsaw-sched`
//! TCP daemon.
//!
//! ```text
//! jigsaw-loadgen --addr 127.0.0.1:7070 [--connections N] [--requests N]
//!                [--pipeline N] [--rate R] [--status-ratio F]
//!                [--alloc-bias F] [--max-job-size N] [--seed N]
//!                [--shutdown] [--json]
//! ```
//!
//! Opens `--connections` concurrent TCP connections, sends `--requests`
//! seeded random `ALLOC`/`FREE`/`STATUS` requests on each (closed-loop
//! with a `--pipeline`-deep window, or open-loop at `--rate` requests/s
//! per connection), and reports throughput plus p50/p99 latency from
//! `jigsaw-obs` histograms. `--shutdown` sends `SHUTDOWN` when done so
//! scripts can stop the daemon they started. `--json` emits the report
//! as a single JSON object for CI smoke checks.

#[allow(dead_code)]
mod args;

use args::{fail, Flags};
use jigsaw_net::loadgen::{self, LoadgenConfig};
use jigsaw_obs::Registry;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&argv));
}

fn run(argv: &[String]) -> i32 {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return 0;
    }
    let flags = match Flags::parse(argv) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(addr) = flags
        .get("addr")
        .map(String::from)
        .or_else(|| flags.positional.first().cloned())
    else {
        return fail("--addr <host:port> is required (see --help)");
    };
    let defaults = LoadgenConfig::default();
    macro_rules! get_u64 {
        ($name:literal, $default:expr) => {
            match flags.get_u64($name, $default) {
                Ok(v) => v,
                Err(e) => return fail(&e),
            }
        };
    }
    macro_rules! get_f64 {
        ($name:literal, $default:expr) => {
            match flags.get_f64($name, $default) {
                Ok(v) => v,
                Err(e) => return fail(&e),
            }
        };
    }
    let connections = get_u64!("connections", defaults.connections as u64);
    let requests = get_u64!("requests", defaults.requests_per_conn as u64);
    let pipeline = get_u64!("pipeline", defaults.pipeline as u64);
    let rate = get_u64!("rate", 0);
    let max_job_size = get_u64!("max-job-size", u64::from(defaults.max_job_size));
    let config = LoadgenConfig {
        addr,
        connections: usize::try_from(connections).unwrap_or(1).max(1),
        requests_per_conn: usize::try_from(requests).unwrap_or(1).max(1),
        pipeline: usize::try_from(pipeline).unwrap_or(1).max(1),
        rate_per_conn: if rate == 0 { None } else { Some(rate) },
        status_ratio: get_f64!("status-ratio", defaults.status_ratio),
        alloc_bias: get_f64!("alloc-bias", defaults.alloc_bias),
        max_job_size: u32::try_from(max_job_size).unwrap_or(1).max(1),
        seed: get_u64!("seed", defaults.seed),
        shutdown: flags.has("--shutdown"),
    };
    let registry = Registry::new();
    match loadgen::run(&config, &registry) {
        Ok(report) => {
            if flags.has("--json") {
                println!(
                    "{{\"connections\":{},\"requests\":{},\"ok\":{},\"err\":{},\
                     \"err_by_code\":{},\"elapsed_ns\":{},\"rps\":{:.1},\"p50_ns\":{},\
                     \"p99_ns\":{},\"mean_ns\":{}}}",
                    report.connections,
                    report.requests,
                    report.ok,
                    report.err,
                    report.err_by_code_json(),
                    report.elapsed_ns,
                    report.rps(),
                    report.p50_ns,
                    report.p99_ns,
                    report.mean_ns,
                );
            } else {
                println!("{report}");
            }
            0
        }
        Err(e) => fail(&format!("load run against failed: {e}")),
    }
}

const USAGE: &str = "\
jigsaw-loadgen — saturation load generator for the jigsaw-sched TCP daemon

USAGE:
  jigsaw-loadgen --addr <host:port>
        [--connections N]   concurrent connections        (default 4)
        [--requests N]      requests per connection       (default 100)
        [--pipeline N]      outstanding requests per conn (default 1)
        [--rate R]          open-loop requests/s per conn (default closed-loop)
        [--status-ratio F]  fraction of STATUS requests   (default 0.1)
        [--alloc-bias F]    ALLOC share of the write mix  (default 0.6)
        [--max-job-size N]  ALLOC sizes are 1..=N         (default 4)
        [--seed N]          request-stream seed
        [--shutdown]        send SHUTDOWN to the daemon when done
        [--json]            emit the report as one JSON object
";
