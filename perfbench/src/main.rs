//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --sched <jigsaw-sched binary> --work <scratch dir>`
//!
//! Runs one workload against the scheduler, checks its outputs and prints,
//! as the last line, one JSON object `{"correct", "attempted", "failed",
//! "values", "idle_layers"}`: metric name → value, and the layers the
//! workload never enters. Untraced runs measure the end-to-end metrics,
//! traced runs the per-layer ones. Exits 1 when a correctness gate fails.
//! `run.py` builds and invokes this, and takes the metric names and units
//! from BENCHMARK.json; see README.md for the workloads and the metric map.

mod alloc;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one run found: operation counts, gate violations and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layers (metric-name prefixes) the workload never enters; `run.py`
    /// reports their per-layer metrics as 0.
    pub idle_layers: &'static [&'static str],
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }
}

/// Peak resident set of a process (`"self"` or a pid), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    sched: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|e| format!("--{k}: {e}"))
            .and_then(|v| {
                if v.is_finite() && v >= 0.0 {
                    Ok(v)
                } else {
                    Err(format!("--{k} must be a non-negative number"))
                }
            })
    };
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        traced: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        sched: PathBuf::from(get("sched")?),
        work: PathBuf::from(get("work")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let outcome = if let Some(spec) = sim::spec(&args.workload) {
        sim::run(&spec, args.seed, args.seconds, args.traced, &args.work)
    } else if args.workload == "serve_tcp" {
        serve::run(
            &args.sched,
            args.seed,
            args.seconds,
            args.traced,
            &args.work,
        )
    } else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let _ = std::fs::remove_dir_all(&args.work);
    report(&args, outcome)
}

fn report(args: &Args, mut out: Outcome) -> ExitCode {
    for note in &out.notes {
        println!("# {note}");
    }
    let mut values = String::new();
    for (i, (name, value)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        if value.is_finite() {
            let _ = write!(values, "{sep}\"{name}\": {value:?}");
        } else {
            out.errors.push(format!("metric {name} is {value}"));
        }
    }
    let idle: Vec<String> = out.idle_layers.iter().map(|l| format!("\"{l}\"")).collect();
    for e in &out.errors {
        println!("GATE FAILED: {e}");
    }
    println!(
        "attempted {} failed {} ({})",
        out.attempted, out.failed, args.workload
    );
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"values\": {{{values}}}, \"idle_layers\": [{}]}}",
        out.attempted.max(1),
        out.failed,
        idle.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
