//! The simulator workloads. Each run writes one seeded Synth-16 trace
//! (10,000 jobs, the paper's size) as SWF, parses it back, and simulates
//! slices of it pass after pass on the radix-16 tree (1,024 nodes) under
//! Jigsaw. Every pass is identical, so every pass must schedule alike.

use crate::alloc::{Fingerprint, Recorder, Timed};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Name};
use crate::{peak_rss_mb, Outcome};
use jigsaw_core::defrag::DefragConfig;
use jigsaw_core::{Allocator, Scheme};
use jigsaw_obs::Registry;
use jigsaw_sim::{BackfillPolicy, SimConfig, Simulation};
use jigsaw_topology::FatTree;
use jigsaw_traces::swf::{parse_swf_report, to_swf};
use jigsaw_traces::synth::synth;
use jigsaw_traces::Trace;
use std::path::Path;
use std::time::{Duration, Instant};

/// Radix of the simulated tree: 16 pods × 8 leaves × 8 nodes.
const RADIX: u32 = 16;
/// Set-up repetitions before each pass; `setup_s` is the mean over passes
/// of each block's median.
const SETUP_PER_PASS: usize = 30;
/// Jobs in the SWF input: the paper's Synth-16 size (Table 1).
const TRACE_JOBS: usize = 10_000;

/// One simulator workload: a pass simulates `slices` consecutive slices
/// of `jobs` trace jobs each, every slice on an empty machine.
///
/// Slicing keeps a pass's cost steady from seed to seed: conservative
/// planning and defragmentation cost vary several-fold between traces of
/// a few hundred jobs, and a pass sums many such traces.
pub struct Spec {
    pub jobs: usize,
    pub slices: usize,
    /// EASY lookahead / conservative reservation depth.
    pub window: usize,
    pub policy: BackfillPolicy,
    /// Background defragmentation with this per-node migration cost (s).
    pub defrag_cost: Option<f64>,
}

pub fn spec(workload: &str) -> Option<Spec> {
    match workload {
        "sim_easy" => Some(Spec {
            jobs: 10_000,
            slices: 1,
            window: 50,
            policy: BackfillPolicy::Easy,
            defrag_cost: None,
        }),
        "sim_conservative" => Some(Spec {
            jobs: 250,
            slices: 30,
            window: 5,
            policy: BackfillPolicy::Conservative,
            defrag_cost: None,
        }),
        "sim_defrag" => Some(Spec {
            jobs: 500,
            slices: 8,
            window: 50,
            policy: BackfillPolicy::Easy,
            defrag_cost: Some(60.0),
        }),
        _ => None,
    }
}

impl Spec {
    fn config(&self) -> SimConfig {
        SimConfig {
            policy: self.policy,
            defrag: self.defrag_cost.map(|_| DefragConfig::default()),
            migration_cost_per_node: self.defrag_cost.unwrap_or(0.0),
            backfill_window: self.window,
            ..SimConfig::default()
        }
    }
}

/// Totals over one pass.
#[derive(Default)]
struct Pass {
    wall: f64,
    fingerprint: Fingerprint,
    jobs: u64,
    placed: u64,
    failed: u64,
    migrations: u64,
    utilization_sum: f64,
    turnaround_sum: f64,
    steps_mismatch: bool,
}

/// Per-layer totals over the traced passes.
#[derive(Default)]
struct Layers {
    jobs: u64,
    decides: u64,
    admits: u64,
    clones: u64,
    alloc_ns: u64,
    /// Root `decide` calls with the state-clone samples and the recorder's
    /// bookkeeping around them: the part of `sched_wall_seconds` that is
    /// not planning.
    root_decide_ns: u64,
    self_ns: u64,
    wall_ns: u64,
    sched_ns: f64,
    steps: u64,
    migrations: u64,
    hits: u64,
    misses: u64,
    decide_us: Vec<f64>,
    state_clone_us: Vec<f64>,
    replay_us: Vec<f64>,
}

impl Layers {
    fn add_spans(&mut self, spans: &[trace::Span]) {
        self.wall_ns += spans[0].duration();
        self.self_ns += trace::root_self_ns(spans);
        for s in &spans[1..] {
            match s.name {
                Name::Decide | Name::SpecDecide => {
                    self.decides += 1;
                    self.admits += u64::from(s.admitted);
                    self.decide_us.push(s.duration() as f64 / 1e3);
                    if s.name == Name::Decide {
                        self.root_decide_ns += s.duration();
                    }
                }
                Name::Clone => self.clones += 1,
                Name::StateClone => {
                    self.state_clone_us.push(s.duration() as f64 / 1e3);
                    self.root_decide_ns += s.duration();
                }
                Name::Record => self.root_decide_ns += s.duration(),
                _ => {}
            }
        }
        self.alloc_ns += trace::top_level_ns(spans, Name::is_allocator_call);
    }

    fn add_registry(&mut self, registry: &Registry) {
        self.hits += registry.counter("jigsaw_sim_backfill_hits_total", "").get();
        self.misses += registry
            .counter("jigsaw_sim_backfill_misses_total", "")
            .get();
        let replay = registry.histogram("jigsaw_sim_reservation_replay_ns", "");
        if replay.count() > 0 {
            self.replay_us.push(replay.quantile(0.5) as f64 / 1e3);
        }
    }
}

fn run_pass(
    tree: &FatTree,
    slices: &[Trace],
    config: &SimConfig,
    mut layers: Option<&mut Layers>,
) -> Pass {
    let mut pass = Pass::default();
    for slice in slices {
        let traced = layers.is_some();
        let inner = Scheme::Jigsaw.make(tree);
        let (inner, registry): (Box<dyn Allocator>, Registry) = if traced {
            (Box::new(Timed::new(inner, true)), Registry::new())
        } else {
            (inner, Registry::disabled())
        };
        let (recorder, log) = Recorder::new(inner);
        if traced {
            trace::enable();
        }
        let root = trace::begin(Name::Root);
        let t0 = Instant::now();
        let result = Simulation::new(tree, slice)
            .allocator(Box::new(recorder))
            .config(config.clone())
            .with_registry(&registry)
            .run();
        pass.wall += t0.elapsed().as_secs_f64();
        trace::end(root, false);
        let log = Recorder::collect(&log);

        pass.fingerprint.add(log.fingerprint.0);
        for j in &result.jobs {
            pass.fingerprint.add(j.start.to_bits());
            pass.fingerprint.add(j.end.to_bits());
        }
        let placed = result.jobs.iter().filter(|j| j.scheduled()).count() as u64;
        pass.jobs += result.jobs.len() as u64;
        pass.placed += placed;
        pass.failed += result.jobs.len() as u64 - placed + log.audit_errors;
        pass.migrations += result.migrations;
        pass.utilization_sum += result.utilization;
        pass.turnaround_sum += result.avg_turnaround() * placed as f64;
        pass.steps_mismatch |= log.search_steps != result.search_steps;
        if let Some(layers) = layers.as_deref_mut() {
            layers.add_spans(&trace::take());
            layers.add_registry(&registry);
            layers.jobs += result.jobs.len() as u64;
            layers.sched_ns += result.sched_wall_seconds * 1e9;
            layers.steps += result.search_steps;
            layers.migrations += result.migrations;
        }
    }
    pass
}

/// Parse the SWF file, then build the tree and the allocator: what a user
/// of the simulator waits for before the first event. Returns the trace,
/// the tree, the whole time and the parse time (seconds).
fn set_up(swf: &Path) -> Result<(Trace, FatTree, f64, f64), String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(swf).map_err(|e| format!("{}: {e}", swf.display()))?;
    let (trace, skipped) = parse_swf_report("Synth-16", 0, &text, 1);
    let parsed = t0.elapsed().as_secs_f64();
    let tree = FatTree::maximal(RADIX).map_err(|e| e.to_string())?;
    std::hint::black_box(Scheme::Jigsaw.make(&tree));
    let whole = t0.elapsed().as_secs_f64();
    if !skipped.is_empty() {
        return Err(format!("SWF parser skipped {} line(s)", skipped.len()));
    }
    Ok((trace, tree, whole, parsed))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let mut out = Outcome {
        idle_layers: &["persist", "net"],
        ..Outcome::default()
    };
    let swf = work.join("trace.swf");
    if let Err(e) = std::fs::write(&swf, to_swf(&synth(16, TRACE_JOBS, seed))) {
        out.error(format!("{}: {e}", swf.display()));
        return out;
    }
    let mut parses = Vec::new();
    let mut set_up_once = |out: &mut Outcome| match set_up(&swf) {
        Ok((trace, tree, whole, parsed)) => {
            parses.push(parsed);
            Some((trace, tree, whole))
        }
        Err(e) => {
            out.error(e);
            None
        }
    };
    let Some((parsed, tree, _)) = set_up_once(&mut out) else {
        return out;
    };
    if parsed.len() != TRACE_JOBS {
        out.error(format!(
            "SWF holds {} jobs, expected {TRACE_JOBS}",
            parsed.len()
        ));
        return out;
    }
    let slices: Vec<Trace> = parsed
        .jobs
        .chunks(spec.jobs)
        .take(spec.slices)
        .map(|jobs| Trace::new(parsed.name.clone(), 0, jobs.to_vec()))
        .collect();
    let config = spec.config();

    // Untraced runs measure passes for `seconds`; traced runs alternate
    // untraced and traced passes over the same time, at least one each.
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = Layers::default();
    let mut setup_medians = Vec::new();
    while passes.len() + traced_walls.len() < 1 + usize::from(traced) || start.elapsed() < deadline
    {
        // Set-up is timed in a block before each pass, so the blocks span
        // the run as the passes do.
        let mut block: Vec<f64> = (0..SETUP_PER_PASS)
            .filter_map(|_| set_up_once(&mut out).map(|(_, _, whole)| whole))
            .collect();
        setup_medians.push(median(&mut block));
        let traced_pass = traced && passes.len() > traced_walls.len();
        let p = run_pass(&tree, &slices, &config, traced_pass.then_some(&mut layers));
        if let Some(first) = passes.first() {
            check(&mut out, first, &p);
        }
        out.attempted += p.jobs;
        out.failed += p.failed;
        if p.steps_mismatch {
            out.error("root search steps disagree with SimResult::search_steps".into());
        }
        if traced_pass {
            traced_walls.push(p.wall);
        } else {
            passes.push(p);
        }
    }
    let first = &passes[0];
    if spec.defrag_cost.is_some() && first.migrations == 0 {
        out.error("no migrations: the defragmenter did no work".into());
    }
    out.note(format!(
        "{} passes of {} slice(s) x {} jobs; {} migrations per pass",
        passes.len() + traced_walls.len(),
        spec.slices,
        spec.jobs,
        first.migrations
    ));

    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    if traced {
        layers.finish(&mut out, &mut parses, &mut traced_walls, &mut walls);
        return out;
    }
    let total: f64 = walls.iter().sum();
    out.set(
        "throughput_per_s",
        first.jobs as f64 * walls.len() as f64 / total,
    );
    out.set("latency_p50_ms", quantile(&mut walls, 0.50) * 1e3);
    out.set("latency_p99_ms", quantile(&mut walls, 0.99) * 1e3);
    // The mean over blocks follows the share of the run the machine spent
    // in slow phases smoothly; a median over all samples jumps between the
    // fast and the slow set-up time when that share is near one half.
    out.set(
        "setup_s",
        setup_medians.iter().sum::<f64>() / setup_medians.len() as f64,
    );
    out.set(
        "utilization_pct",
        100.0 * first.utilization_sum / slices.len() as f64,
    );
    out.set(
        "turnaround_mean_s",
        first.turnaround_sum / first.placed as f64,
    );
    out.set("grant_pct", 100.0 * first.placed as f64 / first.jobs as f64);
    out.set("peak_rss_mb", peak_rss_mb("self"));
    out
}

/// The schedule-fingerprint gate: every pass, traced or not, must repeat
/// the first (untraced) pass.
fn check(out: &mut Outcome, first: &Pass, p: &Pass) {
    if p.fingerprint != first.fingerprint {
        out.error("a pass scheduled differently from the first pass".into());
    }
}

impl Layers {
    fn finish(
        mut self,
        out: &mut Outcome,
        parses: &mut [f64],
        traced_walls: &mut [f64],
        plain_walls: &mut [f64],
    ) {
        let jobs = self.jobs as f64;
        let wall = self.wall_ns as f64;
        out.set("core.decide_calls_per_job", self.decides as f64 / jobs);
        out.set("core.decide_us_p50", quantile(&mut self.decide_us, 0.50));
        out.set("core.decide_us_p99", quantile(&mut self.decide_us, 0.99));
        out.set(
            "core.admit_ratio",
            ratio(self.admits as f64, self.decides as f64),
        );
        out.set("core.busy_pct", 100.0 * ratio(self.alloc_ns as f64, wall));
        out.set("core.clone_calls_per_job", self.clones as f64 / jobs);
        out.set("core.search_steps_per_job", self.steps as f64 / jobs);
        out.set(
            "topology.state_clone_us_p50",
            median(&mut self.state_clone_us),
        );
        out.set("sim.self_pct", 100.0 * ratio(self.self_ns as f64, wall));
        out.set("sim.sched_pct", 100.0 * ratio(self.sched_ns, wall));
        out.set(
            "sim.backfill_hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
        );
        out.set("sim.replay_us_p50", median(&mut self.replay_us));
        out.set(
            "defrag.migrations_per_kjob",
            1e3 * self.migrations as f64 / jobs,
        );
        out.set(
            "defrag.plan_pct",
            100.0 * ratio(self.sched_ns - self.root_decide_ns as f64, wall),
        );
        out.set("traces.parse_ms", median(parses) * 1e3);
        out.set(
            "trace.overhead_pct",
            100.0 * (median(traced_walls) / median(plain_walls) - 1.0),
        );
    }
}
