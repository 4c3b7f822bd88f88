//! The discrete-event scheduling simulator (§5.3 of the paper).
//!
//! FIFO order with EASY backfilling: when the queue head cannot start, it
//! receives a reservation at the *shadow time* — the earliest future
//! completion after which it fits, found by replaying completions on a
//! scratch clone of the allocation state (and of the allocator, for
//! schemes like TA with internal bookkeeping). Jobs within the lookahead
//! window may start immediately if they complete before the shadow time or
//! are resource-disjoint from the shadow allocation, so they can never
//! delay the head. Runtime estimates are the actual runtimes (the traces
//! carry no user estimates; the LaaS simulator made the same choice).
//!
//! Workload model v2 (DESIGN §13) extends the rigid-job model:
//!
//! * **DAG jobs** ([`jigsaw_traces::JobClass::DagChild`]) become eligible
//!   only once every parent has completed. A parent killed by failure
//!   injection restarts, and its children wait for the *restarted* run's
//!   completion — the eligibility count decrements only on a real
//!   (non-stale-epoch) completion.
//! * **Advance reservations** ([`jigsaw_traces::JobClass::Reserved`]) are
//!   planned on arrival: the engine sets concrete nodes aside at the
//!   reserved start time, and every backfill policy refuses to start any
//!   job whose estimated completion would overlap a pending reservation's
//!   resources. Because actual runtimes never exceed estimates (exact or
//!   over-estimated models only), a reserved job is never started late by
//!   backfilled traffic.
//!
//! Simulations are built with [`Simulation`]:
//!
//! ```
//! use jigsaw_sim::Simulation;
//! # let tree = jigsaw_topology::FatTree::maximal(4).unwrap();
//! # let trace = jigsaw_traces::synth::synth(4, 10, 1);
//! let result = Simulation::new(&tree, &trace)
//!     .scheme(jigsaw_core::Scheme::Jigsaw)
//!     .run();
//! assert!(result.makespan > 0.0);
//! ```

use crate::event::{EventKind, EventQueue};
use crate::metrics::{mean, InstUtilHistogram, JobRecord};
use crate::scenario::Scenario;
use jigsaw_core::defrag::{self, plan_migrations, DefragConfig, MigrationPlan};
use jigsaw_core::{Allocation, Allocator, JobRequest, Reject, Scheme};
use jigsaw_obs::{Counter, EventKind as ObsEventKind, Histogram, Registry};
use jigsaw_topology::cast::count_u32;
use jigsaw_topology::ids::{JobId, NodeId};
use jigsaw_topology::{FatTree, SystemState};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// Comparison slack for simulated times.
const EPS: f64 = 1e-9;

/// Which backfilling discipline the queue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillPolicy {
    /// Strict FIFO: nothing starts ahead of the head.
    None,
    /// EASY (the paper's policy): one reservation for the head; later jobs
    /// may jump ahead if they cannot delay it.
    Easy,
    /// Conservative: a reservation for every waiting job (up to the
    /// window); a job starts early only if it disturbs no reservation.
    Conservative,
}

/// How user-supplied runtime estimates relate to actual runtimes.
/// Backfilling decisions (shadow times, fits-before-reservation) use the
/// *estimate*; completions use the actual runtime. The traces carry no
/// estimates, so a model generates them (per-job deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimateModel {
    /// Estimates equal actual runtimes (the LaaS simulator's choice and
    /// our default).
    Exact,
    /// Users over-estimate by a per-job uniform factor in `[1, max_factor]`
    /// — the empirically dominant error mode on production machines.
    Over {
        /// Largest over-estimation multiplier.
        max_factor: f64,
    },
}

/// Node-failure injection model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureModel {
    /// No failures (the paper's setting).
    None,
    /// Memoryless node failures: the machine experiences a failure every
    /// `mtbf_node_seconds / num_nodes` seconds on average (exponential
    /// inter-arrivals); a failed node returns after `repair_seconds`. A
    /// failure on a busy node kills its job, which is requeued at the head
    /// with its full runtime.
    Random {
        /// Per-node mean time between failures, seconds.
        mtbf_node_seconds: f64,
        /// Time to repair, seconds.
        repair_seconds: f64,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Backfilling discipline.
    pub policy: BackfillPolicy,
    /// Runtime-estimate fidelity.
    pub estimates: EstimateModel,
    /// Node-failure injection.
    pub failures: FailureModel,
    /// EASY lookahead window / conservative reservation depth (the paper
    /// uses 50, §5.4.3).
    pub backfill_window: usize,
    /// Job-performance scenario (§5.4.1).
    pub scenario: Scenario,
    /// Seed for per-job speed-up assignment (identical across schemes).
    pub scenario_seed: u64,
    /// Whether this scheme's jobs enjoy the scenario speed-ups — true for
    /// every scheme except Baseline.
    pub scheme_benefits: bool,
    /// Collect the Table-2 instantaneous-utilization histogram.
    pub collect_inst_util: bool,
    /// Background defragmentation: when the queue head is blocked by
    /// fragmentation (it would fit an empty machine and free capacity
    /// exists, but no interference-free shape does), search for a bounded
    /// migration plan and apply it before giving up on the head. `None`
    /// disables — the head waits for completions, exactly as before.
    pub defrag: Option<DefragConfig>,
    /// Simulated seconds each migrated *node* costs its job (checkpoint,
    /// drain, restore): a migrated job's completion slips by
    /// `cost × nodes_moved`. Zero models free live migration.
    pub migration_cost_per_node: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: BackfillPolicy::Easy,
            estimates: EstimateModel::Exact,
            failures: FailureModel::None,
            backfill_window: 50,
            scenario: Scenario::None,
            scenario_seed: 0,
            scheme_benefits: true,
            collect_inst_util: false,
            defrag: None,
            migration_cost_per_node: 0.0,
        }
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-job records in trace order.
    pub jobs: Vec<JobRecord>,
    /// Makespan: first arrival to last completion (§5).
    pub makespan: f64,
    /// Steady-state average utilization (Fig. 6): requested node-seconds
    /// over capacity, integrated over *backlogged* time — intervals where
    /// jobs are waiting in the queue. This captures the paper's "under
    /// sufficient demand" (§6.1) and "only the steady-state portion" (§5):
    /// the final drain and arrival-limited idle stretches (where every
    /// scheme is equally starved) are excluded; demand-present drains
    /// caused by fragmentation or head-of-line blocking are charged.
    pub utilization: f64,
    /// Utilization over the whole span, for reference.
    pub utilization_full_span: f64,
    /// Like `utilization` but counting *granted* nodes (LaaS's rounded-up
    /// grants included). `utilization_granted - utilization` is the share
    /// of system capacity lost to internal fragmentation — the paper's
    /// "about 3% of system nodes ... allocated to jobs that do not need
    /// them" (§6.1). Zero difference for every scheme except LaaS.
    pub utilization_granted: f64,
    /// Table-2 histogram (empty unless configured).
    pub inst_util: InstUtilHistogram,
    /// Total wall-clock seconds inside allocator searches (Table 3).
    pub sched_wall_seconds: f64,
    /// Number of allocator search invocations.
    pub sched_calls: u64,
    /// Total allocator backtracking steps (machine-independent effort).
    pub search_steps: u64,
    /// Jobs that could never be placed even on an empty machine.
    pub unschedulable: u32,
    /// Node failures injected.
    pub failures: u32,
    /// Jobs killed by node failures (each was requeued and rerun).
    pub killed_jobs: u32,
    /// Advance reservations that could not be honored at their reserved
    /// start (resources unavailable even after replanning); the job fell
    /// back to the front of the regular queue.
    pub reservations_missed: u32,
    /// Live jobs moved by the background defragmenter (zero unless
    /// [`SimConfig::defrag`] is set).
    pub migrations: u64,
    /// Total simulated seconds charged for those moves
    /// (`migration_cost_per_node × nodes moved`, summed).
    pub migration_cost: f64,
}

impl SimResult {
    /// Average turnaround over all scheduled jobs (Fig. 7, filled bars).
    pub fn avg_turnaround(&self) -> f64 {
        mean(
            self.jobs
                .iter()
                .filter(|j| j.scheduled())
                .map(|j| j.turnaround()),
        )
    }

    /// Average turnaround over jobs larger than `threshold` nodes (Fig. 7
    /// uses 100).
    pub fn avg_turnaround_large(&self, threshold: u32) -> f64 {
        mean(
            self.jobs
                .iter()
                .filter(|j| j.scheduled() && j.size > threshold)
                .map(|j| j.turnaround()),
        )
    }

    /// Median turnaround over all scheduled jobs.
    pub fn median_turnaround(&self) -> f64 {
        crate::metrics::quantile(
            self.jobs
                .iter()
                .filter(|j| j.scheduled())
                .map(|j| j.turnaround()),
            0.5,
        )
    }

    /// The `q`-quantile of wait times over scheduled jobs.
    pub fn wait_quantile(&self, q: f64) -> f64 {
        crate::metrics::quantile(
            self.jobs.iter().filter(|j| j.scheduled()).map(|j| j.wait()),
            q,
        )
    }

    /// Share of system capacity lost to internal fragmentation (granted
    /// but unused nodes) over backlogged time: `utilization_granted -
    /// utilization`. Nonzero only for LaaS.
    pub fn internal_fragmentation(&self) -> f64 {
        (self.utilization_granted - self.utilization).max(0.0)
    }

    /// Average wall-clock scheduling time per trace job (Table 3).
    pub fn avg_sched_time_per_job(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.sched_wall_seconds / self.jobs.len() as f64
        }
    }
}

/// Simulator engine metrics, recorded when [`Simulation::with_registry`]
/// supplies a live registry:
///
/// * `jigsaw_sim_event_queue_depth` — pending discrete events, observed at
///   every event-loop tick;
/// * `jigsaw_sim_wait_queue_length` — jobs waiting after each scheduling
///   pass;
/// * `jigsaw_sim_backfill_hits_total` / `jigsaw_sim_backfill_misses_total`
///   — backfill candidates started early vs. inspected-but-held;
/// * `jigsaw_sim_reservation_replay_ns` — cost of computing the EASY
///   shadow reservation by replaying completions on scratch state.
#[derive(Debug, Clone)]
pub struct SimObs {
    registry: Registry,
    event_queue_depth: Histogram,
    wait_queue_len: Histogram,
    backfill_hits: Counter,
    backfill_misses: Counter,
    reservation_replay_ns: Histogram,
}

impl SimObs {
    /// Register the simulator metric family in `registry`.
    pub fn new(registry: &Registry) -> SimObs {
        SimObs {
            registry: registry.clone(),
            event_queue_depth: registry.histogram(
                "jigsaw_sim_event_queue_depth",
                "Pending discrete events per event-loop tick.",
            ),
            wait_queue_len: registry.histogram(
                "jigsaw_sim_wait_queue_length",
                "Jobs waiting in the queue after each scheduling pass.",
            ),
            backfill_hits: registry.counter(
                "jigsaw_sim_backfill_hits_total",
                "Backfill candidates that started ahead of the queue head.",
            ),
            backfill_misses: registry.counter(
                "jigsaw_sim_backfill_misses_total",
                "Backfill candidates inspected but held back.",
            ),
            reservation_replay_ns: registry.histogram(
                "jigsaw_sim_reservation_replay_ns",
                "Latency of computing the EASY shadow reservation (ns).",
            ),
        }
    }
}

/// A running job's allocation and completion time (shared with the
/// conservative-backfilling planner).
pub(crate) struct Running {
    pub(crate) alloc: Allocation,
    pub(crate) end: f64,
    /// What the scheduler *believes* the end time is (start + estimate).
    pub(crate) estimated_end: f64,
}

/// An advance reservation the engine has planned but not yet started:
/// concrete nodes set aside for the job over `[start, est_end)`.
struct PendingReservation {
    start: f64,
    est_end: f64,
    alloc: Allocation,
}

/// Builder for one simulation run — the only way to run the engine.
///
/// Defaults: the Jigsaw allocation scheme, [`SimConfig::default`], and a
/// disabled metrics registry (observation off, zero overhead).
///
/// ```
/// use jigsaw_sim::{BackfillPolicy, SimConfig, Simulation};
/// # let tree = jigsaw_topology::FatTree::maximal(4).unwrap();
/// # let trace = jigsaw_traces::synth::synth(4, 20, 7);
/// let result = Simulation::new(&tree, &trace)
///     .scheme(jigsaw_core::Scheme::Baseline)
///     .config(SimConfig {
///         policy: BackfillPolicy::Conservative,
///         ..SimConfig::default()
///     })
///     .run();
/// assert_eq!(result.jobs.len(), 20);
/// ```
pub struct Simulation<'a> {
    tree: &'a FatTree,
    trace: &'a jigsaw_traces::Trace,
    allocator: Option<Box<dyn Allocator>>,
    config: SimConfig,
    registry: Registry,
}

impl<'a> Simulation<'a> {
    /// Start describing a run of `trace` on `tree`.
    pub fn new(tree: &'a FatTree, trace: &'a jigsaw_traces::Trace) -> Simulation<'a> {
        Simulation {
            tree,
            trace,
            allocator: None,
            config: SimConfig::default(),
            registry: Registry::disabled(),
        }
    }

    /// Use `scheme`'s allocator (constructed for this tree).
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.allocator = Some(scheme.make(self.tree));
        self
    }

    /// Use a custom allocator (overrides [`Simulation::scheme`]).
    #[must_use]
    pub fn allocator(mut self, allocator: Box<dyn Allocator>) -> Self {
        self.allocator = Some(allocator);
        self
    }

    /// Set the simulation parameters.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Record engine metrics and job events into `registry` (see
    /// [`SimObs`] for the catalog). With a disabled registry — the default
    /// — every record degrades to a null check.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Run the simulation to completion.
    pub fn run(self) -> SimResult {
        let allocator = self
            .allocator
            .unwrap_or_else(|| Scheme::Jigsaw.make(self.tree));
        Sim::new(
            self.tree,
            self.trace,
            allocator,
            self.config,
            &self.registry,
        )
        .run()
    }
}

/// How an attempt to start the queue head ended.
enum HeadAttempt {
    /// The head started; pop it and keep going.
    Started,
    /// No allocation exists in the current state. `fits_empty` is the
    /// reject's own hint: would the job fit an empty machine at all?
    NoFit {
        /// `false` means no amount of waiting lets the job start.
        fits_empty: bool,
    },
    /// An allocation exists but would overlap a pending advance
    /// reservation — the head waits (and may not be dropped).
    Gated,
}

/// The engine proper: all mutable simulation state behind one struct so
/// handlers are methods instead of 20-argument free functions.
struct Sim<'a> {
    tree: &'a FatTree,
    trace: &'a jigsaw_traces::Trace,
    config: SimConfig,
    obs: SimObs,
    allocator: Box<dyn Allocator>,
    state: SystemState,
    events: EventQueue,
    queue: VecDeque<u32>,
    running: HashMap<u32, Running>,
    records: Vec<JobRecord>,
    /// Effective runtimes under the scenario, fixed up front.
    runtimes: Vec<f64>,
    /// Estimates per the configured model (backfilling decisions only).
    estimates: Vec<f64>,
    /// Run epochs invalidate completions of killed-and-restarted jobs.
    epochs: Vec<u32>,
    /// Outstanding parent completions per job (workload v2 DAG edges).
    deps_left: Vec<u32>,
    /// Forward edges: children waiting on each job's completion.
    children: Vec<Vec<u32>>,
    arrived: Vec<bool>,
    /// Dropped as unschedulable (directly or via a dropped ancestor).
    dropped: Vec<bool>,
    /// Pending advance reservations by trace index (BTreeMap for
    /// deterministic iteration order).
    reservations: BTreeMap<u32, PendingReservation>,
    /// Reservations whose start time fell due in the current event batch;
    /// claimed at the top of the scheduling pass, after all completions at
    /// the same instant have released their nodes.
    due_reservations: Vec<u32>,
    remaining_jobs: u64,
    failure_rng: StdRng,
    failures_injected: u32,
    killed_jobs: u32,
    reservations_missed: u32,
    // Busy-node bookkeeping. Utilization counts requested nodes — LaaS's
    // rounding waste is allocated but not useful (§6.1) — while the
    // granted-node curve measures that internal fragmentation.
    busy_req: u64,
    busy_granted: u64,
    busy_log: Vec<(f64, u64)>,
    granted_log: Vec<(f64, u64)>,
    util_samples: Vec<(f64, f64)>,
    first_start: Option<f64>,
    last_start: f64,
    last_end: f64,
    last_completion: f64,
    // Backlog intervals: time where at least one job waits in the queue.
    backlog_since: Option<f64>,
    backlog_intervals: Vec<(f64, f64)>,
    sched_wall: f64,
    sched_calls: u64,
    search_steps: u64,
    unschedulable: u32,
    migrations: u64,
    migration_cost: f64,
}

impl<'a> Sim<'a> {
    fn new(
        tree: &'a FatTree,
        trace: &'a jigsaw_traces::Trace,
        allocator: Box<dyn Allocator>,
        config: SimConfig,
        registry: &Registry,
    ) -> Sim<'a> {
        let records: Vec<JobRecord> = trace
            .jobs
            .iter()
            .map(|j| JobRecord {
                id: j.id,
                size: j.size,
                granted: 0,
                arrival: j.arrival,
                start: f64::NAN,
                end: f64::NAN,
            })
            .collect();
        let runtimes: Vec<f64> = trace
            .jobs
            .iter()
            .map(|j| {
                config
                    .scenario
                    .runtime(j, config.scenario_seed, config.scheme_benefits)
            })
            .collect();
        let estimates: Vec<f64> = trace
            .jobs
            .iter()
            .zip(&runtimes)
            .map(|(j, &rt)| match config.estimates {
                EstimateModel::Exact => rt,
                EstimateModel::Over { max_factor } => {
                    debug_assert!(max_factor >= 1.0);
                    let h = crate::scenario::mix64(config.scenario_seed ^ 0xE57 ^ j.id as u64);
                    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                    rt * (1.0 + u * (max_factor - 1.0))
                }
            })
            .collect();
        // DAG bookkeeping: dependency counts and forward edges.
        // `Trace::new` guarantees parents reference earlier trace indices,
        // so the dependency graph is acyclic by construction.
        let mut deps_left = vec![0u32; trace.jobs.len()];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); trace.jobs.len()];
        for (i, j) in trace.jobs.iter().enumerate() {
            let parents = j.parents();
            deps_left[i] = count_u32(parents.len());
            for &p in parents {
                children[p as usize].push(count_u32(i));
            }
        }
        let mut events = EventQueue::new();
        for (i, j) in trace.jobs.iter().enumerate() {
            events.push(j.arrival, EventKind::Arrival { job: count_u32(i) });
        }
        let mut failure_rng = StdRng::seed_from_u64(config.scenario_seed ^ 0xFA11);
        if let FailureModel::Random {
            mtbf_node_seconds, ..
        } = config.failures
        {
            let mean = mtbf_node_seconds / tree.num_nodes() as f64;
            events.push(
                first_failure_gap(&mut failure_rng, mean),
                EventKind::Failure,
            );
        }
        Sim {
            tree,
            trace,
            obs: SimObs::new(registry),
            allocator,
            state: SystemState::new(*tree),
            events,
            queue: VecDeque::new(),
            running: HashMap::new(),
            records,
            runtimes,
            estimates,
            epochs: vec![0; trace.jobs.len()],
            deps_left,
            children,
            arrived: vec![false; trace.jobs.len()],
            dropped: vec![false; trace.jobs.len()],
            reservations: BTreeMap::new(),
            due_reservations: Vec::new(),
            remaining_jobs: trace.jobs.len() as u64,
            failure_rng,
            failures_injected: 0,
            killed_jobs: 0,
            reservations_missed: 0,
            busy_req: 0,
            busy_granted: 0,
            busy_log: vec![(0.0, 0)],
            granted_log: vec![(0.0, 0)],
            util_samples: Vec::new(),
            first_start: None,
            last_start: 0.0,
            last_end: 0.0,
            last_completion: 0.0,
            backlog_since: None,
            backlog_intervals: Vec::new(),
            sched_wall: 0.0,
            sched_calls: 0,
            search_steps: 0,
            unschedulable: 0,
            migrations: 0,
            migration_cost: 0.0,
            config,
        }
    }

    fn run(mut self) -> SimResult {
        while let Some(t) = self.events.peek_time() {
            self.obs.event_queue_depth.observe(self.events.len() as u64);
            // Drain the whole batch at time t.
            while self.events.peek_time() == Some(t) {
                let Some((_, kind)) = self.events.pop() else {
                    break;
                };
                match kind {
                    EventKind::Arrival { job } => self.handle_arrival(job, t),
                    EventKind::Completion { job, epoch } => self.handle_completion(job, epoch, t),
                    EventKind::Eligible { job } => {
                        if !self.dropped[job as usize] {
                            self.queue.push_back(job);
                        }
                    }
                    EventKind::ReservationStart { job } => {
                        // Claimed at the top of the scheduling pass so
                        // completions at the same instant (which may have a
                        // later event sequence) release their nodes first.
                        self.due_reservations.push(job);
                    }
                    EventKind::Failure => self.handle_failure(t),
                    EventKind::Repair { node } => {
                        self.state.set_node_online(NodeId(node));
                    }
                }
            }

            self.schedule_pass(t);

            self.obs.wait_queue_len.observe(self.queue.len() as u64);
            if self.config.collect_inst_util {
                self.util_samples
                    .push((t, self.busy_req as f64 / self.tree.num_nodes() as f64));
            }
            // Track backlog transitions (evaluated after the scheduling
            // pass: jobs that start immediately never create backlog).
            match (self.backlog_since, self.queue.is_empty()) {
                (None, false) => self.backlog_since = Some(t),
                (Some(since), true) => {
                    self.backlog_intervals.push((since, t));
                    self.backlog_since = None;
                }
                _ => {}
            }
            self.last_end = t.max(self.last_end);
        }
        self.finish()
    }

    fn handle_arrival(&mut self, idx: u32, t: f64) {
        let i = idx as usize;
        self.arrived[i] = true;
        let (id, size) = (self.trace.jobs[i].id, self.trace.jobs[i].size);
        self.obs
            .registry
            .event(ObsEventKind::JobArrival, Some(id), || {
                format!("size={size}")
            });
        if self.dropped[i] {
            return; // an ancestor was dropped before this job arrived
        }
        if let Some(start) = self.trace.jobs[i].reserved_start() {
            self.register_reservation(idx, start.max(t));
        } else if self.deps_left[i] == 0 {
            self.queue.push_back(idx);
        }
        // Otherwise the job waits for its Eligible event.
    }

    fn handle_completion(&mut self, idx: u32, epoch: u32, t: f64) {
        let i = idx as usize;
        if self.epochs[i] != epoch {
            return; // stale completion of a killed run
        }
        let run = self
            .running
            .remove(&idx)
            // jigsaw-lint: allow(R1) -- a completion event for a non-running job means the event queue itself is corrupt; continuing would double-release
            .expect("completion of a running job");
        debug_assert!((run.end - t).abs() < EPS, "completion at the recorded end");
        self.busy_granted -= run.alloc.nodes.len() as u64;
        self.granted_log.push((t, self.busy_granted));
        self.allocator.release(&mut self.state, &run.alloc);
        self.busy_req -= self.trace.jobs[i].size as u64;
        self.busy_log.push((t, self.busy_req));
        self.last_completion = t.max(self.last_completion);
        self.remaining_jobs -= 1;
        // Wake DAG children whose last parent this was. A job completes
        // for real exactly once (kills only strike *running* jobs and bump
        // the epoch), so taking the edge list is safe.
        let kids = std::mem::take(&mut self.children[i]);
        for kid in kids {
            let k = kid as usize;
            if self.deps_left[k] > 0 {
                self.deps_left[k] -= 1;
                if self.deps_left[k] == 0 && self.arrived[k] && !self.dropped[k] {
                    // Same-instant event with a later sequence number: the
                    // child enters the queue within this event batch.
                    self.events.push(t, EventKind::Eligible { job: kid });
                }
            }
        }
    }

    fn handle_failure(&mut self, t: f64) {
        let FailureModel::Random {
            mtbf_node_seconds,
            repair_seconds,
        } = self.config.failures
        else {
            return;
        };
        if self.remaining_jobs == 0 {
            return; // nothing left to disturb; let the simulation drain
        }
        // Strike a uniformly random node.
        let node = NodeId(self.failure_rng.random_range(0..self.tree.num_nodes()));
        self.failures_injected += 1;
        if let Some(owner) = self.state.node_owner(node) {
            // Kill the running job and requeue it at the head with its
            // full runtime. (A killed DAG parent restarts; its children
            // stay ineligible until the restarted run completes.)
            let idx = owner.0;
            if let Some(run) = self.running.remove(&idx) {
                let i = idx as usize;
                self.epochs[i] += 1;
                self.busy_granted -= run.alloc.nodes.len() as u64;
                self.granted_log.push((t, self.busy_granted));
                self.allocator.release(&mut self.state, &run.alloc);
                self.busy_req -= self.trace.jobs[i].size as u64;
                self.busy_log.push((t, self.busy_req));
                let rec = &mut self.records[i];
                rec.start = f64::NAN;
                rec.end = f64::NAN;
                rec.granted = 0;
                self.queue.push_front(idx);
                self.killed_jobs += 1;
            }
        }
        if self.state.set_node_offline(node) {
            self.events
                .push(t + repair_seconds, EventKind::Repair { node: node.0 });
        }
        let mean = mtbf_node_seconds / self.tree.num_nodes() as f64;
        let gap = first_failure_gap(&mut self.failure_rng, mean);
        self.events.push(t + gap, EventKind::Failure);
    }

    /// Plan an advance reservation for `idx` at its reserved `start` time:
    /// find concrete nodes free at `start` (after estimated completions)
    /// and set them aside. If no placement exists even then, the job falls
    /// back to the regular queue immediately.
    fn register_reservation(&mut self, idx: u32, start: f64) {
        let i = idx as usize;
        let (id, size, bw) = {
            let j = &self.trace.jobs[i];
            (j.id, j.size, j.bw_tenths)
        };
        let est = self.estimates[i];
        let req = JobRequest::with_bandwidth(JobId(id), size, bw);
        // Reconstruct the machine as the scheduler expects it at `start`.
        let mut scratch = self.state.clone();
        let mut salloc = self.allocator.clone_box();
        let mut completions: Vec<(f64, u32)> = self
            .running
            .iter()
            .map(|(&j, r)| (r.estimated_end, j))
            .collect();
        completions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (end, j) in completions {
            if end <= start + EPS {
                salloc.release(&mut scratch, &self.running[&j].alloc);
            }
        }
        // Earlier reservations overlapping [start, start + est) keep their
        // nodes. Adoption is guarded: if a node is still claimed on the
        // scratch (its releasing job outlives `start` per the estimates),
        // skip the adoption — a conservative approximation; the claim-time
        // re-check keeps the system safe either way.
        for r in self.reservations.values() {
            if r.start < start + est - EPS
                && start < r.est_end - EPS
                && scratch.all_nodes_free(&r.alloc.nodes)
            {
                salloc.adopt(&mut scratch, &r.alloc);
            }
        }
        let t0 = Instant::now();
        let result = salloc.try_admit(&mut scratch, &req);
        self.sched_wall += t0.elapsed().as_secs_f64();
        self.sched_calls += 1;
        self.search_steps += salloc.last_search_steps();
        match result {
            Ok(alloc) => {
                // If `start == now`, the event lands in the event batch
                // currently draining and the reservation is claimed within
                // this same scheduling pass.
                self.events
                    .push(start, EventKind::ReservationStart { job: idx });
                self.reservations.insert(
                    idx,
                    PendingReservation {
                        start,
                        est_end: start + est,
                        alloc,
                    },
                );
            }
            Err(_) => {
                self.reservations_missed += 1;
                self.queue.push_back(idx);
            }
        }
    }

    /// Start every reservation whose time has come. Runs before the head
    /// loop so reserved jobs take their nodes ahead of any queue traffic.
    fn claim_due_reservations(&mut self, t: f64) {
        let due = std::mem::take(&mut self.due_reservations);
        for idx in due {
            let i = idx as usize;
            if self.dropped[i] {
                self.reservations.remove(&idx);
                continue;
            }
            let Some(r) = self.reservations.remove(&idx) else {
                continue; // already claimed (same-instant registration)
            };
            if self.state.all_nodes_free(&r.alloc.nodes) {
                self.allocator.adopt(&mut self.state, &r.alloc);
                self.start_job(idx, r.alloc, t);
                continue;
            }
            // The planned nodes were stolen (estimate drift or a node
            // failure): replan right now.
            let (id, size, bw) = {
                let j = &self.trace.jobs[i];
                (j.id, j.size, j.bw_tenths)
            };
            let req = JobRequest::with_bandwidth(JobId(id), size, bw);
            match self.timed_allocate(&req) {
                Ok(alloc) => {
                    if self.delays_reservation(&alloc, t + self.estimates[i]) {
                        self.allocator.release(&mut self.state, &alloc);
                        self.miss_reservation(idx);
                    } else {
                        self.start_job(idx, alloc, t);
                    }
                }
                Err(_) => self.miss_reservation(idx),
            }
        }
    }

    /// A reservation could not be honored at its start: count the miss and
    /// push the job to the queue front (it has waited the longest by
    /// definition of having reserved first).
    fn miss_reservation(&mut self, idx: u32) {
        self.reservations_missed += 1;
        self.queue.push_front(idx);
    }

    /// Would starting a job on `alloc` (estimated to end at `est_end`)
    /// overlap a pending advance reservation's resources during its
    /// reserved window? Actual runtimes never exceed estimates, so gating
    /// on the estimate guarantees reserved starts are never delayed.
    fn delays_reservation(&self, alloc: &Allocation, est_end: f64) -> bool {
        self.reservations
            .values()
            .any(|r| est_end > r.start + EPS && !alloc.is_disjoint_from(&r.alloc))
    }

    fn schedule_pass(&mut self, t: f64) {
        self.claim_due_reservations(t);
        while let Some(&head) = self.queue.front() {
            match self.try_start_head(head, t) {
                HeadAttempt::Started => {
                    self.queue.pop_front();
                    continue;
                }
                HeadAttempt::NoFit { fits_empty } => {
                    // Jobs that cannot fit even an empty machine are
                    // dropped (a real scheduler would reject the
                    // submission) — along with every DAG descendant, which
                    // can never become eligible. The reject's hint answers
                    // for this job's own `(size, bw)`.
                    if !fits_empty {
                        self.drop_job(head);
                        self.queue.pop_front();
                        continue;
                    }
                }
                HeadAttempt::Gated => {
                    // The head fits but would delay a reservation; it
                    // waits (the reservation's start event unblocks it).
                }
            }
            // Backfilling behind the head, per the configured policy.
            if self.queue.len() > 1 && self.config.backfill_window > 0 {
                match self.config.policy {
                    BackfillPolicy::None => {}
                    BackfillPolicy::Easy => self.backfill_easy_pass(head, t),
                    BackfillPolicy::Conservative => self.conservative_pass(t),
                }
            }
            break;
        }
    }

    fn try_start_head(&mut self, idx: u32, t: f64) -> HeadAttempt {
        let i = idx as usize;
        let (id, size, bw) = {
            let j = &self.trace.jobs[i];
            (j.id, j.size, j.bw_tenths)
        };
        let req = JobRequest::with_bandwidth(JobId(id), size, bw);
        match self.timed_allocate(&req) {
            Ok(alloc) => {
                if self.delays_reservation(&alloc, t + self.estimates[i]) {
                    self.allocator.release(&mut self.state, &alloc);
                    HeadAttempt::Gated
                } else {
                    self.start_job(idx, alloc, t);
                    HeadAttempt::Started
                }
            }
            Err(reject) => {
                if let Some(cfg) = self.config.defrag {
                    if reject.is_fragmentation() {
                        return self.try_defrag_start(idx, &req, reject, t, cfg);
                    }
                }
                HeadAttempt::NoFit {
                    fits_empty: reject.would_fit_empty,
                }
            }
        }
    }

    /// The head is blocked by fragmentation: search for a bounded
    /// migration plan over the running jobs and, if one exists and
    /// disturbs no pending advance reservation, apply it and start the
    /// head on the recovered placement.
    fn try_defrag_start(
        &mut self,
        idx: u32,
        req: &JobRequest,
        blocking: Reject,
        t: f64,
        cfg: DefragConfig,
    ) -> HeadAttempt {
        let live: Vec<Allocation> = self.running.values().map(|r| r.alloc.clone()).collect();
        let t0 = Instant::now();
        let plan = plan_migrations(
            self.allocator.as_ref(),
            &self.state,
            &live,
            &[],
            req,
            blocking,
            &cfg,
        );
        self.sched_wall += t0.elapsed().as_secs_f64();
        self.sched_calls += 1;
        let Some(plan) = plan else {
            return HeadAttempt::NoFit {
                fits_empty: blocking.would_fit_empty,
            };
        };
        // Reservation gating, checked before the machine is disturbed: the
        // admitted placement must not delay a reserved start, and no move
        // may park a running job on nodes set aside for one.
        let cost = self.config.migration_cost_per_node;
        if self.delays_reservation(&plan.admits, t + self.estimates[idx as usize]) {
            return HeadAttempt::Gated;
        }
        for m in &plan.moves {
            let est_end = self
                .running
                .values()
                .find(|r| r.alloc.job == m.job)
                .map_or(t, |r| r.estimated_end)
                + cost * f64::from(m.nodes_moved());
            if self.delays_reservation(&m.to, est_end) {
                return HeadAttempt::Gated;
            }
        }
        let admits = self.apply_migration_plan(live, &plan, t);
        self.start_job(idx, admits, t);
        HeadAttempt::Started
    }

    /// Execute `plan` on the live machine through [`defrag::apply_plan`]
    /// (`claimed` is the running set it was planned over) and return the
    /// admitted placement, already claimed. Each migrated job's
    /// completion then slips by the configured per-node cost.
    fn apply_migration_plan(
        &mut self,
        mut claimed: Vec<Allocation>,
        plan: &MigrationPlan,
        t: f64,
    ) -> Allocation {
        let admits =
            defrag::apply_plan(self.allocator.as_mut(), &mut self.state, &mut claimed, plan)
                // jigsaw-lint: allow(R1) -- the plan was computed synchronously against this exact running set and audited on a scratch clone; a failure here is a planner bug
                .expect("a fresh migration plan applies to the state it was planned on");
        let by_id: HashMap<u32, u32> = self
            .running
            .iter()
            .map(|(&i, r)| (r.alloc.job.0, i))
            .collect();
        let cost = self.config.migration_cost_per_node;
        for m in &plan.moves {
            let idx = *by_id
                .get(&m.job.0)
                // jigsaw-lint: allow(R1) -- apply_plan just found this move's `from` among the running allocations
                .expect("migration plan moves a running job");
            let i = idx as usize;
            // The migration penalty: the job checkpoints, drains, and
            // restores, so its completion (real and estimated) slips.
            // Bumping the epoch invalidates the already-queued completion
            // event; a fresh one is scheduled at the slipped end.
            let penalty = cost * f64::from(m.nodes_moved());
            self.epochs[i] += 1;
            let run = self
                .running
                .get_mut(&idx)
                // jigsaw-lint: allow(R1) -- `by_id` was built from `running` just above
                .expect("running entry for a planned move");
            run.alloc = m.to.clone();
            run.end = (run.end + penalty).max(t);
            run.estimated_end += penalty;
            let end = run.end;
            self.records[i].end = end;
            self.events.push(
                end,
                EventKind::Completion {
                    job: idx,
                    epoch: self.epochs[i],
                },
            );
            self.migrations += 1;
            self.migration_cost += penalty;
        }
        admits
    }

    /// Drop `root` as unschedulable, cascading to every DAG descendant:
    /// their parent can never complete, so they could otherwise wait
    /// forever (and keep the failure-injection loop alive).
    fn drop_job(&mut self, root: u32) {
        let mut work = vec![root];
        while let Some(j) = work.pop() {
            let ji = j as usize;
            if self.dropped[ji] {
                continue;
            }
            self.dropped[ji] = true;
            self.unschedulable += 1;
            self.remaining_jobs -= 1;
            self.reservations.remove(&j);
            work.extend(std::mem::take(&mut self.children[ji]));
        }
    }

    fn backfill_easy_pass(&mut self, head: u32, t: f64) {
        let j = &self.trace.jobs[head as usize];
        let req = JobRequest::with_bandwidth(JobId(j.id), j.size, j.bw_tenths);
        let t0 = self.obs.reservation_replay_ns.start();
        let reservation = self.compute_reservation(&req);
        self.obs.reservation_replay_ns.observe_since(t0);
        if let Some((shadow_time, shadow_alloc)) = reservation {
            self.backfill(t, shadow_time, &shadow_alloc);
        }
    }

    /// Replay future completions on scratch copies to find the earliest
    /// time the head job fits, and the allocation it would get (the
    /// shadow). Pending advance reservations hold their nodes on the
    /// scratch until their estimated ends, so the head is never promised
    /// resources already set aside.
    fn compute_reservation(&self, req: &JobRequest) -> Option<(f64, Allocation)> {
        let mut scratch_state = self.state.clone();
        let mut scratch_alloc = self.allocator.clone_box();
        let mut timeline: Vec<(f64, u32, &Allocation)> = self
            .running
            .iter()
            .map(|(&i, r)| (r.estimated_end, i, &r.alloc))
            .collect();
        for (&i, r) in &self.reservations {
            // Guarded adoption (see `register_reservation`).
            if scratch_state.all_nodes_free(&r.alloc.nodes) {
                scratch_alloc.adopt(&mut scratch_state, &r.alloc);
                timeline.push((r.est_end, i, &r.alloc));
            }
        }
        // The scheduler only knows *estimated* ends; replay in that order.
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (end, _, alloc) in timeline {
            scratch_alloc.release(&mut scratch_state, alloc);
            if scratch_state.free_node_count() < req.size {
                continue;
            }
            if let Ok(alloc) = scratch_alloc.try_admit(&mut scratch_state, req) {
                return Some((end, alloc));
            }
        }
        None
    }

    fn backfill(&mut self, t: f64, shadow_time: f64, shadow_alloc: &Allocation) {
        let window = self.config.backfill_window;
        let mut i = 1usize;
        let mut inspected = 0usize;
        while i < self.queue.len() && inspected < window {
            inspected += 1;
            let idx = self.queue[i];
            let (id, size, bw) = {
                let j = &self.trace.jobs[idx as usize];
                (j.id, j.size, j.bw_tenths)
            };
            if size as u64 > self.state.free_node_count() as u64 {
                self.obs.backfill_misses.inc();
                i += 1;
                continue;
            }
            let req = JobRequest::with_bandwidth(JobId(id), size, bw);
            match self.timed_allocate(&req) {
                Ok(alloc) => {
                    let est_end = t + self.estimates[idx as usize];
                    let finishes_in_time = est_end <= shadow_time + EPS;
                    if (finishes_in_time || alloc.is_disjoint_from(shadow_alloc))
                        && !self.delays_reservation(&alloc, est_end)
                    {
                        self.start_job(idx, alloc, t);
                        self.obs.backfill_hits.inc();
                        self.obs
                            .registry
                            .event(ObsEventKind::Backfill, Some(id), || {
                                format!("size={size} ahead_of_head")
                            });
                        self.queue.remove(i);
                        // Do not advance i: the next candidate shifted in.
                    } else {
                        self.allocator.release(&mut self.state, &alloc);
                        self.obs.backfill_misses.inc();
                        i += 1;
                    }
                }
                Err(_) => {
                    self.obs.backfill_misses.inc();
                    i += 1;
                }
            }
        }
    }

    fn conservative_pass(&mut self, t: f64) {
        let waiting: Vec<(u32, u32, u16, f64)> = self
            .queue
            .iter()
            .map(|&qi| {
                let j = &self.trace.jobs[qi as usize];
                (qi, j.size, j.bw_tenths, self.estimates[qi as usize])
            })
            .collect();
        // Advance reservations enter the plan as immovable fixed slots.
        let fixed: Vec<crate::conservative::FixedReservation> = self
            .reservations
            .values()
            .map(|r| crate::conservative::FixedReservation {
                start: r.start,
                end: r.est_end,
                alloc: r.alloc.clone(),
            })
            .collect();
        let t0 = Instant::now();
        let plan = crate::conservative::plan(
            &self.state,
            self.allocator.as_ref(),
            &self.running,
            &fixed,
            &waiting,
            t,
            self.config.backfill_window,
        );
        self.sched_wall += t0.elapsed().as_secs_f64();
        self.sched_calls += 1;
        // Start the planned jobs in FIFO order (the plan allocated them in
        // this order on an identical scratch state, so each real
        // allocation succeeds).
        let start_idxs: Vec<u32> = plan.start_now.iter().map(|&qi| waiting[qi].0).collect();
        for idx in start_idxs {
            let i = idx as usize;
            let (id, size, bw) = {
                let j = &self.trace.jobs[i];
                (j.id, j.size, j.bw_tenths)
            };
            let req = JobRequest::with_bandwidth(JobId(id), size, bw);
            let alloc = self
                .timed_allocate(&req)
                // jigsaw-lint: allow(R1) -- the conservative planner verified this allocation on a scratch clone of the identical state; failing here means the planner and state diverged
                .expect("conservative plan verified this fits");
            // Belt and braces: the planner already treats reservations as
            // fixed obstacles, but never let a divergence start a job over
            // reserved resources.
            if self.delays_reservation(&alloc, t + self.estimates[i]) {
                self.allocator.release(&mut self.state, &alloc);
                continue;
            }
            self.start_job(idx, alloc, t);
            self.queue.retain(|&q| q != idx);
        }
    }

    fn start_job(&mut self, idx: u32, alloc: Allocation, t: f64) {
        let i = idx as usize;
        let end = t + self.runtimes[i];
        let rec = &mut self.records[i];
        rec.start = t;
        rec.end = end;
        rec.granted = count_u32(alloc.nodes.len());
        self.busy_req += self.trace.jobs[i].size as u64;
        self.busy_log.push((t, self.busy_req));
        self.busy_granted += alloc.nodes.len() as u64;
        self.granted_log.push((t, self.busy_granted));
        self.events.push(
            end,
            EventKind::Completion {
                job: idx,
                epoch: self.epochs[i],
            },
        );
        self.running.insert(
            idx,
            Running {
                alloc,
                end,
                estimated_end: t + self.estimates[i],
            },
        );
        self.first_start.get_or_insert(t);
        self.last_start = t;
    }

    fn timed_allocate(&mut self, req: &JobRequest) -> Result<Allocation, Reject> {
        let t0 = Instant::now();
        let result = self.allocator.try_admit(&mut self.state, req);
        self.sched_wall += t0.elapsed().as_secs_f64();
        self.sched_calls += 1;
        self.search_steps += self.allocator.last_search_steps();
        result
    }

    fn finish(mut self) -> SimResult {
        let total_nodes = self.tree.num_nodes() as f64;
        if let Some(since) = self.backlog_since {
            self.backlog_intervals.push((since, self.last_end));
        }
        self.busy_log.push((self.last_end, self.busy_req));
        self.granted_log.push((self.last_end, self.busy_granted));

        // Steady-state utilization: integrate requested-node occupancy
        // between the first and the last job start.
        let t_b = self.last_start.max(self.first_start.unwrap_or(0.0));
        let first_arrival = self.trace.jobs.first().map_or(0.0, |j| j.arrival);
        let utilization_full_span =
            integrate(&self.busy_log, first_arrival, self.last_end) / total_nodes;
        // Steady-state utilization over backlogged time. If the machine
        // never accumulated a backlog (light load — every job started on
        // arrival), fall back to the full span.
        let mut busy_seconds = 0.0;
        let mut granted_seconds = 0.0;
        let mut backlog_seconds = 0.0;
        for &(a, b) in &self.backlog_intervals {
            if b > a {
                busy_seconds += integrate(&self.busy_log, a, b) * (b - a);
                granted_seconds += integrate(&self.granted_log, a, b) * (b - a);
                backlog_seconds += b - a;
            }
        }
        let (utilization, utilization_granted) = if backlog_seconds > EPS {
            (
                busy_seconds / backlog_seconds / total_nodes,
                granted_seconds / backlog_seconds / total_nodes,
            )
        } else {
            let granted_full =
                integrate(&self.granted_log, first_arrival, self.last_end) / total_nodes;
            (utilization_full_span, granted_full)
        };

        let mut inst_util = InstUtilHistogram::default();
        for &(t, u) in &self.util_samples {
            if t <= t_b {
                inst_util.record(u);
            }
        }

        SimResult {
            jobs: self.records,
            makespan: self.last_completion.max(first_arrival) - first_arrival,
            utilization,
            utilization_full_span,
            utilization_granted,
            inst_util,
            sched_wall_seconds: self.sched_wall,
            sched_calls: self.sched_calls,
            search_steps: self.search_steps,
            unschedulable: self.unschedulable,
            failures: self.failures_injected,
            killed_jobs: self.killed_jobs,
            reservations_missed: self.reservations_missed,
            migrations: self.migrations,
            migration_cost: self.migration_cost,
        }
    }
}

/// Exponential inter-arrival gap for failure injection.
fn first_failure_gap(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>();
    -mean * (1.0 - u).ln()
}

/// Integrate a right-continuous step function given as `(time, value)`
/// breakpoints over `[a, b]`.
fn integrate(log: &[(f64, u64)], a: f64, b: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    let mut total = 0.0;
    let mut prev_t = a;
    let mut prev_v = 0u64;
    for &(t, v) in log {
        if t <= a {
            prev_v = v;
            continue;
        }
        let t_clamped = t.min(b);
        if t_clamped > prev_t {
            total += (t_clamped - prev_t) * prev_v as f64;
            prev_t = t_clamped;
        }
        prev_v = v;
        if t >= b {
            break;
        }
    }
    if prev_t < b {
        total += (b - prev_t) * prev_v as f64;
    }
    total / (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::Scheme;
    use jigsaw_traces::{JobSpec, Trace};

    fn job(id: u32, arrival: f64, size: u32, runtime: f64) -> JobSpec {
        JobSpec::rigid(id, arrival, size, runtime, 10)
    }

    fn run(kind: Scheme, trace: &Trace, config: &SimConfig) -> SimResult {
        let tree = FatTree::maximal(4).unwrap();
        Simulation::new(&tree, trace)
            .scheme(kind)
            .config(config.clone())
            .run()
    }

    #[test]
    fn single_job_metrics() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 4, 100.0)]);
        let r = run(Scheme::Baseline, &trace, &SimConfig::default());
        assert_eq!(r.jobs[0].start, 0.0);
        assert_eq!(r.jobs[0].end, 100.0);
        assert_eq!(r.makespan, 100.0);
        assert_eq!(r.unschedulable, 0);
        assert_eq!(r.avg_turnaround(), 100.0);
    }

    #[test]
    fn fifo_order_without_backfill() {
        // Two 16-node jobs and one 1-node job: FIFO forces serialization.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 16, 10.0),
                job(1, 0.0, 16, 10.0),
                job(2, 0.0, 1, 1.0),
            ],
        );
        let config = SimConfig {
            backfill_window: 0,
            ..SimConfig::default()
        };
        let r = run(Scheme::Baseline, &trace, &config);
        assert_eq!(r.jobs[0].start, 0.0);
        assert_eq!(r.jobs[1].start, 10.0);
        assert_eq!(r.jobs[2].start, 20.0);
    }

    #[test]
    fn backfill_starts_small_jobs_early() {
        // Head (16 nodes) blocked behind a running 9-node job; a 1-node job
        // that finishes before the shadow time backfills immediately.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 9, 100.0),
                job(1, 1.0, 16, 10.0),
                job(2, 2.0, 1, 50.0), // fits, ends at 52 < 100
            ],
        );
        let r = run(Scheme::Baseline, &trace, &SimConfig::default());
        assert_eq!(r.jobs[2].start, 2.0, "small job must backfill");
        assert_eq!(r.jobs[1].start, 100.0, "head starts at the shadow time");
    }

    #[test]
    fn backfill_never_delays_head() {
        // A long 8-node backfill candidate would push the 16-node head
        // past the shadow time; EASY must hold it back.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 9, 100.0),
                job(1, 1.0, 16, 10.0),
                job(2, 2.0, 8, 500.0), // would overlap the shadow resources
            ],
        );
        let r = run(Scheme::Baseline, &trace, &SimConfig::default());
        assert_eq!(r.jobs[1].start, 100.0, "head keeps its reservation");
        assert!(r.jobs[2].start >= 100.0, "long job must not backfill");
    }

    #[test]
    fn utilization_excludes_drain() {
        // One job occupies the full machine, then a half machine job: the
        // steady window is [0, t_last_start]; the drain after the last
        // start is excluded.
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 16, 10.0), job(1, 0.0, 8, 10.0)]);
        let r = run(Scheme::Baseline, &trace, &SimConfig::default());
        // Full machine busy over [0, 10): utilization 1.0 in window [0,10].
        assert!((r.utilization - 1.0).abs() < 1e-9, "{}", r.utilization);
        assert!(r.utilization_full_span < 1.0);
    }

    #[test]
    fn oversized_job_marked_unschedulable() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 17, 10.0), job(1, 0.0, 2, 5.0)]);
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.unschedulable, 1);
        assert!(!r.jobs[0].scheduled());
        assert!(
            r.jobs[1].scheduled(),
            "queue keeps moving past rejected jobs"
        );
    }

    #[test]
    fn scenario_shortens_isolating_runtimes_only() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 8, 110.0)]);
        let config = SimConfig {
            scenario: Scenario::Fixed(10),
            scheme_benefits: true,
            ..SimConfig::default()
        };
        let r_iso = run(Scheme::Jigsaw, &trace, &config);
        assert!((r_iso.jobs[0].end - 100.0).abs() < 1e-9);
        let config_base = SimConfig {
            scheme_benefits: false,
            ..config
        };
        let r_base = run(Scheme::Baseline, &trace, &config_base);
        assert!((r_base.jobs[0].end - 110.0).abs() < 1e-9);
    }

    #[test]
    fn all_schemes_complete_a_mixed_queue() {
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| job(i, 0.0, 1 + (i * 7) % 12, 10.0 + (i % 5) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        for kind in Scheme::ALL {
            let r = run(kind, &trace, &SimConfig::default());
            let done = r.jobs.iter().filter(|j| j.scheduled()).count();
            assert_eq!(
                done as u32 + r.unschedulable,
                40,
                "{kind}: all jobs accounted for"
            );
            assert!(r.makespan > 0.0);
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9, "{kind}");
        }
    }

    #[test]
    fn laas_grants_more_than_requested() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 3, 10.0)]);
        let r = run(Scheme::Laas, &trace, &SimConfig::default());
        assert_eq!(r.jobs[0].size, 3);
        assert_eq!(
            r.jobs[0].granted, 4,
            "rounded up to a whole 2-node leaf pair... "
        );
    }

    #[test]
    fn inst_util_histogram_collected() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 16, 10.0), job(1, 0.0, 16, 10.0)]);
        let config = SimConfig {
            collect_inst_util: true,
            ..SimConfig::default()
        };
        let r = run(Scheme::Baseline, &trace, &config);
        assert!(r.inst_util.total() > 0);
        assert!(
            r.inst_util.buckets[0] > 0,
            "full-machine samples land in >=98"
        );
    }

    #[test]
    fn integrate_step_function() {
        let log = vec![(0.0, 0u64), (1.0, 10), (3.0, 5), (5.0, 0)];
        // Over [0,5]: 0*1 + 10*2 + 5*2 = 30 → mean 6.
        assert!((integrate(&log, 0.0, 5.0) - 6.0).abs() < 1e-12);
        // Over [1,3]: 10 → mean 10.
        assert!((integrate(&log, 1.0, 3.0) - 10.0).abs() < 1e-12);
        // Over [2,4]: 10*1 + 5*1 → 7.5.
        assert!((integrate(&log, 2.0, 4.0) - 7.5).abs() < 1e-12);
        assert_eq!(integrate(&log, 3.0, 3.0), 0.0);
    }

    #[test]
    fn conservative_policy_backfills_safely() {
        // Same scenario as `backfill_starts_small_jobs_early`, under the
        // conservative policy: the short filler still backfills, the head
        // still starts exactly at the shadow time.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 9, 100.0),
                job(1, 1.0, 16, 10.0),
                job(2, 2.0, 1, 50.0),
            ],
        );
        let config = SimConfig {
            policy: BackfillPolicy::Conservative,
            ..SimConfig::default()
        };
        let r = run(Scheme::Baseline, &trace, &config);
        assert_eq!(
            r.jobs[2].start, 2.0,
            "short filler backfills conservatively too"
        );
        assert_eq!(r.jobs[1].start, 100.0, "head keeps its reservation");
    }

    #[test]
    fn conservative_never_starts_reservation_violators() {
        // The long filler that EASY's disjointness test would also catch:
        // under conservative it must wait as well.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 12, 100.0),
                job(1, 1.0, 16, 10.0),
                job(2, 2.0, 4, 500.0),
            ],
        );
        let config = SimConfig {
            policy: BackfillPolicy::Conservative,
            ..SimConfig::default()
        };
        let r = run(Scheme::Baseline, &trace, &config);
        assert_eq!(r.jobs[1].start, 100.0);
        assert!(
            r.jobs[2].start >= 100.0,
            "long filler would overlap the reservation"
        );
    }

    #[test]
    fn all_schemes_complete_under_conservative() {
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| job(i, 0.0, 1 + (i * 5) % 12, 10.0 + (i % 4) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        for kind in Scheme::ALL {
            let config = SimConfig {
                policy: BackfillPolicy::Conservative,
                ..SimConfig::default()
            };
            let r = run(kind, &trace, &config);
            let done = r.jobs.iter().filter(|j| j.scheduled()).count();
            assert_eq!(done as u32 + r.unschedulable, 30, "{kind}");
        }
    }

    #[test]
    fn failures_kill_and_requeue_jobs() {
        // Aggressive failures on a tiny machine: jobs die, requeue, and
        // still all finish; no state corruption; metrics stay sane.
        let jobs: Vec<JobSpec> = (0..25)
            .map(|i| job(i, 0.0, 1 + (i * 3) % 8, 50.0 + (i % 6) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        let config = SimConfig {
            failures: FailureModel::Random {
                mtbf_node_seconds: 1_000.0,
                repair_seconds: 30.0,
            },
            ..SimConfig::default()
        };
        for kind in [Scheme::Baseline, Scheme::Jigsaw, Scheme::Laas] {
            let r = run(kind, &trace, &config);
            assert!(r.failures > 0, "{kind}: the model must inject failures");
            let done = r.jobs.iter().filter(|j| j.scheduled()).count();
            assert_eq!(
                done as u32 + r.unschedulable,
                25,
                "{kind}: every job finishes"
            );
            assert!(r.utilization >= 0.0 && r.utilization <= 1.0 + 1e-9);
            // Killed jobs (if any) completed on their final run: each
            // scheduled record carries one coherent [start, end] window.
            for j in r.jobs.iter().filter(|j| j.scheduled()) {
                assert!(j.end > j.start - 1e-9);
            }
        }
    }

    #[test]
    fn failures_lengthen_makespan() {
        let jobs: Vec<JobSpec> = (0..30).map(|i| job(i, 0.0, 2 + (i % 6), 100.0)).collect();
        let trace = Trace::new("t", 16, jobs);
        let clean = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        let faulty_cfg = SimConfig {
            failures: FailureModel::Random {
                mtbf_node_seconds: 2_000.0,
                repair_seconds: 200.0,
            },
            ..SimConfig::default()
        };
        let faulty = run(Scheme::Jigsaw, &trace, &faulty_cfg);
        assert!(faulty.failures > 0);
        assert!(
            faulty.makespan >= clean.makespan - 1e-9,
            "failures cannot speed the machine up ({} vs {})",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn over_estimates_do_not_break_scheduling() {
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| job(i, 0.0, 1 + (i * 7) % 12, 10.0 + (i % 5) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        let exact = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        let sloppy = SimConfig {
            estimates: EstimateModel::Over { max_factor: 5.0 },
            ..SimConfig::default()
        };
        let r = run(Scheme::Jigsaw, &trace, &sloppy);
        // Completions are still driven by actual runtimes.
        let done = r.jobs.iter().filter(|j| j.scheduled()).count();
        assert_eq!(done, 40);
        for (a, b) in r.jobs.iter().zip(&exact.jobs) {
            assert!((a.end - a.start) - (b.end - b.start) < 1e-9 || !a.scheduled());
        }
        // Over-estimation can only make backfilling more conservative:
        // makespan does not improve.
        assert!(r.makespan + 1e-9 >= exact.makespan * 0.999);
    }

    #[test]
    fn obs_records_engine_metrics() {
        // The backfill scenario: one hit (the short filler) is guaranteed.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 9, 100.0),
                job(1, 1.0, 16, 10.0),
                job(2, 2.0, 1, 50.0),
            ],
        );
        let tree = FatTree::maximal(4).unwrap();
        let reg = Registry::new();
        let r = Simulation::new(&tree, &trace)
            .scheme(Scheme::Baseline)
            .with_registry(&reg)
            .run();
        assert_eq!(r.jobs[2].start, 2.0);
        let text = reg.render_prometheus();
        assert!(text.contains("jigsaw_sim_backfill_hits_total 1"), "{text}");
        assert!(text.contains("jigsaw_sim_event_queue_depth_count"));
        assert!(text.contains("jigsaw_sim_wait_queue_length_count"));
        assert!(text.contains("jigsaw_sim_reservation_replay_ns_count 1"));
        let kinds: Vec<_> = reg.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == ObsEventKind::JobArrival)
                .count(),
            3
        );
        assert!(kinds.contains(&ObsEventKind::Backfill));
        // The registry JSON view the CLI exposes is well-formed.
        let json = reg.render_json();
        assert!(json.contains("\"jigsaw_sim_backfill_hits_total\""));
    }

    #[test]
    fn disabled_registry_matches_live_registry() {
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| job(i, i as f64, 1 + (i % 9), 20.0 + (i % 7) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        let tree = FatTree::maximal(4).unwrap();
        let plain = Simulation::new(&tree, &trace).scheme(Scheme::Jigsaw).run();
        let observed = Simulation::new(&tree, &trace)
            .scheme(Scheme::Jigsaw)
            .with_registry(&Registry::new())
            .run();
        assert_eq!(plain.jobs, observed.jobs, "observation must not perturb");
    }

    #[test]
    fn deterministic_simulation() {
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| job(i, i as f64, 1 + (i % 9), 20.0 + (i % 7) as f64))
            .collect();
        let trace = Trace::new("t", 16, jobs);
        let a = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        let b = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.utilization, b.utilization);
    }

    #[test]
    fn builder_defaults_to_jigsaw_scheme() {
        let trace = Trace::new("t", 16, vec![job(0, 0.0, 4, 10.0)]);
        let tree = FatTree::maximal(4).unwrap();
        let by_default = Simulation::new(&tree, &trace).run();
        let explicit = Simulation::new(&tree, &trace).scheme(Scheme::Jigsaw).run();
        assert_eq!(by_default.jobs, explicit.jobs);
    }

    // ---- workload model v2: DAG jobs ----

    #[test]
    fn dag_child_waits_for_parent() {
        // Child arrives at t=0 alongside its parent, but only becomes
        // eligible at the parent's completion.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 4, 100.0),
                job(1, 0.0, 4, 10.0).with_parents(vec![0]),
            ],
        );
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.jobs[0].start, 0.0);
        assert_eq!(r.jobs[1].start, 100.0, "child starts at parent completion");
    }

    #[test]
    fn dag_chain_runs_in_order() {
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 8, 10.0),
                job(1, 0.0, 8, 10.0).with_parents(vec![0]),
                job(2, 0.0, 8, 10.0).with_parents(vec![1]),
                job(3, 0.0, 8, 10.0).with_parents(vec![2]),
            ],
        );
        for kind in [Scheme::Baseline, Scheme::Jigsaw] {
            let r = run(kind, &trace, &SimConfig::default());
            for i in 1..4 {
                assert!(
                    r.jobs[i].start >= r.jobs[i - 1].end - 1e-9,
                    "{kind}: stage {i} started before its parent completed"
                );
            }
            assert_eq!(r.jobs[3].end, 40.0);
        }
    }

    #[test]
    fn dag_join_waits_for_all_parents() {
        // Fork/join: the join needs BOTH parents; the slow one gates it.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 4, 10.0),
                job(1, 0.0, 4, 70.0),
                job(2, 0.0, 4, 5.0).with_parents(vec![0, 1]),
            ],
        );
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.jobs[2].start, 70.0, "join waits for the slowest parent");
    }

    #[test]
    fn dag_child_requeues_when_parent_killed() {
        // Failure injection can kill a running DAG parent; the child must
        // then wait for the *restarted* parent's completion. Sweep seeds
        // so at least one run actually kills a parent mid-flight.
        let mut saw_kill = false;
        for seed in 0..12u64 {
            let jobs: Vec<JobSpec> = (0..20)
                .map(|i| {
                    let base = job(i, 0.0, 2 + (i % 6), 60.0);
                    if i >= 10 {
                        base.with_parents(vec![i - 10])
                    } else {
                        base
                    }
                })
                .collect();
            let trace = Trace::new("t", 16, jobs);
            let config = SimConfig {
                failures: FailureModel::Random {
                    mtbf_node_seconds: 800.0,
                    repair_seconds: 20.0,
                },
                scenario_seed: seed,
                ..SimConfig::default()
            };
            let r = run(Scheme::Jigsaw, &trace, &config);
            saw_kill |= r.killed_jobs > 0;
            // Every scheduled child starts only after its parent's final
            // (post-restart) completion.
            for (ci, c) in trace.jobs.iter().enumerate() {
                for &p in c.parents() {
                    let (child, parent) = (&r.jobs[ci], &r.jobs[p as usize]);
                    if child.scheduled() {
                        assert!(
                            parent.scheduled(),
                            "seed {seed}: child {ci} ran without parent {p}"
                        );
                        assert!(
                            child.start >= parent.end - 1e-9,
                            "seed {seed}: child {ci} started at {} before parent {p} ended at {}",
                            child.start,
                            parent.end
                        );
                    }
                }
            }
            let done = r.jobs.iter().filter(|j| j.scheduled()).count();
            assert_eq!(done as u32 + r.unschedulable, 20, "seed {seed}");
        }
        assert!(saw_kill, "the sweep must exercise at least one kill");
    }

    #[test]
    fn unschedulable_parent_drops_descendants() {
        // Parent cannot fit even an empty 16-node machine; its chain of
        // descendants can never run and must be dropped too — otherwise
        // the simulation would wait forever.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 17, 10.0),
                job(1, 0.0, 2, 10.0).with_parents(vec![0]),
                job(2, 0.0, 2, 10.0).with_parents(vec![1]),
                job(3, 0.0, 2, 10.0),
            ],
        );
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.unschedulable, 3, "parent and both descendants dropped");
        assert!(r.jobs[3].scheduled(), "independent job unaffected");
    }

    // ---- workload model v2: advance reservations ----

    fn reserved_case() -> Trace {
        // A whole-machine job until t=50; a reserved 16-node job at t=100;
        // fillers that must not delay the reservation.
        Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 16, 50.0),
                job(1, 0.0, 16, 30.0).reserved_at(100.0),
                // Long filler: est end 1+500 > 100 and 16-node overlap —
                // must wait until the reserved job finishes at 130.
                job(2, 1.0, 8, 500.0),
                // Short filler: est end 50+30 = 80 <= 100 — may run in the
                // gap between the background job and the reservation.
                job(3, 2.0, 8, 30.0),
            ],
        )
    }

    #[test]
    fn reserved_job_starts_exactly_on_time_under_all_policies() {
        for policy in [
            BackfillPolicy::None,
            BackfillPolicy::Easy,
            BackfillPolicy::Conservative,
        ] {
            let trace = reserved_case();
            let config = SimConfig {
                policy,
                ..SimConfig::default()
            };
            let r = run(Scheme::Baseline, &trace, &config);
            assert_eq!(
                r.jobs[1].start, 100.0,
                "{policy:?}: reserved job must start exactly at its reservation"
            );
            assert_eq!(r.reservations_missed, 0, "{policy:?}");
            assert!(
                r.jobs[2].start >= 130.0 - 1e-9,
                "{policy:?}: long filler would have delayed the reservation (started {})",
                r.jobs[2].start
            );
            if policy == BackfillPolicy::None {
                // Strict FIFO: the short filler waits behind the gated
                // long filler; nothing jumps the queue.
                assert!(r.jobs[3].start >= 130.0 - 1e-9, "{policy:?}");
            } else {
                assert_eq!(
                    r.jobs[3].start, 50.0,
                    "{policy:?}: short filler fits in the gap before the reservation"
                );
            }
        }
    }

    #[test]
    fn reservation_in_the_past_starts_immediately() {
        // Reserved start before arrival: clamps to the arrival instant.
        let trace = Trace::new("t", 16, vec![job(0, 10.0, 4, 20.0).reserved_at(5.0)]);
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.jobs[0].start, 10.0);
        assert_eq!(r.reservations_missed, 0);
    }

    #[test]
    fn conflicting_reservations_fall_back_to_queue() {
        // Two whole-machine reservations for the same instant: only one
        // can hold nodes; the other counts as missed and still completes.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 16, 100.0).reserved_at(50.0),
                job(1, 0.0, 16, 100.0).reserved_at(50.0),
            ],
        );
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.reservations_missed, 1);
        let done = r.jobs.iter().filter(|j| j.scheduled()).count();
        assert_eq!(done, 2, "both jobs complete despite the conflict");
        // The first registration wins the slot; the loser queues and (too
        // long to fit before t=50) runs right after the winner.
        assert_eq!(r.jobs[0].start, 50.0);
        assert!((r.jobs[1].start - 150.0).abs() < 1e-9, "loser runs after");
    }

    #[test]
    fn conflict_loser_may_run_before_the_reserved_window() {
        // A queued reservation loser short enough to finish before the
        // winner's window is NOT gated: it runs immediately.
        let trace = Trace::new(
            "t",
            16,
            vec![
                job(0, 0.0, 16, 20.0).reserved_at(50.0),
                job(1, 0.0, 16, 20.0).reserved_at(50.0),
            ],
        );
        let r = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(r.reservations_missed, 1);
        assert_eq!(r.jobs[0].start, 50.0, "first registration wins the slot");
        assert_eq!(r.jobs[1].start, 0.0, "loser fits entirely before t=50");
    }

    #[test]
    fn reserved_never_late_with_over_estimates() {
        // Over-estimation makes backfilling more conservative, never less:
        // the reservation guarantee must survive sloppy estimates.
        let trace = reserved_case();
        let config = SimConfig {
            estimates: EstimateModel::Over { max_factor: 4.0 },
            ..SimConfig::default()
        };
        let r = run(Scheme::Baseline, &trace, &config);
        assert_eq!(r.jobs[1].start, 100.0);
        assert_eq!(r.reservations_missed, 0);
    }

    #[test]
    fn reserved_mix_completes_under_all_schemes() {
        let trace = jigsaw_traces::workload::reserved_mix(4, 40, 3);
        for kind in Scheme::ALL {
            let r = run(kind, &trace, &SimConfig::default());
            let done = r.jobs.iter().filter(|j| j.scheduled()).count();
            assert_eq!(done as u32 + r.unschedulable, 40, "{kind}");
        }
    }

    // ---- unschedulable detection: the head reject's own fit hint ----

    /// LC+S shares links fractionally up to a 4 GB/s cap (40 tenths), so
    /// whether a job can ever run depends on its bandwidth, not only its
    /// size. Two 8-node jobs straddle the cap behind a full-machine job:
    /// the 5 GB/s one can never run and must be dropped, the 2 GB/s one
    /// only waits for the machine to drain — in either arrival order.
    #[test]
    fn lcs_unschedulable_check_is_keyed_by_bandwidth() {
        for (first_bw, second_bw) in [(50u16, 20u16), (20, 50)] {
            let trace = Trace::new(
                "t",
                16,
                vec![
                    JobSpec::rigid(0, 0.0, 16, 100.0, 10),
                    JobSpec::rigid(1, 0.0, 8, 10.0, first_bw),
                    JobSpec::rigid(2, 0.0, 8, 10.0, second_bw),
                ],
            );
            let r = run(Scheme::LcS, &trace, &SimConfig::default());
            let (impossible, feasible) = if first_bw > 40 { (1, 2) } else { (2, 1) };
            assert_eq!(r.unschedulable, 1, "bw {first_bw} then {second_bw}");
            assert!(
                !r.jobs[impossible].scheduled(),
                "job {impossible} is dropped"
            );
            assert_eq!(
                r.jobs[feasible].start, 100.0,
                "job {feasible} waits for the machine, bw {first_bw} then {second_bw}"
            );
        }
    }

    /// The drop decision reads `Reject::would_fit_empty`; for every scheme
    /// that hint must equal a pristine probe on an empty machine, for
    /// every `(size, bw)` class, including ones past the machine size and
    /// past LC+S's link cap.
    #[test]
    fn reject_hint_equals_a_pristine_probe() {
        let tree = FatTree::maximal(4).unwrap();
        for kind in Scheme::ALL {
            let mut state = SystemState::new(tree);
            let mut alloc = kind.make(&tree);
            let _full = alloc.try_admit(&mut state, &JobRequest::new(JobId(0), 16));
            for size in 1..=17u32 {
                for bw in [5u16, 20, 40, 50] {
                    let req = JobRequest::with_bandwidth(JobId(size), size, bw);
                    let Err(reject) = alloc.try_admit(&mut state, &req) else {
                        panic!("{kind}: the machine is full, size {size} must reject");
                    };
                    let pristine = kind
                        .make(&tree)
                        .try_admit(&mut SystemState::new(tree), &req)
                        .is_ok();
                    assert_eq!(
                        reject.would_fit_empty, pristine,
                        "{kind}: size {size} bw {bw}"
                    );
                }
            }
        }
    }

    // ---- background defragmentation (Decision API, DESIGN §16) ----

    /// Fill all 16 nodes with 1-node jobs; the even half completes at
    /// t=10, leaving one long-running job per 2-node leaf: 8 free nodes
    /// but no free leaf. A 6-node job (pod + leaf on radix 4) then needs
    /// full leaves, so only fragmentation blocks it.
    fn fragmented_trace() -> Trace {
        let mut jobs: Vec<JobSpec> = (0..16)
            .map(|i| job(i, 0.0, 1, if i % 2 == 0 { 10.0 } else { 1000.0 }))
            .collect();
        jobs.push(job(16, 5.0, 6, 50.0));
        Trace::new("t", 16, jobs)
    }

    #[test]
    fn defrag_unblocks_a_fragmented_head() {
        let trace = fragmented_trace();
        let off = run(Scheme::Jigsaw, &trace, &SimConfig::default());
        assert_eq!(off.migrations, 0);
        assert!(
            off.jobs[16].start >= 1000.0 - 1e-9,
            "without defrag the 6-node job waits out the long jobs (started {})",
            off.jobs[16].start
        );
        let config = SimConfig {
            defrag: Some(DefragConfig::default()),
            ..SimConfig::default()
        };
        let on = run(Scheme::Jigsaw, &trace, &config);
        assert!(
            (on.jobs[16].start - 10.0).abs() < 1e-9,
            "defrag admits the blocked job the moment fragmentation appears (started {})",
            on.jobs[16].start
        );
        assert!(
            on.migrations >= 1,
            "the admission required at least one move"
        );
        assert_eq!(on.migration_cost, 0.0, "migration is free by default");
        let done = on.jobs.iter().filter(|j| j.scheduled()).count();
        assert_eq!(done, 17, "every job still completes");
        // Free migration leaves every job's runtime untouched.
        for j in &on.jobs[..16] {
            let rt = j.end - j.start;
            assert!(
                (rt - 10.0).abs() < 1e-9 || (rt - 1000.0).abs() < 1e-9,
                "job {} runtime drifted to {rt}",
                j.id
            );
        }
    }

    #[test]
    fn migration_cost_slips_migrated_completions() {
        let trace = fragmented_trace();
        let config = SimConfig {
            defrag: Some(DefragConfig::default()),
            migration_cost_per_node: 2.0,
            ..SimConfig::default()
        };
        let r = run(Scheme::Jigsaw, &trace, &config);
        assert!(r.migrations >= 1);
        assert!(
            (r.migration_cost - 2.0 * r.migrations as f64).abs() < 1e-9,
            "every move carries exactly one node ({})",
            r.migration_cost
        );
        // Each migrated (1000-second, 1-node) job slips by exactly the
        // per-node penalty; unmigrated jobs keep their runtimes.
        let slipped = r.jobs[..16]
            .iter()
            .filter(|j| (j.end - j.start - 1002.0).abs() < 1e-9)
            .count();
        assert_eq!(slipped as u64, r.migrations);
    }

    #[test]
    fn defrag_anneal_scheme_also_admits() {
        let trace = fragmented_trace();
        let config = SimConfig {
            defrag: Some(DefragConfig {
                scheme: jigsaw_core::defrag::PlanScheme::Anneal { iters: 64, seed: 7 },
                ..DefragConfig::default()
            }),
            ..SimConfig::default()
        };
        let r = run(Scheme::Jigsaw, &trace, &config);
        assert!(
            (r.jobs[16].start - 10.0).abs() < 1e-9,
            "annealed plans admit the blocked job too (started {})",
            r.jobs[16].start
        );
    }

    #[test]
    fn defrag_is_deterministic() {
        let trace = fragmented_trace();
        let config = SimConfig {
            defrag: Some(DefragConfig::default()),
            migration_cost_per_node: 1.5,
            ..SimConfig::default()
        };
        let a = run(Scheme::Jigsaw, &trace, &config);
        let b = run(Scheme::Jigsaw, &trace, &config);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.migration_cost, b.migration_cost);
    }
}
