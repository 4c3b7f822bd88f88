//! # jigsaw-sim
//!
//! Discrete-event job-queue scheduling simulator for the Jigsaw evaluation
//! (Smith & Lowenthal, HPDC 2021, §5): the Rust rebuild of the simulator
//! the paper implemented inside the LaaS code base.
//!
//! * FIFO queue with **EASY backfilling** (§5.3): the head of the queue
//!   gets a reservation computed by replaying future completions on a
//!   scratch copy of the allocation state; up to `backfill_window` (50)
//!   later jobs may start now if they finish before the reservation or
//!   touch none of its resources.
//! * **Job-performance scenarios** (§5.4.1): None / 5% / 10% / 20% / V2 /
//!   Random speed-ups for jobs run in isolation.
//! * **Metrics** (§5, §6): steady-state average utilization (Fig. 6),
//!   instantaneous-utilization histograms (Table 2), per-job turnaround
//!   (Fig. 7), makespan (Fig. 8), and scheduling time (Table 3).
//! * **Extensions**: conservative backfilling, runtime-estimate error
//!   models, and node-failure injection with kill-and-requeue.
//! * **Workload model v2** (DESIGN §13): DAG jobs gated on parent
//!   completions and advance reservations no backfill policy may delay,
//!   expressed through [`jigsaw_traces::JobClass`].
//!
//! Runs are described with the [`Simulation`] builder:
//!
//! ```
//! use jigsaw_core::Scheme;
//! use jigsaw_sim::{Scenario, SimConfig, Simulation};
//! use jigsaw_topology::FatTree;
//! use jigsaw_traces::synth::synth;
//!
//! let tree = FatTree::maximal(16).unwrap();
//! let trace = synth(16, 200, 42); // 200 exponential-size jobs
//! let result = Simulation::new(&tree, &trace)
//!     .scheme(Scheme::Jigsaw)
//!     .config(SimConfig { scenario: Scenario::Fixed(10), ..SimConfig::default() })
//!     .run();
//! assert!(result.utilization > 0.90, "Jigsaw sustains high utilization");
//! assert_eq!(result.unschedulable, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conservative;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod scenario;

pub use engine::{
    BackfillPolicy, EstimateModel, FailureModel, SimConfig, SimObs, SimResult, Simulation,
};
pub use metrics::{InstUtilHistogram, JobRecord};
pub use scenario::{ParseScenarioError, Scenario};
