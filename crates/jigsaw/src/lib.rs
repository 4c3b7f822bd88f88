//! # jigsaw
//!
//! A from-scratch reproduction of **Jigsaw: A High-Utilization,
//! Interference-Free Job Scheduler for Fat-Tree Clusters** (Smith &
//! Lowenthal, HPDC 2021), as a reusable Rust library.
//!
//! Jigsaw is a job scheduler for three-level fat-trees that allocates every
//! job a *network-isolated* partition with *full interconnect bandwidth*
//! (the partition is rearrangeable non-blocking) while keeping system
//! utilization at 95–96% — removing the utilization barrier that kept
//! earlier job-isolating schedulers (LaaS, TA) out of production.
//!
//! This facade re-exports the whole toolkit:
//!
//! * [`topology`] — fat-tree model and link-level allocation state,
//! * [`core`] — the Jigsaw allocator plus Baseline/LaaS/TA/LC+S,
//! * [`routing`] — D-mod-k, wraparound partition routing, and the
//!   constructive rearrangeable-non-blocking router (the paper's theorem,
//!   executable),
//! * [`sim`] — discrete-event scheduling simulator with EASY backfilling,
//! * [`traces`] — workload models, SWF parsing, Table-1 statistics,
//! * [`persist`] — write-ahead journal, snapshots, and crash recovery for
//!   the scheduler's allocation state,
//! * [`net`] — the multi-client TCP scheduler daemon: line-protocol
//!   framing, a single-writer [`prelude::Engine`], group-commit
//!   durability over [`persist`], and the saturation load generator
//!   behind `jigsaw-loadgen`,
//! * [`obs`] — zero-dependency observability: counters, log2 histograms,
//!   gauges, and a bounded event ring behind a [`prelude::Registry`] that
//!   renders Prometheus text and JSON. Wrap any scheduler in
//!   [`prelude::ObservedAllocator`] to record per-scheme latency, search
//!   effort, and typed rejections ([`prelude::Reject`]).
//!
//! ## Quickstart
//!
//! ```
//! use jigsaw::prelude::*;
//!
//! // A 1024-node cluster (maximal radix-16 fat-tree).
//! let tree = FatTree::maximal(16).unwrap();
//! let mut state = SystemState::new(tree);
//! let mut scheduler = JigsawAllocator::new(&tree);
//!
//! // Ask for 100 nodes.
//! let alloc = scheduler
//!     .try_admit(&mut state, &JobRequest::new(JobId(1), 100))
//!     .expect("an empty machine fits 100 nodes");
//! assert_eq!(alloc.nodes.len(), 100); // exactly what was asked (N = N_r)
//!
//! // The partition satisfies the paper's formal conditions ...
//! jigsaw::core::conditions::check_shape(&tree, &alloc.shape).unwrap();
//!
//! // ... so any permutation of its nodes routes with ≤ 1 flow per link.
//! let perm = jigsaw::routing::permutation::reversal_permutation(&alloc.nodes);
//! let routing = jigsaw::routing::route_permutation(&tree, &alloc, &perm).unwrap();
//! assert!(routing.max_link_load(&tree) <= 1);
//! ```

#![forbid(unsafe_code)]

pub use jigsaw_core as core;
pub use jigsaw_net as net;
pub use jigsaw_obs as obs;
pub use jigsaw_persist as persist;
pub use jigsaw_routing as routing;
pub use jigsaw_sim as sim;
pub use jigsaw_topology as topology;
pub use jigsaw_traces as traces;

/// The most commonly used items in one import.
pub mod prelude {
    pub use jigsaw_core::defrag::{
        apply_plan, plan_migrations, DefragConfig, Migration, MigrationPlan, PlanApplyError,
        PlanScheme,
    };
    pub use jigsaw_core::{
        Allocation, Allocator, BaselineAllocator, Decision, JigsawAllocator, JobRequest,
        LaasAllocator, LcsAllocator, ObservedAllocator, Reject, Scheme, Shape, TaAllocator,
    };
    pub use jigsaw_net::{Engine, Server, ServerConfig};
    pub use jigsaw_obs::Registry;
    pub use jigsaw_persist::{PersistError, PersistentState, RecoveryReport};
    pub use jigsaw_routing::{CongestionMap, PartitionRouter, Route};
    pub use jigsaw_sim::{Scenario, SimConfig, SimResult, Simulation};
    pub use jigsaw_topology::ids::{JobId, LeafId, NodeId, PodId};
    pub use jigsaw_topology::{FatTree, FatTreeParams, SystemState};
    pub use jigsaw_traces::{JobClass, JobSpec, Trace, TraceJob};
}
