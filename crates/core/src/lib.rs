//! # jigsaw-core
//!
//! The Jigsaw job-isolating allocator for three-level fat-trees
//! (Smith & Lowenthal, HPDC 2021) and the comparison allocators of the
//! paper's evaluation:
//!
//! * [`JigsawAllocator`] — Algorithm 1 of the paper: two-level
//!   (single-subtree) search first, then a three-level search restricted to
//!   full leaves (except the single remainder leaf), satisfying the formal
//!   conditions of §3.2 and therefore producing partitions that are
//!   rearrangeable non-blocking (made executable by `jigsaw-routing`).
//! * [`LaasAllocator`] — Links-as-a-Service: whole-leaf allocations with job
//!   sizes rounded up to leaf multiples (internal node fragmentation).
//! * [`TaAllocator`] — topology-aware scheduling: node-placement rules
//!   (leaf-/pod-/machine-class jobs) without explicit link allocation.
//! * [`LcsAllocator`] — least-constrained scheduling with fractional link
//!   sharing, the paper's near-optimal bounding scheme.
//! * [`BaselineAllocator`] — a traditional, network-oblivious scheduler.
//!
//! All allocators implement the [`Allocator`] trait over a shared
//! [`SystemState`](jigsaw_topology::SystemState): [`Allocator::decide`]
//! returns a three-way [`Decision`] — `Admit` with a structured
//! [`Allocation`], `Reject` with a typed [`Reject`] reason (plus the
//! would-it-fit-empty fragmentation hint), or `Reconfigure` with a bounded
//! [`MigrationPlan`] computed by the [`defrag`] module. Placements can be
//! validated against the paper's formal conditions via
//! [`conditions::check_shape`]. Wrapping any scheme in
//! [`ObservedAllocator`] records per-scheme latency/effort/rejection
//! metrics into a [`Registry`](jigsaw_obs::Registry); [`plan_migrations`]
//! turns a fragmentation reject into a migration plan, and
//! [`defrag::apply_plan`] executes it.
//!
//! ```
//! use jigsaw_core::{Allocator, Decision, JigsawAllocator, JobRequest, RejectReason, Scheme};
//! use jigsaw_topology::{ids::JobId, FatTree, SystemState};
//!
//! let tree = FatTree::maximal(16).unwrap(); // 1024 nodes
//! let mut state = SystemState::new(tree);
//! let mut jigsaw = JigsawAllocator::new(&tree);
//!
//! // Jigsaw grants exactly the requested node count on an isolated,
//! // full-bandwidth partition.
//! let alloc = jigsaw
//!     .try_admit(&mut state, &JobRequest::new(JobId(1), 77))
//!     .expect("fits an empty machine");
//! assert_eq!(alloc.nodes.len(), 77);
//! jigsaw_core::conditions::check_shape(&tree, &alloc.shape).unwrap();
//!
//! // Every scheme of the paper's evaluation is one constructor away, and
//! // failures carry a typed reason.
//! let mut ta = Scheme::Ta.make(&tree);
//! assert!(ta.try_admit(&mut state, &JobRequest::new(JobId(2), 5)).is_ok());
//! match ta.decide(&mut state, &JobRequest::new(JobId(3), 0)) {
//!     Decision::Reject(r) => assert_eq!(r.reason, RejectReason::ZeroSize),
//!     other => panic!("expected a reject, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod allocator;
pub mod audit;
pub mod baseline;
pub mod conditions;
pub mod defrag;
pub mod instrument;
pub mod jigsaw;
pub mod job;
pub mod laas;
pub mod lcs;
pub mod reject;
pub mod scratch;
pub mod search;
pub mod ta;

pub use alloc::{Allocation, RemTree, Shape, TreeAlloc};
pub use allocator::{Allocator, Decision, ParseSchemeError, Scheme};
pub use audit::{audit_system, AuditError};
pub use baseline::BaselineAllocator;
pub use conditions::{check_shape, ConditionViolation};
pub use defrag::{
    plan_migrations, DefragConfig, Migration, MigrationPlan, PlanApplyError, PlanScheme,
};
pub use instrument::{AllocatorObs, ObservedAllocator};
pub use jigsaw::JigsawAllocator;
pub use job::JobRequest;
pub use laas::LaasAllocator;
pub use lcs::LcsAllocator;
pub use reject::{FitHintCache, Reject, RejectReason};
pub use scratch::SearchScratch;
pub use ta::TaAllocator;
