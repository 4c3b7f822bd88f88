//! # jigsaw-traces
//!
//! Job-queue traces for the Jigsaw evaluation (Smith & Lowenthal,
//! HPDC 2021, §5.1):
//!
//! * [`synth`] — synthetic traces generated the way the LaaS paper did
//!   (exponential job sizes, uniform runtimes, all arriving at time zero):
//!   Synth-16 / Synth-22 / Synth-28.
//! * [`llnl`] — seeded generative stand-ins for the LLNL Thunder, Atlas and
//!   Cab traces. The real traces are not redistributable here; the models
//!   match the published characteristics (Table 1: job counts, maximum job
//!   sizes, runtime ranges, power-of-two-heavy size distributions, a few
//!   whole-machine requests on Atlas, real arrival streams on Cab).
//! * [`swf`] — a Standard Workload Format parser/writer so genuine traces
//!   drop in unchanged; [`swf::parse_swf_report`] reports skipped lines
//!   instead of dropping them silently.
//! * [`stats`] — per-trace summaries reproducing Table 1.
//! * [`workload`] — workload-model-v2 generators: DAG pipelines, fork/join
//!   fan-outs, and advance-reservation mixes (DESIGN §13).
//! * [`builtin`] — every built-in trace by name, with the radix of the
//!   cluster it runs on: the one name table `jigsaw-sched` and
//!   `jigsaw-bench` both resolve through.
//!
//! All generators are deterministic given a seed, and support scaling the
//! job count (`scale < 1.0`) so the full experiment suite runs in minutes;
//! relative results are insensitive to the scaling because the load stays
//! heavy (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builtin;
mod cast;
pub mod distr;
pub mod llnl;
pub mod stats;
pub mod swf;
pub mod synth;
pub mod trace;
pub mod workload;

pub use stats::{TraceAnalysis, TraceSummary};
pub use swf::{parse_swf, parse_swf_report, SwfSkipReason, SwfSkipped};
pub use trace::{JobClass, JobSpec, Trace, TraceJob};
