//! The nine traces of the evaluation and the clusters they run on
//! (§5.1 and §5.4.3 of the paper).

use jigsaw_topology::FatTree;
use jigsaw_traces::llnl::{atlas_model, cab_model, thunder_model, CabMonth};
use jigsaw_traces::synth::{synth, PAPER_JOBS};
use jigsaw_traces::workload::{dag_fanout, dag_pipeline, reserved_mix};
use jigsaw_traces::Trace;

/// One (trace, cluster) pairing of the evaluation.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Trace name as used in the paper.
    pub name: &'static str,
    /// Switch radix of the simulation cluster (§5.4.3: synthetic traces on
    /// matched clusters, LLNL traces on the 1458-node radix-18 cluster).
    pub radix: u32,
    /// Full (paper-scale) job count, for reference.
    pub full_jobs: usize,
}

/// All nine (trace, cluster) pairs, in Fig. 6's order.
pub const SPECS: [TraceSpec; 9] = [
    TraceSpec {
        name: "Synth-16",
        radix: 16,
        full_jobs: PAPER_JOBS,
    },
    TraceSpec {
        name: "Synth-22",
        radix: 22,
        full_jobs: PAPER_JOBS,
    },
    TraceSpec {
        name: "Synth-28",
        radix: 28,
        full_jobs: PAPER_JOBS,
    },
    TraceSpec {
        name: "Atlas",
        radix: 18,
        full_jobs: 29_700,
    },
    TraceSpec {
        name: "Thunder",
        radix: 18,
        full_jobs: 105_764,
    },
    TraceSpec {
        name: "Aug-Cab",
        radix: 18,
        full_jobs: 30_691,
    },
    TraceSpec {
        name: "Sep-Cab",
        radix: 18,
        full_jobs: 87_564,
    },
    TraceSpec {
        name: "Oct-Cab",
        radix: 18,
        full_jobs: 125_228,
    },
    TraceSpec {
        name: "Nov-Cab",
        radix: 18,
        full_jobs: 50_353,
    },
];

/// The workload-model-v2 scenarios (DESIGN §13): DAG-structured and
/// reservation-bearing traces on the Synth-16 cluster. These are *not*
/// part of [`SPECS`] — the paper never evaluated them — but
/// [`trace_by_name`] resolves them so every harness can run them.
pub const WORKLOAD_V2: [&str; 3] = ["dag_pipeline", "dag_fanout", "reserved_mix"];

/// Generate the named trace at `scale` and pair it with its cluster.
/// Resolves the nine paper traces of [`SPECS`] plus the [`WORKLOAD_V2`]
/// scenarios.
///
/// # Panics
/// On an unknown trace name.
pub fn trace_by_name(name: &str, scale: f64, seed: u64) -> (Trace, FatTree) {
    let n_synth = ((PAPER_JOBS as f64) * scale).round().max(1.0) as usize;
    if WORKLOAD_V2.contains(&name) {
        let tree = FatTree::maximal(16).expect("radix 16 is valid");
        let trace = match name {
            "dag_pipeline" => dag_pipeline(16, n_synth, seed + 9),
            "dag_fanout" => dag_fanout(16, n_synth, seed + 10),
            "reserved_mix" => reserved_mix(16, n_synth, seed + 11),
            _ => unreachable!(),
        };
        return (trace, tree);
    }
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown trace {name}"));
    let tree = FatTree::maximal(spec.radix).expect("registry radixes are valid");
    let trace = match name {
        "Synth-16" => synth(16, n_synth, seed),
        "Synth-22" => synth(22, n_synth, seed + 1),
        "Synth-28" => synth(28, n_synth, seed + 2),
        "Thunder" => thunder_model().generate(scale, seed + 3),
        "Atlas" => atlas_model().generate(scale, seed + 4),
        "Aug-Cab" => cab_model(CabMonth::Aug).generate(scale, seed + 5),
        "Sep-Cab" => cab_model(CabMonth::Sep).generate(scale, seed + 6),
        "Oct-Cab" => cab_model(CabMonth::Oct).generate(scale, seed + 7),
        "Nov-Cab" => cab_model(CabMonth::Nov).generate(scale, seed + 8),
        _ => unreachable!(),
    };
    (trace, tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_nine_traces() {
        for spec in &SPECS {
            let (trace, tree) = trace_by_name(spec.name, 0.002, 1);
            assert!(!trace.is_empty() && tree.num_nodes() > 0, "{}", spec.name);
        }
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert!(names.contains(&"Oct-Cab") && names.contains(&"Synth-28"));
    }

    #[test]
    fn clusters_match_section_543() {
        let (_, tree) = trace_by_name("Synth-28", 0.001, 1);
        assert_eq!(tree.num_nodes(), 5488);
        let (_, tree) = trace_by_name("Thunder", 0.001, 1);
        assert_eq!(tree.num_nodes(), 1458);
        let (t, tree) = trace_by_name("Atlas", 0.001, 1);
        assert_eq!(tree.num_nodes(), 1458);
        assert!(t.max_size() <= tree.num_nodes());
    }

    #[test]
    #[should_panic(expected = "unknown trace")]
    fn unknown_name_panics() {
        let _ = trace_by_name("NotATrace", 0.01, 1);
    }
}
