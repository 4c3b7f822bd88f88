//! The nine traces of the evaluation (§5.1 of the paper) and the
//! workload-model-v2 scenarios, by name. The traces and their clusters
//! come from [`jigsaw_traces::builtin`], the name table `jigsaw-sched`
//! resolves through too.

use jigsaw_topology::FatTree;
use jigsaw_traces::Trace;

/// The nine paper traces, in Fig. 6's order.
pub const PAPER_TRACES: [&str; 9] = [
    "Synth-16", "Synth-22", "Synth-28", "Atlas", "Thunder", "Aug-Cab", "Sep-Cab", "Oct-Cab",
    "Nov-Cab",
];

/// The workload-model-v2 scenarios (DESIGN §13): DAG-structured and
/// reservation-bearing traces on the Synth-16 cluster. These are *not*
/// part of [`PAPER_TRACES`] — the paper never evaluated them — but
/// [`trace_by_name`] resolves them so every harness can run them.
pub const WORKLOAD_V2: [&str; 3] = ["dag_pipeline", "dag_fanout", "reserved_mix"];

/// Generate the named trace at `scale` and pair it with its cluster.
///
/// # Panics
/// On a name that is not a built-in trace.
pub fn trace_by_name(name: &str, scale: f64, seed: u64) -> (Trace, FatTree) {
    let (trace, radix) = jigsaw_traces::builtin::generate(name, scale, seed)
        .unwrap_or_else(|| panic!("unknown trace {name}"));
    let tree = FatTree::maximal(radix).expect("built-in radixes are valid");
    (trace, tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_nine_traces() {
        for name in PAPER_TRACES.iter().chain(&WORKLOAD_V2) {
            let (trace, tree) = trace_by_name(name, 0.002, 1);
            assert!(!trace.is_empty() && tree.num_nodes() > 0, "{name}");
        }
        assert!(PAPER_TRACES.contains(&"Oct-Cab") && PAPER_TRACES.contains(&"Synth-28"));
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
