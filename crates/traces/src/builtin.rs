//! The built-in traces by name: the nine traces of the paper's evaluation
//! (§5.1) and the workload-model-v2 scenarios (DESIGN §13), each with the
//! radix of the maximal fat-tree it is simulated on (§5.4.3: synthetic
//! traces on matched clusters, the LLNL traces on the 1458-node radix-18
//! cluster, the v2 scenarios on the Synth-16 cluster).

use crate::cast::sat_round_usize;
use crate::llnl::{atlas_model, cab_model, thunder_model, CabMonth};
use crate::synth::{synth, PAPER_JOBS};
use crate::workload::{dag_fanout, dag_pipeline, reserved_mix};
use crate::Trace;

/// Builds a trace from the synthetic job count at the requested scale,
/// the scale itself (the LLNL models size themselves), and a seed.
type Generator = fn(usize, f64, u64) -> Trace;

/// `(name, radix, generator)` of every built-in trace. Row `i` draws from
/// `seed + i`, so the traces of one seed are independent of each other;
/// moving a row changes the traces it generates.
const TRACES: [(&str, u32, Generator); 12] = [
    ("Synth-16", 16, |n, _, seed| synth(16, n, seed)),
    ("Synth-22", 22, |n, _, seed| synth(22, n, seed)),
    ("Synth-28", 28, |n, _, seed| synth(28, n, seed)),
    ("Thunder", 18, |_, scale, seed| {
        thunder_model().generate(scale, seed)
    }),
    ("Atlas", 18, |_, scale, seed| {
        atlas_model().generate(scale, seed)
    }),
    ("Aug-Cab", 18, |_, scale, seed| {
        cab_model(CabMonth::Aug).generate(scale, seed)
    }),
    ("Sep-Cab", 18, |_, scale, seed| {
        cab_model(CabMonth::Sep).generate(scale, seed)
    }),
    ("Oct-Cab", 18, |_, scale, seed| {
        cab_model(CabMonth::Oct).generate(scale, seed)
    }),
    ("Nov-Cab", 18, |_, scale, seed| {
        cab_model(CabMonth::Nov).generate(scale, seed)
    }),
    ("dag_pipeline", 16, |n, _, seed| dag_pipeline(16, n, seed)),
    ("dag_fanout", 16, |n, _, seed| dag_fanout(16, n, seed)),
    ("reserved_mix", 16, |n, _, seed| reserved_mix(16, n, seed)),
];

/// Every built-in trace name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TRACES.iter().map(|&(name, _, _)| name)
}

/// Generate the named trace at `scale` (`1.0` is paper size: 10,000 jobs
/// for the synthetic and v2 traces) and return it with the radix of its
/// cluster. `None` for a name that is not a built-in trace.
pub fn generate(name: &str, scale: f64, seed: u64) -> Option<(Trace, u32)> {
    let (row, &(_, radix, generator)) = TRACES
        .iter()
        .enumerate()
        .find(|(_, (n, _, _))| *n == name)?;
    let n_synth = sat_round_usize(PAPER_JOBS as f64 * scale).max(1);
    Some((
        generator(n_synth, scale, seed.wrapping_add(row as u64)),
        radix,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_draw_from_consecutive_seeds() {
        let (t, radix) = generate("Synth-22", 0.01, 5).unwrap();
        assert_eq!((t, radix), (synth(22, 100, 6), 22));
        let (t, radix) = generate("Thunder", 0.001, 5).unwrap();
        assert_eq!((t, radix), (thunder_model().generate(0.001, 8), 18));
        let (t, radix) = generate("reserved_mix", 0.002, 5).unwrap();
        assert_eq!((t, radix), (reserved_mix(16, 20, 16), 16));
    }

    #[test]
    fn every_name_generates() {
        assert_eq!(names().count(), TRACES.len());
        for name in names() {
            assert!(generate(name, 0.001, 1).is_some(), "{name}");
        }
    }

    #[test]
    fn tiny_scales_still_generate_a_job_and_unknown_names_none() {
        assert_eq!(generate("Synth-16", 1e-9, 1).unwrap().0.len(), 1);
        assert!(generate("NotATrace", 0.01, 1).is_none());
    }
}
