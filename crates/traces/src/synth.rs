//! Synthetic traces, generated the way the LaaS paper's were (§5.1 of the
//! Jigsaw paper): "job sizes are drawn from an exponential distribution,
//! and the job run times are drawn from a uniform random distribution",
//! all jobs arriving at time zero. Modeled on a JUROPA trace.
//!
//! The paper's Table 1 parameters: 10,000 jobs each, runtimes 20–3000 s,
//! and maximum sizes 138/190/241 for means 16/22/28 (= mean × 8.625,
//! rounded — the natural exceedance cap of an exponential at 10⁴ draws).

use crate::cast::{count_u32, sat_round_u32};
use crate::distr::{exponential, uniform};
use crate::trace::{Trace, TraceJob};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Number of jobs in the paper's synthetic traces.
pub const PAPER_JOBS: usize = 10_000;

/// The LC+S bandwidth classes of §5.4.2, in tenths of GB/s.
pub const BW_CLASSES: [u16; 4] = [5, 10, 15, 20];

/// Pick one of the four bandwidth classes uniformly (§5.4.2: "we randomly
/// assign jobs in the traces to one of four classes").
pub fn random_bw_class<R: Rng>(rng: &mut R) -> u16 {
    BW_CLASSES[rng.random_range(0..BW_CLASSES.len())]
}

/// Generate the `Synth-<mean>` trace: `n_jobs` jobs with exponential sizes
/// of the given mean (clamped to `mean × 8.625`), uniform runtimes in
/// [20, 3000) s, all arriving at time zero.
pub fn synth(mean_size: u32, n_jobs: usize, seed: u64) -> Trace {
    let max_size = sat_round_u32(f64::from(mean_size) * 8.625);
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = (0..n_jobs)
        .map(|i| {
            let size =
                sat_round_u32(exponential(&mut rng, f64::from(mean_size))).clamp(1, max_size);
            TraceJob {
                id: count_u32(i),
                arrival: 0.0,
                size,
                runtime: uniform(&mut rng, 20.0, 3000.0),
                bw_tenths: random_bw_class(&mut rng),
            }
        })
        .collect();
    Trace::rigid(format!("Synth-{mean_size}"), 0, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table1_characteristics() {
        let t = synth(16, PAPER_JOBS, 42);
        assert_eq!(t.len(), 10_000);
        assert!(t.max_size() <= 138);
        let (lo, hi) = t.runtime_range();
        assert!(lo >= 20.0 && hi < 3000.0);
        assert!(
            !t.has_arrival_times(),
            "synthetic jobs all arrive at time zero"
        );
        // Mean size in the right ballpark (clamping pulls it slightly down).
        let mean: f64 = t.jobs.iter().map(|j| j.size as f64).sum::<f64>() / t.len() as f64;
        assert!((14.0..18.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(synth(22, 100, 7), synth(22, 100, 7));
        assert_ne!(synth(22, 100, 7), synth(22, 100, 8));
    }

    #[test]
    fn all_three_paper_traces() {
        let traces: Vec<Trace> = ["Synth-16", "Synth-22", "Synth-28"]
            .iter()
            .map(|name| crate::builtin::generate(name, 0.01, 1).unwrap().0)
            .collect();
        assert_eq!(traces[0].name, "Synth-16");
        assert_eq!(traces[2].name, "Synth-28");
        assert_eq!(traces[0].len(), 100);
        assert!(traces[1].max_size() <= 190);
        assert!(traces[2].max_size() <= 241);
    }

    #[test]
    fn bandwidth_classes_are_the_four_paper_classes() {
        let t = synth(16, 1000, 3);
        for j in &t.jobs {
            assert!(BW_CLASSES.contains(&j.bw_tenths));
        }
        // All four classes occur.
        for class in BW_CLASSES {
            assert!(t.jobs.iter().any(|j| j.bw_tenths == class));
        }
    }
}
