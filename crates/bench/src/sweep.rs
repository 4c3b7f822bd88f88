//! Multi-point sweeps: one full simulation per (point × scheme) cell.
//!
//! A *point* is whatever axis the caller sweeps — a trace seed, a scale
//! factor, a radix. Each cell generates its point's (trace, tree) pair and
//! simulates one scheme on it; generation is cheap next to the simulation,
//! so cells share nothing and go straight through [`fan_out`]. Results
//! come back point-major, the order a nested sequential loop produces,
//! whatever the worker count.

use crate::{fan_out, simulate, CellFailure};
use jigsaw_core::Scheme;
use jigsaw_sim::{SimConfig, SimResult};
use jigsaw_topology::FatTree;
use jigsaw_traces::Trace;

/// One completed cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRun<P> {
    /// The sweep point (seed, scale, …) this cell belongs to.
    pub point: P,
    /// The scheme simulated.
    pub scheme: Scheme,
    /// The full simulation result.
    pub result: SimResult,
}

/// Simulate every (point, scheme) cell on at most `jobs` threads, each on
/// the (trace, tree) pair `generate` returns for its point, under `base`
/// (see [`simulate`]). Results are point-major: all of `points[0]`'s
/// schemes, then `points[1]`'s, … The first failure in that order is
/// returned instead.
pub fn run_sweep<P, F>(
    jobs: usize,
    points: &[P],
    schemes: &[Scheme],
    base: &SimConfig,
    generate: F,
) -> Result<Vec<SweepRun<P>>, CellFailure>
where
    P: Clone + std::fmt::Debug + Sync,
    F: Fn(&P) -> (Trace, FatTree) + Sync,
{
    let cells: Vec<(P, Scheme)> = points
        .iter()
        .flat_map(|p| schemes.iter().map(move |&s| (p.clone(), s)))
        .collect();
    let results = fan_out(jobs, &cells, |(point, scheme)| {
        let (trace, tree) = generate(point);
        simulate(&trace, &tree, *scheme, base.clone())
    })?;
    Ok(cells
        .into_iter()
        .zip(results)
        .map(|((point, scheme), result)| SweepRun {
            point,
            scheme,
            result,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_traces::synth::synth;

    fn gen(seed: u64) -> (Trace, FatTree) {
        // `FatTree::maximal(8)` is valid by construction; tests may unwrap.
        (synth(8, 40, seed), FatTree::maximal(8).unwrap())
    }

    #[test]
    fn point_major_order_and_parallel_determinism() {
        let seeds = [1u64, 2, 3];
        let schemes = [Scheme::Baseline, Scheme::Jigsaw];
        let base = SimConfig::default();
        let seq = run_sweep(1, &seeds, &schemes, &base, |&s| gen(s)).expect("sequential sweep");
        let par = run_sweep(4, &seeds, &schemes, &base, |&s| gen(s)).expect("parallel sweep");
        assert_eq!(seq.len(), 6);
        let order: Vec<(u64, Scheme)> = seq.iter().map(|r| (r.point, r.scheme)).collect();
        assert_eq!(
            order,
            vec![
                (1, Scheme::Baseline),
                (1, Scheme::Jigsaw),
                (2, Scheme::Baseline),
                (2, Scheme::Jigsaw),
                (3, Scheme::Baseline),
                (3, Scheme::Jigsaw),
            ]
        );
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.result.utilization, b.result.utilization);
            assert_eq!(a.result.makespan, b.result.makespan);
        }
    }

    #[test]
    fn failing_cell_is_named() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = run_sweep(
            2,
            &[7u64, 8],
            &[Scheme::Baseline, Scheme::Jigsaw],
            &SimConfig::default(),
            |&seed| {
                assert!(seed != 8, "seed 8 exploded");
                gen(seed)
            },
        )
        .expect_err("generation for seed 8 panics");
        std::panic::set_hook(prev_hook);
        assert_eq!(err.index, 2, "seed 8's first cell");
        assert_eq!(err.cell, "(8, Baseline)");
        assert!(err.to_string().contains("seed 8 exploded"), "{err}");
    }
}
