//! Statistical stability of the headline result: Figure 6's utilization
//! values across independent trace seeds.
//!
//! The paper reports single runs per trace; this sweep regenerates
//! Synth-16 and Oct-Cab with several seeds and reports mean ± sample
//! standard deviation per scheme. The scheme ordering must hold for every
//! seed, and the spread should be well under the between-scheme gaps —
//! otherwise Figure 6 would be noise.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin variance_check [--scale f] [--seed n] [--jobs n]
//! ```

use jigsaw_bench::{or_exit, run_sweep, trace_by_name, HarnessArgs};
use jigsaw_core::Scheme;
use jigsaw_sim::SimConfig;

const SEEDS: u64 = 5;

fn main() {
    let args = HarnessArgs::parse();
    let schemes = Scheme::ALL;
    println!("## Utilization stability over {SEEDS} trace seeds (mean ± stddev)\n");
    println!(
        "{:<10} {}",
        "trace",
        schemes
            .iter()
            .map(|k| format!("{:>16}", k.name()))
            .collect::<String>()
    );
    for name in ["Synth-16", "Oct-Cab"] {
        let seeds: Vec<u64> = (0..SEEDS).map(|s| args.seed + 1000 * s).collect();
        let runs = or_exit(run_sweep(
            args.jobs,
            &seeds,
            &schemes,
            &SimConfig::default(),
            |&seed| trace_by_name(name, args.scale, seed),
        ));
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
        for run in &runs {
            let k = schemes.iter().position(|&x| x == run.scheme).unwrap();
            samples[k].push(run.result.utilization);
        }
        let cells: String = samples
            .iter()
            .map(|v| {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let var =
                    v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1).max(1) as f64;
                format!("{:>9.1}%±{:>4.1}", 100.0 * mean, 100.0 * var.sqrt())
            })
            .collect();
        println!("{name:<10} {cells}");
        // Ordering check: Jigsaw > LaaS and Jigsaw > TA on every seed.
        let idx = |k: Scheme| schemes.iter().position(|&x| x == k).unwrap();
        let jig_row = &samples[idx(Scheme::Jigsaw)];
        let laas_row = &samples[idx(Scheme::Laas)];
        let ta_row = &samples[idx(Scheme::Ta)];
        for ((&jig, &laas), &ta) in jig_row.iter().zip(laas_row).zip(ta_row) {
            assert!(
                jig > laas && jig > ta,
                "{name}: ordering must hold for every seed"
            );
        }
    }
    println!("\nordering Jigsaw > LaaS and Jigsaw > TA held on every seed.");
}
