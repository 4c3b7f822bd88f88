//! Every experiment `jigsaw-bench` runs, by name, and the dispatch from a
//! command line to one of them.

mod alloc_trajectory;
mod defrag_recovery;
mod extensions;
mod motivation;
mod paper;
mod serve_saturation;

use crate::args::USAGE;
use crate::gate::Gate;
use crate::HarnessArgs;

/// An experiment's entry point.
pub type Run = fn(&HarnessArgs) -> Result<(), String>;

/// Every experiment: its name, its entry point, and the gates it checks
/// (empty for an experiment `--floor` does not apply to).
pub const EXPERIMENTS: [(&str, Run, &[Gate]); 19] = [
    ("table1_traces", paper::table1_traces, &[]),
    (
        "motivation_interference",
        motivation::motivation_interference,
        &[],
    ),
    ("fig6_utilization", paper::fig6_utilization, &[]),
    ("table2_inst_util", paper::table2_inst_util, &[]),
    ("fig7_turnaround", paper::fig7_turnaround, &[]),
    ("fig8_makespan", paper::fig8_makespan, &[]),
    ("table3_schedtime", paper::table3_schedtime, &[]),
    ("ablation_lc", extensions::ablation_lc, &[]),
    (
        "ablation_shape_order",
        extensions::ablation_shape_order,
        &[],
    ),
    ("backfill_policies", extensions::backfill_policies, &[]),
    ("estimate_error", extensions::estimate_error, &[]),
    ("failure_resilience", extensions::failure_resilience, &[]),
    ("variance_check", extensions::variance_check, &[]),
    ("scale_sweep", extensions::scale_sweep, &[]),
    ("workload_v2", extensions::workload_v2, &[]),
    (
        "alloc_trajectory",
        alloc_trajectory::alloc_trajectory,
        alloc_trajectory::GATES,
    ),
    (
        "defrag_recovery",
        defrag_recovery::defrag_recovery,
        defrag_recovery::GATES,
    ),
    (
        "serve_saturation",
        serve_saturation::serve_saturation,
        serve_saturation::GATES,
    ),
    ("all", all, &[]),
];

/// What `all` runs, in order: the complete evaluation, without workload
/// v2 and the three `BENCH_*` trajectories.
pub const ALL: [&str; 14] = [
    "table1_traces",
    "motivation_interference",
    "fig6_utilization",
    "table2_inst_util",
    "fig7_turnaround",
    "fig8_makespan",
    "table3_schedtime",
    "ablation_lc",
    "ablation_shape_order",
    "backfill_policies",
    "estimate_error",
    "failure_resilience",
    "variance_check",
    "scale_sweep",
];

/// Why a command line did not run to success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The command line itself is wrong (exit status 2).
    Usage(String),
    /// The experiment ran and failed (exit status 1).
    Experiment(String),
}

impl Failure {
    /// The process exit status this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Experiment(_) => 1,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(msg) => write!(f, "{msg}\n{USAGE}"),
            Failure::Experiment(msg) => f.write_str(msg),
        }
    }
}

/// The experiment called `name`, with its gates.
fn lookup(name: &str) -> Option<(Run, &'static [Gate])> {
    EXPERIMENTS
        .iter()
        .find(|&&(n, _, _)| n == name)
        .map(|&(_, run, gates)| (run, gates))
}

/// Run `jigsaw-bench <experiment> [flags]`; `argv` excludes the program
/// name.
pub fn run(argv: &[String]) -> Result<(), Failure> {
    let names = || {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _, _)| n).collect();
        names.join(", ")
    };
    let Some((name, flags)) = argv.split_first() else {
        return Err(Failure::Usage(format!(
            "name an experiment, one of: {}",
            names()
        )));
    };
    let Some((run, gates)) = lookup(name) else {
        return Err(Failure::Usage(format!(
            "unknown experiment `{name}`; one of: {}",
            names()
        )));
    };
    let args = HarnessArgs::parse_from(flags.iter().cloned()).map_err(Failure::Usage)?;
    if args.floor.is_some() && gates.is_empty() {
        return Err(Failure::Usage(format!(
            "{name} has no gates, so --floor does not apply"
        )));
    }
    run(&args).map_err(Failure::Experiment)
}

/// Run every experiment of [`ALL`] in this process, in order.
fn all(args: &HarnessArgs) -> Result<(), String> {
    for name in ALL {
        println!("\n================= {name} =================\n");
        let (run, _) = lookup(name).ok_or(format!("no experiment `{name}`"))?;
        run(args).map_err(|e| format!("{name}: {e}"))?;
    }
    println!(
        "\nall experiments complete; JSON results in {}/",
        args.out_dir
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_each_resolves() {
        for (i, &(name, _, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..]
                    .iter()
                    .all(|&(other, _, _)| other != name),
                "{name} is listed twice"
            );
            assert!(lookup(name).is_some(), "{name} does not resolve");
        }
        assert!(lookup("run_all").is_none(), "`all` replaces run_all");
    }

    #[test]
    fn all_runs_the_old_run_all_list_in_order() {
        assert_eq!(
            ALL,
            [
                "table1_traces",
                "motivation_interference",
                "fig6_utilization",
                "table2_inst_util",
                "fig7_turnaround",
                "fig8_makespan",
                "table3_schedtime",
                "ablation_lc",
                "ablation_shape_order",
                "backfill_policies",
                "estimate_error",
                "failure_resilience",
                "variance_check",
                "scale_sweep",
            ]
        );
        for name in ALL {
            let (_, gates) = lookup(name).expect("every `all` entry resolves");
            assert!(gates.is_empty(), "{name}: `all` runs no gated trajectory");
        }
    }

    #[test]
    fn only_the_trajectories_have_gates() {
        let gated: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|(_, _, gates)| !gates.is_empty())
            .map(|&(name, _, _)| name)
            .collect();
        assert_eq!(
            gated,
            ["alloc_trajectory", "defrag_recovery", "serve_saturation"]
        );
    }

    #[test]
    fn an_unknown_experiment_is_a_usage_error_listing_the_names() {
        let failure = run(&argv(&["fig9_nonexistent"])).expect_err("unknown");
        assert_eq!(failure.exit_code(), 2);
        let text = failure.to_string();
        for (name, _, _) in EXPERIMENTS {
            assert!(text.contains(name), "{name} missing from: {text}");
        }
        assert_eq!(run(&[]).expect_err("no name").exit_code(), 2);
    }

    #[test]
    fn bad_flags_and_a_floor_without_gates_are_usage_errors() {
        let failure = run(&argv(&["table1_traces", "--iters", "5"])).expect_err("removed flag");
        assert_eq!(failure, Failure::Usage("unknown flag --iters".into()));
        let failure =
            run(&argv(&["table1_traces", "--floor", "BENCH_alloc.json"])).expect_err("no gates");
        assert_eq!(failure.exit_code(), 2);
        assert!(failure.to_string().contains("--floor"), "{failure}");
        let failure = run(&argv(&["all", "--floor", "x"])).expect_err("all has no gates");
        assert_eq!(failure.exit_code(), 2);
    }
}
