//! The one command line of `jigsaw-bench <experiment>`: seven flags, no
//! external CLI dependency.

/// Harness options, shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Trace scale factor (fraction of the paper's job counts), in (0, 1].
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Where to write JSON results (`results/` by default); the
    /// trajectories write `BENCH_*.json` here.
    pub out_dir: String,
    /// At most this many grid cells run at once (`--jobs <n>`; default:
    /// the machine's available parallelism). Results are identical for
    /// every value — see [`crate::fan_out`].
    pub jobs: usize,
    /// `--smoke`: the trajectories' small size, and scale 0.005 for the
    /// grid experiments.
    pub smoke: bool,
    /// `--floor <file>`: a committed `BENCH_*.json` the trajectory's
    /// floor-relative gates compare against.
    pub floor: Option<String>,
}

/// The scale `--smoke` sets.
const SMOKE_SCALE: f64 = 0.005;

/// One line of usage help.
pub const USAGE: &str = "usage: jigsaw-bench <experiment> [--scale <0..1> | --full | --smoke] \
                         [--seed <n>] [--out <dir>] [--jobs <n>] [--floor <file>]";

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.02,
            seed: 2021,
            out_dir: "results".into(),
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            smoke: false,
            floor: None,
        }
    }
}

impl HarnessArgs {
    /// Parse `--scale <f> | --full | --smoke | --seed <n> | --out <dir> |
    /// --jobs <n> | --floor <file>` from `args` (experiment name
    /// excluded). The error names the bad flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = HarnessArgs::default();
        let mut scale_flag = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--scale" => {
                    let v = value("a number")?;
                    parsed.scale = v
                        .parse()
                        .map_err(|_| format!("--scale: `{v}` is not a number"))?;
                    scale_flag = Some("--scale");
                }
                "--full" => {
                    parsed.scale = 1.0;
                    scale_flag = Some("--full");
                }
                "--smoke" => parsed.smoke = true,
                "--seed" => {
                    let v = value("an integer")?;
                    parsed.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: `{v}` is not an integer"))?;
                }
                "--out" => parsed.out_dir = value("a directory")?,
                "--jobs" => {
                    let v = value("a positive integer")?;
                    parsed.jobs = v
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or(format!("--jobs: `{v}` is not a positive integer"))?;
                }
                "--floor" => parsed.floor = Some(value("a file")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if parsed.smoke {
            if let Some(flag) = scale_flag {
                return Err(format!("--smoke sets the scale; it cannot go with {flag}"));
            }
            parsed.scale = SMOKE_SCALE;
        }
        // Written so that NaN fails too: every comparison with NaN is false.
        if !(parsed.scale > 0.0 && parsed.scale <= 1.0) {
            return Err(format!("--scale must be in (0, 1], got {}", parsed.scale));
        }
        Ok(parsed)
    }

    /// `full` normally, `smoke` under `--smoke`: the trajectories' size.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = HarnessArgs::default();
        assert!(a.scale > 0.0 && a.scale <= 1.0);
        assert_eq!(a.out_dir, "results");
        assert!(a.jobs >= 1);
        assert!(!a.smoke && a.floor.is_none());
        assert_eq!(parse(&[]).unwrap(), a);
    }

    #[test]
    fn parse_from_reads_every_flag() {
        let a = parse(&[
            "--scale", "0.1", "--seed", "7", "--out", "/tmp/r", "--jobs", "3", "--floor", "F.json",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, "/tmp/r");
        assert_eq!(a.jobs, 3);
        assert_eq!(a.floor.as_deref(), Some("F.json"));
        assert_eq!(parse(&["--full"]).unwrap().scale, 1.0);
        assert!(parse(&["--floor"]).is_err());
    }

    #[test]
    fn smoke_sets_the_small_sizes_and_excludes_a_scale() {
        let a = parse(&["--smoke", "--jobs", "2"]).unwrap();
        assert!(a.smoke);
        assert_eq!(a.scale, SMOKE_SCALE);
        assert_eq!(a.size(4000, 300), 300);
        assert_eq!(HarnessArgs::default().size(4000, 300), 4000);
        for clash in [
            &["--smoke", "--scale", "0.1"][..],
            &["--scale", "0.1", "--smoke"],
            &["--full", "--smoke"],
        ] {
            let err = parse(clash).expect_err("--smoke with a scale");
            assert!(err.contains("--smoke"), "{err}");
        }
    }

    #[test]
    fn out_of_range_scale_is_rejected() {
        for bad in ["nan", "NaN", "-1", "0", "inf", "-inf", "1.5"] {
            let err = parse(&["--scale", bad]).expect_err(bad);
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale"]).is_err());
    }

    #[test]
    fn bad_jobs_and_unknown_flags_are_rejected() {
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "-2"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn the_removed_per_experiment_flags_are_rejected() {
        for flag in [
            "--iters",
            "--max-regression",
            "--probes",
            "--tolerance",
            "--min-recovered",
            "--connections",
            "--requests",
            "--pipeline",
            "--min-speedup",
        ] {
            let err = parse(&[flag, "1"]).expect_err(flag);
            assert_eq!(err, format!("unknown flag {flag}"));
        }
    }
}
