//! Minimal command-line handling shared by the experiment binaries (no
//! external CLI dependency needed for five flags).

/// Common harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Trace scale factor (fraction of the paper's job counts), in (0, 1].
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Where to write JSON results (`results/` by default).
    pub out_dir: String,
    /// At most this many grid cells run at once (`--jobs <n>`; default:
    /// the machine's available parallelism). Results are identical for
    /// every value — see [`crate::fan_out`].
    pub jobs: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.02,
            seed: 2021,
            out_dir: "results".into(),
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

impl HarnessArgs {
    /// Parse the process's arguments with [`HarnessArgs::parse_from`];
    /// a bad flag aborts with usage help and exit code 2.
    pub fn parse() -> Self {
        HarnessArgs::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: <experiment> [--scale <0..1>] [--full] [--seed <n>] [--out <dir>] [--jobs <n>]"
            );
            std::process::exit(2);
        })
    }

    /// Parse `--scale <f> | --full | --seed <n> | --out <dir> | --jobs <n>`
    /// from `args` (program name excluded). The error names the bad flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--scale" => {
                    let v = value("a number")?;
                    parsed.scale = v
                        .parse()
                        .map_err(|_| format!("--scale: `{v}` is not a number"))?;
                }
                "--full" => parsed.scale = 1.0,
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
                other => return Err(format!("unknown flag {other}")),
            }
        }
        // Written so that NaN fails too: every comparison with NaN is false.
        if !(parsed.scale > 0.0 && parsed.scale <= 1.0) {
            return Err(format!("--scale must be in (0, 1], got {}", parsed.scale));
        }
        Ok(parsed)
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
        assert_eq!(parse(&[]).unwrap(), a);
    }

    #[test]
    fn parse_from_reads_every_flag() {
        let a = parse(&[
            "--scale", "0.1", "--seed", "7", "--out", "/tmp/r", "--jobs", "3",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, "/tmp/r");
        assert_eq!(a.jobs, 3);
        assert_eq!(parse(&["--full"]).unwrap().scale, 1.0);
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
}
