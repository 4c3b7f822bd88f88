//! Tiny flag parser shared by the subcommands (three flag shapes, no
//! external CLI dependency).

use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;
use std::collections::HashMap;

/// Parsed `--flag value` pairs plus positional arguments.
pub struct Flags {
    pub positional: Vec<String>,
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 7] = [
    "--json",
    "--swf",
    "--help",
    "--dot",
    "--analyze",
    "--metrics",
    "--shutdown",
];

impl Flags {
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            positional: Vec::new(),
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if SWITCHES.contains(&arg.as_str()) {
                    flags.switches.push(arg.clone());
                    continue;
                }
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.values.insert(name.to_string(), value.clone());
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
        }
    }

    /// `--scale`: the trace scale factor, default 0.05. Written so that NaN
    /// fails too (every comparison with NaN is false).
    pub fn scale(&self) -> Result<f64, String> {
        let s = self.get_f64("scale", 0.05)?;
        if s > 0.0 && s.is_finite() {
            Ok(s)
        } else {
            Err(format!("--scale must be positive and finite, got {s}"))
        }
    }

    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not an integer")),
        }
    }

    pub fn scheme(&self) -> Result<Scheme, String> {
        self.get("scheme")
            .unwrap_or("jigsaw")
            .parse()
            .map_err(|e: jigsaw_core::ParseSchemeError| e.to_string())
    }

    pub fn scenario(&self) -> Result<Scenario, String> {
        self.get("scenario")
            .unwrap_or("none")
            .parse()
            .map_err(|e: jigsaw_sim::ParseScenarioError| e.to_string())
    }
}

/// Parse a comma-separated size list.
pub fn parse_sizes(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad size `{p}`"))
        })
        .collect()
}

pub fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_switches_and_positionals() {
        let f = Flags::parse(&args(&["16", "--sizes", "1,2", "--json"])).unwrap();
        assert_eq!(f.positional, vec!["16"]);
        assert_eq!(f.get("sizes"), Some("1,2"));
        assert!(f.has("--json"));
        assert!(!f.has("--swf"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Flags::parse(&args(&["--scale"])).is_err());
    }

    #[test]
    fn numeric_and_enum_accessors() {
        let f = Flags::parse(&args(&[
            "--scale",
            "0.1",
            "--scheme",
            "laas",
            "--scenario",
            "v2",
        ]))
        .unwrap();
        assert_eq!(f.get_f64("scale", 1.0).unwrap(), 0.1);
        assert_eq!(f.get_u64("seed", 7).unwrap(), 7);
        assert_eq!(f.scheme().unwrap(), Scheme::Laas);
        assert_eq!(f.scenario().unwrap(), Scenario::V2);
        assert!(Flags::parse(&args(&["--scheme", "bogus"]))
            .unwrap()
            .scheme()
            .is_err());
    }

    #[test]
    fn scale_must_be_positive_and_finite() {
        assert_eq!(Flags::parse(&[]).unwrap().scale().unwrap(), 0.05);
        assert_eq!(
            Flags::parse(&args(&["--scale", "2"])).unwrap().scale(),
            Ok(2.0)
        );
        for bad in ["nan", "-1", "0", "inf", "-inf"] {
            let err = Flags::parse(&args(&["--scale", bad]))
                .unwrap()
                .scale()
                .expect_err(bad);
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn size_lists() {
        assert_eq!(parse_sizes("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_sizes("1,x").is_err());
    }
}
