//! Console tables, normalization helpers and JSON result output.

use crate::runner::GridResult;
use jigsaw_core::Scheme;
use jigsaw_sim::Scenario;
use serde::Serialize;
use std::path::Path;

/// Write `value` as pretty JSON to `out_dir/name.json`. The `BENCH_*`
/// trajectories end in a newline, as the committed floors do.
pub fn write_json<T: Serialize + ?Sized>(
    out_dir: &str,
    name: &str,
    value: &T,
) -> Result<(), String> {
    let path = Path::new(out_dir).join(format!("{name}.json"));
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if name.starts_with("BENCH_") {
        text.push('\n');
    }
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `x` rounded to `decimals` places the way `{:.N}` prints it, so a JSON
/// field reads exactly as the text report does.
pub fn rounded(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().unwrap_or(x)
}

/// Find the result for (trace, scheme, scenario).
pub fn cell<'a>(
    results: &'a [GridResult],
    trace: &str,
    scheme: Scheme,
    scenario: Scenario,
) -> &'a GridResult {
    results
        .iter()
        .find(|r| r.trace == trace && r.scheme == scheme && r.scenario == scenario)
        .unwrap_or_else(|| panic!("missing cell ({trace}, {scheme}, {scenario})"))
}

/// Render a fixed-width table: header row + rows of (label, values).
pub fn table(title: &str, columns: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let label_w = rows.iter().map(|(l, _)| l.len()).chain([10]).max().unwrap();
    let col_w = columns
        .iter()
        .map(|c| c.len())
        .chain(rows.iter().flat_map(|(_, vs)| vs.iter().map(|v| v.len())))
        .max()
        .unwrap()
        .max(8);
    let mut out = format!("## {title}\n\n{:<label_w$}", "");
    for c in columns {
        out.push_str(&format!(" {c:>col_w$}"));
    }
    out.push('\n');
    for (label, values) in rows {
        out.push_str(&format!("{label:<label_w$}"));
        for v in values {
            out.push_str(&format!(" {v:>col_w$}"));
        }
        out.push('\n');
    }
    out
}

/// Format a fraction as `xx.x%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a ratio normalized to a baseline as `x.xx`.
pub fn norm(x: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        "--".into()
    } else {
        format!("{:.2}", x / baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(trace: &str, scheme: Scheme, scenario: Scenario) -> GridResult {
        GridResult {
            trace: trace.into(),
            scheme,
            scenario,
            utilization: 0.95,
            turnaround_all: 100.0,
            turnaround_large: 150.0,
            makespan: 1000.0,
            sched_time_per_job: 1e-5,
            unschedulable: 0,
            inst_util_buckets: [1, 2, 3, 4, 5, 6],
        }
    }

    #[test]
    fn cell_lookup() {
        let results = vec![
            fake("A", Scheme::Jigsaw, Scenario::None),
            fake("A", Scheme::Ta, Scenario::None),
        ];
        assert_eq!(
            cell(&results, "A", Scheme::Ta, Scenario::None).scheme,
            Scheme::Ta
        );
    }

    #[test]
    #[should_panic(expected = "missing cell")]
    fn missing_cell_panics() {
        let results = vec![fake("A", Scheme::Jigsaw, Scenario::None)];
        let _ = cell(&results, "B", Scheme::Jigsaw, Scenario::None);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.954), "95.4%");
        assert_eq!(norm(150.0, 100.0), "1.50");
        assert_eq!(norm(1.0, 0.0), "--");
        let t = table(
            "T",
            &["c1", "c2"],
            &[("row".into(), vec!["1".into(), "2".into()])],
        );
        assert!(t.contains("## T") && t.contains("c1") && t.contains("row"));
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join(format!("jigsaw-bench-report-{}", std::process::id()));
        let results = vec![fake("A", Scheme::Jigsaw, Scenario::None)];
        let written = write_json(dir.to_str().unwrap(), "test", &results).and_then(|()| {
            std::fs::read_to_string(dir.join("test.json")).map_err(|e| e.to_string())
        });
        let _ = std::fs::remove_dir_all(&dir);
        let back: Vec<GridResult> = serde_json::from_str(&written.unwrap()).unwrap();
        assert_eq!(back[0].trace, "A");
    }

    #[test]
    fn rounding_matches_the_text_report() {
        assert_eq!(rounded(33.333, 1), 33.3);
        assert_eq!(serde_json::to_string(&rounded(90.0, 1)).unwrap(), "90.0");
        assert_eq!(
            serde_json::to_string(&rounded(2.95, 1)).unwrap(),
            format!("{:.1}", 2.95)
        );
    }
}
