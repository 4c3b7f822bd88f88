//! The trajectories' regression gates: each trajectory declares its gates
//! as data, and [`check`] evaluates them all against the fresh `BENCH_*`
//! document and, for floor-relative bounds, a committed one (`--floor`).

use serde::{Deserialize, Value};

/// What a gated metric must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At most this many times the committed value.
    TimesFloor(f64),
    /// At least the committed value minus this many points.
    PointsBelowFloor(f64),
    /// At least this fixed value; needs no floor.
    AtLeast(f64),
}

/// One gate: `metric` of every row that matches `key` must satisfy `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The document's array of rows (`"cells"`, `"arms"`), or `""` for
    /// the document's own top-level fields.
    pub rows: &'static str,
    /// The fields that identify a row, each with the value a gated row
    /// must have, or `"*"` for any. A floor-relative bound compares with
    /// the committed row whose key fields hold the same values.
    pub key: &'static [(&'static str, &'static str)],
    /// The field compared.
    pub metric: &'static str,
    /// The bound it must satisfy.
    pub bound: Bound,
}

/// Evaluate every gate on `fresh`. Floor-relative bounds compare with the
/// committed document at `floor`, and are skipped without one; a gated
/// row the floor does not have is reported on stderr and skipped. Returns
/// every failing row, one line each, or an error for an unreadable floor.
pub fn check(gates: &[Gate], fresh: &Value, floor: Option<&str>) -> Result<(), String> {
    let floor = floor
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("read floor {path}: {e}"))?;
            serde_json::from_str::<Value>(&text).map_err(|e| format!("parse floor {path}: {e}"))
        })
        .transpose()?;
    let mut failures = Vec::new();
    for gate in gates {
        for row in rows(fresh, gate.rows) {
            let selected = gate
                .key
                .iter()
                .all(|&(field, want)| want == "*" || render(row.get(field)) == want);
            if !selected {
                continue;
            }
            let what = row_name(gate, row);
            let value = metric(row, gate.metric)?;
            let committed = match gate.bound {
                Bound::AtLeast(_) => 0.0,
                Bound::TimesFloor(_) | Bound::PointsBelowFloor(_) => {
                    let Some(floor) = &floor else { continue };
                    let same_key = |c: &&Value| {
                        gate.key
                            .iter()
                            .all(|&(field, _)| c.get(field) == row.get(field))
                    };
                    let Some(c) = rows(floor, gate.rows).iter().find(same_key) else {
                        eprintln!("floor has no row {what} — skipping");
                        continue;
                    };
                    metric(c, gate.metric)?
                }
            };
            let failure = match gate.bound {
                Bound::TimesFloor(k) => (value > k * committed)
                    .then(|| format!("{what} {value} exceeds {k} x the committed {committed}")),
                Bound::PointsBelowFloor(p) => (value + p < committed).then(|| {
                    format!(
                        "{what} {value} fell more than {p} points below the committed {committed}"
                    )
                }),
                Bound::AtLeast(min) => {
                    (value < min).then(|| format!("{what} {value} is below the required {min}"))
                }
            };
            failures.extend(failure);
        }
    }
    if failures.is_empty() {
        eprintln!("all gates passed");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The rows a gate reads: the named array, or the document itself.
fn rows<'v>(doc: &'v Value, name: &str) -> &'v [Value] {
    if name.is_empty() {
        std::slice::from_ref(doc)
    } else {
        doc.get(name).and_then(Value::as_array).unwrap_or(&[])
    }
}

fn metric(row: &Value, field: &str) -> Result<f64, String> {
    row.get(field)
        .and_then(|v| f64::from_value(v).ok())
        .ok_or(format!("row has no numeric `{field}`"))
}

/// A key field's value as the gate table writes it: strings bare.
fn render(value: Option<&Value>) -> String {
    match value {
        Some(Value::Str(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_default(),
        None => "-".into(),
    }
}

/// `cells[radix=22 scenario=empty] p50_ns`, or the bare metric for a
/// top-level gate.
fn row_name(gate: &Gate, row: &Value) -> String {
    if gate.rows.is_empty() {
        return gate.metric.to_string();
    }
    let key: Vec<String> = gate
        .key
        .iter()
        .map(|&(field, _)| format!("{field}={}", render(row.get(field))))
        .collect();
    format!("{}[{}] {}", gate.rows, key.join(" "), gate.metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P50: &[Gate] = &[Gate {
        rows: "cells",
        key: &[("radix", "*"), ("scenario", "*")],
        metric: "p50_ns",
        bound: Bound::TimesFloor(4.0),
    }];
    const RECOVERED: &[Gate] = &[
        Gate {
            rows: "arms",
            key: &[("radix", "22"), ("scheme", "greedy")],
            metric: "recovered_pct",
            bound: Bound::AtLeast(30.0),
        },
        Gate {
            rows: "arms",
            key: &[("radix", "*"), ("scheme", "*")],
            metric: "recovered_pct",
            bound: Bound::PointsBelowFloor(15.0),
        },
    ];

    fn doc(text: &str) -> Value {
        serde_json::from_str(text).expect("test documents parse")
    }

    fn cells(p50s: &[(u32, &str, u64)]) -> String {
        let rows: Vec<String> = p50s
            .iter()
            .map(|(radix, scenario, p50)| {
                format!(r#"{{"radix": {radix}, "scenario": "{scenario}", "p50_ns": {p50}}}"#)
            })
            .collect();
        format!(r#"{{"cells": [{}]}}"#, rows.join(", "))
    }

    fn arms(pcts: &[(u32, &str, f64)]) -> String {
        let rows: Vec<String> = pcts
            .iter()
            .map(|(radix, scheme, pct)| {
                format!(r#"{{"radix": {radix}, "scheme": "{scheme}", "recovered_pct": {pct}}}"#)
            })
            .collect();
        format!(r#"{{"arms": [{}]}}"#, rows.join(", "))
    }

    /// Check `gates` on `fresh` against a floor file holding `floor`.
    fn against(gates: &[Gate], fresh: &str, floor: &str) -> Result<(), String> {
        let path = std::env::temp_dir().join(format!(
            "jigsaw-bench-floor-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, floor).expect("temp dir is writable");
        let outcome = check(gates, &doc(fresh), path.to_str());
        let _ = std::fs::remove_file(&path);
        outcome
    }

    #[test]
    fn times_floor_passes_within_and_fails_past_the_factor() {
        let floor = cells(&[(10, "empty", 100), (22, "empty", 50)]);
        assert_eq!(
            against(
                P50,
                &cells(&[(10, "empty", 400), (22, "empty", 10)]),
                &floor
            ),
            Ok(())
        );
        let err = against(
            P50,
            &cells(&[(10, "empty", 401), (22, "empty", 201)]),
            &floor,
        )
        .expect_err("both rows regressed past 4x");
        assert_eq!(err.lines().count(), 2, "{err}");
        assert!(
            err.contains("cells[radix=10 scenario=empty] p50_ns 401 exceeds 4 x the committed 100"),
            "{err}"
        );
        assert!(err.contains("radix=22"), "{err}");
    }

    #[test]
    fn points_below_floor_and_a_fixed_minimum() {
        let floor = arms(&[(22, "greedy", 60.0), (22, "none", 0.0)]);
        let fresh = arms(&[(22, "greedy", 45.0), (22, "none", 0.0)]);
        assert_eq!(against(RECOVERED, &fresh, &floor), Ok(()));
        let err = against(RECOVERED, &arms(&[(22, "greedy", 44.9)]), &floor)
            .expect_err("15.1 points below the floor");
        assert!(err.contains("arms[radix=22 scheme=greedy]"), "{err}");
        assert!(
            err.contains("more than 15 points below the committed 60"),
            "{err}"
        );
        // The fixed bound needs no floor, and picks out only its row.
        let none_low = arms(&[(22, "greedy", 30.0), (22, "none", 0.0), (10, "greedy", 1.0)]);
        assert_eq!(check(RECOVERED, &doc(&none_low), None), Ok(()));
        let err = check(RECOVERED, &doc(&arms(&[(22, "greedy", 29.9)])), None)
            .expect_err("below the fixed 30");
        assert!(err.contains("29.9 is below the required 30"), "{err}");
    }

    #[test]
    fn a_top_level_metric_is_gated_too() {
        let speedup = [Gate {
            rows: "",
            key: &[],
            metric: "group_commit_speedup",
            bound: Bound::AtLeast(1.5),
        }];
        assert_eq!(
            check(&speedup, &doc(r#"{"group_commit_speedup": 1.5}"#), None),
            Ok(())
        );
        let err =
            check(&speedup, &doc(r#"{"group_commit_speedup": 1.2}"#), None).expect_err("too slow");
        assert_eq!(err, "group_commit_speedup 1.2 is below the required 1.5");
    }

    #[test]
    fn a_row_missing_from_the_floor_is_skipped() {
        let floor = cells(&[(10, "empty", 100)]);
        let fresh = cells(&[(10, "empty", 100), (28, "drained_pods", 1_000_000)]);
        assert_eq!(against(P50, &fresh, &floor), Ok(()));
        assert_eq!(against(P50, &fresh, "{}"), Ok(()), "a floor with no rows");
    }

    #[test]
    fn an_unreadable_floor_is_an_error() {
        let fresh = doc(&cells(&[(10, "empty", 100)]));
        let err =
            check(P50, &fresh, Some("/nonexistent/BENCH_alloc.json")).expect_err("missing file");
        assert!(
            err.starts_with("read floor /nonexistent/BENCH_alloc.json"),
            "{err}"
        );
        let err =
            against(P50, &cells(&[(10, "empty", 100)]), "{not json").expect_err("malformed floor");
        assert!(err.starts_with("parse floor"), "{err}");
    }
}
