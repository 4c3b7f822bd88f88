//! DESIGN §9's metric catalog against the metrics the system really
//! registers.
//!
//! One live registry is threaded through every instrumented layer — an
//! `ObservedAllocator` inside an `Engine` on a durable `PersistentState`,
//! served by the TCP `Server` to `loadgen`, then a small `Simulation` —
//! and its Prometheus exposition is compared with the catalog table, in
//! both directions: every family's name, `# TYPE` and label keys must
//! have a row saying exactly that, and every row must name a registered
//! family. The negative tests feed the comparison a catalog with a row
//! deleted or a type changed, and an exposition with a family renamed.

use jigsaw::net::loadgen::{self, LoadgenConfig};
use jigsaw::prelude::*;
use jigsaw::traces::synth::synth;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

const DESIGN: &str = include_str!("../DESIGN.md");

/// A metric family's `# TYPE` and label keys (`le` excluded).
struct Family {
    ty: String,
    labels: BTreeSet<String>,
}

/// The exposition of a registry that every metric-registering layer has
/// written to. Built once: the families do not depend on the test.
fn live_exposition() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let registry = Registry::new();
        let tree = FatTree::maximal(4).unwrap();
        let dir =
            std::env::temp_dir().join(format!("jigsaw-metric-catalog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut persist, _) = PersistentState::open(&dir, tree).unwrap();
        persist.attach_registry(&registry);
        let allocator = Box::new(ObservedAllocator::new(
            Scheme::Jigsaw.make(&tree),
            &registry,
        ));
        let engine = Engine::new(tree, allocator, persist, &registry);
        let handle = Server::start(engine, &ServerConfig::default()).unwrap();
        let config = LoadgenConfig {
            addr: handle.addr().to_string(),
            connections: 1,
            requests_per_conn: 20,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        loadgen::run(&config, &registry).unwrap();
        assert_eq!(handle.wait(), 0);
        std::fs::remove_dir_all(&dir).unwrap();

        let trace = synth(4, 20, 7);
        Simulation::new(&tree, &trace)
            .with_registry(&registry)
            .run();
        registry.render_prometheus()
    })
}

/// The catalog rows of DESIGN §9, keyed by metric name. A name listed
/// twice keeps its last row and is reported in the second value.
fn catalog(design: &str) -> (BTreeMap<String, Family>, Vec<String>) {
    let mut rows = BTreeMap::new();
    let mut duplicates = Vec::new();
    let section = design
        .lines()
        .skip_while(|l| !l.starts_with("## 9."))
        .skip(1)
        .take_while(|l| !l.starts_with("## "));
    for line in section {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| name | type | labels | source |` splits into six cells.
        let [_, name, ty, labels, _, _] = cells[..] else {
            continue;
        };
        let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
            continue;
        };
        let labels = labels
            .split(',')
            .filter_map(|l| l.trim().strip_prefix('`')?.strip_suffix('`'))
            .map(str::to_string)
            .collect();
        let family = Family {
            ty: ty.to_string(),
            labels,
        };
        if rows.insert(name.to_string(), family).is_some() {
            duplicates.push(name.to_string());
        }
    }
    (rows, duplicates)
}

/// The families of a Prometheus text exposition, keyed by name.
fn families(exposition: &str) -> BTreeMap<String, Family> {
    let mut out: BTreeMap<String, Family> = BTreeMap::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("`# TYPE <name> <type>`");
            out.entry(name.to_string()).or_insert(Family {
                ty: ty.to_string(),
                labels: BTreeSet::new(),
            });
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let end = line.find(['{', ' ']).expect("`<sample> <value>`");
        let sample = &line[..end];
        // Histogram samples carry a suffix; the family is what precedes it.
        let name = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|s| sample.strip_suffix(s))
            .find(|base| out.get(*base).is_some_and(|f| f.ty == "histogram"))
            .unwrap_or(sample);
        let family = out
            .get_mut(name)
            .unwrap_or_else(|| panic!("sample `{sample}` precedes its `# TYPE` line"));
        if line[end..].starts_with('{') {
            family.labels.extend(label_keys(&line[end + 1..]));
        }
    }
    out
}

/// The label keys of a `k="v",…}` block (the text after `{`), without
/// `le`. Values may hold escaped quotes.
fn label_keys(block: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = block;
    while let Some((key, after)) = rest.split_once("=\"") {
        if key != "le" {
            keys.push(key.to_string());
        }
        let mut escaped = false;
        let close = after
            .char_indices()
            .find(|&(_, c)| {
                let end = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                end
            })
            .map(|(i, _)| i)
            .expect("label value is closed");
        rest = after[close + 1..].trim_start_matches(',');
    }
    keys
}

/// Every disagreement between the DESIGN §9 catalog and an exposition,
/// one message each.
fn catalog_drift(design: &str, exposition: &str) -> Vec<String> {
    let (rows, duplicates) = catalog(design);
    let live = families(exposition);
    let mut drift: Vec<String> = duplicates
        .iter()
        .map(|n| format!("DESIGN §9 lists `{n}` more than once"))
        .collect();
    for (name, row) in &rows {
        match live.get(name) {
            None => drift.push(format!(
                "DESIGN §9 catalogs `{name}` but no layer registers it"
            )),
            Some(f) if f.ty != row.ty => drift.push(format!(
                "`{name}` is a {} but DESIGN §9 says {}",
                f.ty, row.ty
            )),
            Some(f) if f.labels != row.labels => drift.push(format!(
                "`{name}` has labels {:?} but DESIGN §9 says {:?}",
                f.labels, row.labels
            )),
            Some(_) => {}
        }
    }
    for name in live.keys().filter(|n| !rows.contains_key(*n)) {
        drift.push(format!("`{name}` is registered but has no DESIGN §9 row"));
    }
    drift
}

#[test]
fn design_catalog_matches_the_live_registry() {
    assert_eq!(
        catalog_drift(DESIGN, live_exposition()),
        Vec::<String>::new()
    );
}

#[test]
fn a_deleted_catalog_row_is_reported() {
    let design: String = DESIGN
        .lines()
        .filter(|l| !l.contains("`jigsaw_serve_batch_requests`"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        catalog_drift(&design, live_exposition()),
        ["`jigsaw_serve_batch_requests` is registered but has no DESIGN §9 row"]
    );
}

#[test]
fn a_renamed_registration_is_reported_both_ways() {
    let renamed =
        live_exposition().replace("jigsaw_journal_batch_records", "jigsaw_journal_batch_rows");
    assert_eq!(
        catalog_drift(DESIGN, &renamed),
        [
            "DESIGN §9 catalogs `jigsaw_journal_batch_records` but no layer registers it",
            "`jigsaw_journal_batch_rows` is registered but has no DESIGN §9 row",
        ]
    );
}

#[test]
fn a_changed_type_or_label_is_reported() {
    let retyped = DESIGN.replace(
        "| `jigsaw_serve_connections_open` | gauge |",
        "| `jigsaw_serve_connections_open` | counter |",
    );
    assert_eq!(
        catalog_drift(&retyped, live_exposition()),
        ["`jigsaw_serve_connections_open` is a gauge but DESIGN §9 says counter"]
    );
    let relabeled = DESIGN.replace(
        "| `jigsaw_alloc_rejects_total` | counter | `scheme`, `reason` |",
        "| `jigsaw_alloc_rejects_total` | counter | `scheme` |",
    );
    assert_eq!(
        catalog_drift(&relabeled, live_exposition()),
        [
            r#"`jigsaw_alloc_rejects_total` has labels {"reason", "scheme"} but DESIGN §9 says {"scheme"}"#
        ]
    );
}

#[test]
fn label_keys_skip_le_and_escaped_quotes() {
    assert_eq!(label_keys(r#"scheme="a\"b,c",le="+Inf"} 3"#), ["scheme"]);
    assert_eq!(label_keys("} 1"), Vec::<String>::new());
}

#[test]
fn design_catalog_extracts_section_9_rows_only() {
    let design = "\
## 8. Other\n| `jigsaw_not_this` | counter | — | x |\n\n## 9. Observability\n\n\
| metric | type | labels | source |\n|---|---|---|---|\n\
| `jigsaw_alloc_grants_total` | counter | `scheme` | ObservedAllocator |\n\
| `jigsaw_sim_hits_total` | counter | — | sim engine |\n\n\
## 10. Next\n| `jigsaw_after` | counter | — | x |\n";
    let (rows, duplicates) = catalog(design);
    assert_eq!(
        rows.keys().collect::<Vec<_>>(),
        ["jigsaw_alloc_grants_total", "jigsaw_sim_hits_total"]
    );
    assert_eq!(
        rows["jigsaw_alloc_grants_total"].labels,
        BTreeSet::from(["scheme".to_string()])
    );
    assert!(rows["jigsaw_sim_hits_total"].labels.is_empty());
    assert!(duplicates.is_empty());

    let twice = design.replace(
        "\n\n## 10.",
        "\n| `jigsaw_sim_hits_total` | counter | — | sim engine |\n\n## 10.",
    );
    assert_eq!(catalog(&twice).1, ["jigsaw_sim_hits_total"]);
}
