//! Exposition pin: the full `/metrics` text of one fixed scenario —
//! recorded requests and connections, phase observations, a durable
//! two-shard coordinator, follower gauges and ingest gauges — compared
//! line-set-for-line-set against `tests/metrics_exposition.txt`
//! (`dn_uptime_seconds` masked). Every family the server can expose is in
//! the scenario, so a renderer change that moves, renames, re-types or
//! drops a line fails here. Regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test metrics_exposition
//! ```
//!
//! The phase histograms are process-global: nothing else in this binary
//! may observe a phase. The second test holds `docs/OBSERVABILITY.md`'s
//! metric reference to the registry's family table.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;

use common::{config, table, test_dir};
use dn_server::metrics::{Metrics, Route};
use dn_service::{serve_sharded_durable, CheckpointPolicy, ReplicaShared};
use dn_trace::Phase;
use domainnet::Measure;
use lake::delta::{LakeDelta, MutableLake};

/// The exposition as a set of lines, with the one wall-clock value masked.
fn line_set(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|line| match line.strip_prefix("dn_uptime_seconds ") {
            Some(_) => "dn_uptime_seconds <masked>".to_owned(),
            None => line.to_owned(),
        })
        .collect()
}

#[test]
fn exposition_matches_the_committed_text() {
    // Phases: one bucket-interior value, one on a bound, and three beyond
    // 250 ms (the heavy-delta and WAL-replay tails).
    for (phase, micros) in [
        (Phase::Route, 40),
        (Phase::Route, 700),
        (Phase::CoordCommit, 30_000),
        (Phase::CoordScatter, 120),
        (Phase::ShardApply, 260_000),
        (Phase::PoolWalReplay, 810_000),
        (Phase::PoolWalReplay, 6_000_000),
    ] {
        dn_trace::observe(phase, micros);
    }

    let metrics = Metrics::new();
    for (route, status, micros) in [
        (Route::Healthz, 200, 10),
        (Route::Metrics, 200, 300),
        (Route::TopK, 200, 120),
        (Route::TopK, 200, 3_000),
        (Route::Score, 404, 40),
        (Route::Mutations, 200, 38_000),
        (Route::Mutations, 500, 900_000),
        (Route::Other, 404, 75),
    ] {
        metrics.record(route, status, micros);
    }
    for _ in 0..3 {
        metrics.record_connection();
    }

    // A durable two-shard primary: two components per shard, a commit, a
    // manual checkpoint, one more commit per shard, and a cached read.
    let dir = test_dir("metrics_pin");
    let mut lake = MutableLake::new();
    lake.apply(
        &LakeDelta::new()
            .add_table(table("zoo", "animal", &["Jaguar", "Okapi", "Zebra"]))
            .add_table(table("cars", "make", &["Jaguar", "Fiat", "Kia"]))
            .add_table(table("fx", "code", &["USD", "EUR", "JPY"]))
            .add_table(table("cities", "city", &["Memphis", "Sydney", "Austin"])),
    )
    .expect("base lake applies");
    let (handle, mut coordinator) =
        serve_sharded_durable(lake, config(), &dir, CheckpointPolicy::manual(), 2)
            .expect("fresh sharded store");
    coordinator
        .apply_and_publish(LakeDelta::new().add_table(table("pets", "animal", &["Okapi", "Gecko"])))
        .expect("first commit");
    assert!(coordinator.checkpoint_now().expect("checkpoint"));
    coordinator
        .apply_and_publish(LakeDelta::new().add_table(table("money", "code", &["USD", "CHF"])))
        .expect("second commit");
    coordinator
        .apply_and_publish(LakeDelta::new().add_table(table(
            "birds",
            "animal",
            &["Zebra", "Heron"],
        )))
        .expect("third commit");
    let reader = handle.reader();
    for _ in 0..3 {
        reader.top_k(Measure::exact_bc(), 5).expect("bc is served");
    }

    let replica = ReplicaShared::default();
    replica.lag_epochs.set(2);
    replica.divergence_total.inc();

    let ingest = dn_ingest::IngestStats::new();
    ingest.files_seen.add(12);
    ingest.batches_applied.add(4);
    ingest.rows_diffed.add(320);
    ingest.retries.inc();
    ingest.torn_files.add(2);
    ingest.lag_millis.set(250);

    let text = metrics.render(&handle, Some(&replica), Some(&ingest));
    drop(coordinator);
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/metrics_exposition.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write expected exposition");
        println!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("committed expected exposition");
    for family in dn_trace::metrics::FAMILIES {
        let header = format!("# TYPE {} {}\n", family.name, family.kind.as_str());
        assert!(expected.contains(&header), "the pin never exposes {header}");
    }
    let (expected, actual) = (line_set(&expected), line_set(&text));
    let missing: Vec<&String> = expected.difference(&actual).collect();
    let unexpected: Vec<&String> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "exposition drifted from tests/metrics_exposition.txt\n\
         missing: {missing:#?}\nunexpected: {unexpected:#?}"
    );
}

/// Every family in the registry's table has a row in the metric reference
/// of `docs/OBSERVABILITY.md` with the same kind and labels, and the
/// reference names no family the registry lacks.
#[test]
fn the_metric_reference_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(&path).expect("docs/OBSERVABILITY.md");
    let reference = doc
        .split("\n## ")
        .find(|section| section.starts_with("Metric reference"))
        .expect("a `## Metric reference` section");
    // `| `family` | kind | `label`, `label` | owner | meaning |`
    let documented: BTreeSet<String> = reference
        .lines()
        .filter(|line| line.starts_with("| `dn_"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let labels: Vec<&str> = cells[3]
                .split(',')
                .map(|label| label.trim().trim_matches('`'))
                .filter(|label| *label != "—")
                .collect();
            format!("{} {} {labels:?}", cells[1].trim_matches('`'), cells[2])
        })
        .collect();
    let declared: BTreeSet<String> = dn_trace::metrics::FAMILIES
        .iter()
        .map(|f| format!("{} {} {:?}", f.name, f.kind.as_str(), f.labels))
        .collect();
    let undocumented: Vec<&String> = declared.difference(&documented).collect();
    let unknown: Vec<&String> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "docs/OBSERVABILITY.md's metric reference and dn_trace::metrics::FAMILIES disagree\n\
         in the registry, not (or differently) in the doc: {undocumented:#?}\n\
         in the doc, not (or differently) in the registry: {unknown:#?}"
    );
    assert_eq!(
        declared.len(),
        dn_trace::metrics::FAMILIES.len(),
        "duplicate family"
    );
}
