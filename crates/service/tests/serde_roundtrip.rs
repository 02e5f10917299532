//! JSON round-trip coverage for every service-layer response type.
//!
//! These types cross the process boundary now (the `dn-server` crate
//! serves them over HTTP), so their serde derives are load-bearing: each
//! test serializes a *real* value produced by the engine, deserializes it
//! back, and asserts full equality — scores compared bit-exactly, since
//! both the vendored writer and Rust's float parsing use
//! shortest-round-trip formatting.

use dn_service::{
    serve_sharded, AttributeNeighborhood, CacheStats, ScoreCard, ServiceConfig, SnapshotStats,
    TableSummary, ValueExplanation,
};
use domainnet::Measure;
use lake::delta::MutableLake;

fn service() -> dn_service::CoordinatorHandle {
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let (service, _coordinator) = serve_sharded(
        lake,
        ServiceConfig {
            measures: vec![Measure::lcc(), Measure::exact_bc()],
            cache_capacity: 8,
            prune_single_attribute_values: false,
            threads: 1,
        },
        1,
    );
    service
}

#[test]
fn score_card_round_trips() {
    let snapshot = service().current();
    for measure in [Measure::lcc(), Measure::exact_bc()] {
        let card = snapshot.score_card(measure, "Jaguar").expect("live value");
        let json = serde_json::to_string(&card).unwrap();
        let back: ScoreCard = serde_json::from_str(&json).unwrap();
        assert_eq!(back.value, card.value);
        assert_eq!(back.measure, card.measure);
        assert_eq!(
            back.score.to_bits(),
            card.score.to_bits(),
            "bit-exact score"
        );
        assert_eq!(back.rank, card.rank);
        assert_eq!(back.of, card.of);
        assert_eq!(
            back.percentile.to_bits(),
            card.percentile.to_bits(),
            "bit-exact percentile"
        );
        assert_eq!(back.attribute_count, card.attribute_count);
        assert_eq!(back.cardinality, card.cardinality);
        assert_eq!(back, card, "PartialEq agrees field-by-field");
    }
}

#[test]
fn value_explanation_round_trips() {
    let snapshot = service().current();
    let explanation = snapshot.explain("Jaguar").expect("live value");
    assert!(
        explanation.attributes.len() >= 2,
        "the homograph spans attributes"
    );
    let json = serde_json::to_string(&explanation).unwrap();
    let back: ValueExplanation = serde_json::from_str(&json).unwrap();
    assert_eq!(back, explanation);
    // Nested AttributeNeighborhood entries round-trip standalone too.
    let attr = explanation.attributes[0].clone();
    let json = serde_json::to_string(&attr).unwrap();
    let back: AttributeNeighborhood = serde_json::from_str(&json).unwrap();
    assert_eq!(back, attr);
}

#[test]
fn table_summary_round_trips() {
    let snapshot = service().current();
    let summary = snapshot
        .table_summary("T1", Measure::exact_bc(), 3)
        .expect("table T1 exists");
    assert!(!summary.top.is_empty());
    let json = serde_json::to_string(&summary).unwrap();
    let back: TableSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(back.table, summary.table);
    assert_eq!(back.attribute_count, summary.attribute_count);
    assert_eq!(back.candidate_values, summary.candidate_values);
    assert_eq!(back.incidence_count, summary.incidence_count);
    assert_eq!(back.top.len(), summary.top.len());
    for (a, b) in back.top.iter().zip(summary.top.iter()) {
        assert_eq!(a.value, b.value);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

#[test]
fn snapshot_stats_round_trip() {
    let stats = service().current().stats();
    let json = serde_json::to_string(&stats).unwrap();
    let back: SnapshotStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
}

#[test]
fn cache_stats_round_trip() {
    let service = service();
    let reader = service.reader();
    let _ = reader.top_k(Measure::lcc(), 5);
    let _ = reader.top_k(Measure::lcc(), 5);
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    let json = serde_json::to_string(&stats).unwrap();
    let back: CacheStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
}
