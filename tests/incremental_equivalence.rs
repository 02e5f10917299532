//! Property test: incremental maintenance is equivalent to rebuilding.
//!
//! For 100+ seeded random mutation sequences (table adds, removes, re-adds,
//! and cell rewrites), applying every delta incrementally — `MutableLake::
//! apply` + `DomainNet::apply_delta` — must leave the model equivalent to a
//! from-scratch build of the final lake state:
//!
//! * identical live node sets (value labels and attribute labels),
//! * identical live edge sets (value label, attribute label),
//! * LCC and exact-BC scores equal per value within 1e-9. The tolerance covers
//!   node layout only: the fresh build numbers nodes differently and so sums
//!   in a different neighbour order. On the maintained graph itself LCC is
//!   `to_bits()`-equal to a kernel pass after every step (no drift).
//!
//! The from-scratch reference is built from `MutableLake::snapshot()`, which
//! re-derives a dense `LakeCatalog` with a completely independent id space,
//! so the comparison exercises the full stable-id machinery.
//!
//! After every step the maintained graph must also equal, CSR for CSR, the
//! graph `DomainNet::from_parts` derives from the lake and the net's own id
//! maps: the equality snapshot format 3 rests on (it stores no graph).

mod common;

use std::collections::{BTreeMap, BTreeSet};

use domainnet_suite::prelude::*;
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const POOLS: &[(&str, &[&str])] = &[
    (
        "animal",
        &[
            "Jaguar", "Puma", "Panda", "Lemur", "Pelican", "Okapi", "Colt", "Falcon", "Eagle",
        ],
    ),
    (
        "brand",
        &[
            "Jaguar", "Puma", "Fiat", "Toyota", "Apple", "Colt", "Falcon", "Rover",
        ],
    ),
    (
        "city",
        &[
            "Memphis", "Sydney", "Austin", "Phoenix", "Jamaica", "Victoria", "Atlanta",
        ],
    ),
    (
        "name",
        &[
            "Sydney",
            "Victoria",
            "Charlotte",
            "Austin",
            "Phoenix",
            "Savannah",
            "Olive",
        ],
    ),
];

fn random_table(rng: &mut StdRng, name: &str) -> lake::Table {
    let n_cols = rng.gen_range(1..=3usize);
    let rows = rng.gen_range(2..=8usize);
    let mut pools: Vec<&(&str, &[&str])> = POOLS.iter().collect();
    pools.shuffle(rng);
    let mut builder = TableBuilder::new(name);
    for (col, pool) in pools.into_iter().take(n_cols) {
        let cells: Vec<String> = (0..rows)
            .map(|_| (*pool.choose(rng).expect("pool non-empty")).to_owned())
            .collect();
        builder = builder.column(*col, cells);
    }
    builder.build().expect("rectangular by construction")
}

/// Live (value label, attribute label) edge set of a maintained net.
fn live_edges(net: &DomainNet) -> BTreeSet<(String, String)> {
    let graph = net.graph();
    let mut edges = BTreeSet::new();
    for v in graph.value_nodes() {
        for &a in graph.neighbors(v) {
            edges.insert((
                graph.value_label(v).to_owned(),
                graph.node_label(a).to_owned(),
            ));
        }
    }
    edges
}

fn live_values(net: &DomainNet) -> BTreeSet<String> {
    let graph = net.graph();
    graph
        .value_nodes()
        .filter(|&v| graph.degree(v) > 0)
        .map(|v| graph.value_label(v).to_owned())
        .collect()
}

fn score_map(net: &DomainNet, measure: Measure) -> BTreeMap<String, f64> {
    net.rank(measure)
        .into_iter()
        .map(|s| (s.value, s.score))
        .collect()
}

fn assert_equivalent(seq: u64, step: usize, incremental: &DomainNet, fresh: &DomainNet) {
    assert_eq!(
        live_values(incremental),
        live_values(fresh),
        "seq {seq} step {step}: live value sets diverged"
    );
    assert_eq!(
        live_edges(incremental),
        live_edges(fresh),
        "seq {seq} step {step}: live edge sets diverged"
    );
    for measure in [Measure::lcc(), Measure::exact_bc()] {
        let a = score_map(incremental, measure);
        let b = score_map(fresh, measure);
        assert_eq!(
            a.len(),
            b.len(),
            "seq {seq} step {step}: ranking sizes under {}",
            measure.name()
        );
        for (value, score) in &a {
            let reference = b
                .get(value)
                .unwrap_or_else(|| panic!("seq {seq} step {step}: {value} missing from fresh"));
            assert!(
                (score - reference).abs() < 1e-9,
                "seq {seq} step {step}: {value} scored {score} vs {reference} under {}",
                measure.name()
            );
        }
    }
}

#[test]
fn random_mutation_sequences_match_from_scratch_builds() {
    let sequences = 110u64;
    for seq in 0..sequences {
        let mut rng = StdRng::seed_from_u64(0xD0_17A + seq);

        // Random base lake of 2-4 tables.
        let mut lake = MutableLake::new();
        let mut next_id = 0usize;
        let base_delta = (0..rng.gen_range(2..=4usize)).fold(LakeDelta::new(), |delta, _| {
            let table = random_table(&mut rng, &format!("base_{next_id}"));
            next_id += 1;
            delta.add_table(table)
        });
        lake.apply(&base_delta).expect("base lake applies");

        let builder = DomainNetBuilder::new().prune_single_attribute_values(seq % 2 == 0);
        let mut net = builder.build(&lake);
        // Warm both caches so each delta exercises the patch path.
        let _ = net.rank(Measure::lcc());
        let _ = net.rank(Measure::exact_bc());

        let mut removed: Vec<lake::Table> = Vec::new();
        let steps = rng.gen_range(3..=8usize);
        for step in 0..steps {
            // Pick a random applicable op.
            let live: Vec<String> = lake
                .live_table_names()
                .into_iter()
                .map(str::to_owned)
                .collect();
            let delta = match rng.gen_range(0..4u32) {
                // Add a fresh table, or re-add a removed one (value revival).
                0 | 1 => {
                    if let (true, Some(pos)) = (
                        rng.gen_bool(0.3) && !removed.is_empty(),
                        (!removed.is_empty()).then(|| rng.gen_range(0..removed.len())),
                    ) {
                        LakeDelta::new().add_table(removed.swap_remove(pos))
                    } else {
                        let table = random_table(&mut rng, &format!("t_{next_id}"));
                        next_id += 1;
                        LakeDelta::new().add_table(table)
                    }
                }
                2 => {
                    // Keep at least one live table so the lake never empties.
                    if lake.live_table_count() == 1 {
                        continue;
                    }
                    let name = live[rng.gen_range(0..live.len())].clone();
                    removed.push(lake.table(&name).expect("live table").clone());
                    LakeDelta::new().remove_table(name)
                }
                _ => {
                    let name = live[rng.gen_range(0..live.len())].clone();
                    let table = lake.table(&name).expect("live table");
                    let col = &table.columns()[rng.gen_range(0..table.column_count())];
                    let col_name = col.name().to_owned();
                    let distinct: Vec<String> = col.distinct_values().map(str::to_owned).collect();
                    if distinct.is_empty() {
                        continue;
                    }
                    let target = distinct[rng.gen_range(0..distinct.len())].clone();
                    let replacement = format!("Swap{}", rng.gen_range(0..30u32));
                    LakeDelta::new().replace_value(name, col_name, &target, replacement)
                }
            };
            let effects = lake.apply(&delta).expect("generated ops apply");
            net.apply_delta(&lake, &effects)
                .expect("effects match the maintained net");
            net.graph().validate().expect("derived CSR is consistent");
            common::assert_graph_is_derived(&lake, &net, &format!("seq {seq} step {step}"));

            // History freedom: a maintained LCC score is a function of the
            // maintained graph alone, bit for bit, tombstones included (at 0).
            let maintained = net.raw_scores(Measure::lcc());
            let kernel = dn_graph::lcc::local_clustering_coefficients(
                net.graph(),
                dn_graph::lcc::LccMethod::ValueNeighborJaccard,
            );
            assert_eq!(maintained.len(), kernel.len(), "seq {seq} step {step}");
            for (node, (kept, recomputed)) in maintained.iter().zip(&kernel).enumerate() {
                assert_eq!(
                    kept.to_bits(),
                    recomputed.to_bits(),
                    "seq {seq} step {step}: node {node} carries {kept}, the kernel gives {recomputed}"
                );
                if net.graph().degree(node as u32) == 0 {
                    assert_eq!(
                        kept.to_bits(),
                        0.0f64.to_bits(),
                        "seq {seq} step {step}: tombstone {node}"
                    );
                }
            }
        }

        // From-scratch reference over a fully independent id space.
        let snapshot = lake.snapshot().expect("live tables are well-formed");
        let fresh = builder.build(&snapshot);
        assert_equivalent(seq, steps, &net, &fresh);

        // The incremental component structure matches a fresh computation.
        let fresh_components = dn_graph::components::connected_components(net.graph());
        assert_eq!(
            net.components().count(),
            fresh_components.count(),
            "seq {seq}: component counts diverged"
        );
    }
}

#[test]
fn incremental_maintenance_is_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(random_table(&mut rng, "base")))
            .expect("applies");
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());
        for i in 0..5 {
            let table = random_table(&mut rng, &format!("t{i}"));
            let effects = lake
                .apply(&LakeDelta::new().add_table(table))
                .expect("applies");
            net.apply_delta(&lake, &effects).expect("patch applies");
        }
        net.rank(Measure::lcc())
    };
    assert_eq!(run(), run());
}
