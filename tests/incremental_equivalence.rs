//! Property test: incremental maintenance is equivalent to rebuilding.
//!
//! For 100+ seeded random mutation sequences (table adds, removes, re-adds,
//! and cell rewrites), applying every delta incrementally — `MutableLake::
//! apply` + `DomainNet::apply_delta` — must leave the model equivalent to a
//! from-scratch build of the final lake state:
//!
//! * identical node sets (value labels and attribute labels),
//! * identical edge sets (value label, attribute label),
//! * LCC and exact-BC scores equal per value within 1e-9. The tolerance covers
//!   the id space only: that reference is built by `MutableLake::from_tables`
//!   over the live tables, which re-derives a dense lake with a completely
//!   independent id space (dead attribute slots and values the lake no
//!   longer holds are gone), so its nodes sum in another order.
//!
//! After every step the maintained net must also be a fresh build of the
//! *same* lake: the same CSR arrays, labels and node counts, and LCC,
//! exact-BC and sampled-BC scores bit for bit. A net is a function of its
//! lake, whatever deltas led there, and the snapshot format rests on that
//! (it stores no graph, no node ids and no delta count). Exact BC is bits
//! because its chunks are laid out per component, so a pass over the
//! touched components sums a node's score as a whole-graph pass does;
//! sampled BC because a delta re-draws it from the whole graph with the
//! build's seed.

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
        // Warm every cache so each delta exercises the patch path.
        let _ = net.rank(Measure::lcc());
        let _ = net.rank(Measure::exact_bc());
        let _ = net.rank(Measure::approx_bc(8, 7));

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
                    if lake.table_count() == 1 {
                        continue;
                    }
                    let name = live[rng.gen_range(0..live.len())].clone();
                    removed.push(lake.table(&name).expect("live table"));
                    LakeDelta::new().remove_table(name)
                }
                _ => {
                    let name = live[rng.gen_range(0..live.len())].clone();
                    let table = lake.table(&name).expect("live table");
                    let col = &table.columns()[rng.gen_range(0..table.column_count())];
                    let col_name = col.name().to_owned();
                    let distinct = col.distinct_values();
                    if distinct.is_empty() {
                        continue;
                    }
                    let target = distinct[rng.gen_range(0..distinct.len())].to_owned();
                    let replacement = format!("Swap{}", rng.gen_range(0..30u32));
                    LakeDelta::new().replace_value(name, col_name, &target, replacement)
                }
            };
            let effects = lake.apply(&delta).expect("generated ops apply");
            net.apply_delta(&lake, &effects)
                .expect("effects match the maintained net");
            net.graph().validate().expect("derived CSR is consistent");
            common::assert_net_is_a_fresh_build(&lake, &net, &format!("seq {seq} step {step}"));
        }

        // From-scratch reference over a fully independent id space.
        let compact = MutableLake::from_tables(lake.tables()).expect("live tables are well-formed");
        let fresh = builder.build(&compact);
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

/// A long-lived net has exactly a fresh build's nodes: a value or attribute
/// that stops qualifying loses its node. 240 single-table deltas of the
/// default mutation stream over a TUS lake at a fifth of the default scale
/// (the lake `serve_write_heavy` serves) grow the attribute slots a net
/// that keeps such nodes holds to 504, against the 342 a build has.
#[test]
fn a_long_lived_net_has_a_fresh_builds_node_counts() {
    let scaled = |base: usize, min: usize| ((base as f64 * 0.2).round() as usize).max(min);
    let base = TusConfig::default();
    let generated = TusGenerator::new(TusConfig {
        seed: 2021,
        domain_count: scaled(base.domain_count, 8),
        max_domain_vocab: scaled(base.max_domain_vocab, 60),
        rows_per_source: scaled(base.rows_per_source, 60),
        shared_pool_size: scaled(base.shared_pool_size, 20),
        ..base
    })
    .generate();
    let mut lake = MutableLake::from_tables(generated.catalog.tables())
        .expect("generated tables are well-formed");
    let mut net = DomainNetBuilder::new().build(&lake);
    let mut stream = MutationStream::new(MutationConfig::default());
    for _ in 0..240 {
        let effects = lake
            .apply(&stream.next_delta(&lake))
            .expect("stream deltas apply");
        net.apply_delta(&lake, &effects)
            .expect("effects match the maintained net");
    }
    let fresh = DomainNetBuilder::new().build(&lake);
    assert_eq!(
        (net.candidate_count(), net.attribute_count()),
        (fresh.candidate_count(), fresh.attribute_count())
    );
    common::assert_net_is_a_fresh_build(&lake, &net, "after 240 deltas");
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

/// The lake interns each column straight from its dictionary, sorting only
/// the values its interner lacks. Its interner order and every live
/// attribute's ids must be those of interning each column's sorted
/// distinct list in order, on the generated lakes of the paper's
/// evaluation: TUS small and SB added whole, a third of their tables
/// removed and re-added, then a replacement in every seventh column, onto
/// a value the lake knows or onto a new one.
#[test]
fn dictionary_interning_matches_the_sorted_list_oracle_on_tus_and_sb() {
    use lake::catalog::AttrId;
    use lake::column::Column;
    use lake::delta::LakeOp;
    use lake::value::{ValueId, ValueInterner};

    fn sorted_list_ids(oracle: &mut ValueInterner, column: &Column) -> Vec<ValueId> {
        let mut ids: Vec<ValueId> = column
            .distinct_values()
            .iter()
            .map(|v| oracle.intern(v))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    for generated in [
        TusGenerator::new(TusConfig::small(7)).generate(),
        SbGenerator::new(2021).generate(),
    ] {
        let tables: Vec<lake::Table> = generated.catalog.tables().collect();
        let thirds: Vec<&lake::Table> = tables.iter().step_by(3).collect();
        let mut deltas: Vec<LakeDelta> = tables
            .iter()
            .map(|t| LakeDelta::new().add_table(t.clone()))
            .collect();
        deltas.extend(
            thirds
                .iter()
                .map(|t| LakeDelta::new().remove_table(t.name())),
        );
        deltas.extend(
            thirds
                .iter()
                .map(|&t| LakeDelta::new().add_table(t.clone())),
        );
        let columns = tables
            .iter()
            .flat_map(|t| t.columns().iter().map(move |c| (t.name(), c)));
        for (i, (table, column)) in columns.enumerate().step_by(7) {
            let distinct = column.distinct_values();
            if distinct.is_empty() {
                continue;
            }
            let replacement = match i % 2 {
                0 => tables[i % tables.len()].columns()[0].cells()[0].to_owned(),
                _ => format!("Injected{i}"),
            };
            deltas.push(LakeDelta::new().replace_value(
                table,
                column.name(),
                &distinct[0],
                replacement,
            ));
        }

        let mut lake = MutableLake::new();
        let mut oracle = ValueInterner::new();
        let mut want: Vec<Vec<ValueId>> = Vec::new();
        for (step, delta) in deltas.iter().enumerate() {
            lake.apply(delta)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            match &delta.ops()[0] {
                LakeOp::AddTable(t) => {
                    want.extend(t.columns().iter().map(|c| sorted_list_ids(&mut oracle, c)));
                }
                LakeOp::RemoveTable(_) => {}
                LakeOp::ReplaceValue { table, column, .. } => {
                    let attr = lake.attribute_id(table, column).expect("live column");
                    let table = lake.table(table).unwrap();
                    let column = table.column(column).unwrap();
                    want[attr.index()] = sorted_list_ids(&mut oracle, column);
                }
            }
        }
        assert!(lake.interner().iter().eq(oracle.iter()), "interner order");
        for (a, want) in want.iter().enumerate() {
            let attr = AttrId(a as u32);
            if lake.is_attr_live(attr) {
                assert_eq!(lake.attribute_values(attr), &want[..], "attribute {a}");
            }
        }
    }
}
