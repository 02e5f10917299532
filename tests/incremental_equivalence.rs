//! Incremental maintenance beyond "equals a fresh build", which the live
//! and folded rows of `tests/referee_matrix.rs` check after every delta:
//!
//! * `a_long_lived_net_has_a_fresh_builds_node_counts` — 240 deltas of the
//!   default mutation stream over a TUS lake leave a fresh build's nodes;
//! * `incremental_maintenance_is_deterministic` — two runs of one seeded
//!   sequence rank alike;
//! * `dictionary_interning_matches_the_sorted_list_oracle_on_tus_and_sb` —
//!   the lake's interner order and attribute ids are those of interning
//!   each column's sorted distinct list.

mod common;

use domainnet_suite::prelude::*;
use lake::delta::{LakeDelta, MutableLake};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        lake.apply(&LakeDelta::new().add_table(common::random_base_table(&mut rng, 0)))
            .expect("applies");
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());
        for i in 1..=5 {
            let table = common::random_base_table(&mut rng, i);
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
    use lake::value::ValueId;
    use std::collections::HashMap;

    /// A reference interner, a list and a map, independent of the lake's
    /// `TextSet`: each new value gets the next id.
    #[derive(Default)]
    struct Interner {
        values: Vec<String>,
        index: HashMap<String, ValueId>,
    }

    impl Interner {
        fn intern(&mut self, value: &str) -> ValueId {
            let next = ValueId(self.values.len() as u32);
            let id = *self.index.entry(value.to_owned()).or_insert(next);
            if id == next {
                self.values.push(value.to_owned());
            }
            id
        }
    }

    fn sorted_list_ids(oracle: &mut Interner, column: &Column) -> Vec<ValueId> {
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
        let mut oracle = Interner::default();
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
        assert!(
            lake.interner()
                .texts()
                .iter()
                .eq(oracle.values.iter().map(String::as_str)),
            "interner order"
        );
        for (a, want) in want.iter().enumerate() {
            let attr = AttrId(a as u32);
            if lake.is_attr_live(attr) {
                assert_eq!(lake.attribute_values(attr), &want[..], "attribute {a}");
            }
        }
    }
}
