//! Property-style integration tests over randomly generated lakes: whatever
//! the lake looks like, the pipeline's structural invariants must hold.
//!
//! These originally used `proptest`; offline they run the same invariants
//! over a fixed number of seeded random lakes instead, so failures reproduce
//! exactly (the failing seed is in the assertion message).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use domainnet::pipeline::DomainNetBuilder;
use domainnet::Measure;
use lake::catalog::LakeCatalog;
use lake::table::TableBuilder;

const CASES: u64 = 48;

/// Generate a small random lake: a handful of tables, each with a couple of
/// columns drawing values from a shared pool (so repeats and homograph-like
/// bridges occur naturally).
fn random_lake(seed: u64) -> LakeCatalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = LakeCatalog::new();
    let tables = rng.gen_range(1..5);
    for t in 0..tables {
        let cols = rng.gen_range(1usize..4);
        let rows = rng.gen_range(2usize..12);
        let mut builder = TableBuilder::new(format!("t{t}"));
        for c in 0..cols {
            let cells: Vec<String> = (0..rows)
                .map(|_| format!("val_{}", rng.gen_range(0u32..40)))
                .collect();
            builder = builder.column(format!("c{c}"), cells);
        }
        catalog
            .add_table(builder.build().expect("rectangular by construction"))
            .expect("unique table names");
    }
    catalog
}

#[test]
fn ranking_covers_exactly_the_candidates() {
    for seed in 0..CASES {
        let lake = random_lake(seed);
        let net = DomainNetBuilder::new().build(&lake);
        let candidates = lake.values_in_at_least(2).len();
        assert_eq!(net.candidate_count(), candidates, "seed {seed}");

        for measure in [Measure::exact_bc(), Measure::lcc()] {
            let ranked = net.rank(measure);
            assert_eq!(ranked.len(), candidates, "seed {seed}");
            // Every ranked value really does occur in >= 2 attributes.
            for s in &ranked {
                assert!(s.attribute_count >= 2, "seed {seed}");
                let vid = lake
                    .value_id(&s.value)
                    .expect("ranked value exists in the lake");
                assert_eq!(
                    lake.value_attribute_count(vid),
                    s.attribute_count,
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn scores_are_finite_and_ordering_is_consistent() {
    for seed in 0..CASES {
        let lake = random_lake(seed);
        let net = DomainNetBuilder::new().build(&lake);
        let ranked = net.rank(Measure::exact_bc());
        for w in ranked.windows(2) {
            assert!(
                w[0].score + 1e-12 >= w[1].score,
                "BC ranking must be non-increasing (seed {seed})"
            );
        }
        for s in &ranked {
            assert!(s.score.is_finite(), "seed {seed}");
            assert!(s.score >= -1e-9, "seed {seed}");
        }
        let lcc = net.rank(Measure::lcc());
        for w in lcc.windows(2) {
            assert!(
                w[0].score <= w[1].score + 1e-12,
                "LCC ranking must be non-decreasing (seed {seed})"
            );
        }
        for s in &lcc {
            assert!((0.0..=1.0 + 1e-9).contains(&s.score), "seed {seed}");
        }
    }
}

#[test]
fn unpruned_graph_matches_lake_shape() {
    for seed in 0..CASES {
        let lake = random_lake(seed);
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        assert_eq!(net.candidate_count(), lake.value_count(), "seed {seed}");
        assert_eq!(net.attribute_count(), lake.attribute_count(), "seed {seed}");
        assert_eq!(net.edge_count(), lake.incidence_count(), "seed {seed}");
        assert!(net.graph().validate().is_ok(), "seed {seed}");
    }
}

/// `derive` fills the CSR straight from the lake's sorted rows, with no
/// edge list beside it; a `BipartiteBuilder` sorts and de-duplicates one
/// first. On the running example, a seeded TUS lake and the random lakes,
/// pruned and not, the net's graph must be the one a builder gives for the
/// same numbering (candidates in value-id order, then the attributes
/// holding one in attribute-id order), fed its edges attribute by
/// attribute and each one twice.
#[test]
fn derived_csr_is_the_builders_csr() {
    use dn_graph::bipartite::BipartiteBuilder;

    let tus = datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(7)).generate();
    let lakes = [lake::fixtures::running_example(), tus.catalog]
        .into_iter()
        .chain((0..CASES).map(|seed| random_lake(seed + 0xC5A)));
    let mut edges = 0;
    for (case, lake) in lakes.enumerate() {
        for prune in [false, true] {
            let net = DomainNetBuilder::new()
                .prune_single_attribute_values(prune)
                .build(&lake);
            let values = lake.values_in_at_least(if prune { 2 } else { 1 });
            let mut attrs: Vec<_> = values
                .iter()
                .flat_map(|&v| lake.value_attributes(v).iter().copied())
                .collect();
            attrs.sort_unstable();
            attrs.dedup();
            let mut builder = BipartiteBuilder::new();
            for &v in &values {
                builder.add_value(lake.value(v).unwrap());
            }
            for &a in &attrs {
                builder.add_attribute(lake.attribute_ref(a).unwrap().qualified());
            }
            for (index, &a) in attrs.iter().enumerate() {
                for &v in lake.attribute_values(a) {
                    if let Ok(node) = values.binary_search(&v) {
                        builder.add_edge(node as u32, index as u32);
                        builder.add_edge(node as u32, index as u32);
                    }
                }
            }
            let built = builder.build();
            let graph = net.graph();
            edges += graph.edge_count();
            assert_eq!(graph.csr_offsets(), built.csr_offsets(), "case {case}");
            assert_eq!(graph.csr_adjacency(), built.csr_adjacency(), "case {case}");
            assert_eq!(graph.value_labels(), built.value_labels(), "case {case}");
            for a in 0..graph.attribute_count() as u32 {
                assert_eq!(graph.attribute_label(a), built.attribute_label(a));
            }
        }
    }
    assert!(edges > 10_000, "{edges} edges in all");
}
