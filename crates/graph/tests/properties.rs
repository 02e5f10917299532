//! Property-style tests for the graph engine.
//!
//! These exercise the CSR construction, betweenness centrality, and LCC on
//! arbitrary randomly-shaped bipartite graphs and check structural invariants
//! that must hold regardless of topology.
//!
//! Originally written with `proptest`; offline they run the same invariants
//! over a fixed number of seeded random graphs instead, so failures reproduce
//! exactly (the failing seed is in the assertion message).

use dn_graph::approx_bc::{approximate_betweenness, ApproxBcConfig};
use dn_graph::bc::{betweenness_centrality, betweenness_centrality_parallel, normalize_scores};
use dn_graph::bipartite::{BipartiteBuilder, BipartiteGraph};
use dn_graph::components::connected_components;
use dn_graph::lcc::{local_clustering_coefficients, LccMethod};
use dn_graph::projection::project_values;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Generate a random edge list over up to `max_values` values and `max_attrs`
/// attributes (some nodes may end up isolated).
fn random_graph(max_values: usize, max_attrs: usize, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let nv = rng.gen_range(1..=max_values);
    let na = rng.gen_range(1..=max_attrs);
    let edge_count = rng.gen_range(0..(nv * na).clamp(1, 200));
    let mut b = BipartiteBuilder::new();
    for i in 0..nv {
        b.add_value(format!("v{i}"));
    }
    for a in 0..na {
        b.add_attribute(format!("a{a}"));
    }
    for _ in 0..edge_count {
        let v = rng.gen_range(0..nv);
        let a = rng.gen_range(0..na);
        b.add_edge(v as u32, a as u32);
    }
    b.build()
}

#[test]
fn csr_invariants_hold() {
    for seed in 0..CASES {
        let g = random_graph(30, 8, seed);
        assert!(g.validate().is_ok(), "seed {seed}");
        // Handshake lemma: sum of degrees equals twice the edge count.
        let degree_sum: usize = g.nodes().map(|n| g.degree(n)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count(), "seed {seed}");
    }
}

#[test]
fn bc_is_non_negative_and_symmetric_across_threads() {
    for seed in 0..CASES {
        let g = random_graph(25, 6, seed);
        let seq = betweenness_centrality(&g);
        let par = betweenness_centrality_parallel(&g, 4);
        assert_eq!(seq.len(), g.node_count(), "seed {seed}");
        for (s, p) in seq.iter().zip(&par) {
            assert!(*s >= -1e-12, "seed {seed}");
            assert!((s - p).abs() < 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn degree_one_values_have_zero_bc() {
    for seed in 0..CASES {
        let g = random_graph(25, 6, seed);
        let bc = betweenness_centrality(&g);
        for v in g.value_nodes() {
            if g.degree(v) <= 1 {
                assert!(
                    bc[v as usize].abs() < 1e-12,
                    "degree-{} value has BC {} (seed {seed})",
                    g.degree(v),
                    bc[v as usize]
                );
            }
        }
    }
}

#[test]
fn normalized_bc_is_in_unit_interval() {
    for seed in 0..CASES {
        let g = random_graph(20, 6, seed);
        let mut bc = betweenness_centrality(&g);
        normalize_scores(&mut bc);
        for s in bc {
            assert!((0.0..=1.0 + 1e-12).contains(&s), "seed {seed}");
        }
    }
}

#[test]
fn full_sampling_equals_exact() {
    for seed in 0..CASES {
        let g = random_graph(18, 5, seed);
        if g.node_count() == 0 {
            continue;
        }
        let exact = betweenness_centrality(&g);
        let approx = approximate_betweenness(
            &g,
            ApproxBcConfig {
                samples: g.node_count(),
                seed: 1,
            },
            2,
        );
        for (e, a) in exact.iter().zip(&approx) {
            assert_eq!(
                e.to_bits(),
                a.to_bits(),
                "exact {e} vs approx {a} (seed {seed})"
            );
        }
    }
}

#[test]
fn lcc_is_bounded_and_consistent() {
    for seed in 0..CASES {
        let g = random_graph(20, 6, seed);
        for method in [LccMethod::ValueNeighborJaccard, LccMethod::AttributeJaccard] {
            let lcc = local_clustering_coefficients(&g, method);
            assert_eq!(lcc.len(), g.value_count(), "seed {seed}");
            for (v, &score) in lcc.iter().enumerate() {
                assert!((0.0..=1.0 + 1e-12).contains(&score), "seed {seed}");
                if g.value_neighbor_count(v as u32) == 0 {
                    assert_eq!(score, 0.0, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn components_partition_the_nodes() {
    for seed in 0..CASES {
        let g = random_graph(25, 6, seed);
        let comps = connected_components(&g);
        assert_eq!(comps.labels.len(), g.node_count(), "seed {seed}");
        let total: usize = comps.sizes.iter().sum();
        assert_eq!(total, g.node_count(), "seed {seed}");
        // Every edge joins nodes of the same component.
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                assert!(comps.connected(v, w), "seed {seed}");
            }
        }
    }
}

#[test]
fn projection_degree_matches_value_neighbor_count() {
    for seed in 0..CASES {
        let g = random_graph(20, 5, seed);
        let proj = project_values(&g);
        assert_eq!(proj.node_count(), g.value_count(), "seed {seed}");
        let bulk = g.value_neighbor_counts();
        assert_eq!(bulk.len(), g.value_count(), "seed {seed}");
        for v in g.value_nodes() {
            assert_eq!(proj.degree(v), g.value_neighbor_count(v), "seed {seed}");
            assert_eq!(bulk[v as usize], g.value_neighbor_count(v), "seed {seed}");
        }
    }
}
