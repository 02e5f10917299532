//! Additional centrality measures used for ablation studies.
//!
//! The paper motivates betweenness centrality by contrasting it with the
//! local clustering coefficient; footnote 2 mentions a further variant the
//! authors tried (restricting the shortest-path endpoints to value nodes),
//! and degree and harmonic centrality are the obvious cheaper alternatives a
//! practitioner would reach for first. This module implements all of them so
//! the `measure_ablation` bench and the experiments can quantify why full BC
//! is worth its cost.

use std::collections::VecDeque;

use crate::bipartite::BipartiteGraph;

/// Degree centrality of every value node: simply the number of attributes the
/// value occurs in. The crudest homograph signal ("appears in many columns").
pub fn degree_centrality(graph: &BipartiteGraph) -> Vec<f64> {
    graph
        .value_nodes()
        .map(|v| graph.degree(v) as f64)
        .collect()
}

/// Cardinality centrality: the number of distinct values a value co-occurs
/// with, |N(v)|. A slightly better crude signal than degree (it accounts for
/// attribute sizes) but still purely local.
pub fn cardinality_centrality(graph: &BipartiteGraph) -> Vec<f64> {
    graph
        .value_neighbor_counts()
        .into_iter()
        .map(|count| count as f64)
        .collect()
}

/// Harmonic centrality of every node: `Σ_{w ≠ v} 1 / d(v, w)` with `1/∞ = 0`.
///
/// A global measure like BC but about *closeness* rather than *brokerage*;
/// included to show that being near everything is not the same as bridging
/// meanings.
pub fn harmonic_centrality(graph: &BipartiteGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut scores = vec![0.0; n];
    let mut dist = vec![-1i64; n];
    let mut queue = VecDeque::new();
    for source in graph.nodes() {
        dist.iter_mut().for_each(|d| *d = -1);
        dist[source as usize] = 0;
        queue.clear();
        queue.push_back(source);
        let mut total = 0.0;
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            if dv > 0 {
                total += 1.0 / dv as f64;
            }
            for &w in graph.neighbors(v) {
                if dist[w as usize] < 0 {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        scores[source as usize] = total;
    }
    scores
}

/// Betweenness centrality where only **value nodes** act as shortest-path
/// endpoints (footnote 2 of the paper). Intermediate nodes may still be of
/// either kind; only the source/target pairs are restricted.
///
/// Returned scores cover every node (attribute nodes included) so they can be
/// compared against [`crate::bc::betweenness_centrality`] directly.
pub fn betweenness_centrality_value_endpoints(graph: &BipartiteGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut bc = vec![0.0; n];
    // Brandes' backward sweep, with two changes: only value nodes act as
    // sources, and only value-node targets seed dependency mass (attribute
    // targets contribute zero), so the sum matches Equation 2 restricted to
    // value-node endpoint pairs.
    let mut dist = vec![-1i64; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    for source in graph.value_nodes() {
        dist.iter_mut().for_each(|d| *d = -1);
        sigma.iter_mut().for_each(|s| *s = 0.0);
        delta.iter_mut().for_each(|d| *d = 0.0);
        order.clear();
        queue.clear();

        dist[source as usize] = 0;
        sigma[source as usize] = 1.0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v as usize];
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if dist[wi] < 0 {
                    dist[wi] = dv + 1;
                    queue.push_back(w);
                }
                if dist[wi] == dv + 1 {
                    sigma[wi] += sigma[v as usize];
                }
            }
        }
        // Backward sweep: only value-node targets seed dependency mass.
        for &w in order.iter().rev() {
            let wi = w as usize;
            let target_mass = if graph.is_value_node(w) && w != source {
                1.0
            } else {
                0.0
            };
            let coeff = (target_mass + delta[wi]) / sigma[wi];
            for &p in graph.neighbors(w) {
                let pi = p as usize;
                if dist[pi] + 1 == dist[wi] {
                    delta[pi] += sigma[pi] * coeff;
                }
            }
            if w != source {
                bc[wi] += delta[wi];
            }
        }
    }
    for score in &mut bc {
        *score /= 2.0;
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::betweenness_centrality;
    use crate::bipartite::BipartiteBuilder;

    fn bridge_graph() -> (BipartiteGraph, u32) {
        let mut b = BipartiteBuilder::new();
        let bridge = b.add_value("bridge");
        let a0 = b.add_attribute("a0");
        let a1 = b.add_attribute("a1");
        for i in 0..4 {
            let v = b.add_value(format!("l{i}"));
            b.add_edge(v, a0);
            let w = b.add_value(format!("r{i}"));
            b.add_edge(w, a1);
        }
        b.add_edge(bridge, a0);
        b.add_edge(bridge, a1);
        (b.build(), bridge)
    }

    #[test]
    fn degree_and_cardinality_are_consistent_with_the_graph() {
        let (g, bridge) = bridge_graph();
        let degree = degree_centrality(&g);
        let cardinality = cardinality_centrality(&g);
        assert_eq!(degree.len(), g.value_count());
        assert_eq!(degree[bridge as usize], 2.0);
        assert_eq!(cardinality[bridge as usize], 8.0);
        for v in g.value_nodes() {
            assert!(cardinality[v as usize] >= degree[v as usize] - 1.0);
        }
    }

    #[test]
    fn harmonic_centrality_prefers_central_nodes() {
        let (g, bridge) = bridge_graph();
        let harmonic = harmonic_centrality(&g);
        // The bridge is closer to everything than any leaf value.
        for v in g.value_nodes() {
            if v != bridge {
                assert!(harmonic[bridge as usize] >= harmonic[v as usize]);
            }
        }
    }

    #[test]
    fn value_endpoint_bc_still_ranks_the_bridge_first() {
        let (g, bridge) = bridge_graph();
        let restricted = betweenness_centrality_value_endpoints(&g);
        let best = g
            .value_nodes()
            .max_by(|&a, &b| restricted[a as usize].total_cmp(&restricted[b as usize]))
            .unwrap();
        assert_eq!(best, bridge);
    }

    #[test]
    fn value_endpoint_bc_is_bounded_by_full_bc() {
        // Restricting the endpoint pairs can only remove path mass.
        let (g, _) = bridge_graph();
        let full = betweenness_centrality(&g);
        let restricted = betweenness_centrality_value_endpoints(&g);
        for (f, r) in full.iter().zip(&restricted) {
            assert!(
                r <= &(f + 1e-9),
                "restricted {r} should not exceed full {f}"
            );
            assert!(*r >= -1e-12);
        }
    }

    #[test]
    fn value_endpoint_bc_on_a_star_counts_value_pairs_only() {
        // One attribute with k values: full BC of the hub counts k(k-1)/2
        // value pairs; the value-endpoint variant counts exactly the same
        // (all endpoint pairs are value pairs), so they agree here.
        let mut b = BipartiteBuilder::new();
        let a = b.add_attribute("hub");
        for i in 0..5 {
            let v = b.add_value(format!("v{i}"));
            b.add_edge(v, a);
        }
        let g = b.build();
        let hub = g.attribute_node(0) as usize;
        let restricted = betweenness_centrality_value_endpoints(&g);
        assert!((restricted[hub] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = BipartiteBuilder::new().build();
        assert!(degree_centrality(&g).is_empty());
        assert!(harmonic_centrality(&g).is_empty());
        assert!(betweenness_centrality_value_endpoints(&g).is_empty());
    }
}
