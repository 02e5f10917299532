//! Attribute-anchored random subgraph extraction.
//!
//! The paper's Figure 9 measures approximate-BC runtime on subgraphs of
//! increasing size extracted from the NYC-education lake graph. The
//! extraction procedure (footnote 9) repeatedly picks a random attribute
//! node, adds it together with all its value nodes, and stops once the
//! subgraph reaches the requested size (within a margin). This module
//! reproduces that procedure.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::bipartite::{BipartiteBuilder, BipartiteGraph};

/// Extract a random attribute-anchored subgraph with roughly `target_edges`
/// edges.
///
/// Attributes are visited in a seeded random order; each selected attribute
/// contributes all of its incident edges. Value nodes are shared between
/// selected attributes exactly as in the parent graph, so homograph structure
/// is preserved for the values that survive. Extraction stops as soon as the
/// edge budget is met (the result may overshoot by at most one attribute's
/// degree, mirroring the paper's "within some margin").
pub fn random_attribute_subgraph(
    graph: &BipartiteGraph,
    target_edges: usize,
    seed: u64,
) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attrs: Vec<u32> = graph.attribute_nodes().collect();
    attrs.shuffle(&mut rng);

    let mut builder = BipartiteBuilder::new();
    // Parent value node id -> new value node id.
    let mut value_map: Vec<Option<u32>> = vec![None; graph.value_count()];
    let mut edges = 0usize;
    for attr_node in attrs {
        if edges >= target_edges {
            break;
        }
        let attr_index = graph
            .attribute_index(attr_node)
            .expect("attribute_nodes() yields attribute ids");
        let new_attr = builder.add_attribute(graph.attribute_label(attr_index));
        for &value in graph.neighbors(attr_node) {
            let new_value = match value_map[value as usize] {
                Some(id) => id,
                None => {
                    let id = builder.add_value(graph.value_label(value));
                    value_map[value as usize] = Some(id);
                    id
                }
            };
            builder.add_edge(new_value, new_attr);
            edges += 1;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;
    use rand::Rng;

    fn random_graph(values: usize, attrs: usize, seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = BipartiteBuilder::new();
        for i in 0..values {
            b.add_value(format!("v{i}"));
        }
        for a in 0..attrs {
            let attr = b.add_attribute(format!("a{a}"));
            for _ in 0..rng.gen_range(3..20) {
                b.add_edge(rng.gen_range(0..values) as u32, attr);
            }
        }
        b.build()
    }

    #[test]
    fn subgraph_has_roughly_requested_size() {
        let g = random_graph(500, 80, 1);
        let target = g.edge_count() / 3;
        let sub = random_attribute_subgraph(&g, target, 7);
        assert!(sub.edge_count() >= target);
        assert!(sub.edge_count() <= g.edge_count());
        sub.validate().unwrap();
    }

    #[test]
    fn oversized_target_returns_whole_graph_worth_of_edges() {
        let g = random_graph(100, 10, 2);
        let sub = random_attribute_subgraph(&g, usize::MAX, 3);
        assert_eq!(sub.edge_count(), g.edge_count());
        assert_eq!(sub.attribute_count(), g.attribute_count());
    }

    #[test]
    fn extraction_is_deterministic_per_seed() {
        let g = random_graph(200, 30, 3);
        let a = random_attribute_subgraph(&g, 100, 11);
        let b = random_attribute_subgraph(&g, 100, 11);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.node_count(), b.node_count());
        let c = random_attribute_subgraph(&g, 100, 12);
        // A different seed usually picks different attributes; just check it
        // still satisfies the budget.
        assert!(c.edge_count() >= 100.min(g.edge_count()));
    }

    #[test]
    fn shared_values_are_not_duplicated() {
        // Two attributes sharing every value: the subgraph with both must
        // reuse the same value nodes.
        let mut b = BipartiteBuilder::new();
        let a0 = b.add_attribute("a0");
        let a1 = b.add_attribute("a1");
        for i in 0..10 {
            let v = b.add_value(format!("v{i}"));
            b.add_edge(v, a0);
            b.add_edge(v, a1);
        }
        let g = b.build();
        let sub = random_attribute_subgraph(&g, usize::MAX, 5);
        assert_eq!(sub.value_count(), 10);
        assert_eq!(sub.attribute_count(), 2);
        assert_eq!(sub.edge_count(), 20);
    }

    #[test]
    fn zero_target_gives_empty_subgraph() {
        let g = random_graph(50, 5, 6);
        let sub = random_attribute_subgraph(&g, 0, 1);
        assert_eq!(sub.edge_count(), 0);
        assert_eq!(sub.node_count(), 0);
    }
}
