//! Connected components of the bipartite graph.
//!
//! Component structure is useful diagnostics for a lake graph: a value whose
//! removal would split a component is exactly the kind of "pivotal" node the
//! paper's Example 3.2 describes, and experiment harnesses use component
//! sizes to sanity-check generated benchmarks.

use std::collections::VecDeque;

use crate::bipartite::BipartiteGraph;

/// The result of a connected-components computation.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component id per node (dense, starting at 0).
    pub labels: Vec<u32>,
    /// Number of nodes per component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Whether two nodes are in the same component.
    pub fn connected(&self, a: u32, b: u32) -> bool {
        self.labels[a as usize] == self.labels[b as usize]
    }
}

/// Compute connected components with BFS.
pub fn connected_components(graph: &BipartiteGraph) -> Components {
    let n = graph.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in graph.nodes() {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        let component = sizes.len() as u32;
        let mut size = 0usize;
        labels[start as usize] = component;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &w in graph.neighbors(v) {
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = component;
                    queue.push_back(w);
                }
            }
        }
        sizes.push(size);
    }
    Components { labels, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;

    #[test]
    fn single_component() {
        let (g, _) = crate::bipartite::tests::figure3b();
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 1);
        assert_eq!(comps.sizes, [g.node_count()]);
        assert!(comps.connected(0, g.attribute_node(0)));
    }

    #[test]
    fn two_disjoint_stars() {
        let mut b = BipartiteBuilder::new();
        let a0 = b.add_attribute("a0");
        let a1 = b.add_attribute("a1");
        for i in 0..3 {
            let v = b.add_value(format!("x{i}"));
            b.add_edge(v, a0);
        }
        for i in 0..2 {
            let v = b.add_value(format!("y{i}"));
            b.add_edge(v, a1);
        }
        let g = b.build();
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 2);
        assert_eq!(comps.sizes, [4, 3]);
        assert!(!comps.connected(0, 3));
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let mut b = BipartiteBuilder::new();
        b.add_value("v0");
        b.add_value("v1");
        b.add_attribute("a0");
        let g = b.build();
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 3);
        assert_eq!(comps.sizes, [1, 1, 1]);
    }

    #[test]
    fn removing_bridge_value_splits_graph() {
        // Two attributes sharing only the value "bridge".
        let graph = |with_bridge: bool| {
            let mut b = BipartiteBuilder::new();
            let bridge = b.add_value("bridge");
            let a0 = b.add_attribute("a0");
            let a1 = b.add_attribute("a1");
            for i in 0..3 {
                let v = b.add_value(format!("l{i}"));
                b.add_edge(v, a0);
                let w = b.add_value(format!("r{i}"));
                b.add_edge(w, a1);
            }
            if with_bridge {
                b.add_edge(bridge, a0);
                b.add_edge(bridge, a1);
            }
            b.build()
        };
        assert_eq!(connected_components(&graph(true)).count(), 1);
        // The two sides, and the bridge alone.
        assert_eq!(connected_components(&graph(false)).count(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteBuilder::new().build();
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 0);
        assert!(comps.sizes.is_empty());
    }
}
