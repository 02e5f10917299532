//! Incremental maintenance of the bipartite graph under lake mutations.
//!
//! A static [`BipartiteGraph`] is rebuilt from scratch for every lake change:
//! re-sort all `m` edges, re-count all degrees, re-allocate all labels. This
//! module instead *patches* the CSR representation with a [`GraphDelta`] —
//! the edge-level difference produced by an applied lake mutation — in
//! `O(n + m + |Δ|)` with no global edge sort, and reports exactly which parts
//! of the graph the mutation dirtied:
//!
//! * [`AppliedDelta::dirty_values`] — the value nodes whose 2-hop
//!   neighborhood changed, i.e. the only nodes whose local clustering
//!   coefficient can have changed (Equation 1 depends on `N(u)` and `N(v)`
//!   for `v ∈ N(u)` only).
//! * [`AppliedDelta::components`] / [`AppliedDelta::touched_components`] —
//!   connected components of the patched graph, plus the ids of those
//!   containing an endpoint of a changed edge or an appended node.
//!   Betweenness centrality never crosses components, so scores outside the
//!   touched set are still exact.
//!
//! Node-id stability: value node ids and attribute *indexes* never change
//! across a delta — new nodes are appended. Attribute node *ids* shift by
//! the number of appended value nodes (the id layout keeps values first), so
//! all attribute bookkeeping in deltas uses indexes, not node ids.

use std::collections::HashMap;

use crate::bipartite::BipartiteGraph;
use crate::components::{connected_components, Components};

/// The edge-level difference to apply to a [`BipartiteGraph`].
///
/// Edges are `(value node id, attribute index)` pairs — attribute *indexes*
/// (dense per side) rather than node ids, because attribute node ids shift
/// when value nodes are appended. Ids in `added_edges` may refer to nodes
/// appended by this same delta (`new_values` / `new_attributes`).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GraphDelta {
    /// Labels of value nodes to append (ids `old_value_count..`).
    pub new_values: Vec<String>,
    /// Labels of attribute nodes to append (indexes `old_attr_count..`).
    pub new_attributes: Vec<String>,
    /// Edges to insert, as `(value node id, attribute index)`.
    pub added_edges: Vec<(u32, u32)>,
    /// Edges to delete, as `(value node id, attribute index)`. Must exist.
    pub removed_edges: Vec<(u32, u32)>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.new_values.is_empty()
            && self.new_attributes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
    }
}

/// The result of [`BipartiteGraph::apply_delta`].
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The patched graph.
    pub graph: BipartiteGraph,
    /// Value nodes (new id space) whose 2-hop neighborhood changed: the
    /// values whose own neighbor set `N(u)` changed (occupants of touched
    /// attributes plus changed-edge endpoints) and their old- and new-graph
    /// value neighbors. The complete invalidation set for local clustering
    /// coefficients: recomputing exactly these on [`AppliedDelta::graph`]
    /// and keeping every other score leaves each value `to_bits()`-equal to
    /// a full pass over that graph (see the "Deltas" section of
    /// [`crate::lcc`]). Sorted.
    pub dirty_values: Vec<u32>,
    /// Nodes (new id space) incident to a changed edge, plus appended nodes.
    /// Sorted.
    pub touched_nodes: Vec<u32>,
    /// Connected components of the patched graph.
    pub components: Components,
    /// Component ids (in `components`) whose structure changed. BC scores of
    /// nodes in other components are unaffected by the delta. Sorted.
    pub touched_components: Vec<u32>,
}

impl AppliedDelta {
    /// All nodes belonging to a touched component, in ascending id order.
    pub fn touched_component_nodes(&self) -> Vec<u32> {
        nodes_in_components(&self.components, &self.touched_components)
    }
}

/// All nodes whose component id is in `component_ids` (sorted ascending).
pub fn nodes_in_components(components: &Components, component_ids: &[u32]) -> Vec<u32> {
    let mut member = vec![false; components.sizes.len()];
    for &c in component_ids {
        if let Some(m) = member.get_mut(c as usize) {
            *m = true;
        }
    }
    components
        .labels
        .iter()
        .enumerate()
        .filter(|&(_, &label)| member.get(label as usize).copied().unwrap_or(false))
        .map(|(i, _)| i as u32)
        .collect()
}

impl BipartiteGraph {
    /// Apply an edge-level delta, producing the patched graph and the dirty
    /// regions downstream measures must recompute.
    ///
    /// The CSR arrays are spliced per node — unchanged adjacency runs are
    /// copied, changed nodes get a sorted merge of (old ∖ removed) ∪ added —
    /// so no global edge sort happens. Components are one
    /// [`connected_components`] pass over the patched graph (cheaper than
    /// the splice itself), and the touched set is read off its labels.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency found: an edge
    /// endpoint out of range, an added edge that already exists, a removed
    /// edge that does not exist, or a duplicate entry inside the delta.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<AppliedDelta, String> {
        let old_nv = self.value_count();
        let old_na = self.attribute_count();
        let new_nv = old_nv + delta.new_values.len();
        let new_na = old_na + delta.new_attributes.len();
        let n_new = new_nv + new_na;

        // ---- validate and index the changes (new id space) ---------------
        let mut added: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut removed: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(v, ai) in &delta.added_edges {
            if (v as usize) >= new_nv {
                return Err(format!("added edge references value node {v} out of range"));
            }
            if (ai as usize) >= new_na {
                return Err(format!(
                    "added edge references attribute index {ai} out of range"
                ));
            }
            if (v as usize) < old_nv
                && (ai as usize) < old_na
                && self.has_edge(v, (old_nv as u32) + ai)
            {
                return Err(format!("added edge ({v}, a{ai}) already exists"));
            }
            let a_node = (new_nv as u32) + ai;
            added.entry(v).or_default().push(a_node);
            added.entry(a_node).or_default().push(v);
        }
        for &(v, ai) in &delta.removed_edges {
            if (v as usize) >= old_nv || (ai as usize) >= old_na {
                return Err(format!(
                    "removed edge ({v}, a{ai}) references a node that does not pre-exist"
                ));
            }
            if !self.has_edge(v, (old_nv as u32) + ai) {
                return Err(format!("removed edge ({v}, a{ai}) does not exist"));
            }
            let a_node = (new_nv as u32) + ai;
            removed.entry(v).or_default().push(a_node);
            removed.entry(a_node).or_default().push(v);
        }
        for (node, list) in added.iter_mut().chain(removed.iter_mut()) {
            list.sort_unstable();
            let before = list.len();
            list.dedup();
            if list.len() != before {
                return Err(format!("duplicate delta entry at node {node}"));
            }
        }

        // ---- old-graph side of the dirty region (before patching) --------
        // Seeds: every value that occurs (before or after) in a touched
        // attribute. Start with the old-graph occupants and old 2-hop
        // neighborhoods; the new-graph side is added after the patch.
        let shift = (new_nv - old_nv) as u32;
        let touched_attr_indexes: Vec<u32> = {
            let mut v: Vec<u32> = delta
                .added_edges
                .iter()
                .chain(delta.removed_edges.iter())
                .map(|&(_, ai)| ai)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut dirty_stamp = vec![false; new_nv];
        let mut seeds: Vec<u32> = Vec::new();
        let mark_seed = |stamp: &mut Vec<bool>, seeds: &mut Vec<u32>, v: u32| {
            if !stamp[v as usize] {
                stamp[v as usize] = true;
                seeds.push(v);
            }
        };
        for &ai in &touched_attr_indexes {
            if (ai as usize) < old_na {
                for &v in self.neighbors((old_nv as u32) + ai) {
                    mark_seed(&mut dirty_stamp, &mut seeds, v);
                }
            }
        }
        for &(v, _) in delta.added_edges.iter().chain(delta.removed_edges.iter()) {
            mark_seed(&mut dirty_stamp, &mut seeds, v);
        }
        // Old-graph value neighbors of the seeds.
        let mut dirty: Vec<u32> = seeds.clone();
        for &s in &seeds {
            if (s as usize) >= old_nv {
                continue;
            }
            for &attr in self.neighbors(s) {
                for &w in self.neighbors(attr) {
                    if !dirty_stamp[w as usize] {
                        dirty_stamp[w as usize] = true;
                        dirty.push(w);
                    }
                }
            }
        }

        // ---- splice the CSR ----------------------------------------------
        let mut offsets: Vec<u64> = Vec::with_capacity(n_new + 1);
        offsets.push(0);
        let extra: usize = 2 * delta.added_edges.len();
        let mut adjacency: Vec<u32> = Vec::with_capacity(self.edge_count() * 2 + extra);
        let empty: [u32; 0] = [];
        for node in 0..n_new as u32 {
            // Old neighbors of this node, mapped into the new id space.
            let (old_node, is_value) = if (node as usize) < new_nv {
                (((node as usize) < old_nv).then_some(node), true)
            } else {
                let ai = node - new_nv as u32;
                (
                    ((ai as usize) < old_na).then_some((old_nv as u32) + ai),
                    false,
                )
            };
            let old_neighbors: &[u32] = match old_node {
                Some(o) => self.neighbors(o),
                None => &empty,
            };
            let rem = removed.get(&node).map(Vec::as_slice).unwrap_or(&empty);
            let add = added.get(&node).map(Vec::as_slice).unwrap_or(&empty);
            // Merge (old ∖ removed) with added; attribute-node neighbors of a
            // value node must be shifted, which preserves sorted order.
            let mut ri = 0usize;
            let mut aj = 0usize;
            for &o in old_neighbors {
                let mapped = if is_value { o + shift } else { o };
                if ri < rem.len() && rem[ri] == mapped {
                    ri += 1;
                    continue;
                }
                while aj < add.len() && add[aj] < mapped {
                    adjacency.push(add[aj]);
                    aj += 1;
                }
                // `add[aj] == mapped` can't happen: validated as "already
                // exists" above.
                adjacency.push(mapped);
            }
            while aj < add.len() {
                adjacency.push(add[aj]);
                aj += 1;
            }
            debug_assert_eq!(ri, rem.len(), "all removals consumed at node {node}");
            offsets.push(adjacency.len() as u64);
        }

        let (mut value_labels, mut attr_labels) = self.clone_labels();
        value_labels.extend(delta.new_values.iter().cloned());
        attr_labels.extend(delta.new_attributes.iter().cloned());
        let graph = BipartiteGraph::from_csr_parts(
            new_nv,
            new_na,
            offsets,
            adjacency,
            value_labels,
            attr_labels,
        );

        // ---- new-graph side of the dirty region --------------------------
        // The seed set is already complete: every new-graph occupant of a
        // touched attribute either held that edge before (old-occupant sweep
        // above) or gained it via `added_edges` (endpoint sweep above).
        #[cfg(debug_assertions)]
        for &ai in &touched_attr_indexes {
            for &v in graph.neighbors((new_nv as u32) + ai) {
                debug_assert!(
                    dirty_stamp[v as usize],
                    "new occupant {v} of touched attribute a{ai} was not seeded"
                );
            }
        }
        for &s in &seeds {
            for &attr in graph.neighbors(s) {
                for &w in graph.neighbors(attr) {
                    if !dirty_stamp[w as usize] {
                        dirty_stamp[w as usize] = true;
                        dirty.push(w);
                    }
                }
            }
        }
        dirty.sort_unstable();

        // ---- touched nodes ------------------------------------------------
        let mut touched_nodes: Vec<u32> = Vec::new();
        for &(v, ai) in delta.added_edges.iter().chain(delta.removed_edges.iter()) {
            touched_nodes.push(v);
            touched_nodes.push((new_nv as u32) + ai);
        }
        touched_nodes.extend(old_nv as u32..new_nv as u32);
        touched_nodes.extend((new_nv + old_na) as u32..n_new as u32);
        touched_nodes.sort_unstable();
        touched_nodes.dedup();

        // ---- components ----------------------------------------------------
        let components = connected_components(&graph);
        let mut touched_components: Vec<u32> = touched_nodes
            .iter()
            .map(|&t| components.labels[t as usize])
            .collect();
        touched_components.sort_unstable();
        touched_components.dedup();

        Ok(AppliedDelta {
            graph,
            dirty_values: dirty,
            touched_nodes,
            components,
            touched_components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;

    /// Rebuild a reference graph from scratch out of explicit edges.
    fn build(value_labels: &[&str], attr_labels: &[&str], edges: &[(u32, u32)]) -> BipartiteGraph {
        let mut b = BipartiteBuilder::new();
        for v in value_labels {
            b.add_value(*v);
        }
        for a in attr_labels {
            b.add_attribute(*a);
        }
        for &(v, a) in edges {
            b.add_edge(v, a);
        }
        b.build()
    }

    fn assert_same_graph(patched: &BipartiteGraph, reference: &BipartiteGraph) {
        patched.validate().unwrap();
        assert_eq!(patched.value_count(), reference.value_count());
        assert_eq!(patched.attribute_count(), reference.attribute_count());
        assert_eq!(patched.edge_count(), reference.edge_count());
        for node in patched.nodes() {
            assert_eq!(
                patched.neighbors(node),
                reference.neighbors(node),
                "adjacency of node {node} diverged"
            );
            assert_eq!(patched.node_label(node), reference.node_label(node));
        }
    }

    #[test]
    fn add_and_remove_edges_matches_rebuild() {
        let g = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let delta = GraphDelta {
            added_edges: vec![(0, 1), (2, 0)],
            removed_edges: vec![(1, 0)],
            ..GraphDelta::default()
        };
        let applied = g.apply_delta(&delta).unwrap();
        let reference = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(0, 0), (1, 1), (2, 1), (0, 1), (2, 0)],
        );
        assert_same_graph(&applied.graph, &reference);
    }

    #[test]
    fn appending_nodes_shifts_attribute_ids_consistently() {
        let g = build(&["v0"], &["a0"], &[(0, 0)]);
        let delta = GraphDelta {
            new_values: vec!["v1".into(), "v2".into()],
            new_attributes: vec!["a1".into()],
            added_edges: vec![(1, 0), (2, 1), (0, 1)],
            removed_edges: vec![],
        };
        let applied = g.apply_delta(&delta).unwrap();
        let reference = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (0, 1)],
        );
        assert_same_graph(&applied.graph, &reference);
    }

    #[test]
    fn removing_all_edges_of_a_node_isolates_it() {
        let g = build(&["v0", "v1"], &["a0"], &[(0, 0), (1, 0)]);
        let delta = GraphDelta {
            removed_edges: vec![(0, 0)],
            ..GraphDelta::default()
        };
        let applied = g.apply_delta(&delta).unwrap();
        assert_eq!(applied.graph.degree(0), 0);
        assert_eq!(applied.graph.degree(1), 1);
        applied.graph.validate().unwrap();
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let g = build(&["v0", "v1"], &["a0"], &[(0, 0)]);
        // Duplicate add.
        let dup = GraphDelta {
            added_edges: vec![(1, 0), (1, 0)],
            ..GraphDelta::default()
        };
        assert!(g.apply_delta(&dup).is_err());
        // Adding an existing edge.
        let existing = GraphDelta {
            added_edges: vec![(0, 0)],
            ..GraphDelta::default()
        };
        assert!(g.apply_delta(&existing).is_err());
        // Removing a missing edge.
        let missing = GraphDelta {
            removed_edges: vec![(1, 0)],
            ..GraphDelta::default()
        };
        assert!(g.apply_delta(&missing).is_err());
        // Out-of-range endpoints.
        let oob = GraphDelta {
            added_edges: vec![(9, 0)],
            ..GraphDelta::default()
        };
        assert!(g.apply_delta(&oob).is_err());
    }

    #[test]
    fn dirty_values_cover_the_two_hop_region() {
        // Two separate stars; mutate only the first.
        let g = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1)],
        );
        let delta = GraphDelta {
            removed_edges: vec![(1, 0)],
            ..GraphDelta::default()
        };
        let applied = g.apply_delta(&delta).unwrap();
        // v0 and v1 are dirty (v1 lost an edge, v0 lost a neighbor);
        // v2 and v3 are untouched.
        assert_eq!(applied.dirty_values, vec![0, 1]);
    }

    #[test]
    fn incremental_components_match_fresh_computation() {
        let g = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1)],
        );
        assert_eq!(connected_components(&g).count(), 2);
        // Bridge the two components with a new value node.
        let delta = GraphDelta {
            new_values: vec!["bridge".into()],
            added_edges: vec![(4, 0), (4, 1)],
            ..GraphDelta::default()
        };
        let applied = g.apply_delta(&delta).unwrap();
        assert_eq!(applied.components.count(), 1);
        assert_eq!(
            applied.touched_components,
            vec![applied.components.component_of(4)]
        );
    }

    #[test]
    fn untouched_components_are_not_invalidated() {
        let g = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1)],
        );
        let delta = GraphDelta {
            removed_edges: vec![(1, 0)],
            ..GraphDelta::default()
        };
        let applied = g.apply_delta(&delta).unwrap();
        // Removing v1-a0 splits the first star; second star untouched.
        assert_eq!(applied.components.count(), 3);
        let second_star_comp = applied.components.component_of(2);
        assert!(applied.components.connected(2, 3));
        assert!(
            !applied.touched_components.contains(&second_star_comp),
            "the untouched component must not be in the touched set"
        );
        // Touched components cover the split star.
        for node in [0u32, 1] {
            assert!(applied
                .touched_components
                .contains(&applied.components.component_of(node)));
        }
    }

    #[test]
    fn chained_deltas_match_one_shot_rebuild() {
        let mut g = build(&["v0", "v1"], &["a0"], &[(0, 0), (1, 0)]);
        let deltas = [
            GraphDelta {
                new_values: vec!["v2".into()],
                new_attributes: vec!["a1".into()],
                added_edges: vec![(2, 1), (0, 1)],
                ..GraphDelta::default()
            },
            GraphDelta {
                removed_edges: vec![(0, 0)],
                ..GraphDelta::default()
            },
            GraphDelta {
                added_edges: vec![(1, 1)],
                removed_edges: vec![(2, 1)],
                ..GraphDelta::default()
            },
        ];
        for delta in &deltas {
            g = g.apply_delta(delta).unwrap().graph;
        }
        let reference = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(1, 0), (0, 1), (1, 1)],
        );
        assert_same_graph(&g, &reference);
    }

    #[test]
    fn nodes_in_components_selects_members() {
        let g = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(0, 0), (1, 1), (2, 1)],
        );
        let comps = connected_components(&g);
        let c = comps.component_of(1);
        let members = nodes_in_components(&comps, &[c]);
        assert!(members.contains(&1));
        assert!(members.contains(&2));
        assert!(!members.contains(&0));
    }

    #[test]
    fn empty_delta_is_identity() {
        let (g, _) = crate::bipartite::tests::figure3b();
        let applied = g.apply_delta(&GraphDelta::new()).unwrap();
        assert_same_graph(&applied.graph, &g);
        assert!(applied.dirty_values.is_empty());
        assert!(applied.touched_nodes.is_empty());
        assert!(applied.touched_components.is_empty());
    }
}
