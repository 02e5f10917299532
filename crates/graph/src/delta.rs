//! What a change to the graph dirtied.
//!
//! A lake mutation does not patch the graph: the graph is a function of the
//! lake, so the maintainer derives the new one the way it built the first
//! and hands both, with the value nodes whose edge set changed, to
//! [`dirty_region`]. That reports exactly which parts of the new graph
//! downstream measures must recompute:
//!
//! * [`DirtyRegion::dirty_values`] — the changed values and their value
//!   neighbours in the old graph or the new one, one hop out: the only
//!   nodes whose local clustering coefficient can have changed (it reads
//!   `N(u)` and, for `v ∈ N(u)`, `A(v)` only, so a value whose score moved
//!   changed itself or shares an attribute with one that did).
//! * [`DirtyRegion::components`] / [`DirtyRegion::touched_components`] —
//!   connected components of the new graph, plus the ids of those
//!   containing an endpoint of a changed edge.
//!   Betweenness centrality never crosses components, so scores outside the
//!   touched set are still exact.
//!
//! Renumbering: the new graph numbers its nodes the way a build of the new
//! lake would, so a node that stops qualifying is gone and the nodes after
//! it move down, and a new node lands in its sorted place. The caller
//! passes a [`Renumbering`], where each old value node and attribute
//! *index* went, and the two graphs are compared through it. Attribute node
//! *ids* follow the value count (the id layout keeps values first), so
//! attributes are compared by index.

use crate::bipartite::BipartiteGraph;
use crate::components::{connected_components, Components};

/// Where each node of an old graph went in a new one: `u32::MAX` for a node
/// the new graph lacks. Survivors keep their relative order.
#[derive(Debug, Clone)]
pub struct Renumbering {
    /// Old value node -> new value node.
    pub values: Vec<u32>,
    /// Old attribute index -> new attribute index.
    pub attrs: Vec<u32>,
}

impl Renumbering {
    /// A vector indexed by old value node, moved to the new numbering and
    /// `len` long: a surviving node keeps its entry, a new one gets
    /// `T::default()`.
    pub fn move_values<T: Copy + Default>(&self, old: &[T], len: usize) -> Vec<T> {
        let mut moved = vec![T::default(); len];
        for (&entry, &node) in old.iter().zip(&self.values) {
            if node != u32::MAX {
                moved[node as usize] = entry;
            }
        }
        moved
    }
}

/// The old node (or `u32::MAX`) of each of `len` new nodes.
fn inverse(map: &[u32], len: usize) -> Vec<u32> {
    let mut old_of = vec![u32::MAX; len];
    for (old, &new) in map.iter().enumerate() {
        if new != u32::MAX {
            old_of[new as usize] = old as u32;
        }
    }
    old_of
}

/// The result of [`dirty_region`].
#[derive(Debug, Clone)]
pub struct DirtyRegion {
    /// Value nodes (new id space) one hop from a change: the changed
    /// values, plus their value neighbours in the old graph and in the new
    /// one; a vanished value counts through its old neighbours. A score
    /// reads `N(u)`, `|N(u)|` and `A(v)` for `v ∈ N(u)`; `N(u)` changes
    /// only when a value joins or leaves one of `u`'s attributes, and
    /// `A(v)` only when `v` changed, so either way `u` is a changed value
    /// or a neighbour of one. The complete invalidation set for the served
    /// local clustering coefficient: recomputing exactly these on the new
    /// graph and keeping every other score (moved through the renumbering)
    /// leaves each value `to_bits()`-equal to a full pass over that graph
    /// (see the "Deltas" section of [`crate::lcc`]). Sorted.
    pub dirty_values: Vec<u32>,
    /// Connected components of the new graph.
    pub components: Components,
    /// Component ids (in `components`) whose structure changed. BC scores of
    /// nodes in other components are unaffected by the change. Sorted.
    pub touched_components: Vec<u32>,
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

/// The region of `new` that differs from `old`, where `renumbering` says
/// where each node of `old` went and `changed_values` lists the value nodes
/// of `new` whose edge set differs from their old node's (or that had
/// none). A value node `new` lacks lost every edge; every other node must
/// keep its edges, translated. Components are one [`connected_components`]
/// pass over `new`, and the touched set is read off its labels.
pub fn dirty_region(
    old: &BipartiteGraph,
    new: &BipartiteGraph,
    renumbering: &Renumbering,
    changed_values: &[u32],
) -> DirtyRegion {
    let (old_nv, new_nv) = (old.value_count() as u32, new.value_count() as u32);
    let old_value_of = inverse(&renumbering.values, new_nv as usize);
    let old_attr_of = inverse(&renumbering.attrs, new.attribute_count());
    let attr_indexes = |graph: &BipartiteGraph, v: u32| -> Vec<u32> {
        if v == u32::MAX {
            return Vec::new();
        }
        let shift = graph.value_count() as u32;
        graph.neighbors(v).iter().map(|&a| a - shift).collect()
    };

    // Per changed value (a vanished value node lost all of its
    // attributes): the touched attributes, by new index, that it gained or
    // lost, and the dirty values, itself and its value neighbours in
    // either graph.
    let mut touched_new = Vec::new();
    let mut stamp = vec![false; new_nv as usize];
    let mut dirty = Vec::new();
    let mut visit = |w: u32| {
        if w != u32::MAX && !stamp[w as usize] {
            stamp[w as usize] = true;
            dirty.push(w);
        }
    };
    let vanished = (0..old_nv).filter(|&v| renumbering.values[v as usize] == u32::MAX);
    let changed = changed_values
        .iter()
        .map(|&v| (old_value_of[v as usize], v))
        .chain(vanished.map(|v| (v, u32::MAX)));
    for (was, is) in changed {
        let (before, after) = (attr_indexes(old, was), attr_indexes(new, is));
        for &a in &before {
            let moved = renumbering.attrs[a as usize];
            if moved != u32::MAX && after.binary_search(&moved).is_err() {
                touched_new.push(moved);
            }
        }
        for &a in &after {
            let from = old_attr_of[a as usize];
            if from == u32::MAX || before.binary_search(&from).is_err() {
                touched_new.push(a);
            }
        }
        visit(is);
        for &a in &before {
            for &w in old.neighbors(old_nv + a) {
                visit(renumbering.values[w as usize]);
            }
        }
        for &a in &after {
            for &w in new.neighbors(new_nv + a) {
                visit(w);
            }
        }
    }
    dirty.sort_unstable();

    // Touched nodes: the changed values and the touched attributes.
    let components = connected_components(new);
    let mut touched_components: Vec<u32> = changed_values
        .iter()
        .copied()
        .chain(touched_new.iter().map(|&ai| new_nv + ai))
        .map(|node| components.labels[node as usize])
        .collect();
    touched_components.sort_unstable();
    touched_components.dedup();

    DirtyRegion {
        dirty_values: dirty,
        components,
        touched_components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;
    use crate::lcc::LccMethod;

    /// A graph built from scratch out of explicit edges.
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

    /// The renumbering of a change that keeps every node of `old` in place.
    fn stable(old: &BipartiteGraph) -> Renumbering {
        Renumbering {
            values: (0..old.value_count() as u32).collect(),
            attrs: (0..old.attribute_count() as u32).collect(),
        }
    }

    /// Two separate stars: v0, v1 on a0 and v2, v3 on a1.
    fn two_stars() -> BipartiteGraph {
        build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1)],
        )
    }

    #[test]
    fn dirty_values_cover_the_one_hop_region() {
        // Mutate only the first star.
        let new = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (2, 1), (3, 1)],
        );
        let region = dirty_region(&two_stars(), &new, &stable(&two_stars()), &[1]);
        // v0 and v1 are dirty (v1 lost an edge, v0 lost a neighbor);
        // v2 and v3 are untouched.
        assert_eq!(region.dirty_values, vec![0, 1]);
    }

    #[test]
    fn a_chain_dirties_one_hop_not_two() {
        // v1 is in a0 and a1, v2 in a1, and v0 gains a0. v2 is two hops
        // from v0, which a set for the value-neighbour reading would add; its
        // attribute-set LCC reads N(v2) = {v1} and A(v1), which held.
        let (values, attrs) = (&["v0", "v1", "v2"], &["a0", "a1"]);
        let old = build(values, attrs, &[(1, 0), (1, 1), (2, 1)]);
        let new = build(values, attrs, &[(0, 0), (1, 0), (1, 1), (2, 1)]);
        let region = dirty_region(&old, &new, &stable(&old), &[0]);
        assert_eq!(region.dirty_values, vec![0, 1]);
        let v2 = |g: &BipartiteGraph| {
            crate::lcc::local_clustering_coefficients(g, LccMethod::AttributeJaccard)[2].to_bits()
        };
        assert_eq!(v2(&old), v2(&new));
    }

    #[test]
    fn incremental_components_match_fresh_computation() {
        let old = two_stars();
        assert_eq!(connected_components(&old).count(), 2);
        // Bridge the two components with a new value node.
        let new = build(
            &["v0", "v1", "v2", "v3", "bridge"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 0), (4, 1)],
        );
        let region = dirty_region(&old, &new, &stable(&old), &[4]);
        assert_eq!(region.components.count(), 1);
        assert_eq!(region.touched_components, vec![region.components.labels[4]]);
        assert_eq!(region.dirty_values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn untouched_components_are_not_invalidated() {
        // Removing v1-a0 splits the first star; the second is untouched.
        let new = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (2, 1), (3, 1)],
        );
        let region = dirty_region(&two_stars(), &new, &stable(&two_stars()), &[1]);
        let components = &region.components;
        assert_eq!(components.count(), 3);
        assert!(components.connected(2, 3));
        assert!(
            !region.touched_components.contains(&components.labels[2]),
            "the untouched component must not be in the touched set"
        );
        // Touched components cover the split star.
        for node in [0, 1] {
            assert!(region.touched_components.contains(&components.labels[node]));
        }
    }

    #[test]
    fn a_vanished_value_shifts_later_ids_and_dirties_its_old_neighbors() {
        // v1 loses its node: v2 and v3 become 1 and 2. v0 lost a neighbour;
        // the second star is untouched under its new ids.
        let new = build(
            &["v0", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 1), (2, 1)],
        );
        let renumbering = Renumbering {
            values: vec![0, u32::MAX, 1, 2],
            attrs: vec![0, 1],
        };
        let region = dirty_region(&two_stars(), &new, &renumbering, &[]);
        assert_eq!(region.dirty_values, vec![0]);
        let labels = &region.components.labels;
        assert_eq!(region.touched_components, vec![labels[0]]);
        assert_ne!(labels[0], labels[1]);
        assert_eq!(
            renumbering.move_values(&[0.5, 0.6, 0.7, 0.8], 3),
            vec![0.5, 0.7, 0.8]
        );
    }

    #[test]
    fn nodes_in_components_selects_members() {
        let g = build(
            &["v0", "v1", "v2"],
            &["a0", "a1"],
            &[(0, 0), (1, 1), (2, 1)],
        );
        let comps = connected_components(&g);
        let members = nodes_in_components(&comps, &[comps.labels[1]]);
        assert!(members.contains(&1));
        assert!(members.contains(&2));
        assert!(!members.contains(&0));
    }
}
