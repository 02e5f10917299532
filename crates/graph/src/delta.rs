//! What a change to the graph dirtied.
//!
//! A lake mutation does not patch the graph: the graph is a function of the
//! lake, so the maintainer derives the new one the way it built the first
//! and hands both, with the value nodes whose edge set changed, to
//! [`dirty_region`]. That reports exactly which parts of the new graph
//! downstream measures must recompute:
//!
//! * [`DirtyRegion::dirty_values`] — the value nodes whose 2-hop
//!   neighborhood changed, i.e. the only nodes whose local clustering
//!   coefficient can have changed (Equation 1 depends on `N(u)` and `N(v)`
//!   for `v ∈ N(u)` only).
//! * [`DirtyRegion::components`] / [`DirtyRegion::touched_components`] —
//!   connected components of the new graph, plus the ids of those
//!   containing an endpoint of a changed edge.
//!   Betweenness centrality never crosses components, so scores outside the
//!   touched set are still exact.
//!
//! Node-id stability: the new graph keeps every value node id and attribute
//! *index* of the old one and appends new nodes after them. Attribute node
//! *ids* shift by the number of appended value nodes (the id layout keeps
//! values first), so the two graphs are compared by attribute index.

use crate::bipartite::BipartiteGraph;
use crate::components::{connected_components, Components};

/// The result of [`dirty_region`].
#[derive(Debug, Clone)]
pub struct DirtyRegion {
    /// Value nodes (new id space) whose 2-hop neighborhood changed: the
    /// values whose own neighbor set `N(u)` changed (occupants of touched
    /// attributes plus the changed values) and their old- and new-graph
    /// value neighbors. The complete invalidation set for local clustering
    /// coefficients: recomputing exactly these on the new graph and keeping
    /// every other score leaves each value `to_bits()`-equal to a full pass
    /// over that graph (see the "Deltas" section of [`crate::lcc`]). Sorted.
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

/// The region of `new` that differs from `old`, where `new` keeps `old`'s
/// node ids and attribute indexes (appending nodes after them) and
/// `changed_values` lists the value nodes (new id space) whose edge set
/// differs between the two; an appended node must be one of them or an
/// attribute one of them gained. Components are one [`connected_components`]
/// pass over `new`, and the touched set is read off its labels.
pub fn dirty_region(
    old: &BipartiteGraph,
    new: &BipartiteGraph,
    changed_values: &[u32],
) -> DirtyRegion {
    let (old_nv, new_nv) = (old.value_count() as u32, new.value_count() as u32);
    let old_na = old.attribute_count() as u32;
    let attr_indexes = |graph: &BipartiteGraph, v: u32| -> Vec<u32> {
        if (v as usize) < graph.value_count() {
            let shift = graph.value_count() as u32;
            graph.neighbors(v).iter().map(|&a| a - shift).collect()
        } else {
            Vec::new()
        }
    };

    // Touched attributes: those a changed value gained or lost.
    let mut touched_attrs: Vec<u32> = Vec::new();
    for &v in changed_values {
        let (before, after) = (attr_indexes(old, v), attr_indexes(new, v));
        touched_attrs.extend(before.iter().filter(|a| after.binary_search(a).is_err()));
        touched_attrs.extend(after.iter().filter(|a| before.binary_search(a).is_err()));
    }
    touched_attrs.sort_unstable();
    touched_attrs.dedup();

    // Seeds: the changed values and every old occupant of a touched
    // attribute. Every new occupant is one of the two, so the seeds are
    // exactly the values whose N(u) can have changed.
    let mut stamp = vec![false; new_nv as usize];
    let mut seeds: Vec<u32> = Vec::new();
    let old_occupants = touched_attrs
        .iter()
        .filter(|&&ai| ai < old_na)
        .flat_map(|&ai| old.neighbors(old_nv + ai));
    for &v in changed_values.iter().chain(old_occupants) {
        if !stamp[v as usize] {
            stamp[v as usize] = true;
            seeds.push(v);
        }
    }
    // The seeds' value neighbors in either graph.
    let mut dirty = seeds.clone();
    for (graph, nv) in [(old, old_nv), (new, new_nv)] {
        for &s in seeds.iter().filter(|&&s| s < nv) {
            for &attr in graph.neighbors(s) {
                for &w in graph.neighbors(attr) {
                    if !stamp[w as usize] {
                        stamp[w as usize] = true;
                        dirty.push(w);
                    }
                }
            }
        }
    }
    dirty.sort_unstable();

    // Touched nodes: the changed values and the touched attributes.
    let components = connected_components(new);
    let mut touched_components: Vec<u32> = changed_values
        .iter()
        .copied()
        .chain(touched_attrs.iter().map(|&ai| new_nv + ai))
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

    /// Two separate stars: v0, v1 on a0 and v2, v3 on a1.
    fn two_stars() -> BipartiteGraph {
        build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (1, 0), (2, 1), (3, 1)],
        )
    }

    #[test]
    fn dirty_values_cover_the_two_hop_region() {
        // Mutate only the first star.
        let new = build(
            &["v0", "v1", "v2", "v3"],
            &["a0", "a1"],
            &[(0, 0), (2, 1), (3, 1)],
        );
        let region = dirty_region(&two_stars(), &new, &[1]);
        // v0 and v1 are dirty (v1 lost an edge, v0 lost a neighbor);
        // v2 and v3 are untouched.
        assert_eq!(region.dirty_values, vec![0, 1]);
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
        let region = dirty_region(&old, &new, &[4]);
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
        let region = dirty_region(&two_stars(), &new, &[1]);
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
