//! Twin classes: nodes with one non-empty neighbour list. Twins lie on one
//! side and swapping two is an automorphism, so whatever the structure
//! alone determines is the same for every member. The LCC join
//! ([`crate::lcc`]) groups the value nodes, Brandes ([`crate::bc`]) its
//! whole source set.

use std::collections::HashMap;

use crate::bipartite::BipartiteGraph;

/// "In no class" (degree 0, or not grouped); also the LCC join's "no row".
pub(crate) const NONE: u32 = u32::MAX;

pub(crate) struct Twins {
    /// Class of each node id of the graph, or `NONE`.
    pub(crate) class_of: Vec<u32>,
    /// The members of each class, ascending.
    members: Vec<Vec<u32>>,
}

impl Twins {
    /// Group `nodes`, ascending, by neighbour slice. Class ids follow first
    /// occurrence, so they do not depend on the hash map that finds them.
    /// Values' slices hold attribute ids and attributes' value ids, so one
    /// map serves both sides.
    pub(crate) fn of(graph: &BipartiteGraph, nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut class_of = vec![NONE; graph.node_count()];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut by_neighbours: HashMap<&[u32], u32> = HashMap::new();
        for v in nodes {
            let neighbours = graph.neighbors(v);
            if neighbours.is_empty() {
                continue;
            }
            let class = *by_neighbours.entry(neighbours).or_insert_with(|| {
                members.push(Vec::new());
                members.len() as u32 - 1
            });
            members[class as usize].push(v);
            class_of[v as usize] = class;
        }
        Twins { class_of, members }
    }

    pub(crate) fn count(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn members(&self, class: u32) -> &[u32] {
        &self.members[class as usize]
    }
}
