//! Bipartite local clustering coefficients (§3.3 of the paper).
//!
//! For a value node `u`, let `A(u)` be its attributes and `N(u)` its *value
//! neighbours* — every other value that shares at least one attribute with
//! `u`. The local clustering coefficient of `u` is the mean, over
//! `v ∈ N(u)`, of a Jaccard similarity of `u` and `v`. Hypothesis 3.4 of the
//! paper: homographs, whose neighbours come from several unrelated
//! communities, have *lower* LCC than unambiguous values. The served reading
//! (`Measure::lcc()`, [`lcc_with_cardinality_for_values`]) is the Jaccard of
//! the two values' **attribute sets**,
//!
//! ```text
//! c_uv = |A(u) ∩ A(v)| / |A(u) ∪ A(v)|
//! ```
//!
//! This is the bipartite clustering coefficient of Latapy, Magnien & Del
//! Vecchio ("Basic notions for the analysis of large two-mode networks",
//! Social Networks 30(1), 2008), the paper's "average Jaccard similarity
//! between the set of attributes that a value co-occurs with". It is the
//! reading that reproduces Example 3.6 at the printed precision (Jaguar
//! 0.36, Puma 0.43, Panda 0.46 on the running example). The Jaccard of the
//! two values' **value-neighbour sets**, `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`,
//! gives 0.29, 0.35 and 0.32 there. No layer serves it; it stays only as
//! [`local_clustering_coefficients`] with
//! [`LccMethod::ValueNeighborJaccard`], the whole-graph pass the standing
//! benchmark's `graph.lcc_s` layer times by name (see the note below).
//!
//! # The attribute-set reading as a counting join
//!
//! `c_uv` depends only on the attribute sets of `u` and `v`, and a lake has
//! far fewer distinct attribute sets than values (1 518 for 3 685 values on
//! the standing benchmark's exact lake). So values are grouped into
//! **classes** of equal attribute set — the twin grouping [`crate::bc`] also
//! runs on, fed the value nodes (ids in first-occurrence order, nothing
//! depends on hash order; degree-0 values have no class and score 0) — and
//! the mean is taken over classes, as one join over ids:
//!
//! * Each attribute has a **class list**: the classes of its members,
//!   ascending and without repeats.
//! * For a class `c`, walking the class lists of its attributes counts
//!   `shared[d] = |A_c ∩ A_d|` for every class `d` that shares an attribute
//!   with `c` (`c` itself included, with `shared = |A_c|`).
//! * Every member of `d` is a value neighbour of `u ∈ c`, except `u`
//!   itself: `d` stands for `w_d = |d|` neighbours, and `c` for `|c| − 1`.
//!   With `S = Σ |d|` over the touched classes, `|N(u)| = S − 1` (the count
//!   `value_neighbor_counts` gives), and
//!
//!   ```text
//!   LCC(u) = Σ_d w_d · shared[d] / (|A_c| + |A_d| − shared[d])  /  (S − 1)
//!   ```
//!
//!   A class alone in all its attributes has `S = 1`: no neighbour, score 0.
//!
//! **Fold order.** The touched classes are summed in ascending class id, a
//! function of the graph alone and never of the target list: a task marks
//! them in a bitset over class ids and reads its set bits, which come out
//! ascending without a sort (sorting the touched list cost as much as the
//! counting itself). So a score is the same bits whichever targets, chunks
//! or width computed it (the "Deltas" section below relies on it). The
//! per-value walk the kernel replaced sums one term per neighbour value;
//! the class sum regroups those terms, so the two agree to a relative
//! 1e-12 (the kernel's oracle test), not in every bit.
//!
//! **Cost.** The distinct target classes are cut into [`crate::bc`]'s
//! canonical chunks and run on a pool `threads` wide, each task with its
//! own `shared` counters (one `u32` per class). The work is one class-list
//! visit per (target class, attribute, class in that attribute): on the
//! exact lake ~0.9 M visits and ~0.28 M touched pairs, where the
//! value-neighbour pass ANDs a bitset span per class pair. There is no
//! table and no memory budget: the class lists hold one entry per distinct
//! (attribute, class) pair, at most one per edge. Builds pass the engine's
//! compute width; a delta passes 1, because the writer shares the machine
//! with the readers. On the exact lake (2-core box, release, medians of 15,
//! three runs) the kernel takes 4.6–6.5 ms at one thread and 3.0–3.5 ms at
//! two. On the 2 225-value serving lake a delta's 10 and 100 dirty targets
//! take 0.5–0.8 and 0.7–1.0 ms at one thread, most of it the grouping and
//! class lists every call builds.
//!
//! # Note: the value-neighbour pass
//!
//! [`LccMethod::ValueNeighborJaccard`] is one whole-graph pass on one
//! thread, over the same classes. Every member of a class `c` has one closed
//! neighbourhood `B_c`, a bitset over value ids (the OR of the word runs of
//! its attributes, `crate::closed`), and `S_c = |B_c|`. The pass fills one
//! row `B_c` per class; then each row forms, once per neighbour class `d`,
//! the term `(I − 2) / (S_c + S_d − I)` with `I = |B_c ∩ B_d|`, and each
//! member of `c` sums its terms in ascending neighbour id, skipping itself.
//! That is the order of the literal per-pair sweep kept as its oracle, so
//! the two agree in every bit. The table is classes × ⌈values / 64⌉ × 8 B:
//! 0.7 MB on the standing benchmark's exact lake (3 685 values) and ~20 MB
//! on its large one. It has no budget, because its only non-test caller is
//! that benchmark's `graph.lcc_s` layer, on the exact lake, where it takes
//! 20–29 ms (shared 2-vCPU box, release, medians of 15 in seven runs).
//!
//! # Deltas
//!
//! One kernel serves builds and deltas. After a lake mutation the maintainer
//! derives the new graph, calls [`lcc_with_cardinality_for_values`] on it
//! with [`DirtyRegion::dirty_values`](crate::delta::DirtyRegion::dirty_values)
//! (from [`dirty_region`](crate::delta::dirty_region)) as the target list and
//! scatters the result; no score is derived from its previous value. A
//! target's score reads only the new graph, in a fold order fixed by that
//! graph (ascending class id), so a dirty value gets the bits a full pass
//! over that graph would give it. A value outside the dirty set kept `N(u)`
//! and every `A(v)`, `v ∈ N(u)`, and its score moves to its new node: a
//! delta renumbers nodes by deleting and inserting, so the surviving
//! neighbours keep their relative order, the classes among them keep
//! theirs, and the bits it carries are already those. A maintained score is
//! therefore a function of the maintained graph alone, `to_bits()`-equal to
//! a pass over it, and not of the deltas that led there:
//! `dirty_values_are_a_complete_invalidation_set` pins it. The maintained
//! graph is the graph a fresh build of the same lake derives, so the scores
//! are those of that build too.

use crate::bc::canonical_chunks;
use crate::bipartite::BipartiteGraph;
use crate::closed::{for_each_bit, popcount, AttributeRuns};
use crate::twins::{Twins, NONE};

/// Which reading of the bipartite local clustering coefficient
/// [`local_clustering_coefficients`] computes.
#[derive(Debug, Clone, Copy)]
pub enum LccMethod {
    /// Jaccard over value-neighbour sets. Served by no layer; the standing
    /// benchmark's `graph.lcc_s` layer times it.
    ValueNeighborJaccard,
    /// Jaccard over attribute sets: the paper's reading, served as
    /// `Measure::lcc()`.
    AttributeJaccard,
}

/// Compute the LCC of every **value node** on one thread, returned as a
/// vector indexed by value node id. Nodes with no value neighbors get 0.
pub fn local_clustering_coefficients(graph: &BipartiteGraph, method: LccMethod) -> Vec<f64> {
    match method {
        LccMethod::ValueNeighborJaccard => lcc_value_neighbors(graph),
        LccMethod::AttributeJaccard => {
            let targets: Vec<u32> = graph.value_nodes().collect();
            lcc_with_cardinality_for_values(graph, &targets, 1).0
        }
    }
}

/// The attribute-set LCC of each of `targets` and its cardinality `|N(u)|`
/// (its number of distinct value neighbors), both parallel to `targets`, as
/// one class-level counting join on a pool `threads` wide (see the module
/// doc). Nodes with no value neighbors get an LCC of 0.
///
/// The join counts `|N(u)|` on the way, so the cardinality is free —
/// callers that need both (the ranking metadata and the incremental score
/// maintenance do) avoid a second 2-hop sweep per node. Each score is
/// computed by one task in an order fixed by the graph, so the result is
/// `to_bits()`-identical at every width and for every target list.
pub fn lcc_with_cardinality_for_values(
    graph: &BipartiteGraph,
    targets: &[u32],
    threads: usize,
) -> (Vec<f64>, Vec<usize>) {
    // Degree-0 targets keep 0 / 0.
    let mut scores = vec![0.0; targets.len()];
    let mut cardinalities = vec![0usize; targets.len()];
    if targets.is_empty() {
        return (scores, cardinalities);
    }
    let classes = Twins::of(graph, graph.value_nodes());
    let class_of = |v: u32| classes.class_of[v as usize];
    let attributes = |c: u32| graph.neighbors(classes.members(c)[0]);
    let class_len: Vec<usize> = (0..classes.count() as u32)
        .map(|c| classes.members(c).len())
        .collect();
    let class_degree: Vec<usize> = (0..classes.count() as u32)
        .map(|c| attributes(c).len())
        .collect();
    let class_lists: Vec<Vec<u32>> = graph
        .attribute_nodes()
        .map(|a| {
            let mut list: Vec<u32> = graph.neighbors(a).iter().map(|&v| class_of(v)).collect();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect();
    let value_count = graph.value_count() as u32;

    // The distinct target classes, in target order.
    let mut row_of = vec![NONE; classes.count()];
    let mut rows: Vec<u32> = Vec::new();
    for &u in targets {
        debug_assert!(graph.is_value_node(u), "LCC is defined for value nodes");
        let c = class_of(u);
        if c != NONE && row_of[c as usize] == NONE {
            row_of[c as usize] = rows.len() as u32;
            rows.push(c);
        }
    }

    let chunks = canonical_chunks(rows.len());
    let parts = dn_pool::Pool::new(threads).run(chunks.len(), |ch| {
        let mut shared = vec![0u32; classes.count()];
        // The touched classes as a bitset over class ids, whose set bits
        // come out ascending without a sort.
        let mut touched = vec![0u64; classes.count().div_ceil(64)];
        rows[chunks[ch].clone()]
            .iter()
            .map(|&c| {
                let (mut lo, mut hi) = (usize::MAX, 0);
                for &a in attributes(c) {
                    // Non-empty: `c` is in the list of each of its attributes.
                    let list = &class_lists[(a - value_count) as usize];
                    for &d in list {
                        touched[d as usize / 64] |= 1 << (d % 64);
                        shared[d as usize] += 1;
                    }
                    lo = lo.min(list[0] as usize / 64);
                    hi = hi.max(list[list.len() - 1] as usize / 64 + 1);
                }
                let (mut size, mut sum) = (0usize, 0.0);
                for_each_bit(&touched, lo..hi, |d| {
                    let common = std::mem::take(&mut shared[d as usize]) as usize;
                    let len = class_len[d as usize];
                    size += len;
                    let weight = if d == c { len - 1 } else { len };
                    let union = class_degree[c as usize] + class_degree[d as usize] - common;
                    sum += (weight * common) as f64 / union as f64;
                });
                touched[lo..hi].fill(0);
                // Alone in all its attributes: no neighbour, score 0.
                let neighbours = size - 1;
                let score = if neighbours == 0 {
                    0.0
                } else {
                    sum / neighbours as f64
                };
                (score, neighbours)
            })
            .collect::<Vec<_>>()
    });
    let per_row: Vec<(f64, usize)> = parts.into_iter().flatten().collect();
    for (i, &u) in targets.iter().enumerate() {
        let c = class_of(u);
        if c != NONE {
            (scores[i], cardinalities[i]) = per_row[row_of[c as usize] as usize];
        }
    }
    (scores, cardinalities)
}

/// The value-neighbour reading of every value node, one whole-graph pass
/// on one thread (see the module doc).
fn lcc_value_neighbors(graph: &BipartiteGraph) -> Vec<f64> {
    let classes = Twins::of(graph, graph.value_nodes());
    let runs = AttributeRuns::of(graph);
    let words = runs.words();
    // One row B_c per class, the closed neighbourhood of its first member,
    // with its span and S_c.
    let mut table = vec![0u64; classes.count() * words];
    let (mut spans, mut sizes) = (Vec::new(), Vec::new());
    for c in 0..classes.count() {
        let row = &mut table[c * words..][..words];
        let span = runs.or_closed(graph, classes.members(c as u32)[0], row);
        sizes.push(popcount(&row[span.clone()]));
        spans.push(span);
    }
    // Degree-0 values and classes alone in their attributes keep 0.
    let mut scores = vec![0.0; graph.value_count()];
    // Row `c` has formed `term[d]` once `formed_by[d] == c`.
    let (mut formed_by, mut term) = (vec![NONE; classes.count()], vec![0.0; classes.count()]);
    let mut neighbourhood: Vec<(u32, f64)> = Vec::new();
    for c in 0..classes.count() {
        let (b_c, span, size) = (&table[c * words..][..words], spans[c].clone(), sizes[c]);
        if size == 1 {
            continue;
        }
        neighbourhood.clear();
        for_each_bit(b_c, span.clone(), |v| {
            let d = classes.class_of[v as usize] as usize;
            if formed_by[d] != c as u32 {
                formed_by[d] = c as u32;
                // Both endpoints lie in I and in neither open neighbourhood.
                let both = span.start.max(spans[d].start)..span.end.min(spans[d].end);
                let b_d = &table[d * words..][both.clone()];
                let shared: usize = b_c[both]
                    .iter()
                    .zip(b_d)
                    .map(|(x, y)| (x & y).count_ones() as usize)
                    .sum();
                term[d] = (shared - 2) as f64 / (size + sizes[d] - shared) as f64;
            }
            neighbourhood.push((v, term[d]));
        });
        // Ascending neighbour id, the literal sweep's order: what keeps
        // every score bit-identical to it.
        for &u in classes.members(c as u32) {
            let mut sum = 0.0;
            for &(v, t) in &neighbourhood {
                if v != u {
                    sum += t;
                }
            }
            scores[u as usize] = sum / (size - 1) as f64;
        }
    }
    scores
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The literal value-neighbour sweep, kept as the pass's oracle: per
    /// value, one stamp-deduplicated two-hop walk per value neighbour.
    fn lcc_value_neighbors_literal(graph: &BipartiteGraph) -> Vec<f64> {
        let n_values = graph.value_count();
        // Stamp arrays avoid clearing O(n) state per value/per neighbor.
        let mut in_target_neighborhood = vec![0u32; n_values];
        let mut visited = vec![0u32; n_values];
        let mut target_epoch = 0u32;
        let mut visit_epoch = 0u32;

        let mut out = Vec::with_capacity(n_values);
        for u in graph.value_nodes() {
            target_epoch += 1;
            // Materialize N(u) and mark it.
            let nu = graph.value_neighbors(u);
            for &v in &nu {
                in_target_neighborhood[v as usize] = target_epoch;
            }
            if nu.is_empty() {
                out.push(0.0);
                continue;
            }
            let nu_len = nu.len() as f64;
            let mut sum = 0.0;
            for &v in &nu {
                // Walk v's 2-hop neighborhood once, deduplicating with a stamp.
                visit_epoch += 1;
                let mut nv_len = 0usize;
                let mut inter = 0usize;
                for &attr in graph.neighbors(v) {
                    for &w in graph.neighbors(attr) {
                        if w == v {
                            continue;
                        }
                        let wi = w as usize;
                        if visited[wi] != visit_epoch {
                            visited[wi] = visit_epoch;
                            nv_len += 1;
                            // u ∈ N(v) but u ∉ N(u), so u itself never counts
                            // toward the intersection — only marked members of N(u).
                            if in_target_neighborhood[wi] == target_epoch {
                                inter += 1;
                            }
                        }
                    }
                }
                let union = nu.len() + nv_len - inter;
                if union > 0 {
                    sum += inter as f64 / union as f64;
                }
            }
            out.push(sum / nu_len);
        }
        out
    }

    /// The per-value walk the counting join replaced, kept as its oracle:
    /// one sorted attribute-list intersection per value neighbour, summed
    /// in ascending neighbour id.
    fn attribute_jaccard(graph: &BipartiteGraph, u: u32) -> (f64, usize) {
        debug_assert!(graph.is_value_node(u), "LCC is defined for value nodes");
        let nu = graph.value_neighbors(u);
        if nu.is_empty() {
            return (0.0, 0);
        }
        let au = graph.neighbors(u);
        let mut sum = 0.0;
        for &v in &nu {
            let av = graph.neighbors(v);
            let inter = sorted_intersection_size(au, av);
            let union = au.len() + av.len() - inter;
            if union > 0 {
                sum += inter as f64 / union as f64;
            }
        }
        (sum / nu.len() as f64, nu.len())
    }

    fn sorted_intersection_size(a: &[u32], b: &[u32]) -> usize {
        let mut i = 0;
        let mut j = 0;
        let mut count = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    fn star(k: usize) -> BipartiteGraph {
        let mut b = BipartiteBuilder::new();
        let a = b.add_attribute("a");
        for i in 0..k {
            let v = b.add_value(format!("v{i}"));
            b.add_edge(v, a);
        }
        b.build()
    }

    #[test]
    fn single_attribute_closed_form() {
        // All k values share one attribute: N(u) = k-1 others, and for any
        // neighbor v, |N(u) ∩ N(v)| = k-2, |N(u) ∪ N(v)| = k, so every value
        // has LCC = (k-2)/k under the value-neighbour reading and exactly 1
        // under the attribute-set one.
        for k in [3usize, 4, 7] {
            let g = star(k);
            let eq1 = local_clustering_coefficients(&g, LccMethod::ValueNeighborJaccard);
            let attr = local_clustering_coefficients(&g, LccMethod::AttributeJaccard);
            let expected = (k as f64 - 2.0) / k as f64;
            for v in 0..k {
                assert!((eq1[v] - expected).abs() < 1e-12, "k={k} got {}", eq1[v]);
                assert!((attr[v] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn isolated_value_has_zero_lcc() {
        let mut b = BipartiteBuilder::new();
        b.add_value("lonely");
        let a = b.add_attribute("a");
        let v = b.add_value("x");
        let w = b.add_value("y");
        let z = b.add_value("z");
        b.add_edge(v, a);
        b.add_edge(w, a);
        b.add_edge(z, a);
        let g = b.build();
        let lcc = local_clustering_coefficients(&g, LccMethod::ValueNeighborJaccard);
        assert_eq!(lcc[0], 0.0, "value with no neighbors has LCC 0");
        // Three values sharing one attribute: closed form (k-2)/k = 1/3.
        assert!((lcc[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Two dense communities bridged by a single value.
    fn bridged_communities(side: usize) -> (BipartiteGraph, u32) {
        let mut b = BipartiteBuilder::new();
        let bridge = b.add_value("bridge");
        // Each side has two attributes over the same set of values, so inner
        // values are tightly clustered.
        let make_side = |prefix: &str, b: &mut BipartiteBuilder| {
            let a0 = b.add_attribute(format!("{prefix}_a0"));
            let a1 = b.add_attribute(format!("{prefix}_a1"));
            for i in 0..side {
                let v = b.add_value(format!("{prefix}_{i}"));
                b.add_edge(v, a0);
                b.add_edge(v, a1);
            }
            (a0, a1)
        };
        let (l0, _) = make_side("left", &mut b);
        let (r0, _) = make_side("right", &mut b);
        b.add_edge(bridge, l0);
        b.add_edge(bridge, r0);
        (b.build(), bridge)
    }

    #[test]
    fn bridge_value_has_lowest_lcc() {
        let (g, bridge) = bridged_communities(6);
        for method in [LccMethod::ValueNeighborJaccard, LccMethod::AttributeJaccard] {
            let lcc = local_clustering_coefficients(&g, method);
            let bridge_lcc = lcc[bridge as usize];
            for v in g.value_nodes() {
                if v != bridge {
                    assert!(
                        bridge_lcc < lcc[v as usize] + 1e-12,
                        "{method:?}: bridge {bridge_lcc} not below {} ({})",
                        lcc[v as usize],
                        g.value_label(v)
                    );
                }
            }
        }
    }

    #[test]
    fn jaguar_has_lowest_lcc_in_running_example() {
        let (g, ids) = crate::bipartite::tests::figure3b();
        let lcc = local_clustering_coefficients(&g, LccMethod::ValueNeighborJaccard);
        let jaguar = lcc[ids["JAGUAR"] as usize];
        // Jaguar spans all four attributes; any repeated-but-unambiguous
        // value should cluster at least as tightly.
        for v in ["PANDA", "TOYOTA"] {
            assert!(
                jaguar <= lcc[ids[v] as usize] + 1e-12,
                "jaguar {jaguar} vs {v} {}",
                lcc[ids[v] as usize]
            );
        }
    }

    #[test]
    fn lcc_is_within_unit_interval() {
        let (g, _) = crate::bipartite::tests::figure3b();
        for method in [LccMethod::ValueNeighborJaccard, LccMethod::AttributeJaccard] {
            for &score in &local_clustering_coefficients(&g, method) {
                assert!((0.0..=1.0).contains(&score), "{method:?} score {score}");
            }
        }
    }

    /// The delta path: recompute `dirty_values` with the kernel, scatter over the carried scores moved through the
    /// renumbering, and every node (dirty or not) must hold the bits of a
    /// full pass over the new graph.
    /// Nodes are numbered as a build numbers them: a value or attribute is a
    /// node while it has an edge, in id order, so one that loses its last
    /// edge takes its node with it and the later ones move down.
    #[test]
    fn dirty_values_are_a_complete_invalidation_set() {
        use crate::delta::{dirty_region, Renumbering};
        use std::collections::{BTreeMap, BTreeSet};
        // Each step's graph is built from scratch out of its edge set over
        // stable (value, attribute) ids, with each id's node beside it.
        type Nodes = BTreeMap<u32, u32>;
        let build = |edges: &BTreeSet<(u32, u32)>| -> (BipartiteGraph, Nodes, Nodes) {
            let number = |ids: BTreeSet<u32>| -> Nodes { ids.into_iter().zip(0..).collect() };
            let values = number(edges.iter().map(|e| e.0).collect());
            let attrs = number(edges.iter().map(|e| e.1).collect());
            let mut b = BipartiteBuilder::new();
            for v in values.keys() {
                b.add_value(format!("v{v}"));
            }
            for a in attrs.keys() {
                b.add_attribute(format!("a{a}"));
            }
            for (v, a) in edges {
                b.add_edge(values[v], attrs[a]);
            }
            (b.build(), values, attrs)
        };
        let moved = |old: &Nodes, new: &Nodes| -> Vec<u32> {
            old.keys()
                .map(|id| new.get(id).copied().unwrap_or(u32::MAX))
                .collect()
        };
        // A lake-shaped graph: overlapping attributes over a shared pool.
        let mut edges: BTreeSet<(u32, u32)> = (0..5)
            .flat_map(|a| (0..20).map(move |v| (v, a)))
            .filter(|&(v, a)| (v + a) % 3 != 0)
            .collect();
        let (mut graph, mut value_nodes, mut attr_nodes) = build(&edges);
        let mut lcc = local_clustering_coefficients(&graph, LccMethod::AttributeJaccard);
        let mut cards: Vec<usize> = (0..graph.value_count() as u32)
            .map(|v| graph.value_neighbor_count(v))
            .collect();
        enum Edit {
            Add(u32, u32),
            Remove(u32, u32),
            DropValue(u32),
            DropAttr(u32),
        }
        use Edit::*;
        let steps: [&[Edit]; 6] = [
            &[Add(0, 0), Add(3, 0), Remove(1, 0)],
            &[Add(20, 5), Add(0, 5), Add(7, 5), Remove(2, 2)],
            // The kernel groups values by attribute set. Merge two classes: value 3 now has exactly value 0's attributes ...
            &[Add(3, 5)],
            // ... and split two: 0 leaves the class it just formed with 3,
            // 5 leaves the one it shared with 8, 11, 14 and 17.
            &[Remove(0, 1), Remove(5, 3)],
            // Value 7 loses every edge, as a value that drops to one
            // attribute does under pruning: values 8.. move down a node.
            &[DropValue(7)],
            // Attribute 2 loses every value, as the column of a table whose
            // last candidate leaves: attributes 3.. move down an index.
            &[DropAttr(2)],
        ];
        let same_attributes = |g: &BipartiteGraph, v: u32, w: u32| {
            let index = |n: &u32| g.attribute_index(*n);
            g.neighbors(v)
                .iter()
                .map(index)
                .eq(g.neighbors(w).iter().map(index))
        };
        for (step, edits) in steps.iter().enumerate() {
            let mut changed_ids = BTreeSet::new();
            for edit in *edits {
                let lost: Vec<(u32, u32)> = match *edit {
                    Add(v, a) => {
                        assert!(edges.insert((v, a)), "step {step}: {:?} exists", (v, a));
                        changed_ids.insert(v);
                        continue;
                    }
                    Remove(v, a) => vec![(v, a)],
                    DropValue(v) => edges.iter().filter(|e| e.0 == v).copied().collect(),
                    DropAttr(a) => edges.iter().filter(|e| e.1 == a).copied().collect(),
                };
                for edge in lost {
                    assert!(edges.remove(&edge), "step {step}: {edge:?} is missing");
                    changed_ids.insert(edge.0);
                }
            }
            let (new, new_value_nodes, new_attr_nodes) = build(&edges);
            let renumbering = Renumbering {
                values: moved(&value_nodes, &new_value_nodes),
                attrs: moved(&attr_nodes, &new_attr_nodes),
            };
            let changed: Vec<u32> = changed_ids
                .iter()
                .filter_map(|id| new_value_nodes.get(id).copied())
                .collect();
            let region = dirty_region(&graph, &new, &renumbering, &changed);
            let (fresh, fresh_cards) =
                lcc_with_cardinality_for_values(&new, &region.dirty_values, 2);
            let full = local_clustering_coefficients(&new, LccMethod::AttributeJaccard);
            // Move, scatter, then compare every node against a full pass.
            lcc = renumbering.move_values(&lcc, new.value_count());
            cards = renumbering.move_values(&cards, new.value_count());
            for (i, &node) in region.dirty_values.iter().enumerate() {
                lcc[node as usize] = fresh[i];
                cards[node as usize] = fresh_cards[i];
            }
            for node in 0..new.value_count() {
                assert_eq!(
                    lcc[node].to_bits(),
                    full[node].to_bits(),
                    "step {step}, node {node}: maintained {} vs full {}",
                    lcc[node],
                    full[node]
                );
                assert_eq!(
                    cards[node],
                    new.value_neighbor_count(node as u32),
                    "cardinality of node {node}"
                );
            }
            (graph, value_nodes, attr_nodes) = (new, new_value_nodes, new_attr_nodes);
            match step {
                1 => assert!(!same_attributes(&graph, 0, 3) && same_attributes(&graph, 5, 8)),
                2 => assert!(same_attributes(&graph, 0, 3)),
                3 => {
                    assert!(!same_attributes(&graph, 0, 3) && !same_attributes(&graph, 5, 8));
                    assert!(same_attributes(&graph, 8, 11));
                }
                4 => assert_eq!((value_nodes.get(&7), value_nodes[&8]), (None, 7)),
                5 => assert_eq!((attr_nodes.get(&2), attr_nodes[&3]), (None, 2)),
                _ => {}
            }
        }
    }

    #[test]
    fn targeted_computation_matches_full_computation() {
        let (g, ids) = crate::bipartite::tests::figure3b();
        let full = local_clustering_coefficients(&g, LccMethod::AttributeJaccard);
        let targets = vec![ids["JAGUAR"], ids["PANDA"]];
        let (partial, _) = lcc_with_cardinality_for_values(&g, &targets, 1);
        assert_eq!(partial[0].to_bits(), full[ids["JAGUAR"] as usize].to_bits());
        assert_eq!(partial[1].to_bits(), full[ids["PANDA"] as usize].to_bits());
    }

    /// The pass against the literal sweep, score bits.
    fn assert_pass_matches_literal(graph: &BipartiteGraph, what: &str) {
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&local_clustering_coefficients(
                graph,
                LccMethod::ValueNeighborJaccard
            )),
            bits(&lcc_value_neighbors_literal(graph)),
            "{what}: score bits"
        );
    }

    /// A random graph of up to 60 values × 12 attributes that holds, by
    /// construction, an isolated value, a value alone in all its attributes
    /// (S = 1) and two values with one attribute set.
    fn random_graph_with_corner_cases(rng: &mut StdRng, what: &str) -> BipartiteGraph {
        let (nv, na) = (rng.gen_range(1..=57u32), rng.gen_range(1..=10u32));
        let mut b = BipartiteBuilder::new();
        for v in 0..nv {
            b.add_value(format!("v{v}"));
        }
        for a in 0..na {
            b.add_attribute(format!("a{a}"));
        }
        let original = rng.gen_range(0..nv);
        let mut edges = vec![(original, rng.gen_range(0..na))];
        for _ in 0..rng.gen_range(0..=(nv * na).min(150)) {
            edges.push((rng.gen_range(0..nv), rng.gen_range(0..na)));
        }
        let isolated = b.add_value("isolated");
        let alone = b.add_value("alone");
        for _ in 0..rng.gen_range(1..=2) {
            edges.push((alone, b.add_attribute("of alone")));
        }
        let twin = b.add_value("twin");
        let copied: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(v, _)| v == original)
            .map(|&(_, a)| (twin, a))
            .collect();
        edges.extend(copied);
        for (v, a) in edges {
            b.add_edge(v, a);
        }
        let graph = b.build();
        assert_eq!(graph.degree(isolated), 0, "{what}");
        assert_eq!(graph.value_neighbor_count(alone), 0, "{what}");
        assert!(graph.degree(alone) > 0 && graph.degree(twin) > 0, "{what}");
        assert_eq!(graph.neighbors(twin), graph.neighbors(original), "{what}");
        graph
    }

    /// The DomainNet graph of a lake: values in at least two attributes.
    pub(crate) fn lake_graph(catalog: &lake::LakeCatalog) -> BipartiteGraph {
        let mut b = BipartiteBuilder::new();
        let mut node_of_value = vec![u32::MAX; catalog.value_count()];
        for value in catalog.values_in_at_least(2) {
            node_of_value[value.index()] = b.add_value(catalog.value(value).unwrap());
        }
        for (attr, values) in catalog.live_attribute_values() {
            let a = b.add_attribute(format!("attr_{}", attr.0));
            for value in values {
                if node_of_value[value.index()] != u32::MAX {
                    b.add_edge(node_of_value[value.index()], a);
                }
            }
        }
        b.build()
    }

    /// The same graph without the edges of one live value, drawn by `rng`.
    fn tombstone_a_value(graph: &BipartiteGraph, rng: &mut StdRng, what: &str) -> BipartiteGraph {
        let live: Vec<u32> = graph
            .value_nodes()
            .filter(|&v| graph.degree(v) > 0)
            .collect();
        let victim = live[rng.gen_range(0..live.len())];
        let mut b = BipartiteBuilder::new();
        for a in 0..graph.attribute_count() as u32 {
            b.add_attribute(graph.attribute_label(a));
        }
        for v in graph.value_nodes() {
            b.add_value(graph.value_label(v));
            if v != victim {
                for &a in graph.neighbors(v) {
                    b.add_edge(v, graph.attribute_index(a).unwrap());
                }
            }
        }
        let tombstoned = b.build();
        assert_eq!(tombstoned.degree(victim), 0, "{what}");
        tombstoned
    }

    #[test]
    fn join_matches_literal_sweep_bit_for_bit() {
        for seed in 0..1000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let what = format!("random graph {seed}");
            let graph = random_graph_with_corner_cases(&mut rng, &what);
            assert_pass_matches_literal(&graph, &what);
            let tombstoned = tombstone_a_value(&graph, &mut rng, &what);
            assert_pass_matches_literal(&tombstoned, &format!("{what}, tombstoned"));
        }
        let sb = datagen::sb::SbGenerator::new(2021).generate();
        assert_pass_matches_literal(&lake_graph(&sb.catalog), "SB seed 2021");
    }

    /// A test of its own only because the literal sweep of this lake takes
    /// two seconds in a debug build; `ci.sh` runs both by the common name.
    #[test]
    fn join_matches_literal_sweep_bit_for_bit_on_tus_small() {
        let tus = datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(2021)).generate();
        assert_pass_matches_literal(&lake_graph(&tus.catalog), "TUS small");
    }

    /// The counting join against the per-value walk on one target list, at
    /// widths 1, 2 and 3. The class sum regroups the walk's terms, so scores
    /// agree within a relative 1e-12; cardinalities equal the walk's and
    /// `value_neighbor_counts` exactly. Bits do not depend on the width or
    /// the target list: each score is the bits of a width-1 full pass.
    fn assert_counting_join_matches_walk(graph: &BipartiteGraph, targets: &[u32], what: &str) {
        let all: Vec<u32> = graph.value_nodes().collect();
        let (full, _) = lcc_with_cardinality_for_values(graph, &all, 1);
        let counts = graph.value_neighbor_counts(1);
        let (want, want_cardinalities): (Vec<f64>, Vec<usize>) =
            targets.iter().map(|&u| attribute_jaccard(graph, u)).unzip();
        for threads in [1, 2, 3] {
            let (got, got_cardinalities) = lcc_with_cardinality_for_values(graph, targets, threads);
            let case = format!("{what}, {threads} threads");
            assert_eq!(
                got_cardinalities, want_cardinalities,
                "{case}: cardinalities"
            );
            for (i, &u) in targets.iter().enumerate() {
                assert_eq!(got_cardinalities[i], counts[u as usize], "{case}: |N({u})|");
                assert!(
                    (got[i] - want[i]).abs() <= 1e-12 * want[i],
                    "{case}: value {u} scores {} against the walk's {}",
                    got[i],
                    want[i]
                );
                assert_eq!(
                    got[i].to_bits(),
                    full[u as usize].to_bits(),
                    "{case}: value {u} against a full pass"
                );
            }
        }
    }

    fn assert_counting_join_matches_walk_on(graph: &BipartiteGraph, rng: &mut StdRng, what: &str) {
        let n = graph.value_count() as u32;
        let all: Vec<u32> = graph.value_nodes().collect();
        assert_counting_join_matches_walk(graph, &all, what);
        let some: Vec<u32> = (0..rng.gen_range(1..=n.min(64)))
            .map(|_| rng.gen_range(0..n))
            .collect();
        assert_counting_join_matches_walk(graph, &some, what);
        assert_counting_join_matches_walk(graph, &[], what);
    }

    /// Random graphs with twins, an isolated value, a value alone in its
    /// attributes and single-attribute classes, each also with a value
    /// tombstoned; then the SB and small TUS lakes.
    #[test]
    fn counting_join_matches_the_per_value_walk() {
        for seed in 0..1000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let what = format!("random graph {seed}");
            let graph = random_graph_with_corner_cases(&mut rng, &what);
            assert_counting_join_matches_walk_on(&graph, &mut rng, &what);
            let tombstoned = tombstone_a_value(&graph, &mut rng, &what);
            assert_counting_join_matches_walk_on(
                &tombstoned,
                &mut rng,
                &format!("{what}, tombstoned"),
            );
        }
        let mut rng = StdRng::seed_from_u64(2021);
        let sb = datagen::sb::SbGenerator::new(2021).generate();
        assert_counting_join_matches_walk_on(&lake_graph(&sb.catalog), &mut rng, "SB seed 2021");
        let tus = datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(2021)).generate();
        assert_counting_join_matches_walk_on(&lake_graph(&tus.catalog), &mut rng, "TUS small");
    }

    /// Example 3.6 prints Jaguar 0.36, Puma 0.43 and Panda 0.45–0.46: the
    /// attribute-set reading on the running example.
    #[test]
    fn the_attribute_set_reading_prints_example_3_6() {
        let (g, ids) = crate::bipartite::tests::figure3b();
        let lcc = local_clustering_coefficients(&g, LccMethod::AttributeJaccard);
        let printed = |v: &str| (lcc[ids[v] as usize] * 100.0).round() / 100.0;
        assert_eq!(printed("JAGUAR"), 0.36);
        assert_eq!(printed("PUMA"), 0.43);
        assert_eq!(printed("PANDA"), 0.46);
    }
}
