//! Bipartite local clustering coefficients (Equation 1 of the paper).
//!
//! For a value node `u`, let `N(u)` be its *value neighbors* — every other
//! value that shares at least one attribute with `u`. The pairwise clustering
//! coefficient of two values is the Jaccard similarity of their neighbor
//! sets,
//!
//! ```text
//! c_vw = |N(v) ∩ N(w)| / |N(v) ∪ N(w)|
//! ```
//!
//! and the local clustering coefficient of `u` is the mean of `c_uv` over all
//! `v ∈ N(u)`. Hypothesis 3.4 of the paper: homographs, whose neighbors come
//! from several unrelated communities, have *lower* LCC than unambiguous
//! values.
//!
//! Two computation methods are offered:
//!
//! * [`LccMethod::ValueNeighborJaccard`] — Equation 1, evaluated as one
//!   value–attribute–value join over *classes* (below) instead of a two-hop
//!   walk per value pair.
//! * [`LccMethod::AttributeJaccard`] — the scalable variant the paper
//!   alludes to ("no more than the average Jaccard similarity between the
//!   set of attributes that a value co-occurs with"): the Jaccard is taken
//!   over the (much smaller) sets of *attributes* containing each value.
//!   Shares the same bias — it rewards values confined to overlapping
//!   attribute sets — at a fraction of the cost.
//!
//! # Cost of Equation 1
//!
//! `N(v)` and `|N(u) ∩ N(v)|` depend only on the *attribute sets* of `u` and
//! `v`, and a lake has far fewer distinct attribute sets than values (1 518
//! for 3 685 values on the standing benchmark's exact lake). So values are
//! grouped into **classes** of equal adjacency slice — the twin grouping
//! [`crate::bc`] also runs on, fed the value nodes (ids in first-occurrence
//! order, nothing depends on hash order; degree-0 values have no class and
//! score 0) — and the join runs between classes:
//!
//! * `cadj(c)` is the set of classes that share an attribute with `c`, `c`
//!   included, and `S(c) = Σ_{d ∈ cadj(c)} |d|` the size of the *closed*
//!   neighbourhood `B_c` of every member, so `|N(u)| = S(c) − 1` for `u ∈ c`.
//!   A class alone in all its attributes has `S = 1`: no neighbour, score 0.
//! * For `u ∈ c` and a neighbour `v ∈ d`, both lie in `B_c ∩ B_d` and in
//!   neither open neighbourhood, so with `I = |B_c ∩ B_d|`
//!
//!   ```text
//!   |N(u) ∩ N(v)| = I − 2        |N(u) ∪ N(v)| = S(c) + S(d) − I
//!   ```
//!
//!   — one Jaccard term per *class pair*, the same `usize as f64 / usize as
//!   f64` the per-pair sweep evaluates. `B_c` is materialised as a bitset over
//!   value ids for the targets' classes and their `cadj` only, and `I` is
//!   the popcount of an AND: `O(values / 64)` per class pair where the sweep
//!   paid a two-hop walk per value pair (5.7 × 10⁸ inner iterations on that
//!   lake, 1.0 s → 0.02 s).
//! * The score of `u` is then the sum of its neighbours' terms **in ascending
//!   neighbour id** (the set bits of `B_c`, skipping `u`) over `S(c) − 1`.
//!   Multiplying a term by `|d|` would save that pass and change the last
//!   ulp; replaying the sweep's summation order is what keeps every score
//!   bit-identical to it, which the golden corpus, the replica digests and
//!   `join_matches_literal_sweep_bit_for_bit` (against the retained sweep)
//!   all rely on.
//!
//! Memory: the table is `rows × ⌈values / 64⌉` words (0.7 MB on that lake,
//! 20 MB for the 13 522 values of its large one), freed before the kernel
//! returns. Above `JOIN_TABLE_BYTES` (64 MiB) it is not built: `I` is then
//! `Σ |e|` over `e ∈ cadj(c) ∩ cadj(d)`, found by stamping `cadj(c)` —
//! `O(classes)` scratch plus one bitset row for the summation order, 0.24 s
//! instead of 0.02 s on the exact lake, everything else shared.
//!
//! # Deltas
//!
//! One kernel serves builds and deltas. After a lake mutation the maintainer
//! derives the new graph, calls [`lcc_with_cardinality_for_values`] on it
//! with [`DirtyRegion::dirty_values`](crate::delta::DirtyRegion::dirty_values)
//! (from [`dirty_region`](crate::delta::dirty_region)) as the target list and
//! scatters the result; no score is derived from its previous value. A
//! target's score reads only the new graph, and its terms are added in
//! ascending neighbour id whatever the target list holds, so a dirty value
//! gets the bits a full pass over that graph would give it. A value outside
//! the dirty set kept its `N(u)` and every `N(v)`, `v ∈ N(u)` (value ids
//! never change across a delta), so the bits it carries are already those.
//! A maintained score is therefore a function of the maintained graph
//! alone, `to_bits()`-equal to a pass over it, and not of the deltas that
//! led there: `dirty_values_are_a_complete_invalidation_set` pins it. A fresh *build* of the same lake may number nodes differently and
//! so sum in another order; that, not drift, is what the 1e-9 tolerances of
//! the cross-layout suites cover.

use crate::bipartite::BipartiteGraph;
use crate::twins::{Twins, NONE};

/// Which formulation of the local clustering coefficient to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LccMethod {
    /// Equation 1: Jaccard over 2-hop value-neighbor sets.
    ValueNeighborJaccard,
    /// Scalable variant: Jaccard over attribute (1-hop) sets.
    AttributeJaccard,
}

/// Compute the LCC of every **value node**, returned as a vector indexed by
/// value node id.
pub fn local_clustering_coefficients(graph: &BipartiteGraph, method: LccMethod) -> Vec<f64> {
    let targets: Vec<u32> = graph.value_nodes().collect();
    lcc_for_values(graph, &targets, method)
}

/// Compute the LCC for an explicit list of value nodes.
///
/// The result is parallel to `targets`. Nodes with no value neighbors get an
/// LCC of 0.
pub fn lcc_for_values(graph: &BipartiteGraph, targets: &[u32], method: LccMethod) -> Vec<f64> {
    lcc_with_cardinality_for_values(graph, targets, method).0
}

/// Like [`lcc_for_values`], but also returns each target's cardinality
/// `|N(u)|` (its number of distinct value neighbors).
///
/// Both algorithms need `|N(u)|` anyway, so the cardinality is free —
/// callers that need both (the ranking metadata and the incremental score
/// maintenance do) avoid a second 2-hop sweep per node.
pub fn lcc_with_cardinality_for_values(
    graph: &BipartiteGraph,
    targets: &[u32],
    method: LccMethod,
) -> (Vec<f64>, Vec<usize>) {
    match method {
        LccMethod::ValueNeighborJaccard => lcc_value_neighbors(graph, targets, JOIN_TABLE_BYTES),
        LccMethod::AttributeJaccard => lcc_attribute_jaccard(graph, targets),
    }
}

/// Byte budget of the closed-neighbourhood bitset table of
/// `lcc_value_neighbors`. A lake whose table would be larger computes the
/// same intersection sizes from the class lists instead (see the module doc).
const JOIN_TABLE_BYTES: usize = 64 << 20;

/// Equation 1 for `targets` as one class-level join (see the module doc).
/// `table_bytes` is the bitset-table budget; production passes
/// `JOIN_TABLE_BYTES`.
fn lcc_value_neighbors(
    graph: &BipartiteGraph,
    targets: &[u32],
    table_bytes: usize,
) -> (Vec<f64>, Vec<usize>) {
    // Degree-0 targets and classes alone in their attributes keep 0 / 0.
    let mut scores = vec![0.0; targets.len()];
    let mut cardinalities = vec![0usize; targets.len()];
    if targets.is_empty() {
        return (scores, cardinalities);
    }
    let classes = Twins::of(graph, graph.value_nodes());
    let class_of = |v: u32| classes.class_of[v as usize];

    // A row per class whose closed neighbourhood is needed: the classes of
    // the targets first, then every other class adjacent to one of them.
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
    let target_rows = rows.len();

    // cadj(c), the classes sharing an attribute with c (c among them), and
    // S(c) = Σ |d| over them, per row.
    let mut stamp = vec![0u32; classes.count()];
    let mut epoch = 0u32;
    let mut cadj: Vec<u32> = Vec::new();
    let mut cadj_offsets = vec![0usize];
    let mut closed_size: Vec<usize> = Vec::new();
    let mut r = 0;
    while r < rows.len() {
        epoch += 1;
        let mut size = 0;
        for &attr in graph.neighbors(classes.members(rows[r])[0]) {
            for &w in graph.neighbors(attr) {
                let d = class_of(w);
                if stamp[d as usize] != epoch {
                    stamp[d as usize] = epoch;
                    cadj.push(d);
                    size += classes.members(d).len();
                    if r < target_rows && row_of[d as usize] == NONE {
                        row_of[d as usize] = rows.len() as u32;
                        rows.push(d);
                    }
                }
            }
        }
        cadj_offsets.push(cadj.len());
        closed_size.push(size);
        r += 1;
    }
    let cadj_of = |r: usize| &cadj[cadj_offsets[r]..cadj_offsets[r + 1]];

    // B_c: the closed neighbourhood of a row as a bitset over value ids.
    let words = graph.value_count().div_ceil(64);
    let fill = |bits: &mut [u64], r: usize| {
        for &d in cadj_of(r) {
            for &w in classes.members(d) {
                bits[w as usize / 64] |= 1u64 << (w % 64);
            }
        }
    };
    let use_table = rows
        .len()
        .checked_mul(words * 8)
        .is_some_and(|bytes| bytes <= table_bytes);
    let mut table = vec![0u64; if use_table { rows.len() * words } else { words }];
    if use_table {
        for (r, bits) in table.chunks_exact_mut(words).enumerate() {
            fill(bits, r);
        }
    }

    // Targets in row order; rows were numbered in target order, so every
    // target row owns one contiguous, non-empty run.
    let target_row = |i: u32| row_of[class_of(targets[i as usize]) as usize];
    let mut order: Vec<u32> = (0..targets.len() as u32)
        .filter(|&i| class_of(targets[i as usize]) != NONE)
        .collect();
    order.sort_by_key(|&i| target_row(i));
    let mut run_end = 0;

    let mut term_of = vec![0.0f64; classes.count()];
    let mut neighbourhood: Vec<(u32, f64)> = Vec::new();
    for r in 0..target_rows {
        let run_start = run_end;
        while run_end < order.len() && target_row(order[run_end]) as usize == r {
            run_end += 1;
        }
        if closed_size[r] == 1 {
            // Alone in all its attributes: no neighbour, no pair.
            continue;
        }
        // One Jaccard term per adjacent class: with I = |B_c ∩ B_d|, both
        // endpoints lie in I and in neither open neighbourhood.
        epoch += 1;
        if !use_table {
            for &e in cadj_of(r) {
                stamp[e as usize] = epoch;
            }
        }
        for &d in cadj_of(r) {
            let rd = row_of[d as usize] as usize;
            let shared = if use_table {
                let (b_c, b_d) = (&table[r * words..][..words], &table[rd * words..][..words]);
                b_c.iter()
                    .zip(b_d)
                    .map(|(x, y)| (x & y).count_ones() as usize)
                    .sum()
            } else {
                cadj_of(rd)
                    .iter()
                    .filter(|&&e| stamp[e as usize] == epoch)
                    .map(|&e| classes.members(e).len())
                    .sum::<usize>()
            };
            let union = closed_size[r] + closed_size[rd] - shared;
            term_of[d as usize] = (shared - 2) as f64 / union as f64;
        }
        // The terms in ascending neighbour id: the order the literal sweep
        // adds them in, which is what keeps every score bit-identical.
        let bits = if use_table {
            &table[r * words..][..words]
        } else {
            fill(&mut table, r);
            &table[..]
        };
        neighbourhood.clear();
        for (i, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let v = (i * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                neighbourhood.push((v, term_of[class_of(v) as usize]));
            }
        }
        if !use_table {
            table.fill(0);
        }
        let cardinality = closed_size[r] - 1;
        for &i in &order[run_start..run_end] {
            let u = targets[i as usize];
            let mut sum = 0.0;
            for &(v, term) in &neighbourhood {
                if v != u {
                    sum += term;
                }
            }
            scores[i as usize] = sum / cardinality as f64;
            cardinalities[i as usize] = cardinality;
        }
    }
    (scores, cardinalities)
}

fn lcc_attribute_jaccard(graph: &BipartiteGraph, targets: &[u32]) -> (Vec<f64>, Vec<usize>) {
    let mut out = Vec::with_capacity(targets.len());
    let mut cardinalities = Vec::with_capacity(targets.len());
    for &u in targets {
        debug_assert!(graph.is_value_node(u), "LCC is defined for value nodes");
        let nu = graph.value_neighbors(u);
        cardinalities.push(nu.len());
        if nu.is_empty() {
            out.push(0.0);
            continue;
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
        out.push(sum / nu.len() as f64);
    }
    (out, cardinalities)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The literal Equation-1 sweep the join replaced, kept as its oracle: per
    /// target, one stamp-deduplicated two-hop walk per value neighbour.
    fn lcc_value_neighbors_literal(
        graph: &BipartiteGraph,
        targets: &[u32],
    ) -> (Vec<f64>, Vec<usize>) {
        let n_values = graph.value_count();
        // Stamp arrays avoid clearing O(n) state per target/per neighbor.
        let mut in_target_neighborhood = vec![0u32; n_values];
        let mut visited = vec![0u32; n_values];
        let mut target_epoch = 0u32;
        let mut visit_epoch = 0u32;

        let mut out = Vec::with_capacity(targets.len());
        let mut cardinalities = Vec::with_capacity(targets.len());
        for &u in targets {
            debug_assert!(graph.is_value_node(u), "LCC is defined for value nodes");
            target_epoch += 1;
            // Materialize N(u) and mark it.
            let nu = graph.value_neighbors(u);
            cardinalities.push(nu.len());
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
        (out, cardinalities)
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
        // has LCC = (k-2)/k under Equation 1 and exactly 1 under the
        // attribute-Jaccard variant.
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

    /// The delta path: recompute `dirty_values` with the kernel, scatter over
    /// the carried scores, and every node (dirty or not) must hold the bits of
    /// a full pass over the new graph.
    #[test]
    fn dirty_values_are_a_complete_invalidation_set() {
        use crate::delta::dirty_region;
        use std::collections::BTreeSet;
        // Each step's graph is built from scratch out of its edge set.
        let build = |values: u32, attrs: u32, edges: &BTreeSet<(u32, u32)>| {
            let mut b = BipartiteBuilder::new();
            for v in 0..values {
                b.add_value(format!("v{v}"));
            }
            for a in 0..attrs {
                b.add_attribute(format!("a{a}"));
            }
            for &(v, a) in edges {
                b.add_edge(v, a);
            }
            b.build()
        };
        // A lake-shaped graph: overlapping attributes over a shared pool.
        let (mut values, mut attrs) = (20, 5);
        let mut edges: BTreeSet<(u32, u32)> = (0..attrs)
            .flat_map(|a| (0..values).map(move |v| (v, a)))
            .filter(|&(v, a)| (v + a) % 3 != 0)
            .collect();
        let mut graph = build(values, attrs, &edges);
        let mut lcc = local_clustering_coefficients(&graph, LccMethod::ValueNeighborJaccard);
        let mut cards: Vec<usize> = (0..graph.value_count() as u32)
            .map(|v| graph.value_neighbor_count(v))
            .collect();
        // (values appended, attributes appended, edges added, edges removed)
        type Step = (u32, u32, &'static [(u32, u32)], &'static [(u32, u32)]);
        let steps: [Step; 4] = [
            (0, 0, &[(0, 0), (3, 0)], &[(1, 0)]),
            (1, 1, &[(20, 5), (0, 5), (7, 5)], &[(2, 2)]),
            // The kernel groups values by attribute set. Merge two classes: value 3 now has exactly value 0's attributes ...
            (0, 0, &[(3, 5)], &[]),
            // ... and split two: 0 leaves the class it just formed with 3,
            // 5 leaves the one it shared with 8, 11, 14 and 17.
            (0, 0, &[], &[(0, 1), (5, 3)]),
        ];
        let same_attributes = |g: &BipartiteGraph, v: u32, w: u32| {
            let index = |n: &u32| g.attribute_index(*n);
            g.neighbors(v)
                .iter()
                .map(index)
                .eq(g.neighbors(w).iter().map(index))
        };
        for (step, &(new_values, new_attrs, added, removed)) in steps.iter().enumerate() {
            values += new_values;
            attrs += new_attrs;
            for edge in added {
                assert!(edges.insert(*edge), "step {step}: {edge:?} exists");
            }
            for edge in removed {
                assert!(edges.remove(edge), "step {step}: {edge:?} is missing");
            }
            let new = build(values, attrs, &edges);
            let mut changed: Vec<u32> = added.iter().chain(removed).map(|&(v, _)| v).collect();
            changed.sort_unstable();
            changed.dedup();
            let region = dirty_region(&graph, &new, &changed);
            let (fresh, fresh_cards) = lcc_with_cardinality_for_values(
                &new,
                &region.dirty_values,
                LccMethod::ValueNeighborJaccard,
            );
            let full = local_clustering_coefficients(&new, LccMethod::ValueNeighborJaccard);
            // Scatter, then compare every node against a full pass.
            lcc.resize(new.value_count(), 0.0);
            cards.resize(new.value_count(), 0);
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
            graph = new;
            match step {
                1 => assert!(!same_attributes(&graph, 0, 3) && same_attributes(&graph, 5, 8)),
                2 => assert!(same_attributes(&graph, 0, 3)),
                3 => {
                    assert!(!same_attributes(&graph, 0, 3) && !same_attributes(&graph, 5, 8));
                    assert!(same_attributes(&graph, 8, 11));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn targeted_computation_matches_full_computation() {
        let (g, ids) = crate::bipartite::tests::figure3b();
        let full = local_clustering_coefficients(&g, LccMethod::ValueNeighborJaccard);
        let targets = vec![ids["JAGUAR"], ids["PANDA"]];
        let partial = lcc_for_values(&g, &targets, LccMethod::ValueNeighborJaccard);
        assert!((partial[0] - full[ids["JAGUAR"] as usize]).abs() < 1e-12);
        assert!((partial[1] - full[ids["PANDA"] as usize]).abs() < 1e-12);
    }

    /// The join against the literal sweep on one target list, once per
    /// intersection primitive (bitset table, and class lists at budget 0).
    fn assert_join_matches_literal(graph: &BipartiteGraph, targets: &[u32], what: &str) {
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let (want, want_cardinalities) = lcc_value_neighbors_literal(graph, targets);
        let want = bits(&want);
        for table_bytes in [JOIN_TABLE_BYTES, 0] {
            let (got, got_cardinalities) = lcc_value_neighbors(graph, targets, table_bytes);
            assert_eq!(
                got_cardinalities, want_cardinalities,
                "{what}, table budget {table_bytes}: cardinalities"
            );
            assert_eq!(
                bits(&got),
                want,
                "{what}, table budget {table_bytes}: score bits"
            );
        }
    }

    /// Full target list, a random list (unordered, may repeat; at most 64
    /// long, which only the lakes exceed) and the empty one.
    fn assert_join_matches_literal_on(graph: &BipartiteGraph, rng: &mut StdRng, what: &str) {
        let n = graph.value_count() as u32;
        let all: Vec<u32> = graph.value_nodes().collect();
        assert_join_matches_literal(graph, &all, what);
        let some: Vec<u32> = (0..rng.gen_range(1..=n.min(64)))
            .map(|_| rng.gen_range(0..n))
            .collect();
        assert_join_matches_literal(graph, &some, what);
        assert_join_matches_literal(graph, &[], what);
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
    fn lake_graph(catalog: &lake::LakeCatalog) -> BipartiteGraph {
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

    #[test]
    fn join_matches_literal_sweep_bit_for_bit() {
        for seed in 0..1000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let what = format!("random graph {seed}");
            let graph = random_graph_with_corner_cases(&mut rng, &what);
            assert_join_matches_literal_on(&graph, &mut rng, &what);

            // Tombstone a live value: the same graph without its edges.
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
            assert_join_matches_literal_on(&tombstoned, &mut rng, &format!("{what}, tombstoned"));
        }

        let mut rng = StdRng::seed_from_u64(2021);
        let sb = datagen::sb::SbGenerator::new(2021).generate();
        assert_join_matches_literal_on(&lake_graph(&sb.catalog), &mut rng, "SB seed 2021");
    }

    /// A test of its own only because the literal sweep of this lake takes
    /// two seconds in a debug build; `ci.sh` runs both by the common name.
    #[test]
    fn join_matches_literal_sweep_bit_for_bit_on_tus_small() {
        let mut rng = StdRng::seed_from_u64(2021);
        let tus = datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(2021)).generate();
        assert_join_matches_literal_on(&lake_graph(&tus.catalog), &mut rng, "TUS small");
    }
}
