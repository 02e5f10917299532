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
//! * Every member of a class `c` has one closed neighbourhood `B_c`, the
//!   values sharing an attribute with it, itself included. It is a bitset
//!   over value ids, the OR of the word runs of the class's attributes
//!   (the primitive `value_neighbor_counts` also reads; `crate::closed`),
//!   with a span `[lo, hi)` outside which every word is zero.
//! * `cadj(c)`, the classes that share an attribute with `c` (`c`
//!   included), are the classes whose first member lies in `B_c` (a class
//!   lies in `B_c` whole or not at all). `S(c) = |B_c|`, so
//!   `|N(u)| = S(c) − 1` for `u ∈ c`. A class alone in all its attributes
//!   has `S = 1`: no neighbour, score 0.
//! * For `u ∈ c` and a neighbour `v ∈ d`, both lie in `B_c ∩ B_d` and in
//!   neither open neighbourhood, so with `I = |B_c ∩ B_d|`
//!
//!   ```text
//!   |N(u) ∩ N(v)| = I − 2        |N(u) ∪ N(v)| = S(c) + S(d) − I
//!   ```
//!
//!   — one Jaccard term per *class pair*, the same `usize as f64 / usize as
//!   f64` the per-pair sweep evaluates. `I` is the popcount of an AND over
//!   the intersection of the two spans, where the sweep paid a two-hop walk
//!   per value pair (5.7 × 10⁸ inner iterations on that lake).
//! * The score of `u` is then the sum of its neighbours' terms **in ascending
//!   neighbour id** (the set bits of `B_c`, skipping `u`) over `S(c) − 1`.
//!   Multiplying a term by `|d|` would save that pass and change the last
//!   ulp; replaying the sweep's summation order is what keeps every score
//!   bit-identical to it, which the golden corpus, the replica digests and
//!   `join_matches_literal_sweep_bit_for_bit` (against the retained sweep)
//!   all rely on.
//!
//! A row of the table is one class's `B_c`: the targets' classes first, in
//! target order, then every other class adjacent to one of them. The kernel
//! runs on a pool `threads` wide in two passes over the canonical chunks of
//! the target rows ([`crate::bc`]'s cut, a function of the row count
//! alone). In pass A each task fills its rows' `B_c` into its own slice of
//! the table and reads `cadj(c)`, `S(c)` and the span off it. Between the
//! passes the caller numbers the classes those rows reached, in chunk
//! order, and fills their rows. In pass B each task forms its rows' terms
//! and folds each member's score. A score is written by the one task that
//! owns its row, from the same terms in the same order whatever the width,
//! so every score is `to_bits()`-equal at every width. Builds pass the
//! engine's compute width. A delta passes 1, because the writer shares the
//! machine with the readers (on a prototype, a pooled delta left POSTs
//! flat and slowed the co-located reader's reads by ~15 %). On the exact
//! lake (2-core box, release, medians of 15) the kernel takes 31–33 ms at
//! one thread, ~27 ms of it in pass B, and 16–26 ms at two, where the
//! serial join over whole rows took 27–38 ms.
//!
//! Memory: the table is `rows × ⌈values / 64⌉` words (0.7 MB on that lake,
//! 20 MB for the 13 522 values of its large one), freed before the kernel
//! returns; each task adds a few buffers of `classes` or `values / 64`
//! entries. Above `JOIN_TABLE_BYTES` (64 MiB) no table is kept: `I` is then
//! `Σ |e|` over `e ∈ cadj(c) ∩ cadj(d)`, found by stamping `cadj(c)`, and
//! a task refills one scratch row for the summation order — the same passes
//! and bits, ~0.11 s at one thread and ~0.09 s at two on the exact lake.
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
//! the dirty set kept its `N(u)` and every `N(v)`, `v ∈ N(u)`, and its
//! score moves to its new node: a delta renumbers nodes by deleting and
//! inserting, so the surviving neighbours keep their ascending order and
//! the bits it carries are already those. A maintained score is therefore
//! a function of the maintained graph alone, `to_bits()`-equal to a pass
//! over it, and not of the deltas that led there:
//! `dirty_values_are_a_complete_invalidation_set` pins it. The maintained
//! graph is the graph a fresh build of the same lake derives, so the
//! scores are those of that build too.

use std::ops::Range;

use crate::bc::canonical_chunks;
use crate::bipartite::BipartiteGraph;
use crate::closed::{for_each_bit, popcount, AttributeRuns};
use crate::twins::{Twins, NONE};

/// Which formulation of the local clustering coefficient to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LccMethod {
    /// Equation 1: Jaccard over 2-hop value-neighbor sets.
    ValueNeighborJaccard,
    /// Scalable variant: Jaccard over attribute (1-hop) sets.
    AttributeJaccard,
}

/// Compute the LCC of every **value node** on one thread, returned as a
/// vector indexed by value node id. Nodes with no value neighbors get 0.
pub fn local_clustering_coefficients(graph: &BipartiteGraph, method: LccMethod) -> Vec<f64> {
    let targets: Vec<u32> = graph.value_nodes().collect();
    lcc_with_cardinality_for_values(graph, &targets, method, 1).0
}

/// The LCC of each of `targets` and its cardinality `|N(u)|` (its number
/// of distinct value neighbors), both parallel to `targets`, on a pool
/// `threads` wide. Nodes with no value neighbors get an LCC of 0.
///
/// Both algorithms need `|N(u)|` anyway, so the cardinality is free —
/// callers that need both (the ranking metadata and the incremental score
/// maintenance do) avoid a second 2-hop sweep per node. Each score is
/// computed by one task in the order a single thread computes it, so the
/// result is `to_bits()`-identical at every width.
pub fn lcc_with_cardinality_for_values(
    graph: &BipartiteGraph,
    targets: &[u32],
    method: LccMethod,
    threads: usize,
) -> (Vec<f64>, Vec<usize>) {
    match method {
        LccMethod::ValueNeighborJaccard => {
            lcc_value_neighbors(graph, targets, JOIN_TABLE_BYTES, threads)
        }
        LccMethod::AttributeJaccard => lcc_attribute_jaccard(graph, targets, threads),
    }
}

/// Byte budget of the closed-neighbourhood bitset table of
/// `lcc_value_neighbors`. A lake whose table would be larger computes the
/// same intersection sizes from the class lists instead (see the module doc).
const JOIN_TABLE_BYTES: usize = 64 << 20;

/// What the join knows of each of its rows, read off `B_c`: `cadj(c)`
/// (flat, row `r`'s entries end at `cadj_ends[r]`), `S(c) = |B_c|` and
/// `B_c`'s span of words.
#[derive(Default)]
struct Rows {
    cadj: Vec<u32>,
    cadj_ends: Vec<usize>,
    size: Vec<usize>,
    span: Vec<Range<usize>>,
}

impl Rows {
    /// Append the row whose closed neighbourhood `bits` holds in `span`.
    /// `leaders` has the bit of each class's first member set, so the
    /// classes adjacent to the row are those of `bits & leaders`.
    fn push(&mut self, bits: &[u64], span: Range<usize>, leaders: &[u64], classes: &Twins) {
        for i in span.clone() {
            let mut word = bits[i] & leaders[i];
            while word != 0 {
                let v = (i * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                self.cadj.push(classes.class_of[v as usize]);
            }
        }
        self.cadj_ends.push(self.cadj.len());
        self.size.push(popcount(&bits[span.clone()]));
        self.span.push(span);
    }

    fn cadj(&self, r: usize) -> &[u32] {
        let start = if r == 0 { 0 } else { self.cadj_ends[r - 1] };
        &self.cadj[start..self.cadj_ends[r]]
    }

    /// Lay `parts` end to end.
    fn concat(parts: Vec<Rows>) -> Rows {
        let mut rows = Rows::default();
        for part in parts {
            let base = rows.cadj.len();
            rows.cadj.extend(part.cadj);
            rows.cadj_ends
                .extend(part.cadj_ends.iter().map(|end| base + end));
            rows.size.extend(part.size);
            rows.span.extend(part.span);
        }
        rows
    }
}

/// Equation 1 for `targets` as one class-level join on a pool `threads`
/// wide (see the module doc). `table_bytes` is the bitset-table budget;
/// production passes `JOIN_TABLE_BYTES`.
fn lcc_value_neighbors(
    graph: &BipartiteGraph,
    targets: &[u32],
    table_bytes: usize,
    threads: usize,
) -> (Vec<f64>, Vec<usize>) {
    // Degree-0 targets and classes alone in their attributes keep 0 / 0.
    let mut scores = vec![0.0; targets.len()];
    let mut cardinalities = vec![0usize; targets.len()];
    if targets.is_empty() {
        return (scores, cardinalities);
    }
    let classes = Twins::of(graph, graph.value_nodes());
    let class_of = |v: u32| classes.class_of[v as usize];
    let runs = AttributeRuns::of(graph);
    let words = runs.words();
    let mut leaders = vec![0u64; words];
    for c in 0..classes.count() as u32 {
        let v = classes.members(c)[0];
        leaders[v as usize / 64] |= 1u64 << (v % 64);
    }
    // B_c of every member of c is B(its first member). `fill_rows` fills
    // the rows of `cs` into `table` (one row of `words` each), or, when it
    // is empty, one at a time into a scratch row, and reads each off B_c.
    let fill = |bits: &mut [u64], c: u32| runs.or_closed(graph, classes.members(c)[0], bits);
    let fill_rows = |cs: &[u32], table: &mut [u64]| {
        let mut rows = Rows::default();
        let in_table = !table.is_empty();
        let mut scratch = vec![0u64; if in_table { 0 } else { words }];
        for (k, &c) in cs.iter().enumerate() {
            let bits = if in_table {
                &mut table[k * words..][..words]
            } else {
                &mut scratch[..]
            };
            let span = fill(bits, c);
            rows.push(bits, span.clone(), &leaders, &classes);
            if !in_table {
                bits[span].fill(0);
            }
        }
        rows
    };
    let class_len: Vec<u32> = (0..classes.count() as u32)
        .map(|c| classes.members(c).len() as u32)
        .collect();
    let fits = |rows: usize| {
        rows.checked_mul(words * 8)
            .is_some_and(|bytes| bytes <= table_bytes)
    };

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

    // Targets in row order; rows were numbered in target order, so every
    // target row `r` owns one contiguous, non-empty run of `order`, from
    // `run_offsets[r]` to `run_offsets[r + 1]`.
    let target_row = |i: u32| row_of[class_of(targets[i as usize]) as usize] as usize;
    let mut order: Vec<u32> = (0..targets.len() as u32)
        .filter(|&i| class_of(targets[i as usize]) != NONE)
        .collect();
    order.sort_by_key(|&i| target_row(i));
    let mut run_offsets = vec![0usize; target_rows + 1];
    for &i in &order {
        run_offsets[target_row(i) + 1] += 1;
    }
    for r in 0..target_rows {
        run_offsets[r + 1] += run_offsets[r];
    }
    let run = |r: usize| &order[run_offsets[r]..run_offsets[r + 1]];

    // Pass A: each task fills its target rows, in its own slice of the
    // table when the target rows fit the budget.
    let pool = dn_pool::Pool::new(threads);
    let chunks = canonical_chunks(target_rows);
    let mut use_table = fits(target_rows);
    let mut table = vec![0u64; if use_table { target_rows * words } else { 0 }];
    let mut slices: Vec<&mut [u64]> = Vec::with_capacity(chunks.len());
    let mut rest = &mut table[..];
    for chunk in &chunks {
        let (slice, tail) = rest.split_at_mut(if use_table { chunk.len() * words } else { 0 });
        slices.push(slice);
        rest = tail;
    }
    let mut parts = pool.run_over_mut(&mut slices, |ch, slice| {
        fill_rows(&rows[chunks[ch].clone()], slice)
    });
    drop(slices);

    // Between the passes: number the classes the target rows reached, in
    // chunk order, and fill their rows (in the table while all rows fit).
    for part in &parts {
        for &d in &part.cadj {
            if row_of[d as usize] == NONE {
                row_of[d as usize] = rows.len() as u32;
                rows.push(d);
            }
        }
    }
    use_table &= fits(rows.len());
    table.resize(if use_table { rows.len() * words } else { 0 }, 0);
    parts.push(fill_rows(
        &rows[target_rows..],
        table.get_mut(target_rows * words..).unwrap_or_default(),
    ));
    let info = Rows::concat(parts);

    // Pass B: one Jaccard term per adjacent class, then each member's terms
    // summed in ascending neighbour id, per target row.
    let parts = pool.run(chunks.len(), |ch| {
        let mut term_of = vec![0.0f64; classes.count()];
        let (mut stamp, mut scratch) = if use_table {
            (Vec::new(), Vec::new())
        } else {
            (vec![NONE; classes.count()], vec![0u64; words])
        };
        let mut neighbourhood: Vec<(u32, f64)> = Vec::new();
        let mut out = Vec::new();
        for r in chunks[ch].clone() {
            let members = run(r);
            let size = info.size[r];
            if size == 1 {
                // Alone in all its attributes: no neighbour, no pair.
                out.extend(members.iter().map(|_| 0.0));
                continue;
            }
            if !use_table {
                for &e in info.cadj(r) {
                    stamp[e as usize] = r as u32;
                }
            }
            // With I = |B_c ∩ B_d|, both endpoints lie in I and in neither
            // open neighbourhood.
            for &d in info.cadj(r) {
                let rd = row_of[d as usize] as usize;
                let shared = if use_table {
                    let lo = info.span[r].start.max(info.span[rd].start);
                    let hi = info.span[r].end.min(info.span[rd].end);
                    let (b_c, b_d) = (&table[r * words..][lo..hi], &table[rd * words..][lo..hi]);
                    b_c.iter()
                        .zip(b_d)
                        .map(|(x, y)| (x & y).count_ones() as usize)
                        .sum()
                } else {
                    // Branch-free: a stamp test fails about as often as
                    // it passes, and the sum vectorises (2–3× at one
                    // thread on the exact lake).
                    info.cadj(rd)
                        .iter()
                        .map(|&e| {
                            (stamp[e as usize] == r as u32) as usize
                                * class_len[e as usize] as usize
                        })
                        .sum::<usize>()
                };
                let union = size + info.size[rd] - shared;
                term_of[d as usize] = (shared - 2) as f64 / union as f64;
            }
            // The terms in ascending neighbour id: the order the literal
            // sweep adds them in, which is what keeps every score
            // bit-identical.
            let span = info.span[r].clone();
            let bits = if use_table {
                &table[r * words..][..words]
            } else {
                fill(&mut scratch, rows[r]);
                &scratch[..]
            };
            neighbourhood.clear();
            for_each_bit(bits, span.clone(), |v| {
                neighbourhood.push((v, term_of[class_of(v) as usize]));
            });
            if !use_table {
                scratch[span].fill(0);
            }
            for &i in members {
                let u = targets[i as usize];
                let mut sum = 0.0;
                for &(v, term) in &neighbourhood {
                    if v != u {
                        sum += term;
                    }
                }
                out.push(sum / (size - 1) as f64);
            }
        }
        out
    });
    for (part, chunk) in parts.iter().zip(&chunks) {
        let members = chunk
            .clone()
            .flat_map(|r| run(r).iter().map(move |&i| (r, i)));
        for (&score, (r, i)) in part.iter().zip(members) {
            scores[i as usize] = score;
            cardinalities[i as usize] = info.size[r] - 1;
        }
    }
    (scores, cardinalities)
}

/// The attribute-set variant, over canonical chunks of `targets` on a pool
/// `threads` wide; a target's score is computed as on one thread.
fn lcc_attribute_jaccard(
    graph: &BipartiteGraph,
    targets: &[u32],
    threads: usize,
) -> (Vec<f64>, Vec<usize>) {
    let chunks = canonical_chunks(targets.len());
    let parts = dn_pool::Pool::new(threads).run(chunks.len(), |c| {
        targets[chunks[c].clone()]
            .iter()
            .map(|&u| attribute_jaccard(graph, u))
            .collect::<Vec<_>>()
    });
    parts.into_iter().flatten().unzip()
}

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

#[cfg(test)]
pub(crate) mod tests {
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
    /// the carried scores moved through the renumbering, and every node
    /// (dirty or not) must hold the bits of a full pass over the new graph.
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
        let mut lcc = local_clustering_coefficients(&graph, LccMethod::ValueNeighborJaccard);
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
            let (fresh, fresh_cards) = lcc_with_cardinality_for_values(
                &new,
                &region.dirty_values,
                LccMethod::ValueNeighborJaccard,
                2,
            );
            let full = local_clustering_coefficients(&new, LccMethod::ValueNeighborJaccard);
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
        let full = local_clustering_coefficients(&g, LccMethod::ValueNeighborJaccard);
        let targets = vec![ids["JAGUAR"], ids["PANDA"]];
        let (partial, _) =
            lcc_with_cardinality_for_values(&g, &targets, LccMethod::ValueNeighborJaccard, 1);
        assert!((partial[0] - full[ids["JAGUAR"] as usize]).abs() < 1e-12);
        assert!((partial[1] - full[ids["PANDA"] as usize]).abs() < 1e-12);
    }

    /// The join against the literal sweep on one target list, at widths 1, 2
    /// and 3 and once per intersection primitive: the bitset table, the
    /// class lists at budget 0, and the switch between them after pass A at
    /// a budget that holds the targets' rows only.
    fn assert_join_matches_literal(graph: &BipartiteGraph, targets: &[u32], what: &str) {
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let (want, want_cardinalities) = lcc_value_neighbors_literal(graph, targets);
        let want = bits(&want);
        let classes = Twins::of(graph, graph.value_nodes());
        let mut target_classes: Vec<u32> = targets
            .iter()
            .map(|&u| classes.class_of[u as usize])
            .filter(|&c| c != NONE)
            .collect();
        target_classes.sort_unstable();
        target_classes.dedup();
        let target_rows_only = target_classes.len() * graph.value_count().div_ceil(64) * 8;
        for threads in [1, 2, 3] {
            for table_bytes in [JOIN_TABLE_BYTES, 0, target_rows_only] {
                let (got, got_cardinalities) =
                    lcc_value_neighbors(graph, targets, table_bytes, threads);
                let case = format!("{what}, {threads} threads, table budget {table_bytes}");
                assert_eq!(
                    got_cardinalities, want_cardinalities,
                    "{case}: cardinalities"
                );
                assert_eq!(bits(&got), want, "{case}: score bits");
            }
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
