//! Exact betweenness centrality: Brandes' algorithm on the twin quotient.
//!
//! The betweenness centrality of a node `u` is
//!
//! ```text
//! BC(u) = Σ_{v≠u, w≠u} σ_vw(u) / σ_vw
//! ```
//!
//! where `σ_vw` is the number of shortest paths between `v` and `w` and
//! `σ_vw(u)` the number of those passing through `u` (Equation 2 of the
//! paper; Freeman 1977). DomainNet's core hypothesis (Hypothesis 3.5) is that
//! homographs — values bridging otherwise disconnected semantic communities —
//! have unusually high BC in the bipartite value/attribute graph.
//!
//! Brandes' algorithm (2001) computes all BC values in `O(n·m)` time for an
//! unweighted graph by running one BFS per source node and accumulating
//! *dependencies* backwards along the BFS DAG. In a bipartite graph every
//! edge joins two consecutive BFS levels, so a node's neighbours popped
//! before it are exactly its predecessors, and those finished before it in
//! the reverse sweep are exactly its successors. Both sweeps therefore
//! *gather* (successor-based Brandes, Madduri et al., IPDPS 2009, in the pull
//! direction of Beamer et al., SC 2012): a node sums one value over all its
//! neighbours, a value that is 0 until the neighbour is popped (finished).
//! An adjacency entry costs one read: no distance test, no scattered write.
//!
//! # Twins
//!
//! Nodes with one neighbour list are *twins*, and a value/attribute graph
//! has many: on the standing benchmark's exact lake 3 685 values fall into
//! 1 518 classes and 336 attributes into 200. Twins have the same distance,
//! the same σ and the same dependency from every source, and as sources they
//! give every other node the same dependency. So this module groups the
//! source set, values and attributes, into twin classes and runs Brandes on
//! the *quotient*: one node per class `c`, of multiplicity `m(c)`, adjacent
//! to the classes its members neighbour — identical-vertex compression
//! (Sarıyüce, Saule, Kaya and Çatalyürek, "Shattering and Compressing
//! Networks for Betweenness Centrality", SDM 2013). One BFS per source class
//! `S`, from a representative `s`:
//!
//! * `v` gathers `σ[v] = Σ_{w∈N(v)} t[w]` as it is popped, where `t[w] =
//!   σ[w]·m(w)` is written when `w` is popped, since every node of `w`
//!   precedes every node of `v`. `t[S] = 1`, as only `s` is at distance 0.
//! * `v` gathers `δ[v] = seed(v) + σ[v]·Σ_{w∈N(v)} c[w]` as it finishes,
//!   where `c[w] = m(w)·(1 + δ[w]) / σ[w]` is written when `w` finishes,
//!   since a node of `v` has `m(w)` successors in `w`. `t` and `c` share one
//!   array, zeroed between the sweeps; `S` never finishes, so `c[S]` stays 0.
//! * The source-twin term `seed(v)`: the `m(S) − 1` twins of `s` are not on
//!   the quotient BFS. They are leaves at distance 2, reached once through
//!   each of the `deg(s)` neighbours of `s`, so every such neighbour owes
//!   them `(m(S) − 1) / deg(s)`; those are the first BFS level, 0 elsewhere.
//! * Every class `c ≠ S` collects `weight·δ[c]`; the members of `S` collect
//!   nothing (the source, and leaves).
//!
//! Exact BC runs every class once with `weight = m(S)`; the sampled
//! estimator of [`crate::approx_bc`] runs each drawn class once with `weight
//! = draws·scale`. Class totals are scattered to the members and halved, so
//! twins carry identical bits; degree-0 nodes are in no class and score 0.
//! The per-node kernel survives as the test oracle
//! (`quotient_matches_per_node_brandes`).
//!
//! # Lanes
//!
//! A sweep runs up to `LANES` = 8 sources in lockstep, one per lane, level by
//! level (multi-source BFS; Then et al., PVLDB 2014). The argument above holds
//! lane by lane: a class at lane `l`'s level `d` neighbours only its levels
//! `d ± 1`, and reads 0 in a lane that has not popped (finished) a neighbour,
//! other components and exhausted lanes included. So an entry gathers eight
//! lanes per adjacency entry, eight independent adds, and keeps its own. A
//! class adds its `weight·δ` in lane (= source) order after the sweep, so a
//! batch is bit-identical to its sources one at a time.
//!
//! A source set must be a union of connected components — the whole graph,
//! or the components a delta touched — so that every node a BFS reaches is
//! grouped.
//!
//! Every function in this module counts each unordered pair `{v, w}` once,
//! which is the standard convention for undirected graphs. Use
//! [`normalize_scores`] to rescale into `[0, 1]`.

use crate::bipartite::BipartiteGraph;
use crate::twins::{Twins, NONE};
use std::sync::Mutex;

/// Exact betweenness centrality of every node (single-threaded).
///
/// Each unordered pair of endpoints contributes once. Runtime is `O(n·m)`.
/// Bit-identical to [`betweenness_centrality_parallel`] at any width.
pub fn betweenness_centrality(graph: &BipartiteGraph) -> Vec<f64> {
    betweenness_centrality_parallel(graph, 1)
}

/// The canonical task-decomposition width: source lists are split into at
/// most this many chunks. The chunk layout is a **pure function of the
/// source count** — never of the thread count or of which worker ran what —
/// so the floating-point reduction is parenthesized identically for every
/// pool width (1 included) and every run. That is what makes exact-BC
/// results `to_bits()`-identical across thread counts, which the golden
/// gates and the replication digest exchange rely on. A call holds 32
/// accumulators of `classes` floats and one lane workspace per worker.
const MAX_CHUNKS: usize = 32;

/// Split `0..len` into the canonical chunk ranges (at most [`MAX_CHUNKS`],
/// each contiguous, sized `ceil(len / MAX_CHUNKS)` except the tail).
pub(crate) fn canonical_chunks(len: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk_size = len.div_ceil(MAX_CHUNKS).max(1);
    (0..len.div_ceil(chunk_size))
        .map(|c| c * chunk_size..((c + 1) * chunk_size).min(len))
        .collect()
}

/// Exact betweenness centrality using a pool `threads` wide.
///
/// The source classes are split into the canonical chunks (at most
/// `MAX_CHUNKS`) and scheduled onto a work-stealing [`dn_pool::Pool`]; each
/// chunk owns a private per-class accumulator, and the per-chunk partials
/// are folded **in chunk order**, so the result is bit-identical for every
/// `threads` value — `betweenness_centrality_parallel(g, 1)` and `(g, 8)`
/// agree on every bit.
pub fn betweenness_centrality_parallel(graph: &BipartiteGraph, threads: usize) -> Vec<f64> {
    let twins = Twins::of(graph, graph.nodes());
    quotient_brandes(graph, &twins, &every_class(&twins), threads)
}

/// Exact betweenness restricted to shortest paths **starting at `sources`**,
/// halved to the unordered-pair convention of [`betweenness_centrality`].
///
/// The incremental pipeline uses this for component-scoped invalidation:
/// because a dependency accumulation from source `s` never leaves `s`'s
/// connected component, passing *every* node of a union of components as
/// `sources` yields, for the nodes **inside** those components, exactly their
/// global exact BC — without touching the rest of the graph. `sources` must
/// be such a union (a set, in any order); nodes outside it score 0.
///
/// # Panics
/// Panics if a node of `sources` has a neighbour outside it.
pub fn betweenness_from_sources(
    graph: &BipartiteGraph,
    sources: &[u32],
    threads: usize,
) -> Vec<f64> {
    let twins = pool_twins(graph, sources);
    quotient_brandes(graph, &twins, &every_class(&twins), threads.max(1))
}

/// The twin classes of a union of components given as a node list in any
/// order.
pub(crate) fn pool_twins(graph: &BipartiteGraph, pool: &[u32]) -> Twins {
    let mut nodes = pool.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    Twins::of(graph, nodes)
}

/// Every class as a source, weighted by its size: exact BC.
fn every_class(twins: &Twins) -> Vec<(u32, f64)> {
    (0..twins.count() as u32)
        .map(|c| (c, twins.members(c).len() as f64))
        .collect()
}

/// Run the quotient kernel from each `(class, weight)` of `sources` across a
/// work-stealing pool, scatter the class totals to the members and halve.
/// Deterministic: the canonical chunk layout over `sources`, its batches of
/// [`LANES`] and the chunk-index-ordered fold make the output a pure function
/// of `(graph, twins, sources)`, independent of `threads` and of scheduling.
pub(crate) fn quotient_brandes(
    graph: &BipartiteGraph,
    twins: &Twins,
    sources: &[(u32, f64)],
    threads: usize,
) -> Vec<f64> {
    let quotient = Quotient::of(graph, twins);
    let classes = twins.count();
    let chunks = canonical_chunks(sources.len());
    let ctx = dn_trace::current();
    // Chunks hand their workspace on, so a worker allocates one.
    let workspaces = Mutex::new(Vec::new());
    let partials = dn_pool::Pool::new(threads).run(chunks.len(), |c| {
        let _chunk = ctx.enter(dn_trace::Phase::PoolBcChunks, format_args!("chunk{c}"));
        let mut acc = vec![0.0; classes];
        let spare = workspaces.lock().expect("workspace list").pop();
        let mut workspace = spare.unwrap_or_else(|| Workspace::new(classes));
        for batch in sources[chunks[c].clone()].chunks(LANES) {
            quotient.accumulate(batch, &mut workspace, &mut acc);
        }
        workspaces.lock().expect("workspace list").push(workspace);
        acc
    });
    // Fold in chunk-index order — float addition is not associative, so this
    // order IS the determinism guarantee.
    let mut total = vec![0.0; classes];
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    twins
        .class_of
        .iter()
        .map(|&c| {
            if c == NONE {
                0.0
            } else {
                total[c as usize] / 2.0
            }
        })
        .collect()
}

/// How many sources one sweep of [`Quotient::accumulate`] carries.
const LANES: usize = 8;

/// One bit per lane.
type Mask = u8;
const _: () = assert!(LANES <= Mask::BITS as usize, "a Mask holds a bit per lane");

/// One value per lane.
type Row = [f64; LANES];

/// `sum[l] += row[l]` in every lane.
fn add(sum: &mut Row, row: &Row) {
    for (s, r) in sum.iter_mut().zip(row) {
        *s += r;
    }
}

/// The lanes of `mask`, ascending.
fn lanes(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The twin quotient: one node per class, adjacent where the members are.
struct Quotient {
    /// CSR over classes: `adjacency[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
    /// `m(c)`, the class size.
    size: Vec<f64>,
    /// `(m(c) − 1) / deg(c)`: what each neighbour of a source in `c` owes
    /// the source's twins.
    twin_seed: Vec<f64>,
}

impl Quotient {
    fn of(graph: &BipartiteGraph, twins: &Twins) -> Self {
        let classes = twins.count();
        let mut offsets = Vec::with_capacity(classes + 1);
        offsets.push(0);
        let mut adjacency = Vec::new();
        let mut size = Vec::with_capacity(classes);
        let mut twin_seed = Vec::with_capacity(classes);
        for c in 0..classes as u32 {
            let members = twins.members(c);
            let neighbours = graph.neighbors(members[0]);
            for &w in neighbours {
                let d = twins.class_of[w as usize];
                assert!(
                    d != NONE,
                    "node {w} neighbours the source set but is outside it"
                );
                // Every member of d neighbours members[0]: enter d once.
                if twins.members(d)[0] == w {
                    adjacency.push(d);
                }
            }
            offsets.push(adjacency.len());
            size.push(members.len() as f64);
            twin_seed.push((members.len() - 1) as f64 / neighbours.len() as f64);
        }
        Quotient {
            offsets,
            adjacency,
            size,
            twin_seed,
        }
    }

    fn neighbours(&self, class: u32) -> &[u32] {
        &self.adjacency[self.offsets[class as usize]..self.offsets[class as usize + 1]]
    }

    /// One BFS from a representative of each source class of `batch` (at
    /// most [`LANES`], lane `l` for `batch[l]`) and their dependency sweeps,
    /// in lockstep; then, in lane order, `weight·δ[c]` into `accumulator[c]`
    /// for every class `c` a lane reached other than its source (module doc).
    fn accumulate(&self, batch: &[(u32, f64)], workspace: &mut Workspace, accumulator: &mut [f64]) {
        workspace.reset();
        let Workspace {
            sigma,
            flow,
            reached,
            next,
            order,
            levels,
        } = workspace;

        // Level 0: only a source's representative, so `σ = t = 1` in its lane.
        for (lane, &(source, _)) in batch.iter().enumerate() {
            let s = source as usize;
            if next[s] == 0 {
                order.push((source, 0));
            }
            reached[s] |= 1 << lane;
            next[s] |= 1 << lane;
            (sigma[s][lane], flow[s][lane]) = (1.0, 1.0);
        }

        // Forward, one level of every lane at a time. An entry of the level
        // discovers the next one (`next` holds its masks until it becomes the
        // current level) and gathers σ from its popped neighbours, its
        // predecessors in the lanes of its mask.
        let mut start = 0;
        while start < order.len() {
            let end = order.len();
            for entry in &mut order[start..end] {
                entry.1 = std::mem::take(&mut next[entry.0 as usize]);
            }
            levels.push(start);
            for i in start..end {
                let (v, mask) = order[i];
                let mut paths = [0.0; LANES];
                for &w in self.neighbours(v) {
                    let wi = w as usize;
                    add(&mut paths, &flow[wi]);
                    let new = mask & !reached[wi];
                    if new != 0 {
                        if next[wi] == 0 {
                            order.push((w, 0));
                        }
                        reached[wi] |= new;
                        next[wi] |= new;
                    }
                }
                if start > 0 {
                    let vi = v as usize;
                    for lane in lanes(mask) {
                        let p = paths[lane];
                        (sigma[vi][lane], flow[vi][lane]) = (p, p * self.size[vi]);
                    }
                }
            }
            start = end;
        }
        levels.push(order.len());

        // Backward, level 0 (the sources) excluded: an entry gathers δ from
        // its finished neighbours, its successors in the lanes of its mask.
        // `c` reuses `flow`, so it must start at 0 everywhere, the
        // never-finished sources included. δ overwrites σ.
        for &(class, _) in order.iter() {
            flow[class as usize] = [0.0; LANES];
        }
        // A source's neighbours, which owe its twins, are its lane's level 1.
        let mut twin_seed = [0.0; LANES];
        for (lane, &(source, _)) in batch.iter().enumerate() {
            twin_seed[lane] = self.twin_seed[source as usize];
        }
        for level in (1..levels.len() - 1).rev() {
            let seed = twin_seed.map(|seed| if level == 1 { seed } else { 0.0 });
            for &(w, mask) in &order[levels[level]..levels[level + 1]] {
                let mut dependency = [0.0; LANES];
                for &u in self.neighbours(w) {
                    add(&mut dependency, &flow[u as usize]);
                }
                let wi = w as usize;
                for lane in lanes(mask) {
                    let s = sigma[wi][lane];
                    let delta = seed[lane] + s * dependency[lane];
                    flow[wi][lane] = self.size[wi] * (1.0 + delta) / s;
                    sigma[wi][lane] = delta;
                }
            }
        }

        // Lane (= source) order, so every class sees its additions in the
        // order one source at a time would make them; at its first entry,
        // which takes its `reached` back to 0.
        for &(class, _) in order.iter() {
            let ci = class as usize;
            for lane in lanes(std::mem::take(&mut reached[ci])).filter(|&l| batch[l].0 != class) {
                accumulator[ci] += batch[lane].1 * sigma[ci][lane];
            }
        }
    }
}

/// Per-worker scratch space for [`Quotient::accumulate`], reset lazily
/// between batches (only the classes the previous batch reached are cleared;
/// `accumulate` leaves `reached` and `next` at 0).
struct Workspace {
    /// σ in a lane once the class is popped there, δ once it finishes.
    sigma: Vec<Row>,
    /// `t`, then `c` (module doc): 0 in a lane until popped (finished) there.
    flow: Vec<Row>,
    /// The lanes that discovered the class.
    reached: Vec<Mask>,
    /// The lanes that discovered the class for the next level (0 between).
    next: Vec<Mask>,
    /// `(class, the lanes whose level it is)` entries, level by level.
    order: Vec<(u32, Mask)>,
    /// Level `d` is `order[levels[d]..levels[d + 1]]`.
    levels: Vec<usize>,
}

impl Workspace {
    fn new(classes: usize) -> Self {
        Workspace {
            sigma: vec![[0.0; LANES]; classes],
            flow: vec![[0.0; LANES]; classes],
            reached: vec![0; classes],
            next: vec![0; classes],
            order: Vec::with_capacity(classes),
            levels: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for &(c, _) in &self.order {
            (self.sigma[c as usize], self.flow[c as usize]) = ([0.0; LANES], [0.0; LANES]);
        }
        self.order.clear();
        self.levels.clear();
    }
}

/// Normalize raw betweenness scores into `[0, 1]` by dividing by the number
/// of unordered endpoint pairs excluding the node itself, `(n-1)(n-2)/2`.
pub fn normalize_scores(scores: &mut [f64]) {
    let n = scores.len() as f64;
    if n < 3.0 {
        for s in scores.iter_mut() {
            *s = 0.0;
        }
        return;
    }
    let scale = 2.0 / ((n - 1.0) * (n - 2.0));
    for s in scores.iter_mut() {
        *s *= scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_bc::{approximate_betweenness_within, ApproxBcConfig};
    use crate::bipartite::BipartiteBuilder;
    use crate::components::connected_components;
    use crate::delta::nodes_in_components;
    use rand::rngs::StdRng;
    use rand::seq::index::sample as index_sample;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Scratch space of the per-node kernel.
    struct BrandesWorkspace {
        dist: Vec<i64>,
        sigma: Vec<f64>,
        delta: Vec<f64>,
        /// Nodes in the order they were popped from the BFS queue.
        order: Vec<u32>,
        queue: VecDeque<u32>,
    }

    impl BrandesWorkspace {
        fn new(n: usize) -> Self {
            BrandesWorkspace {
                dist: vec![-1; n],
                sigma: vec![0.0; n],
                delta: vec![0.0; n],
                order: Vec::with_capacity(n),
                queue: VecDeque::with_capacity(n),
            }
        }

        fn reset(&mut self) {
            for &node in &self.order {
                self.dist[node as usize] = -1;
                self.sigma[node as usize] = 0.0;
                self.delta[node as usize] = 0.0;
            }
            self.order.clear();
            self.queue.clear();
        }
    }

    /// The per-node Brandes kernel the quotient replaced, kept as its
    /// oracle: one BFS from `source`, adding `weight·δ_source(v)` into
    /// `accumulator[v]`.
    fn accumulate_source(
        graph: &BipartiteGraph,
        source: u32,
        workspace: &mut BrandesWorkspace,
        accumulator: &mut [f64],
        weight: f64,
    ) {
        workspace.reset();
        let dist = &mut workspace.dist;
        let sigma = &mut workspace.sigma;
        let delta = &mut workspace.delta;
        let order = &mut workspace.order;
        let queue = &mut workspace.queue;

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

        // Backward sweep in reverse BFS order.
        for &w in order.iter().rev() {
            let wi = w as usize;
            let dw = dist[wi];
            let coeff = (1.0 + delta[wi]) / sigma[wi];
            for &p in graph.neighbors(w) {
                let pi = p as usize;
                if dist[pi] + 1 == dw {
                    delta[pi] += sigma[pi] * coeff;
                }
            }
            if w != source {
                accumulator[wi] += weight * delta[wi];
            }
        }
    }

    /// `Σ weight·δ_s` over the `(s, weight)` sources, halved: BC by the
    /// per-node kernel.
    fn per_node_brandes(
        graph: &BipartiteGraph,
        sources: impl IntoIterator<Item = (u32, f64)>,
    ) -> Vec<f64> {
        let n = graph.node_count();
        let mut bc = vec![0.0; n];
        let mut workspace = BrandesWorkspace::new(n);
        for (s, weight) in sources {
            accumulate_source(graph, s, &mut workspace, &mut bc, weight);
        }
        bc.iter().map(|b| b / 2.0).collect()
    }

    /// Path graph v0 - a0 - v1 - a1 - v2 as a bipartite graph.
    fn path5() -> BipartiteGraph {
        let mut b = BipartiteBuilder::new();
        let v0 = b.add_value("v0");
        let v1 = b.add_value("v1");
        let v2 = b.add_value("v2");
        let a0 = b.add_attribute("a0");
        let a1 = b.add_attribute("a1");
        b.add_edge(v0, a0);
        b.add_edge(v1, a0);
        b.add_edge(v1, a1);
        b.add_edge(v2, a1);
        b.build()
    }

    #[test]
    fn path_graph_matches_closed_form() {
        // On a path of n nodes, the node at position i has BC i·(n − 1 − i).
        let g = path5();
        let bc = betweenness_centrality(&g);
        // Node order: v0=0, v1=1, v2=2, a0=3, a1=4.
        // Path order is v0(0) - a0(3) - v1(1) - a1(4) - v2(2).
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[2], 0.0);
        assert!(
            (bc[3] - 3.0).abs() < 1e-9,
            "a0 separates {{v0}} from {{v1,a1,v2}}"
        );
        assert!((bc[4] - 3.0).abs() < 1e-9);
        assert!(
            (bc[1] - 4.0).abs() < 1e-9,
            "v1 separates {{v0,a0}} from {{a1,v2}}"
        );
    }

    #[test]
    fn star_center_carries_all_pairs() {
        // One attribute with k values: the attribute node lies on the single
        // shortest path between every pair of values: BC = k*(k-1)/2.
        let mut b = BipartiteBuilder::new();
        let a = b.add_attribute("hub");
        let k = 6;
        for i in 0..k {
            let v = b.add_value(format!("v{i}"));
            b.add_edge(v, a);
        }
        let g = b.build();
        let bc = betweenness_centrality(&g);
        let hub = g.attribute_node(0) as usize;
        assert!((bc[hub] - (k * (k - 1) / 2) as f64).abs() < 1e-9);
        for v in 0..k {
            assert_eq!(bc[v as usize], 0.0);
        }
    }

    #[test]
    fn complete_bipartite_shares_betweenness_evenly() {
        // K_{2,3}: every value pair has 2 shortest paths (through either
        // attribute), every attribute pair has 3 (through any value).
        let mut b = BipartiteBuilder::new();
        let values: Vec<u32> = (0..3).map(|i| b.add_value(format!("v{i}"))).collect();
        let attrs: Vec<u32> = (0..2).map(|i| b.add_attribute(format!("a{i}"))).collect();
        for &v in &values {
            for &a in &attrs {
                b.add_edge(v, a);
            }
        }
        let g = b.build();
        let bc = betweenness_centrality(&g);
        // Value pairs: 3 pairs, each splits 1/2 + 1/2 over the two attributes
        // -> each attribute gets 3 * 1/2 = 1.5.
        // Attribute pair: 1 pair with 3 shortest paths -> each value gets 1/3.
        for &a in &attrs {
            let node = g.attribute_node(a) as usize;
            assert!((bc[node] - 1.5).abs() < 1e-9, "attr bc = {}", bc[node]);
        }
        for &v in &values {
            assert!(
                (bc[v as usize] - 1.0 / 3.0).abs() < 1e-9,
                "value bc = {}",
                bc[v as usize]
            );
        }
    }

    #[test]
    fn bridge_value_has_highest_centrality() {
        // Two stars joined by one shared value.
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
        let g = b.build();
        let bc = betweenness_centrality(&g);
        let max_value_node = g
            .value_nodes()
            .max_by(|&a, &b| bc[a as usize].total_cmp(&bc[b as usize]))
            .unwrap();
        assert_eq!(max_value_node, bridge);
        assert!(bc[bridge as usize] > 0.0);
        for i in 1..=8u32 {
            assert_eq!(bc[i as usize], 0.0, "leaf values lie on no shortest paths");
        }
    }

    #[test]
    fn disconnected_components_do_not_interact() {
        let mut b = BipartiteBuilder::new();
        // Component 1: star with 3 leaves. Component 2: star with 4 leaves.
        let a0 = b.add_attribute("a0");
        let a1 = b.add_attribute("a1");
        for i in 0..3 {
            let v = b.add_value(format!("x{i}"));
            b.add_edge(v, a0);
        }
        for i in 0..4 {
            let v = b.add_value(format!("y{i}"));
            b.add_edge(v, a1);
        }
        let g = b.build();
        let bc = betweenness_centrality(&g);
        assert!((bc[g.attribute_node(0) as usize] - 3.0).abs() < 1e-9);
        assert!((bc[g.attribute_node(1) as usize] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (g, _) = crate::bipartite::tests::figure3b();
        let seq = betweenness_centrality(&g);
        for threads in [2, 3, 8] {
            let par = betweenness_centrality_parallel(&g, threads);
            for (s, p) in seq.iter().zip(&par) {
                assert!((s - p).abs() < 1e-9, "sequential {s} vs parallel {p}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts_and_runs() {
        let (g, _) = crate::bipartite::tests::figure3b();
        let reference: Vec<u64> = betweenness_centrality_parallel(&g, 1)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        for threads in [1, 2, 4, 8] {
            for run in 0..3 {
                let bits: Vec<u64> = betweenness_centrality_parallel(&g, threads)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(bits, reference, "threads={threads} run={run}");
            }
        }
    }

    #[test]
    fn canonical_chunks_cover_exactly_once_and_cap_out() {
        for len in [0, 1, 5, 31, 32, 33, 1000, 1024] {
            let chunks = canonical_chunks(len);
            assert!(chunks.len() <= MAX_CHUNKS, "len={len}");
            let mut covered = 0;
            for (i, chunk) in chunks.iter().enumerate() {
                assert_eq!(chunk.start, covered, "len={len} chunk={i}");
                assert!(chunk.end > chunk.start, "len={len} chunk={i} empty");
                covered = chunk.end;
            }
            assert_eq!(covered, len, "len={len}");
        }
    }

    /// A random graph of up to 23 values × 7 attributes that holds, by
    /// construction, a value class of at least three (`original` and two
    /// copies of its attribute set), an attribute class of at least two, an
    /// isolated value and an isolated attribute. Returns it with `original`.
    fn random_graph_with_twins(rng: &mut StdRng) -> (BipartiteGraph, u32) {
        let (nv, na) = (rng.gen_range(1..=20u32), rng.gen_range(1..=5u32));
        let mut b = BipartiteBuilder::new();
        for v in 0..nv {
            b.add_value(format!("v{v}"));
        }
        for a in 0..na {
            b.add_attribute(format!("a{a}"));
        }
        let (original, original_attr) = (rng.gen_range(0..nv), rng.gen_range(0..na));
        let mut edges = vec![
            (original, rng.gen_range(0..na)),
            (rng.gen_range(0..nv), original_attr),
        ];
        for _ in 0..rng.gen_range(0..=(nv * na).min(40)) {
            edges.push((rng.gen_range(0..nv), rng.gen_range(0..na)));
        }
        let copies: Vec<u32> = (0..2).map(|i| b.add_value(format!("twin{i}"))).collect();
        let twin_attr = b.add_attribute("twin attribute");
        b.add_value("isolated");
        b.add_attribute("isolated attribute");
        let value_twins: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(v, _)| v == original)
            .flat_map(|&(_, a)| copies.iter().map(move |&t| (t, a)))
            .collect();
        edges.extend(value_twins);
        let attribute_twins: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(_, a)| a == original_attr)
            .map(|&(v, _)| (v, twin_attr))
            .collect();
        edges.extend(attribute_twins);
        for (v, a) in edges {
            b.add_edge(v, a);
        }
        let graph = b.build();
        for twin in copies {
            assert_eq!(graph.neighbors(twin), graph.neighbors(original));
        }
        let (a, t) = (
            graph.attribute_node(original_attr),
            graph.attribute_node(twin_attr),
        );
        assert!(!graph.neighbors(a).is_empty());
        assert_eq!(graph.neighbors(a), graph.neighbors(t));
        (graph, original)
    }

    /// `got` within 1e-12 relative of `want` everywhere, and twins of
    /// `pool` bit-identical in `got`.
    fn assert_matches(graph: &BipartiteGraph, pool: &[u32], got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs(),
                "{what}, node {v}: quotient {g} vs per-node {w}"
            );
        }
        for &u in pool {
            for &w in pool {
                if graph.degree(u) > 0 && graph.neighbors(u) == graph.neighbors(w) {
                    assert_eq!(
                        got[u as usize].to_bits(),
                        got[w as usize].to_bits(),
                        "{what}: twins {u} and {w}"
                    );
                }
            }
        }
    }

    /// Every entry point against the per-node oracle at 1, 2 and 4 threads:
    /// the whole graph, each pool of `pools` (unions of components), and
    /// `samples` draws from `pools[0]`.
    fn assert_every_entry_point_matches(
        graph: &BipartiteGraph,
        pools: &[Vec<u32>],
        samples: usize,
        seed: u64,
        what: &str,
    ) {
        let all: Vec<u32> = graph.nodes().collect();
        let sampled_pool = &pools[0];
        let config = ApproxBcConfig { samples, seed };
        let scale = sampled_pool.len() as f64 / samples as f64;
        let drawn = index_sample(
            &mut StdRng::seed_from_u64(seed),
            sampled_pool.len(),
            samples,
        );
        let sampled = per_node_brandes(graph, drawn.into_iter().map(|i| (sampled_pool[i], scale)));
        let exact = per_node_brandes(graph, all.iter().map(|&s| (s, 1.0)));
        for threads in [1, 2, 4] {
            let what = format!("{what}, {threads} threads");
            assert_matches(
                graph,
                &all,
                &betweenness_centrality_parallel(graph, threads),
                &exact,
                &format!("{what}, whole graph"),
            );
            for (p, pool) in pools.iter().enumerate() {
                assert_matches(
                    graph,
                    pool,
                    &betweenness_from_sources(graph, pool, threads),
                    &per_node_brandes(graph, pool.iter().map(|&s| (s, 1.0))),
                    &format!("{what}, pool {p}"),
                );
            }
            assert_matches(
                graph,
                sampled_pool,
                &approximate_betweenness_within(graph, sampled_pool, config, threads),
                &sampled,
                &format!("{what}, {samples} of {} sampled", sampled_pool.len()),
            );
        }
    }

    /// The quotient kernel against the per-node oracle on every entry point:
    /// the whole graph, component sub-pools, and sampled sources.
    #[test]
    fn quotient_matches_per_node_brandes() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (graph, original) = random_graph_with_twins(&mut rng);
            let components = connected_components(&graph);
            let labels = &components.labels;
            let some: Vec<u32> = (0..components.count() as u32)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let pools = [
                nodes_in_components(&components, &[labels[original as usize]]),
                graph.nodes().collect(),
                nodes_in_components(&components, &some),
            ];
            let samples = rng.gen_range(1..=pools[0].len());
            assert_every_entry_point_matches(
                &graph,
                &pools,
                samples,
                seed,
                &format!("seed {seed}"),
            );
        }
    }

    /// A graph over `sides.len()` nodes (`true` for an attribute) and edges
    /// between them.
    fn graph_of(sides: &[bool], edges: &[(usize, usize)]) -> BipartiteGraph {
        let mut b = BipartiteBuilder::new();
        let ids: Vec<u32> = sides
            .iter()
            .enumerate()
            .map(|(i, &attribute)| {
                if attribute {
                    b.add_attribute(format!("a{i}"))
                } else {
                    b.add_value(format!("v{i}"))
                }
            })
            .collect();
        for &(x, y) in edges {
            let (v, a) = if sides[x] { (y, x) } else { (x, y) };
            assert!(sides[a] && !sides[v], "edge {x}-{y} joins one side");
            b.add_edge(ids[v], ids[a]);
        }
        b.build()
    }

    /// The largest BFS distance from `source`.
    fn depth_from(graph: &BipartiteGraph, source: u32) -> usize {
        let mut dist = vec![usize::MAX; graph.node_count()];
        dist[source as usize] = 0;
        let mut queue = VecDeque::from([source]);
        let mut deepest = 0;
        while let Some(v) = queue.pop_front() {
            deepest = dist[v as usize];
            for &w in graph.neighbors(v) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = deepest + 1;
                    queue.push_back(w);
                }
            }
        }
        deepest
    }

    /// Add a node on `original`'s side with `original`'s neighbours.
    fn add_twin(sides: &mut Vec<bool>, edges: &mut Vec<(usize, usize)>, original: usize) {
        let copy = sides.len();
        sides.push(sides[original]);
        let copied: Vec<(usize, usize)> = edges
            .iter()
            .filter_map(|&(x, y)| match (x == original, y == original) {
                (true, _) => Some((copy, y)),
                (_, true) => Some((x, copy)),
                _ => None,
            })
            .collect();
        edges.extend(copied);
    }

    /// A seeded caterpillar (a path with leaves) or ladder (two paths
    /// joined by rungs) of 13 to 20 positions, so the BFS from the first
    /// node is at least 12 deep, with twin copies of nodes on both sides:
    /// leaves on one spine node, and copies of random nodes' neighbour lists.
    fn deep_graph(rng: &mut StdRng, ladder: bool) -> BipartiteGraph {
        let length = rng.gen_range(13..=20);
        let rails = if ladder { 2 } else { 1 };
        // Spine node (i, r) is node r·length + i, on side (i + r) mod 2.
        let mut sides: Vec<bool> = (0..rails * length)
            .map(|n| (n % length + n / length) % 2 == 1)
            .collect();
        let mut edges = Vec::new();
        for r in 0..rails {
            for i in 1..length {
                edges.push((r * length + i - 1, r * length + i));
            }
        }
        if ladder {
            for i in 0..length {
                edges.push((i, length + i));
            }
        } else {
            for i in 0..length {
                for _ in 0..rng.gen_range(0..=3) {
                    sides.push(!sides[i]);
                    edges.push((i, sides.len() - 1));
                }
            }
        }
        // Copies: a value and an attribute (two neighbours on the first
        // rail), then a few more of any node.
        let first = rng.gen_range(0..length - 1);
        let mut picks = vec![first, first + 1];
        picks.extend((0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..sides.len())));
        for original in picks {
            add_twin(&mut sides, &mut edges, original);
        }
        let graph = graph_of(&sides, &edges);
        assert!(depth_from(&graph, 0) >= 12);
        graph
    }

    #[test]
    fn quotient_matches_per_node_brandes_on_deep_graphs() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ladder = seed % 2 == 1;
            let graph = deep_graph(&mut rng, ladder);
            let all: Vec<u32> = graph.nodes().collect();
            let samples = rng.gen_range(1..=all.len());
            let what = format!(
                "seed {seed}, {}",
                if ladder { "ladder" } else { "caterpillar" }
            );
            assert_every_entry_point_matches(&graph, &[all], samples, seed, &what);
        }
    }

    /// 14 layers of 8, each joined completely to the next: every layer is
    /// one twin class, and an end-to-end pair has 8^12 = 2^36 shortest paths.
    #[test]
    fn quotient_matches_per_node_brandes_past_2_32_paths() {
        let (layers, width) = (14, 8);
        let sides: Vec<bool> = (0..layers * width).map(|n| (n / width) % 2 == 1).collect();
        let edges: Vec<(usize, usize)> = (1..layers)
            .flat_map(|l| {
                (0..width).flat_map(move |x| {
                    (0..width).map(move |y| ((l - 1) * width + x, l * width + y))
                })
            })
            .collect();
        let graph = graph_of(&sides, &edges);
        assert_eq!(depth_from(&graph, 0), layers - 1);
        let pools = [graph.nodes().collect::<Vec<u32>>()];
        for (samples, seed) in [(1, 0), (5, 1), (pools[0].len(), 2)] {
            assert_every_entry_point_matches(&graph, &pools, samples, seed, "layered chain");
        }
    }

    /// A seeded graph of at least five components and 300 classes, its
    /// node ids shuffled so that consecutive classes, and so the lanes of a
    /// batch, lie in different components and on both sides. A component
    /// is a random tree whose node `n` hangs off one of the `reach` nodes
    /// before it (`reach` 1 is a path, a large one a bushy tree), plus a
    /// few edges that close cycles, plus twin copies of a value and an
    /// attribute.
    fn multi_component_graph(rng: &mut StdRng) -> BipartiteGraph {
        let (mut sides, mut edges) = (vec![false], Vec::new()); // an isolated value
        let mut components = 0;
        loop {
            let (first, size) = (sides.len(), rng.gen_range(2..=120));
            let reach = rng.gen_range(1..size);
            sides.push(rng.gen_bool(0.5));
            for n in first + 1..first + size {
                let parent = rng.gen_range(n.saturating_sub(reach).max(first)..n);
                sides.push(!sides[parent]);
                edges.push((parent, n));
            }
            for _ in 0..rng.gen_range(0..=size / 4) {
                let (x, y) = (
                    rng.gen_range(first..first + size),
                    rng.gen_range(first..first + size),
                );
                if sides[x] != sides[y] && !edges.contains(&(x, y)) && !edges.contains(&(y, x)) {
                    edges.push((x, y));
                }
            }
            for side in [false, true] {
                if let Some(original) = (first..first + size).find(|&n| sides[n] == side) {
                    add_twin(&mut sides, &mut edges, original);
                }
            }
            components += 1;
            let graph = graph_of(&sides, &edges);
            if components >= 5 && Twins::of(&graph, graph.nodes()).count() >= 300 {
                break;
            }
        }
        let mut position: Vec<usize> = (0..sides.len()).collect();
        position.shuffle(rng);
        let mut shuffled = vec![false; sides.len()];
        for (n, &p) in position.iter().enumerate() {
            shuffled[p] = sides[n];
        }
        let edges: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(x, y)| (position[x], position[y]))
            .collect();
        graph_of(&shuffled, &edges)
    }

    /// Graphs of 300 classes or more, so every canonical chunk of the whole
    /// graph carries a full batch of [`LANES`] sources and a partial one;
    /// lanes in components of different sizes and depths, which finish at
    /// different levels or never meet, and value and attribute sources in
    /// one batch.
    #[test]
    fn quotient_matches_per_node_brandes_in_full_lane_batches() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = multi_component_graph(&mut rng);
            let components = connected_components(&graph);
            let some: Vec<u32> = (0..components.count() as u32)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let pools = [
                graph.nodes().collect::<Vec<u32>>(),
                nodes_in_components(&components, &some),
            ];
            let samples = rng.gen_range(pools[0].len() / 2..=pools[0].len());
            assert_every_entry_point_matches(
                &graph,
                &pools,
                samples,
                seed,
                &format!("seed {seed}"),
            );
        }
    }

    /// `Quotient::accumulate` over the canonical chunks of three source
    /// lists of `graph` — every class in class order, every class shuffled,
    /// a weighted draw — once a source at a time and once in batches of
    /// [`LANES`]: the accumulators agree on every bit.
    fn assert_lanes_match_one_source_at_a_time(graph: &BipartiteGraph, rng: &mut StdRng) {
        let twins = Twins::of(graph, graph.nodes());
        let quotient = Quotient::of(graph, &twins);
        let in_order = every_class(&twins);
        let mut shuffled = in_order.clone();
        shuffled.shuffle(rng);
        let drawn: Vec<(u32, f64)> = shuffled
            .iter()
            .filter_map(|&(c, _)| {
                let draws = rng.gen_range(0..10);
                (draws > 6).then(|| (c, (draws - 6) as f64 * 1.7))
            })
            .collect();
        let mut workspace = Workspace::new(twins.count());
        for (what, sources) in [
            ("in class order", in_order),
            ("shuffled", shuffled),
            ("drawn", drawn),
        ] {
            for chunk in canonical_chunks(sources.len()) {
                let chunk = &sources[chunk];
                let mut one_at_a_time = vec![0.0; twins.count()];
                for source in chunk.chunks(1) {
                    quotient.accumulate(source, &mut workspace, &mut one_at_a_time);
                }
                let mut batched = vec![0.0; twins.count()];
                for batch in chunk.chunks(LANES) {
                    quotient.accumulate(batch, &mut workspace, &mut batched);
                }
                for (c, (one, lanes)) in one_at_a_time.iter().zip(&batched).enumerate() {
                    assert_eq!(
                        one.to_bits(),
                        lanes.to_bits(),
                        "{what}, class {c}: one at a time {one} vs lanes {lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_one_source_at_a_time() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = multi_component_graph(&mut rng);
            assert_lanes_match_one_source_at_a_time(&graph, &mut rng);
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_one_source_at_a_time_on_a_tus_lake() {
        let config = datagen::tus::TusConfig {
            domain_count: 6,
            ..datagen::tus::TusConfig::small(2021)
        };
        let tus = datagen::tus::TusGenerator::new(config).generate();
        let graph = crate::lcc::tests::lake_graph(&tus.catalog);
        assert!(Twins::of(&graph, graph.nodes()).count() >= LANES * MAX_CHUNKS);
        assert_lanes_match_one_source_at_a_time(&graph, &mut StdRng::seed_from_u64(2021));
    }

    #[test]
    fn jaguar_dominates_running_example() {
        let (g, ids) = crate::bipartite::tests::figure3b();
        let bc = betweenness_centrality(&g);
        let jaguar = bc[ids["JAGUAR"] as usize];
        let puma = bc[ids["PUMA"] as usize];
        let toyota = bc[ids["TOYOTA"] as usize];
        let panda = bc[ids["PANDA"] as usize];
        assert!(jaguar > puma, "jaguar {jaguar} should beat puma {puma}");
        assert!(
            jaguar > toyota,
            "jaguar {jaguar} should beat toyota {toyota}"
        );
        assert!(jaguar > panda, "jaguar {jaguar} should beat panda {panda}");
        assert!(
            puma > 0.0,
            "puma bridges two attributes and must have positive BC"
        );
        for v in ["FIAT", "APPLE", "PELICAN", "LEMUR"] {
            assert_eq!(
                bc[ids[v] as usize], 0.0,
                "{v} has degree 1 and lies on no shortest path"
            );
        }
    }

    #[test]
    fn normalize_scores_bounds() {
        let (g, _) = crate::bipartite::tests::figure3b();
        let mut bc = betweenness_centrality(&g);
        normalize_scores(&mut bc);
        for &s in &bc {
            assert!(
                (0.0..=1.0).contains(&s),
                "normalized score {s} out of bounds"
            );
        }
    }

    #[test]
    fn normalize_tiny_graphs_is_zero() {
        let mut scores = vec![5.0, 3.0];
        normalize_scores(&mut scores);
        assert_eq!(scores, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = BipartiteBuilder::new().build();
        assert!(betweenness_centrality(&g).is_empty());

        let mut b = BipartiteBuilder::new();
        b.add_value("only");
        let g = b.build();
        assert_eq!(betweenness_centrality(&g), vec![0.0]);
    }
}
