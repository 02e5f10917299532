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
//! *dependencies* backwards along the BFS DAG. For the unweighted case the
//! predecessor sets never need to be materialized: during the backward sweep
//! a neighbor `p` of `w` is a predecessor exactly when `dist[p] + 1 ==
//! dist[w]`.
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
//! * σ flows forward as `σ[w] += σ[v]·m(v)`, since every node of `v` precedes
//!   every node of `w`; `m(S)` counts as 1, as only `s` is at distance 0.
//! * δ flows back as `δ[p] += σ[p]·m(w)·(1 + δ[w]) / σ[w]`, since a node of
//!   `p` has `m(w)` successors in `w`.
//! * The source-twin term: the `m(S) − 1` twins of `s` are not on the
//!   quotient BFS. They are leaves at distance 2, reached once through each
//!   of the `deg(s)` neighbours of `s`, so every such neighbour owes them
//!   `(m(S) − 1) / deg(s)`. That seeds δ on each neighbour class of `S`
//!   before the backward sweep.
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
//! A source set must be a union of connected components — the whole graph,
//! or the components a delta touched — so that every node a BFS reaches is
//! grouped.
//!
//! Every function in this module counts each unordered pair `{v, w}` once,
//! which is the standard convention for undirected graphs. Use
//! [`normalize_scores`] to rescale into `[0, 1]`.

use crate::bipartite::BipartiteGraph;
use crate::twins::{Twins, NONE};

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
/// gates and the replication digest exchange rely on. 32 chunks also bound
/// the transient partial-accumulator memory at `32 · classes` floats.
const MAX_CHUNKS: usize = 32;

/// Split `0..len` into the canonical chunk ranges (at most [`MAX_CHUNKS`],
/// each contiguous, sized `ceil(len / MAX_CHUNKS)` except the tail).
fn canonical_chunks(len: usize) -> Vec<std::ops::Range<usize>> {
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
/// Deterministic: the canonical chunk layout over `sources` and the
/// chunk-index-ordered fold make the output a pure function of `(graph,
/// twins, sources)`, independent of `threads` and of scheduling.
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
    let partials = dn_pool::Pool::new(threads).run(chunks.len(), |c| {
        let _chunk = ctx.enter(dn_trace::Phase::PoolBcChunks, format_args!("chunk{c}"));
        let mut acc = vec![0.0; classes];
        let mut workspace = Workspace::new(classes);
        for &(class, weight) in &sources[chunks[c].clone()] {
            quotient.accumulate(class, &mut workspace, &mut acc, weight);
        }
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

    /// One BFS from a representative of `source` and its dependency sweep,
    /// adding `weight·δ[c]` into `accumulator[c]` for every class `c ≠
    /// source` (see the module doc).
    fn accumulate(
        &self,
        source: u32,
        workspace: &mut Workspace,
        accumulator: &mut [f64],
        weight: f64,
    ) {
        workspace.reset();
        let Workspace {
            dist,
            sigma,
            delta,
            order,
        } = workspace;

        dist[source as usize] = 0;
        sigma[source as usize] = 1.0;
        order.push(source);
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            let vi = v as usize;
            // Only the representative of the source class is at distance 0.
            let flow = if head == 0 {
                sigma[vi]
            } else {
                sigma[vi] * self.size[vi]
            };
            head += 1;
            let dv = dist[vi];
            for &w in self.neighbours(v) {
                let wi = w as usize;
                if dist[wi] < 0 {
                    dist[wi] = dv + 1;
                    order.push(w);
                }
                if dist[wi] == dv + 1 {
                    sigma[wi] += flow;
                }
            }
        }

        // The source's twins: a leaf at distance 2 behind every neighbour.
        for &n in self.neighbours(source) {
            delta[n as usize] = self.twin_seed[source as usize];
        }
        // Backward sweep in reverse BFS order, the source excluded.
        for &w in order[1..].iter().rev() {
            let wi = w as usize;
            let dw = dist[wi];
            let coeff = self.size[wi] * (1.0 + delta[wi]) / sigma[wi];
            for &p in self.neighbours(w) {
                let pi = p as usize;
                if dist[pi] + 1 == dw {
                    delta[pi] += sigma[pi] * coeff;
                }
            }
            accumulator[wi] += weight * delta[wi];
        }
    }
}

/// Per-chunk scratch space for [`Quotient::accumulate`], reset lazily
/// between sources (only the classes the previous BFS reached are cleared).
struct Workspace {
    dist: Vec<i32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Classes in BFS order; doubles as the queue.
    order: Vec<u32>,
}

impl Workspace {
    fn new(classes: usize) -> Self {
        Workspace {
            dist: vec![-1; classes],
            sigma: vec![0.0; classes],
            delta: vec![0.0; classes],
            order: Vec::with_capacity(classes),
        }
    }

    fn reset(&mut self) {
        for &c in &self.order {
            self.dist[c as usize] = -1;
            self.sigma[c as usize] = 0.0;
            self.delta[c as usize] = 0.0;
        }
        self.order.clear();
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

    /// The quotient kernel against the per-node oracle on every entry point:
    /// the whole graph, component sub-pools, and sampled sources.
    #[test]
    fn quotient_matches_per_node_brandes() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (graph, original) = random_graph_with_twins(&mut rng);
            let all: Vec<u32> = graph.nodes().collect();
            let components = connected_components(&graph);
            let labels = &components.labels;
            let some: Vec<u32> = (0..components.count() as u32)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let pools = [
                all.clone(),
                nodes_in_components(&components, &[labels[original as usize]]),
                nodes_in_components(&components, &some),
            ];
            let triple = pools[1].clone();
            let config = ApproxBcConfig {
                samples: rng.gen_range(1..=triple.len()),
                seed,
            };
            let scale = triple.len() as f64 / config.samples as f64;
            let drawn = index_sample(
                &mut StdRng::seed_from_u64(config.seed),
                triple.len(),
                config.samples,
            );
            let sampled = per_node_brandes(&graph, drawn.into_iter().map(|i| (triple[i], scale)));
            let exact = per_node_brandes(&graph, all.iter().map(|&s| (s, 1.0)));
            for threads in [1, 2, 4] {
                let what = format!("seed {seed}, {threads} threads");
                assert_matches(
                    &graph,
                    &all,
                    &betweenness_centrality_parallel(&graph, threads),
                    &exact,
                    &format!("{what}, whole graph"),
                );
                for (p, pool) in pools.iter().enumerate() {
                    assert_matches(
                        &graph,
                        pool,
                        &betweenness_from_sources(&graph, pool, threads),
                        &per_node_brandes(&graph, pool.iter().map(|&s| (s, 1.0))),
                        &format!("{what}, pool {p}"),
                    );
                }
                assert_matches(
                    &graph,
                    &triple,
                    &approximate_betweenness_within(&graph, &triple, config, threads),
                    &sampled,
                    &format!("{what}, {} of {} sampled", config.samples, triple.len()),
                );
            }
        }
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
