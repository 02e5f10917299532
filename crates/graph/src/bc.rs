//! Exact betweenness centrality (Brandes' algorithm).
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
//! Every function in this module counts each unordered pair `{v, w}` once,
//! which is the standard convention for undirected graphs. Use
//! [`normalize_scores`] to rescale into `[0, 1]`.

use std::collections::VecDeque;

use crate::bipartite::BipartiteGraph;

/// Reusable per-source scratch space for Brandes' algorithm.
///
/// Allocation of the four arrays dominates the cost of short BFS runs, so the
/// workspace is created once and reset lazily between sources (only the
/// entries touched by the previous source are cleared).
#[derive(Debug)]
pub struct BrandesWorkspace {
    dist: Vec<i64>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Nodes in the order they were popped from the BFS queue.
    order: Vec<u32>,
    queue: VecDeque<u32>,
}

impl BrandesWorkspace {
    /// Create scratch space for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
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

/// Run a single-source shortest-path dependency accumulation from `source`,
/// adding each node's dependency `δ_source(v)` into `accumulator[v]`.
///
/// This is the building block shared by exact BC (all sources) and
/// approximate BC (sampled sources). `weight` scales the contribution, which
/// the sampled estimator uses for inverse-probability weighting.
pub fn accumulate_source(
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

/// Exact betweenness centrality of every node (single-threaded).
///
/// Each unordered pair of endpoints contributes once. Runtime is `O(n·m)`.
pub fn betweenness_centrality(graph: &BipartiteGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut bc = vec![0.0; n];
    let mut workspace = BrandesWorkspace::new(n);
    for s in graph.nodes() {
        accumulate_source(graph, s, &mut workspace, &mut bc, 1.0);
    }
    // Each unordered pair was counted twice (once from each endpoint).
    for value in &mut bc {
        *value /= 2.0;
    }
    bc
}

/// The canonical task-decomposition width: source lists are split into at
/// most this many chunks. The chunk layout is a **pure function of the
/// source count** — never of the thread count or of which worker ran what —
/// so the floating-point reduction is parenthesized identically for every
/// pool width (1 included) and every run. That is what makes exact-BC
/// results `to_bits()`-identical across thread counts, which the golden
/// gates and the replication digest exchange rely on. 32 chunks also bound
/// the transient partial-accumulator memory at `32 · n` floats.
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
/// Sources are split into the canonical chunks (at most `MAX_CHUNKS`) and
/// scheduled onto a work-stealing [`dn_pool::Pool`]; each chunk owns a
/// private accumulator, and the per-chunk partials are folded **in chunk
/// order**, so the result is bit-identical for every `threads` value —
/// `betweenness_centrality_parallel(g, 1)` and `(g, 8)` agree on every bit.
pub fn betweenness_centrality_parallel(graph: &BipartiteGraph, threads: usize) -> Vec<f64> {
    let n = graph.node_count();
    if n < 2 {
        return betweenness_centrality(graph);
    }
    let sources: Vec<u32> = graph.nodes().collect();
    let mut bc = accumulate_sources_parallel(graph, &sources, 1.0, threads);
    for value in &mut bc {
        *value /= 2.0;
    }
    bc
}

/// Accumulate `weight` times the dependencies from an explicit list of
/// sources across a work-stealing pool (no halving — callers decide how to
/// normalize; exact BC passes 1.0, which multiplies exactly, the sampled
/// estimator its scale factor). Deterministic: the canonical chunk layout
/// and the chunk-index-ordered fold make the output a pure function of
/// `(graph, sources, weight)`, independent of `threads` and of scheduling.
pub(crate) fn accumulate_sources_parallel(
    graph: &BipartiteGraph,
    sources: &[u32],
    weight: f64,
    threads: usize,
) -> Vec<f64> {
    let n = graph.node_count();
    let chunks = canonical_chunks(sources.len());
    let ctx = dn_trace::current();
    let partials = dn_pool::Pool::new(threads).run(chunks.len(), |c| {
        let _chunk = ctx.enter(dn_trace::Phase::PoolBcChunks, format_args!("chunk{c}"));
        let mut acc = vec![0.0; n];
        let mut workspace = BrandesWorkspace::new(n);
        for &s in &sources[chunks[c].clone()] {
            accumulate_source(graph, s, &mut workspace, &mut acc, weight);
        }
        acc
    });
    // Fold in chunk-index order — float addition is not associative, so this
    // order IS the determinism guarantee.
    let mut total = vec![0.0; n];
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// Exact betweenness restricted to shortest paths **starting at `sources`**,
/// halved to the unordered-pair convention of [`betweenness_centrality`].
///
/// The incremental pipeline uses this for component-scoped invalidation:
/// because a dependency accumulation from source `s` never leaves `s`'s
/// connected component, passing *every* node of a union of components as
/// `sources` yields, for the nodes **inside** those components, exactly their
/// global exact BC — without touching the rest of the graph.
pub fn betweenness_from_sources(
    graph: &BipartiteGraph,
    sources: &[u32],
    threads: usize,
) -> Vec<f64> {
    let mut acc = accumulate_sources_parallel(graph, sources, 1.0, threads.max(1));
    for value in &mut acc {
        *value /= 2.0;
    }
    acc
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
    use crate::bipartite::BipartiteBuilder;

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
        // Path of 5 nodes p0-p1-p2-p3-p4: BC (unordered pairs) of the middle
        // node is 4 (pairs {p0,p3},{p0,p4},{p1,p3},{p1,p4} ... wait: pairs
        // separated by it): for node at position i (0-based) in a path of n
        // nodes, BC = i * (n - 1 - i). Middle (i=2, n=5): 2*2=4... but count
        // pairs strictly on opposite sides: {p0,p1} x {p3,p4} = 4 plus none.
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
