//! Approximate betweenness centrality via source sampling.
//!
//! Exact Brandes is `O(n·m)` — prohibitive for lakes with millions of values
//! (§5.4 of the paper). The standard remedy, and the one DomainNet adopts
//! (following Geisberger, Sanders & Schultes, ALENEX 2008), is to run the
//! single-source dependency accumulation only from a *sample* of source
//! nodes and scale the result, giving an `O(s·m)` estimator whose *ranking*
//! of nodes stabilizes long before the absolute scores converge. The paper
//! observes that sampling roughly 1 % of the nodes already reproduces the
//! exact-BC ranking on the TUS benchmark (Figure 8).
//!
//! Sources are drawn uniformly without replacement; the estimate is
//! unbiased with weight `n / s`. The draws are then grouped per twin class
//! (see [`crate::bc`]): twins give every other node the same dependency, so
//! a class drawn `k` times is run once with weight `k·n / s`. That is the
//! same estimator over the same draws, with the duplicate BFS runs removed.
//!
//! The estimate is a function of the graph and the config alone. There is
//! no component-local variant: after a lake mutation the incremental
//! pipeline re-runs [`approximate_betweenness`] over the whole new graph,
//! which is what keeps a maintained estimate equal to a fresh build's.

use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use crate::bc::{quotient_brandes, Sources};
use crate::bipartite::BipartiteGraph;
use crate::twins::{Twins, NONE};

/// Configuration for [`approximate_betweenness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ApproxBcConfig {
    /// Number of source nodes to sample. Clamped to the node count.
    pub samples: usize,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl Default for ApproxBcConfig {
    fn default() -> Self {
        ApproxBcConfig {
            samples: 1000,
            seed: 0x_D0_5A_1A_7E,
        }
    }
}

/// Estimate betweenness centrality for every node from sampled sources.
///
/// The returned scores approximate the *exact* (unordered-pair) BC returned
/// by [`crate::bc::betweenness_centrality`]: with `samples == node_count`
/// the estimate is exact BC, because sampling without replacement then
/// draws every member of every class, the scale factor is 1, and the
/// weighted class list is the exact kernel's. The two are `to_bits()`-equal
/// when the classes form one component; otherwise the exact kernel's
/// per-component chunks may sum them in another order (last ulps).
///
/// The draws are a per-node estimator's (the seeded RNG picks
/// `samples` node ids without replacement), grouped per twin class: each
/// drawn class runs the quotient kernel of [`crate::bc`] once, with weight
/// `draws · n / samples`. The drawn classes run in exact BC's source order
/// (components by lowest class, each in BFS order from it, value classes
/// first), cut into whole-lane canonical chunks, so the eight sources of a
/// sweep lie close together in the graph.
///
/// `threads` is a **runtime execution parameter**, deliberately not part of
/// [`ApproxBcConfig`]: the config is identity (it keys memo caches and is
/// persisted in snapshot manifests), and the estimate is bit-identical for
/// every thread count — the sources are drawn from the seeded RNG before
/// any parallelism starts, and the accumulation uses the canonical chunk
/// layout of [`crate::bc`].
pub fn approximate_betweenness(
    graph: &BipartiteGraph,
    config: ApproxBcConfig,
    threads: usize,
) -> Vec<f64> {
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    let samples = config.samples.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let twins = Twins::of(graph, graph.nodes());
    let mut draws = vec![0u32; twins.count()];
    for node in index_sample(&mut rng, n, samples) {
        // A degree-0 draw is in no class and reaches nothing.
        let class = twins.class_of[node];
        if class != NONE {
            draws[class as usize] += 1;
        }
    }
    // The estimator rescales to "all sources".
    let scale = n as f64 / samples as f64;
    let sources: Vec<(u32, f64)> = (0..twins.count() as u32)
        .filter(|&c| draws[c as usize] > 0)
        .map(|c| (c, draws[c as usize] as f64 * scale))
        .collect();
    quotient_brandes(graph, &twins, Sources::Drawn(sources), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::betweenness_centrality;
    use crate::bipartite::BipartiteBuilder;

    /// A lake-shaped random bipartite graph for estimator tests.
    fn random_lake_graph(
        values: usize,
        attrs: usize,
        avg_attr_size: usize,
        seed: u64,
    ) -> BipartiteGraph {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = BipartiteBuilder::new();
        for i in 0..values {
            b.add_value(format!("v{i}"));
        }
        for a in 0..attrs {
            let attr = b.add_attribute(format!("a{a}"));
            let size = rng.gen_range(2..=avg_attr_size * 2);
            for _ in 0..size {
                let v = rng.gen_range(0..values) as u32;
                b.add_edge(v, attr);
            }
        }
        b.build()
    }

    #[test]
    fn full_uniform_sampling_matches_exact() {
        let g = random_lake_graph(60, 12, 8, 1);
        let exact = betweenness_centrality(&g);
        let approx = approximate_betweenness(
            &g,
            ApproxBcConfig {
                samples: g.node_count(),
                seed: 7,
            },
            1,
        );
        for (e, a) in exact.iter().zip(&approx) {
            assert_eq!(
                e.to_bits(),
                a.to_bits(),
                "exact {e} vs full-sample approx {a}"
            );
        }
    }

    #[test]
    fn sampled_estimate_recovers_top_ranking() {
        let g = random_lake_graph(300, 30, 12, 2);
        let exact = betweenness_centrality(&g);
        let approx = approximate_betweenness(
            &g,
            ApproxBcConfig {
                samples: g.node_count() / 3,
                seed: 3,
            },
            2,
        );
        // The share of the exact top 10 that is also in the estimate's.
        let top_10 = |scores: &[f64]| {
            let mut nodes: Vec<usize> = (0..scores.len()).collect();
            nodes.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            nodes.truncate(10);
            nodes
        };
        let estimated = top_10(&approx);
        let hits = top_10(&exact)
            .iter()
            .filter(|v| estimated.contains(v))
            .count();
        assert!(hits >= 6, "top-10 overlap too low: {hits} of 10");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = random_lake_graph(100, 10, 8, 5);
        let cfg = ApproxBcConfig {
            samples: 20,
            seed: 42,
        };
        let a = approximate_betweenness(&g, cfg, 1);
        let b = approximate_betweenness(&g, cfg, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts_and_runs() {
        let g = random_lake_graph(120, 12, 8, 6);
        let base = ApproxBcConfig {
            samples: 40,
            seed: 9,
        };
        let reference: Vec<u64> = approximate_betweenness(&g, base, 1)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        for threads in [1, 2, 4, 8] {
            for run in 0..2 {
                let bits: Vec<u64> = approximate_betweenness(&g, base, threads)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(bits, reference, "threads={threads} run={run}");
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = BipartiteBuilder::new().build();
        assert!(approximate_betweenness(&g, ApproxBcConfig::default(), 1).is_empty());

        let mut b = BipartiteBuilder::new();
        b.add_value("v");
        b.add_attribute("a");
        let g = b.build();
        let scores = approximate_betweenness(&g, ApproxBcConfig::default(), 1);
        assert_eq!(scores, vec![0.0, 0.0]);
    }
}
