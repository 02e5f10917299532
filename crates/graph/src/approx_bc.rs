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

use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use crate::bc::{pool_twins, quotient_brandes};
use crate::bipartite::BipartiteGraph;
use crate::twins::NONE;

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
/// the two are `to_bits()`-equal, because sampling without replacement then
/// draws every member of every class, the scale factor is 1, and the
/// weighted class list is the exact kernel's.
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
    let pool: Vec<u32> = graph.nodes().collect();
    approximate_betweenness_within(graph, &pool, config, threads)
}

/// Sampled BC estimation with sources drawn from an explicit node `pool`.
///
/// This is the approximate counterpart of
/// [`crate::bc::betweenness_from_sources`], used by the incremental pipeline
/// to re-estimate BC only for the components touched by a lake mutation: the
/// pool is the node set of the touched components, so the estimate for nodes
/// *inside* the pool approximates their global BC (sources outside their
/// component would have contributed nothing). `pool` must be a union of
/// connected components (a set, in any order), as for
/// [`crate::bc::betweenness_from_sources`]; nodes outside it score 0.
/// `config.samples` is clamped to the pool size; with
/// `samples == pool.len()` the result is exact on the pool, `to_bits()`-equal
/// to [`crate::bc::betweenness_from_sources`].
///
/// The draws are the same as a per-node estimator's — the same seeded RNG
/// picks the same pool indexes — and are then grouped per twin class of the
/// pool: each drawn class runs the quotient kernel of [`crate::bc`] once,
/// with weight `draws · pool.len() / samples`.
///
/// # Panics
/// Panics if a node of `pool` has a neighbour outside it.
pub fn approximate_betweenness_within(
    graph: &BipartiteGraph,
    pool: &[u32],
    config: ApproxBcConfig,
    threads: usize,
) -> Vec<f64> {
    let n = graph.node_count();
    if pool.is_empty() {
        return vec![0.0; n];
    }
    let samples = config.samples.clamp(1, pool.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let twins = pool_twins(graph, pool);
    let mut draws = vec![0u32; twins.count()];
    for i in index_sample(&mut rng, pool.len(), samples) {
        // A degree-0 draw is in no class and reaches nothing.
        let class = twins.class_of[pool[i] as usize];
        if class != NONE {
            draws[class as usize] += 1;
        }
    }
    // The estimator rescales to "all sources of the pool".
    let scale = pool.len() as f64 / samples as f64;
    let sources: Vec<(u32, f64)> = (0..twins.count() as u32)
        .filter(|&c| draws[c as usize] > 0)
        .map(|c| (c, draws[c as usize] as f64 * scale))
        .collect();
    quotient_brandes(graph, &twins, &sources, threads)
}

/// Spearman-style rank agreement between two score vectors over the top-`k`
/// nodes of `reference`: the fraction of `reference`'s top-`k` nodes that
/// also appear in `candidate`'s top-`k`.
///
/// DomainNet only consumes the *ranking* of BC scores, so this is the metric
/// that matters when judging whether a sample size is large enough
/// (Figure 8).
pub fn top_k_overlap(reference: &[f64], candidate: &[f64], k: usize) -> f64 {
    assert_eq!(reference.len(), candidate.len());
    if k == 0 || reference.is_empty() {
        return 1.0;
    }
    let top = |scores: &[f64]| -> Vec<u32> {
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
        idx.truncate(k);
        idx
    };
    let ref_top = top(reference);
    let cand_top: std::collections::HashSet<u32> = top(candidate).into_iter().collect();
    let hits = ref_top.iter().filter(|i| cand_top.contains(i)).count();
    hits as f64 / ref_top.len() as f64
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
        let overlap = top_k_overlap(&exact, &approx, 10);
        assert!(overlap >= 0.6, "top-10 overlap too low: {overlap}");
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
        // The component-scoped estimator holds the same contract.
        let pool: Vec<u32> = (0..g.node_count() as u32).collect();
        let within_ref: Vec<u64> = approximate_betweenness_within(&g, &pool, base, 1)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        for threads in [2, 4, 8] {
            let bits: Vec<u64> = approximate_betweenness_within(&g, &pool, base, threads)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(bits, within_ref, "within threads={threads}");
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

    #[test]
    fn top_k_overlap_bounds() {
        let a = vec![3.0, 2.0, 1.0, 0.0];
        let b = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(top_k_overlap(&a, &a, 2), 1.0);
        assert_eq!(top_k_overlap(&a, &b, 1), 0.0);
        assert_eq!(top_k_overlap(&a, &b, 4), 1.0);
        assert_eq!(top_k_overlap(&[], &[], 3), 1.0);
    }
}
