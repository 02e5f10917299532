//! Homograph-scoring measures and scored results.

use dn_graph::approx_bc::ApproxBcConfig;
use serde::{Deserialize, Serialize};

/// A network-centrality measure used to score value nodes.
///
/// The paper evaluates two families (§3.3):
///
/// * **Local clustering coefficient** — cheap, purely local; homographs are
///   expected to have *low* LCC (Hypothesis 3.4). Figure 5 shows it is easily
///   fooled by small domains.
/// * **Betweenness centrality** — global; homographs are expected to have
///   *high* BC (Hypothesis 3.5). Exact BC is `O(n·m)`; the sampled
///   approximation brings the cost down to `O(s·m)` with no practical loss in
///   ranking quality (Figure 8).
///
/// `Measure` is `Eq + Hash` so rankings can be memoized per measure:
///
/// ```
/// use domainnet::Measure;
///
/// let lake = lake::fixtures::running_example();
/// let net = domainnet::DomainNetBuilder::new().build(&lake);
///
/// // Rankings sort so the most homograph-like value comes first: that
/// // means descending scores for BC, ascending for LCC.
/// assert!(Measure::exact_bc().higher_is_more_homograph_like());
/// assert!(!Measure::lcc().higher_is_more_homograph_like());
/// assert_eq!(net.rank(Measure::exact_bc())[0].value, "JAGUAR");
/// assert_eq!(net.rank(Measure::lcc()).len(), net.candidate_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Measure {
    /// Bipartite local clustering coefficient, the paper's attribute-set
    /// reading (lower = more homograph-like).
    Lcc,
    /// Exact betweenness centrality (higher = more homograph-like).
    ExactBc,
    /// Approximate betweenness centrality via source sampling.
    ApproxBc(ApproxBcConfig),
}

impl Measure {
    /// Exact betweenness centrality.
    ///
    /// How many worker threads compute it is a **runtime** setting
    /// (`DomainNet::set_compute_threads` / `ServiceConfig::threads`), not
    /// part of the measure: a `Measure` is an identity — it keys memo
    /// caches, is persisted in snapshot manifests, and rides in replication
    /// digests — and scores are bit-identical for every thread count, so
    /// baking a thread count into the identity would only make equal
    /// rankings compare unequal across differently-sized hosts.
    pub fn exact_bc() -> Self {
        Measure::ExactBc
    }

    /// The paper's LCC: the mean Jaccard of a value's attribute set with
    /// those of the values it shares an attribute with (the reading that
    /// reproduces Example 3.6; see [`dn_graph::lcc`]). Named `"LCC"`.
    pub fn lcc() -> Self {
        Measure::Lcc
    }

    /// Approximate BC with the given sample count and seed.
    ///
    /// The seed draws the sources from the whole graph, so the estimate is
    /// a function of the lake: a net maintained through deltas, recovered
    /// or replicated holds a fresh build's estimate bit for bit. The price
    /// is that every delta re-draws it, one whole-graph sampled pass per
    /// delta ([`DomainNet::apply_delta`](crate::DomainNet::apply_delta)).
    pub fn approx_bc(samples: usize, seed: u64) -> Self {
        Measure::ApproxBc(ApproxBcConfig { samples, seed })
    }

    /// Whether larger scores mean "more homograph-like" for this measure.
    pub fn higher_is_more_homograph_like(&self) -> bool {
        !matches!(self, Measure::Lcc)
    }

    /// The total order a ranking under this measure is sorted by: the most
    /// homograph-like score first, ties broken by value string. Per-shard
    /// rankings and the coordinator's cross-shard merge share it, which is
    /// what makes that merge exact rather than approximate.
    pub fn rank_order(&self, a: &ScoredValue, b: &ScoredValue) -> std::cmp::Ordering {
        let by_score = if self.higher_is_more_homograph_like() {
            b.score.total_cmp(&a.score)
        } else {
            a.score.total_cmp(&b.score)
        };
        by_score.then_with(|| a.value.cmp(&b.value))
    }

    /// A short human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Lcc => "LCC",
            Measure::ExactBc => "BC",
            Measure::ApproxBc(_) => "BC(approx)",
        }
    }
}

/// A value together with its homograph score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredValue {
    /// The normalized data value.
    pub value: String,
    /// The raw measure score (interpretation depends on the measure).
    pub score: f64,
    /// Number of attributes the value occurs in.
    pub attribute_count: usize,
    /// The value-node cardinality |N(v)| (number of co-occurring values).
    pub cardinality: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_direction() {
        assert!(Measure::exact_bc().higher_is_more_homograph_like());
        assert!(Measure::approx_bc(100, 1).higher_is_more_homograph_like());
        assert!(!Measure::lcc().higher_is_more_homograph_like());
    }

    #[test]
    fn measure_names_are_distinct() {
        let names = [
            Measure::lcc().name(),
            Measure::exact_bc().name(),
            Measure::approx_bc(10, 0).name(),
        ];
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn serde_round_trip() {
        let m = Measure::approx_bc(5000, 17);
        let json = serde_json::to_string(&m).unwrap();
        let back: Measure = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
