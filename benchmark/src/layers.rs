//! The from-scratch reference the serving and ingest workloads verify
//! against, and small helpers every workload shares.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use domainnet::{DomainNetBuilder, Measure, ScoredValue};
use lake::delta::LakeView;
use lake::loader::LoadOptions;
use lake::LakeCatalog;

use crate::COMPUTE_THREADS;

/// The two measures every serving workload serves (dn-serve's defaults).
pub fn served_measures() -> [Measure; 2] {
    [Measure::lcc(), Measure::exact_bc()]
}

/// Strict CSV loading, as the ingester and `dn-serve` use it.
pub fn strict() -> LoadOptions {
    LoadOptions {
        strict: true,
        ..LoadOptions::default()
    }
}

/// Load a CSV lake the benchmark wrote itself.
pub fn load_lake(dir: &Path) -> LakeCatalog {
    lake::loader::load_dir(dir, strict()).expect("load CSV lake")
}

/// A from-scratch build of `lake` and its full ranking under `measure`.
pub fn fresh_rankings<L: LakeView + ?Sized>(lake: &L) -> Vec<(Measure, Vec<ScoredValue>)> {
    let mut net = DomainNetBuilder::new().build(lake);
    net.set_compute_threads(COMPUTE_THREADS);
    served_measures()
        .into_iter()
        .map(|m| (m, net.rank(m)))
        .collect()
}

/// The correctness gate of the serving and ingest workloads: the served
/// ranking holds the same value set as the from-scratch one, with every
/// score within 1e-9.
pub fn compare_rankings(
    what: &str,
    served: &[ScoredValue],
    fresh: &[ScoredValue],
) -> Result<(), String> {
    let fresh_scores: BTreeMap<&str, f64> =
        fresh.iter().map(|s| (s.value.as_str(), s.score)).collect();
    if served.len() != fresh.len() || fresh_scores.len() != fresh.len() {
        return Err(format!(
            "{what}: served {} values, a from-scratch build ranks {}",
            served.len(),
            fresh.len()
        ));
    }
    for scored in served {
        let Some(&expected) = fresh_scores.get(scored.value.as_str()) else {
            return Err(format!(
                "{what}: served value {:?} is absent from a from-scratch build",
                scored.value
            ));
        };
        if !scored.score.is_finite() || (scored.score - expected).abs() > 1e-9 {
            return Err(format!(
                "{what}: {:?} is served with score {} but scores {expected} from scratch",
                scored.value, scored.score
            ));
        }
    }
    Ok(())
}

/// Time one call in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(value: &str, score: f64) -> ScoredValue {
        ScoredValue {
            value: value.to_owned(),
            score,
            attribute_count: 2,
            cardinality: 3,
        }
    }

    #[test]
    fn rankings_match_on_value_set_and_score_tolerance() {
        let fresh = vec![scored("a", 1.0), scored("b", 0.5)];
        let reordered = vec![scored("b", 0.5 + 1e-12), scored("a", 1.0)];
        assert!(compare_rankings("t", &reordered, &fresh).is_ok());
        let drifted = vec![scored("a", 1.0), scored("b", 0.5 + 1e-6)];
        assert!(compare_rankings("t", &drifted, &fresh).is_err());
        let renamed = vec![scored("a", 1.0), scored("c", 0.5)];
        assert!(compare_rankings("t", &renamed, &fresh).is_err());
        assert!(compare_rankings("t", &fresh[..1], &fresh).is_err());
        let nan = vec![scored("a", f64::NAN), scored("b", 0.5)];
        assert!(compare_rankings("t", &nan, &fresh).is_err());
    }

    #[test]
    fn fresh_rankings_cover_both_served_measures() {
        let lake = lake::fixtures::running_example();
        let rankings = fresh_rankings(&lake);
        assert_eq!(rankings.len(), 2);
        assert_eq!(rankings[1].1[0].value, "JAGUAR");
        assert!(compare_rankings("self", &rankings[0].1, &rankings[0].1).is_ok());
    }
}
