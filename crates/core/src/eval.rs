//! Evaluation metrics: precision, recall, and F1 at `k`, and full top-`k`
//! curves (Figures 7 and 8, Tables 2 and 3 of the paper).
//!
//! The paper's protocol: rank all candidate values by a measure, take the
//! top-`k` (by default `k` = the number of ground-truth homographs), and
//! report precision (fraction of the retrieved values that are true
//! homographs), recall (fraction of the true homographs retrieved), and F1.

use std::collections::BTreeSet;

use crate::measure::ScoredValue;

/// Precision/recall/F1 at a specific cut-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// The cut-off (number of top-ranked values considered retrieved).
    pub k: usize,
    /// Precision at `k`.
    pub precision: f64,
    /// Recall at `k`.
    pub recall: f64,
    /// F1 score at `k`.
    pub f1: f64,
    /// Number of true homographs among the top-`k`.
    pub hits: usize,
}

impl EvalPoint {
    fn new(k: usize, hits: usize, truth_size: usize) -> Self {
        let precision = if k == 0 { 0.0 } else { hits as f64 / k as f64 };
        let recall = if truth_size == 0 {
            0.0
        } else {
            hits as f64 / truth_size as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        EvalPoint {
            k,
            precision,
            recall,
            f1,
            hits,
        }
    }
}

/// Compute precision/recall/F1 of the top-`k` ranked values against a set of
/// ground-truth homographs (normalized strings).
pub fn precision_recall_at_k(
    ranked: &[ScoredValue],
    truth: &BTreeSet<String>,
    k: usize,
) -> EvalPoint {
    let k = k.min(ranked.len());
    let hits = ranked[..k]
        .iter()
        .filter(|s| truth.contains(&s.value))
        .count();
    EvalPoint::new(k, hits, truth.len())
}

/// Precision/recall/F1 of an unranked set of detected values against the
/// ground truth — how a detector that returns a set rather than a ranking
/// (the D4 baseline of §5.1) is scored. `k` is the size of the set.
pub fn precision_recall_of_set(found: &BTreeSet<String>, truth: &BTreeSet<String>) -> EvalPoint {
    EvalPoint::new(found.len(), found.intersection(truth).count(), truth.len())
}

/// Fraction of the `expected` values that appear in the top-`k` of the
/// ranking — the metric of Tables 2 and 3 ("% of injected homographs in the
/// top 50").
pub fn recall_of_expected_in_top_k(
    ranked: &[ScoredValue],
    expected: &BTreeSet<String>,
    k: usize,
) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let k = k.min(ranked.len());
    let hits = ranked[..k]
        .iter()
        .filter(|s| expected.contains(&s.value))
        .count();
    hits as f64 / expected.len() as f64
}

/// A full precision/recall/F1 curve over every prefix of the ranking
/// (Figure 7).
#[derive(Debug, Clone)]
pub struct TopKCurve {
    /// Evaluation points, one per sampled cut-off, in increasing `k`.
    pub points: Vec<EvalPoint>,
    /// Number of ground-truth homographs.
    pub truth_size: usize,
}

impl TopKCurve {
    /// Compute the curve at every cut-off in `1..=ranked.len()`.
    ///
    /// The scan is incremental (O(n) over the ranking), so computing the full
    /// curve over hundreds of thousands of candidates is cheap.
    pub fn full(ranked: &[ScoredValue], truth: &BTreeSet<String>) -> Self {
        Self::sampled(ranked, truth, 1)
    }

    /// Compute the curve at every `step`-th cut-off (plus the final one).
    pub fn sampled(ranked: &[ScoredValue], truth: &BTreeSet<String>, step: usize) -> Self {
        let step = step.max(1);
        let mut points = Vec::new();
        let mut hits = 0usize;
        for (i, scored) in ranked.iter().enumerate() {
            if truth.contains(&scored.value) {
                hits += 1;
            }
            let k = i + 1;
            if k % step == 0 || k == ranked.len() {
                points.push(EvalPoint::new(k, hits, truth.len()));
            }
        }
        TopKCurve {
            points,
            truth_size: truth.len(),
        }
    }

    /// The point with the highest F1 (ties broken toward smaller `k`).
    pub fn best_f1(&self) -> Option<EvalPoint> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.f1.total_cmp(&b.f1).then(b.k.cmp(&a.k)))
    }

    /// The point at (or nearest below) a given `k`.
    pub fn at_k(&self, k: usize) -> Option<EvalPoint> {
        self.points
            .iter()
            .copied()
            .rfind(|p| p.k <= k)
            .or_else(|| self.points.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(values: &[&str]) -> Vec<ScoredValue> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| ScoredValue {
                value: (*v).to_string(),
                score: 1.0 / (i + 1) as f64,
                attribute_count: 2,
                cardinality: 10,
            })
            .collect()
    }

    fn truth(values: &[&str]) -> BTreeSet<String> {
        values.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn precision_recall_basic() {
        let ranked = scored(&["A", "B", "C", "D"]);
        let t = truth(&["A", "C"]);
        let p2 = precision_recall_at_k(&ranked, &t, 2);
        assert_eq!(p2.hits, 1);
        assert!((p2.precision - 0.5).abs() < 1e-12);
        assert!((p2.recall - 0.5).abs() < 1e-12);
        assert!((p2.f1 - 0.5).abs() < 1e-12);

        let p4 = precision_recall_at_k(&ranked, &t, 4);
        assert_eq!(p4.hits, 2);
        assert!((p4.precision - 0.5).abs() < 1e-12);
        assert!((p4.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_ranking_is_clamped() {
        let ranked = scored(&["A", "B"]);
        let t = truth(&["A"]);
        let p = precision_recall_at_k(&ranked, &t, 10);
        assert_eq!(p.k, 2);
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn perfect_ranking_has_perfect_scores_at_truth_size() {
        let ranked = scored(&["H1", "H2", "H3", "X", "Y"]);
        let t = truth(&["H1", "H2", "H3"]);
        let p = precision_recall_at_k(&ranked, &t, 3);
        assert_eq!(p.precision, 1.0);
        assert_eq!(p.recall, 1.0);
        assert_eq!(p.f1, 1.0);
    }

    #[test]
    fn empty_truth_and_empty_ranking() {
        let ranked = scored(&["A"]);
        let p = precision_recall_at_k(&ranked, &BTreeSet::new(), 1);
        assert_eq!(p.recall, 0.0);
        assert_eq!(p.f1, 0.0);

        let p = precision_recall_at_k(&[], &truth(&["A"]), 5);
        assert_eq!(p.k, 0);
        assert_eq!(p.precision, 0.0);
    }

    #[test]
    fn set_evaluation_counts_the_intersection_and_guards_empty_sets() {
        let p = precision_recall_of_set(&truth(&["A", "B", "X"]), &truth(&["A", "B", "C", "D"]));
        assert_eq!((p.k, p.hits), (3, 2));
        assert!((p.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.recall - 0.5).abs() < 1e-12);
        assert!((p.f1 - 4.0 / 7.0).abs() < 1e-12);

        let nothing_found = precision_recall_of_set(&BTreeSet::new(), &truth(&["A"]));
        assert_eq!(
            (
                nothing_found.precision,
                nothing_found.recall,
                nothing_found.f1
            ),
            (0.0, 0.0, 0.0)
        );
        let no_truth = precision_recall_of_set(&truth(&["A"]), &BTreeSet::new());
        assert_eq!(
            (no_truth.precision, no_truth.recall, no_truth.f1),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn recall_of_expected_matches_table_2_semantics() {
        let ranked = scored(&["I1", "X", "I2", "Y", "I3"]);
        let expected = truth(&["I1", "I2", "I3"]);
        assert!((recall_of_expected_in_top_k(&ranked, &expected, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert!((recall_of_expected_in_top_k(&ranked, &expected, 5) - 1.0).abs() < 1e-12);
        assert_eq!(
            recall_of_expected_in_top_k(&ranked, &BTreeSet::new(), 3),
            1.0
        );
    }

    #[test]
    fn curve_is_monotone_in_recall_and_finds_best_f1() {
        let ranked = scored(&["H1", "X", "H2", "Y", "H3", "Z"]);
        let t = truth(&["H1", "H2", "H3"]);
        let curve = TopKCurve::full(&ranked, &t);
        assert_eq!(curve.points.len(), 6);
        for w in curve.points.windows(2) {
            assert!(w[1].recall >= w[0].recall, "recall never decreases with k");
        }
        let best = curve.best_f1().unwrap();
        assert!(best.f1 > 0.0);
        // Best F1 here is at k=5 (precision 3/5, recall 1.0, f1 = 0.75) vs
        // k=3 (precision 2/3, recall 2/3, f1 = 2/3).
        assert_eq!(best.k, 5);
    }

    #[test]
    fn sampled_curve_hits_the_final_k() {
        let ranked = scored(&["A", "B", "C", "D", "E", "F", "G"]);
        let t = truth(&["A", "D"]);
        let curve = TopKCurve::sampled(&ranked, &t, 3);
        let ks: Vec<usize> = curve.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![3, 6, 7]);
        assert_eq!(curve.points.last().unwrap().hits, 2);
    }

    #[test]
    fn at_k_picks_nearest_point_at_or_below() {
        let ranked = scored(&["A", "B", "C", "D", "E", "F"]);
        let t = truth(&["A"]);
        let curve = TopKCurve::sampled(&ranked, &t, 2);
        assert_eq!(curve.at_k(5).unwrap().k, 4);
        assert_eq!(curve.at_k(2).unwrap().k, 2);
        assert_eq!(curve.at_k(1).unwrap().k, 2, "falls back to the first point");
    }
}
