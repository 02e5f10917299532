//! Edge-case coverage for [`dn_graph::bc::normalize_scores`] (rescaling
//! raw BC into `[0, 1]`) on arbitrary, possibly degenerate inputs — empty
//! and tiny graphs, all-zero and all-equal scores — where it must never
//! emit NaN.

use dn_graph::bc::{betweenness_centrality, normalize_scores};
use dn_graph::bipartite::BipartiteBuilder;

// ---------------------------------------------------------------------------
// normalize_scores
// ---------------------------------------------------------------------------

#[test]
fn normalize_empty_slice_is_a_no_op() {
    let mut scores: Vec<f64> = Vec::new();
    normalize_scores(&mut scores);
    assert!(scores.is_empty());
}

#[test]
fn normalize_tiny_graphs_pins_to_zero() {
    // With n < 3 there are no endpoint pairs excluding the node itself:
    // the scale factor would divide by zero, so the scores are defined as 0
    // rather than NaN or infinity.
    for n in 1..3usize {
        let mut scores = vec![7.0; n];
        normalize_scores(&mut scores);
        assert_eq!(scores, vec![0.0; n], "n = {n}");
    }
}

#[test]
fn normalize_all_equal_scores_keeps_ties_and_stays_finite() {
    let mut scores = vec![4.0; 10];
    normalize_scores(&mut scores);
    let first = scores[0];
    assert!(first > 0.0 && first.is_finite());
    assert!(scores.iter().all(|&s| s == first), "ties must survive");
}

#[test]
fn normalize_real_bc_scores_is_nan_free_and_in_unit_interval() {
    // A star graph: one attribute shared by many values. The hub's raw BC
    // equals the number of unordered value pairs, which normalizes to <= 1.
    let mut b = BipartiteBuilder::new();
    let hub = b.add_attribute("hub");
    for i in 0..12 {
        let v = b.add_value(format!("v{i}"));
        b.add_edge(v, hub);
    }
    let g = b.build();
    let mut scores = betweenness_centrality(&g);
    normalize_scores(&mut scores);
    for (node, &s) in scores.iter().enumerate() {
        assert!(!s.is_nan(), "node {node} normalized to NaN");
        assert!((0.0..=1.0).contains(&s), "node {node} out of range: {s}");
    }
    // The hub bridges every value pair, so it normalizes to exactly 1.
    let hub_node = g.attribute_node(0) as usize;
    assert!((scores[hub_node] - 1.0).abs() < 1e-12);
}

#[test]
fn normalize_zero_scores_stay_zero() {
    let mut scores = vec![0.0; 50];
    normalize_scores(&mut scores);
    assert!(scores.iter().all(|&s| s == 0.0));
    assert!(scores.iter().all(|s| !s.is_nan()));
}
