//! The equality the maintained net rests on, shared by the suites that pin
//! it after every step: a net is a function of its lake, so a net kept up
//! to date through deltas is the net `DomainNetBuilder::build` gives for
//! the same lake.

use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::delta::MutableLake;

/// Assert that `net` is a fresh build of `lake`: the same CSR arrays, value
/// and attribute labels and node counts, the same raw LCC scores bit for
/// bit, and the same raw exact-BC scores within 1e-9. A delta re-runs BC
/// from the sources of the touched components only; once the graph has
/// more than 32 twin classes, the canonical chunks split those sources
/// differently from a whole-graph pass, so the sums may differ in the last
/// ulps. `net` itself is left as it was: a measure it has not scored is
/// scored on a clone.
pub fn assert_net_is_a_fresh_build(lake: &MutableLake, net: &DomainNet, context: &str) {
    let fresh = DomainNetBuilder::new()
        .prune_single_attribute_values(net.config().prune_single_attribute_values)
        .build(lake);
    let (kept, built) = (net.graph(), fresh.graph());
    assert_eq!(
        kept.csr_offsets(),
        built.csr_offsets(),
        "{context}: offsets"
    );
    assert_eq!(
        kept.csr_adjacency(),
        built.csr_adjacency(),
        "{context}: adjacency"
    );
    assert_eq!(kept.value_labels(), built.value_labels(), "{context}");
    for index in 0..kept.attribute_count() as u32 {
        assert_eq!(
            kept.attribute_label(index),
            built.attribute_label(index),
            "{context}: label of attribute index {index}"
        );
    }
    assert_eq!(net.candidate_count(), fresh.candidate_count(), "{context}");
    assert_eq!(net.attribute_count(), fresh.attribute_count(), "{context}");

    let net = net.clone();
    for measure in [Measure::lcc(), Measure::exact_bc()] {
        let (maintained, rebuilt) = (net.raw_scores(measure), fresh.raw_scores(measure));
        assert_eq!(maintained.len(), rebuilt.len(), "{context}");
        for (node, (a, b)) in maintained.iter().zip(&rebuilt).enumerate() {
            let equal = match measure {
                Measure::ExactBc => (a - b).abs() < 1e-9,
                _ => a.to_bits() == b.to_bits(),
            };
            assert!(
                equal,
                "{context}: {} of node {node} is {a}, a fresh build's {b}",
                measure.name()
            );
        }
    }
}
