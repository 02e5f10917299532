//! The equality the maintained net rests on, shared by the suites that pin
//! it after every step: a net is a function of its lake, so a net kept up
//! to date through deltas is the net `DomainNetBuilder::build` gives for
//! the same lake.

use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::delta::MutableLake;

/// Assert that `net` is a fresh build of `lake`: the same CSR arrays, value
/// and attribute labels and node counts, and the same raw LCC, exact-BC
/// and sampled-BC (8 sources, seed 7) scores bit for bit. `net` itself is left as it was: a measure it has not
/// scored is scored on a clone.
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
    for measure in [
        Measure::lcc(),
        Measure::exact_bc(),
        Measure::approx_bc(8, 7),
    ] {
        let (maintained, rebuilt) = (net.raw_scores(measure), fresh.raw_scores(measure));
        assert_eq!(maintained.len(), rebuilt.len(), "{context}");
        for (node, (a, b)) in maintained.iter().zip(&rebuilt).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{context}: {} of node {node} is {a}, a fresh build's {b}",
                measure.name()
            );
        }
    }
}
