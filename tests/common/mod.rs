//! The equality the snapshot format rests on, shared by the suites that pin
//! it after every step: the graph a net maintains is the graph
//! `DomainNet::from_parts` derives from the lake and the net's id maps.

use domainnet::DomainNet;
use lake::delta::MutableLake;

/// Assert that rebuilding `net` from `lake` and its exported state yields
/// its graph exactly: the same CSR arrays and the same label on every value
/// and attribute node, tombstoned ones included.
pub fn assert_graph_is_derived(lake: &MutableLake, net: &DomainNet, context: &str) {
    let rebuilt = DomainNet::from_parts(lake, net.export_state())
        .unwrap_or_else(|e| panic!("{context}: the net's own state is refused: {e}"));
    let (kept, derived) = (net.graph(), rebuilt.graph());
    assert_eq!(
        kept.csr_offsets(),
        derived.csr_offsets(),
        "{context}: offsets"
    );
    assert_eq!(
        kept.csr_adjacency(),
        derived.csr_adjacency(),
        "{context}: adjacency"
    );
    assert_eq!(kept.value_labels(), derived.value_labels(), "{context}");
    for index in 0..kept.attribute_count() as u32 {
        assert_eq!(
            kept.attribute_label(index),
            derived.attribute_label(index),
            "{context}: label of attribute index {index}"
        );
    }
}
