//! The equality snapshot format 3 rests on, shared by the suites that pin
//! it after every step: the graph a net maintains is the graph
//! `DomainNet::from_parts` derives from the lake and the net's id maps.

use domainnet::DomainNet;
use lake::delta::MutableLake;

/// Assert that rebuilding `net` from `lake` and its exported state yields
/// its graph: the same CSR arrays and value labels, and the same label on
/// every attribute node with an edge. The maintained graph keeps the label
/// a tombstoned attribute had; the rebuilt one says `attr_<id>`. So any
/// attribute node whose label differs must be tombstoned in the lake and
/// isolated.
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
        if kept.attribute_label(index) == derived.attribute_label(index) {
            continue;
        }
        let attr = net.attr_id_of_index(index).expect("allocated index");
        assert!(
            lake.attribute_ref(attr).is_none(),
            "{context}: live attribute {} is labelled {:?}, derived {:?}",
            attr.0,
            kept.attribute_label(index),
            derived.attribute_label(index)
        );
        assert_eq!(
            kept.degree(kept.attribute_node(index)),
            0,
            "{context}: tombstoned attribute {} has edges",
            attr.0
        );
    }
}
