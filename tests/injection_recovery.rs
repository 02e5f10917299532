//! The bookkeeping of the TUS-I methodology: remove natural homographs,
//! inject synthetic ones, and check the ground truth labels exactly those.
//! How well DomainNet recovers the injected homographs (Tables 2 and 3) is
//! pinned number by number in `tests/paper_ledger.rs`.

use datagen::inject::{inject_homographs, remove_homographs, InjectionConfig};
use datagen::tus::{TusConfig, TusGenerator};

#[test]
fn injection_bookkeeping_matches_ground_truth_rules() {
    // The injected lake's ground truth (derived from attribute classes) must
    // label exactly the injected tokens as homographs.
    let clean = remove_homographs(&TusGenerator::new(TusConfig::small(103)).generate());
    let config = InjectionConfig {
        count: 8,
        meanings: 3,
        min_attr_cardinality: 0,
        seed: 23,
    };
    let injected = inject_homographs(&clean, config).expect("injection succeeds");
    let homographs = injected.lake.homographs();
    assert_eq!(homographs.len(), 8);
    for token in &injected.injected {
        assert_eq!(homographs.get(token), Some(&3));
    }
}
