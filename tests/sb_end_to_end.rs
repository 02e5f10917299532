//! Which *named* values the BC ranking of the regenerated Synthetic
//! Benchmark (SB) places where: the canonical homographs high, the
//! small-table abbreviations low (Figure 6's discussion). The numbers of
//! Figures 5 and 6 and of the §5.1 comparison are pinned in
//! `tests/paper_ledger.rs`.

use std::collections::BTreeSet;

use datagen::sb::SbGenerator;
use domainnet::pipeline::DomainNetBuilder;
use domainnet::Measure;

fn setup() -> (datagen::GeneratedLake, BTreeSet<String>) {
    let generated = SbGenerator::new(2021).generate();
    let truth = generated.homograph_set();
    (generated, truth)
}

#[test]
fn canonical_homographs_rank_high_under_bc() {
    let (generated, truth) = setup();
    let net = DomainNetBuilder::new().build(&generated.catalog);
    let ranked = net.rank(Measure::exact_bc());
    let top_half: BTreeSet<&str> = ranked
        .iter()
        .take(ranked.len() / 2)
        .map(|s| s.value.as_str())
        .collect();

    // The large-cardinality canonical homographs should sit in the upper half
    // of the ranking. (The country-code/state-abbreviation family is excluded
    // — the paper itself reports those as the misses.)
    for value in [
        "JAGUAR",
        "PUMA",
        "SYDNEY",
        "LINCOLN",
        "JAMAICA",
        "WASHINGTON",
    ] {
        assert!(truth.contains(value), "{value} must be ground truth");
        assert!(
            top_half.contains(value),
            "{value} should rank in the top half of the BC ranking"
        );
    }
}

#[test]
fn small_domain_homographs_are_the_hard_cases_for_bc() {
    // Figure 6's discussion: the state/country-code abbreviations live in the
    // two small tables and get near-zero BC. Verify they score below the
    // large-cardinality homographs.
    let (generated, _) = setup();
    let net = DomainNetBuilder::new().build(&generated.catalog);
    let ranked = net.rank(Measure::exact_bc());
    let score = |v: &str| {
        ranked
            .iter()
            .find(|s| s.value == v)
            .map(|s| s.score)
            .unwrap_or(0.0)
    };
    let jaguar = score("JAGUAR");
    for abbrev in ["CA", "GA", "MD", "AL"] {
        assert!(
            score(abbrev) < jaguar,
            "{abbrev} (small-domain homograph) should score below JAGUAR"
        );
    }
}
