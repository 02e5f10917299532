//! Homograph detection as a cleaning step before domain discovery (§5.5).
//!
//! Run with:
//! ```text
//! cargo run --release --example domain_discovery_impact
//! ```
//!
//! Injects homographs into a clean lake, runs the D4 baseline on it, then
//! applies the mitigation the paper proposes: detect homographs with
//! DomainNet *first*, remove them, and run D4 on what remains. (How D4's
//! domain count moves with the number of injected homographs is Figure 10:
//! `paper fig10`.)

use std::collections::BTreeSet;

use d4::D4Config;
use datagen::inject::{inject_homographs, remove_homographs, InjectionConfig};
use datagen::tus::{TusConfig, TusGenerator};
use domainnet::pipeline::DomainNetBuilder;
use domainnet::Measure;

fn report(label: &str, out: &d4::D4Output) {
    println!(
        "  {label:<28} {} domains, {}/{} columns covered, max {} / avg {:.3} domains per column",
        out.domain_count(),
        out.covered_columns(),
        out.string_columns,
        out.max_domains_per_column(),
        out.avg_domains_per_column()
    );
}

fn main() {
    let generated = TusGenerator::new(TusConfig {
        seed: 21,
        ..TusConfig::default()
    })
    .generate();
    let clean = remove_homographs(&generated);
    let config = InjectionConfig {
        count: 200,
        meanings: 6,
        min_attr_cardinality: 0,
        seed: 5,
    };
    let injected = inject_homographs(&clean, config).expect("the default lake holds 1200 values");

    println!("D4 before and after injecting 200 homographs with 6 meanings:");
    report("clean", &d4::discover(&clean.catalog, D4Config::default()));
    let polluted = &injected.lake.catalog;
    report("injected", &d4::discover(polluted, D4Config::default()));

    println!("\nMitigation: DomainNet detection -> remove detected values -> D4:");
    let net = DomainNetBuilder::new().build(polluted);
    let samples = (net.graph().node_count() / 50).max(200);
    let ranked = net.rank(Measure::approx_bc(samples, 9));
    let detected: BTreeSet<&str> = ranked
        .iter()
        .take(injected.injected.len())
        .map(|s| s.value.as_str())
        .collect();
    let caught = injected
        .injected
        .iter()
        .filter(|t| detected.contains(t.as_str()))
        .count();
    println!(
        "  DomainNet flags {} values; {caught} of the {} injected homographs are among them",
        detected.len(),
        injected.injected.len()
    );

    // Build a copy of the lake without the detected values and re-run D4.
    let mut tables: Vec<_> = polluted.tables().cloned().collect();
    for column in tables.iter_mut().flat_map(|t| t.columns_mut()) {
        for value in &detected {
            column.replace_value(value, "");
        }
    }
    let cleaned = lake::catalog::LakeCatalog::from_tables(tables).expect("names unchanged");
    report(
        "after removing detected",
        &d4::discover(&cleaned, D4Config::default()),
    );
}
