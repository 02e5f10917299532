//! Golden regression corpus for the homograph rankings.
//!
//! The committed files under `tests/golden/` pin the expected top-20
//! ranking (per measure) for the seeded workloads. Future performance PRs
//! — kernel rewrites, sampling changes, cache layers — must reproduce these
//! rankings bit-for-bit in order and to 1e-9 in score, so silent drift in
//! the scoring pipeline fails CI instead of shipping.
//!
//! To regenerate after an *intentional* ranking change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_rankings
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.

use datagen::sb::{SbConfig, SbGenerator};
use dn_graph::approx_bc::ApproxBcConfig;
use dn_graph::lcc::LccMethod;
use domainnet::{DomainNetBuilder, Measure, ScoredValue};
use lake::delta::LakeView;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const TOP_K: usize = 20;
const SCORE_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenEntry {
    rank: usize,
    value: String,
    score: f64,
    attribute_count: usize,
    cardinality: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenRanking {
    workload: String,
    measure: String,
    k: usize,
    entries: Vec<GoldenEntry>,
}

struct GoldenCase {
    file: &'static str,
    workload: &'static str,
    measure: Measure,
    measure_label: &'static str,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The seeded SB approx-BC measure: enough samples for a stable head of the
/// ranking, fully determined by the vendored RNG.
fn sb_approx_bc() -> Measure {
    Measure::ApproxBc(ApproxBcConfig {
        samples: 512,
        seed: 2021,
    })
}

fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            file: "running_example_lcc.json",
            workload: "running-example",
            measure: Measure::lcc(),
            measure_label: "LCC",
        },
        GoldenCase {
            file: "running_example_lcc_attr.json",
            workload: "running-example",
            measure: Measure::Lcc(LccMethod::AttributeJaccard),
            measure_label: "LCC(attr)",
        },
        GoldenCase {
            file: "running_example_bc.json",
            workload: "running-example",
            measure: Measure::exact_bc(),
            measure_label: "BC",
        },
        GoldenCase {
            file: "sb_lcc.json",
            workload: "sb-seed2021-rows120",
            measure: Measure::lcc(),
            measure_label: "LCC",
        },
        GoldenCase {
            file: "sb_bc_approx.json",
            workload: "sb-seed2021-rows120",
            measure: sb_approx_bc(),
            measure_label: "BC(approx,512,seed2021)",
        },
    ]
}

/// Build the ranking a case describes, from scratch.
fn build_ranking(case: &GoldenCase) -> Vec<ScoredValue> {
    match case.workload {
        "running-example" => {
            let lake = lake::fixtures::running_example();
            // Unpruned so every Figure-1 value is a candidate.
            DomainNetBuilder::new()
                .prune_single_attribute_values(false)
                .build(&lake)
                .top_k(case.measure, TOP_K)
        }
        "sb-seed2021-rows120" => {
            let sb = SbGenerator::with_config(SbConfig {
                seed: 2021,
                rows_per_table: 120,
            })
            .generate();
            let lake = lake::delta::MutableLake::from_catalog(&sb.catalog);
            assert!(
                LakeView::value_count(&lake) > 100,
                "the seeded SB lake should be non-trivial"
            );
            DomainNetBuilder::new()
                .build(&lake)
                .top_k(case.measure, TOP_K)
        }
        other => panic!("unknown golden workload '{other}'"),
    }
}

fn to_golden(case: &GoldenCase, ranking: &[ScoredValue]) -> GoldenRanking {
    GoldenRanking {
        workload: case.workload.to_owned(),
        measure: case.measure_label.to_owned(),
        k: TOP_K,
        entries: ranking
            .iter()
            .enumerate()
            .map(|(i, s)| GoldenEntry {
                rank: i + 1,
                value: s.value.clone(),
                score: s.score,
                attribute_count: s.attribute_count,
                cardinality: s.cardinality,
            })
            .collect(),
    }
}

fn diff_message(case: &GoldenCase, expected: &GoldenRanking, actual: &GoldenRanking) -> String {
    let mut lines = vec![format!(
        "golden ranking drifted: {} / {} ({})",
        case.workload, case.measure_label, case.file
    )];
    let n = expected.entries.len().max(actual.entries.len());
    for i in 0..n {
        match (expected.entries.get(i), actual.entries.get(i)) {
            (Some(e), Some(a))
                if e.value == a.value
                    && (e.score - a.score).abs() <= SCORE_TOLERANCE
                    && e.attribute_count == a.attribute_count
                    && e.cardinality == a.cardinality => {}
            (e, a) => {
                let fmt = |x: Option<&GoldenEntry>| match x {
                    Some(g) => format!(
                        "{} (score {:.12}, attrs {}, card {})",
                        g.value, g.score, g.attribute_count, g.cardinality
                    ),
                    None => "<missing>".to_owned(),
                };
                lines.push(format!(
                    "  rank {:>2}: expected {} | got {}",
                    i + 1,
                    fmt(e),
                    fmt(a)
                ));
            }
        }
    }
    lines.push(String::new());
    lines.push(
        "If this change is intentional, regenerate the corpus with\n    \
         UPDATE_GOLDEN=1 cargo test --test golden_rankings\nand commit the \
         updated files under tests/golden/ after reviewing the diff."
            .to_owned(),
    );
    lines.join("\n")
}

#[test]
fn golden_rankings_match_the_committed_corpus() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }

    let mut failures = Vec::new();
    for case in cases() {
        let actual = to_golden(&case, &build_ranking(&case));
        let path = dir.join(case.file);
        if update {
            let json = serde_json::to_string_pretty(&actual).expect("serialize golden");
            std::fs::write(&path, json + "\n").expect("write golden file");
            println!("regenerated {}", path.display());
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {}: {e}\nGenerate the corpus with\n    \
                 UPDATE_GOLDEN=1 cargo test --test golden_rankings",
                path.display()
            )
        });
        let expected: GoldenRanking = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()));
        let order_matches = expected.entries.len() == actual.entries.len()
            && expected.entries.iter().zip(&actual.entries).all(|(e, a)| {
                e.value == a.value
                    && (e.score - a.score).abs() <= SCORE_TOLERANCE
                    && e.attribute_count == a.attribute_count
                    && e.cardinality == a.cardinality
            });
        if !order_matches {
            failures.push(diff_message(&case, &expected, &actual));
        }
    }

    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// A single-shard coordinator must serve the golden workloads
/// *bit-identically* to a direct from-scratch build: same candidate order,
/// same score bits. This is the acceptance gate for `--shards 1` being a
/// pure pass-through — no re-partitioning, no re-ranking, no float drift.
#[test]
fn single_shard_coordinator_serves_the_corpus_bit_identically() {
    use dn_service::{serve_sharded, ServiceConfig};

    let workloads: [(&str, lake::delta::MutableLake, Vec<Measure>, bool); 2] = [
        (
            "running-example",
            lake::delta::MutableLake::from_catalog(&lake::fixtures::running_example()),
            vec![
                Measure::lcc(),
                Measure::Lcc(LccMethod::AttributeJaccard),
                Measure::exact_bc(),
            ],
            false,
        ),
        (
            "sb-seed2021-rows120",
            {
                let sb = SbGenerator::with_config(SbConfig {
                    seed: 2021,
                    rows_per_table: 120,
                })
                .generate();
                lake::delta::MutableLake::from_catalog(&sb.catalog)
            },
            vec![Measure::lcc(), sb_approx_bc()],
            true,
        ),
    ];

    for (workload, lake, measures, prune) in workloads {
        let (handle, _coordinator) = serve_sharded(
            lake,
            ServiceConfig {
                measures: measures.clone(),
                cache_capacity: 8,
                prune_single_attribute_values: prune,
                threads: 1,
            },
            1,
        );
        let view = handle.current();
        for case in cases().iter().filter(|c| c.workload == workload) {
            let direct = build_ranking(case);
            let served = view
                .top_k(case.measure, TOP_K)
                .expect("coordinator serves every golden measure");
            assert_eq!(
                served.len(),
                direct.len(),
                "{workload} / {}: candidate counts diverged",
                case.measure_label
            );
            for (s, d) in served.iter().zip(&direct) {
                assert_eq!(
                    s.value, d.value,
                    "{workload} / {}: order drifted",
                    case.measure_label
                );
                assert_eq!(
                    s.score.to_bits(),
                    d.score.to_bits(),
                    "{workload} / {}: score bits drifted for {}",
                    case.measure_label,
                    s.value
                );
                assert_eq!(s.attribute_count, d.attribute_count, "{}", s.value);
                assert_eq!(s.cardinality, d.cardinality, "{}", s.value);
            }
        }
    }
}

/// The corpus itself must stay sane: every committed file parses, has the
/// advertised shape, and its scores are finite.
#[test]
fn golden_corpus_files_are_well_formed() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the other test is rewriting the corpus right now
    }
    for case in cases() {
        let path = golden_dir().join(case.file);
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        let golden: GoldenRanking = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()));
        assert_eq!(golden.workload, case.workload, "{}", case.file);
        assert_eq!(golden.measure, case.measure_label, "{}", case.file);
        assert!(!golden.entries.is_empty(), "{} is empty", case.file);
        assert!(golden.entries.len() <= golden.k, "{}", case.file);
        for (i, entry) in golden.entries.iter().enumerate() {
            assert_eq!(entry.rank, i + 1, "{}: rank column drifted", case.file);
            assert!(entry.score.is_finite(), "{}: NaN/inf score", case.file);
            assert!(!entry.value.is_empty(), "{}", case.file);
        }
    }
}
