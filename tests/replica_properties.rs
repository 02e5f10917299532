//! The replication property: 30 seeded runs of random mutation traffic
//! against a durable sharded primary, with one to three followers joining
//! and leaving at random epochs, must end with **every surviving follower
//! bit-identical to the primary** — `to_bits` equality on every ranking
//! entry of the golden-corpus measures (LCC, exact BC and the seeded
//! approx BC — see `tests/golden_rankings.rs`), exact per-shard identity
//! counts, and zero divergences flagged.
//!
//! Every measure, approx BC included, is a function of the lake: a
//! maintained net holds a fresh build's scores bit for bit, and approx BC
//! re-draws its sources from the whole graph on every delta. So a follower
//! lands on the primary's bits exactly when it holds the primary's lake.
//! Any shortcut that loses a change — skipping a batch, resyncing on the
//! quiet — shows up as a score-bit mismatch here (and as a digest mismatch
//! in the insurance exchange).
//!
//! Followers join at random epochs (fresh bootstrap, or local recovery
//! over the directory a departed follower left behind), leave by being
//! dropped mid-stream without a final checkpoint, and sync at random
//! cadences — so some joins land after the primary's checkpoint cadence
//! has trimmed the WAL suffix they need, exercising the
//! `SnapshotRequired` re-bootstrap path.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use datagen::mutate::{MutationConfig, MutationStream};
use dn_graph::approx_bc::ApproxBcConfig;
use dn_service::{
    serve_sharded_durable, CheckpointPolicy, Coordinator, Follower, LocalReplicaSource,
    ServiceConfig,
};
use domainnet::Measure;
use lake::delta::MutableLake;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RUNS: usize = 30;
const STEPS: usize = 10;
const SHARDS: usize = 2;

/// The three golden-corpus measures (`tests/golden_rankings.rs`), approx
/// BC included: replication must preserve even seeded-sampler scores bit
/// for bit.
fn golden_measures() -> Vec<Measure> {
    vec![
        Measure::lcc(),
        Measure::exact_bc(),
        Measure::ApproxBc(ApproxBcConfig {
            samples: 512,
            seed: 2021,
        }),
    ]
}

fn config() -> ServiceConfig {
    ServiceConfig {
        measures: golden_measures(),
        prune_single_attribute_values: true,
        threads: 1,
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_replica_prop_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small random table over overlapping vocabularies, in the `base_*`
/// namespace (disjoint from `MutationStream`'s generated names).
fn random_base_table(rng: &mut StdRng, index: usize) -> lake::Table {
    const POOLS: &[(&str, &[&str])] = &[
        ("animal", &["Jaguar", "Puma", "Panda", "Lemur", "Okapi"]),
        ("brand", &["Jaguar", "Puma", "Fiat", "Toyota", "Rover"]),
        ("city", &["Memphis", "Sydney", "Austin", "Phoenix"]),
    ];
    let mut builder = lake::table::TableBuilder::new(format!("base_{index}"));
    let n_cols = rng.gen_range(1..=POOLS.len());
    let rows = rng.gen_range(2..=6usize);
    for (col, pool) in POOLS.iter().take(n_cols) {
        let cells: Vec<String> = (0..rows)
            .map(|_| pool[rng.gen_range(0..pool.len())].to_owned())
            .collect();
        builder = builder.column(*col, cells);
    }
    builder.build().expect("rectangular by construction")
}

#[test]
fn thirty_seeded_runs_with_churning_followers_end_bit_identical() {
    for run in 0..RUNS {
        let seed = 11_000 + run as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let context = format!("run {run}");
        let root = test_dir(&format!("{run}"));

        let mut base = MutableLake::new();
        let n_tables = rng.gen_range(3..=5);
        for i in 0..n_tables {
            let table = random_base_table(&mut rng, i);
            base.apply(&lake::delta::LakeDelta::new().add_table(table))
                .expect("base table applies");
        }

        // A short checkpoint cadence on the primary so late joiners (and
        // followers that slept through it) hit the WAL-trimmed path.
        let (handle, coordinator) = serve_sharded_durable(
            base.clone(),
            config(),
            root.join("primary"),
            CheckpointPolicy::every_epochs(3),
            SHARDS,
        )
        .unwrap_or_else(|e| panic!("{context}: fresh sharded primary: {e}"));
        let primary: Arc<Mutex<Coordinator>> = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));
        let mut stream = MutationStream::new(MutationConfig {
            seed,
            tables_per_delta: 2,
            rows_per_table: 8,
            ..MutationConfig::default()
        });
        let mut shadow = base;

        let follower_count = rng.gen_range(1..=3usize);
        let mut followers: Vec<Option<Follower>> = (0..follower_count).map(|_| None).collect();
        let follower_dir = |slot: usize| root.join(format!("follower_{slot}"));

        for _step in 0..STEPS {
            let delta = stream.next_delta(&shadow);
            shadow.apply(&delta).expect("stream deltas apply");
            primary
                .lock()
                .unwrap()
                .apply_and_publish(delta)
                .unwrap_or_else(|e| panic!("{context}: primary applies: {e}"));

            for (slot, entry) in followers.iter_mut().enumerate() {
                match entry {
                    present @ Some(_) => {
                        if rng.gen_range(0..10) < 2 {
                            // Leave: dropped mid-stream, no final
                            // checkpoint — its directory stays behind for
                            // a later rejoin to recover from.
                            *present = None;
                        } else if rng.gen_range(0..10) < 6 {
                            let report = present
                                .as_mut()
                                .expect("present")
                                .sync_once(&source)
                                .unwrap_or_else(|e| panic!("{context} slot {slot}: sync: {e}"));
                            assert_eq!(report.lag_epochs, 0, "{context} slot {slot}");
                        }
                    }
                    absent => {
                        if rng.gen_range(0..10) < 3 {
                            // Join at this epoch: a fresh bootstrap, or
                            // local recovery over whatever a departed
                            // follower left on disk.
                            let follower = Follower::bootstrap(
                                follower_dir(slot),
                                config(),
                                CheckpointPolicy::manual(),
                                &source,
                            )
                            .unwrap_or_else(|e| panic!("{context} slot {slot}: join: {e}"));
                            *absent = Some(follower);
                        }
                    }
                }
            }
        }

        // Quiesce: every surviving follower drains the tail once the
        // primary has stopped mutating...
        let survivors: Vec<(usize, &mut Follower)> = followers
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, f)| f.as_mut().map(|f| (slot, f)))
            .collect();
        assert!(
            !survivors.is_empty() || follower_count > 0,
            "{context}: churn schedule produced no survivors to check"
        );
        for (slot, follower) in survivors {
            let label = format!("{context} slot {slot}");
            let report = follower
                .sync_once(&source)
                .unwrap_or_else(|e| panic!("{label}: final sync: {e}"));
            assert_eq!(report.lag_epochs, 0, "{label}: drained");
            assert_eq!(
                report.checked_shards, SHARDS,
                "{label}: insurance verified every shard"
            );
            assert_eq!(follower.shared().divergence_total.get(), 0, "{label}");
            assert_eq!(follower.shared().halted(), None, "{label}");

            // ...and agrees with the primary bit for bit: identity counts
            // per shard, and every ranking entry of every golden measure
            // down to raw score bits — approx BC's sampled estimate
            // included.
            let primary_view = handle.current();
            let follower_view = follower.handle().current();
            follower_view
                .verify_consistency()
                .unwrap_or_else(|e| panic!("{label}: follower view: {e}"));
            assert_eq!(primary_view.epoch(), follower_view.epoch(), "{label}");
            for shard in 0..SHARDS {
                let (p, f) = (
                    primary_view.shard(shard).stats(),
                    follower_view.shard(shard).stats(),
                );
                assert_eq!(p.value_nodes, f.value_nodes, "{label} shard {shard}");
                assert_eq!(
                    p.attribute_nodes, f.attribute_nodes,
                    "{label} shard {shard}"
                );
                assert_eq!(p.edge_count, f.edge_count, "{label} shard {shard}");
                assert_eq!(
                    p.component_count, f.component_count,
                    "{label} shard {shard}"
                );
            }
            for measure in golden_measures() {
                let merged_p = primary_view
                    .top_k(measure, usize::MAX)
                    .expect("served measure");
                let merged_f = follower_view
                    .top_k(measure, usize::MAX)
                    .expect("served measure");
                assert_eq!(merged_p.len(), merged_f.len(), "{label} {measure:?}");
                for (p, f) in merged_p.iter().zip(&merged_f) {
                    assert_eq!(p.value, f.value, "{label} {measure:?}");
                    assert_eq!(
                        p.score.to_bits(),
                        f.score.to_bits(),
                        "{label} {measure:?}: {} scored {} on the primary vs {} on the follower",
                        p.value,
                        p.score,
                        f.score
                    );
                }
            }
        }

        std::fs::remove_dir_all(&root).expect("scratch cleanup");
    }
}
