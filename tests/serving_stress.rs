//! Concurrency stress test for the `dn-service` serving stack (one shard).
//!
//! One writer replays 200 seeded single-table mutations against an SB-style
//! lake, committed in batches and published as epochs, while 8 reader
//! threads continuously pin snapshots and interrogate them. Every reader
//! asserts that everything reachable from one pinned snapshot describes the
//! *same* state — scores, ranks, counts, cache answers — i.e. that no read
//! ever observes a mixture of epochs. After the writer finishes, the final
//! epoch must match a from-scratch build of the final lake to 1e-9 (node
//! layout, not drift).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use datagen::mutate::{MutationConfig, MutationStream};
use datagen::sb::{SbConfig, SbGenerator};
use dn_service::{serve_sharded, ServiceConfig};
use domainnet::{DomainNetBuilder, Measure};
use lake::delta::MutableLake;

const MUTATIONS: usize = 200;
const OPS_PER_DELTA: usize = 2;
const DELTAS_PER_EPOCH: usize = 4; // 4 deltas x 2 ops = 8 mutations per epoch
const READERS: usize = 8;

fn measures() -> Vec<Measure> {
    vec![Measure::lcc(), Measure::exact_bc()]
}

#[test]
fn readers_always_observe_consistent_epochs() {
    let base = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 40,
    })
    .generate();
    let lake = MutableLake::from_catalog(&base.catalog);
    let (service, mut writer) = serve_sharded(
        lake,
        ServiceConfig {
            measures: measures(),
            prune_single_attribute_values: true,
            threads: 1,
        },
        1,
    );

    let stop = Arc::new(AtomicBool::new(false));
    let max_epoch_seen = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mut reader = service.reader();
            let stop = Arc::clone(&stop);
            let max_epoch_seen = Arc::clone(&max_epoch_seen);
            std::thread::spawn(move || -> (u64, u64) {
                let mut last_epoch = 0u64;
                let mut distinct_epochs = 1u64;
                let mut iterations = 0u64;
                loop {
                    let epoch = reader.pin();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    let epoch_changed = epoch != last_epoch;
                    if epoch_changed {
                        distinct_epochs += 1;
                        last_epoch = epoch;
                    }
                    max_epoch_seen.fetch_max(epoch, Ordering::Relaxed);
                    let snap = Arc::clone(reader.view().shard(0));

                    // 1. Everything inside the snapshot cross-references.
                    //    The full O(candidates) sweep runs once per newly
                    //    observed epoch; the cheaper point checks below run
                    //    every iteration.
                    if iterations == 0 || epoch_changed {
                        snap.verify_consistency()
                            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
                    }

                    // 2. The shared cache answers with this snapshot's data.
                    for &measure in snap.measures() {
                        let cached = reader.top_k(measure, 10).expect("served measure");
                        let ranking = snap.ranking(measure).expect("served measure");
                        assert_eq!(cached.len(), ranking.len().min(10));
                        for (c, r) in cached.iter().zip(ranking.iter()) {
                            assert_eq!(c.value, r.value, "epoch {epoch}: cache drifted");
                            assert_eq!(
                                c.score.to_bits(),
                                r.score.to_bits(),
                                "epoch {epoch}: cached score drifted for {}",
                                c.value
                            );
                        }
                        // 3. Point lookups agree with the ranking.
                        if let Some(head) = ranking.first() {
                            let card = snap
                                .score_card(measure, &head.value)
                                .expect("ranked value has a card");
                            assert_eq!(card.rank, 1, "epoch {epoch}");
                            assert_eq!(card.of, ranking.len(), "epoch {epoch}");
                            assert_eq!(card.score.to_bits(), head.score.to_bits());
                        }
                    }

                    // 4. Node counts come from the same graph the rankings
                    //    were extracted from.
                    let stats = snap.stats();
                    assert!(stats.live_candidates <= stats.value_nodes);
                    assert!(stats.node_count == stats.value_nodes + stats.attribute_nodes);

                    iterations += 1;
                    if stop.load(Ordering::Relaxed) {
                        return (iterations, distinct_epochs);
                    }
                }
            })
        })
        .collect();

    // The writer: 200 seeded mutations, batched through the staging queue.
    let mut stream = MutationStream::new(MutationConfig {
        seed: 77,
        tables_per_delta: OPS_PER_DELTA,
        rows_per_table: 20,
        ..MutationConfig::default()
    });
    // Deltas are generated against a shadow copy of the lake so that the
    // deltas inside one staged batch stay mutually consistent before the
    // writer applies them.
    let mut shadow = writer.shard(0).lake().clone();
    let mut applied_ops = 0usize;
    while applied_ops < MUTATIONS {
        for _ in 0..DELTAS_PER_EPOCH {
            let delta = stream.next_delta(&shadow);
            applied_ops += delta.len();
            shadow.apply(&delta).expect("stream deltas apply to shadow");
            writer.stage(delta);
        }
        writer.commit().expect("batch commits cleanly");
        writer.publish();
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_iterations = 0;
    for handle in readers {
        let (iterations, distinct) = handle.join().expect("reader thread panicked");
        assert!(iterations > 0, "reader never completed an iteration");
        assert!(distinct >= 1);
        total_iterations += iterations;
    }
    assert!(total_iterations >= READERS as u64);
    let published = service.epochs_published();
    assert!(
        published >= (MUTATIONS / (OPS_PER_DELTA * DELTAS_PER_EPOCH)) as u64,
        "writer published {published} epochs"
    );
    // At least one reader actually ran against a post-initial epoch while
    // the writer was mutating (on any scheduler this is overwhelmingly the
    // case; it guards against a degenerate always-epoch-0 run).
    assert!(
        max_epoch_seen.load(Ordering::Relaxed) > 0,
        "no reader ever observed a published epoch"
    );

    // Final equivalence: the served epoch must match a from-scratch build
    // of the final lake to 1e-9, value-by-value. Both served measures are
    // exact, so the incremental path has no estimation slack — but the two
    // graphs lay nodes out in different orders, so float summation order
    // (and therefore rank order among exact ties) can differ at the last
    // ulp; scores are compared per value, like `incremental_equivalence.rs`.
    let final_view = service.current();
    let final_snap = final_view.shard(0);
    final_snap.verify_consistency().unwrap();
    assert_eq!(final_snap.epoch(), writer.epoch());
    let fresh = DomainNetBuilder::new().build(writer.shard(0).lake());
    for measure in measures() {
        let served = final_snap.ranking(measure).expect("served measure");
        let rebuilt = fresh.rank_shared(measure);
        assert_eq!(
            served.len(),
            rebuilt.len(),
            "{measure:?}: candidate counts diverged"
        );
        let by_value: std::collections::HashMap<&str, &domainnet::ScoredValue> =
            rebuilt.iter().map(|s| (s.value.as_str(), s)).collect();
        for s in served.iter() {
            let r = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{measure:?}: {} missing from rebuild", s.value));
            assert!(
                (s.score - r.score).abs() < 1e-9,
                "{measure:?}: {} scored {} served vs {} rebuilt",
                s.value,
                s.score,
                r.score
            );
            assert_eq!(s.attribute_count, r.attribute_count, "{}", s.value);
            assert_eq!(s.cardinality, r.cardinality, "{}", s.value);
        }
    }
}
