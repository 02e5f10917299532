//! Crash-recovery equivalence for the durable serving engine, beyond
//! `row_recovered_after_every_commit` of `tests/referee_matrix.rs`, which
//! kills a coordinator after every commit of its seeded streams:
//!
//! * `kill_and_recover_matches_uninterrupted_run_on_golden_measures` — the
//!   acceptance scenario: a durable single-shard coordinator on the seeded
//!   SB workload is dropped mid-stream after K committed batches;
//!   `serve_sharded_from_dir` recovers, and the recovered engine must hold
//!   the uninterrupted run's lake id for id and serve its rankings of the
//!   golden-corpus measures (LCC, exact BC and the seeded approx BC — see
//!   `tests/golden_rankings.rs`) bit for bit, then keep serving.
//! * `random_checkpoint_recovery_equivalence` — the property: for seeded
//!   random lakes and churny mutation streams, with checkpoints taken at
//!   random points, recovery after a kill equals the uninterrupted run, and
//!   the recovered coordinator keeps serving correctly afterwards.
//! * `recovered_export_matches_golden_corpus_workflow` — a recovered
//!   reader's top 10 equals the uninterrupted engine's, entry by entry;
//! * `a_data_dir_that_names_the_retired_lcc_reading_is_refused` — a data
//!   dir naming the retired value-neighbour LCC is refused with its typed
//!   error.
//!
//! Every recovered engine is held to `common::assert_serves_the_reference`
//! with the uninterrupted engine as the live one: the same interner, ids
//! and live tables, fresh-build nets, and per-shard rankings of every
//! served measure by score bits.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

mod common;

use common::{
    assert_serves_the_reference, config, golden_measures, measures, random_base_table, test_dir,
    Engine, Reference,
};
use datagen::mutate::{MutationConfig, MutationStream};
use datagen::sb::{SbConfig, SbGenerator};
use dn_service::{
    serve_sharded, serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Coordinator,
    CoordinatorHandle, ServiceConfig,
};
use domainnet_suite::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assert that `recovered` serves `shadow`, the deltas applied in order,
/// and holds and serves what the uninterrupted `live` engine does.
/// Recovery replays the same commits through the same `fold_batch` over
/// the same derived graph, so nothing may differ, not even the sampled
/// approximate BC.
fn assert_recovered_is_live(
    label: &str,
    shadow: &MutableLake,
    live: &Coordinator,
    recovered: &Coordinator,
) {
    recovered
        .handle()
        .current()
        .verify_consistency()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_serves_the_reference(
        Reference::Applied(shadow),
        &Engine::coordinator(recovered),
        Some(&Engine::coordinator(live)),
        label,
    );
}

#[test]
fn kill_and_recover_matches_uninterrupted_run_on_golden_measures() {
    let dir = test_dir("golden");
    let measures = golden_measures();
    let config = ServiceConfig {
        measures: measures.clone(),
        ..config()
    };
    let sb = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 60,
    })
    .generate();
    let mut shadow = MutableLake::from_catalog(&sb.catalog);

    let (_, mut ref_writer) = serve_sharded(shadow.clone(), config.clone(), 1);
    let (dur_service, mut dur_writer) = serve_sharded_durable(
        shadow.clone(),
        config.clone(),
        &dir,
        CheckpointPolicy::every_epochs(2),
        1,
    )
    .unwrap();

    // K committed batches, identically applied to both engines; the
    // every-2-epochs policy leaves a snapshot *and* a WAL suffix behind.
    let k = 5;
    let mut stream = MutationStream::new(MutationConfig {
        seed: 7,
        rows_per_table: 40,
        ..MutationConfig::default()
    });
    for _ in 0..k {
        let delta = stream.next_delta(&shadow);
        shadow.apply(&delta).unwrap();
        dur_writer.apply_and_publish(delta.clone()).unwrap();
        ref_writer.apply_and_publish(delta).unwrap();
    }
    assert!(
        dur_writer.wal_record_bytes() > 0,
        "the kill must catch un-checkpointed batches"
    );
    let killed_epoch = dur_writer.epoch();
    drop(dur_writer); // kill mid-stream
    drop(dur_service);

    let (rec_service, mut rec_writer) =
        serve_sharded_from_dir(&dir, config, CheckpointPolicy::every_epochs(2)).unwrap();
    assert_eq!(rec_writer.epoch(), killed_epoch, "epoch numbering resumes");
    assert_recovered_is_live("after recovery", &shadow, &ref_writer, &rec_writer);

    // Recovered readers answer the acceptance query: top-20 per measure.
    let reader = rec_service.reader();
    for &measure in &measures {
        let top = reader.top_k(measure, 20).unwrap();
        assert!(!top.is_empty(), "{measure:?}");
    }

    // The recovered engine is fully live: one more identical batch keeps
    // the two lineages equal.
    let delta = stream.next_delta(&shadow);
    shadow.apply(&delta).unwrap();
    rec_writer.apply_and_publish(delta.clone()).unwrap();
    ref_writer.apply_and_publish(delta).unwrap();
    assert_recovered_is_live(
        "after post-recovery mutation",
        &shadow,
        &ref_writer,
        &rec_writer,
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_checkpoint_recovery_equivalence() {
    let sequences = 10u64;
    for seq in 0..sequences {
        let mut rng = StdRng::seed_from_u64(0x0005_709E + seq);
        let dir = test_dir(&format!("prop_{seq}"));
        let config = ServiceConfig {
            prune_single_attribute_values: seq % 2 == 0,
            ..config()
        };

        // Random base lake (names disjoint from the stream's `mut_table_*`
        // namespace so re-adds never collide).
        let mut shadow = MutableLake::new();
        for i in 0..rng.gen_range(2..=4usize) {
            shadow
                .apply(&LakeDelta::new().add_table(random_base_table(&mut rng, i)))
                .unwrap();
        }

        let (_, mut ref_writer) = serve_sharded(shadow.clone(), config.clone(), 1);
        let (_dur_service, mut dur_writer) = serve_sharded_durable(
            shadow.clone(),
            config.clone(),
            &dir,
            CheckpointPolicy::manual(),
            1,
        )
        .unwrap();

        // A churny stream (base tables removable) with checkpoints at
        // random points, killed after a random number of batches.
        let mut stream = MutationStream::new(MutationConfig {
            seed: 2000 + seq,
            rows_per_table: 8,
            touch_base_tables: true,
            ..MutationConfig::default()
        });
        let steps = rng.gen_range(3..=6usize);
        for _ in 0..steps {
            let delta = stream.next_delta(&shadow);
            shadow.apply(&delta).unwrap();
            dur_writer.apply_and_publish(delta.clone()).unwrap();
            ref_writer.apply_and_publish(delta).unwrap();
            if rng.gen_bool(0.4) {
                assert!(dur_writer.checkpoint_now().unwrap(), "seq {seq}");
            }
        }
        drop(dur_writer); // kill

        let (_, mut rec_writer) =
            serve_sharded_from_dir(&dir, config, CheckpointPolicy::manual()).unwrap();
        assert_recovered_is_live(
            &format!("seq {seq} after recovery"),
            &shadow,
            &ref_writer,
            &rec_writer,
        );

        // Keep going after recovery.
        let delta = stream.next_delta(&shadow);
        shadow.apply(&delta).unwrap();
        rec_writer.apply_and_publish(delta.clone()).unwrap();
        ref_writer.apply_and_publish(delta).unwrap();
        assert_recovered_is_live(
            &format!("seq {seq} after post-recovery mutation"),
            &shadow,
            &ref_writer,
            &rec_writer,
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovered_export_matches_golden_corpus_workflow() {
    // The ranking export rides the same snapshot machinery the golden
    // corpus uses: a recovered reader's top 10 equals the uninterrupted
    // engine's entry by entry, score bits included.
    let dir = test_dir("export");
    let measures = measures();
    let config = ServiceConfig {
        prune_single_attribute_values: false,
        ..config()
    };
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let (ref_service, mut ref_writer) = serve_sharded(lake.clone(), config.clone(), 1);
    let (_, mut dur_writer) =
        serve_sharded_durable(lake, config.clone(), &dir, CheckpointPolicy::manual(), 1).unwrap();
    for writer in [&mut ref_writer, &mut dur_writer] {
        writer
            .apply_and_publish(LakeDelta::new().remove_table("T3"))
            .unwrap();
    }
    drop(dur_writer);

    let (rec_service, _rec_writer) =
        serve_sharded_from_dir(&dir, config, CheckpointPolicy::manual()).unwrap();
    let top_10 = |service: &CoordinatorHandle, measure| -> Vec<_> {
        service
            .reader()
            .top_k(measure, 10)
            .unwrap()
            .iter()
            .map(|scored| {
                (
                    scored.value.clone(),
                    scored.score.to_bits(),
                    scored.attribute_count,
                    scored.cardinality,
                )
            })
            .collect()
    };
    for &measure in &measures {
        let from_ref = top_10(&ref_service, measure);
        assert!(!from_ref.is_empty(), "{measure:?}");
        assert_eq!(from_ref, top_10(&rec_service, measure), "{measure:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A data dir whose manifests name `LCC(value)`, the retired
/// value-neighbour LCC reading, as a dir written while it was served does:
/// the measure is `TAG_LCC, 0` there. It is forged out of a dir written
/// today, each snapshot's manifest resealed so every checksum holds.
/// Recovery refuses it with the typed error that names the reading, and so
/// does serving from it.
#[test]
fn a_data_dir_that_names_the_retired_lcc_reading_is_refused() {
    use dn_store::snapshot::section_table;
    use dn_store::StoreError;

    let dir = test_dir("retired_lcc");
    let sb = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 60,
    })
    .generate();
    let (service, mut writer) = serve_sharded_durable(
        MutableLake::from_catalog(&sb.catalog),
        config(),
        &dir,
        CheckpointPolicy::every_epochs(2),
        1,
    )
    .unwrap();
    let mut stream = MutationStream::new(MutationConfig {
        seed: 7,
        rows_per_table: 40,
        ..MutationConfig::default()
    });
    for _ in 0..3 {
        let delta = stream.next_delta(writer.shard(0).lake());
        writer.apply_and_publish(delta).unwrap();
    }
    assert!(writer.checkpoint_now().unwrap());
    drop(writer);
    drop(service);

    let shard = dn_store::shard_dir(&dir, 0);
    let snapshots = dn_store::list_snapshots(&shard).unwrap();
    assert!(!snapshots.is_empty());
    for (_, path) in &snapshots {
        let mut bytes = std::fs::read(path).unwrap();
        let (index, manifest) = section_table(&bytes)
            .unwrap()
            .into_iter()
            .enumerate()
            .find(|(_, s)| s.name == "manifest")
            .unwrap();
        // Last seq, epoch and the measure count (a u64 each), then LCC as
        // `TAG_LCC, 1` and exact BC as its tag. Rewrite the 1 to a 0 and
        // the section's CRC (the last field of its table entry, after the
        // 16-byte header) to match.
        let payload = manifest.offset..manifest.offset + manifest.len;
        assert_eq!(
            bytes[payload.start + 24..payload.end],
            [0, 1, 1],
            "manifest layout changed"
        );
        bytes[payload.start + 25] = 0;
        let crc = dn_store::codec::crc32(&bytes[payload]);
        bytes[16 + index * 24 + 20..][..4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    match dn_store::Store::recover(&shard) {
        Err(StoreError::RetiredLccReading) => {}
        Err(other) => panic!("expected the retired LCC reading to be refused, got {other}"),
        Ok(_) => panic!("recovered a dir naming LCC(value)"),
    }
    let refused = serve_sharded_from_dir(&dir, config(), CheckpointPolicy::every_epochs(2));
    let message = refused
        .err()
        .expect("served a dir naming LCC(value)")
        .to_string();
    assert!(message.contains("LCC(value)"), "{message}");
    std::fs::remove_dir_all(&dir).unwrap();
}
