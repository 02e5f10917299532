//! Crash-recovery equivalence for the durable serving engine.
//!
//! Two suites:
//!
//! * `kill_and_recover_*` — the acceptance scenario: a durable
//!   single-shard coordinator on the seeded SB workload is dropped
//!   mid-stream after K committed batches; `serve_sharded_from_dir`
//!   recovers, and the recovered top-k rankings
//!   for the golden-corpus measures (LCC, exact BC and the seeded
//!   approx BC — see `tests/golden_rankings.rs`) and the retained
//!   value-neighbour LCC must match the uninterrupted run bit for bit,
//!   with ids and edges exactly equal.
//! * `random_checkpoint_recovery_equivalence` — the property: for seeded
//!   random lakes and mutation streams, with checkpoints taken at random
//!   points, recovery after a kill at an arbitrary step equals the
//!   uninterrupted run — exact on value ids, edges and score bits —
//!   and the recovered coordinator keeps serving correctly afterwards.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

use std::path::PathBuf;

use datagen::mutate::{MutationConfig, MutationStream};
use datagen::sb::{SbConfig, SbGenerator};
use dn_graph::approx_bc::ApproxBcConfig;
use dn_graph::lcc::LccMethod;
use dn_service::{
    serve_sharded, serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Coordinator,
    CoordinatorHandle, ServiceConfig,
};
use domainnet_suite::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_recovery_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The golden-corpus measures (`tests/golden_rankings.rs`): LCC and exact
/// BC on the running example, SB's LCC and seeded approx BC — three
/// distinct `Measure` values — plus the value-neighbour LCC, which is no
/// longer served by default but keeps its delta and recovery paths.
fn golden_measures() -> Vec<Measure> {
    vec![
        Measure::lcc(),
        Measure::Lcc(LccMethod::ValueNeighborJaccard),
        Measure::exact_bc(),
        Measure::ApproxBc(ApproxBcConfig {
            samples: 512,
            seed: 2021,
        }),
    ]
}

fn config(measures: Vec<Measure>, prune: bool) -> ServiceConfig {
    ServiceConfig {
        measures,
        prune_single_attribute_values: prune,
        threads: 1,
    }
}

/// Assert two engines hold the same state: exact on ids and edges (CSR
/// arrays and interner compared verbatim), on the bits of every score of
/// every served measure, and on ranked orders. Recovery replays the same
/// commits through the same `fold_batch` over the same derived graph, so
/// nothing may differ, not even the sampled approximate BC.
fn assert_engines_equal(
    label: &str,
    reference: (&CoordinatorHandle, &Coordinator),
    recovered: (&CoordinatorHandle, &Coordinator),
    measures: &[Measure],
) {
    let (ref_service, rec_service) = (reference.0, recovered.0);
    let (ref_writer, rec_writer) = (reference.1.shard(0), recovered.1.shard(0));

    // Ids: the interners must agree entry by entry.
    let (a, b) = (ref_writer.lake().interner(), rec_writer.lake().interner());
    assert_eq!(a.len(), b.len(), "{label}: interned value counts");
    for ((id_a, v_a), (id_b, v_b)) in a.iter().zip(b.iter()) {
        assert_eq!(id_a, id_b, "{label}");
        assert_eq!(v_a, v_b, "{label}: value id {id_a:?}");
    }
    // Edges: the CSR graphs must agree verbatim.
    let (ga, gb) = (ref_writer.net().graph(), rec_writer.net().graph());
    assert_eq!(ga.csr_offsets(), gb.csr_offsets(), "{label}: CSR offsets");
    assert_eq!(
        ga.csr_adjacency(),
        gb.csr_adjacency(),
        "{label}: CSR adjacency"
    );
    assert_eq!(ga.value_labels(), gb.value_labels(), "{label}");

    // Scores: every served measure, whole ranking, bit for bit.
    let (ref_view, rec_view) = (ref_service.current(), rec_service.current());
    rec_view.verify_consistency().unwrap();
    for &measure in measures {
        let a = ref_view.shard(0).ranking(measure).unwrap();
        let b = rec_view.shard(0).ranking(measure).unwrap();
        assert_eq!(a.len(), b.len(), "{label}: {measure:?} ranking sizes");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.value, y.value, "{label}: {measure:?} order");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{label}: {measure:?} {} scored {} vs {}",
                x.value,
                x.score,
                y.score
            );
            assert_eq!(x.attribute_count, y.attribute_count, "{label}");
            assert_eq!(x.cardinality, y.cardinality, "{label}");
        }
    }
}

#[test]
fn kill_and_recover_matches_uninterrupted_run_on_golden_measures() {
    let dir = test_dir("golden");
    let measures = golden_measures();
    let sb = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 60,
    })
    .generate();
    let lake = MutableLake::from_catalog(&sb.catalog);

    let (ref_service, mut ref_writer) =
        serve_sharded(lake.clone(), config(measures.clone(), true), 1);
    let (dur_service, mut dur_writer) = serve_sharded_durable(
        lake,
        config(measures.clone(), true),
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
        let delta = stream.next_delta(dur_writer.shard(0).lake());
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

    let (rec_service, mut rec_writer) = serve_sharded_from_dir(
        &dir,
        config(measures.clone(), true),
        CheckpointPolicy::every_epochs(2),
    )
    .unwrap();
    assert_eq!(rec_writer.epoch(), killed_epoch, "epoch numbering resumes");
    assert_engines_equal(
        "after recovery",
        (&ref_service, &ref_writer),
        (&rec_service, &rec_writer),
        &measures,
    );

    // Recovered readers answer the acceptance query: top-20 per measure.
    let reader = rec_service.reader();
    for &measure in &measures {
        let top = reader.top_k(measure, 20).unwrap();
        assert!(!top.is_empty(), "{measure:?}");
    }

    // The recovered engine is fully live: one more identical batch keeps
    // the two lineages equal.
    let delta = stream.next_delta(rec_writer.shard(0).lake());
    rec_writer.apply_and_publish(delta.clone()).unwrap();
    ref_writer.apply_and_publish(delta).unwrap();
    assert_engines_equal(
        "after post-recovery mutation",
        (&ref_service, &ref_writer),
        (&rec_service, &rec_writer),
        &measures,
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_checkpoint_recovery_equivalence() {
    let sequences = 10u64;
    for seq in 0..sequences {
        let mut rng = StdRng::seed_from_u64(0x0005_709E + seq);
        let dir = test_dir(&format!("prop_{seq}"));
        let measures = vec![Measure::lcc(), Measure::exact_bc()];
        let prune = seq % 2 == 0;

        // Random base lake (names disjoint from the stream's `mut_table_*`
        // namespace so re-adds never collide).
        let mut base = MutableLake::new();
        for i in 0..rng.gen_range(2..=4usize) {
            base.apply(&LakeDelta::new().add_table(random_base_table(&mut rng, i)))
                .unwrap();
        }

        let (ref_service, mut ref_writer) =
            serve_sharded(base.clone(), config(measures.clone(), prune), 1);
        let (_dur_service, mut dur_writer) = serve_sharded_durable(
            base,
            config(measures.clone(), prune),
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
            let delta = stream.next_delta(dur_writer.shard(0).lake());
            dur_writer.apply_and_publish(delta.clone()).unwrap();
            ref_writer.apply_and_publish(delta).unwrap();
            if rng.gen_bool(0.4) {
                assert!(dur_writer.checkpoint_now().unwrap(), "seq {seq}");
            }
        }
        drop(dur_writer); // kill

        let (rec_service, mut rec_writer) = serve_sharded_from_dir(
            &dir,
            config(measures.clone(), prune),
            CheckpointPolicy::manual(),
        )
        .unwrap();
        assert_engines_equal(
            &format!("seq {seq} after recovery"),
            (&ref_service, &ref_writer),
            (&rec_service, &rec_writer),
            &measures,
        );

        // Keep going after recovery.
        let delta = stream.next_delta(rec_writer.shard(0).lake());
        rec_writer.apply_and_publish(delta.clone()).unwrap();
        ref_writer.apply_and_publish(delta).unwrap();
        assert_engines_equal(
            &format!("seq {seq} after post-recovery mutation"),
            (&ref_service, &ref_writer),
            (&rec_service, &rec_writer),
            &measures,
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
    let measures = vec![Measure::lcc(), Measure::exact_bc()];
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let (ref_service, mut ref_writer) =
        serve_sharded(lake.clone(), config(measures.clone(), false), 1);
    let (_, mut dur_writer) = serve_sharded_durable(
        lake,
        config(measures.clone(), false),
        &dir,
        CheckpointPolicy::manual(),
        1,
    )
    .unwrap();
    for writer in [&mut ref_writer, &mut dur_writer] {
        writer
            .apply_and_publish(LakeDelta::new().remove_table("T3"))
            .unwrap();
    }
    drop(dur_writer);

    let (rec_service, _rec_writer) = serve_sharded_from_dir(
        &dir,
        config(measures.clone(), false),
        CheckpointPolicy::manual(),
    )
    .unwrap();
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

/// A data dir written while `Measure::lcc()` was the value-neighbour
/// reading lists `Lcc(ValueNeighborJaccard)` in its manifest. Recovered
/// with today's config, the served LCC is a fresh build's attribute-set
/// ranking bit for bit, and `measure=lcc` and its old alias `lcc_attr`
/// both resolve to it over HTTP.
#[test]
fn a_data_dir_written_before_the_lcc_switch_recovers_to_the_new_measure() {
    use dn_server::api::TopKResponse;
    use dn_server::{serve_http, Client, ServerConfig};

    let dir = test_dir("pre_switch");
    let old_lcc = Measure::Lcc(LccMethod::ValueNeighborJaccard);
    let sb = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 60,
    })
    .generate();
    let (service, mut writer) = serve_sharded_durable(
        MutableLake::from_catalog(&sb.catalog),
        config(vec![old_lcc, Measure::exact_bc()], true),
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
    let (_, persisted) = dn_store::Store::recover(dn_store::shard_dir(&dir, 0)).unwrap();
    assert_eq!(persisted.measures, [old_lcc, Measure::exact_bc()]);

    let measures = vec![Measure::lcc(), Measure::exact_bc()];
    let (rec_service, rec_writer) = serve_sharded_from_dir(
        &dir,
        config(measures, true),
        CheckpointPolicy::every_epochs(2),
    )
    .unwrap();
    let fresh = DomainNetBuilder::new()
        .prune_single_attribute_values(true)
        .build(rec_writer.shard(0).lake())
        .rank(Measure::lcc());
    let served = rec_service
        .current()
        .shard(0)
        .ranking(Measure::lcc())
        .unwrap()
        .clone();
    assert_eq!(served.len(), fresh.len());
    for (x, y) in served.iter().zip(&fresh) {
        assert_eq!(x.value, y.value, "order");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{}", x.value);
        assert_eq!(x.cardinality, y.cardinality, "{}", x.value);
    }

    let server = serve_http(
        rec_service,
        rec_writer,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::new(server.local_addr());
    for token in ["lcc", "lcc_attr"] {
        let response = client
            .get(&format!("/v1/top-k?measure={token}&k=20"))
            .unwrap();
        assert_eq!(response.status, 200, "{token}: {}", response.body);
        let top: TopKResponse = response.json().unwrap();
        assert_eq!(top.measure, "LCC", "{token}");
        let values: Vec<&str> = top.results.iter().map(|s| s.value.as_str()).collect();
        let want: Vec<&str> = fresh[..20].iter().map(|s| s.value.as_str()).collect();
        assert_eq!(values, want, "{token}");
    }
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
