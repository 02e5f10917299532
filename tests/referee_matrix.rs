//! The referee matrix: every write path × seeded delta streams, with
//! pruning on and off, held to one predicate,
//! `common::assert_serves_the_reference` (its clauses are in
//! `tests/common/mod.rs`).
//!
//! Each row is one path. It turns each stream's seed lake and deltas into
//! served engines and hands every one of them to the referee beside the
//! reference lake, the same deltas applied in order to one `MutableLake`:
//!
//! * `row_live_commits`: `MutableLake::apply` + `DomainNet::apply_delta`
//!   per delta, checked after every delta;
//! * `row_folded_runs`: `DomainNet::fold_batch` over runs of 1, 2 and 3
//!   batches, checked after every run;
//! * `row_recovered_after_every_commit`: a durable coordinator at 1 and 3
//!   shards, each shard checkpointing every 2 of its epochs and all of them
//!   at seeded points, killed after every commit and brought back by
//!   `serve_sharded_from_dir` (epochs resume), which then takes the next
//!   commit; held to a live coordinator fed the same deltas;
//! * `row_follower`: a durable two-shard primary that checkpoints every 3
//!   epochs, and a follower that bootstraps at a seeded epoch, leaves
//!   without a checkpoint, rejoins over its own directory and syncs through
//!   `LocalReplicaSource` at seeded points; held to the primary;
//! * `row_http_mutations`: `POST /v1/mutations` to an in-process
//!   `serve_http`, the coordinator `join` returns checked;
//! * `row_drop_folder_ingest`: drift generations (`DriftStream`), a file
//!   withdrawn for a generation at seeded points, through an `Ingester` into
//!   a coordinator; here the reference is `load_dir` of the folder;
//! * `row_sharded_1_2_4`: the coordinator at 1, 2 and 4 shards.
//!
//! Every row counts what its streams exercised ([`Coverage`]) and fails
//! if one kind of change never happened.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use common::{
    assert_serves_the_reference, config, golden_measures, live_tables, multi_component_base,
    random_base_table, test_dir, Columns, Engine, HeldValueReplacements, Reference,
};
use datagen::{DriftConfig, DriftStream, MutationConfig, MutationStream};
use dn_ingest::{CoordinatorSink, IngestConfig, IngestStats, Ingester};
use dn_server::api::MutationRequest;
use dn_server::{serve_http, Client, ServerConfig};
use dn_service::{
    serve_sharded, serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Follower,
    LocalReplicaSource, ServiceConfig,
};
use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::delta::{LakeDelta, MutableLake};
use lake::loader::{load_dir, LoadOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Streams per pruning setting in each row.
const STREAMS: u64 = 5;
/// Deltas per stream.
const DELTAS: usize = 12;
/// The longest `fold_batch` run.
const MAX_RUN: usize = 3;
/// Drift generations per ingest stream.
const GENERATIONS: usize = 8;

/// What a row run's streams exercised, counted from the reference lake
/// after each step: the tables that came, went, came back or changed, and
/// what happened to the graph a fresh build of it has.
#[derive(Default)]
struct Coverage {
    adds: usize,
    removals: usize,
    re_adds: usize,
    replacements: usize,
    /// Edited columns whose new cells hold a value another column held
    /// before the step: a replacement onto a held value.
    held_replacements: usize,
    /// Value nodes a step took out of the graph.
    vanished: usize,
    merges: usize,
    splits: usize,
    pruned_streams: usize,
    unpruned_streams: usize,
    prune: bool,
    /// The last state counted: the live tables, the table names removed
    /// since the stream began, and each value node's component.
    tables: HashMap<String, Columns>,
    removed: HashSet<String>,
    components: HashMap<String, u32>,
}

impl Coverage {
    /// Start a stream at `lake`, with pruning on or off.
    fn begin(&mut self, lake: &MutableLake, prune: bool) {
        if prune {
            self.pruned_streams += 1;
        } else {
            self.unpruned_streams += 1;
        }
        self.prune = prune;
        self.removed.clear();
        self.tables = live_tables(lake).into_iter().collect();
        self.components = Self::components(lake, prune);
    }

    /// Count what changed between the last state and `lake`.
    fn step(&mut self, lake: &MutableLake) {
        let tables: HashMap<_, _> = live_tables(lake).into_iter().collect();
        // Each normalized value the last state held, and the columns
        // holding it.
        let mut holders: HashMap<String, HashSet<(&str, &str)>> = HashMap::new();
        for (name, columns) in &self.tables {
            for (column, cells) in columns {
                for cell in cells {
                    let holder = (name.as_str(), column.as_str());
                    holders
                        .entry(lake::normalize(cell))
                        .or_default()
                        .insert(holder);
                }
            }
        }
        let mut held_replacements = 0;
        for (name, columns) in &tables {
            match self.tables.get(name) {
                None if self.removed.remove(name) => self.re_adds += 1,
                None => self.adds += 1,
                Some(old) if old != columns => {
                    self.replacements += 1;
                    for ((column, cells), (_, old_cells)) in columns.iter().zip(old) {
                        let held_elsewhere = cells.iter().zip(old_cells).any(|(cell, was)| {
                            let value = lake::normalize(cell);
                            cell != was
                                && !value.is_empty()
                                && holders.get(&value).is_some_and(|columns| {
                                    columns
                                        .iter()
                                        .any(|&h| h != (name.as_str(), column.as_str()))
                                })
                        });
                        held_replacements += usize::from(held_elsewhere);
                    }
                }
                Some(_) => {}
            }
        }
        self.held_replacements += held_replacements;
        for name in self.tables.keys() {
            if !tables.contains_key(name) {
                self.removals += 1;
                self.removed.insert(name.clone());
            }
        }
        self.tables = tables;

        let components = Self::components(lake, self.prune);
        let mut new_of_old: HashMap<u32, HashSet<u32>> = HashMap::new();
        let mut old_of_new: HashMap<u32, HashSet<u32>> = HashMap::new();
        for (value, &old) in &self.components {
            match components.get(value) {
                None => self.vanished += 1,
                Some(&new) => {
                    new_of_old.entry(old).or_default().insert(new);
                    old_of_new.entry(new).or_default().insert(old);
                }
            }
        }
        self.merges += old_of_new.values().filter(|olds| olds.len() > 1).count();
        self.splits += new_of_old.values().filter(|news| news.len() > 1).count();
        self.components = components;
    }

    /// Each value node's component in a fresh build of `lake`.
    fn components(lake: &MutableLake, prune: bool) -> HashMap<String, u32> {
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(prune)
            .build(lake);
        let graph = net.graph();
        graph
            .value_nodes()
            .map(|v| {
                let label = graph.value_label(v).to_owned();
                (label, net.components().labels[v as usize])
            })
            .collect()
    }

    fn assert_exercised(&self, row: &str) {
        let counts = [
            ("table adds", self.adds),
            ("table removals", self.removals),
            ("re-adds of a removed table", self.re_adds),
            ("replacements", self.replacements),
            ("replacements onto a held value", self.held_replacements),
            ("values leaving the graph", self.vanished),
            ("component merges", self.merges),
            ("component splits", self.splits),
            ("streams with pruning on", self.pruned_streams),
            ("streams with pruning off", self.unpruned_streams),
        ];
        assert!(
            counts.iter().all(|&(_, n)| n > 0),
            "{row}: the streams missed a kind of change: {counts:?}"
        );
    }
}

/// One seeded mutation stream and its reference lake.
struct Stream<'a> {
    deltas: HeldValueReplacements,
    reference: MutableLake,
    coverage: &'a mut Coverage,
}

impl Stream<'_> {
    /// The next delta, applied to the reference lake and counted.
    fn next(&mut self) -> LakeDelta {
        let delta = self.deltas.next_delta(&self.reference);
        self.reference.apply(&delta).expect("stream deltas apply");
        self.coverage.step(&self.reference);
        delta
    }

    fn reference(&self) -> Reference<'_> {
        Reference::Applied(&self.reference)
    }
}

/// Run one row: `path` gets each stream's context, pruning setting, seed
/// lake and stream, for `STREAMS` seeds with pruning on and off. Even
/// seeds start from three disjoint islands, odd seeds from two to four
/// random overlapping tables. Then assert that the streams exercised every
/// kind of change.
fn run_row(row: &str, mut path: impl FnMut(&str, bool, MutableLake, &mut Stream)) {
    let mut coverage = Coverage::default();
    for prune in [true, false] {
        for seed in 0..STREAMS {
            let base = if seed % 2 == 0 {
                multi_component_base()
            } else {
                let mut rng = StdRng::seed_from_u64(0xBA5E + seed);
                let mut lake = MutableLake::new();
                for i in 0..rng.gen_range(2..=4usize) {
                    lake.apply(&LakeDelta::new().add_table(random_base_table(&mut rng, i)))
                        .expect("base tables apply");
                }
                lake
            };
            coverage.begin(&base, prune);
            let mut stream = Stream {
                deltas: HeldValueReplacements::new(
                    MutationStream::new(MutationConfig {
                        seed: 5_000 + seed,
                        tables_per_delta: 2,
                        rows_per_table: 8,
                        touch_base_tables: true,
                        ..MutationConfig::default()
                    }),
                    0x4E1D + seed,
                ),
                reference: base.clone(),
                coverage: &mut coverage,
            };
            let context = format!("{row}, seed {seed}, pruning {prune}");
            path(&context, prune, base, &mut stream);
        }
    }
    coverage.assert_exercised(row);
}

/// The golden measures and sampled BC from 8 sources, pruning on or off.
/// The golden sampled BC draws 512 sources, every node of these lakes, so
/// only the 8-source estimate depends on which sources a seed draws.
fn served(prune: bool) -> ServiceConfig {
    let mut measures = golden_measures();
    measures.push(Measure::approx_bc(8, 7));
    ServiceConfig {
        measures,
        prune_single_attribute_values: prune,
        ..config()
    }
}

/// A bare net over `lake`, its caches warm so every delta patches them.
fn warm_net(lake: &MutableLake, prune: bool) -> DomainNet {
    let net = DomainNetBuilder::new()
        .prune_single_attribute_values(prune)
        .build(lake);
    net.warm_rankings(&served(prune).measures);
    net
}

/// A scratch directory name unique to one stream of one row.
fn dir_name(context: &str) -> String {
    context
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[test]
fn row_live_commits() {
    run_row("live", |context, prune, mut lake, stream| {
        let mut net = warm_net(&lake, prune);
        for step in 0..DELTAS {
            let effects = lake.apply(&stream.next()).expect("stream deltas apply");
            net.apply_delta(&lake, &effects)
                .expect("effects match the maintained net");
            let engine = Engine::net(&lake, &net);
            assert_serves_the_reference(
                stream.reference(),
                &engine,
                None,
                &format!("{context}, step {step}"),
            );
        }
    });
}

#[test]
fn row_folded_runs() {
    run_row("folded", |context, prune, mut lake, stream| {
        let mut net = warm_net(&lake, prune);
        let (mut step, mut len) = (0, 1);
        while step < DELTAS {
            let run: Vec<LakeDelta> = (0..len.min(DELTAS - step)).map(|_| stream.next()).collect();
            let batches: Vec<&[LakeDelta]> = run.iter().map(std::slice::from_ref).collect();
            net.fold_batch(&mut lake, &batches, &served(prune).measures)
                .unwrap_or_else(|e| panic!("{context}: the run folds: {e:?}"));
            step += run.len();
            let engine = Engine::net(&lake, &net);
            assert_serves_the_reference(
                stream.reference(),
                &engine,
                None,
                &format!("{context}, a run of {} to step {step}", run.len()),
            );
            len = len % MAX_RUN + 1;
        }
    });
}

#[test]
fn row_recovered_after_every_commit() {
    for shards in [1, 3] {
        // Kills right after a forced checkpoint, kills that left some
        // shard a WAL suffix to replay, and kills that caught the shards
        // at different checkpoints (each shard keeps its own cadence).
        let (mut checkpointed, mut replayed, mut between) = (0, 0, 0);
        let row = format!("recovered at {shards} shards");
        run_row(&row, |context, prune, base, stream| {
            let dir = test_dir(&dir_name(context));
            let mut rng = StdRng::seed_from_u64(0xC0DE + u64::from(prune));
            let policy = CheckpointPolicy::every_epochs(2);
            let (_, mut live) = serve_sharded(base.clone(), served(prune), shards);
            let (_, mut durable) = serve_sharded_durable(base, served(prune), &dir, policy, shards)
                .expect("fresh sharded store");
            for step in 0..=DELTAS {
                let context = format!("{context}, step {step}");
                let delta = stream.next();
                live.apply_and_publish(delta.clone())
                    .expect("the live coordinator commits");
                durable
                    .apply_and_publish(delta)
                    .expect("the durable coordinator commits");
                if step < DELTAS {
                    if rng.gen_bool(0.2) {
                        assert!(durable.checkpoint_now().expect("checkpoint"), "{context}");
                        checkpointed += 1;
                    }
                    let suffixes: Vec<bool> = (0..shards)
                        .map(|i| durable.shard(i).wal_record_bytes() > 0)
                        .collect();
                    replayed += usize::from(suffixes.contains(&true));
                    between += usize::from(suffixes.contains(&true) && suffixes.contains(&false));
                    let epoch = durable.epoch();
                    let shard_epochs: u64 = (0..shards).map(|i| durable.shard(i).epoch()).sum();
                    assert_eq!(
                        epoch, shard_epochs,
                        "{context}: the sum of the shard epochs"
                    );
                    drop(durable);
                    durable = serve_sharded_from_dir(&dir, served(prune), policy)
                        .unwrap_or_else(|e| panic!("{context}: recovery: {e}"))
                        .1;
                    assert_eq!(durable.epoch(), epoch, "{context}: epoch numbering resumes");
                }
                // The live engine's per-shard epochs, counts and rankings.
                assert_serves_the_reference(
                    stream.reference(),
                    &Engine::coordinator(&durable),
                    Some(&Engine::coordinator(&live)),
                    &context,
                );
            }
            drop(durable);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        });
        assert!(
            checkpointed > 0 && replayed > 0 && (shards == 1 || between > 0),
            "{row}: kills after a checkpoint {checkpointed}, replaying a WAL suffix \
             {replayed}, between shard checkpoints {between}"
        );
    }
}

#[test]
fn row_follower() {
    const SHARDS: usize = 2;
    run_row("follower", |context, prune, base, stream| {
        let root = test_dir(&dir_name(context));
        let mut rng = StdRng::seed_from_u64(0xF0110 + u64::from(prune));
        // A short checkpoint cadence, so a follower that slept through one
        // finds the WAL suffix it needs trimmed and re-bootstraps shards.
        let (handle, coordinator) = serve_sharded_durable(
            base,
            served(prune),
            root.join("primary"),
            CheckpointPolicy::every_epochs(3),
            SHARDS,
        )
        .expect("fresh sharded primary");
        let primary = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle, Arc::clone(&primary));
        let join = rng.gen_range(0..DELTAS / 2);
        let leave = rng.gen_range(join + 1..DELTAS - 1);
        let mut follower: Option<Follower> = None;
        for step in 0..=DELTAS {
            let context = format!("{context}, step {step}");
            if step < DELTAS {
                primary
                    .lock()
                    .unwrap()
                    .apply_and_publish(stream.next())
                    .expect("the primary commits");
                if step == leave {
                    // Dropped mid-stream without a checkpoint: its directory
                    // stays behind for the rejoin to recover from.
                    follower = None;
                    continue;
                }
                if step < join || rng.gen_bool(0.4) {
                    continue;
                }
            }
            let follower = follower.get_or_insert_with(|| {
                Follower::bootstrap(
                    root.join("follower"),
                    served(prune),
                    CheckpointPolicy::manual(),
                    &source,
                )
                .unwrap_or_else(|e| panic!("{context}: join: {e}"))
            });
            let report = follower
                .sync_once(&source)
                .unwrap_or_else(|e| panic!("{context}: sync: {e}"));
            assert_eq!(report.lag_epochs, 0, "{context}: drained");
            assert_eq!(
                report.checked_shards, SHARDS,
                "{context}: insurance on every shard"
            );
            assert_eq!(follower.shared().divergence_total.get(), 0, "{context}");
            assert_eq!(follower.shared().halted(), None, "{context}");
            let engine = Engine::coordinator(&follower.coordinator().lock().unwrap());
            let live = Engine::coordinator(&primary.lock().unwrap());
            assert_serves_the_reference(stream.reference(), &engine, Some(&live), &context);
        }
        drop(follower);
        std::fs::remove_dir_all(&root).expect("cleanup");
    });
}

#[test]
fn row_http_mutations() {
    run_row("http", |context, prune, base, stream| {
        let (handle, coordinator) = serve_sharded(base, served(prune), 1);
        let server = serve_http(
            handle,
            coordinator,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind an ephemeral port");
        let mut client = Client::new(server.local_addr());
        for step in 0..DELTAS {
            let body = serde_json::to_string(&MutationRequest {
                deltas: vec![stream.next()],
            })
            .expect("a request encodes");
            let response = client
                .post_json("/v1/mutations", &body)
                .expect("mutation transport");
            assert_eq!(
                response.status, 200,
                "{context}, step {step}: {}",
                response.body
            );
        }
        drop(client);
        server.shutdown();
        let coordinator = server.join();
        assert_serves_the_reference(
            stream.reference(),
            &Engine::coordinator(&coordinator),
            None,
            context,
        );
    });
}

#[test]
fn row_drop_folder_ingest() {
    let mut coverage = Coverage::default();
    for prune in [true, false] {
        for seed in 0..STREAMS {
            let context = format!("ingest, seed {seed}, pruning {prune}");
            let dir = test_dir(&dir_name(&context));
            let mut config = IngestConfig::new(&dir);
            // The journal stays out of the folder, so `load_dir` reads
            // exactly the generation.
            config.journal_path = dir.with_extension("journal");
            let (_, coordinator) = serve_sharded(MutableLake::new(), served(prune), 1);
            let coordinator = Arc::new(Mutex::new(coordinator));
            let mut ingester = Ingester::new(
                config,
                CoordinatorSink::new(Arc::clone(&coordinator)),
                Arc::new(IngestStats::default()),
            )
            .expect("an ingester over an empty folder");
            let mut drift = DriftStream::new(DriftConfig {
                seed,
                tables: 4,
                rows_per_table: 20,
                drifters: 2,
                churn_per_generation: 2,
            });
            let mut rng = StdRng::seed_from_u64(0x16E57 + seed);
            for generation in 0..GENERATIONS {
                let context = format!("{context}, generation {generation}");
                drift
                    .write_next_generation(&dir)
                    .expect("write a generation");
                if generation > 0 && rng.gen_bool(0.4) {
                    // Withdrawn for one generation: the next one writes
                    // the file again, and the table comes back.
                    let table = drift.live_tables().choose(&mut rng).expect("a live table");
                    std::fs::remove_file(dir.join(format!("{}.csv", table.name())))
                        .expect("withdraw a file");
                }
                // Two polls at least: a fresh file waits one out.
                let caught_up = (0..20).any(|_| {
                    let report = ingester.poll_once().expect("a poll");
                    report.caught_up && !ingester.has_pending()
                });
                assert!(caught_up, "{context}: caught up within 20 polls");
                let folder = load_dir(
                    &dir,
                    LoadOptions {
                        strict: true,
                        ..LoadOptions::default()
                    },
                )
                .expect("the folder loads");
                if generation == 0 {
                    coverage.begin(&folder, prune);
                } else {
                    coverage.step(&folder);
                }
                let engine = Engine::coordinator(&coordinator.lock().unwrap());
                assert_serves_the_reference(Reference::Loaded(&folder), &engine, None, &context);
            }
            drop(ingester);
            std::fs::remove_dir_all(&dir).expect("cleanup");
            std::fs::remove_file(dir.with_extension("journal")).expect("cleanup");
        }
    }
    coverage.assert_exercised("ingest");
}

#[test]
fn row_sharded_1_2_4() {
    for shards in [1, 2, 4] {
        run_row(
            &format!("sharded at {shards} shards"),
            |context, prune, base, stream| {
                let (_, mut coordinator) = serve_sharded(base, served(prune), shards);
                for step in 0..DELTAS {
                    coordinator.stage(stream.next());
                    coordinator.commit().expect("a batch commits");
                    coordinator.publish();
                    assert_serves_the_reference(
                        stream.reference(),
                        &Engine::coordinator(&coordinator),
                        None,
                        &format!("{context}, step {step}"),
                    );
                }
            },
        );
    }
}
