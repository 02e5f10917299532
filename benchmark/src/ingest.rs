//! `ingest_restart`: drop-folder ingest into a durable two-shard coordinator,
//! in-process, one caller, with a kill and recovery every few generations.
//!
//! `ingest` (fingerprint scan, diff, journal), `store` (snapshot codec, WAL
//! scan and replay) and recovery do most of the work; there is no HTTP at
//! all. It is the bypass workload for server optimisations and the exercise
//! workload for codec, WAL and journal ones.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datagen::{DriftConfig, DriftStream};
use dn_ingest::{
    diff_tables, fingerprint_file, CoordinatorSink, IngestConfig, IngestStats, Ingester, Journal,
    PollReport,
};
use dn_service::{
    serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Coordinator, CoordinatorHandle,
};
use dn_store::Store;
use lake::delta::MutableLake;
use lake::{LakeDelta, Table};

use crate::inputs::{dir_bytes, Scratch};
use crate::layers::{compare_rankings, fresh_rankings, strict, timed};
use crate::serve::service_config;
use crate::spans::{aggregate, mean_of, residual_pct, Recorder};
use crate::stats::{mean, median, Fnv};
use crate::{Outcome, RunArgs, COMPUTE_THREADS, FIRST_MEASURED_OP, SHARDS};

/// The drop-folder: `TABLES` tables of `ROWS_PER_TABLE` rows, `DRIFTERS`
/// drifting values and `CHURN_PER_GENERATION` ordinary value rewrites per
/// generation.
pub const TABLES: usize = 24;
pub const ROWS_PER_TABLE: usize = 400;
pub const DRIFTERS: usize = 3;
pub const CHURN_PER_GENERATION: usize = 8;
/// Measured generations per second of `--seconds` (a multiple of
/// `RECOVER_EVERY` per second keeps recoveries proportional).
pub const GENERATIONS_PER_S: usize = 3;
/// The coordinator and the ingester are killed after every this many
/// generations.
pub const RECOVER_EVERY: usize = 6;
/// Set-ups per run; `setup_s` is their median and the last one is kept.
pub const SETUP_REPS: usize = 5;
/// Polls a generation may take before it counts as failed.
const MAX_POLLS: usize = 50;

type Shared = Arc<Mutex<Coordinator>>;

struct Engine {
    handle: CoordinatorHandle,
    coordinator: Shared,
    ingester: Ingester<CoordinatorSink>,
}

fn ingest_config(watch_dir: &Path, data_dir: &Path) -> IngestConfig {
    let mut config = IngestConfig::new(watch_dir);
    config.journal_path = data_dir.join("ingest.journal");
    config
}

fn attach(
    handle: CoordinatorHandle,
    coordinator: Coordinator,
    watch_dir: &Path,
    data_dir: &Path,
    stats: &Arc<IngestStats>,
) -> Engine {
    let coordinator = Arc::new(Mutex::new(coordinator));
    let ingester = Ingester::new(
        ingest_config(watch_dir, data_dir),
        CoordinatorSink::new(Arc::clone(&coordinator)),
        Arc::clone(stats),
    )
    .expect("ingester starts");
    Engine {
        handle,
        coordinator,
        ingester,
    }
}

/// Poll until the folder and the journal agree. `None` when a poll fails or
/// the ingester does not catch up.
fn drain(
    rec: &mut Recorder,
    ingester: &mut Ingester<CoordinatorSink>,
    op: u64,
) -> Option<PollReport> {
    let mut total = PollReport::default();
    for _ in 0..MAX_POLLS {
        let report = rec
            .leaf("ingest.poll_once", op, || ingester.poll_once())
            .ok()?;
        total.ops_delivered += report.ops_delivered;
        total.batches_delivered += report.batches_delivered;
        total.changed_files += report.changed_files;
        if report.caught_up && !ingester.has_pending() {
            total.caught_up = true;
            return Some(total);
        }
    }
    None
}

/// The drift stream is part of the frozen shape (`--shape-seed`): which
/// shard a rewrite lands on, and so how long the WAL suffix of the next
/// recovery is, follows the stream's coin flips — recovery time differs 2×
/// between stream seeds. This workload therefore draws nothing from `--seed`.
fn drift(shape_seed: u64) -> DriftStream {
    DriftStream::new(DriftConfig {
        seed: shape_seed,
        tables: TABLES,
        rows_per_table: ROWS_PER_TABLE,
        drifters: DRIFTERS,
        churn_per_generation: CHURN_PER_GENERATION,
    })
}

fn digest_tables(tables: &[Table], digest: &mut Fnv) {
    for table in tables {
        digest.feed(table.name().as_bytes());
        for column in table.columns() {
            digest.feed(column.name().as_bytes());
            for cell in column.cells() {
                digest.feed(cell.as_bytes());
            }
        }
    }
}

fn same_cells(a: &Table, b: &Table) -> bool {
    a.column_count() == b.column_count()
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|(x, y)| x.name() == y.name() && x.cells() == y.cells())
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read copy source").flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy store file");
        }
    }
}

/// The layer twin of one generation: what the ingester does between two
/// stable polls, one public function at a time, against a twin coordinator.
struct Twin {
    coordinator: Coordinator,
    lake: MutableLake,
    journal: Journal,
    previous: Vec<Table>,
}

impl Twin {
    fn generation(
        &mut self,
        rec: &mut Recorder,
        engine: &mut Engine,
        watch_dir: &Path,
        data_dir: &Path,
        current: &[Table],
        op: u64,
    ) {
        let deltas = rec.scope("op.generation_layers", op, |rec| {
            // A poll of the now-unchanged folder is the scan floor; the real
            // generation pays it twice (the two-poll stability guard).
            for _ in 0..2 {
                rec.leaf("ingest.scan", op, || engine.ingester.poll_once())
                    .expect("idle poll");
            }
            // Every file was rewritten, so the first poll re-checksums all.
            for table in current {
                let path = watch_dir.join(format!("{}.csv", table.name()));
                rec.leaf("ingest.fingerprint", op, || fingerprint_file(&path))
                    .expect("fingerprint CSV");
            }
            let mut deltas: Vec<LakeDelta> = Vec::new();
            for old in &self.previous {
                if !current.iter().any(|t| t.name() == old.name()) {
                    deltas.push(LakeDelta::new().remove_table(old.name()));
                }
            }
            for new in current {
                match self.previous.iter().find(|t| t.name() == new.name()) {
                    Some(old) if same_cells(old, new) => {}
                    Some(old) => {
                        let path = watch_dir.join(format!("{}.csv", new.name()));
                        rec.leaf("lake.load_table", op, || {
                            lake::loader::load_table(&path, strict())
                        })
                        .expect("parse changed CSV");
                        let diff = rec.leaf("ingest.diff_tables", op, || diff_tables(old, new));
                        if !diff.delta.is_empty() {
                            deltas.push(diff.delta);
                        }
                    }
                    None => deltas.push(LakeDelta::new().add_table(new.clone())),
                }
            }
            let config = ingest_config(watch_dir, data_dir);
            let state = Journal::new(&config.journal_path)
                .load()
                .expect("journal loads")
                .expect("journal exists");
            for batch in deltas.chunks(config.max_deltas_per_batch) {
                rec.leaf("ingest.journal_save", op, || self.journal.save(&state))
                    .expect("twin journal intent");
                for delta in batch {
                    self.coordinator.stage(delta.clone());
                }
                rec.leaf("service.commit", op, || self.coordinator.commit())
                    .expect("twin commit");
                rec.leaf("service.publish", op, || self.coordinator.publish());
                rec.leaf("ingest.journal_save", op, || self.journal.save(&state))
                    .expect("twin journal commit");
            }
            rec.leaf("ingest.journal_save", op, || self.journal.save(&state))
                .expect("twin journal refresh");
            deltas
        });
        // The lake's share of those commits, on a lake of the twin's own.
        for delta in &deltas {
            rec.leaf("lake.apply_batch", op, || self.lake.apply_batch([delta]))
                .expect("twin apply_batch");
        }
        self.previous = current.to_vec();
    }
}

/// What the layer twins of the recoveries add up to.
#[derive(Default)]
struct RecoveryTwin {
    /// Per recovery, `Store::recover_threaded` of the slower shard: the
    /// shards recover side by side, so that one sets the time.
    slowest_shard_ms: Vec<f64>,
    /// `recover_threaded` minus `decode_snapshot_threaded`, over all shards.
    replay_ns: u64,
    replayed_batches: usize,
}

impl RecoveryTwin {
    /// The layer twin of one recovery, on a copy of the killed data directory.
    fn recovery(&mut self, rec: &mut Recorder, copy: &Path, op: u64) {
        rec.scope("op.recover_layers", op, |rec| {
            let mut slowest_s = 0.0f64;
            for shard in 0..SHARDS {
                let dir = dn_store::shard_dir(copy, shard);
                let mut decode_s = 0.0;
                if let Some((_, newest)) = dn_store::list_snapshots(&dir)
                    .expect("list snapshots")
                    .into_iter()
                    .next()
                {
                    let bytes = std::fs::read(&newest).expect("read snapshot");
                    let (decoded, seconds) = timed(|| {
                        rec.leaf("store.decode_snapshot", op, || {
                            dn_store::snapshot::decode_snapshot_threaded(&bytes, COMPUTE_THREADS)
                        })
                    });
                    decoded.expect("snapshot decodes");
                    decode_s = seconds;
                }
                let (recovered, recover_s) = timed(|| {
                    rec.leaf("store.recover", op, || {
                        Store::recover_threaded(&dir, COMPUTE_THREADS)
                    })
                });
                let (_, recovered) = recovered.expect("shard store recovers");
                slowest_s = slowest_s.max(recover_s);
                self.replay_ns += ((recover_s - decode_s).max(0.0) * 1e9) as u64;
                self.replayed_batches += recovered.replayed_batches;
            }
            self.slowest_shard_ms.push(slowest_s * 1e3);
        });
    }
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let scratch = Scratch::new("ingest_restart");
    let stats = Arc::new(IngestStats::new());
    let mut out = Outcome::default();

    // Set-up: a fresh store and the ingest of generation 0, several times
    // over; the last one is the engine the run measures.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Engine, DriftStream, PathBuf, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let watch_dir = scratch.path(&format!("folder-{rep}"));
        let data_dir = scratch.path(&format!("data-{rep}"));
        let mut stream = drift(args.shape_seed);
        stream
            .write_next_generation(&watch_dir)
            .expect("write generation 0");
        let (engine, seconds) = timed(|| {
            rec.scope("op.stand_up", rep as u64, |rec| {
                let (handle, coordinator) =
                    rec.leaf("service.serve_sharded_durable", rep as u64, || {
                        serve_sharded_durable(
                            MutableLake::new(),
                            service_config(),
                            &data_dir,
                            CheckpointPolicy::default(),
                            SHARDS,
                        )
                        .expect("fresh data directory")
                    });
                let mut engine = attach(handle, coordinator, &watch_dir, &data_dir, &stats);
                drain(rec, &mut engine.ingester, rep as u64).expect("generation 0 ingests");
                engine
            })
        });
        setup_s.push(seconds);
        kept = Some((engine, stream, watch_dir, data_dir));
    }
    let (mut engine, mut stream, watch_dir, data_dir) = kept.expect("at least one set-up");
    out.setup_s = median(&setup_s).expect("at least one set-up");

    let mut recoveries = RecoveryTwin::default();
    let mut twin = rec.enabled().then(|| {
        let (_, mut coordinator) = serve_sharded_durable(
            MutableLake::new(),
            service_config(),
            scratch.path("twin-data"),
            CheckpointPolicy::default(),
            SHARDS,
        )
        .expect("fresh twin data directory");
        let mut lake = MutableLake::new();
        for table in stream.live_tables() {
            let delta = LakeDelta::new().add_table(table.clone());
            lake.apply(&delta).expect("twin lake takes generation 0");
            coordinator.stage(delta);
        }
        coordinator.commit().expect("twin ingests generation 0");
        coordinator.publish();
        Twin {
            coordinator,
            lake,
            journal: Journal::new(scratch.path("twin.journal")),
            previous: stream.live_tables().to_vec(),
        }
    });

    let generations = GENERATIONS_PER_S * args.seconds as usize;
    let mut generation_ms = Vec::with_capacity(generations);
    let mut recover_ms = Vec::with_capacity(generations / RECOVER_EVERY);
    let mut ops_delivered = 0usize;
    let mut digest = Fnv::default();
    let mut measured_s = 0.0;
    for generation in 1..=generations {
        let op = FIRST_MEASURED_OP + generation as u64;
        stream
            .write_next_generation(&watch_dir)
            .expect("write generation");
        digest_tables(stream.live_tables(), &mut digest);
        let start = Instant::now();
        let drained = rec.scope("op.generation", op, |rec| {
            drain(rec, &mut engine.ingester, op)
        });
        let elapsed = start.elapsed().as_secs_f64();
        measured_s += elapsed;
        out.attempted += 1;
        match drained {
            Some(report) => {
                generation_ms.push(elapsed * 1e3);
                ops_delivered += report.ops_delivered;
            }
            None => out.failed += 1,
        }
        if let Some(twin) = twin.as_mut() {
            twin.generation(
                rec,
                &mut engine,
                &watch_dir,
                &data_dir,
                stream.live_tables(),
                op,
            );
        }

        if generation % RECOVER_EVERY == 0 {
            // Kill: drop the ingester and the coordinator, no final checkpoint.
            let Engine {
                ingester,
                coordinator,
                handle,
            } = engine;
            drop(ingester);
            drop(coordinator);
            drop(handle);
            let copy = scratch.path("killed-copy");
            if rec.enabled() {
                copy_dir(&data_dir, &copy);
            }
            let start = Instant::now();
            let recovered = rec.scope("op.recover", op, |rec| {
                let (handle, coordinator) = rec
                    .leaf("service.serve_sharded_from_dir", op, || {
                        serve_sharded_from_dir(
                            &data_dir,
                            service_config(),
                            CheckpointPolicy::default(),
                        )
                    })
                    .map_err(|e| format!("recovery failed: {e}"))?;
                Ok::<Engine, String>(rec.leaf("ingest.new", op, || {
                    attach(handle, coordinator, &watch_dir, &data_dir, &stats)
                }))
            });
            let elapsed = start.elapsed().as_secs_f64();
            measured_s += elapsed;
            recover_ms.push(elapsed * 1e3);
            out.attempted += 1;
            engine = recovered?;
            if rec.enabled() {
                recoveries.recovery(rec, &copy, op);
                let _ = std::fs::remove_dir_all(&copy);
            }
        }
    }
    out.wall_s = measured_s;
    // Means, on purpose: both sequences are deterministic and multimodal
    // (every third generation adds a table; a recovery replays whatever WAL
    // suffix its shards hold), so a median would sit on a mode boundary.
    out.primary_op_ms = mean(&generation_ms).unwrap_or(0.0);
    out.secondary_op_ms = mean(&recover_ms).unwrap_or(0.0);
    out.digest = digest.value();
    out.requests = out.attempted;
    out.note(format!(
        "{generations} generations over {TABLES} tables x {ROWS_PER_TABLE} rows: {ops_delivered} ops delivered, {} recoveries",
        recover_ms.len()
    ));

    // Correctness gate, untimed: what is served equals a from-scratch build
    // of the final folder.
    let catalog = lake::loader::load_dir(&watch_dir, strict()).map_err(|e| e.to_string())?;
    let reader = engine.handle.reader();
    for (measure, fresh) in fresh_rankings(&catalog) {
        let served = reader
            .top_k(measure, usize::MAX)
            .ok_or_else(|| format!("{} is not served", measure.name()))?;
        compare_rankings(measure.name(), &served, &fresh)?;
    }
    drop(engine);
    let csv_bytes = dir_bytes(&watch_dir);
    // The store's bytes repeat exactly; the ingester's journal beside them
    // records file mtimes as decimal text and does not.
    let journal_bytes = std::fs::metadata(ingest_config(&watch_dir, &data_dir).journal_path)
        .map_or(0, |meta| meta.len());
    let data_bytes = dir_bytes(&data_dir) - journal_bytes;
    out.exact_counts = vec![
        ("store_bytes", data_bytes),
        ("csv_bytes", csv_bytes),
        ("ops_delivered", ops_delivered as u64),
    ];
    out.note(format!(
        "store: {data_bytes} bytes in the data directory without the journal, {:.3} per CSV byte",
        data_bytes as f64 / csv_bytes as f64
    ));

    if rec.enabled() {
        drop(twin);
        let by_name = aggregate(rec.spans());
        let total = |name: &str| by_name.get(name).map_or(0, |a| a.total_ns);
        // A generation's layers: scan, diff (with the fingerprint and the
        // parse of each changed file), deliver (the coordinator's commit and
        // publish) and the journal.
        let layer_sum = total("ingest.scan")
            + total("ingest.fingerprint")
            + total("lake.load_table")
            + total("ingest.diff_tables")
            + total("service.commit")
            + total("service.publish")
            + total("ingest.journal_save");
        let diffs = by_name.get("ingest.diff_tables").map_or(0, |a| a.count);
        let layers = &mut out.layers;
        layers.set(
            "lake.apply_batch_us",
            mean_of(&by_name, "lake.apply_batch", 1e3),
        );
        layers.set("ingest.scan_ms", mean_of(&by_name, "ingest.scan", 1e6));
        layers.set(
            "ingest.diff_ms",
            mean_of(&by_name, "ingest.diff_tables", 1e6),
        );
        layers.set(
            "ingest.rows_diffed_per_s",
            (diffs as usize * ROWS_PER_TABLE) as f64
                / (total("ingest.diff_tables") as f64 / 1e9).max(1e-9),
        );
        layers.set(
            "ingest.ops_per_generation",
            ops_delivered as f64 / generations as f64,
        );
        layers.set(
            "ingest.journal_save_us",
            mean_of(&by_name, "ingest.journal_save", 1e3),
        );
        layers.set(
            "ingest.gen_residual_pct",
            residual_pct(total("op.generation"), layer_sum),
        );
        layers.set(
            "store.snapshot_decode_ms",
            mean_of(&by_name, "store.decode_snapshot", 1e6),
        );
        layers.set(
            "store.wal_replay_ms_per_batch",
            recoveries.replay_ns as f64 / 1e6 / recoveries.replayed_batches.max(1) as f64,
        );
        layers.set(
            "store.recover_ms",
            mean(&recoveries.slowest_shard_ms).unwrap_or(0.0),
        );
        layers.set(
            "store.bytes_per_csv_byte",
            data_bytes as f64 / csv_bytes as f64,
        );
        layers.set(
            "service.recover_s",
            mean_of(&by_name, "service.serve_sharded_from_dir", 1e9),
        );
    }
    Ok(out)
}
