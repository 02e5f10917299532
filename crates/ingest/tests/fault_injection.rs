//! Fault injection for the exactly-once pipeline: a killed-and-restarted
//! ingester must resume from its journal to the lake of an uninterrupted
//! run (bit-identical scores once both are rebuilt on one node layout),
//! and a redelivered batch must be a no-op.
//!
//! The kill is simulated at the worst seeded point — *mid-delivery*, after
//! the sink applied a batch but before the ingester could commit it (the
//! window between the journal's pending-intent save and the commit save).
//! [`CrashAfterApply`] injects exactly that: it lets the inner
//! [`CoordinatorSink`] apply the batch, then reports a transient failure
//! and, crucially, does *not* claim `transient_means_unapplied`, so the
//! ingester must treat the batch as possibly applied. Dropping the
//! `Ingester` then plays the part of `kill -9`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dn_ingest::{
    CoordinatorSink, DeltaSink, IngestConfig, IngestError, IngestStats, Ingester, SinkError,
};
use dn_service::{serve_sharded, Coordinator, CoordinatorHandle, ServiceConfig};
use domainnet::Measure;
use lake::delta::MutableLake;
use lake::{LakeDelta, Table};

fn service_config() -> ServiceConfig {
    ServiceConfig {
        measures: vec![Measure::lcc(), Measure::exact_bc()],
        prune_single_attribute_values: true,
        threads: 1,
    }
}

fn fresh_engine() -> (CoordinatorHandle, Arc<Mutex<Coordinator>>) {
    let (handle, coordinator) = serve_sharded(MutableLake::new(), service_config(), 1);
    (handle, Arc::new(Mutex::new(coordinator)))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dn_ingest_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingest_config(dir: &Path) -> IngestConfig {
    let mut config = IngestConfig::new(dir);
    // Keep the journal out of the drop-folder so cold rebuilds via
    // load_dir see exactly the CSV generation and nothing else.
    config.journal_path = dir.with_extension("journal");
    config.poll_interval = Duration::from_millis(1);
    config.max_attempts = 1; // injected transients surface immediately
    config.backoff = Duration::from_millis(1);
    config
}

/// Poll until a cycle reports fully caught up (two polls minimum: the
/// stability guard withholds a fresh file for one cycle).
fn drain<S: DeltaSink>(ingester: &mut Ingester<S>) {
    for _ in 0..20 {
        let report = ingester.poll_once().expect("drain poll");
        if report.caught_up && !ingester.has_pending() {
            return;
        }
    }
    panic!("ingester did not catch up within 20 polls");
}

/// Full ranking as value -> score bits; large k so ties can't truncate
/// differently between runs.
fn ranking(handle: &CoordinatorHandle) -> BTreeMap<String, u64> {
    let reader = handle.reader();
    let top = reader
        .top_k(Measure::exact_bc(), 10_000)
        .expect("bc ranking");
    top.iter()
        .map(|s| (s.value.clone(), s.score.to_bits()))
        .collect()
}

/// Applies through the inner sink, then fails "transiently" on chosen
/// delivery sequence numbers — exactly once each — without admitting the
/// batch went through. This is the HTTP ambiguity (timed-out POST that
/// landed) reproduced in-process.
struct CrashAfterApply<S> {
    inner: S,
    crash_on: Vec<u64>,
}

impl<S: DeltaSink> DeltaSink for CrashAfterApply<S> {
    fn deliver(&mut self, seq: u64, deltas: &[LakeDelta]) -> Result<(), SinkError> {
        self.inner.deliver(seq, deltas)?;
        if let Some(at) = self.crash_on.iter().position(|&s| s == seq) {
            self.crash_on.remove(at);
            return Err(SinkError::Transient("injected crash after apply".into()));
        }
        Ok(())
    }

    fn transient_means_unapplied(&self) -> bool {
        false
    }
}

/// The drift seed of the backlog and redelivery tests.
const DRIFT_SEED: u64 = 7;

fn drift_stream(seed: u64) -> datagen::DriftStream {
    datagen::DriftStream::new(datagen::DriftConfig {
        seed,
        tables: 4,
        rows_per_table: 20,
        drifters: 2,
        churn_per_generation: 2,
    })
}

/// The engine's live tables, in name order, built into a fresh engine.
/// Engines holding the same lake get one node layout this way, whatever
/// delta history laid out their own graphs, so their rankings agree bit
/// for bit.
fn rebuilt_ranking(coordinator: &Arc<Mutex<Coordinator>>) -> BTreeMap<String, u64> {
    let mut tables: Vec<Table> = {
        let guard = coordinator.lock().expect("coordinator lock");
        guard.shard(0).lake().tables().collect()
    };
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    let lake = MutableLake::from_tables(tables).expect("rebuild the live tables");
    let (handle, _coordinator) = serve_sharded(lake, service_config(), 1);
    ranking(&handle)
}

/// Run the full six-generation drift sequence uninterrupted and return the
/// final ranking and the engine.
fn uninterrupted_run(dir: &Path, seed: u64) -> (BTreeMap<String, u64>, Arc<Mutex<Coordinator>>) {
    let (handle, coordinator) = fresh_engine();
    let mut stream = drift_stream(seed);
    let mut ingester = Ingester::new(
        ingest_config(dir),
        CoordinatorSink::new(Arc::clone(&coordinator)),
        Arc::new(IngestStats::default()),
    )
    .expect("uninterrupted ingester");
    for _ in 0..6 {
        stream.write_next_generation(dir).expect("write generation");
        drain(&mut ingester);
    }
    (ranking(&handle), coordinator)
}

/// Assert every value matches within `1e-9` and the value sets are equal.
fn assert_rankings_close(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, what: &str) {
    let keys_a: Vec<&String> = a.keys().collect();
    let keys_b: Vec<&String> = b.keys().collect();
    assert_eq!(keys_a, keys_b, "{what}: ranked value sets differ");
    for (value, bits) in a {
        let x = f64::from_bits(*bits);
        let y = f64::from_bits(b[value]);
        assert!((x - y).abs() <= 1e-9, "{what}: {value}: {x} vs {y}");
    }
}

/// Cold-build the folder's final contents into a fresh engine and return
/// its ranking.
fn cold_ranking(dir: &Path) -> BTreeMap<String, u64> {
    let catalog = lake::loader::load_dir(
        dir,
        lake::loader::LoadOptions {
            strict: true,
            ..lake::loader::LoadOptions::default()
        },
    )
    .expect("cold load");
    let (handle, _coordinator) =
        serve_sharded(MutableLake::from_catalog(&catalog), service_config(), 1);
    ranking(&handle)
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(dir.with_extension("journal"));
}

/// Kill the running ingester mid-delivery of the folder's next batch:
/// installs a [`CrashAfterApply`] ingester, polls until the injected crash
/// fires, and "kills" it by dropping it with the pending intent journaled.
fn kill_mid_delivery(dir: &Path, coordinator: &Arc<Mutex<Coordinator>>, seq: u64) {
    let mut victim = Ingester::new(
        ingest_config(dir),
        CrashAfterApply {
            inner: CoordinatorSink::new(Arc::clone(coordinator)),
            crash_on: vec![seq],
        },
        Arc::new(IngestStats::default()),
    )
    .expect("victim ingester");
    let err = loop {
        match victim.poll_once() {
            Ok(report) => assert!(!report.caught_up, "crash never fired"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            err,
            IngestError::Io { .. } | IngestError::SinkExhausted { .. }
        ),
        "injected crash is transient: {err}"
    );
    assert!(victim.has_pending(), "the batch intent survives the kill");
    // Dropping with a journaled pending batch == kill -9 mid-delivery.
}

/// Runs drift seeds 1, 4 and 5, where the two live engines' scores differ
/// in their last bits under per-node Brandes, and 7, where they differ
/// under the twin quotient: the bit-for-bit check holds on one layout on
/// every seed, not by luck on one.
#[test]
fn killed_and_restarted_ingester_matches_uninterrupted_run() {
    for seed in [1, 4, 5, 7] {
        killed_and_restarted_run_matches(seed);
    }
}

fn killed_and_restarted_run_matches(seed: u64) {
    let dir_a = scratch(&format!("uninterrupted_{seed}"));
    let dir_b = scratch(&format!("killed_{seed}"));
    let (ranking_a, coordinator_a) = uninterrupted_run(&dir_a, seed);
    assert!(!ranking_a.is_empty(), "seed {seed}: run A ranked something");

    // Run B: the identical generation sequence, but the ingester is killed
    // mid-delivery at generations 2 and 4 — after the sink applied the
    // batch, before the commit reached the journal — and restarted from
    // the journal each time. The journal-driven resume redelivers the same
    // pending batch (a no-op against the already-applied state), so B ends
    // in A's lake.
    let (handle_b, coordinator_b) = fresh_engine();
    let mut stream_b = drift_stream(seed);
    let mut seq = 0;
    for generation in 0..6 {
        stream_b.write_next_generation(&dir_b).expect("write gen B");
        if generation == 2 || generation == 4 {
            kill_mid_delivery(&dir_b, &coordinator_b, seq + 1);
        }
        let mut ingester = Ingester::new(
            ingest_config(&dir_b),
            CoordinatorSink::new(Arc::clone(&coordinator_b)),
            Arc::new(IngestStats::default()),
        )
        .expect("ingester B");
        drain(&mut ingester);
        seq = ingester.last_seq();
    }

    // Same lake, bit for bit: rebuilt on one node layout, the two runs
    // must rank every value with identical score bits.
    assert_eq!(
        rebuilt_ranking(&coordinator_a),
        rebuilt_ranking(&coordinator_b),
        "seed {seed}: killed-and-restarted run diverged from the uninterrupted run"
    );

    // The live engines do not share a layout. Each of B's ingesters starts
    // after its generation is written, when the files no longer match the
    // journal, so it has no parsed base and ships every changed file as a
    // rewrite (remove + add) where A ships value replacements; a
    // redelivered rewrite commits again. Re-added tables take new attribute slots, so
    // B's graph ends with more (isolated) nodes than A's and Brandes sums
    // in another order. The served scores agree to 1e-9, as in the backlog
    // test below; the slack covers that layout, not drift.
    let ranking_b = ranking(&handle_b);
    let what = format!("seed {seed}: uninterrupted vs killed-and-restarted");
    assert_rankings_close(&ranking_a, &ranking_b, &what);

    // And the end state matches a cold build of the final folder to 1e-9.
    let what = format!("seed {seed}: cold vs incremental");
    assert_rankings_close(&cold_ranking(&dir_b), &ranking_b, &what);

    cleanup(&dir_a);
    cleanup(&dir_b);
}

#[test]
fn backlog_written_during_downtime_converges() {
    let dir_a = scratch("backlog_reference");
    let dir_b = scratch("backlog");
    let (ranking_a, _) = uninterrupted_run(&dir_a, DRIFT_SEED);

    // Run B: killed mid-delivery of generation 2, and generation 3 lands
    // while the ingester is down. On restart the journal resolves the
    // pending generation-2 batch, but the downtime overwrite cost the
    // differ its base for generation 3, so those files are re-ingested by
    // rewrite (remove + add). The re-added tables get new attribute slots,
    // so the two engines lay nodes out differently and sum in a different
    // order — the states agree to 1e-9 (the golden-measure gate), not
    // necessarily bit for bit. The slack covers that layout, not drift.
    let (handle_b, coordinator_b) = fresh_engine();
    let mut stream_b = drift_stream(DRIFT_SEED);
    let mut seq = 0;
    let mut written = 0;
    while written < 6 {
        stream_b.write_next_generation(&dir_b).expect("write gen B");
        written += 1;
        if written == 3 {
            // Kill mid-delivery of generation 2, then generation 3 arrives
            // while nobody is watching.
            kill_mid_delivery(&dir_b, &coordinator_b, seq + 1);
            stream_b.write_next_generation(&dir_b).expect("write gen 3");
            written += 1;
        }
        let mut ingester = Ingester::new(
            ingest_config(&dir_b),
            CoordinatorSink::new(Arc::clone(&coordinator_b)),
            Arc::new(IngestStats::default()),
        )
        .expect("ingester B");
        drain(&mut ingester);
        seq = ingester.last_seq();
    }

    let ranking_b = ranking(&handle_b);
    assert_rankings_close(&ranking_a, &ranking_b, "uninterrupted vs backlog");
    assert_rankings_close(&cold_ranking(&dir_b), &ranking_b, "cold vs backlog");

    cleanup(&dir_a);
    cleanup(&dir_b);
}

#[test]
fn redelivered_batch_is_a_noop() {
    let dir = scratch("redelivery");

    // Reference: one clean application of generation 0.
    let (ref_handle, ref_coordinator) = fresh_engine();
    let mut ref_stream = drift_stream(DRIFT_SEED);
    ref_stream.write_next_generation(&dir).expect("write gen 0");
    let mut reference = Ingester::new(
        ingest_config(&dir),
        CoordinatorSink::new(ref_coordinator),
        Arc::new(IngestStats::default()),
    )
    .expect("reference ingester");
    drain(&mut reference);
    let expected = ranking(&ref_handle);
    drop(reference);
    let _ = std::fs::remove_file(dir.with_extension("journal"));

    // Victim: the first delivery applies but reports a transient failure,
    // so the same batch is redelivered on the next poll.
    let (handle, coordinator) = fresh_engine();
    let stats = Arc::new(IngestStats::default());
    let mut ingester = Ingester::new(
        ingest_config(&dir),
        CrashAfterApply {
            inner: CoordinatorSink::new(coordinator),
            crash_on: vec![1],
        },
        Arc::clone(&stats),
    )
    .expect("victim ingester");
    let err = loop {
        match ingester.poll_once() {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            err,
            IngestError::Io { .. } | IngestError::SinkExhausted { .. }
        ),
        "{err}"
    );
    assert!(ingester.has_pending());
    assert_eq!(
        stats.batches_applied.get(),
        0,
        "not yet journaled as applied"
    );

    // Redelivery: the duplicate must change nothing and the journal must
    // count the batch exactly once.
    let report = ingester.poll_once().expect("redelivery poll");
    assert!(report.redelivered, "the pending batch was redelivered");
    assert!(!ingester.has_pending(), "redelivery resolved the intent");
    drain(&mut ingester);
    assert_eq!(
        stats.batches_applied.get(),
        1,
        "duplicate delivery must not double-count"
    );
    assert_eq!(
        ranking(&handle),
        expected,
        "duplicate delivery changed the served state"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("journal"));
}
