//! Fault injection for the exactly-once pipeline: a killed-and-restarted
//! ingester must resume from its journal to a final state bit-identical to
//! an uninterrupted run, and a redelivered batch must be a no-op.
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

use dn_ingest::{CoordinatorSink, DeltaSink, IngestConfig, IngestStats, Ingester, SinkError};
use dn_service::{serve_sharded, Coordinator, CoordinatorHandle, ServiceConfig};
use domainnet::Measure;
use lake::delta::MutableLake;
use lake::LakeDelta;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        measures: vec![Measure::lcc(), Measure::exact_bc()],
        cache_capacity: 8,
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

fn drift_stream() -> datagen::DriftStream {
    datagen::DriftStream::new(datagen::DriftConfig {
        seed: 7,
        tables: 4,
        rows_per_table: 20,
        drifters: 2,
        churn_per_generation: 2,
    })
}

/// Run the full six-generation drift sequence uninterrupted and return the
/// final ranking.
fn uninterrupted_run(dir: &Path) -> BTreeMap<String, u64> {
    let (handle, coordinator) = fresh_engine();
    let mut stream = drift_stream();
    let mut ingester = Ingester::new(
        ingest_config(dir),
        CoordinatorSink::new(coordinator),
        Arc::new(IngestStats::default()),
    )
    .expect("uninterrupted ingester");
    for _ in 0..6 {
        stream.write_next_generation(dir).expect("write generation");
        drain(&mut ingester);
    }
    ranking(&handle)
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
    assert!(err.is_transient(), "injected crash is transient: {err}");
    assert!(victim.has_pending(), "the batch intent survives the kill");
    // Dropping with a journaled pending batch == kill -9 mid-delivery.
}

#[test]
fn killed_and_restarted_ingester_matches_uninterrupted_run() {
    let dir_a = scratch("uninterrupted");
    let dir_b = scratch("killed");
    let ranking_a = uninterrupted_run(&dir_a);
    assert!(!ranking_a.is_empty(), "run A ranked something");

    // Run B: the identical generation sequence, but the ingester is killed
    // mid-delivery at generations 2 and 4 — after the sink applied the
    // batch, before the commit reached the journal — and restarted from
    // the journal each time. Because the journal-driven resume redelivers
    // the same pending batch (a no-op against the already-applied state)
    // and then diffs from the same re-parsed base, the delta sequence is
    // identical and the final state must match run A bit for bit.
    let (handle_b, coordinator_b) = fresh_engine();
    let mut stream_b = drift_stream();
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

    let ranking_b = ranking(&handle_b);
    assert_eq!(
        ranking_a, ranking_b,
        "killed-and-restarted run diverged from the uninterrupted run"
    );

    // And the end state matches a cold build of the final folder to 1e-9.
    assert_rankings_close(&cold_ranking(&dir_b), &ranking_b, "cold vs incremental");

    cleanup(&dir_a);
    cleanup(&dir_b);
}

#[test]
fn backlog_written_during_downtime_converges() {
    let dir_a = scratch("backlog_reference");
    let dir_b = scratch("backlog");
    let ranking_a = uninterrupted_run(&dir_a);

    // Run B: killed mid-delivery of generation 2, and generation 3 lands
    // while the ingester is down. On restart the journal resolves the
    // pending generation-2 batch, but the downtime overwrite cost the
    // differ its base for generation 3, so those files are re-ingested by
    // rewrite (remove + add). The re-added tables get new attribute slots,
    // so the two engines lay nodes out differently and sum in a different
    // order — the states agree to 1e-9 (the golden-measure gate), not
    // necessarily bit for bit. The slack covers that layout, not drift.
    let (handle_b, coordinator_b) = fresh_engine();
    let mut stream_b = drift_stream();
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
    let mut ref_stream = drift_stream();
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
    assert!(err.is_transient(), "{err}");
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
