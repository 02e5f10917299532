//! Shared ingest counters and gauges.
//!
//! An [`IngestStats`] lives behind an `Arc` so the ingest loop (which
//! writes the instruments) and the metrics endpoint (which exports them)
//! share it without locking. Everything is a relaxed atomic: these are
//! observability numbers, not synchronization.

use dn_trace::metrics::{
    Counter, Exposition, Gauge, INGEST_BATCHES_APPLIED, INGEST_FILES_SEEN, INGEST_LAG_SECONDS,
    INGEST_RETRIES, INGEST_ROWS_DIFFED, INGEST_TORN_FILES,
};

/// Live instruments of one ingester, exported as `dn_ingest_*` through the
/// server's /metrics endpoint.
#[derive(Debug, Default)]
pub struct IngestStats {
    /// Drop-folder files scanned, cumulative across polls.
    pub files_seen: Counter,
    /// Batches durably applied (journal committed after delivery).
    pub batches_applied: Counter,
    /// Rows compared or loaded while synthesizing deltas.
    pub rows_diffed: Counter,
    /// Transient delivery failures that were retried.
    pub retries: Counter,
    /// Files skipped because they failed to parse (retried next poll).
    pub torn_files: Counter,
    /// Completed poll cycles.
    pub polls: Counter,
    /// Age in milliseconds of the oldest observed-but-unapplied change
    /// (0 when fully caught up); exported in seconds.
    pub lag_millis: Gauge,
}

impl IngestStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the `dn_ingest_*` families.
    pub fn export_metrics(&self, w: &mut Exposition) {
        w.value(&INGEST_FILES_SEEN, &[], self.files_seen.get());
        w.value(&INGEST_BATCHES_APPLIED, &[], self.batches_applied.get());
        w.value(&INGEST_ROWS_DIFFED, &[], self.rows_diffed.get());
        w.value(&INGEST_RETRIES, &[], self.retries.get());
        w.value(&INGEST_TORN_FILES, &[], self.torn_files.get());
        let lag_seconds = self.lag_millis.get() as f64 / 1000.0;
        w.value(&INGEST_LAG_SECONDS, &[], format_args!("{lag_seconds:.3}"));
    }
}
