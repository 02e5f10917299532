//! The phase vocabulary and its duration histograms.
//!
//! Every closed span also lands one observation in the histogram of its
//! [`Phase`], giving `/metrics` an aggregate per-phase latency view
//! (`dn_phase_duration_us{phase=...}`) that stays useful even when
//! individual traces have rotated out of the ring. Recording is a few
//! relaxed atomic increments; the histograms fill at the sampling rate (a
//! phase observed under 1-in-16 sampling represents roughly 16× its count
//! of real occurrences).

use std::sync::OnceLock;

use crate::metrics::{Exposition, Histogram, PHASE_DURATION};

/// The fixed vocabulary of instrumented phases across the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Router dispatch: method/path match through handler return.
    Route,
    /// Coordinator mutation commit: routing deltas + per-shard applies.
    CoordCommit,
    /// Coordinator read fan-out over the shard snapshots.
    CoordScatter,
    /// Coordinator k-way merge of per-shard ranked results.
    CoordMerge,
    /// One shard engine applying a delta batch (WAL append, lake apply,
    /// graph delta, ranking warm).
    ShardApply,
    /// One shard engine extracting + swapping in a published snapshot.
    ShardPublish,
    /// One shard snapshot answering a read probe.
    ShardQuery,
    /// `dn-pool` batch: exact/approx BC canonical chunk accumulation.
    PoolBcChunks,
    /// `dn-pool` batch: per-section snapshot encode.
    PoolSnapshotEncode,
    /// `dn-pool` batch: per-section snapshot decode.
    PoolSnapshotDecode,
    /// `dn-pool` batch: per-shard WAL replay during recovery.
    PoolWalReplay,
    /// One measure computed over the graph (BC, LCC, ...).
    MeasureCompute,
    /// Ingest cycle: scanning + fingerprinting the drop folder.
    IngestScan,
    /// Ingest cycle: diffing file generations into minimal deltas.
    IngestDiff,
    /// Ingest cycle: delivering a delta batch to the sink.
    IngestDeliver,
    /// Ingest cycle: committing the exactly-once resume journal.
    IngestJournal,
    /// One follower tail-and-verify pass against the primary.
    ReplicaSync,
}

/// All phases, in declaration order (pinned by
/// `phases_are_listed_in_declaration_order`), so `phase as usize` indexes
/// it and the histograms.
pub const PHASES: [Phase; 17] = [
    Phase::Route,
    Phase::CoordCommit,
    Phase::CoordScatter,
    Phase::CoordMerge,
    Phase::ShardApply,
    Phase::ShardPublish,
    Phase::ShardQuery,
    Phase::PoolBcChunks,
    Phase::PoolSnapshotEncode,
    Phase::PoolSnapshotDecode,
    Phase::PoolWalReplay,
    Phase::MeasureCompute,
    Phase::IngestScan,
    Phase::IngestDiff,
    Phase::IngestDeliver,
    Phase::IngestJournal,
    Phase::ReplicaSync,
];

impl Phase {
    /// The span name / metric label for this phase.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Route => "route",
            Phase::CoordCommit => "coord_commit",
            Phase::CoordScatter => "coord_scatter",
            Phase::CoordMerge => "coord_merge",
            Phase::ShardApply => "shard_apply",
            Phase::ShardPublish => "shard_publish",
            Phase::ShardQuery => "shard_query",
            Phase::PoolBcChunks => "pool_bc_chunks",
            Phase::PoolSnapshotEncode => "pool_snapshot_encode",
            Phase::PoolSnapshotDecode => "pool_snapshot_decode",
            Phase::PoolWalReplay => "pool_wal_replay",
            Phase::MeasureCompute => "measure_compute",
            Phase::IngestScan => "ingest_scan",
            Phase::IngestDiff => "ingest_diff",
            Phase::IngestDeliver => "ingest_deliver",
            Phase::IngestJournal => "ingest_journal",
            Phase::ReplicaSync => "replica_sync",
        }
    }
}

/// The process-wide phase histograms, indexed by `phase as usize`.
fn histograms() -> &'static [Histogram; PHASES.len()] {
    static HISTOGRAMS: OnceLock<[Histogram; PHASES.len()]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| std::array::from_fn(|_| Histogram::default()))
}

/// Record one phase observation. Called by the span machinery on close;
/// callable directly for timings measured without an active trace.
pub fn observe(phase: Phase, duration_us: u64) {
    histograms()[phase as usize].observe(duration_us);
}

/// Write every observed phase's histogram.
pub(crate) fn export_metrics(w: &mut Exposition) {
    for (phase, histogram) in PHASES.iter().zip(histograms()) {
        w.histogram(&PHASE_DURATION, &[phase.label()], histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_listed_in_declaration_order() {
        for (i, phase) in PHASES.into_iter().enumerate() {
            assert_eq!(phase as usize, i, "{phase:?}");
        }
    }

    #[test]
    fn phase_labels_are_unique() {
        let labels: std::collections::HashSet<&str> = PHASES.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PHASES.len());
    }

    #[test]
    fn observations_land_in_their_phase() {
        // Other tests in this binary close spans; only lower bounds hold.
        observe(Phase::PoolWalReplay, 40);
        observe(Phase::PoolWalReplay, 1_000_000);
        assert!(histograms()[Phase::PoolWalReplay as usize].count() >= 2);
        let mut w = Exposition::default();
        export_metrics(&mut w);
        let text = w.finish();
        assert!(text.contains("dn_phase_duration_us_count{phase=\"pool_wal_replay\"} "));
        assert!(!text.contains("phase=\"replica_sync\""), "unobserved phase");
    }
}
