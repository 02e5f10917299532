//! Read-replica follower engine: bootstrap, WAL tailing, and the
//! divergence-insurance layer.
//!
//! A primary's per-shard delta WAL (PR 4) is a complete, checksummed
//! change stream, and the sharded store (PR 6) gives every shard its own
//! log. This module ships those logs to followers:
//!
//! 1. **Bootstrap** — [`Follower::bootstrap`] fetches every shard's newest
//!    snapshot from the primary and installs it into a local sharded store
//!    ([`dn_store::install_snapshot`]); a follower restarted over an
//!    existing directory recovers locally instead and resumes tailing from
//!    its own last sequence number.
//! 2. **Tail** — [`Follower::sync_once`] asks the source for each shard's
//!    WAL suffix after the follower's local position and applies it through
//!    [`Coordinator::apply_replicated`]
//!    — the same incremental path crash recovery replays, so a follower is
//!    state-identical to a primary that recovered from the same log. When
//!    the primary has checkpointed past the follower's position
//!    ([`dn_store::WalTail::SnapshotRequired`]), the shard re-bootstraps
//!    from a fresh snapshot.
//! 3. **Insure** — after catching up, the follower compares an
//!    epoch-tagged [`snapshot_digest`] per shard against the primary's.
//!    Digests are compared **only at equal epochs** (lag is not
//!    divergence); a mismatch at the same epoch means the replica's
//!    observable state — identity counts, edges, every ranking entry down
//!    to raw score bits — differs from the primary's, and the follower
//!    **halts**: [`ReplicaShared::halted`] latches the reason,
//!    `dn_replica_divergence_total` increments, and the serving layer
//!    refuses reads rather than serving wrong rankings.
//!
//! The [`ReplicaSource`] trait abstracts the transport: the server crate
//! implements it over HTTP, and the test suites implement it in-process
//! (and inject faults) without sockets.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dn_store::Digest64;
use dn_trace::metrics::{Counter, Exposition, Gauge, REPLICA_DIVERGENCE, REPLICA_LAG_EPOCHS};
use lake::delta::LakeDelta;

use crate::coordinator::{recover_shards_lenient, Coordinator, CoordinatorHandle};
use crate::engine::{CheckpointPolicy, ServiceConfig, ServiceError, Writer};
use crate::snapshot::Snapshot;

/// Fold one published shard snapshot into a 64-bit state digest.
///
/// The digest covers everything a reader can observe: the graph's identity
/// counts (value/attribute nodes, edges, components) and, per served
/// measure, the measure label plus every ranking entry's value string and
/// raw `f64::to_bits` score. It deliberately **excludes** the epoch: that
/// is the comparison *key* (two digests are only compared when their
/// epochs match).
pub fn snapshot_digest(snapshot: &Snapshot) -> u64 {
    let mut d = Digest64::new();
    let stats = snapshot.stats();
    d.write_u64(stats.value_nodes as u64);
    d.write_u64(stats.attribute_nodes as u64);
    d.write_u64(stats.edge_count as u64);
    d.write_u64(stats.component_count as u64);
    for &measure in snapshot.measures() {
        d.write_str(&format!("{measure:?}"));
        if let Some(ranking) = snapshot.ranking(measure) {
            d.write_u64(ranking.len() as u64);
            for entry in ranking.iter() {
                d.write_str(&entry.value);
                d.write_u64(entry.score.to_bits());
            }
        } else {
            d.write_u64(u64::MAX);
        }
    }
    d.finish()
}

/// One shard's position in the primary's status report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPeerStatus {
    /// The shard's published epoch.
    pub epoch: u64,
    /// The shard's state digest ([`snapshot_digest`]) at that epoch.
    pub digest: u64,
}

/// The primary's replication status: its coordinator epoch and every
/// shard's epoch-tagged digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimaryStatus {
    /// The primary's coordinator epoch (sum of shard epochs).
    pub epoch: u64,
    /// Per-shard epoch + digest, indexed by shard.
    pub shards: Vec<ShardPeerStatus>,
}

/// One WAL record as shipped over the replication channel.
#[derive(Debug, Clone)]
pub struct FetchedRecord {
    /// Monotonic per-shard sequence number.
    pub seq: u64,
    /// The primary's epoch when the batch committed.
    pub epoch: u64,
    /// The committed batch.
    pub batch: Vec<LakeDelta>,
}

/// The answer to a WAL fetch: either the suffix of records after the
/// requested position, or a directive to re-bootstrap from a snapshot
/// because the primary has checkpointed past that position.
#[derive(Debug)]
pub enum WalFetch {
    /// The (possibly empty) record suffix, in sequence order.
    Records(Vec<FetchedRecord>),
    /// The tail is gone; bootstrap from the primary's newest snapshot.
    SnapshotRequired {
        /// Sequence number of the snapshot the primary offers.
        snapshot_seq: u64,
    },
}

/// Errors surfaced by the follower sync loop.
#[derive(Debug)]
pub enum ReplicaError {
    /// The replication source failed (network, decode, primary error) —
    /// transient by assumption; the tail loop retries with backoff.
    Source(String),
    /// The insurance digest disagreed with the primary's at an equal
    /// epoch — **not** transient; the follower halts and refuses reads.
    Diverged(String),
    /// A local engine/store failure while applying — also fatal: the
    /// follower's own state can no longer be trusted to match the log.
    Service(ServiceError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Source(msg) => write!(f, "replication source: {msg}"),
            ReplicaError::Diverged(msg) => write!(f, "replica diverged: {msg}"),
            ReplicaError::Service(e) => write!(f, "replica apply: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<ServiceError> for ReplicaError {
    fn from(e: ServiceError) -> Self {
        ReplicaError::Service(e)
    }
}

/// Where a follower pulls status, snapshots, and WAL suffixes from.
///
/// The server crate implements this over HTTP against a live primary; the
/// fault-injection and property suites implement it in-process so they can
/// drop, corrupt, and delay traffic deterministically.
pub trait ReplicaSource {
    /// The primary's current epoch and per-shard digests.
    ///
    /// # Errors
    /// [`ReplicaError::Source`] when the primary cannot be reached or
    /// answers malformed data.
    fn fetch_status(&self) -> Result<PrimaryStatus, ReplicaError>;

    /// One shard's newest snapshot `(last_seq, bytes)` for bootstrap.
    ///
    /// # Errors
    /// [`ReplicaError::Source`] as above.
    fn fetch_snapshot(&self, shard: usize) -> Result<(u64, Vec<u8>), ReplicaError>;

    /// One shard's WAL suffix after `from_seq`.
    ///
    /// # Errors
    /// [`ReplicaError::Source`] as above.
    fn fetch_wal(&self, shard: usize, from_seq: u64) -> Result<WalFetch, ReplicaError>;
}

/// Instruments shared between the follower sync loop (which writes them)
/// and the serving layer: replication lag, the divergence counter, and
/// the halt latch.
#[derive(Debug, Default)]
pub struct ReplicaShared {
    /// `dn_replica_lag_epochs`: epochs the follower's view trails the
    /// primary's (0 when caught up).
    pub lag_epochs: Gauge,
    /// `dn_replica_divergence_total`: digest mismatches detected since
    /// this follower started.
    pub divergence_total: Counter,
    halted: Mutex<Option<String>>,
}

impl ReplicaShared {
    /// The halt reason, when the follower has stopped serving.
    pub fn halted(&self) -> Option<String> {
        self.halted.lock().expect("halt latch").clone()
    }

    /// Latch the halt reason (the first reason wins).
    pub fn halt(&self, reason: impl Into<String>) {
        let mut latch = self.halted.lock().expect("halt latch");
        if latch.is_none() {
            *latch = Some(reason.into());
        }
    }

    /// Write the follower families.
    pub fn export_metrics(&self, w: &mut Exposition) {
        w.value(&REPLICA_LAG_EPOCHS, &[], self.lag_epochs.get());
        w.value(&REPLICA_DIVERGENCE, &[], self.divergence_total.get());
    }
}

/// An in-process [`ReplicaSource`] reading directly from a primary
/// coordinator behind a mutex. Used by the test suites and benches; the
/// HTTP transport in the server crate is the production path.
pub struct LocalReplicaSource {
    handle: CoordinatorHandle,
    coordinator: Arc<Mutex<Coordinator>>,
}

impl LocalReplicaSource {
    /// Wrap a primary's handle + coordinator.
    pub fn new(handle: CoordinatorHandle, coordinator: Arc<Mutex<Coordinator>>) -> Self {
        LocalReplicaSource {
            handle,
            coordinator,
        }
    }
}

impl ReplicaSource for LocalReplicaSource {
    fn fetch_status(&self) -> Result<PrimaryStatus, ReplicaError> {
        // Digest the *published* view (what the primary's readers see),
        // not the writer's possibly-ahead live state.
        let view = self.handle.current();
        let shards = (0..view.shard_count())
            .map(|i| {
                let snapshot = view.shard(i);
                ShardPeerStatus {
                    epoch: snapshot.epoch(),
                    digest: snapshot_digest(snapshot),
                }
            })
            .collect();
        Ok(PrimaryStatus {
            epoch: view.epoch(),
            shards,
        })
    }

    fn fetch_snapshot(&self, shard: usize) -> Result<(u64, Vec<u8>), ReplicaError> {
        let primary = self.coordinator.lock().expect("primary lock");
        primary_shard(&primary, shard)?
            .newest_snapshot_bytes()
            .map_err(|e| ReplicaError::Source(e.to_string()))
    }

    fn fetch_wal(&self, shard: usize, from_seq: u64) -> Result<WalFetch, ReplicaError> {
        let primary = self.coordinator.lock().expect("primary lock");
        match primary_shard(&primary, shard)?.wal_after(from_seq) {
            Ok(dn_store::WalTail::Records(records)) => Ok(WalFetch::Records(
                records
                    .into_iter()
                    .map(|r| FetchedRecord {
                        seq: r.seq,
                        epoch: r.epoch,
                        batch: r.batch,
                    })
                    .collect(),
            )),
            Ok(dn_store::WalTail::SnapshotRequired { snapshot_seq }) => {
                Ok(WalFetch::SnapshotRequired { snapshot_seq })
            }
            Err(e) => Err(ReplicaError::Source(e.to_string())),
        }
    }
}

/// One shard of the primary. [`Coordinator::shard`] would panic past the
/// shard count and poison the lock the primary's own writes take.
fn primary_shard(primary: &Coordinator, shard: usize) -> Result<&Writer, ReplicaError> {
    let count = primary.shard_count();
    (shard < count)
        .then(|| primary.shard(shard))
        .ok_or_else(|| {
            ReplicaError::Source(format!(
                "shard {shard} out of range (the primary has {count})"
            ))
        })
}

/// Summary of one [`Follower::sync_once`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Batches applied across all shards this pass.
    pub applied_batches: u64,
    /// Lag (primary epoch − follower epoch) after the pass.
    pub lag_epochs: u64,
    /// Shards whose digests were compared at equal epochs this pass.
    pub checked_shards: usize,
}

/// A read-only follower: a local sharded engine kept in step with a
/// primary by tailing its per-shard WALs.
pub struct Follower {
    coordinator: Arc<Mutex<Coordinator>>,
    handle: CoordinatorHandle,
    shared: Arc<ReplicaShared>,
    config: ServiceConfig,
    policy: CheckpointPolicy,
    root: PathBuf,
}

impl Follower {
    /// Bring up a follower under `root`. An empty directory bootstraps
    /// from the source's newest per-shard snapshots; a directory already
    /// holding a sharded store recovers locally (snapshot + WAL replay)
    /// and resumes tailing from its own last sequence — a restarted
    /// follower does not re-download state it already has.
    ///
    /// # Errors
    /// [`ReplicaError::Source`] when the primary cannot be reached during
    /// a fresh bootstrap; [`ReplicaError::Service`] when the local store
    /// fails to install or recover.
    pub fn bootstrap(
        root: impl Into<PathBuf>,
        config: ServiceConfig,
        policy: CheckpointPolicy,
        source: &dyn ReplicaSource,
    ) -> Result<Follower, ReplicaError> {
        let root = root.into();
        if !dn_store::sharded_store_exists(&root) {
            let status = source.fetch_status()?;
            dn_store::write_shard_manifest(&root, status.shards.len().max(1))
                .map_err(|e| ReplicaError::Service(e.into()))?;
            for shard in 0..status.shards.len().max(1) {
                let (_, bytes) = source.fetch_snapshot(shard)?;
                dn_store::install_snapshot(&dn_store::shard_dir(&root, shard), &bytes)
                    .map_err(|e| ReplicaError::Service(e.into()))?;
            }
        }
        let (handle, coordinator) = recover_shards_lenient(&root, config.clone(), policy)?;
        Ok(Follower {
            coordinator: Arc::new(Mutex::new(coordinator)),
            handle,
            shared: Arc::new(ReplicaShared::default()),
            config,
            policy,
            root,
        })
    }

    /// One tail-and-verify pass: fetch and apply every shard's WAL suffix
    /// (re-bootstrapping shards the primary has checkpointed past), swap
    /// in the refreshed view, then run the insurance exchange — compare
    /// per-shard digests against the primary's wherever the epochs match,
    /// and update the lag gauge.
    ///
    /// # Errors
    /// [`ReplicaError::Source`] is transient — retry with backoff.
    /// [`ReplicaError::Diverged`] and [`ReplicaError::Service`] are fatal:
    /// the halt latch is set and the caller must stop serving reads.
    pub fn sync_once(&mut self, source: &dyn ReplicaSource) -> Result<SyncReport, ReplicaError> {
        if let Some(reason) = self.shared.halted() {
            return Err(ReplicaError::Diverged(reason));
        }
        // Each sync cycle is its own trace (subject to the sampling
        // draw). While it is active, the HTTP replica source forwards the
        // trace ID on its fetches, so the primary's ring shows the
        // follower's tail reads under the same ID.
        let _trace = dn_trace::start_trace("replica_sync", None);
        let _sync = dn_trace::span(dn_trace::Phase::ReplicaSync);
        let status = source.fetch_status()?;
        let mut report = SyncReport::default();
        {
            let mut local = self.coordinator.lock().expect("follower lock");
            let shard_count = local.shard_count();
            for shard in 0..shard_count.min(status.shards.len()) {
                loop {
                    let from_seq = local.shard(shard).last_seq();
                    match source.fetch_wal(shard, from_seq)? {
                        WalFetch::Records(records) => {
                            if records.is_empty() {
                                break;
                            }
                            for record in &records {
                                local
                                    .apply_replicated(
                                        shard,
                                        record.seq,
                                        record.epoch,
                                        &record.batch,
                                    )
                                    .map_err(|e| self.fatal(ReplicaError::Service(e)))?;
                                report.applied_batches += 1;
                            }
                        }
                        WalFetch::SnapshotRequired { .. } => {
                            let (_, bytes) = source.fetch_snapshot(shard)?;
                            local
                                .reinstall_shard(shard, &bytes, &self.config, self.policy)
                                .map_err(|e| self.fatal(ReplicaError::Service(e)))?;
                        }
                    }
                }
            }
            local.refresh_view();
        }
        // Insurance exchange, against the view just published.
        let view = self.handle.current();
        for (shard, peer) in status.shards.iter().enumerate() {
            if shard >= view.shard_count() {
                break;
            }
            let snapshot = view.shard(shard);
            if snapshot.epoch() != peer.epoch {
                continue; // lag, not divergence — next pass re-checks
            }
            report.checked_shards += 1;
            let local_digest = snapshot_digest(snapshot);
            if local_digest != peer.digest {
                self.shared.divergence_total.inc();
                let reason = format!(
                    "shard {shard} digest mismatch at epoch {}: local {local_digest:016x} vs primary {:016x}",
                    peer.epoch, peer.digest
                );
                self.shared.halt(&reason);
                return Err(ReplicaError::Diverged(reason));
            }
        }
        report.lag_epochs = status.epoch.saturating_sub(view.epoch());
        self.shared.lag_epochs.set(report.lag_epochs);
        Ok(report)
    }

    /// Latch a fatal error into the halt state and pass it through.
    fn fatal(&self, e: ReplicaError) -> ReplicaError {
        self.shared.halt(e.to_string());
        e
    }

    /// Read handle over the follower's local engine.
    pub fn handle(&self) -> CoordinatorHandle {
        self.handle.clone()
    }

    /// The follower's coordinator (shared with the serving layer).
    pub fn coordinator(&self) -> Arc<Mutex<Coordinator>> {
        Arc::clone(&self.coordinator)
    }

    /// The gauges + halt latch shared with the serving layer.
    pub fn shared(&self) -> Arc<ReplicaShared> {
        Arc::clone(&self.shared)
    }

    /// The follower's store root.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::serve_sharded_durable;
    use domainnet::Measure;
    use lake::delta::{LakeDelta, MutableLake};
    use lake::table::TableBuilder;

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("dn_replica_unit_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            measures: vec![Measure::lcc(), Measure::exact_bc()],
            ..ServiceConfig::default()
        }
    }

    fn table(i: u32) -> lake::table::Table {
        TableBuilder::new(format!("R{i}"))
            .column("animal", ["Jaguar", "Puma", &format!("Extra{i}")])
            .build()
            .unwrap()
    }

    #[test]
    fn out_of_range_shard_is_an_error_and_the_primary_keeps_writing() {
        let root = scratch("out_of_range");
        let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
        let (handle, coordinator) =
            serve_sharded_durable(lake, config(), &root, CheckpointPolicy::manual(), 1).unwrap();
        let primary = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));
        for result in [
            source.fetch_wal(1, 0).map(|_| ()),
            source.fetch_snapshot(1).map(|_| ()),
        ] {
            match result {
                Err(ReplicaError::Source(msg)) => {
                    assert!(
                        msg.contains("shard 1 out of range (the primary has 1)"),
                        "{msg}"
                    )
                }
                other => panic!("expected a source error, got {other:?}"),
            }
        }
        let epoch = primary
            .lock()
            .expect("the primary's lock is not poisoned")
            .apply_and_publish(LakeDelta::new().add_table(table(0)))
            .unwrap()
            .1;
        assert_eq!(handle.epoch(), epoch);
        assert!(matches!(
            source.fetch_wal(0, 0),
            Ok(WalFetch::Records(records)) if records.len() == 1
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn follower_bootstraps_tails_and_agrees_bit_for_bit() {
        let root = scratch("basic");
        let primary_dir = root.join("primary");
        let follower_dir = root.join("follower");
        let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
        let (handle, coordinator) =
            serve_sharded_durable(lake, config(), &primary_dir, CheckpointPolicy::manual(), 2)
                .unwrap();
        let primary = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));

        let mut follower =
            Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
                .unwrap();
        let report = follower.sync_once(&source).unwrap();
        assert_eq!(report.lag_epochs, 0);
        assert_eq!(report.checked_shards, 2, "digests verified on both shards");

        // Mutate the primary; the follower catches up and re-verifies.
        for i in 0..3 {
            primary
                .lock()
                .unwrap()
                .apply_and_publish(LakeDelta::new().add_table(table(i)))
                .unwrap();
        }
        let report = follower.sync_once(&source).unwrap();
        assert!(report.applied_batches >= 3);
        assert_eq!(report.lag_epochs, 0);
        assert_eq!(follower.shared().divergence_total.get(), 0);

        // Bit-exact agreement on the merged ranking.
        let primary_top = handle.current().top_k(Measure::exact_bc(), 10).unwrap();
        let follower_top = follower
            .handle()
            .current()
            .top_k(Measure::exact_bc(), 10)
            .unwrap();
        assert_eq!(primary_top.len(), follower_top.len());
        for (p, f) in primary_top.iter().zip(&follower_top) {
            assert_eq!(p.value, f.value);
            assert_eq!(p.score.to_bits(), f.score.to_bits());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_required_rebootstraps_the_shard() {
        let root = scratch("trim");
        let primary_dir = root.join("primary");
        let follower_dir = root.join("follower");
        let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
        let (handle, coordinator) =
            serve_sharded_durable(lake, config(), &primary_dir, CheckpointPolicy::manual(), 1)
                .unwrap();
        let primary = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle, Arc::clone(&primary));
        let mut follower =
            Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
                .unwrap();
        follower.sync_once(&source).unwrap();

        // Mutate, then checkpoint: the WAL tail the follower needs is gone.
        {
            let mut p = primary.lock().unwrap();
            for i in 0..2 {
                p.apply_and_publish(LakeDelta::new().add_table(table(i)))
                    .unwrap();
            }
            p.checkpoint_now().unwrap();
        }
        let report = follower.sync_once(&source).unwrap();
        assert_eq!(report.lag_epochs, 0);
        assert_eq!(follower.shared().halted(), None);
        assert_eq!(
            follower.handle().current().epoch(),
            primary.lock().unwrap().epoch()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
