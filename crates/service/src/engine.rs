//! One shard: a single-writer engine over a lake, its net, and (when
//! durable) its store.
//!
//! A [`Writer`] is the unit the [coordinator](crate::coordinator) shards
//! over. It owns the mutable state and nothing a reader can reach: every
//! publish extracts an immutable [`Snapshot`] and keeps it as
//! [`Writer::current`]; the coordinator collects those into the
//! [`MultiView`](crate::coordinator::MultiView) readers pin. There is no
//! lock and no cache down here — sharing and caching live once, in the
//! coordinator.
//!
//! ```text
//!   commit([Δ1, Δ2, ...]):
//!     store.append_batch([Δ1, Δ2, ...])      (durable shards: WAL first)
//!     lake.apply_batch([Δ1, Δ2, ...])
//!     net.apply_delta(effects)
//!     net.warm_rankings(measures)
//!   publish():
//!     epoch += 1;  current = Arc::new(Snapshot::extract(..))
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use dn_store::{Store, StoreError};
use dn_trace::metrics::Gauge;
use domainnet::{DeltaStats, DomainNet, DomainNetBuilder, FoldError, Measure};
use lake::delta::{LakeDelta, MutableLake};
use lake::LakeError;

use crate::snapshot::Snapshot;

/// Configuration shared by every shard behind a coordinator.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The measures the service answers queries for. Every publish warms
    /// and snapshots each of them.
    pub measures: Vec<Measure>,
    /// Top-k cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Whether single-attribute values are pruned from the graph (the
    /// paper's default; see `DomainNetConfig`).
    pub prune_single_attribute_values: bool,
    /// Worker threads for score computation, snapshot encoding, and
    /// recovery (clamped to at least 1). Purely a runtime knob: every width
    /// produces bit-identical scores and snapshots, so it is safe to change
    /// between restarts of the same store.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            measures: vec![Measure::lcc(), Measure::exact_bc()],
            cache_capacity: 64,
            prune_single_attribute_values: true,
            threads: 1,
        }
    }
}

/// Errors surfaced by the writer path.
#[derive(Debug)]
pub enum ServiceError {
    /// A delta failed to apply to the lake (e.g. a duplicate table name).
    Lake(LakeError),
    /// Incremental maintenance rejected the applied effects.
    Maintenance(String),
    /// The durability layer failed (WAL append, checkpoint, or recovery).
    Store(StoreError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Lake(e) => write!(f, "lake mutation failed: {e}"),
            ServiceError::Maintenance(msg) => write!(f, "incremental maintenance failed: {msg}"),
            ServiceError::Store(e) => write!(f, "durability layer failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// When a durable shard checkpoints (writes a snapshot and trims the
/// WAL). Both triggers are optional and OR-ed; the check runs at the start
/// of every commit, so "every N epochs" means "at the first commit after N
/// epochs have been published since the last checkpoint".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many epochs were published since the last one.
    pub every_epochs: Option<u64>,
    /// Checkpoint once the WAL holds at least this many bytes of records.
    pub max_wal_bytes: Option<u64>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_epochs: Some(8),
            max_wal_bytes: Some(4 << 20),
        }
    }
}

impl CheckpointPolicy {
    /// Checkpoint every `n` published epochs only.
    pub fn every_epochs(n: u64) -> Self {
        CheckpointPolicy {
            every_epochs: Some(n),
            max_wal_bytes: None,
        }
    }

    /// Checkpoint when the WAL exceeds `bytes` of records only.
    pub fn max_wal_bytes(bytes: u64) -> Self {
        CheckpointPolicy {
            every_epochs: None,
            max_wal_bytes: Some(bytes),
        }
    }

    /// Never checkpoint automatically (use
    /// [`Coordinator::checkpoint_now`](crate::Coordinator::checkpoint_now)).
    pub fn manual() -> Self {
        CheckpointPolicy {
            every_epochs: None,
            max_wal_bytes: None,
        }
    }

    fn is_due(&self, epochs_since_checkpoint: u64, wal_record_bytes: u64) -> bool {
        self.every_epochs
            .is_some_and(|n| epochs_since_checkpoint >= n)
            || self.max_wal_bytes.is_some_and(|m| wal_record_bytes >= m)
    }
}

/// One shard's store gauges, written by the shard after every WAL append
/// and checkpoint and read by the coordinator handle's metrics export —
/// a scrape never needs the writer.
#[derive(Debug, Default)]
pub(crate) struct StoreGauges {
    /// `dn_shard_wal_record_bytes`: bytes of batch records in the WAL.
    pub(crate) wal_record_bytes: Gauge,
    /// `dn_shard_store_snapshots`: snapshot files in the store directory.
    pub(crate) snapshots: Gauge,
}

/// The writer's attachment to a [`Store`]: the open store, the checkpoint
/// policy, the epoch the last checkpoint was taken at, and the gauges the
/// store's sizes are published through.
#[derive(Debug)]
struct Persistence {
    store: Store,
    policy: CheckpointPolicy,
    last_checkpoint_epoch: u64,
    gauges: Arc<StoreGauges>,
}

impl Persistence {
    /// Publish the store's current sizes; runs after every operation that
    /// changes them.
    fn sync_gauges(&self) {
        self.gauges
            .wal_record_bytes
            .set(self.store.wal_record_bytes());
        self.gauges
            .snapshots
            .set(self.store.snapshot_count() as u64);
    }
}

/// Build the net over `lake` and warm the configured measures.
fn build_net(lake: &MutableLake, config: &ServiceConfig) -> DomainNet {
    let mut net = DomainNetBuilder::new()
        .prune_single_attribute_values(config.prune_single_attribute_values)
        .build(lake);
    net.set_compute_threads(config.threads);
    net.warm_rankings(&config.measures);
    net
}

/// A non-durable shard over `lake`, published at epoch 0.
pub(crate) fn serve(lake: MutableLake, config: &ServiceConfig) -> Writer {
    let net = build_net(&lake, config);
    Writer::new(lake, net, config, 0, None)
}

/// Like [`serve`], but durable: every committed batch is appended to a
/// write-ahead log in `dir` before it is applied, and the
/// [`CheckpointPolicy`] periodically snapshots the shard and trims the
/// log. `dir` must not already hold a store — reopening one after a crash
/// (or a clean exit; the two are handled identically) goes through
/// [`serve_from_dir`].
///
/// An initial checkpoint of the freshly built shard is written before it
/// comes up, so recovery always has a snapshot to start from.
///
/// # Errors
/// [`ServiceError::Store`] if the directory holds a store already or the
/// initial checkpoint cannot be written.
pub(crate) fn serve_durable(
    lake: MutableLake,
    config: &ServiceConfig,
    dir: PathBuf,
    policy: CheckpointPolicy,
) -> Result<Writer, ServiceError> {
    let mut store = Store::create(dir)?;
    store.set_threads(config.threads);
    let net = build_net(&lake, config);
    store.checkpoint(&lake, &net, 0, &config.measures)?;
    let persistence = Persistence {
        store,
        policy,
        last_checkpoint_epoch: 0,
        gauges: Arc::default(),
    };
    Ok(Writer::new(lake, net, config, 0, Some(persistence)))
}

/// Restore a shard from its store directory: load the newest valid
/// snapshot, replay the WAL suffix through the incremental path, and
/// publish the recovered state as the current epoch (numbering resumes
/// where the crashed shard left off).
///
/// The recovered net keeps the graph configuration it was persisted with
/// (`config.prune_single_attribute_values` does not re-prune an existing
/// graph). `config.measures` should match the measures the crashed shard
/// served — recovery replays and re-warms the *persisted* measure list so
/// incremental approximate-BC estimates continue their exact sequence;
/// any additional measures requested here are computed fresh on the
/// recovered graph, which is deterministic for the exact measures.
///
/// `gauges` is where the recovered store publishes its sizes: a fresh
/// `Arc` at start-up, the replaced shard's when a follower reinstalls one
/// (the coordinator handle keeps reading the same gauges).
///
/// # Errors
/// [`ServiceError::Store`] when the directory holds no usable snapshot or
/// its contents fail validation.
pub(crate) fn serve_from_dir(
    dir: PathBuf,
    config: &ServiceConfig,
    policy: CheckpointPolicy,
    gauges: Arc<StoreGauges>,
) -> Result<Writer, ServiceError> {
    let (store, recovered) = Store::recover_threaded(dir, config.threads)?;
    let (lake, mut net) = (recovered.lake, recovered.net);
    net.set_compute_threads(config.threads);
    net.warm_rankings(&config.measures);
    let persistence = Persistence {
        store,
        policy,
        // Measure checkpoint age from the last *on-disk* checkpoint, not
        // from the recovered epoch: epochs that only live in the WAL must
        // keep counting toward the policy, or a service that crashes more
        // often than it checkpoints would replay an ever-growing log.
        last_checkpoint_epoch: recovered.snapshot_epoch,
        gauges,
    };
    Ok(Writer::new(
        lake,
        net,
        config,
        recovered.epoch,
        Some(persistence),
    ))
}

/// One shard's write side: folds delta batches into the net via the
/// incremental path and publishes epochs. Only the
/// [`Coordinator`](crate::Coordinator) drives it; outside the crate a
/// `Writer` is reachable read-only through
/// [`Coordinator::shard`](crate::Coordinator::shard).
pub struct Writer {
    lake: MutableLake,
    net: DomainNet,
    measures: Vec<Measure>,
    epoch: u64,
    /// The snapshot published at `epoch`.
    current: Arc<Snapshot>,
    /// `Some` for durable shards.
    persistence: Option<Persistence>,
}

impl Writer {
    /// Publish `net` (already warmed) as the snapshot of `epoch`.
    fn new(
        lake: MutableLake,
        net: DomainNet,
        config: &ServiceConfig,
        epoch: u64,
        persistence: Option<Persistence>,
    ) -> Writer {
        let current = Arc::new(Snapshot::extract(&net, &lake, &config.measures, epoch));
        if let Some(persistence) = &persistence {
            persistence.sync_gauges();
        }
        Writer {
            lake,
            net,
            measures: config.measures.clone(),
            epoch,
            current,
            persistence,
        }
    }

    /// Apply `batch` as one unit through the incremental path and warm the
    /// served measures. Does **not** publish — the shard's
    /// [`Writer::current`] snapshot stays at the previous epoch.
    ///
    /// For a durable shard the batch is appended to the write-ahead log
    /// (flushed and synced) **before** it is applied, so an acknowledged
    /// commit survives a crash at any later instant; the checkpoint policy
    /// is also evaluated here, snapshotting the pre-batch state and
    /// trimming the log when due.
    ///
    /// # Errors
    /// On a lake-level failure the batch stops at the failing op (earlier
    /// ops remain applied, see [`MutableLake::apply_batch`]); the net is
    /// then rebuilt from the lake's live state so writer-side state stays
    /// coherent, and the error is returned. (The WAL keeps the failed
    /// batch: replay reproduces the same partial application and the same
    /// rebuild, so recovery lands on the same state.) A
    /// [`ServiceError::Store`] failure, by contrast, leaves the lake
    /// untouched — nothing was applied that was not first made durable.
    pub(crate) fn commit(&mut self, batch: &[LakeDelta]) -> Result<DeltaStats, ServiceError> {
        let _apply = dn_trace::span(dn_trace::Phase::ShardApply);
        self.checkpoint_if_due()?;
        if let Some(persistence) = self.persistence.as_mut() {
            persistence.store.append_batch(self.epoch, batch)?;
            persistence.sync_gauges();
        }
        self.net
            .fold_batch(&mut self.lake, batch, &self.measures)
            .map_err(|e| match e {
                FoldError::Lake(e) => ServiceError::Lake(e),
                FoldError::Net(msg) => ServiceError::Maintenance(msg),
            })
    }

    /// Bump the epoch and publish the net's current state as its snapshot.
    /// Returns the new epoch.
    pub(crate) fn publish(&mut self) -> u64 {
        let _publish = dn_trace::span(dn_trace::Phase::ShardPublish);
        self.publish_at(self.epoch + 1)
    }

    /// Shared tail of [`Writer::publish`] and [`Writer::apply_replicated`]:
    /// move to `epoch` and extract + store its snapshot.
    fn publish_at(&mut self, epoch: u64) -> u64 {
        self.epoch = epoch;
        self.current = Arc::new(Snapshot::extract(
            &self.net,
            &self.lake,
            &self.measures,
            epoch,
        ));
        epoch
    }

    /// Write a checkpoint immediately, regardless of policy. Returns
    /// `true` when a snapshot was written (`false` for a non-durable
    /// shard, for which this is a no-op).
    ///
    /// # Errors
    /// [`ServiceError::Store`] if the snapshot cannot be written.
    pub(crate) fn checkpoint_now(&mut self) -> Result<bool, ServiceError> {
        let Some(p) = self.persistence.as_mut() else {
            return Ok(false);
        };
        p.store
            .checkpoint(&self.lake, &self.net, self.epoch, &self.measures)?;
        p.sync_gauges();
        p.last_checkpoint_epoch = self.epoch;
        Ok(true)
    }

    /// Checkpoint the current (pre-batch) state when the policy says one
    /// is due; runs ahead of every WAL append.
    fn checkpoint_if_due(&mut self) -> Result<(), ServiceError> {
        let due = self.persistence.as_ref().is_some_and(|p| {
            let epochs_since = self.epoch.saturating_sub(p.last_checkpoint_epoch);
            p.policy.is_due(epochs_since, p.store.wal_record_bytes())
        });
        if due {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// The measures this shard warms and publishes with every epoch.
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// The gauges a durable shard publishes its store sizes through
    /// (`None` for a non-durable shard).
    pub(crate) fn store_gauges(&self) -> Option<Arc<StoreGauges>> {
        self.persistence.as_ref().map(|p| Arc::clone(&p.gauges))
    }

    /// Bytes of batch records currently in the write-ahead log (0 for a
    /// non-durable shard).
    pub fn wal_record_bytes(&self) -> u64 {
        self.persistence
            .as_ref()
            .map_or(0, |p| p.store.wal_record_bytes())
    }

    /// Apply one batch received from a replication stream: log it under the
    /// primary's `seq`/`epoch` tags, run it through the same incremental
    /// path [`Writer::commit`] uses, and publish the result inline.
    ///
    /// This is the follower-side mirror of `commit` + `publish`, with two
    /// deliberate differences. First, the epoch is *adopted*, not minted:
    /// after applying a record the shard publishes at
    /// `max(self.epoch, record_epoch + 1)`, which is exactly where the
    /// primary landed after committing that batch — so digests can be
    /// compared at equal epochs. Second, a lake/net-level failure is **not**
    /// an error here: the primary's WAL keeps failed batches and its
    /// recovery path resyncs past them, so the follower does the same and
    /// converges to the identical state (mirroring
    /// [`Store::recover`](dn_store::Store::recover)'s replay semantics).
    ///
    /// # Errors
    /// [`ServiceError::Maintenance`] when the shard is not durable (a
    /// follower must have a log to resume from), [`ServiceError::Store`]
    /// when the record cannot be made durable — including an out-of-order
    /// `seq`, which means the stream is corrupt.
    pub(crate) fn apply_replicated(
        &mut self,
        seq: u64,
        epoch: u64,
        batch: &[LakeDelta],
    ) -> Result<(), ServiceError> {
        self.checkpoint_if_due()?;
        let persistence = self.persistence.as_mut().ok_or_else(|| {
            ServiceError::Maintenance("replication requires a durable writer".to_string())
        })?;
        persistence.store.append_replicated(seq, epoch, batch)?;
        persistence.sync_gauges();
        // A batch that does not fold is not an error here (see above): the
        // net was rebuilt from the lake's live state, as on the primary.
        let _ = self.net.fold_batch(&mut self.lake, batch, &self.measures);
        // Adopt the primary's post-batch epoch. `publish()` would mint
        // `self.epoch + 1`, which drifts whenever the primary's history
        // contains epochs this follower never saw (pre-snapshot commits).
        self.publish_at(self.epoch.max(epoch + 1));
        Ok(())
    }

    /// Sequence number of the last batch in this shard's store (0 when no
    /// batch was ever logged, or for a non-durable shard).
    pub fn last_seq(&self) -> u64 {
        self.persistence.as_ref().map_or(0, |p| p.store.last_seq())
    }

    /// The store behind a durable shard, or the typed refusal `purpose`
    /// gets from a non-durable one.
    fn store(&self, purpose: &str) -> Result<&Store, ServiceError> {
        self.persistence.as_ref().map(|p| &p.store).ok_or_else(|| {
            ServiceError::Maintenance(format!("{purpose} requires a durable writer"))
        })
    }

    /// The WAL suffix after `from_seq`, for shipping to a replica. See
    /// [`Store::wal_after`](dn_store::Store::wal_after).
    ///
    /// # Errors
    /// [`ServiceError::Maintenance`] for a non-durable shard;
    /// [`ServiceError::Store`] on log-read failures or a `from_seq` ahead
    /// of the log.
    pub fn wal_after(&self, from_seq: u64) -> Result<dn_store::WalTail, ServiceError> {
        Ok(self.store("WAL shipping")?.wal_after(from_seq)?)
    }

    /// The raw bytes of the newest on-disk snapshot, for replica bootstrap.
    ///
    /// # Errors
    /// [`ServiceError::Maintenance`] for a non-durable shard;
    /// [`ServiceError::Store`] when no snapshot exists or it cannot be read.
    pub fn newest_snapshot_bytes(&self) -> Result<(u64, Vec<u8>), ServiceError> {
        Ok(self.store("snapshot shipping")?.newest_snapshot_bytes()?)
    }

    /// The maintained lake (the shard's live state, possibly ahead of the
    /// published epoch).
    pub fn lake(&self) -> &MutableLake {
        &self.lake
    }

    /// The maintained net.
    pub fn net(&self) -> &DomainNet {
        &self.net
    }

    /// The last published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot published at [`Writer::epoch`].
    pub fn current(&self) -> &Arc<Snapshot> {
        &self.current
    }
}
