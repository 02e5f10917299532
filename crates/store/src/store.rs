//! The on-disk store: a directory holding snapshots and one WAL, plus the
//! crash-recovery path that reunites them.
//!
//! ## Directory layout and lifecycle
//!
//! ```text
//! <dir>/
//!   snapshot-00000000000000000000.dnsnap   initial checkpoint (batch seq 0)
//!   snapshot-00000000000000000042.dnsnap   latest checkpoint  (≤ 2 kept)
//!   wal.dnlog                              batches after the newest snapshot
//! ```
//!
//! * [`Store::create`] initializes an empty directory (fresh WAL; the
//!   caller writes the initial checkpoint).
//! * [`Store::append_batch`] durably logs one committed batch and assigns
//!   it the next sequence number.
//! * [`Store::checkpoint`] writes a new snapshot (atomic temp-file +
//!   rename), **then** trims the WAL and prunes old snapshots — the log is
//!   only shortened once the snapshot that replaces it is on disk.
//! * [`Store::recover`] loads the newest readable snapshot (falling back
//!   to older ones if the newest is corrupt), replays the WAL suffix
//!   through the same incremental path the live writer uses, truncates any
//!   torn tail, and returns a lake + net equal to a never-crashed run.

use std::fs;
use std::path::{Path, PathBuf};

use domainnet::{DomainNet, Measure};
use lake::delta::{LakeDelta, MutableLake};

use crate::error::{Result, StoreError};
use crate::snapshot::{decode_snapshot_threaded, encode_snapshot_threaded, Manifest};
use crate::wal::{scan_wal, Wal};

const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".dnsnap";
const WAL_FILE: &str = "wal.dnlog";
/// How many snapshot generations survive a checkpoint (the newest plus one
/// fallback, so a crash *during* corruption of the newest file still
/// recovers).
const SNAPSHOTS_KEPT: usize = 2;

/// A handle on one store directory with an open, append-ready WAL.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    next_seq: u64,
    /// Snapshot files in `dir`, kept in step by checkpoint and recovery so
    /// an observer never has to list the directory.
    snapshot_count: usize,
    /// Worker threads for snapshot section encode/decode (≥ 1). Runtime
    /// only — the file format is identical for every width.
    threads: usize,
}

/// What [`Store::probe`] found in a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorePresence {
    /// No store files: initialize with [`Store::create`].
    Fresh,
    /// A usable store (or one whose problems must surface as recovery
    /// errors): open with [`Store::recover`].
    Recoverable,
    /// Only a record-free WAL from an initialization that crashed before
    /// its first checkpoint; delete `wal_path` and initialize fresh.
    AbortedInit {
        /// The leftover WAL file.
        wal_path: PathBuf,
    },
}

/// The outcome of [`Store::recover`]: engine state equal (to the bit) to
/// what a never-crashed writer held after its last durable commit.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered lake, stable ids intact.
    pub lake: MutableLake,
    /// The recovered net: raw scores for [`Recovered::measures`] as the
    /// writer held them; rankings derive from them on the first
    /// `rank` / `warm_rankings`.
    pub net: DomainNet,
    /// The serving epoch the engine resumes publishing from (the highest
    /// of the snapshot's epoch and the replayed records' epoch tags + 1).
    pub epoch: u64,
    /// The epoch recorded in the snapshot recovery started from (i.e. the
    /// epoch of the last on-disk checkpoint; checkpoint policies measure
    /// from here).
    pub snapshot_epoch: u64,
    /// The measures the crashed engine was serving.
    pub measures: Vec<Measure>,
    /// The last batch sequence number folded into the recovered state.
    pub last_seq: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Replayed batches that failed mid-apply and triggered the same
    /// rebuild-from-live-state escape hatch the live writer uses.
    pub resyncs: usize,
    /// Snapshot files that were present but unreadable and skipped.
    pub snapshots_skipped: usize,
    /// WAL batches that chained onto a skipped (corrupt) newer snapshot
    /// and were truncated away during a fallback recovery.
    pub wal_batches_discarded: usize,
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{seq:020}{SNAPSHOT_SUFFIX}"))
}

/// What [`Store::wal_after`] can hand a tailing replica.
#[derive(Debug)]
pub enum WalTail {
    /// The contiguous run of verified records with sequence numbers
    /// strictly greater than the requested `from_seq` (empty when the
    /// replica is caught up).
    Records(Vec<crate::wal::WalRecord>),
    /// A checkpoint trimmed the log past `from_seq`: the records the
    /// replica needs no longer exist, and it must re-bootstrap from the
    /// newest snapshot (which folds in every batch up to `snapshot_seq`).
    SnapshotRequired {
        /// Sequence number the newest on-disk snapshot covers through.
        snapshot_seq: u64,
    },
}

/// Initialize `dir` as a store seeded from raw snapshot `bytes` fetched
/// from a primary: the bytes are fully validated (magic, version, section
/// CRCs, cross-references), written atomically under the sequence number
/// recorded in their manifest, and paired with a fresh empty WAL — after
/// which the directory is [`StorePresence::Recoverable`] and a normal
/// [`Store::recover`] reproduces the primary's checkpointed state.
/// Returns the sequence number the snapshot covers through (the replica
/// tails the primary's WAL from there).
///
/// # Errors
/// [`StoreError::Corrupt`] when the bytes fail validation or `dir`
/// already holds a store; I/O errors from writing.
pub fn install_snapshot(dir: &Path, bytes: &[u8]) -> Result<u64> {
    let state = decode_snapshot_threaded(bytes, 1)?;
    let last_seq = state.manifest.last_seq;
    fs::create_dir_all(dir).map_err(|e| StoreError::io_with_path(e, dir))?;
    if !list_snapshots(dir)?.is_empty() || dir.join(WAL_FILE).exists() {
        return Err(StoreError::corrupt(format!(
            "{} already contains a store; refusing to install a snapshot over it",
            dir.display()
        )));
    }
    crate::write_atomic(&snapshot_path(dir, last_seq), bytes)?;
    Wal::create(&dir.join(WAL_FILE))?;
    Ok(last_seq)
}

/// List `(seq, path)` of the snapshot files in `dir`, newest first.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| StoreError::io_with_path(e, dir))? {
        let entry = entry.map_err(|e| StoreError::io_with_path(e, dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(out)
}

impl Store {
    /// Initialize a store in `dir` (created if missing). Fails with a
    /// typed error if the directory already holds store files — opening an
    /// existing store goes through [`Store::recover`].
    pub fn create(dir: impl Into<PathBuf>) -> Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io_with_path(e, &dir))?;
        if !list_snapshots(&dir)?.is_empty() || dir.join(WAL_FILE).exists() {
            return Err(StoreError::corrupt(format!(
                "{} already contains a store; recover it instead of re-creating",
                dir.display()
            )));
        }
        let wal = Wal::create(&dir.join(WAL_FILE))?;
        Ok(Store {
            dir,
            wal,
            next_seq: 1,
            snapshot_count: 0,
            threads: 1,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Set how many worker threads snapshot encoding and decoding may use
    /// (clamped to at least 1). The on-disk bytes are identical for every
    /// width, so this is safe to change between runs of the same store.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured snapshot codec width (see [`Store::set_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sequence number the next appended batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The highest sequence number handed out so far (0 before the first
    /// append).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Bytes of batch records currently in the WAL (what the size-based
    /// checkpoint policy meters).
    pub fn wal_record_bytes(&self) -> u64 {
        self.wal.record_bytes()
    }

    /// Snapshot files currently in the store directory.
    pub fn snapshot_count(&self) -> usize {
        self.snapshot_count
    }

    /// Whether `dir` already holds store files (snapshots or a WAL) — the
    /// probe `dn-serve` uses to choose between creating a fresh store and
    /// recovering an existing one.
    pub fn exists(dir: &Path) -> bool {
        dir.join(WAL_FILE).exists() || list_snapshots(dir).map(|s| !s.is_empty()).unwrap_or(false)
    }

    /// Classify `dir` for a serving host. [`Store::exists`] alone cannot
    /// distinguish a recoverable store from the residue of an **aborted
    /// initialization**: [`Store::create`] writes the WAL before the
    /// caller writes the initial checkpoint, so a crash in that window
    /// leaves a record-free WAL and no snapshot — a state both
    /// [`Store::create`] (refuses: "already contains a store") and
    /// [`Store::recover`] (fails: `MissingSnapshot`) reject. Hosts should
    /// delete the leftover WAL and initialize fresh in that case.
    ///
    /// A WAL *with* records but no snapshot is still classified
    /// [`StorePresence::Recoverable`] — it holds acknowledged batches,
    /// and the resulting recovery error must reach an operator rather
    /// than the data being silently discarded.
    ///
    /// # Errors
    /// I/O errors from listing the directory or scanning the WAL.
    pub fn probe(dir: &Path) -> Result<StorePresence> {
        if !dir.exists() {
            return Ok(StorePresence::Fresh);
        }
        if !list_snapshots(dir)?.is_empty() {
            return Ok(StorePresence::Recoverable);
        }
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            return Ok(StorePresence::Fresh);
        }
        let scan = scan_wal(&wal_path)?;
        if scan.records.is_empty() {
            Ok(StorePresence::AbortedInit { wal_path })
        } else {
            Ok(StorePresence::Recoverable)
        }
    }

    /// Durably append one committed batch, tagged with the writer's
    /// current serving `epoch`, returning its assigned sequence number.
    /// When this returns `Ok`, the batch survives a crash.
    pub fn append_batch(&mut self, epoch: u64, batch: &[LakeDelta]) -> Result<u64> {
        let seq = self.next_seq;
        self.wal.append(seq, epoch, batch)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Durably append one batch under a sequence number and epoch tag
    /// assigned by a **primary** — the replication twin of
    /// [`Store::append_batch`]. The record must be the exact next one:
    /// appending out of order would fabricate a log the primary never
    /// wrote, so a mismatch is a typed error, not a silent re-number.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when `seq` is not `self.next_seq()`; WAL
    /// I/O errors otherwise.
    pub fn append_replicated(&mut self, seq: u64, epoch: u64, batch: &[LakeDelta]) -> Result<()> {
        if seq != self.next_seq {
            return Err(StoreError::corrupt(format!(
                "replicated batch {seq} does not follow local seq {} (stream out of order)",
                self.last_seq()
            )));
        }
        self.wal.append(seq, epoch, batch)?;
        self.next_seq += 1;
        Ok(())
    }

    /// The verified WAL records with sequence numbers strictly greater
    /// than `from_seq` — what a tailing replica fetches. `from_seq` equal
    /// to [`Store::last_seq`] returns an empty record list (caught up);
    /// asking past a checkpoint trim returns
    /// [`WalTail::SnapshotRequired`] instead of a gapped stream.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when `from_seq` is beyond the last
    /// acknowledged sequence number (the "replica" is ahead of this log —
    /// it is tailing the wrong store), or when the on-disk log fails
    /// scanning.
    pub fn wal_after(&self, from_seq: u64) -> Result<WalTail> {
        if from_seq > self.last_seq() {
            return Err(StoreError::corrupt(format!(
                "WAL tail requested after seq {from_seq}, but the last acknowledged seq is {}",
                self.last_seq()
            )));
        }
        if from_seq == self.last_seq() {
            return Ok(WalTail::Records(Vec::new()));
        }
        let scan = scan_wal(self.wal.path())?;
        let records: Vec<crate::wal::WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.seq > from_seq)
            .collect();
        match records.first() {
            // Appends are strictly sequential and `reset` empties the log
            // wholesale, so the surviving records are contiguous: the only
            // way `from_seq + 1` is missing is a checkpoint trim.
            Some(first) if first.seq == from_seq + 1 => Ok(WalTail::Records(records)),
            _ => {
                let snapshots = list_snapshots(&self.dir)?;
                let snapshot_seq = snapshots.first().map(|&(seq, _)| seq).ok_or_else(|| {
                    StoreError::corrupt(format!(
                        "WAL records after seq {from_seq} are trimmed and {} holds no snapshot",
                        self.dir.display()
                    ))
                })?;
                Ok(WalTail::SnapshotRequired { snapshot_seq })
            }
        }
    }

    /// The raw bytes of the newest on-disk snapshot plus the sequence
    /// number it covers through — what a bootstrapping replica fetches
    /// (the file format is self-validating, so shipping bytes is safe).
    ///
    /// # Errors
    /// [`StoreError::MissingSnapshot`] when no snapshot exists yet; I/O
    /// errors from reading.
    pub fn newest_snapshot_bytes(&self) -> Result<(u64, Vec<u8>)> {
        let snapshots = list_snapshots(&self.dir)?;
        let (seq, path) = snapshots.first().ok_or(StoreError::MissingSnapshot {
            dir: self.dir.clone(),
        })?;
        let bytes = fs::read(path).map_err(|e| StoreError::io_with_path(e, path))?;
        Ok((*seq, bytes))
    }

    /// Write a checkpoint of the given engine state, then trim the WAL and
    /// prune snapshots beyond the newest two. Returns the
    /// snapshot size in bytes.
    ///
    /// The ordering is the crash-safety argument: the snapshot lands via
    /// temp-file + rename *before* the WAL shrinks, so at every instant the
    /// directory holds a snapshot + WAL-suffix pair that reproduces the
    /// full state.
    pub fn checkpoint(
        &mut self,
        lake: &MutableLake,
        net: &DomainNet,
        epoch: u64,
        measures: &[Measure],
    ) -> Result<u64> {
        let manifest = Manifest {
            last_seq: self.last_seq(),
            epoch,
            measures: measures.to_vec(),
        };
        let path = snapshot_path(&self.dir, manifest.last_seq);
        let bytes = encode_snapshot_threaded(lake, net, &manifest, self.threads);
        crate::write_atomic(&path, &bytes)?;
        self.wal.reset()?;
        let snapshots = list_snapshots(&self.dir)?;
        self.snapshot_count = snapshots.len();
        for (_, old) in snapshots.into_iter().skip(SNAPSHOTS_KEPT) {
            fs::remove_file(&old).map_err(|e| StoreError::io_with_path(e, &old))?;
            self.snapshot_count -= 1;
        }
        Ok(bytes.len() as u64)
    }

    /// Recover a store directory after a crash (or a clean shutdown — the
    /// two are indistinguishable and handled identically).
    ///
    /// Loads the newest snapshot that validates (skipping corrupt ones),
    /// then replays every WAL batch with a sequence number beyond the
    /// snapshot through one [`DomainNet::fold_batch`] call over the whole
    /// suffix — the code path the live writer runs a record at a time,
    /// including its failure semantics (a batch that fails mid-apply leaves
    /// its earlier ops applied and triggers a rebuild from live state). The
    /// run lands on the writer's state bit for bit: every measure, sampled
    /// BC included, is a function of the lake, so the suffix is one patch
    /// and one warm of the served measures. Any torn WAL tail is truncated.
    ///
    /// When the newest snapshot is unreadable and recovery falls back to
    /// an older one, WAL records that chained onto the *newest* snapshot
    /// cannot apply to the older base; replay stops at the first such
    /// record and the unreplayable suffix is truncated (reported via
    /// [`Recovered::wal_batches_discarded`]) — recovering the older state
    /// beats refusing outright. A sequence gap while recovering from the
    /// newest snapshot, by contrast, means acknowledged batches vanished
    /// and stays a hard [`StoreError::Corrupt`].
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(Store, Recovered)> {
        Store::recover_threaded(dir, 1)
    }

    /// [`Store::recover`] with snapshot section decoding spread over up to
    /// `threads` workers; the recovered state is identical for every width
    /// (WAL replay itself stays one ordered fold). The
    /// returned store keeps `threads` as its codec width.
    pub fn recover_threaded(dir: impl Into<PathBuf>, threads: usize) -> Result<(Store, Recovered)> {
        let threads = threads.max(1);
        let dir = dir.into();
        let snapshots = list_snapshots(&dir)?;
        if snapshots.is_empty() {
            return Err(StoreError::MissingSnapshot { dir });
        }
        let mut skipped = 0usize;
        let mut loaded = None;
        let mut last_error = None;
        for (_, path) in &snapshots {
            let read = fs::read(path).map_err(|e| StoreError::io_with_path(e, path));
            match read.and_then(|bytes| decode_snapshot_threaded(&bytes, threads)) {
                Ok(state) => {
                    loaded = Some(state);
                    break;
                }
                Err(err) => {
                    skipped += 1;
                    last_error = Some(err);
                }
            }
        }
        let Some(state) = loaded else {
            return Err(last_error.expect("at least one snapshot was tried"));
        };
        let (mut lake, mut net, manifest) = (state.lake, state.net, state.manifest);

        let wal_path = dir.join(WAL_FILE);
        let scan = if wal_path.exists() {
            scan_wal(&wal_path)?
        } else {
            // The WAL can be legitimately absent only if a crash hit the
            // instant between snapshot rename and WAL creation; recover
            // from the snapshot alone.
            crate::wal::WalScan {
                records: Vec::new(),
                valid_len: 0,
                file_len: 0,
                torn: None,
            }
        };

        let mut last_seq = manifest.last_seq;
        let mut epoch = manifest.epoch;
        let mut suffix: Vec<&[LakeDelta]> = Vec::new();
        let mut discarded = 0usize;
        let mut truncate_to = scan.valid_len;
        for record in &scan.records {
            if record.seq <= manifest.last_seq {
                continue; // already folded into the snapshot
            }
            if record.seq != last_seq + 1 {
                if skipped == 0 {
                    return Err(StoreError::corrupt(format!(
                        "WAL gap: batch {} follows batch {last_seq}",
                        record.seq
                    )));
                }
                // Fallback past the snapshot these records extended: drop
                // the unreplayable suffix so future appends (which resume
                // at last_seq + 1) keep the on-disk sequence monotone.
                truncate_to = record.offset;
                discarded = scan
                    .records
                    .iter()
                    .filter(|r| r.offset >= record.offset)
                    .count();
                break;
            }
            suffix.push(&record.batch);
            last_seq = record.seq;
            // The record was committed while `record.epoch` was published;
            // the live writer's next publish would have been epoch + 1, so
            // recovery resumes numbering there (never below the snapshot's).
            epoch = epoch.max(record.epoch + 1);
        }
        // The live writer's fold, failure semantics included, over the
        // whole suffix at once: it lands on the state the writer reached
        // folding one record at a time.
        let resyncs = net
            .fold_batch(&mut lake, &suffix, &manifest.measures)
            .err()
            .map_or(0, |refused| refused.len());

        let wal = Wal::open_truncated(&wal_path, truncate_to)?;
        let store = Store {
            dir,
            wal,
            next_seq: last_seq + 1,
            snapshot_count: snapshots.len(),
            threads,
        };
        let recovered = Recovered {
            lake,
            net,
            epoch,
            snapshot_epoch: manifest.epoch,
            measures: manifest.measures,
            last_seq,
            replayed_batches: suffix.len(),
            resyncs,
            snapshots_skipped: skipped,
            wal_batches_discarded: discarded,
        };
        Ok((store, recovered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domainnet::DomainNetBuilder;
    use lake::delta::{LakeView, Slot};
    use lake::table::TableBuilder;

    fn test_dir(name: &str) -> PathBuf {
        // Store::create wants to create the directory itself.
        let dir = crate::testutil::scratch_dir(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn engine() -> (MutableLake, DomainNet, Vec<Measure>) {
        let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        let measures = vec![Measure::lcc(), Measure::exact_bc()];
        net.warm_rankings(&measures);
        (lake, net, measures)
    }

    fn delta(i: u32) -> LakeDelta {
        LakeDelta::new().add_table(
            TableBuilder::new(format!("extra_{i}"))
                .column("animal", ["Jaguar", "Okapi", "Zebra"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn create_checkpoint_recover_round_trip() {
        let dir = test_dir("roundtrip");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();

        // Two durable batches after the checkpoint.
        for i in 0..2u32 {
            let batch = vec![delta(i)];
            store.append_batch(0, &batch).unwrap();
            let effects = lake.apply_batch(batch.iter()).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
            net.warm_rankings(&measures);
        }
        drop(store); // "crash"

        let (store, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.replayed_batches, 2);
        assert_eq!(recovered.resyncs, 0);
        assert_eq!(recovered.last_seq, 2);
        assert_eq!(store.next_seq(), 3);
        assert_eq!(recovered.lake.live_table_names(), lake.live_table_names());
        assert_eq!(recovered.net.export_state(), net.export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_trims_wal_and_prunes_snapshots() {
        let dir = test_dir("trim");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        for i in 0..3u32 {
            let batch = vec![delta(i)];
            store.append_batch(0, &batch).unwrap();
            let effects = lake.apply_batch(batch.iter()).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
            net.warm_rankings(&measures);
            store
                .checkpoint(&lake, &net, u64::from(i) + 1, &measures)
                .unwrap();
            assert_eq!(store.wal_record_bytes(), 0, "checkpoint trims the log");
        }
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), SNAPSHOTS_KEPT, "old snapshots pruned");
        assert_eq!(snaps[0].0, 3, "newest snapshot covers the last batch");

        let (_, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.replayed_batches, 0, "everything checkpointed");
        assert_eq!(recovered.net.export_state(), net.export_state());
        assert_eq!(recovered.epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_falls_back_to_an_older_snapshot() {
        let dir = test_dir("fallback");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        let batch = vec![delta(0)];
        store.append_batch(0, &batch).unwrap();
        let effects = lake.apply_batch(batch.iter()).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        net.warm_rankings(&measures);
        store.checkpoint(&lake, &net, 1, &measures).unwrap();
        drop(store);

        // Corrupt the newest snapshot; recovery must fall back to seq 0.
        // The WAL was trimmed at the newest checkpoint, so the fallback
        // recovers the *older* state — strictly better than refusing.
        let newest = list_snapshots(&dir).unwrap()[0].1.clone();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (_, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.snapshots_skipped, 1);
        assert_eq!(recovered.epoch, 0);
        assert_eq!(
            LakeView::value_count(&recovered.lake),
            lake::fixtures::running_example().value_count()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fallback_with_unreplayable_wal_suffix_truncates_it() {
        // Checkpoint at seq 1 trimmed the WAL; batches 2 and 3 were then
        // appended. If snapshot-1 rots, those records cannot chain onto
        // the older snapshot-0 — recovery must return the snapshot-0
        // state and truncate the unreplayable suffix instead of refusing.
        let dir = test_dir("fallback_wal");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        let baseline_tables = lake.live_table_names().len();
        for i in 0..3u32 {
            let batch = vec![delta(i)];
            store.append_batch(0, &batch).unwrap();
            let effects = lake.apply_batch(batch.iter()).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
            net.warm_rankings(&measures);
            if i == 0 {
                store.checkpoint(&lake, &net, 1, &measures).unwrap();
            }
        }
        drop(store);

        let newest = list_snapshots(&dir).unwrap()[0].1.clone();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (mut store, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.snapshots_skipped, 1);
        assert_eq!(recovered.replayed_batches, 0);
        assert_eq!(recovered.wal_batches_discarded, 2, "seqs 2 and 3 dropped");
        assert_eq!(recovered.last_seq, 0);
        assert_eq!(
            recovered.lake.live_table_names().len(),
            baseline_tables,
            "the snapshot-0 state came back"
        );
        assert_eq!(store.wal_record_bytes(), 0, "suffix truncated");
        // The store keeps working: appends resume at seq 1 and a fresh
        // recovery replays them.
        let batch = vec![delta(9)];
        assert_eq!(store.append_batch(0, &batch).unwrap(), 1);
        drop(store);
        let newest = list_snapshots(&dir).unwrap()[0].1.clone();
        fs::remove_file(&newest).unwrap(); // drop the corrupt file entirely
        let (_, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.replayed_batches, 1);
        assert!(recovered.lake.contains_table("extra_9"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_classifies_every_directory_state() {
        let dir = test_dir("probe");
        assert_eq!(
            Store::probe(&dir).unwrap(),
            StorePresence::Fresh,
            "missing directory"
        );
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Store::probe(&dir).unwrap(), StorePresence::Fresh);

        // Store::create writes the WAL; before the initial checkpoint the
        // directory is an aborted init (exactly the crash window a host
        // must recover from by clearing the record-free WAL).
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        match Store::probe(&dir).unwrap() {
            StorePresence::AbortedInit { wal_path } => assert!(wal_path.exists()),
            other => panic!("expected AbortedInit, got {other:?}"),
        }

        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        assert_eq!(Store::probe(&dir).unwrap(), StorePresence::Recoverable);

        // A WAL with records but no snapshot holds acknowledged batches:
        // still Recoverable, so the recovery error reaches an operator.
        let batch = vec![delta(0)];
        store.append_batch(0, &batch).unwrap();
        let effects = lake.apply_batch(batch.iter()).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        drop(store);
        for (_, snap) in list_snapshots(&dir).unwrap() {
            fs::remove_file(snap).unwrap();
        }
        assert_eq!(Store::probe(&dir).unwrap(), StorePresence::Recoverable);
        assert!(matches!(
            Store::recover(&dir).unwrap_err(),
            StoreError::MissingSnapshot { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = test_dir("refuse");
        let (lake, net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        drop(store);
        assert!(matches!(
            Store::create(&dir).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_an_empty_dir_is_missing_snapshot() {
        let dir = test_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Store::recover(&dir).unwrap_err(),
            StoreError::MissingSnapshot { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_after_ships_suffixes_and_detects_trims() {
        let dir = test_dir("ship");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        for i in 0..3u32 {
            let batch = vec![delta(i)];
            store.append_batch(u64::from(i), &batch).unwrap();
            let effects = lake.apply_batch(batch.iter()).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
        }

        // Full tail, partial tail, caught up.
        match store.wal_after(0).unwrap() {
            WalTail::Records(r) => {
                assert_eq!(r.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
                assert_eq!(r[2].epoch, 2, "epoch tags ride along");
            }
            other => panic!("expected records, got {other:?}"),
        }
        match store.wal_after(2).unwrap() {
            WalTail::Records(r) => assert_eq!(r.len(), 1),
            other => panic!("expected records, got {other:?}"),
        }
        match store.wal_after(3).unwrap() {
            WalTail::Records(r) => assert!(r.is_empty(), "caught up"),
            other => panic!("expected records, got {other:?}"),
        }
        // Ahead of the log: typed error, not an empty answer.
        assert!(matches!(
            store.wal_after(4).unwrap_err(),
            StoreError::Corrupt { .. }
        ));

        // A checkpoint trims the log; a replica still at seq 1 must be
        // told to re-bootstrap, not handed a gapped stream.
        net.warm_rankings(&measures);
        store.checkpoint(&lake, &net, 3, &measures).unwrap();
        match store.wal_after(1).unwrap() {
            WalTail::SnapshotRequired { snapshot_seq } => assert_eq!(snapshot_seq, 3),
            other => panic!("expected SnapshotRequired, got {other:?}"),
        }
        match store.wal_after(3).unwrap() {
            WalTail::Records(r) => assert!(r.is_empty(), "caught up post-trim"),
            other => panic!("expected records, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bytes_install_into_a_recoverable_replica_dir() {
        let dir = test_dir("bootstrap_src");
        let replica_dir = test_dir("bootstrap_dst");
        fs::remove_dir_all(&replica_dir).ok();
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        let batch = vec![delta(0)];
        store.append_batch(0, &batch).unwrap();
        let effects = lake.apply_batch(batch.iter()).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        net.warm_rankings(&measures);
        store.checkpoint(&lake, &net, 1, &measures).unwrap();

        let (seq, bytes) = store.newest_snapshot_bytes().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(install_snapshot(&replica_dir, &bytes).unwrap(), 1);
        assert_eq!(
            Store::probe(&replica_dir).unwrap(),
            StorePresence::Recoverable
        );
        let (replica, recovered) = Store::recover(&replica_dir).unwrap();
        assert_eq!(recovered.last_seq, 1);
        assert_eq!(recovered.net.export_state(), net.export_state());
        assert_eq!(replica.next_seq(), 2, "tailing resumes after the snapshot");

        // Refuses a second install and refuses corrupt bytes.
        assert!(matches!(
            install_snapshot(&replica_dir, &bytes).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let fresh = test_dir("bootstrap_bad");
        fs::remove_dir_all(&fresh).ok();
        assert!(install_snapshot(&fresh, &bad).is_err());
        assert!(
            !Store::exists(&fresh),
            "a failed install leaves no half-store behind"
        );
        for d in [&dir, &replica_dir] {
            fs::remove_dir_all(d).unwrap();
        }
        fs::remove_dir_all(&fresh).ok();
    }

    #[test]
    fn append_replicated_refuses_out_of_order_streams() {
        let dir = test_dir("replicated_seq");
        let (lake, net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();
        let batch = vec![delta(0)];
        store.append_replicated(1, 7, &batch).unwrap();
        assert_eq!(store.last_seq(), 1);
        // A skip and a replay are both stream corruption.
        assert!(matches!(
            store.append_replicated(3, 7, &batch).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        assert!(matches!(
            store.append_replicated(1, 7, &batch).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        // The accepted record carries the primary's epoch tag.
        let scan = scan_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].epoch, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batches_replay_with_the_live_resync_semantics() {
        let dir = test_dir("resync");
        let (mut lake, mut net, measures) = engine();
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 0, &measures).unwrap();

        // A batch whose second delta fails: the first sticks, live path
        // resyncs. Log it exactly as the live writer would have.
        let batch = vec![delta(0), LakeDelta::new().remove_table("ghost")];
        store.append_batch(0, &batch).unwrap();
        assert!(lake.apply_batch(batch.iter()).is_err());
        net.refresh(&lake);
        net.warm_rankings(&measures);
        drop(store);

        let (_, recovered) = Store::recover(&dir).unwrap();
        assert_eq!(recovered.resyncs, 1);
        assert_eq!(
            recovered.lake.live_table_names(),
            lake.live_table_names(),
            "partial batch application is reproduced"
        );
        assert_eq!(recovered.net.export_state(), net.export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A table of `columns` columns over tokens `{prefix}0..{prefix}79`:
    /// each token lands in its own seeded set of columns, so the table is
    /// a component of many twin classes.
    fn token_table(name: &str, prefix: &str, columns: usize, seed: u64) -> lake::Table {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut builder = TableBuilder::new(name);
        for c in 0..columns {
            let cells: Vec<String> = (0..40)
                .map(|_| format!("{prefix}{}", rng.gen_range(0..80)))
                .collect();
            builder = builder.column(format!("c{c}"), cells);
        }
        builder.build().unwrap()
    }

    /// Six records folded by a live writer one at a time, then recovered
    /// from the WAL in one fold: the lake (slots and interner) and the net
    /// (raw scores and cardinalities) agree, and so do the resyncs. The
    /// records touch a TUS lake's components, a new component of more than
    /// 32 twin classes and both at once; in two of the runs the lake
    /// refuses the third partway. With sampled BC persisted the recovered
    /// state is the writer's too.
    #[test]
    fn a_suffix_folded_in_one_call_equals_folding_it_record_by_record() {
        let generated = datagen::tus::TusGenerator::new(datagen::tus::TusConfig {
            domain_count: 6,
            ..datagen::tus::TusConfig::small(7)
        })
        .generate();
        let base = MutableLake::from_tables(generated.catalog.tables()).unwrap();
        let tus_table = base.live_table_names()[0].to_owned();
        let tus_value = base.table(&tus_table).unwrap().columns()[0].cells()[0].to_owned();
        let records = vec![
            vec![LakeDelta::new().add_table(token_table("fresh_a", "fa", 12, 1))],
            vec![LakeDelta::new().remove_table(tus_table.as_str())],
            vec![LakeDelta::new().add_table(token_table("fresh_b", "fb", 3, 2))],
            vec![LakeDelta::new().replace_value("fresh_a", "c0", "fa7", "fa81")],
            vec![LakeDelta::new().add_table(
                TableBuilder::new("bridge")
                    .column("x", ["fa3", "fa5", tus_value.as_str()])
                    .build()
                    .unwrap(),
            )],
            vec![LakeDelta::new().remove_table("fresh_b")],
        ];
        let exact = vec![Measure::lcc(), Measure::exact_bc()];
        for (name, measures, refused) in [
            ("exact", exact.clone(), false),
            ("exact, refused", exact, true),
            (
                "sampled, refused",
                vec![Measure::lcc(), Measure::approx_bc(64, 2021)],
                true,
            ),
        ] {
            let mut records = records.clone();
            if refused {
                records[2].push(LakeDelta::new().remove_table("ghost"));
            }
            let dir = test_dir(&format!("suffix_{}", name.replace(", ", "_")));
            let mut lake = base.clone();
            let mut net = DomainNetBuilder::new()
                .prune_single_attribute_values(false)
                .build(&lake);
            net.warm_rankings(&measures);
            let mut store = Store::create(&dir).unwrap();
            store.checkpoint(&lake, &net, 0, &measures).unwrap();
            let mut resyncs = 0;
            for batch in &records {
                store.append_batch(0, batch).unwrap();
                if net.fold_batch(&mut lake, &[batch], &measures).is_err() {
                    resyncs += 1;
                }
            }
            drop(store);

            let (_, recovered) = Store::recover(&dir).unwrap();
            assert_eq!(recovered.replayed_batches, records.len(), "{name}");
            let refusals = usize::from(refused);
            assert_eq!((recovered.resyncs, resyncs), (refusals, refusals), "{name}");
            // Slot by slot: a removed slot's column count, and the live
            // tables materialized in slot order.
            let slots = |lake: &MutableLake| {
                let removed: Vec<Option<usize>> = lake
                    .slots()
                    .iter()
                    .map(|slot| match slot {
                        Slot::Removed { columns } => Some(*columns),
                        Slot::Live(_) => None,
                    })
                    .collect();
                format!("{removed:?} {:?}", lake.tables().collect::<Vec<_>>())
            };
            assert_eq!(slots(&recovered.lake), slots(&lake), "{name}: lake slots");
            assert!(
                recovered.lake.interner().texts() == lake.interner().texts(),
                "{name}: interner"
            );
            let (state, live) = (recovered.net.export_state(), net.export_state());
            assert_eq!(
                state.caches.cardinalities, live.caches.cardinalities,
                "{name}"
            );
            assert_eq!(state.caches.raw.len(), live.caches.raw.len(), "{name}");
            for ((m, a), (_, b)) in state.caches.raw.iter().zip(&live.caches.raw) {
                let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{name}: raw {m:?}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// How many distinct stored texts the live cells hold.
    fn live_text_count(lake: &MutableLake) -> usize {
        let held: std::collections::HashSet<lake::delta::TextId> = lake
            .slots()
            .iter()
            .filter_map(Slot::live)
            .flat_map(|table| &table.columns)
            .flat_map(|column| column.cells.iter().copied())
            .collect();
        held.len()
    }

    /// A checkpoint writes each text a live cell holds once, and no other:
    /// after a seeded write stream leaves texts no live cell uses (removed
    /// tables, rewritten cells), the recovered lake holds none of them, and
    /// its interner, attribute ids, materialized tables and net are the
    /// writer's. Its checkpoint is the bytes it was recovered from.
    #[test]
    fn a_checkpoint_writes_only_the_texts_live_cells_hold() {
        use datagen::mutate::{MutationConfig, MutationStream};

        let dir = test_dir("live_texts");
        let (mut lake, mut net, measures) = engine();
        let mut stream = MutationStream::new(MutationConfig {
            seed: 0x7E47,
            rows_per_table: 6,
            touch_base_tables: true,
            ..MutationConfig::default()
        });
        for _ in 0..40 {
            let effects = lake.apply(&stream.next_delta(&lake)).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
        }
        net.warm_rankings(&measures);
        let dead = lake.text_count() - live_text_count(&lake);
        assert!(dead > 0, "the stream left no dead text");
        let mut store = Store::create(&dir).unwrap();
        store.checkpoint(&lake, &net, 4, &measures).unwrap();
        let (_, written) = store.newest_snapshot_bytes().unwrap();
        drop(store);

        let (_, recovered) = Store::recover(&dir).unwrap();
        let restored = &recovered.lake;
        assert_eq!(live_text_count(restored), restored.text_count());
        assert_eq!(restored.text_count(), lake.text_count() - dead);
        assert!(restored.interner().texts() == lake.interner().texts());
        assert_eq!(restored.attribute_count(), lake.attribute_count());
        for attr in (0..lake.attribute_count() as u32).map(lake::AttrId) {
            assert_eq!(restored.is_attr_live(attr), lake.is_attr_live(attr));
            assert_eq!(restored.attribute_values(attr), lake.attribute_values(attr));
        }
        assert_eq!(
            format!("{:?}", restored.tables().collect::<Vec<_>>()),
            format!("{:?}", lake.tables().collect::<Vec<_>>())
        );
        assert_eq!(recovered.net.export_state(), net.export_state());
        let manifest = Manifest {
            last_seq: 0,
            epoch: 4,
            measures,
        };
        assert!(encode_snapshot_threaded(restored, &recovered.net, &manifest, 1) == written);
        fs::remove_dir_all(&dir).unwrap();
    }
}
