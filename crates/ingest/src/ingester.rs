//! The ingest loop: watch → diff → deliver → journal.
//!
//! Each [`Ingester::poll_once`] cycle:
//!
//! 1. **Recover** — if the journal holds a pending batch from an interrupted
//!    run, redeliver it first (see the exactly-once rules below).
//! 2. **Scan** — list `*.csv` files in the drop-folder and fingerprint them
//!    (stat prefix first; content CRC only when the stat changed).
//! 3. **Stabilize** — a changed file becomes eligible only once its
//!    fingerprint is identical across two consecutive polls, so half-written
//!    files are never parsed.
//! 4. **Diff** — parse eligible files (strict CSV) and diff against the
//!    last-applied generation to synthesize minimal deltas; files that fail
//!    to parse are counted as torn, skipped, and retried next poll.
//! 5. **Deliver** — pack deltas into bounded batches; for each batch, write
//!    the journal intent (pending batch, fsynced), deliver through the sink
//!    with retry/backoff on transient failures, then commit the journal
//!    (advance `seq`, fold fingerprints, clear pending).
//!
//! ## Exactly-once rules
//!
//! A transient delivery failure leaves the batch *maybe applied* (a timed-out
//! HTTP POST may have committed server-side). The journal pins the batch as
//! pending until resolved, and redelivery resolves it:
//!
//! - `Ok` on redelivery → applied now (deltas are synthesized to be
//!   idempotent-by-construction: `ReplaceValue` ops whose target is gone
//!   rewrite zero cells; remove+add rewrites reconverge to the same state).
//! - `Rejected` during restart recovery, or after a transient attempt on a
//!   sink where transient failures can still have applied, is read as
//!   evidence the earlier delivery landed (e.g. redelivering an `AddTable`
//!   trips `DuplicateTable`): the batch is committed without reapplying.
//! - `Rejected` on the first-ever attempt means the batch is genuinely
//!   invalid for the engine's state: it is dropped from the journal and the
//!   error surfaces; the next poll re-synthesizes (and re-surfaces) it until
//!   the conflict is fixed.
//!
//! These rules are sound under the subsystem's single-writer assumption: the
//! ingester is the only writer of the tables it manages. An operator
//! mutating ingester-owned tables through `/v1/mutations` voids the
//! redelivery inference (a `DuplicateTable` might then mean an operator
//! collision, not a prior delivery).

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lake::loader::{load_table, LoadOptions};
use lake::{LakeDelta, Table};

use crate::diff::{diff_tables, rewrite_delta};
use crate::error::IngestError;
use crate::fingerprint::{fingerprint_file, stat_prefix, Fingerprint};
use crate::journal::{FileChange, Journal, JournalState, PendingBatch};
use crate::sink::{DeltaSink, SinkError};
use crate::stats::IngestStats;

/// Max total ops packed into one delivered batch (soft: a single oversized
/// file delta still ships alone rather than splitting).
const MAX_OPS_PER_BATCH: usize = 256;

/// Ceiling of the doubling delivery backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Tunables for one ingester.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The drop-folder to watch for `*.csv` files.
    pub watch_dir: PathBuf,
    /// Where the resume journal lives. Defaults to
    /// `<watch_dir>/.dn-ingest.journal` (hidden, non-`.csv`, so the scanner
    /// ignores it); dn-serve overrides this to sit next to its data dir.
    pub journal_path: PathBuf,
    /// Delay between poll cycles in [`Ingester::run`].
    pub poll_interval: Duration,
    /// Max file-level deltas packed into one delivered batch.
    pub max_deltas_per_batch: usize,
    /// Delivery attempts per batch before giving up until the next poll.
    pub max_attempts: u32,
    /// Initial backoff after a transient delivery failure (doubles per
    /// retry up to two seconds).
    pub backoff: Duration,
}

impl IngestConfig {
    pub fn new(watch_dir: impl Into<PathBuf>) -> Self {
        let watch_dir = watch_dir.into();
        let journal_path = watch_dir.join(".dn-ingest.journal");
        Self {
            watch_dir,
            journal_path,
            poll_interval: Duration::from_millis(500),
            max_deltas_per_batch: 8,
            max_attempts: 5,
            backoff: Duration::from_millis(50),
        }
    }
}

/// What one poll cycle did — returned for tests, logging, and smoke gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollReport {
    /// `*.csv` files present in the drop-folder this poll.
    pub files_scanned: usize,
    /// Files whose stable fingerprint differed from the journal.
    pub changed_files: usize,
    /// Journaled files found deleted from the folder.
    pub deletions: usize,
    /// Batches delivered and committed this poll.
    pub batches_delivered: usize,
    /// Total ops across the delivered batches.
    pub ops_delivered: usize,
    /// Files skipped because they failed to parse (retried next poll).
    pub torn_skipped: usize,
    /// Fingerprint-only journal updates (content unchanged or value-equal).
    pub silent_updates: usize,
    /// Whether a pending batch from an earlier run was redelivered.
    pub redelivered: bool,
    /// Whether the folder and the journal fully agree after this poll.
    pub caught_up: bool,
}

#[derive(Debug, Clone, Copy)]
struct Observation {
    fp: Fingerprint,
    stable: bool,
}

struct FileAction {
    name: String,
    delta: LakeDelta,
    after: Option<Fingerprint>,
    table: Option<Table>,
}

/// The drop-folder ingester. Generic over its delivery [`DeltaSink`].
pub struct Ingester<S: DeltaSink> {
    config: IngestConfig,
    sink: S,
    stats: Arc<IngestStats>,
    journal: Journal,
    state: JournalState,
    /// Last-applied parse per live table (keyed by table name / file stem);
    /// the diff base. Absent entries force the remove+add rewrite fallback.
    tables: HashMap<String, Table>,
    /// Last poll's fingerprints, for the two-poll stability guard.
    observed: HashMap<String, Observation>,
    /// Fingerprints already counted as torn, so a persistently broken file
    /// increments the counter once per new content, not once per poll.
    torn_seen: HashMap<String, Fingerprint>,
    /// First time each unapplied change was observed (drives the lag gauge).
    change_seen: HashMap<String, Instant>,
}

fn strict_load() -> LoadOptions {
    LoadOptions {
        strict: true,
        ..LoadOptions::default()
    }
}

fn table_stem(name: &str) -> String {
    Path::new(name)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| name.to_string())
}

impl<S: DeltaSink> Ingester<S> {
    /// Open (or create) the journal, rebuild the diff base from files whose
    /// content still matches their journaled fingerprint, and return an
    /// ingester ready to poll. A pending batch in the journal is *not*
    /// resolved here — the first `poll_once` redelivers it.
    pub fn new(
        config: IngestConfig,
        sink: S,
        stats: Arc<IngestStats>,
    ) -> Result<Self, IngestError> {
        fs::create_dir_all(&config.watch_dir).map_err(|e| IngestError::io(&config.watch_dir, e))?;
        let journal = Journal::new(&config.journal_path);
        let state = journal.load()?.unwrap_or_default();
        let mut tables = HashMap::new();
        for entry in &state.files {
            let path = config.watch_dir.join(&entry.name);
            if let Ok(fp) = fingerprint_file(&path) {
                if fp.same_content(&entry.fingerprint) {
                    if let Ok(table) = load_table(&path, strict_load()) {
                        tables.insert(table_stem(&entry.name), table);
                    }
                }
            }
        }
        Ok(Self {
            config,
            sink,
            stats,
            journal,
            state,
            tables,
            observed: HashMap::new(),
            torn_seen: HashMap::new(),
            change_seen: HashMap::new(),
        })
    }

    /// Sequence number of the last batch confirmed applied.
    pub fn last_seq(&self) -> u64 {
        self.state.seq
    }

    /// Whether a batch is pending resolution in the journal.
    pub fn has_pending(&self) -> bool {
        self.state.pending.is_some()
    }

    /// Run one watch → diff → deliver → journal cycle.
    pub fn poll_once(&mut self) -> Result<PollReport, IngestError> {
        // One trace per poll cycle (subject to the sampling draw). While
        // active, the sink's HTTP deliveries forward the trace ID, so the
        // server's ring shows this cycle's mutations under the same ID.
        let _trace = dn_trace::start_trace("ingest_poll", None);
        self.stats.polls.inc();
        let mut report = PollReport::default();
        self.recover_pending(&mut report)?;

        let scan_span = dn_trace::span(dn_trace::Phase::IngestScan);
        let names = self.scan()?;
        report.files_scanned = names.len();
        self.stats.files_seen.add(names.len() as u64);
        let present: HashSet<&String> = names.iter().collect();
        self.observed.retain(|name, _| present.contains(name));
        self.torn_seen.retain(|name, _| present.contains(name));

        // Fingerprint and apply the two-poll stability guard.
        for name in &names {
            let path = self.config.watch_dir.join(name);
            let fp = match self.fingerprint_cached(&path, name) {
                Ok(fp) => fp,
                // The file vanished or became unreadable mid-poll; it will
                // show up as a deletion or fresh change next poll.
                Err(_) => {
                    self.observed.remove(name);
                    continue;
                }
            };
            let stable = self.observed.get(name).map(|o| o.fp == fp).unwrap_or(false);
            self.observed
                .insert(name.clone(), Observation { fp, stable });
        }
        drop(scan_span);

        let diff_span = dn_trace::span(dn_trace::Phase::IngestDiff);
        let mut actions: Vec<FileAction> = Vec::new();

        // Deletions: journaled files no longer on disk.
        let deleted: Vec<String> = self
            .state
            .files
            .iter()
            .map(|e| e.name.clone())
            .filter(|name| !present.contains(name))
            .collect();
        for name in deleted {
            report.deletions += 1;
            actions.push(FileAction {
                delta: LakeDelta::new().remove_table(table_stem(&name)),
                after: None,
                table: None,
                name,
            });
        }

        // Adds and updates: stable files whose fingerprint moved past the
        // journal's last-applied generation.
        let mut silent: Vec<FileChange> = Vec::new();
        for name in &names {
            let obs = match self.observed.get(name) {
                Some(obs) => *obs,
                None => continue,
            };
            let journaled = self.state.fingerprint_of(name).copied();
            if journaled.as_ref() == Some(&obs.fp) {
                continue;
            }
            if !obs.stable {
                continue; // wait for the fingerprint to settle
            }
            report.changed_files += 1;
            if let Some(prev) = &journaled {
                if prev.same_content(&obs.fp) {
                    // Rewritten byte-identically (mtime churn): refresh the
                    // journal without delivering anything.
                    silent.push(FileChange {
                        name: name.clone(),
                        after: Some(obs.fp),
                    });
                    continue;
                }
            }
            let path = self.config.watch_dir.join(name);
            let table = match load_table(&path, strict_load()) {
                Ok(table) => table,
                Err(_) => {
                    report.torn_skipped += 1;
                    let counted = self
                        .torn_seen
                        .get(name)
                        .map(|fp| *fp == obs.fp)
                        .unwrap_or(false);
                    if !counted {
                        self.stats.torn_files.inc();
                        self.torn_seen.insert(name.clone(), obs.fp);
                    }
                    continue;
                }
            };
            self.torn_seen.remove(name);
            let stem = table_stem(name);
            let (delta, rows) = if journaled.is_none() {
                let rows = table.row_count() as u64;
                (LakeDelta::new().add_table(table.clone()), rows)
            } else if let Some(base) = self.tables.get(&stem) {
                let diff = diff_tables(base, &table);
                (diff.delta, diff.rows_diffed)
            } else {
                // The applied generation is unreconstructable (file changed
                // while the ingester was down): full rewrite.
                let rows = table.row_count() as u64;
                (rewrite_delta(&stem, &table), rows)
            };
            self.stats.rows_diffed.add(rows);
            if delta.is_empty() {
                // Value-identical content under a new fingerprint.
                self.tables.insert(stem, table);
                silent.push(FileChange {
                    name: name.clone(),
                    after: Some(obs.fp),
                });
                continue;
            }
            actions.push(FileAction {
                name: name.clone(),
                delta,
                after: Some(obs.fp),
                table: Some(table),
            });
        }

        drop(diff_span);

        // Deliver in bounded batches; deletions lead so renames
        // (delete old + add new) always remove before re-adding.
        report.silent_updates = silent.len();
        let mut batch: Vec<FileAction> = Vec::new();
        let mut batch_ops = 0usize;
        for action in actions {
            let ops = action.delta.len();
            let full = !batch.is_empty()
                && (batch.len() >= self.config.max_deltas_per_batch
                    || batch_ops + ops > MAX_OPS_PER_BATCH);
            if full {
                self.deliver_fresh_batch(std::mem::take(&mut batch), &mut report)?;
                batch_ops = 0;
            }
            batch_ops += ops;
            batch.push(action);
        }
        if !batch.is_empty() {
            self.deliver_fresh_batch(batch, &mut report)?;
        }

        if !silent.is_empty() {
            self.state.apply_changes(&silent);
            self.journal.save(&self.state)?;
        }

        self.refresh_lag();
        report.caught_up =
            !self.has_pending() && self.change_seen.is_empty() && self.torn_seen.is_empty();
        Ok(report)
    }

    /// Poll until `stop` is set, sleeping `poll_interval` between cycles.
    ///
    /// After each cycle `on_cycle` receives the ingester and the poll's
    /// outcome: its report, or a transient error or fresh-batch rejection
    /// that later polls retry. Journal corruption aborts before the hook
    /// runs: resuming past it could double-apply a batch.
    pub fn run<F: FnMut(&Self, Result<&PollReport, &IngestError>)>(
        &mut self,
        stop: &AtomicBool,
        mut on_cycle: F,
    ) -> Result<(), IngestError> {
        while !stop.load(Ordering::Relaxed) {
            match self.poll_once() {
                Ok(report) => on_cycle(self, Ok(&report)),
                Err(e @ IngestError::Journal { .. }) => return Err(e),
                Err(e) => on_cycle(self, Err(&e)),
            }
            let mut remaining = self.config.poll_interval;
            while !stop.load(Ordering::Relaxed) && !remaining.is_zero() {
                let slice = remaining.min(Duration::from_millis(50));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
        Ok(())
    }

    fn scan(&self) -> Result<Vec<String>, IngestError> {
        let mut names: Vec<String> = fs::read_dir(&self.config.watch_dir)
            .map_err(|e| IngestError::io(&self.config.watch_dir, e))?
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| {
                Path::new(name)
                    .extension()
                    .map(|ext| ext.eq_ignore_ascii_case("csv"))
                    .unwrap_or(false)
            })
            .collect();
        names.sort();
        Ok(names)
    }

    /// Fingerprint `path`, reusing the cached CRC when the stat prefix is
    /// unchanged since the last poll — steady-state polls read no content.
    fn fingerprint_cached(&self, path: &Path, name: &str) -> Result<Fingerprint, IngestError> {
        if let Some(obs) = self.observed.get(name) {
            let (len, mtime_s, mtime_ns) =
                stat_prefix(path).map_err(|e| IngestError::io(path, e))?;
            let prev = obs.fp;
            if prev.len == len && prev.mtime_s == mtime_s && prev.mtime_ns == mtime_ns {
                return Ok(prev);
            }
        }
        fingerprint_file(path).map_err(|e| IngestError::io(path, e))
    }

    fn recover_pending(&mut self, report: &mut PollReport) -> Result<(), IngestError> {
        let pending = match &self.state.pending {
            Some(pending) => pending.clone(),
            None => return Ok(()),
        };
        report.redelivered = true;
        match self.deliver_with_retry(pending.seq, &pending.deltas, false) {
            Ok(()) => self.commit_pending(HashMap::new()),
            Err(e) => Err(e),
        }
    }

    fn deliver_fresh_batch(
        &mut self,
        actions: Vec<FileAction>,
        report: &mut PollReport,
    ) -> Result<(), IngestError> {
        let seq = self.state.seq + 1;
        let deltas: Vec<LakeDelta> = actions.iter().map(|a| a.delta.clone()).collect();
        let ops: usize = deltas.iter().map(LakeDelta::len).sum();
        let changes: Vec<FileChange> = actions
            .iter()
            .map(|a| FileChange {
                name: a.name.clone(),
                after: a.after,
            })
            .collect();
        let parsed: HashMap<String, Table> = actions
            .into_iter()
            .filter_map(|a| a.table.map(|t| (table_stem(&a.name), t)))
            .collect();

        // Phase 1: write-ahead intent, durable before the first attempt.
        self.state.pending = Some(PendingBatch {
            seq,
            deltas: deltas.clone(),
            files: changes,
        });
        self.journal.save(&self.state)?;

        match self.deliver_with_retry(seq, &deltas, true) {
            Ok(()) => {
                // Phase 2: confirmed applied.
                self.commit_pending(parsed)?;
                report.batches_delivered += 1;
                report.ops_delivered += ops;
                Ok(())
            }
            Err(e @ IngestError::Rejected { .. }) => {
                // Genuinely invalid batch: drop the intent so the journal
                // does not claim it was applied, surface the error, and let
                // later polls re-synthesize it.
                self.state.pending = None;
                self.journal.save(&self.state)?;
                Err(e)
            }
            Err(e) => Err(e), // transient exhaustion: pending stays for redelivery
        }
    }

    fn deliver_with_retry(
        &mut self,
        seq: u64,
        deltas: &[LakeDelta],
        fresh: bool,
    ) -> Result<(), IngestError> {
        let _deliver = dn_trace::span(dn_trace::Phase::IngestDeliver);
        let mut backoff = self.config.backoff;
        let attempts = self.config.max_attempts.max(1);
        for attempt in 1..=attempts {
            match self.sink.deliver(seq, deltas) {
                Ok(()) => return Ok(()),
                Err(SinkError::Rejected(message)) => {
                    let genuinely_rejected =
                        fresh && (attempt == 1 || self.sink.transient_means_unapplied());
                    if genuinely_rejected {
                        return Err(IngestError::Rejected { seq, message });
                    }
                    // Redelivery of a maybe-applied batch tripped over its
                    // own effects: evidence the original delivery landed.
                    return Ok(());
                }
                Err(SinkError::Transient(message)) => {
                    if attempt == attempts {
                        return Err(IngestError::SinkExhausted {
                            seq,
                            attempts,
                            message,
                        });
                    }
                    self.stats.retries.inc();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
            }
        }
        unreachable!("retry loop returns on every arm")
    }

    /// Phase 2 of delivery: fold the pending batch into the committed state.
    /// `parsed` carries the freshly parsed tables for the diff base; during
    /// restart recovery it is empty and the base is rebuilt from disk where
    /// the content still matches.
    fn commit_pending(&mut self, mut parsed: HashMap<String, Table>) -> Result<(), IngestError> {
        let pending = self
            .state
            .pending
            .take()
            .expect("commit_pending requires a pending batch");
        self.state.seq = pending.seq;
        self.state.apply_changes(&pending.files);
        self.journal.save(&self.state)?;
        self.stats.batches_applied.inc();
        for change in &pending.files {
            let stem = table_stem(&change.name);
            match &change.after {
                None => {
                    self.tables.remove(&stem);
                }
                Some(fp) => {
                    if let Some(table) = parsed.remove(&stem) {
                        self.tables.insert(stem, table);
                    } else {
                        // Recovery path: re-parse from disk when the file
                        // still holds the applied generation; otherwise the
                        // base stays absent and the next change of this file
                        // takes the rewrite fallback.
                        let path = self.config.watch_dir.join(&change.name);
                        let matches = fingerprint_file(&path)
                            .map(|cur| cur.same_content(fp))
                            .unwrap_or(false);
                        let reparsed = matches
                            .then(|| load_table(&path, strict_load()).ok())
                            .flatten();
                        match reparsed {
                            Some(table) => {
                                self.tables.insert(stem, table);
                            }
                            None => {
                                self.tables.remove(&stem);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Update the lag gauge: age of the oldest observed change that the
    /// journal has not yet recorded as applied.
    fn refresh_lag(&mut self) {
        let now = Instant::now();
        let mut mismatched: HashSet<String> = HashSet::new();
        for (name, obs) in &self.observed {
            if self.state.fingerprint_of(name) != Some(&obs.fp) {
                mismatched.insert(name.clone());
            }
        }
        for entry in &self.state.files {
            if !self.observed.contains_key(&entry.name) {
                mismatched.insert(entry.name.clone());
            }
        }
        self.change_seen.retain(|name, _| mismatched.contains(name));
        for name in mismatched {
            self.change_seen.entry(name).or_insert(now);
        }
        let lag_millis = self
            .change_seen
            .values()
            .map(|t| t.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        self.stats.lag_millis.set(lag_millis);
    }
}
