//! dn-ingest — CDC-style streaming ingest for DomainNet.
//!
//! Tails a drop-folder of CSV files and turns file adds, updates, deletes,
//! and renames into minimal [`lake::LakeDelta`] batches against a live
//! serving engine — in-process through a shared
//! [`dn_service::Coordinator`] (`dn-serve --ingest-dir`), or over HTTP via
//! `POST /v1/mutations` (the standalone `dn-ingest` CLI). Std-only like the
//! rest of the workspace: the watcher polls (no inotify), HTTP rides the
//! hand-rolled dn-server client, and durability is tmp+rename+fsync.
//!
//! The pipeline is watch → diff → deliver → journal:
//!
//! - **watch** ([`fingerprint`]): each poll fingerprints every `*.csv` file
//!   as size + mtime + content CRC-32; a file is eligible only once its
//!   fingerprint holds across two consecutive polls, so half-written files
//!   are never read.
//! - **diff** ([`diff`]): a changed table is diffed against its last
//!   ingested generation into value-granularity `ReplaceValue` ops when the
//!   change is a consistent substitution, falling back to a remove+add
//!   rewrite otherwise. Files that fail to parse are skipped with a typed
//!   error and retried next poll.
//! - **deliver** ([`sink`]): bounded batches flow through a [`DeltaSink`]
//!   with exponential retry/backoff on transient failures.
//! - **journal** ([`journal`]): a checksummed, atomically-rewritten resume
//!   journal records per-file applied fingerprints plus the one in-flight
//!   batch, giving a killed-and-restarted ingester exactly-once delivery.
//!
//! ## The exactly-once argument
//!
//! Every batch is journalled as a pending intent (fsynced) *before* its
//! first delivery attempt and committed (seq advanced, fingerprints folded,
//! pending cleared) only after delivery resolves. A crash therefore leaves
//! at most one ambiguous batch, and it is redelivered on restart. Ambiguity
//! is resolved by construction and by inference:
//!
//! - Deltas are idempotent-by-construction where possible: redelivering a
//!   `ReplaceValue` whose target was already rewritten touches zero cells,
//!   and a remove+add rewrite reconverges to the same end state.
//! - Where redelivery is *not* silent (`AddTable` → `DuplicateTable`,
//!   `RemoveTable` → `NotFound`), a rejection during recovery is read as
//!   evidence the original delivery applied, and the batch commits without
//!   reapplying. A rejection on a batch's first-ever attempt is instead a
//!   genuine rejection: the intent is dropped and the error surfaces.
//!
//! The inference is sound under a single-writer assumption: the ingester is
//! the only writer of the tables it manages. Operators who mutate
//! ingester-owned tables concurrently void it (a `DuplicateTable` could then
//! mean an operator collision rather than a prior delivery).

pub mod diff;
pub mod error;
pub mod fingerprint;
pub mod ingester;
pub mod journal;
pub mod sink;
pub mod stats;

pub use diff::{diff_tables, rewrite_delta, TableDiff};
pub use error::IngestError;
pub use fingerprint::{fingerprint_file, Fingerprint};
pub use ingester::{IngestConfig, Ingester, PollReport};
pub use journal::{FileChange, FileEntry, Journal, JournalState, PendingBatch};
pub use sink::{CoordinatorSink, DeltaSink, SinkError};
pub use stats::IngestStats;
