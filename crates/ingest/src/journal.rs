//! The checksummed ingest journal: the ingester's exactly-once ledger.
//!
//! The journal records, per drop-folder file, the fingerprint of the last
//! generation whose deltas were *applied* by the sink, plus the sequence
//! number of the last applied batch and (transiently) the one pending batch
//! in flight. Every save is atomic — serialize, CRC-32 the payload, write a
//! `.tmp` sibling, fsync, rename, fsync the directory — so a crash leaves either the previous
//! state or the new one, never a torn file. A journal whose checksum does
//! not verify is a fatal [`IngestError::Journal`]: guessing at its content
//! could double-apply or drop a batch.
//!
//! Delivery is two-phase. Before the first delivery attempt of batch `seq`,
//! the journal is saved with `pending = Some(batch)` (the write-ahead
//! intent). After the sink acknowledges — or redelivery after a restart
//! resolves the batch as already applied — the journal is saved again with
//! `pending = None`, `seq` advanced, and the per-file fingerprints moved to
//! the batch's post-state. An ingester killed between the two phases finds
//! the pending batch on restart and redelivers it; the sink-level
//! idempotency rules (see the crate docs) make that redelivery a no-op.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::IngestError;
use crate::fingerprint::Fingerprint;
use lake::LakeDelta;

const MAGIC: &str = "dn-ingest-journal v1";

/// Last applied fingerprint for one drop-folder file (keyed by file name,
/// e.g. `zoo.csv`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    pub name: String,
    pub fingerprint: Fingerprint,
}

/// Post-delivery fingerprint change for one file. `after = None` records a
/// deletion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileChange {
    pub name: String,
    pub after: Option<Fingerprint>,
}

/// A batch whose delivery has been intended (and possibly attempted) but
/// not yet confirmed applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PendingBatch {
    /// Sequence number this batch will commit as.
    pub seq: u64,
    /// The deltas to deliver, in order.
    pub deltas: Vec<LakeDelta>,
    /// Fingerprint changes to fold into [`JournalState::files`] once the
    /// batch is confirmed applied.
    pub files: Vec<FileChange>,
}

/// The serialized journal state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JournalState {
    /// Sequence number of the last batch confirmed applied.
    pub seq: u64,
    /// Per-file fingerprints of the last applied generation, sorted by name.
    pub files: Vec<FileEntry>,
    /// The in-flight batch, if a delivery was interrupted.
    pub pending: Option<PendingBatch>,
}

impl JournalState {
    /// Fingerprint of the last applied generation of `name`, if any.
    pub fn fingerprint_of(&self, name: &str) -> Option<&Fingerprint> {
        self.files
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.fingerprint)
    }

    /// Fold a batch's post-delivery fingerprint changes into the file map,
    /// keeping it sorted by name.
    pub fn apply_changes(&mut self, changes: &[FileChange]) {
        for change in changes {
            match &change.after {
                Some(fp) => match self.files.iter_mut().find(|e| e.name == change.name) {
                    Some(entry) => entry.fingerprint = *fp,
                    None => {
                        self.files.push(FileEntry {
                            name: change.name.clone(),
                            fingerprint: *fp,
                        });
                    }
                },
                None => self.files.retain(|e| e.name != change.name),
            }
        }
        self.files.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// Handle on the journal file; owns the atomic load/save protocol.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load the journal. `Ok(None)` when no journal exists yet (first run);
    /// [`IngestError::Journal`] when one exists but fails verification.
    pub fn load(&self) -> Result<Option<JournalState>, IngestError> {
        let bytes = match fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(IngestError::io(&self.path, e)),
        };
        decode(&bytes)
            .map(Some)
            .map_err(|message| IngestError::Journal {
                path: self.path.clone(),
                message,
            })
    }

    /// Atomically persist `state` (see [`dn_store::write_atomic`]).
    pub fn save(&self, state: &JournalState) -> Result<(), IngestError> {
        let _journal = dn_trace::span(dn_trace::Phase::IngestJournal);
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent).map_err(|e| IngestError::io(parent, e))?;
        }
        dn_store::write_atomic(&self.path, &encode(state)).map_err(|e| match e {
            dn_store::StoreError::Io { path, source } => IngestError::Io { path, source },
            other => IngestError::io(&self.path, io::Error::other(other)),
        })
    }
}

fn encode(state: &JournalState) -> Vec<u8> {
    let payload = serde_json::to_string(state).expect("journal state serializes");
    let payload = payload.into_bytes();
    let mut out = format!(
        "{MAGIC} {:08x} {}\n",
        dn_store::codec::crc32(&payload),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(&payload);
    out
}

fn decode(bytes: &[u8]) -> Result<JournalState, String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let header =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| "non-UTF-8 header".to_string())?;
    let rest = &bytes[newline + 1..];
    let suffix = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| format!("bad magic (expected `{MAGIC}`)"))?;
    let mut parts = suffix.split_whitespace();
    let crc_hex = parts.next().ok_or_else(|| "missing crc".to_string())?;
    let len_str = parts.next().ok_or_else(|| "missing length".to_string())?;
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| "unparsable crc".to_string())?;
    let len: usize = len_str
        .parse()
        .map_err(|_| "unparsable length".to_string())?;
    if rest.len() != len {
        return Err(format!("payload length {} != declared {len}", rest.len()));
    }
    let actual = dn_store::codec::crc32(rest);
    if actual != crc {
        return Err(format!("payload crc {actual:08x} != declared {crc:08x}"));
    }
    let text = std::str::from_utf8(rest).map_err(|_| "non-UTF-8 payload".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("undecodable payload: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dn_ingest_journal_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fp(crc: u32) -> Fingerprint {
        Fingerprint {
            len: 1,
            mtime_s: 2,
            mtime_ns: 3,
            crc,
        }
    }

    #[test]
    fn round_trips_state() {
        let dir = scratch();
        let journal = Journal::new(dir.join("ingest.journal"));
        assert!(journal.load().unwrap().is_none(), "fresh journal is absent");
        let mut state = JournalState {
            seq: 7,
            ..JournalState::default()
        };
        state.files.push(FileEntry {
            name: "zoo.csv".to_string(),
            fingerprint: fp(0xabcd),
        });
        state.pending = Some(PendingBatch {
            seq: 8,
            deltas: vec![LakeDelta::new().remove_table("zoo")],
            files: vec![FileChange {
                name: "zoo.csv".to_string(),
                after: None,
            }],
        });
        journal.save(&state).unwrap();
        let loaded = journal.load().unwrap().expect("journal exists");
        assert_eq!(loaded.seq, 7);
        assert_eq!(loaded.files, state.files);
        let pending = loaded.pending.expect("pending survives");
        assert_eq!(pending.seq, 8);
        assert_eq!(pending.deltas.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_fatal_error() {
        let dir = scratch();
        let journal = Journal::new(dir.join("ingest.journal"));
        journal.save(&JournalState::default()).unwrap();
        let mut bytes = fs::read(journal.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x42;
        fs::write(journal.path(), &bytes).unwrap();
        match journal.load() {
            Err(IngestError::Journal { .. }) => {}
            other => panic!("expected Journal error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_journal_is_rejected() {
        let dir = scratch();
        let journal = Journal::new(dir.join("ingest.journal"));
        journal.save(&JournalState::default()).unwrap();
        let bytes = fs::read(journal.path()).unwrap();
        fs::write(journal.path(), &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(journal.load(), Err(IngestError::Journal { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_changes_upserts_and_deletes() {
        let mut state = JournalState::default();
        state.apply_changes(&[
            FileChange {
                name: "b.csv".into(),
                after: Some(fp(1)),
            },
            FileChange {
                name: "a.csv".into(),
                after: Some(fp(2)),
            },
        ]);
        assert_eq!(state.files.len(), 2);
        assert_eq!(state.files[0].name, "a.csv", "entries stay sorted");
        state.apply_changes(&[
            FileChange {
                name: "a.csv".into(),
                after: Some(fp(3)),
            },
            FileChange {
                name: "b.csv".into(),
                after: None,
            },
        ]);
        assert_eq!(state.files.len(), 1);
        assert_eq!(state.files[0].fingerprint.crc, 3);
    }
}
