//! The append-only write-ahead delta log.
//!
//! Every committed batch of [`LakeDelta`]s is appended here **before** it
//! is applied to the in-memory engine, so a crash at any instant loses at
//! most work that was never acknowledged. Records carry a monotonically
//! increasing batch sequence number and a CRC-32 over `seq + payload`:
//!
//! ```text
//! magic "DNWAL001" (8) │ format version u32
//! record*:
//!   seq u64 │ epoch u64 │ payload_len u32 │ crc32(seq ‖ epoch ‖ payload) u32 │ payload
//! ```
//!
//! The payload is the JSON encoding of the `Vec<LakeDelta>` batch (deltas
//! are table-level operations — strings all the way down — so JSON
//! round-trips them exactly; scores never pass through the WAL).
//!
//! ## Torn-tail semantics
//!
//! A crash mid-append leaves a partial record at the end of the file.
//! [`scan_wal`] reads records until the first incomplete or CRC-failing
//! one, reports everything before it as the valid prefix, and recovery
//! truncates the file there. A flipped byte mid-log is indistinguishable
//! from a torn tail and is handled the same way: replay stops at the last
//! verifiable record. Structural impossibilities with *valid* CRCs — a
//! non-increasing sequence number, an undecodable batch — are not torn
//! tails and surface as typed [`StoreError::Corrupt`] values instead.
//!
//! ## Durability ordering
//!
//! WAL shipping (read replicas tail this log over HTTP) leans on two
//! invariants, pinned by `durability_ordering_is_pinned` below:
//!
//! 1. **Every `Ok` from [`Wal::append`] is durable and externally
//!    visible.** `append` issues `write_all` + `sync_data` for each
//!    record before returning, so the instant a batch is acknowledged an
//!    independent reader of the file (a scanner, a replica fetch) sees
//!    it, and a crash at any later point keeps it. There is no buffering
//!    layer that could reorder acknowledgement and visibility.
//! 2. **A clean reopen never rewrites history.** [`Wal::open_truncated`]
//!    only pays a truncate + `sync_all` when the on-disk length differs
//!    from the verified prefix — a reopen of an untorn log leaves every
//!    byte untouched, so record offsets and contents a replica already
//!    fetched stay valid across primary restarts. Only an actual torn
//!    tail (which, by invariant 1, can only ever contain *unacknowledged*
//!    bytes) is cut back, exactly to the verified prefix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use lake::delta::{LakeDelta, LakeOp};

use crate::codec::crc32;
use crate::error::{Result, StoreError};

/// The 8-byte magic every WAL file starts with.
pub const WAL_MAGIC: &[u8; 8] = b"DNWAL001";
/// The newest WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

const HEADER_LEN: u64 = 8 + 4;
const RECORD_HEADER_LEN: u64 = 8 + 8 + 4 + 4;

/// One decoded WAL record: a batch of deltas committed under one sequence
/// number.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The batch sequence number.
    pub seq: u64,
    /// The serving epoch the writer had published when it committed this
    /// batch (recovery resumes epoch numbering after the last one).
    pub epoch: u64,
    /// The staged deltas of the batch, in commit order.
    pub batch: Vec<LakeDelta>,
    /// Byte offset of the record's header within the file (recovery
    /// truncates here when a fallback makes the suffix unreplayable).
    pub offset: u64,
}

/// The result of scanning a WAL file front to back.
#[derive(Debug)]
pub struct WalScan {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (where recovery truncates to).
    pub valid_len: u64,
    /// Total file length found on disk.
    pub file_len: u64,
    /// Why scanning stopped early, if it did (torn tail description).
    pub torn: Option<String>,
}

/// Scan a WAL file, verifying every record CRC. Stops at the first
/// incomplete or checksum-failing record (the torn tail) — see the
/// [module docs](self) for which malformations are torn tails and which
/// are typed errors.
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let mut file = File::open(path).map_err(|e| StoreError::io_with_path(e, path))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StoreError::io_with_path(e, path))?;
    let file_len = bytes.len() as u64;

    if file_len < HEADER_LEN {
        // A crash during creation can leave a short or empty file; that is
        // a torn header, not a foreign file.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            file_len,
            torn: Some(format!("header incomplete ({file_len} bytes)")),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic {
            found: bytes[..8].to_vec(),
            expected: WAL_MAGIC,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if (remaining as u64) < RECORD_HEADER_LEN {
            torn = Some(format!("record header incomplete at offset {pos}"));
            break;
        }
        let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let epoch = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 20..pos + 24].try_into().expect("4 bytes"));
        let payload_start = pos + RECORD_HEADER_LEN as usize;
        if bytes.len() - payload_start < len {
            torn = Some(format!("record payload incomplete at offset {pos}"));
            break;
        }
        let payload = &bytes[payload_start..payload_start + len];
        let mut checked = Vec::with_capacity(16 + len);
        checked.extend_from_slice(&seq.to_le_bytes());
        checked.extend_from_slice(&epoch.to_le_bytes());
        checked.extend_from_slice(payload);
        if crc32(&checked) != crc {
            torn = Some(format!("record checksum mismatch at offset {pos}"));
            break;
        }
        // From here on the record is bit-intact; failures are corruption,
        // not torn tails.
        if let Some(prev) = records.last().map(|r: &WalRecord| r.seq) {
            if seq <= prev {
                return Err(StoreError::corrupt(format!(
                    "WAL sequence went backwards: {seq} after {prev}"
                )));
            }
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| StoreError::corrupt(format!("WAL record {seq} is not UTF-8")))?;
        let batch: Vec<LakeDelta> = serde_json::from_str(text)
            .map_err(|e| StoreError::corrupt(format!("WAL record {seq} does not decode: {e}")))?;
        // Serde's derived decode trusts whatever the JSON said; tables ride
        // inside AddTable ops, so re-check their construction invariants
        // (dictionary encoding, rectangularity, unique column names) here
        // — a checksum-valid but structurally impossible record must be a
        // typed error, never a panic during replay.
        for delta in &batch {
            for op in delta.ops() {
                if let LakeOp::AddTable(table) = op {
                    table
                        .validate_encoding()
                        .map_err(|e| StoreError::corrupt(format!("WAL record {seq}: {e}")))?;
                }
            }
        }
        records.push(WalRecord {
            seq,
            epoch,
            batch,
            offset: pos as u64,
        });
        pos = payload_start + len;
    }

    Ok(WalScan {
        records,
        valid_len: pos as u64,
        file_len,
        torn,
    })
}

/// An open WAL with an append cursor.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    len: u64,
}

impl Wal {
    /// Create a fresh WAL (truncating any existing file) with just the
    /// header, synced to disk.
    pub fn create(path: &Path) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io_with_path(e, path))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| StoreError::io_with_path(e, path))?;
        file.write_all(&WAL_VERSION.to_le_bytes())
            .map_err(|e| StoreError::io_with_path(e, path))?;
        file.sync_all()
            .map_err(|e| StoreError::io_with_path(e, path))?;
        Ok(Wal {
            path: path.to_owned(),
            file,
            len: HEADER_LEN,
        })
    }

    /// Open an existing WAL for appending, truncating it to `valid_len`
    /// (the prefix a [`scan_wal`] verified). A `valid_len` below the header
    /// length rewrites the header — the file was torn during creation.
    pub fn open_truncated(path: &Path, valid_len: u64) -> Result<Wal> {
        if valid_len < HEADER_LEN {
            return Wal::create(path);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io_with_path(e, path))?;
        let on_disk = file
            .metadata()
            .map_err(|e| StoreError::io_with_path(e, path))?
            .len();
        if on_disk != valid_len {
            // Only an actual tear pays a truncate + fsync; the common case
            // (clean log) opens without touching the disk.
            file.set_len(valid_len)
                .map_err(|e| StoreError::io_with_path(e, path))?;
            file.sync_all()
                .map_err(|e| StoreError::io_with_path(e, path))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io_with_path(e, path))?;
        Ok(Wal {
            path: path.to_owned(),
            file,
            len: valid_len,
        })
    }

    /// Append one committed batch under `seq`, tagged with the writer's
    /// current serving `epoch`, flushing and syncing before returning —
    /// when this returns `Ok`, the batch survives a crash. Returns the
    /// bytes appended.
    pub fn append(&mut self, seq: u64, epoch: u64, batch: &[LakeDelta]) -> Result<u64> {
        let payload = serde_json::to_string(batch)
            .map_err(|e| StoreError::corrupt(format!("batch {seq} does not encode: {e}")))?;
        let payload = payload.as_bytes();
        if payload.len() > u32::MAX as usize {
            return Err(StoreError::corrupt(format!(
                "batch {seq} encodes to {} bytes, above the record limit",
                payload.len()
            )));
        }
        let mut checked = Vec::with_capacity(16 + payload.len());
        checked.extend_from_slice(&seq.to_le_bytes());
        checked.extend_from_slice(&epoch.to_le_bytes());
        checked.extend_from_slice(payload);
        let crc = crc32(&checked);

        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&seq.to_le_bytes());
        record.extend_from_slice(&epoch.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(payload);
        self.file
            .write_all(&record)
            .map_err(|e| StoreError::io_with_path(e, &self.path))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io_with_path(e, &self.path))?;
        self.len += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Trim the log back to just its header (after a checkpoint has made
    /// every record redundant).
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(HEADER_LEN)
            .map_err(|e| StoreError::io_with_path(e, &self.path))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io_with_path(e, &self.path))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io_with_path(e, &self.path))?;
        self.len = HEADER_LEN;
        Ok(())
    }

    /// Bytes of record data (header excluded) — the quantity checkpoint
    /// policies meter.
    pub fn record_bytes(&self) -> u64 {
        self.len - HEADER_LEN
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake::table::TableBuilder;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        // One scratch dir per test file name — tests run in parallel and
        // must not clobber each other's directories.
        let stem = name.replace('.', "_");
        crate::testutil::scratch_dir(&format!("wal_{stem}")).join(name)
    }

    fn batch(i: u32) -> Vec<LakeDelta> {
        vec![LakeDelta::new().add_table(
            TableBuilder::new(format!("t{i}"))
                .column("c", ["Jaguar", "Puma"])
                .build()
                .unwrap(),
        )]
    }

    #[test]
    fn append_scan_round_trip() {
        let path = tmp("roundtrip.wal");
        let mut wal = Wal::create(&path).unwrap();
        for seq in 1..=3u64 {
            wal.append(seq, 0, &batch(seq as u32)).unwrap();
        }
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, scan.file_len);
        assert_eq!(scan.records.len(), 3);
        for (i, record) in scan.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.batch.len(), 1);
            assert_eq!(record.batch[0].len(), 1);
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_prefix_survives() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, 0, &batch(1)).unwrap();
        let good_len = HEADER_LEN + wal.record_bytes();
        wal.append(2, 0, &batch(2)).unwrap();
        drop(wal);
        // Tear the second record in half.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..good_len as usize + 9]).unwrap();

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        assert!(scan.torn.is_some());

        // Re-opening truncates the tear and appending continues cleanly.
        let mut wal = Wal::open_truncated(&path, scan.valid_len).unwrap();
        wal.append(2, 0, &batch(2)).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn flipped_byte_truncates_from_the_flip() {
        let path = tmp("flip.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, 0, &batch(1)).unwrap();
        let good_len = (HEADER_LEN + wal.record_bytes()) as usize;
        wal.append(2, 0, &batch(2)).unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        bytes[good_len + 20] ^= 0xFF; // inside record 2
        fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "replay stops at the flip");
        assert!(scan.torn.unwrap().contains("checksum"));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn bad_magic_and_future_version_are_typed_errors() {
        let path = tmp("magic.wal");
        fs::write(&path, b"NOTAWAL!!!!!").unwrap();
        assert!(matches!(
            scan_wal(&path).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &header).unwrap();
        assert!(matches!(
            scan_wal(&path).unwrap_err(),
            StoreError::UnsupportedVersion { found: 99, .. }
        ));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn empty_or_headerless_file_is_a_torn_header() {
        let path = tmp("empty.wal");
        fs::write(&path, b"").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn.is_some());
        // open_truncated rewrites the header and the WAL is usable again.
        let mut wal = Wal::open_truncated(&path, scan.valid_len).unwrap();
        wal.append(1, 0, &batch(1)).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records.len(), 1);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn non_monotone_sequence_is_corrupt_not_torn() {
        let path = tmp("seq.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(5, 0, &batch(1)).unwrap();
        wal.append(5, 0, &batch(2)).unwrap(); // duplicate seq, valid CRC
        drop(wal);
        assert!(matches!(
            scan_wal(&path).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn durability_ordering_is_pinned() {
        // The two invariants WAL shipping relies on (see the module docs):
        // an acknowledged append is immediately visible to an independent
        // reader of the file, and a clean reopen does not modify a single
        // byte, while a torn reopen truncates exactly to the verified
        // prefix and nothing more.
        let path = tmp("ordering.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, 0, &batch(1)).unwrap();
        // (1) Acknowledged => visible: a fresh scan of the file (separate
        // descriptor, no shared state with the open writer) sees the
        // record the moment `append` returned Ok.
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "Ok append is externally visible");
        assert_eq!(
            scan.file_len,
            HEADER_LEN + wal.record_bytes(),
            "no buffered suffix"
        );
        wal.append(2, 0, &batch(2)).unwrap();
        drop(wal);

        // (2) Clean reopen: byte-for-byte identical before and after.
        let before = fs::read(&path).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn.is_none());
        let wal = Wal::open_truncated(&path, scan.valid_len).unwrap();
        assert_eq!(HEADER_LEN + wal.record_bytes(), scan.valid_len);
        drop(wal);
        assert_eq!(
            fs::read(&path).unwrap(),
            before,
            "reopen of an untorn log must not rewrite history"
        );

        // (3) Torn reopen: truncates exactly to the verified prefix.
        let first_two = before.len() as u64;
        fs::write(&path, [&before[..], &[0xAB, 0xCD, 0xEF]].concat()).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.valid_len, first_two, "tear detected");
        let mut wal = Wal::open_truncated(&path, scan.valid_len).unwrap();
        assert_eq!(fs::read(&path).unwrap(), before, "cut back to the prefix");
        // Appending after the truncate continues the sequence cleanly.
        wal.append(3, 0, &batch(3)).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records.len(), 3);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reset_trims_to_header() {
        let path = tmp("reset.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, 0, &batch(1)).unwrap();
        assert!(wal.record_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.record_bytes(), 0);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn.is_none());
        // Appending after a reset still works.
        wal.append(7, 0, &batch(7)).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records[0].seq, 7);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
