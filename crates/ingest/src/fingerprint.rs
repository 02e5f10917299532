//! Content fingerprints for drop-folder files.
//!
//! A [`Fingerprint`] identifies one file's content as `(len, mtime, crc32)`.
//! The stat-level prefix (`len` + `mtime`) is cheap and checked every poll;
//! the CRC is only recomputed when the prefix changes, so steady-state polls
//! over an unchanged folder do no content reads at all. Equality of the full
//! fingerprint across two consecutive polls is the ingester's stability
//! guard: a file is only eligible for ingest once it has stopped moving,
//! which keeps half-written files out of the pipeline without any writer
//! cooperation beyond "eventually stop writing".

use std::fs;
use std::io;
use std::path::Path;
use std::time::UNIX_EPOCH;

use serde::{Deserialize, Serialize};

/// Identity of a file's content: size, mtime, and a CRC-32 of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// File length in bytes at stat time.
    pub len: u64,
    /// Modification time, seconds since the Unix epoch.
    pub mtime_s: u64,
    /// Sub-second component of the modification time.
    pub mtime_ns: u32,
    /// CRC-32 (IEEE) of the full file content.
    pub crc: u32,
}

impl Fingerprint {
    /// Whether the content (length + CRC) matches, ignoring mtime. A file
    /// rewritten byte-for-byte identically has the same content fingerprint
    /// and needs no re-parse.
    pub fn same_content(&self, other: &Fingerprint) -> bool {
        self.len == other.len && self.crc == other.crc
    }
}

/// Stat `path` and checksum its content.
///
/// The stat happens before the read, so a file mutated between the two may
/// yield a fingerprint that matches neither the old nor the new content —
/// harmless, because such a fingerprint cannot stay stable across two polls.
pub fn fingerprint_file(path: &Path) -> io::Result<Fingerprint> {
    let meta = fs::metadata(path)?;
    let (mtime_s, mtime_ns) = mtime_parts(&meta);
    let bytes = fs::read(path)?;
    Ok(Fingerprint {
        len: meta.len(),
        mtime_s,
        mtime_ns,
        crc: dn_store::codec::crc32(&bytes),
    })
}

/// Stat-only view used to skip CRC recomputation on unchanged files.
pub fn stat_prefix(path: &Path) -> io::Result<(u64, u64, u32)> {
    let meta = fs::metadata(path)?;
    let (mtime_s, mtime_ns) = mtime_parts(&meta);
    Ok((meta.len(), mtime_s, mtime_ns))
}

fn mtime_parts(meta: &fs::Metadata) -> (u64, u32) {
    match meta.modified() {
        Ok(time) => match time.duration_since(UNIX_EPOCH) {
            Ok(d) => (d.as_secs(), d.subsec_nanos()),
            Err(_) => (0, 0),
        },
        Err(_) => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dn_ingest_fp_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fingerprint_tracks_content() {
        let dir = scratch();
        let path = dir.join("a.csv");
        fs::write(&path, b"x,y\n1,2\n").unwrap();
        let fp1 = fingerprint_file(&path).unwrap();
        let fp2 = fingerprint_file(&path).unwrap();
        assert_eq!(fp1, fp2);
        fs::write(&path, b"x,y\n1,3\n").unwrap();
        let fp3 = fingerprint_file(&path).unwrap();
        assert_eq!(fp3.len, fp1.len);
        assert_ne!(fp3.crc, fp1.crc, "different bytes must change the crc");
        assert!(!fp3.same_content(&fp1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_content_ignores_mtime() {
        let a = Fingerprint {
            len: 10,
            mtime_s: 1,
            mtime_ns: 2,
            crc: 0xdead,
        };
        let b = Fingerprint {
            len: 10,
            mtime_s: 9,
            mtime_ns: 9,
            crc: 0xdead,
        };
        assert!(a.same_content(&b));
    }
}
