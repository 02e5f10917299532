//! The workspace's one atomic file writer.
//!
//! Snapshots, the shard manifest, the rebalance intent and the ingest
//! journal all replace a file that recovery later trusts, so they share
//! one write discipline: a reader (or a post-crash recovery) sees either
//! the complete old content or the complete new content, and once the
//! call returns the new content survives power loss.

use std::ffi::OsString;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::{Result, StoreError};

/// Atomically and durably replace `path` with `bytes`: write a `.tmp`
/// sibling, `sync_all` it, rename it over `path`, then fsync the parent
/// directory so the rename itself is on disk.
///
/// The directory fsync is best-effort: filesystems that refuse to open or
/// sync a directory do not fail the write, whose data is already synced.
///
/// # Errors
/// [`StoreError::Io`] (carrying the offending path) when the sibling cannot
/// be created — e.g. the parent directory is missing — written, synced, or
/// renamed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp_name = OsString::from(path.as_os_str());
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut file = fs::File::create(&tmp).map_err(|e| StoreError::io_with_path(e, &tmp))?;
        file.write_all(bytes)
            .map_err(|e| StoreError::io_with_path(e, &tmp))?;
        file.sync_all()
            .map_err(|e| StoreError::io_with_path(e, &tmp))?;
    }
    fs::rename(&tmp, path).map_err(|e| StoreError::io_with_path(e, path))?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = fs::File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;

    #[test]
    fn replaces_existing_content_and_leaves_no_tmp_sibling() {
        let dir = scratch_dir("write_atomic");
        let path = dir.join("state.json");
        write_atomic(&path, b"first, and longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first, and longer");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second", "old tail is gone");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.json"], "no .tmp sibling left behind");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_parent_is_a_typed_error() {
        let dir = scratch_dir("write_atomic_missing");
        let path = dir.join("no-such-dir").join("state.json");
        match write_atomic(&path, b"x") {
            Err(StoreError::Io {
                path: Some(at),
                source,
            }) => {
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
                assert!(at.starts_with(dir.join("no-such-dir")));
            }
            other => panic!("expected a typed I/O error, got {other:?}"),
        }
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
