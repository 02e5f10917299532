//! On-disk layout of a *sharded* store: one [`crate::Store`] per shard
//! under a common root, tied together by a small JSON manifest and an
//! optional rebalance-intent file.
//!
//! ```text
//! <root>/
//!   shards.json            # {"format":1,"shards":N} — written first, atomically
//!   rebalance.intent       # present only while a cross-shard migration runs
//!   shard-0/               # a full, independent Store (snapshots + WAL)
//!   shard-1/
//!   ...
//! ```
//!
//! The manifest is written *before* any shard store is created, so a crash
//! during initialization leaves a root whose shard count is already known;
//! recovery then treats every missing or aborted shard directory as a
//! fresh, empty shard (nothing acknowledged can live there — a shard only
//! acknowledges commits after its own WAL append). The intent file is the
//! crash guard for cross-shard component migrations: it is written
//! ([`crate::write_atomic`]) before the first table moves and removed only after
//! the whole move-set has been re-homed, so recovery can always finish a
//! half-done rebalance instead of leaving one component split across two
//! shards.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::atomic::write_atomic;
use crate::error::{Result, StoreError};

/// File name of the shard-count manifest under the sharded root.
pub const SHARD_MANIFEST_FILE: &str = "shards.json";
/// File name of the rebalance-intent file under the sharded root.
pub const REBALANCE_INTENT_FILE: &str = "rebalance.intent";
/// Manifest format version this build reads and writes.
pub const SHARD_MANIFEST_FORMAT: u32 = 1;

/// The sharded root's manifest: how many shard stores live below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest format version (see [`SHARD_MANIFEST_FORMAT`]).
    pub format: u32,
    /// Number of shard engines/stores under this root.
    pub shards: usize,
}

/// One table being re-homed by a cross-shard component migration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableMove {
    /// Live table name being moved.
    pub table: String,
    /// Shard index the table is moving away from.
    pub from: usize,
    /// Shard index the table is moving into.
    pub to: usize,
}

/// The durable record of an in-flight rebalance: every table of the
/// move-set, written before the first one moves.
///
/// Recovery semantics per entry (add-to-target happens before
/// remove-from-source, so the table is never lost):
/// * table live on `from` only — the move never started; redo it;
/// * table live on both — the add landed, the remove did not; finish it;
/// * table live on `to` only — the move completed; nothing to do.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RebalanceIntent {
    /// The tables being re-homed, in migration order.
    pub moves: Vec<TableMove>,
}

/// The directory of one shard's store under the sharded root.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// Whether `root` holds a sharded store (i.e. a manifest).
pub fn sharded_store_exists(root: &Path) -> bool {
    root.join(SHARD_MANIFEST_FILE).is_file()
}

/// Write the shard manifest under `root` (creating the root if needed).
/// Must be called before any shard store is created, so a crash mid-init
/// leaves a recoverable root.
///
/// # Errors
/// [`StoreError::Corrupt`] on a zero shard count; I/O errors otherwise.
pub fn write_shard_manifest(root: &Path, shards: usize) -> Result<()> {
    if shards == 0 {
        return Err(StoreError::corrupt("shard manifest needs >= 1 shard"));
    }
    fs::create_dir_all(root).map_err(|e| StoreError::io_with_path(e, root.to_path_buf()))?;
    let manifest = ShardManifest {
        format: SHARD_MANIFEST_FORMAT,
        shards,
    };
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| StoreError::corrupt(format!("encoding shard manifest: {e}")))?;
    write_atomic(&root.join(SHARD_MANIFEST_FILE), json.as_bytes())
}

/// Read the shard manifest under `root`. `Ok(None)` when no manifest
/// exists (the root is not a sharded store).
///
/// # Errors
/// [`StoreError::Corrupt`] for unparseable manifests, zero shard counts,
/// or a format version this build does not understand.
pub fn read_shard_manifest(root: &Path) -> Result<Option<ShardManifest>> {
    let path = root.join(SHARD_MANIFEST_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io_with_path(e, path)),
    };
    let manifest: ShardManifest = serde_json::from_str(&text)
        .map_err(|e| StoreError::corrupt(format!("shard manifest {}: {e}", path.display())))?;
    if manifest.format > SHARD_MANIFEST_FORMAT {
        return Err(StoreError::UnsupportedVersion {
            found: manifest.format,
            supported: SHARD_MANIFEST_FORMAT,
        });
    }
    if manifest.shards == 0 {
        return Err(StoreError::corrupt(format!(
            "shard manifest {} declares 0 shards",
            path.display()
        )));
    }
    Ok(Some(manifest))
}

/// Durably record an in-flight rebalance before the first table moves.
pub fn write_rebalance_intent(root: &Path, intent: &RebalanceIntent) -> Result<()> {
    let json = serde_json::to_string_pretty(intent)
        .map_err(|e| StoreError::corrupt(format!("encoding rebalance intent: {e}")))?;
    write_atomic(&root.join(REBALANCE_INTENT_FILE), json.as_bytes())
}

/// Read a pending rebalance intent, if one survived a crash. `Ok(None)`
/// when no intent file exists (the common case).
pub fn read_rebalance_intent(root: &Path) -> Result<Option<RebalanceIntent>> {
    let path = root.join(REBALANCE_INTENT_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io_with_path(e, path)),
    };
    let intent: RebalanceIntent = serde_json::from_str(&text)
        .map_err(|e| StoreError::corrupt(format!("rebalance intent {}: {e}", path.display())))?;
    Ok(Some(intent))
}

/// Remove the intent file after the whole move-set has been re-homed
/// (idempotent: a missing file is fine).
pub fn clear_rebalance_intent(root: &Path) -> Result<()> {
    let path = root.join(REBALANCE_INTENT_FILE);
    match fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError::io_with_path(e, path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;

    #[test]
    fn manifest_round_trips_and_is_written_atomically() {
        let root = scratch_dir("shard_manifest");
        assert!(!sharded_store_exists(&root));
        assert!(read_shard_manifest(&root).unwrap().is_none());

        write_shard_manifest(&root, 4).unwrap();
        assert!(sharded_store_exists(&root));
        let manifest = read_shard_manifest(&root).unwrap().unwrap();
        assert_eq!(manifest.shards, 4);
        assert_eq!(manifest.format, SHARD_MANIFEST_FORMAT);
        // No tmp sibling left behind.
        assert!(!root.join("shards.json.tmp").exists());

        // Rewriting replaces the count.
        write_shard_manifest(&root, 2).unwrap();
        assert_eq!(read_shard_manifest(&root).unwrap().unwrap().shards, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zero_shards_and_garbage_manifests_are_typed_errors() {
        let root = scratch_dir("shard_manifest_bad");
        assert!(write_shard_manifest(&root, 0).is_err());
        std::fs::write(root.join(SHARD_MANIFEST_FILE), b"not json").unwrap();
        assert!(matches!(
            read_shard_manifest(&root),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::write(
            root.join(SHARD_MANIFEST_FILE),
            serde_json::to_string(&ShardManifest {
                format: SHARD_MANIFEST_FORMAT + 1,
                shards: 2,
            })
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            read_shard_manifest(&root),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn intent_round_trips_and_clears_idempotently() {
        let root = scratch_dir("shard_intent");
        std::fs::create_dir_all(&root).unwrap();
        assert!(read_rebalance_intent(&root).unwrap().is_none());
        clear_rebalance_intent(&root).unwrap(); // missing file is fine

        let intent = RebalanceIntent {
            moves: vec![
                TableMove {
                    table: "zoo".into(),
                    from: 2,
                    to: 0,
                },
                TableMove {
                    table: "cars".into(),
                    from: 1,
                    to: 0,
                },
            ],
        };
        write_rebalance_intent(&root, &intent).unwrap();
        assert_eq!(read_rebalance_intent(&root).unwrap().unwrap(), intent);
        clear_rebalance_intent(&root).unwrap();
        assert!(read_rebalance_intent(&root).unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_dirs_are_stable_names() {
        let root = PathBuf::from("/data/dn");
        assert_eq!(shard_dir(&root, 0), PathBuf::from("/data/dn/shard-0"));
        assert_eq!(shard_dir(&root, 12), PathBuf::from("/data/dn/shard-12"));
    }
}
