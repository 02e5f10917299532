//! # `dn-store` — durable snapshot + delta-WAL persistence for DomainNet
//!
//! Everything upstream of this crate lives in memory: the mutable lake
//! (PR 2), the incremental net maintenance, and the epoch-serving engine
//! (PR 3) all evaporate on process exit, and a restart pays the full
//! cold-start bill — CSV parsing plus LCC/BC scoring from scratch. This
//! crate makes the engine durable with two cooperating halves:
//!
//! * **[`snapshot`]** — a versioned, checksummed, length-prefixed binary
//!   columnar format for the complete engine state: the
//!   [`lake::MutableLake`] (tables, removed slots, the append-only
//!   interner) and the [`domainnet::DomainNet`] state (pruning flag,
//!   generation, per-measure score vectors stored as raw IEEE-754 bits so
//!   they round-trip exactly, cardinalities). The CSR
//!   [`dn_graph::bipartite::BipartiteGraph`] and its node numbering,
//!   component labels and rankings are derived from those on load, not
//!   stored. Every section
//!   carries a CRC-32 and every cross-reference is validated on load.
//! * **[`wal`]** — an append-only write-ahead log of committed
//!   [`lake::LakeDelta`] batches with per-record CRCs and torn-tail
//!   truncation.
//!
//! [`store::Store`] ties them together: batches are logged before they are
//! applied, checkpoints snapshot the engine and trim the log, and
//! [`store::Store::recover`] replays the WAL suffix through the *same*
//! incremental path the live writer uses — so a recovered engine is equal,
//! score-for-score, to one that never crashed. The `dn-service` crate
//! builds its `serve_sharded_durable` / `serve_sharded_from_dir` entry
//! points on top, one store per shard. [`write_atomic`] is the one
//! tmp + fsync + rename + directory-fsync writer behind every file
//! recovery trusts (snapshots, shard manifest, rebalance intent, and the
//! ingest journal).
//!
//! Like the rest of the workspace, the crate is fully self-contained: the
//! binary codec, CRC-32, and file formats are hand-rolled on `std`, with
//! no registry dependencies beyond the existing vendor shims.
//!
//! ## Example
//!
//! ```
//! use dn_store::{Manifest, Store};
//! use domainnet::{DomainNetBuilder, Measure};
//! use lake::delta::{LakeDelta, MutableLake};
//! use lake::table::TableBuilder;
//!
//! let dir = std::env::temp_dir().join(format!("dn_store_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // A live engine: lake + net with warm rankings.
//! let mut lake = MutableLake::from_catalog(&lake::fixtures::running_example());
//! let mut net = DomainNetBuilder::new().build(&lake);
//! let measures = [Measure::lcc()];
//! net.warm_rankings(&measures);
//!
//! // Checkpoint it, then durably log one more batch before applying it.
//! let mut store = Store::create(&dir).unwrap();
//! store.checkpoint(&lake, &net, 0, &measures).unwrap();
//! let batch = vec![LakeDelta::new().add_table(
//!     TableBuilder::new("T9").column("animal", ["Jaguar", "Okapi"]).build().unwrap(),
//! )];
//! store.append_batch(0, &batch).unwrap();
//! let effects = lake.apply_batch(batch.iter()).unwrap();
//! net.apply_delta(&lake, &effects).unwrap();
//! net.warm_rankings(&measures);
//!
//! // "Crash" and recover: the WAL suffix replays on top of the snapshot.
//! drop(store);
//! let (_store, recovered) = Store::recover(&dir).unwrap();
//! assert_eq!(recovered.replayed_batches, 1);
//! assert_eq!(recovered.net.export_state(), net.export_state());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod atomic;
pub mod codec;
pub mod digest;
pub mod error;
pub mod sharded;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use atomic::write_atomic;
pub use codec::{from_hex, to_hex};
pub use digest::Digest64;
pub use error::{Result, StoreError};
pub use sharded::{
    clear_rebalance_intent, read_rebalance_intent, read_shard_manifest, shard_dir,
    sharded_store_exists, write_rebalance_intent, write_shard_manifest, RebalanceIntent,
    ShardManifest, TableMove,
};
pub use snapshot::{
    read_snapshot, write_snapshot, Manifest, PersistedState, SectionInfo, FORMAT_VERSION,
    SNAPSHOT_MAGIC,
};
pub use store::{install_snapshot, list_snapshots, Recovered, Store, StorePresence, WalTail};
pub use wal::{scan_wal, Wal, WalRecord, WalScan};

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    /// Workspace-local scratch directory for this crate's unit tests —
    /// lives under `target/tmp` so the CI tempdir-hygiene gate catches any
    /// test that leaks state, and stays off the shared system temp dir.
    pub(crate) fn scratch_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("dn_store_unit_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create unit-test scratch dir");
        dir
    }
}
