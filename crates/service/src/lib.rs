//! # `dn-service` — a concurrent snapshot-serving engine for DomainNet
//!
//! The paper's pipeline scores homographs offline; the incremental
//! subsystem (`lake::delta` + `DomainNet::apply_delta`) made the lake
//! mutable. This crate adds the missing third piece for a production
//! deployment: *serving* those scores under concurrent load while the lake
//! keeps mutating.
//!
//! The design is a classic single-writer / many-reader epoch scheme with
//! **one serving stack**, the [`coordinator`], and three ways to stand it
//! up — [`serve_sharded`] (in memory), [`serve_sharded_durable`] (fresh
//! store directory) and [`serve_sharded_from_dir`] (recover one):
//!
//! * one [`Coordinator`] owns N component-sharded engines (each an
//!   [`engine::Writer`]: a [`lake::MutableLake`], its
//!   [`domainnet::DomainNet`], and optionally a `dn-store` WAL +
//!   checkpoints), routes **batched** [`lake::LakeDelta`]s to them through
//!   the incremental maintenance path, rebalances components that a
//!   mutation merges across shard boundaries, and publishes immutable
//!   [`MultiView`]s — one [`snapshot::Snapshot`] per shard — behind `Arc`s;
//!   `shards = 1` is the unsharded engine, bit for bit;
//! * any number of [`CoordinatorReader`]s pin the current view and answer
//!   queries against it with no further synchronization — top-k rankings,
//!   per-value score/rank/percentile cards, attribute-neighborhood
//!   explanations, and per-table summaries, all with exact global
//!   rank/percentile semantics across shards;
//! * each view merges a measure's shard rankings into one global order
//!   on its first top-k read of it, and later reads slice that order;
//! * a durable coordinator write-ahead logs every commit before it
//!   applies, a [`CheckpointPolicy`] periodically snapshots each shard and
//!   trims its log, and recovery restores an equal coordinator from disk
//!   after a crash — skipping the CSV re-parse and the cold LCC/BC scoring
//!   pass entirely;
//! * a [`Follower`] keeps a read-only copy in step by tailing the
//!   primary's per-shard WALs — see the [`replica`] module docs.
//!
//! ## Example
//!
//! ```
//! use dn_service::{serve_sharded, ServiceConfig};
//! use domainnet::Measure;
//! use lake::delta::{LakeDelta, MutableLake};
//! use lake::table::TableBuilder;
//!
//! let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
//! let (service, mut coordinator) = serve_sharded(lake, ServiceConfig::default(), 2);
//!
//! // Readers answer from the published epoch...
//! let mut reader = service.reader();
//! let top = reader.top_k(Measure::exact_bc(), 1).unwrap();
//! assert_eq!(top[0].value, "JAGUAR");
//!
//! // ...while the coordinator batches mutations and publishes new epochs.
//! coordinator.stage(LakeDelta::new().add_table(
//!     TableBuilder::new("T9").column("animal", ["Jaguar", "Okapi"]).build().unwrap(),
//! ));
//! coordinator.commit().unwrap();
//! let epoch = coordinator.publish();
//! assert_eq!(reader.pin(), epoch);
//! assert!(reader.view().table_names().contains(&"T9".to_owned()));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod coordinator;
pub mod engine;
pub mod replica;
pub mod snapshot;

pub use cache::CacheStats;
pub use coordinator::{
    serve_sharded, serve_sharded_durable, serve_sharded_from_dir, Coordinator, CoordinatorHandle,
    CoordinatorReader, MultiView,
};
pub use engine::{CheckpointPolicy, ServiceConfig, ServiceError, Writer};
pub use replica::{
    snapshot_digest, FetchedRecord, Follower, LocalReplicaSource, PrimaryStatus, ReplicaError,
    ReplicaShared, ReplicaSource, ShardPeerStatus, SyncReport, WalFetch,
};
pub use snapshot::{
    AttributeNeighborhood, ScoreCard, Snapshot, SnapshotStats, TableSummary, ValueExplanation,
};
