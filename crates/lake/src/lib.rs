//! # `lake` — data-lake substrate
//!
//! This crate provides the data-lake substrate underneath the DomainNet
//! homograph-detection pipeline (Leventidis et al., EDBT 2021). A *data lake*
//! here is a loosely-governed collection of tables whose metadata (table
//! names, attribute names) may be missing, ambiguous, or misleading. The
//! DomainNet method deliberately ignores metadata and works purely from the
//! co-occurrence of *data values* inside *attributes* (columns); this crate
//! is responsible for representing that content faithfully and efficiently.
//!
//! ## What lives here
//!
//! * [`value`] — value normalization (the paper treats every cell as a single
//!   string, trims surrounding whitespace, and upper-cases it so the same
//!   token compares equal across tables) and a compact [`value::ValueInterner`]
//!   mapping each distinct normalized value to a dense [`value::ValueId`].
//! * [`mod@column`] / [`mod@table`] — column-oriented table storage with per-column
//!   distinct-value sets and lightweight type sniffing.
//! * [`delta`] — [`delta::MutableLake`], the one lake type: tables, a global
//!   value interner and both directions of the value↔attribute incidence
//!   index, iterated as (attribute, distinct values) pairs — the shape the
//!   bipartite DomainNet graph is built from. [`delta::LakeDelta`]s mutate
//!   it in place under stable ids and report the values they touched
//!   ([`delta::DeltaEffects`]) for incremental downstream maintenance.
//! * [`catalog`] — [`catalog::AttrId`] / [`catalog::AttrRef`], and
//!   [`catalog::LakeCatalog`], an alias of [`delta::MutableLake`].
//! * [`csv`] — a from-scratch RFC-4180 CSV reader/writer (no external crate),
//!   used by [`loader`] to ingest a directory of `.csv` files as a lake.
//! * [`stats`] — per-lake statistics matching Table 1 of the paper.
//! * [`error`] — the crate error type.
//!
//! ## Quick example
//!
//! ```
//! use lake::delta::MutableLake;
//! use lake::table::TableBuilder;
//!
//! let mut catalog = MutableLake::new();
//! let table = TableBuilder::new("donations")
//!     .column("donor", ["Google", "Volkswagen", "BMW"])
//!     .column("at_risk", ["Panda", "Puma", "Jaguar"])
//!     .build()
//!     .unwrap();
//! catalog.add_table(table).unwrap();
//!
//! assert_eq!(catalog.table_count(), 1);
//! assert_eq!(catalog.attribute_count(), 2);
//! // Values are normalized (upper-cased, trimmed) when interned.
//! assert!(catalog.contains_value("JAGUAR"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod delta;
pub mod error;
pub mod fixtures;
pub mod loader;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::{AttrId, LakeCatalog};
pub use column::Column;
pub use delta::{DeltaEffects, LakeDelta, LakeOp, LakeView, MutableLake};
pub use error::LakeError;
pub use table::{Table, TableBuilder};
pub use value::{normalize, ValueId, ValueInterner};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LakeError>;
