//! # `domainnet` — unsupervised homograph detection for data lakes
//!
//! This crate is the core of the reproduction of *DomainNet: Homograph
//! Detection for Data Lake Disambiguation* (Leventidis, Di Rocco,
//! Gatterbauer, Miller, Riedewald — EDBT 2021). A **homograph** is a data
//! value that occurs in a data lake with more than one meaning: `Jaguar` as
//! an animal in a zoo table and as a manufacturer in a car table, `CA` as a
//! country code and as a state abbreviation, `"."` as a null marker in a
//! dozen unrelated columns. DomainNet finds such values *without any
//! supervision, metadata, or external knowledge* in three steps (Figure 4 of
//! the paper):
//!
//! 1. **Graph construction** — the lake is turned into a bipartite graph of
//!    value nodes and attribute nodes ([`pipeline::DomainNetBuilder`]).
//! 2. **Measure computation** — a network-centrality score is computed per
//!    value node: betweenness centrality (exact or sampled) or the bipartite
//!    local clustering coefficient ([`Measure`]).
//! 3. **Ranking** — value nodes are ranked so that the most homograph-like
//!    values come first: descending BC, ascending LCC
//!    ([`pipeline::DomainNet::rank`]).
//!
//! The crate also contains the evaluation machinery used by the paper's
//! experiments: ground-truth handling and precision/recall/F1 at `k`
//! ([`eval`]).
//!
//! ## Quick start
//!
//! ```
//! use domainnet::pipeline::DomainNetBuilder;
//! use domainnet::Measure;
//!
//! // The four-table running example from Figure 1 of the paper.
//! let lake = lake::fixtures::running_example();
//!
//! let net = DomainNetBuilder::new()
//!     .prune_single_attribute_values(false)
//!     .build(&lake);
//! let ranked = net.rank(Measure::exact_bc());
//!
//! // Jaguar bridges the animal and company meanings and ranks first.
//! assert_eq!(ranked[0].value, "JAGUAR");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod eval;
pub mod measure;
pub mod pipeline;

pub use eval::{precision_recall_at_k, EvalPoint, TopKCurve};
pub use measure::{Measure, ScoredValue};
pub use pipeline::{DeltaStats, DomainNet, DomainNetBuilder, FoldError, NetCachesState, NetState};
