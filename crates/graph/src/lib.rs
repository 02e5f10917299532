//! # `dn-graph` — bipartite graph engine for DomainNet
//!
//! DomainNet (Leventidis et al., EDBT 2021) models a data lake as a
//! **bipartite graph**: one node per distinct data value, one node per
//! attribute (table column), and an edge whenever the value occurs in the
//! attribute. Homographs are then surfaced by network-centrality measures on
//! this graph. This crate provides that graph and the measures:
//!
//! * [`bipartite::BipartiteGraph`] — a compact CSR (compressed sparse row)
//!   representation with `u32` node ids, built via
//!   [`bipartite::BipartiteBuilder`].
//! * [`bc`] — **exact betweenness centrality** (Brandes' algorithm, 2001) for
//!   unweighted graphs, run once per class of *twins* (nodes with one
//!   neighbour list) on the quotient graph, with optional multi-threading
//!   over source classes.
//! * [`approx_bc`] — **approximate betweenness centrality** by sampling
//!   source nodes uniformly (Geisberger–Sanders–Schultes style) and running
//!   each drawn twin class once; this is what makes DomainNet scale to
//!   million-node lakes (§5.4).
//! * [`lcc`] — the paper's **bipartite local clustering coefficient**
//!   (Equation 1): the mean Jaccard similarity between a value's
//!   value-neighbor set and those of its value neighbors.
//! * [`components`] — connected components.
//! * [`delta`] — what a change dirtied: [`delta::dirty_region`] compares
//!   the graph before and after a lake mutation and reports the regions
//!   (2-hop LCC invalidation set, touched components) downstream measures
//!   must recompute.
//! * [`projection`] — the unipartite value co-occurrence projection
//!   (Figure 3a of the paper), useful for analysis and testing.
//! * [`subgraph`] — attribute-anchored random subgraph extraction, used by
//!   the scalability experiment (Figure 9).
//!
//! The crate is deliberately independent of the `lake` crate: it operates on
//! plain integer node ids so it can be tested exhaustively on synthetic
//! topologies (paths, stars, complete bipartite graphs) with known
//! closed-form centrality values.
//!
//! ## Example
//!
//! ```
//! use dn_graph::bipartite::BipartiteBuilder;
//! use dn_graph::bc::betweenness_centrality;
//!
//! // Two attributes sharing a single value (node 0) — a "bridge" value.
//! let mut builder = BipartiteBuilder::new();
//! let bridge = builder.add_value("BRIDGE");
//! let a0 = builder.add_attribute("t1.c1");
//! let a1 = builder.add_attribute("t2.c1");
//! for i in 0..3 {
//!     let v = builder.add_value(format!("left_{i}"));
//!     builder.add_edge(v, a0);
//!     let w = builder.add_value(format!("right_{i}"));
//!     builder.add_edge(w, a1);
//! }
//! builder.add_edge(bridge, a0);
//! builder.add_edge(bridge, a1);
//! let graph = builder.build();
//!
//! let bc = betweenness_centrality(&graph);
//! // The bridge value lies on every shortest path between the two sides.
//! let best = (0..graph.value_count() as u32)
//!     .max_by(|&a, &b| bc[a as usize].total_cmp(&bc[b as usize]))
//!     .unwrap();
//! assert_eq!(best, bridge);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod approx_bc;
pub mod bc;
pub mod bipartite;
pub mod components;
pub mod delta;
pub mod lcc;
pub mod projection;
pub mod subgraph;
mod twins;

pub use approx_bc::{approximate_betweenness, approximate_betweenness_within, ApproxBcConfig};
pub use bc::{betweenness_centrality, betweenness_centrality_parallel, betweenness_from_sources};
pub use bipartite::{BipartiteBuilder, BipartiteGraph};
pub use delta::{dirty_region, nodes_in_components, DirtyRegion};
pub use lcc::{lcc_with_cardinality_for_values, local_clustering_coefficients, LccMethod};
