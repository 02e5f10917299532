//! # `dn-server` — a zero-dependency HTTP/JSON layer over the serving engine
//!
//! The serving engine (`dn-service`) answers homograph queries from
//! immutable epoch snapshots, and the durability layer (`dn-store`) makes
//! its writer crash-safe — but both stop at the process boundary. This
//! crate puts the engine on the network with **no dependencies beyond the
//! workspace's vendored serde shims**: an HTTP/1.1 server hand-rolled on
//! [`std::net::TcpListener`] with a fixed worker-thread pool, keep-alive,
//! hard read limits and timeouts, and a graceful connection drain.
//!
//! * [`server`] — the accept loop, worker pool, and shutdown semantics
//!   ([`serve_http`] is the entry point).
//! * `router` (internal) — dispatch from method + path to the engine:
//!   every read handler pins one cross-shard view for the whole request,
//!   so a response is internally consistent exactly like an in-process
//!   reader; writes serialize on the single
//!   `Mutex<`[`dn_service::Coordinator`]`>`. The server always talks to
//!   a coordinator — a single-engine deployment is just `--shards 1`,
//!   which is bit-identical to the unsharded engine.
//! * [`http`] — the wire subset: strict request parsing with bounded
//!   head/body reads, percent/query decoding, response framing.
//! * [`api`] — the JSON request/response schema, shared by server and
//!   client so both sides agree by construction.
//! * [`metrics`] — lock-free per-route counters + latency histograms
//!   (instruments of the [`dn_trace::metrics`] registry), and the
//!   `GET /metrics` body: every owner's families through its one writer.
//! * [`client`] — a minimal blocking keep-alive client used by the wire
//!   tests, the process probes, and the standing benchmark's load
//!   generator.
//!
//! See `docs/API.md` for the endpoint reference and `ARCHITECTURE.md` for
//! the thread-pool diagram and request lifecycle.
//!
//! ## Example
//!
//! ```
//! use dn_server::{serve_http, Client, ServerConfig};
//! use dn_service::{serve_sharded, ServiceConfig};
//! use lake::delta::MutableLake;
//!
//! let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
//! let (service, coordinator) = serve_sharded(lake, ServiceConfig::default(), 1);
//! let server = serve_http(service, coordinator, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::new(server.local_addr());
//! let health = client.get("/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! let top = client.get("/v1/top-k?measure=bc&k=1").unwrap();
//! assert!(top.body.contains("JAGUAR"));
//!
//! server.shutdown();
//! server.join();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod client;
pub mod error;
pub mod http;
pub mod ingest_sink;
pub mod metrics;
pub mod replica_source;
mod router;
pub mod server;

pub use client::{Client, ClientResponse};
pub use error::ApiError;
pub use http::{percent_encode, Limits};
pub use ingest_sink::HttpSink;
pub use metrics::{Metrics, Route};
pub use replica_source::HttpReplicaSource;
pub use server::{
    serve_http, serve_http_follower, serve_http_ingest, IngestContext, ReplicaContext, Server,
    ServerConfig,
};
