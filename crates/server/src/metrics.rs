//! Lock-free request metrics and the `/metrics` response.
//!
//! Every route gets a request counter per status class and a latency
//! histogram, all [`dn_trace::metrics`] instruments indexed by
//! `route as usize` — recording a request is a handful of relaxed
//! increments, so the metrics path adds nothing measurable to request
//! latency. [`Metrics::render`] is the whole of `GET /metrics`: this
//! server's instruments, then each other owner's export, through the one
//! Prometheus text writer.

use std::time::Instant;

use dn_ingest::IngestStats;
use dn_service::{CoordinatorHandle, ReplicaShared};
use dn_trace::metrics::{
    Counter, Exposition, Histogram, BUILD_INFO, HTTP_CONNECTIONS_ACCEPTED, HTTP_REQUESTS,
    HTTP_REQUEST_DURATION, UPTIME_SECONDS,
};

/// The fixed set of routes the server exposes (used as metric labels and
/// for dispatch bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /v1/top-k`
    TopK,
    /// `GET /v1/score/{value}`
    Score,
    /// `GET /v1/explain/{value}`
    Explain,
    /// `GET /v1/tables`
    Tables,
    /// `GET /v1/tables/{name}`
    TableSummary,
    /// `POST /v1/mutations`
    Mutations,
    /// `GET /v1/wal`
    Wal,
    /// `GET /v1/snapshot`
    Snapshot,
    /// `GET /v1/digest`
    Digest,
    /// `POST /v1/admin/checkpoint`
    Checkpoint,
    /// `POST /v1/admin/shutdown`
    Shutdown,
    /// `GET /v1/debug/traces`
    DebugTraces,
    /// `GET /v1/debug/traces/{id}`
    DebugTrace,
    /// Anything that matched no route (404s, 405s, parse failures).
    Other,
}

/// All routes, in declaration order (pinned by
/// `routes_are_listed_in_declaration_order`), so `route as usize` indexes
/// it and the per-route instruments.
pub const ROUTES: [Route; 16] = [
    Route::Healthz,
    Route::Metrics,
    Route::TopK,
    Route::Score,
    Route::Explain,
    Route::Tables,
    Route::TableSummary,
    Route::Mutations,
    Route::Wal,
    Route::Snapshot,
    Route::Digest,
    Route::Checkpoint,
    Route::Shutdown,
    Route::DebugTraces,
    Route::DebugTrace,
    Route::Other,
];

impl Route {
    /// The metric label for this route.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::TopK => "top_k",
            Route::Score => "score",
            Route::Explain => "explain",
            Route::Tables => "tables",
            Route::TableSummary => "table_summary",
            Route::Mutations => "mutations",
            Route::Wal => "wal",
            Route::Snapshot => "snapshot",
            Route::Digest => "digest",
            Route::Checkpoint => "checkpoint",
            Route::Shutdown => "shutdown",
            Route::DebugTraces => "debug_traces",
            Route::DebugTrace => "debug_trace",
            Route::Other => "other",
        }
    }
}

/// Status classes, the `class` label of `dn_http_requests_total`.
const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// One server's request instruments.
#[derive(Debug)]
pub struct Metrics {
    /// Requests per route and status class.
    requests: [[Counter; CLASSES.len()]; ROUTES.len()],
    /// Handling time per route.
    duration: [Histogram; ROUTES.len()],
    connections_accepted: Counter,
    /// When this server started, for `dn_uptime_seconds`.
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh instruments, every counter at zero.
    pub fn new() -> Metrics {
        Metrics {
            requests: Default::default(),
            duration: Default::default(),
            connections_accepted: Counter::default(),
            started: Instant::now(),
        }
    }

    /// Record one handled request.
    pub fn record(&self, route: Route, status: u16, micros: u64) {
        self.count(route, status);
        self.duration[route as usize].observe(micros);
    }

    /// Count a request that was answered without being timed — one whose
    /// framing was refused before there was a request to dispatch. It
    /// shows in `dn_http_requests_total` only, not as a 0 µs latency.
    pub fn count(&self, route: Route, status: u16) {
        let class = match status {
            200..=299 => 0,
            500..=599 => 2,
            _ => 1,
        };
        self.requests[route as usize][class].inc();
    }

    /// Record one accepted connection.
    pub fn record_connection(&self) {
        self.connections_accepted.inc();
    }

    /// Total requests handled across all routes.
    pub fn requests_total(&self) -> u64 {
        ROUTES.iter().map(|&route| self.route_total(route)).sum()
    }

    /// Requests handled on one route.
    pub fn route_total(&self, route: Route) -> u64 {
        self.requests[route as usize].iter().map(Counter::get).sum()
    }

    /// The `/metrics` body: this server's families, the process-global
    /// trace families, the engine's, and — on a follower or an ingesting
    /// primary — the replica's and the ingester's. Reads atomics and the
    /// published view only, so a scrape never waits on a commit.
    pub fn render(
        &self,
        service: &CoordinatorHandle,
        replica: Option<&ReplicaShared>,
        ingest: Option<&IngestStats>,
    ) -> String {
        let mut w = Exposition::default();
        for (route, classes) in ROUTES.iter().zip(&self.requests) {
            for (class, requests) in CLASSES.iter().zip(classes) {
                let requests = requests.get();
                if requests > 0 {
                    w.value(&HTTP_REQUESTS, &[route.label(), class], requests);
                }
            }
        }
        for (route, duration) in ROUTES.iter().zip(&self.duration) {
            w.histogram(&HTTP_REQUEST_DURATION, &[route.label()], duration);
        }
        w.value(
            &HTTP_CONNECTIONS_ACCEPTED,
            &[],
            self.connections_accepted.get(),
        );
        w.value(
            &BUILD_INFO,
            &[env!("CARGO_PKG_VERSION"), "dn-server", "2021"],
            1,
        );
        let uptime = self.started.elapsed().as_secs_f64();
        w.value(&UPTIME_SECONDS, &[], format_args!("{uptime:.3}"));
        dn_trace::export_metrics(&mut w);
        service.export_metrics(&mut w);
        if let Some(replica) = replica {
            replica.export_metrics(&mut w);
        }
        if let Some(ingest) = ingest {
            ingest.export_metrics(&mut w);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_listed_in_declaration_order() {
        for (i, route) in ROUTES.into_iter().enumerate() {
            assert_eq!(route as usize, i, "{route:?}");
        }
    }

    #[test]
    fn route_labels_are_unique() {
        let labels: std::collections::HashSet<&str> = ROUTES.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), ROUTES.len());
    }

    /// The full text of a populated durable server is pinned by
    /// `tests/metrics_exposition.rs`; this is the other end: what a plain
    /// in-memory primary leaves out.
    #[test]
    fn a_plain_in_memory_primary_omits_what_it_does_not_have() {
        let lake = lake::delta::MutableLake::from_catalog(&lake::fixtures::running_example());
        let (service, _coordinator) =
            dn_service::serve_sharded(lake, dn_service::ServiceConfig::default(), 1);
        let metrics = Metrics::new();
        metrics.record(Route::TopK, 200, 120);
        metrics.record(Route::TopK, 200, 3_000);
        metrics.count(Route::Other, 400);
        assert_eq!(metrics.requests_total(), 3);
        assert_eq!(metrics.route_total(Route::TopK), 2);

        let text = metrics.render(&service, None, None);
        assert!(text.contains("dn_http_requests_total{route=\"top_k\",class=\"2xx\"} 2\n"));
        assert!(text.contains("dn_http_request_duration_us_bucket{route=\"top_k\",le=\"250\"} 1\n"));
        assert!(text.contains("dn_http_request_duration_us_count{route=\"top_k\"} 2\n"));
        // Counted but never timed: no histogram series, no 0 us sample.
        assert!(text.contains("dn_http_requests_total{route=\"other\",class=\"4xx\"} 1\n"));
        assert!(!text.contains("dn_http_request_duration_us_count{route=\"other\"}"));
        assert!(!text.contains("route=\"score\""), "zero-request route");
        assert!(text.contains("dn_build_info{version=\""));
        assert!(text.contains("dn_uptime_seconds "));
        assert!(text.contains("dn_trace_sample_every "));
        assert!(text.contains("dn_server_epoch 0\n"));
        assert!(text.contains("dn_shard_epoch{shard=\"0\"} 0\n"));
        for absent in [
            "dn_wal_record_bytes",
            "dn_store_snapshots",
            "dn_shard_wal_record_bytes",
            "dn_shard_store_snapshots",
            "dn_shard_cache_",
            "dn_replica_",
            "dn_ingest_",
        ] {
            assert!(!text.contains(absent), "{absent} on an in-memory primary");
        }
    }
}
