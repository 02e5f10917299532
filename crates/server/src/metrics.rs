//! Lock-free request metrics and the `/metrics` text exposition.
//!
//! Every route gets a request counter per status class and a fixed-bucket
//! latency histogram, all plain `AtomicU64`s — recording a request is a
//! handful of relaxed increments, so the metrics path adds nothing
//! measurable to request latency. The exposition format is the Prometheus
//! text format (counters + cumulative `_bucket{le=...}` histograms), which
//! is also trivially greppable by eye.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Histogram bucket upper bounds, in microseconds. The last implicit
/// bucket is `+Inf`.
pub const BUCKET_BOUNDS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

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

/// All routes, in exposition order.
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

    /// Position in [`ROUTES`], which lists the variants in declaration
    /// order (pinned by `routes_are_listed_in_declaration_order`).
    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug)]
struct RouteMetrics {
    /// Requests by status class: 2xx, 4xx, 5xx.
    by_class: [AtomicU64; 3],
    /// Cumulative-style histogram counts per bucket (stored per-bucket,
    /// accumulated at render time) + the +Inf bucket.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    /// Sum of observed latencies, microseconds.
    sum_us: AtomicU64,
}

impl RouteMetrics {
    fn new() -> RouteMetrics {
        RouteMetrics {
            by_class: std::array::from_fn(|_| AtomicU64::new(0)),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    fn record(&self, status: u16, micros: u64) {
        let class = match status {
            200..=299 => 0,
            500..=599 => 2,
            _ => 1,
        };
        self.by_class[class].fetch_add(1, Ordering::Relaxed);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.by_class
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Gauges of one shard engine, exposed with a `shard="<i>"` label.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardGauges {
    /// The shard's own published epoch.
    pub epoch: u64,
    /// Bytes of batch records in the shard's WAL (`None` on a
    /// non-durable server or when the coordinator lock was contended at
    /// render time).
    pub wal_record_bytes: Option<u64>,
    /// Snapshot files in the shard's store directory (same caveat).
    pub store_snapshots: Option<u64>,
}

/// Replication gauges of a follower server (absent on a primary).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaGauges {
    /// Epochs this follower's view trails the primary's.
    pub lag_epochs: u64,
    /// Digest mismatches detected since the follower started.
    pub divergence_total: u64,
}

/// Drop-folder ingest gauges (absent unless the server runs with
/// `--ingest-dir`). Sampled from the ingester's shared
/// [`dn_ingest::IngestStats`] at render time.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestGauges {
    /// Drop-folder files scanned, cumulative across polls.
    pub files_seen: u64,
    /// Delta batches delivered and journal-committed.
    pub batches_applied: u64,
    /// Rows compared or loaded while synthesizing deltas.
    pub rows_diffed: u64,
    /// Transient delivery failures retried.
    pub retries: u64,
    /// Files skipped because they failed to parse (torn input).
    pub torn_files: u64,
    /// Age in seconds of the oldest observed-but-unapplied change.
    pub lag_seconds: f64,
}

/// Engine-level gauges the handler samples at render time and passes in.
#[derive(Debug, Clone, Default)]
pub struct EngineGauges {
    /// The currently published (coordinator) epoch.
    pub epoch: u64,
    /// Snapshots published so far.
    pub epochs_published: u64,
    /// Top-k cache hits (the coordinator's merged cache).
    pub cache_hits: u64,
    /// Top-k cache misses.
    pub cache_misses: u64,
    /// Top-k cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Total bytes of batch records across the shard WALs (`None` on a
    /// non-durable server or when the coordinator lock was contended at
    /// render time).
    pub wal_record_bytes: Option<u64>,
    /// Snapshot files on disk across the shard stores (same caveat).
    pub store_snapshots: Option<u64>,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardGauges>,
    /// Follower-mode replication gauges (`None` on a primary).
    pub replica: Option<ReplicaGauges>,
    /// Drop-folder ingest gauges (`None` without `--ingest-dir`).
    pub ingest: Option<IngestGauges>,
}

/// The server-wide metrics registry.
#[derive(Debug)]
pub struct Metrics {
    routes: Vec<RouteMetrics>,
    connections_accepted: AtomicU64,
    /// When this registry was created (= server start), for
    /// `dn_uptime_seconds`.
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Metrics {
        Metrics {
            routes: ROUTES.iter().map(|_| RouteMetrics::new()).collect(),
            connections_accepted: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Record one handled request.
    pub fn record(&self, route: Route, status: u16, micros: u64) {
        self.routes[route.index()].record(status, micros);
    }

    /// Record one accepted connection.
    pub fn record_connection(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests handled across all routes.
    pub fn requests_total(&self) -> u64 {
        self.routes.iter().map(RouteMetrics::total).sum()
    }

    /// Requests handled on one route.
    pub fn route_total(&self, route: Route) -> u64 {
        self.routes[route.index()].total()
    }

    /// Render the Prometheus-style text exposition, folding in the
    /// engine gauges sampled by the caller.
    pub fn render(&self, gauges: &EngineGauges) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE dn_http_requests_total counter\n");
        for (i, route) in ROUTES.iter().enumerate() {
            let m = &self.routes[i];
            for (class, label) in [(0, "2xx"), (1, "4xx"), (2, "5xx")] {
                let n = m.by_class[class].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "dn_http_requests_total{{route=\"{}\",class=\"{label}\"}} {n}\n",
                        route.label()
                    ));
                }
            }
        }
        out.push_str("# TYPE dn_http_request_duration_us histogram\n");
        for (i, route) in ROUTES.iter().enumerate() {
            let m = &self.routes[i];
            let total = m.total();
            if total == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for (b, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cumulative += m.buckets[b].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "dn_http_request_duration_us_bucket{{route=\"{}\",le=\"{bound}\"}} {cumulative}\n",
                    route.label()
                ));
            }
            cumulative += m.buckets[BUCKET_BOUNDS_US.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "dn_http_request_duration_us_bucket{{route=\"{}\",le=\"+Inf\"}} {cumulative}\n",
                route.label()
            ));
            out.push_str(&format!(
                "dn_http_request_duration_us_sum{{route=\"{}\"}} {}\n",
                route.label(),
                m.sum_us.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "dn_http_request_duration_us_count{{route=\"{}\"}} {total}\n",
                route.label()
            ));
        }
        out.push_str("# TYPE dn_http_connections_accepted_total counter\n");
        out.push_str(&format!(
            "dn_http_connections_accepted_total {}\n",
            self.connections_accepted.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE dn_build_info gauge\n");
        out.push_str(&format!(
            "dn_build_info{{version=\"{}\",crate=\"dn-server\",rust_edition=\"2021\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        ));
        out.push_str("# TYPE dn_uptime_seconds gauge\n");
        out.push_str(&format!(
            "dn_uptime_seconds {:.3}\n",
            self.started.elapsed().as_secs_f64()
        ));
        out.push_str("# TYPE dn_trace_sample_every gauge\n");
        out.push_str(&format!(
            "dn_trace_sample_every {}\n",
            dn_trace::sample_every()
        ));
        out.push_str("# TYPE dn_traces_published_total counter\n");
        out.push_str(&format!(
            "dn_traces_published_total {}\n",
            dn_trace::traces_published()
        ));
        out.push_str("# TYPE dn_traces_dropped_total counter\n");
        out.push_str(&format!(
            "dn_traces_dropped_total {}\n",
            dn_trace::traces_dropped()
        ));
        // Per-phase duration histograms, fed by the span layer. Phases
        // with no observations yet are omitted (they appear once traced).
        let phases = dn_trace::phase_snapshot();
        if phases.iter().any(|p| p.count > 0) {
            out.push_str("# TYPE dn_phase_duration_us histogram\n");
            for snap in &phases {
                if snap.count == 0 {
                    continue;
                }
                let phase = snap.phase;
                let mut cumulative = 0u64;
                for (b, bound) in dn_trace::PHASE_BUCKET_BOUNDS_US.iter().enumerate() {
                    cumulative += snap.buckets[b];
                    out.push_str(&format!(
                        "dn_phase_duration_us_bucket{{phase=\"{phase}\",le=\"{bound}\"}} {cumulative}\n"
                    ));
                }
                cumulative += snap.buckets[dn_trace::PHASE_BUCKET_BOUNDS_US.len()];
                out.push_str(&format!(
                    "dn_phase_duration_us_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {cumulative}\n"
                ));
                out.push_str(&format!(
                    "dn_phase_duration_us_sum{{phase=\"{phase}\"}} {}\n",
                    snap.sum_us
                ));
                out.push_str(&format!(
                    "dn_phase_duration_us_count{{phase=\"{phase}\"}} {}\n",
                    snap.count
                ));
            }
        }
        out.push_str("# TYPE dn_server_epoch gauge\n");
        out.push_str(&format!("dn_server_epoch {}\n", gauges.epoch));
        out.push_str("# TYPE dn_server_epochs_published_total counter\n");
        out.push_str(&format!(
            "dn_server_epochs_published_total {}\n",
            gauges.epochs_published
        ));
        out.push_str("# TYPE dn_cache_hits_total counter\n");
        out.push_str(&format!("dn_cache_hits_total {}\n", gauges.cache_hits));
        out.push_str("# TYPE dn_cache_misses_total counter\n");
        out.push_str(&format!("dn_cache_misses_total {}\n", gauges.cache_misses));
        out.push_str("# TYPE dn_cache_hit_rate gauge\n");
        out.push_str(&format!("dn_cache_hit_rate {:.6}\n", gauges.cache_hit_rate));
        if let Some(bytes) = gauges.wal_record_bytes {
            out.push_str("# TYPE dn_wal_record_bytes gauge\n");
            out.push_str(&format!("dn_wal_record_bytes {bytes}\n"));
        }
        if let Some(snaps) = gauges.store_snapshots {
            out.push_str("# TYPE dn_store_snapshots gauge\n");
            out.push_str(&format!("dn_store_snapshots {snaps}\n"));
        }
        if let Some(replica) = gauges.replica {
            out.push_str("# TYPE dn_replica_lag_epochs gauge\n");
            out.push_str(&format!("dn_replica_lag_epochs {}\n", replica.lag_epochs));
            out.push_str("# TYPE dn_replica_divergence_total counter\n");
            out.push_str(&format!(
                "dn_replica_divergence_total {}\n",
                replica.divergence_total
            ));
        }
        if let Some(ingest) = gauges.ingest {
            out.push_str("# TYPE dn_ingest_files_seen_total counter\n");
            out.push_str(&format!(
                "dn_ingest_files_seen_total {}\n",
                ingest.files_seen
            ));
            out.push_str("# TYPE dn_ingest_batches_applied_total counter\n");
            out.push_str(&format!(
                "dn_ingest_batches_applied_total {}\n",
                ingest.batches_applied
            ));
            out.push_str("# TYPE dn_ingest_rows_diffed_total counter\n");
            out.push_str(&format!(
                "dn_ingest_rows_diffed_total {}\n",
                ingest.rows_diffed
            ));
            out.push_str("# TYPE dn_ingest_retries_total counter\n");
            out.push_str(&format!("dn_ingest_retries_total {}\n", ingest.retries));
            out.push_str("# TYPE dn_ingest_torn_files_total counter\n");
            out.push_str(&format!(
                "dn_ingest_torn_files_total {}\n",
                ingest.torn_files
            ));
            out.push_str("# TYPE dn_ingest_lag_seconds gauge\n");
            out.push_str(&format!(
                "dn_ingest_lag_seconds {:.3}\n",
                ingest.lag_seconds
            ));
        }
        if !gauges.shards.is_empty() {
            out.push_str("# TYPE dn_shard_epoch gauge\n");
            for (i, shard) in gauges.shards.iter().enumerate() {
                out.push_str(&format!(
                    "dn_shard_epoch{{shard=\"{i}\"}} {}\n",
                    shard.epoch
                ));
            }
            if gauges.shards.iter().any(|s| s.wal_record_bytes.is_some()) {
                out.push_str("# TYPE dn_shard_wal_record_bytes gauge\n");
                for (i, shard) in gauges.shards.iter().enumerate() {
                    if let Some(bytes) = shard.wal_record_bytes {
                        out.push_str(&format!(
                            "dn_shard_wal_record_bytes{{shard=\"{i}\"}} {bytes}\n"
                        ));
                    }
                }
            }
            if gauges.shards.iter().any(|s| s.store_snapshots.is_some()) {
                out.push_str("# TYPE dn_shard_store_snapshots gauge\n");
                for (i, shard) in gauges.shards.iter().enumerate() {
                    if let Some(snaps) = shard.store_snapshots {
                        out.push_str(&format!(
                            "dn_shard_store_snapshots{{shard=\"{i}\"}} {snaps}\n"
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_listed_in_declaration_order() {
        for (i, route) in ROUTES.into_iter().enumerate() {
            assert_eq!(route as usize, i, "{route:?}");
            assert_eq!(ROUTES[route.index()], route);
        }
    }

    #[test]
    fn records_show_up_in_the_exposition() {
        let metrics = Metrics::new();
        metrics.record(Route::TopK, 200, 120);
        metrics.record(Route::TopK, 200, 3_000);
        metrics.record(Route::Score, 404, 40);
        metrics.record(Route::Mutations, 500, 900_000);
        metrics.record_connection();

        assert_eq!(metrics.requests_total(), 4);
        assert_eq!(metrics.route_total(Route::TopK), 2);

        let text = metrics.render(&EngineGauges {
            epoch: 7,
            epochs_published: 8,
            cache_hits: 10,
            cache_misses: 5,
            cache_hit_rate: 10.0 / 15.0,
            wal_record_bytes: Some(4096),
            store_snapshots: Some(2),
            shards: vec![
                ShardGauges {
                    epoch: 4,
                    wal_record_bytes: Some(1024),
                    store_snapshots: Some(1),
                },
                ShardGauges {
                    epoch: 3,
                    wal_record_bytes: Some(3072),
                    store_snapshots: Some(1),
                },
            ],
            replica: Some(ReplicaGauges {
                lag_epochs: 2,
                divergence_total: 1,
            }),
            ingest: Some(IngestGauges {
                files_seen: 12,
                batches_applied: 4,
                rows_diffed: 320,
                retries: 1,
                torn_files: 2,
                lag_seconds: 0.25,
            }),
        });
        assert!(text.contains("dn_http_requests_total{route=\"top_k\",class=\"2xx\"} 2"));
        assert!(text.contains("dn_http_requests_total{route=\"score\",class=\"4xx\"} 1"));
        assert!(text.contains("dn_http_requests_total{route=\"mutations\",class=\"5xx\"} 1"));
        // Histogram cumulativeness: the 250us bucket holds the 120us obs,
        // the +Inf bucket holds both.
        assert!(text.contains("dn_http_request_duration_us_bucket{route=\"top_k\",le=\"250\"} 1"));
        assert!(text.contains("dn_http_request_duration_us_bucket{route=\"top_k\",le=\"+Inf\"} 2"));
        assert!(text.contains("dn_http_request_duration_us_count{route=\"top_k\"} 2"));
        // The 900ms observation lands in +Inf only.
        assert!(text
            .contains("dn_http_request_duration_us_bucket{route=\"mutations\",le=\"250000\"} 0"));
        assert!(text.contains("dn_server_epoch 7\n"));
        assert!(text.contains("dn_wal_record_bytes 4096\n"));
        assert!(text.contains("dn_store_snapshots 2\n"));
        assert!(text.contains("dn_http_connections_accepted_total 1\n"));
        // Per-shard families carry the shard label.
        assert!(text.contains("dn_shard_epoch{shard=\"0\"} 4\n"));
        assert!(text.contains("dn_shard_epoch{shard=\"1\"} 3\n"));
        assert!(
            !text.contains("dn_shard_cache_"),
            "shards have no cache of their own; dn_cache_* is the coordinator's"
        );
        assert!(text.contains("dn_cache_hits_total 10\n"));
        assert!(text.contains("dn_shard_wal_record_bytes{shard=\"1\"} 3072\n"));
        assert!(text.contains("dn_shard_store_snapshots{shard=\"0\"} 1\n"));
        assert!(text.contains("dn_replica_lag_epochs 2\n"));
        assert!(text.contains("dn_replica_divergence_total 1\n"));
        assert!(text.contains("dn_ingest_files_seen_total 12\n"));
        assert!(text.contains("dn_ingest_batches_applied_total 4\n"));
        assert!(text.contains("dn_ingest_rows_diffed_total 320\n"));
        assert!(text.contains("dn_ingest_retries_total 1\n"));
        assert!(text.contains("dn_ingest_torn_files_total 2\n"));
        assert!(text.contains("dn_ingest_lag_seconds 0.250\n"));
    }

    #[test]
    fn absent_gauges_are_omitted() {
        let metrics = Metrics::new();
        let text = metrics.render(&EngineGauges::default());
        assert!(!text.contains("dn_wal_record_bytes"));
        assert!(!text.contains("dn_store_snapshots"));
        assert!(!text.contains("dn_shard_epoch"));
        assert!(
            !text.contains("dn_replica_lag_epochs"),
            "a primary exposes no replica gauges"
        );
        assert!(
            !text.contains("dn_ingest_"),
            "a server without --ingest-dir exposes no ingest gauges"
        );
        assert!(text.contains("dn_server_epoch 0\n"));
    }

    #[test]
    fn build_info_uptime_and_trace_gauges_always_render() {
        let metrics = Metrics::new();
        let text = metrics.render(&EngineGauges::default());
        assert!(text.contains(&format!(
            "dn_build_info{{version=\"{}\",crate=\"dn-server\",rust_edition=\"2021\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("dn_uptime_seconds "));
        assert!(text.contains("dn_trace_sample_every "));
        assert!(text.contains("dn_traces_published_total "));
        assert!(text.contains("dn_traces_dropped_total "));
    }

    #[test]
    fn phase_histograms_render_once_observed() {
        // The phase registry is process-global; observe directly rather
        // than via spans so this test needs no sampling state.
        dn_trace::observe(dn_trace::Phase::CoordScatter, 120);
        let metrics = Metrics::new();
        let text = metrics.render(&EngineGauges::default());
        assert!(text.contains("# TYPE dn_phase_duration_us histogram\n"));
        assert!(text.contains("dn_phase_duration_us_count{phase=\"coord_scatter\"} "));
        assert!(text.contains("dn_phase_duration_us_bucket{phase=\"coord_scatter\",le=\"+Inf\"} "));
    }

    #[test]
    fn route_labels_are_unique() {
        let labels: std::collections::HashSet<&str> = ROUTES.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), ROUTES.len());
    }
}
