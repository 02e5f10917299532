//! Request/response body types for the `/v1` JSON API.
//!
//! One struct per endpoint payload, shared by the server handlers, the
//! blocking [`crate::client`], the wire tests, and the standing
//! benchmark's load generator — so both sides of the socket agree on the
//! schema by construction. Every response carries the `epoch` it was
//! answered at: each request pins one immutable snapshot, and the epoch is
//! how a client reasons about cross-request consistency.

use domainnet::{DeltaStats, ScoredValue};
use serde::{Deserialize, Serialize};

pub use dn_service::{AttributeNeighborhood, ScoreCard, TableSummary, ValueExplanation};

/// `GET /healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server is accepting requests.
    pub status: String,
    /// The currently published epoch.
    pub epoch: u64,
}

/// `GET /v1/top-k` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopKResponse {
    /// Epoch the answering snapshot was pinned at.
    pub epoch: u64,
    /// Short name of the measure that ranked the results.
    pub measure: String,
    /// The `k` that was requested (the result may be shorter).
    pub k: usize,
    /// Most homograph-like values first.
    pub results: Vec<ScoredValue>,
}

/// `GET /v1/score/{value}` response: one card per served measure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Epoch the answering snapshot was pinned at.
    pub epoch: u64,
    /// The normalized value the cards describe.
    pub value: String,
    /// Score/rank/percentile under each measure the card exists for.
    pub cards: Vec<ScoreCard>,
}

/// `GET /v1/explain/{value}` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainResponse {
    /// Epoch the answering snapshot was pinned at.
    pub epoch: u64,
    /// The attribute-neighborhood breakdown.
    pub explanation: ValueExplanation,
}

/// `GET /v1/tables` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TablesResponse {
    /// Epoch the answering snapshot was pinned at.
    pub epoch: u64,
    /// Names of tables with at least one live attribute, sorted.
    pub tables: Vec<String>,
}

/// `GET /v1/tables/{name}` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSummaryResponse {
    /// Epoch the answering snapshot was pinned at.
    pub epoch: u64,
    /// Short name of the measure that ranked `summary.top`.
    pub measure: String,
    /// The table's aggregate view.
    pub summary: TableSummary,
}

/// `POST /v1/mutations` request body: a batch of lake deltas, applied as
/// one commit and published as one new epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutationRequest {
    /// The deltas, applied in order within one batch.
    pub deltas: Vec<lake::delta::LakeDelta>,
}

/// `POST /v1/mutations` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutationResponse {
    /// The epoch the batch was published as (readers see it from now on).
    pub epoch: u64,
    /// Number of deltas in the applied batch.
    pub batches: usize,
    /// Incremental-maintenance effect counters for the batch.
    pub stats: DeltaStats,
}

/// One WAL record in a `GET /v1/wal` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecordDto {
    /// Monotonic per-shard sequence number.
    pub seq: u64,
    /// The primary's epoch when the batch committed.
    pub epoch: u64,
    /// The committed batch of deltas.
    pub batch: Vec<lake::delta::LakeDelta>,
}

/// `GET /v1/wal?shard=<i>&from_seq=<s>` response: the shard's log suffix
/// after `from_seq`, or a directive to bootstrap from a snapshot when the
/// primary has checkpointed past that position.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalResponse {
    /// The shard the records belong to.
    pub shard: usize,
    /// The position the suffix starts after (echoed from the request).
    pub from_seq: u64,
    /// When `true`, the tail is gone — fetch `/v1/snapshot` instead.
    pub snapshot_required: bool,
    /// Sequence of the snapshot on offer when `snapshot_required`.
    pub snapshot_seq: Option<u64>,
    /// The record suffix, in sequence order (empty when caught up).
    pub records: Vec<WalRecordDto>,
}

/// `GET /v1/snapshot?shard=<i>` response. The snapshot file bytes ship
/// hex-encoded: the body is JSON and the format is binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotResponse {
    /// The shard the snapshot belongs to.
    pub shard: usize,
    /// The last sequence number the snapshot covers.
    pub seq: u64,
    /// The snapshot file, lowercase hex.
    pub hex: String,
}

/// One shard's entry in a `GET /v1/digest` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardDigest {
    /// The shard index.
    pub shard: usize,
    /// The shard's published epoch.
    pub epoch: u64,
    /// The shard's state digest as 16 lowercase hex digits (a raw `u64`
    /// exceeds the integer range JSON readers agree on).
    pub digest: String,
}

/// `GET /v1/digest` response: the insurance exchange payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DigestResponse {
    /// The coordinator epoch (sum of shard epochs).
    pub epoch: u64,
    /// Per-shard epoch-tagged digests, in shard order.
    pub shards: Vec<ShardDigest>,
}

/// `POST /v1/admin/checkpoint` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointResponse {
    /// Whether a snapshot was written (`false` never happens over HTTP —
    /// a non-durable server answers `409` instead).
    pub checkpointed: bool,
    /// The epoch the checkpoint covers.
    pub epoch: u64,
}

/// `POST /v1/admin/shutdown` response (sent while the drain begins).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `"shutting down"`.
    pub status: String,
}

/// One span in a `GET /v1/debug/traces/{id}` response: flat records that
/// encode the tree through `parent` (the root span has id `0` and no
/// parent). Timings are microsecond offsets from the trace start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanDto {
    /// Span ID, unique within the trace; `0` is the root.
    pub id: u64,
    /// Parent span ID (`None` only on the root).
    pub parent: Option<u64>,
    /// The phase name (`route`, `coord_scatter`, `shard_query`, ...).
    pub name: String,
    /// Free-form detail label (`shard1`, the route, ...); often empty.
    pub label: String,
    /// Start offset from trace start, microseconds.
    pub start_us: u64,
    /// End offset from trace start, microseconds.
    pub end_us: u64,
    /// Wall duration (`end_us - start_us`).
    pub duration_us: u64,
    /// Self time: duration minus the summed durations of direct children.
    pub self_us: u64,
}

/// One entry in the `GET /v1/debug/traces` list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The trace ID, 16 lowercase hex chars (the `X-Dn-Trace-Id` value).
    pub id: String,
    /// The trace name (`http`, `ingest_poll`, ...).
    pub name: String,
    /// The edge's display label (route + status for HTTP traces).
    pub label: String,
    /// Wall-clock start, ISO-8601 UTC.
    pub started: String,
    /// Root span duration, microseconds.
    pub duration_us: u64,
    /// Whether the ID was forwarded from another process.
    pub forwarded: bool,
    /// Number of spans recorded (including the root).
    pub spans: usize,
}

/// `GET /v1/debug/traces` response: the most recent completed traces,
/// newest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceListResponse {
    /// The active sampling rate (`0` = tracing disabled).
    pub sample_every: u64,
    /// Traces published into the ring since startup.
    pub published: u64,
    /// Traces dropped at publish time (contended ring slot).
    pub dropped: u64,
    /// The retained traces, newest first.
    pub traces: Vec<TraceSummary>,
}

/// `GET /v1/debug/traces/{id}` response: one trace's full span tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceResponse {
    /// The trace ID, 16 lowercase hex chars.
    pub id: String,
    /// The trace name.
    pub name: String,
    /// The edge's display label.
    pub label: String,
    /// Wall-clock start, ISO-8601 UTC.
    pub started: String,
    /// Root span duration, microseconds.
    pub duration_us: u64,
    /// Whether the ID was forwarded from another process.
    pub forwarded: bool,
    /// All spans, sorted by `(start_us, id)`.
    pub spans: Vec<SpanDto>,
}

/// The JSON error envelope every non-2xx response carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// The error detail.
    pub error: ErrorDetail,
}

/// Machine-readable error description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorDetail {
    /// The HTTP status code, repeated in the body.
    pub status: u16,
    /// A stable kind tag (`bad_request`, `not_found`, `conflict`, ...).
    pub kind: String,
    /// Human-readable context.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_round_trips() {
        let body = ErrorBody {
            error: ErrorDetail {
                status: 404,
                kind: "not_found".into(),
                message: "no such value".into(),
            },
        };
        let json = serde_json::to_string(&body).unwrap();
        let back: ErrorBody = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.status, 404);
        assert_eq!(back.error.kind, "not_found");
    }

    #[test]
    fn mutation_request_round_trips() {
        use lake::delta::LakeDelta;
        use lake::table::TableBuilder;
        let req = MutationRequest {
            deltas: vec![
                LakeDelta::new().add_table(
                    TableBuilder::new("T9")
                        .column("animal", ["Jaguar", "Okapi"])
                        .build()
                        .unwrap(),
                ),
                LakeDelta::new().remove_table("T1"),
            ],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: MutationRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.deltas.len(), 2);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
