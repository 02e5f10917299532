//! Route resolution and the per-endpoint handlers.
//!
//! Every read handler mints a [`dn_service::CoordinatorReader`] (or
//! clones the current [`dn_service::MultiView`] `Arc`), which pins one
//! immutable cross-shard epoch for the whole request — exactly the
//! in-process consistency contract, now over a socket. Write handlers
//! serialize on the single `Mutex<Coordinator>`; readers never touch it,
//! so a slow commit (or cross-shard rebalance) never blocks a query. The
//! wire format is unchanged from the unsharded server: merged rankings,
//! global ranks/percentiles, and the coordinator epoch are
//! indistinguishable from a single bigger engine.

use domainnet::Measure;

use crate::api::{
    CheckpointResponse, DigestResponse, ExplainResponse, HealthResponse, MutationRequest,
    MutationResponse, ScoreResponse, ShardDigest, ShutdownResponse, SnapshotResponse, SpanDto,
    TableSummaryResponse, TablesResponse, TopKResponse, TraceListResponse, TraceResponse,
    TraceSummary, WalRecordDto, WalResponse,
};
use crate::error::ApiError;
use crate::http::{percent_decode, Request, Response};
use crate::metrics::Route;
use crate::server::ServerState;

/// Default `k` when the query string does not pass one.
const DEFAULT_K: usize = 20;
/// Hard ceiling on `k` (a request for more is clamped, not refused — the
/// ranking is finite anyway and the cap bounds response allocation).
const MAX_K: usize = 100_000;

/// Resolve the path to a route and its allowed method, then dispatch.
/// Returns the route (for metrics labeling) together with the response.
pub(crate) fn handle(state: &ServerState, req: &Request) -> (Route, Response) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let resolved: Option<(Route, &'static str)> = match segments.as_slice() {
        ["healthz"] => Some((Route::Healthz, "GET")),
        ["metrics"] => Some((Route::Metrics, "GET")),
        ["v1", "top-k"] => Some((Route::TopK, "GET")),
        ["v1", "score", _] => Some((Route::Score, "GET")),
        ["v1", "explain", _] => Some((Route::Explain, "GET")),
        ["v1", "tables"] => Some((Route::Tables, "GET")),
        ["v1", "tables", _] => Some((Route::TableSummary, "GET")),
        ["v1", "mutations"] => Some((Route::Mutations, "POST")),
        ["v1", "wal"] => Some((Route::Wal, "GET")),
        ["v1", "snapshot"] => Some((Route::Snapshot, "GET")),
        ["v1", "digest"] => Some((Route::Digest, "GET")),
        ["v1", "admin", "checkpoint"] => Some((Route::Checkpoint, "POST")),
        ["v1", "admin", "shutdown"] => Some((Route::Shutdown, "POST")),
        ["v1", "debug", "traces"] => Some((Route::DebugTraces, "GET")),
        ["v1", "debug", "traces", _] => Some((Route::DebugTrace, "GET")),
        _ => None,
    };
    let Some((route, allowed)) = resolved else {
        return (
            Route::Other,
            ApiError::not_found(format!("no route for {}", req.path)).into_response(),
        );
    };
    if req.method != allowed {
        return (
            route,
            ApiError::method_not_allowed(format!(
                "{} does not allow {} (use {allowed})",
                req.path, req.method
            ))
            .into_response(),
        );
    }

    if let Some(refusal) = follower_gate(state, route) {
        return (route, refusal.into_response());
    }
    let _route_span = dn_trace::span_labeled(dn_trace::Phase::Route, route.label());
    let result = match route {
        Route::Healthz => healthz(state),
        Route::Metrics => metrics(state),
        Route::TopK => top_k(state, req),
        Route::Score => score(state, segments[2]),
        Route::Explain => explain(state, segments[2]),
        Route::Tables => tables(state),
        Route::TableSummary => table_summary(state, req, segments[2]),
        Route::Mutations => mutations(state, req),
        Route::Wal => wal(state, req),
        Route::Snapshot => snapshot(state, req),
        Route::Digest => digest(state),
        Route::Checkpoint => checkpoint(state),
        Route::Shutdown => shutdown(state),
        Route::DebugTraces => debug_traces(req),
        Route::DebugTrace => debug_trace(segments[3]),
        Route::Other => unreachable!("resolved routes are concrete"),
    };
    (
        route,
        result.unwrap_or_else(|api_error| api_error.into_response()),
    )
}

/// The follower-mode gate, applied before dispatch. Mutating routes
/// answer `403` with the primary's URL in the message; data-serving
/// routes answer `503` once the insurance layer has halted the replica —
/// a diverged follower must never serve a ranking. `/healthz`,
/// `/metrics`, and shutdown stay reachable so operators can observe and
/// drain a halted follower.
fn follower_gate(state: &ServerState, route: Route) -> Option<ApiError> {
    let replica = state.replica.as_ref()?;
    match route {
        Route::Mutations | Route::Checkpoint => Some(ApiError::forbidden(
            "read_only_follower",
            format!(
                "this server is a read-only follower; send writes to the primary at {}",
                replica.primary_url
            ),
        )),
        // Debug/trace introspection stays reachable on a halted follower
        // for the same reason /metrics does: it is how an operator sees
        // what the replica was doing when it diverged.
        Route::Healthz
        | Route::Metrics
        | Route::Shutdown
        | Route::DebugTraces
        | Route::DebugTrace
        | Route::Other => None,
        _ => replica.shared.halted().map(|reason| {
            ApiError::unavailable(
                "replica_diverged",
                format!("this follower halted after divergence from the primary: {reason}"),
            )
        }),
    }
}

fn ok_json<T: serde::Serialize>(body: &T) -> Result<Response, ApiError> {
    let json = serde_json::to_string(body)
        .map_err(|e| ApiError::internal(format!("response serialization failed: {e}")))?;
    Ok(Response::json(200, json))
}

fn decode_segment(raw: &str) -> Result<String, ApiError> {
    percent_decode(raw, false)
        .ok_or_else(|| ApiError::bad_request(format!("invalid percent-encoding in {raw:?}")))
}

/// Resolve the `measure` query parameter against the served measures.
/// An unknown token is a `400`; a recognized token whose measure this
/// server does not serve is a `404`.
fn resolve_measure(served: &[Measure], param: Option<&str>) -> Result<Measure, ApiError> {
    let Some(token) = param else {
        return served
            .first()
            .copied()
            .ok_or_else(|| ApiError::not_found("this server serves no measures"));
    };
    let canonical = match token.to_ascii_lowercase().replace('-', "_").as_str() {
        "lcc" | "lcc_attr" | "lcc(attr)" => "LCC",
        "bc" | "exact_bc" => "BC",
        "bc_approx" | "approx_bc" | "bc(approx)" => "BC(approx)",
        _ => {
            return Err(ApiError::bad_request(format!(
                "unknown measure {token:?} (expected one of: lcc, lcc_attr, bc, approx_bc)"
            )))
        }
    };
    served
        .iter()
        .copied()
        .find(|m| m.name() == canonical)
        .ok_or_else(|| {
            let names: Vec<&str> = served.iter().map(|m| m.name()).collect();
            ApiError::not_found(format!(
                "measure {canonical} is not served here (served: {names:?})"
            ))
        })
}

fn parse_k(req: &Request) -> Result<usize, ApiError> {
    match req.query_value("k") {
        None => Ok(DEFAULT_K),
        Some(raw) => {
            let k: usize = raw.parse().map_err(|_| {
                ApiError::bad_request(format!("k must be a non-negative integer, got {raw:?}"))
            })?;
            Ok(k.min(MAX_K))
        }
    }
}

fn healthz(state: &ServerState) -> Result<Response, ApiError> {
    ok_json(&HealthResponse {
        status: "ok".to_owned(),
        epoch: state.service.epoch(),
    })
}

fn metrics(state: &ServerState) -> Result<Response, ApiError> {
    let text = state.metrics.render(
        &state.service,
        state.replica.as_ref().map(|r| &*r.shared),
        state.ingest.as_ref().map(|c| &*c.shared),
    );
    Ok(Response::text(200, text))
}

fn top_k(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let reader = state.service.reader();
    let view = reader.view();
    let measure = resolve_measure(view.measures(), req.query_value("measure"))?;
    let k = parse_k(req)?;
    let results: Vec<domainnet::ScoredValue> = match req.query_value("table") {
        None => view
            .top_k(measure, k)
            .ok_or_else(|| ApiError::not_found("measure not served"))?,
        Some(table) => {
            let summary = view.table_summary(table, measure, k).ok_or_else(|| {
                ApiError::not_found(format!("no table named {table:?} in this epoch"))
            })?;
            summary.top
        }
    };
    ok_json(&TopKResponse {
        epoch: view.epoch(),
        measure: measure.name().to_owned(),
        k,
        results,
    })
}

fn score(state: &ServerState, raw_value: &str) -> Result<Response, ApiError> {
    let value = decode_segment(raw_value)?;
    let view = state.service.current();
    let cards = view.score_cards(view.measures(), &value);
    if cards.is_empty() {
        return Err(ApiError::not_found(format!(
            "value {value:?} is not a live candidate in epoch {}",
            view.epoch()
        )));
    }
    ok_json(&ScoreResponse {
        epoch: view.epoch(),
        value: cards[0].value.clone(),
        cards,
    })
}

fn explain(state: &ServerState, raw_value: &str) -> Result<Response, ApiError> {
    let value = decode_segment(raw_value)?;
    let view = state.service.current();
    let explanation = view.explain(&value).ok_or_else(|| {
        ApiError::not_found(format!(
            "value {value:?} is not a live candidate in epoch {}",
            view.epoch()
        ))
    })?;
    ok_json(&ExplainResponse {
        epoch: view.epoch(),
        explanation,
    })
}

fn tables(state: &ServerState) -> Result<Response, ApiError> {
    let view = state.service.current();
    ok_json(&TablesResponse {
        epoch: view.epoch(),
        tables: view.table_names(),
    })
}

fn table_summary(state: &ServerState, req: &Request, raw_name: &str) -> Result<Response, ApiError> {
    let name = decode_segment(raw_name)?;
    let view = state.service.current();
    let measure = resolve_measure(view.measures(), req.query_value("measure"))?;
    let k = parse_k(req)?;
    let summary = view
        .table_summary(&name, measure, k)
        .ok_or_else(|| ApiError::not_found(format!("no table named {name:?} in this epoch")))?;
    ok_json(&TableSummaryResponse {
        epoch: view.epoch(),
        measure: measure.name().to_owned(),
        summary,
    })
}

fn mutations(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let parsed = MutationRequest::decode(&req.body)?;
    let batches = parsed.deltas.len();
    let mut coordinator = state
        .coordinator
        .lock()
        .map_err(|_| ApiError::internal("coordinator lock poisoned"))?;
    for delta in parsed.deltas {
        coordinator.stage(delta);
    }
    // A failed commit is NOT published: every shard that applied part of
    // the batch already resynced its net from its partially applied lake
    // (the engine's documented batch semantics), and readers keep the
    // previous coordinator epoch until the next successful batch
    // publishes.
    let stats = coordinator
        .commit()
        .map_err(|e| ApiError::from_service(&e))?;
    let epoch = coordinator.publish();
    ok_json(&MutationResponse {
        epoch,
        batches,
        stats,
    })
}

/// Parse a required non-negative integer query parameter.
fn parse_uint_param<T: std::str::FromStr>(req: &Request, name: &str) -> Result<T, ApiError> {
    let raw = req
        .query_value(name)
        .ok_or_else(|| ApiError::bad_request(format!("missing required parameter {name:?}")))?;
    raw.parse().map_err(|_| {
        ApiError::bad_request(format!(
            "{name} must be a non-negative integer, got {raw:?}"
        ))
    })
}

/// Lock the coordinator for a replication read, mapping the durability
/// precondition to the documented `409`.
fn lock_durable(
    state: &ServerState,
) -> Result<std::sync::MutexGuard<'_, dn_service::Coordinator>, ApiError> {
    let coordinator = state
        .coordinator
        .lock()
        .map_err(|_| ApiError::internal("coordinator lock poisoned"))?;
    if !coordinator.is_durable() {
        return Err(ApiError::conflict(
            "this server is not durable (no --data-dir store); nothing to replicate",
        ));
    }
    Ok(coordinator)
}

fn wal(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let shard: usize = parse_uint_param(req, "shard")?;
    let from_seq: u64 = parse_uint_param(req, "from_seq")?;
    let coordinator = lock_durable(state)?;
    if shard >= coordinator.shard_count() {
        return Err(ApiError::bad_request(format!(
            "shard {shard} out of range (this server has {})",
            coordinator.shard_count()
        )));
    }
    let tail = match coordinator.shard(shard).wal_after(from_seq) {
        Ok(tail) => tail,
        // The only Corrupt a range read raises itself is a from_seq ahead
        // of the log — the caller's position is wrong, not the log.
        Err(dn_service::ServiceError::Store(dn_store::StoreError::Corrupt { .. })) => {
            return Err(ApiError::bad_request(format!(
                "from_seq {from_seq} is ahead of shard {shard}'s log"
            )))
        }
        Err(e) => return Err(ApiError::from_service(&e)),
    };
    drop(coordinator);
    let response = match tail {
        dn_store::WalTail::Records(records) => WalResponse {
            shard,
            from_seq,
            snapshot_required: false,
            snapshot_seq: None,
            records: records
                .into_iter()
                .map(|r| WalRecordDto {
                    seq: r.seq,
                    epoch: r.epoch,
                    batch: r.batch,
                })
                .collect(),
        },
        dn_store::WalTail::SnapshotRequired { snapshot_seq } => WalResponse {
            shard,
            from_seq,
            snapshot_required: true,
            snapshot_seq: Some(snapshot_seq),
            records: Vec::new(),
        },
    };
    ok_json(&response)
}

fn snapshot(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let shard: usize = parse_uint_param(req, "shard")?;
    let coordinator = lock_durable(state)?;
    if shard >= coordinator.shard_count() {
        return Err(ApiError::bad_request(format!(
            "shard {shard} out of range (this server has {})",
            coordinator.shard_count()
        )));
    }
    let (seq, bytes) = coordinator
        .shard(shard)
        .newest_snapshot_bytes()
        .map_err(|e| ApiError::from_service(&e))?;
    drop(coordinator);
    ok_json(&SnapshotResponse {
        shard,
        seq,
        hex: dn_store::to_hex(&bytes),
    })
}

fn digest(state: &ServerState) -> Result<Response, ApiError> {
    // Digest the published view — lock-free, and exactly what this
    // server's own readers observe, which is the state the insurance
    // exchange is insuring.
    let view = state.service.current();
    let shards = (0..view.shard_count())
        .map(|i| {
            let snapshot = view.shard(i);
            ShardDigest {
                shard: i,
                epoch: snapshot.epoch(),
                digest: format!("{:016x}", dn_service::snapshot_digest(snapshot)),
            }
        })
        .collect();
    ok_json(&DigestResponse {
        epoch: view.epoch(),
        shards,
    })
}

fn checkpoint(state: &ServerState) -> Result<Response, ApiError> {
    let mut coordinator = state
        .coordinator
        .lock()
        .map_err(|_| ApiError::internal("coordinator lock poisoned"))?;
    match coordinator.checkpoint_now() {
        Ok(true) => ok_json(&CheckpointResponse {
            checkpointed: true,
            epoch: coordinator.epoch(),
        }),
        Ok(false) => Err(ApiError::conflict(
            "this server is not durable (no --data-dir store); nothing to checkpoint",
        )),
        Err(e) => Err(ApiError::from_service(&e)),
    }
}

fn shutdown(state: &ServerState) -> Result<Response, ApiError> {
    state.begin_shutdown();
    ok_json(&ShutdownResponse {
        status: "shutting down".to_owned(),
    })
}

/// Default and maximum `limit` for the trace list.
const DEFAULT_TRACE_LIMIT: usize = 50;

fn trace_summary(trace: &dn_trace::FinishedTrace) -> TraceSummary {
    TraceSummary {
        id: dn_trace::format_trace_id(trace.id),
        name: trace.name.to_owned(),
        label: trace.label.clone(),
        started: dn_trace::format_unix_ms(trace.started_unix_ms),
        duration_us: trace.duration_us,
        forwarded: trace.forwarded,
        spans: trace.spans.len(),
    }
}

fn debug_traces(req: &Request) -> Result<Response, ApiError> {
    let limit = match req.query_value("limit") {
        None => DEFAULT_TRACE_LIMIT,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| {
                ApiError::bad_request(format!("limit must be a non-negative integer, got {raw:?}"))
            })?
            .min(dn_trace::RING_CAPACITY),
    };
    let traces = dn_trace::recent_traces(limit);
    ok_json(&TraceListResponse {
        sample_every: dn_trace::sample_every() as u64,
        published: dn_trace::traces_published(),
        dropped: dn_trace::traces_dropped(),
        traces: traces.iter().map(|t| trace_summary(t)).collect(),
    })
}

fn debug_trace(raw_id: &str) -> Result<Response, ApiError> {
    let id = dn_trace::parse_trace_id(raw_id)
        .ok_or_else(|| ApiError::bad_request(format!("invalid trace id {raw_id:?}")))?;
    let trace = dn_trace::trace_by_id(id).ok_or_else(|| {
        ApiError::not_found(format!(
            "no retained trace {raw_id} (the ring holds the newest {}; was the request sampled?)",
            dn_trace::RING_CAPACITY
        ))
    })?;
    // Self time = own duration minus the direct children's durations.
    let mut child_sum = std::collections::HashMap::new();
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            *child_sum.entry(parent).or_insert(0u64) += span.duration_us();
        }
    }
    let spans = trace
        .spans
        .iter()
        .map(|s| SpanDto {
            id: s.id as u64,
            parent: s.parent.map(|p| p as u64),
            name: s.name.to_owned(),
            label: s.label.clone(),
            start_us: s.start_us,
            end_us: s.end_us,
            duration_us: s.duration_us(),
            self_us: s
                .duration_us()
                .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0)),
        })
        .collect();
    ok_json(&TraceResponse {
        id: dn_trace::format_trace_id(trace.id),
        name: trace.name.to_owned(),
        label: trace.label.clone(),
        started: dn_trace::format_unix_ms(trace.started_unix_ms),
        duration_us: trace.duration_us,
        forwarded: trace.forwarded,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_resolution() {
        let served = [Measure::lcc(), Measure::exact_bc()];
        assert_eq!(
            resolve_measure(&served, None).unwrap(),
            Measure::lcc(),
            "default = first served"
        );
        assert_eq!(
            resolve_measure(&served, Some("bc")).unwrap(),
            Measure::exact_bc()
        );
        assert_eq!(
            resolve_measure(&served, Some("BC")).unwrap(),
            Measure::exact_bc()
        );
        // `lcc_attr` named the attribute-set reading before it became `lcc`.
        for token in ["lcc", "lcc_attr", "LCC(attr)"] {
            assert_eq!(
                resolve_measure(&served, Some(token)).unwrap(),
                Measure::lcc()
            );
        }
        // Recognized but unserved → 404.
        assert_eq!(
            resolve_measure(&served, Some("approx_bc"))
                .unwrap_err()
                .status,
            404
        );
        // Unknown token → 400.
        assert_eq!(
            resolve_measure(&served, Some("pagerank"))
                .unwrap_err()
                .status,
            400
        );
    }
}
