//! # `dn-trace` — zero-dependency structured tracing for the serving stack
//!
//! The serving pipeline spans five moving layers (HTTP workers →
//! coordinator scatter-gather → shard engines → `dn-pool` compute →
//! WAL/ingest/replica background threads); this crate gives every layer a
//! shared, std-only tracing vocabulary:
//!
//! * **Traces and spans** ([`start_trace`], [`span()`]) — a trace is minted
//!   at the HTTP edge (or at the top of a background cycle) and carries a
//!   64-bit ID; spans open and close on a thread-local stack with
//!   monotonic-clock timings, so nesting falls out of scoping. Work that
//!   hops threads (pool workers, scatter probes) is carried across
//!   explicitly with [`current`] + [`TraceContext::enter`].
//! * **Sampling gate** — tracing is off unless [`set_sample_every`] is
//!   non-zero, and the *disabled* fast path of every instrumentation
//!   point is a single relaxed atomic load. Requests arriving with a
//!   forwarded `X-Dn-Trace-Id` are always traced (while tracing is
//!   enabled at all), so a cross-process mutation — `dn-ingest` →
//!   primary, follower tail → primary — is one logical trace.
//! * **The ring** ([`recent_traces`], [`trace_by_id`]) — completed traces
//!   land in a fixed-capacity ring buffer whose write path is an atomic
//!   cursor claim plus an uncontended per-slot swap (a contended slot
//!   drops the trace rather than blocking the request path). The server
//!   exposes it as `GET /v1/debug/traces` and `/v1/debug/traces/{id}`.
//! * **Phase histograms** ([`observe`]) — every span observation also
//!   lands in a per-[`Phase`] histogram, exposed as
//!   `dn_phase_duration_us{phase=...}`. Request-path phases fill at the
//!   sampling rate; background cycles (ingest, replica sync) trace
//!   themselves with the same gate.
//! * **The metrics registry** ([`metrics`]) — the family table, the
//!   counter/gauge/histogram instruments every crate's numbers live in,
//!   and the one Prometheus text writer; [`export_metrics`] writes this
//!   crate's own families.
//! * **Structured events** ([`event`], [`slow_query`]) — a single-line
//!   logger shared by `dn-serve` and `dn-ingest`, text by default and
//!   JSON under `--log-format json`; the slow-query log is always JSON
//!   (one machine-parsable line per request over the
//!   [`set_slow_query_us`] threshold).
//!
//! Everything here is plain `std`: no dependencies, no unsafe, no
//! wall-clock reads on the hot path.
//!
//! ## Example
//!
//! ```
//! dn_trace::set_sample_every(1);
//! {
//!     let trace = dn_trace::start_trace("example", None).expect("sampled");
//!     let id = trace.id();
//!     {
//!         let _route = dn_trace::span(dn_trace::Phase::Route);
//!         let _inner = dn_trace::span_labeled(dn_trace::Phase::ShardQuery, "shard0");
//!     }
//!     drop(trace);
//!     let finished = dn_trace::trace_by_id(id).expect("published");
//!     assert_eq!(finished.spans.len(), 3, "root + two nested spans");
//! }
//! dn_trace::set_sample_every(0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod metrics;
pub mod phase;
pub mod ring;
pub mod span;

pub use events::{
    event, format_unix_ms, json_event, log_format_json, render_json, set_log_format_json,
    slow_query, EventValue, Level,
};
pub use phase::{observe, Phase, PHASES};
pub use ring::{
    recent_traces, trace_by_id, traces_dropped, traces_published, FinishedTrace, SpanRecord,
    RING_CAPACITY,
};
pub use span::{
    current, current_trace_id, format_trace_id, parse_trace_id, span, span_labeled, start_trace,
    SpanGuard, TraceContext, TraceGuard,
};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// `0` = tracing disabled; `N` = trace one request in `N` (1 = all).
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(0);

/// Requests at or above this duration emit a slow-query JSON line.
/// `u64::MAX` = disabled.
static SLOW_QUERY_US: AtomicU64 = AtomicU64::new(u64::MAX);

/// Set the sampling rate: `0` disables tracing entirely (the fast path of
/// every instrumentation point is then a single relaxed load), `1` traces
/// every request, `N` traces one request in `N`. Forwarded trace IDs are
/// always honored while the rate is non-zero.
pub fn set_sample_every(n: u32) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// The current sampling rate (see [`set_sample_every`]).
pub fn sample_every() -> u32 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Write this crate's process-global families: the sampling rate, the
/// ring's counters, and every observed phase histogram.
pub fn export_metrics(w: &mut metrics::Exposition) {
    w.value(&metrics::TRACE_SAMPLE_EVERY, &[], sample_every());
    w.value(&metrics::TRACES_PUBLISHED, &[], traces_published());
    w.value(&metrics::TRACES_DROPPED, &[], traces_dropped());
    phase::export_metrics(w);
}

/// Whether tracing is enabled at all — one relaxed load.
pub fn enabled() -> bool {
    SAMPLE_EVERY.load(Ordering::Relaxed) != 0
}

/// Set the slow-query threshold in microseconds. Requests whose total
/// handling time meets or exceeds it emit one JSON line via
/// [`slow_query`]. `u64::MAX` (the default) disables the log; `0` logs
/// every request (useful in smoke tests).
pub fn set_slow_query_us(us: u64) {
    SLOW_QUERY_US.store(us, Ordering::Relaxed);
}

/// The current slow-query threshold (see [`set_slow_query_us`]).
pub fn slow_query_us() -> u64 {
    SLOW_QUERY_US.load(Ordering::Relaxed)
}

/// Tests across this crate's modules share process-global state (the
/// sampling gate, the ring); they serialize on this lock so libtest's
/// parallel runner cannot interleave them.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn global_state_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::global_state_lock;

    #[test]
    fn sampling_gate_round_trips() {
        let _lock = global_state_lock();
        assert_eq!(sample_every(), 0, "tracing is disabled between tests");
        assert!(!enabled());
        set_sample_every(16);
        assert_eq!(sample_every(), 16);
        assert!(enabled());
        set_sample_every(0);
        assert!(!enabled());
    }

    #[test]
    fn slow_query_threshold_round_trips() {
        assert_eq!(slow_query_us(), u64::MAX, "slow-query log starts off");
        set_slow_query_us(2_500);
        assert_eq!(slow_query_us(), 2_500);
        set_slow_query_us(u64::MAX);
    }
}
