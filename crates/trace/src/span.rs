//! Traces, spans, and the thread-local span stack.
//!
//! A [`TraceGuard`] (from [`start_trace`]) owns one trace: it installs
//! the trace on the current thread, opens the root span, and on drop
//! closes the root, sorts the collected spans, and publishes the
//! [`FinishedTrace`] into the ring. [`span`] opens a child span under
//! whatever is on the current thread's stack — a no-op costing one
//! relaxed atomic load when tracing is disabled, and one thread-local
//! check when no trace is active on this thread.
//!
//! Work that crosses threads (scatter probes, pool workers) captures a
//! [`TraceContext`] with [`current`] *before* handing off and calls
//! [`TraceContext::enter`] inside the worker: that installs the trace on
//! the worker's thread for the guard's lifetime, so further [`span`]
//! calls in the worker nest correctly under the remote parent.
//!
//! Timings are monotonic ([`Instant`]) offsets from the trace start; the
//! only wall-clock read is one `SystemTime::now` per *sampled* trace, for
//! the display timestamp.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::phase::{self, Phase};
use crate::ring::{self, FinishedTrace, SpanRecord};

/// The collection state of one in-flight trace, shared by every thread
/// that records spans into it.
struct ActiveTrace {
    id: u64,
    name: &'static str,
    t0: Instant,
    started_unix_ms: u64,
    forwarded: bool,
    label: Mutex<String>,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU32,
}

impl ActiveTrace {
    fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}

/// This thread's position inside a trace: the trace plus the stack of
/// currently open span IDs (innermost last).
struct LocalCtx {
    trace: Arc<ActiveTrace>,
    stack: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalCtx>> = const { RefCell::new(None) };
}

/// Mint a fresh, non-zero, process-unique 64-bit trace ID. Seeded once
/// from the wall clock + PID, then stepped through SplitMix64 — no
/// coordination, no RNG dependency.
fn mint_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default();
        (now.as_nanos() as u64) ^ ((std::process::id() as u64) << 32)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    if id == 0 {
        1
    } else {
        id
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Render a trace ID as its canonical 16-hex-char wire form (the
/// `X-Dn-Trace-Id` header value).
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire-form trace ID: 1–16 hex chars, non-zero. Anything else
/// is rejected (the edge then mints a fresh ID instead).
pub fn parse_trace_id(raw: &str) -> Option<u64> {
    if raw.is_empty() || raw.len() > 16 || !raw.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(raw, 16).ok().filter(|&id| id != 0)
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Start a trace on this thread, subject to the sampling gate.
///
/// Returns `None` when tracing is disabled (one relaxed load) or this
/// request lost the 1-in-N sampling draw. A `forwarded` ID (from an
/// `X-Dn-Trace-Id` header) bypasses the draw — while tracing is enabled,
/// forwarded requests are always traced under the forwarded ID, which is
/// what stitches cross-process work into one logical trace.
pub fn start_trace(name: &'static str, forwarded: Option<u64>) -> Option<TraceGuard> {
    let every = crate::sample_every();
    if every == 0 {
        return None;
    }
    if forwarded.is_none() {
        static DRAW: AtomicU32 = AtomicU32::new(0);
        if DRAW.fetch_add(1, Ordering::Relaxed) % every != 0 {
            return None;
        }
    }
    let trace = Arc::new(ActiveTrace {
        id: forwarded.unwrap_or_else(mint_id),
        name,
        t0: Instant::now(),
        started_unix_ms: unix_ms_now(),
        forwarded: forwarded.is_some(),
        label: Mutex::new(String::new()),
        spans: Mutex::new(Vec::with_capacity(16)),
        next_span: AtomicU32::new(1), // the root consumed ID 0
    });
    let saved = LOCAL.with(|local| {
        local.borrow_mut().replace(LocalCtx {
            trace: Arc::clone(&trace),
            stack: vec![0],
        })
    });
    Some(TraceGuard { trace, saved })
}

/// Owns one in-flight trace; dropping it closes the root span and
/// publishes the finished trace into the ring.
pub struct TraceGuard {
    trace: Arc<ActiveTrace>,
    /// Whatever trace was active on this thread before (usually none).
    saved: Option<LocalCtx>,
}

impl TraceGuard {
    /// The trace's 64-bit ID.
    pub fn id(&self) -> u64 {
        self.trace.id
    }

    /// The trace ID in wire form (16 hex chars).
    pub fn id_hex(&self) -> String {
        format_trace_id(self.trace.id)
    }

    /// Set the trace's display label (route + status for HTTP traces).
    /// The last call wins.
    pub fn set_label(&self, label: impl Into<String>) {
        *self.trace.label.lock().unwrap_or_else(|p| p.into_inner()) = label.into();
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let end_us = self.trace.elapsed_us();
        LOCAL.with(|local| {
            *local.borrow_mut() = self.saved.take();
        });
        let mut spans =
            std::mem::take(&mut *self.trace.spans.lock().unwrap_or_else(|p| p.into_inner()));
        spans.push(SpanRecord {
            id: 0,
            parent: None,
            name: self.trace.name,
            label: String::new(),
            start_us: 0,
            end_us,
        });
        spans.sort_by_key(|s| (s.start_us, s.id));
        ring::publish(FinishedTrace {
            id: self.trace.id,
            name: self.trace.name,
            label: self
                .trace
                .label
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
            started_unix_ms: self.trace.started_unix_ms,
            duration_us: end_us,
            forwarded: self.trace.forwarded,
            spans,
        });
    }
}

/// The state one open span carries until it closes.
struct OpenSpan {
    trace: Arc<ActiveTrace>,
    id: u32,
    parent: Option<u32>,
    phase: Phase,
    label: String,
    start_us: u64,
    /// `Some` when this guard installed the trace on a fresh thread
    /// ([`TraceContext::enter`]); holds the context to restore on drop.
    restore: Option<Option<LocalCtx>>,
}

/// Closes its span on drop. A disabled or inactive instrumentation point
/// yields an inert guard (no allocation, no atomics beyond the gate).
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    const NOOP: SpanGuard = SpanGuard { open: None };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.open.take() else {
            return;
        };
        let end_us = open.trace.elapsed_us();
        LOCAL.with(|local| {
            let mut slot = local.borrow_mut();
            if let Some(ctx) = slot.as_mut() {
                if ctx.stack.last() == Some(&open.id) {
                    ctx.stack.pop();
                } else {
                    // Out-of-order drop (shouldn't happen with scoped
                    // guards); scrub rather than corrupt the stack.
                    ctx.stack.retain(|&id| id != open.id);
                }
            }
            if let Some(previous) = open.restore.take() {
                *slot = previous;
            }
        });
        phase::observe(open.phase, end_us.saturating_sub(open.start_us));
        open.trace
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.phase.label(),
                label: open.label,
                start_us: open.start_us,
                end_us,
            });
    }
}

/// Open an unlabeled span under the current thread's innermost open span.
pub fn span(phase: Phase) -> SpanGuard {
    span_labeled(phase, "")
}

/// Open a span with a detail label. The label is only copied when the
/// span actually records.
pub fn span_labeled(phase: Phase, label: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::NOOP; // disabled path: one relaxed load
    }
    LOCAL.with(|local| {
        let mut slot = local.borrow_mut();
        let Some(ctx) = slot.as_mut() else {
            return SpanGuard::NOOP;
        };
        let id = ctx.trace.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = ctx.stack.last().copied();
        let start_us = ctx.trace.elapsed_us();
        ctx.stack.push(id);
        SpanGuard {
            open: Some(OpenSpan {
                trace: Arc::clone(&ctx.trace),
                id,
                parent,
                phase,
                label: label.to_owned(),
                start_us,
                restore: None,
            }),
        }
    })
}

/// A cheap, cloneable capture of "the trace and parent span active on
/// this thread right now", for carrying a trace across a thread hop.
/// Inactive when tracing is off or no trace is running — `enter` is then
/// a no-op, so call sites never branch themselves.
#[derive(Clone)]
pub struct TraceContext {
    inner: Option<(Arc<ActiveTrace>, u32)>,
}

impl TraceContext {
    /// A context that records nothing.
    pub fn inactive() -> TraceContext {
        TraceContext { inner: None }
    }

    /// The trace ID this context belongs to, if active.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|(trace, _)| trace.id)
    }

    /// Install the trace on the current thread and open a span under the
    /// captured parent. Dropping the guard closes the span and restores
    /// the thread's previous trace state — use one `enter` per unit of
    /// handed-off work, with further [`span`] calls nesting inside it.
    /// `label` is rendered only when the context is active, so a call site
    /// may pass `format_args!(..)` and pay nothing on the inactive path.
    pub fn enter(&self, phase: Phase, label: impl std::fmt::Display) -> SpanGuard {
        let Some((trace, parent)) = &self.inner else {
            return SpanGuard::NOOP;
        };
        let id = trace.next_span.fetch_add(1, Ordering::Relaxed);
        let start_us = trace.elapsed_us();
        let previous = LOCAL.with(|local| {
            local.borrow_mut().replace(LocalCtx {
                trace: Arc::clone(trace),
                stack: vec![id],
            })
        });
        SpanGuard {
            open: Some(OpenSpan {
                trace: Arc::clone(trace),
                id,
                parent: Some(*parent),
                phase,
                label: label.to_string(),
                start_us,
                restore: Some(previous),
            }),
        }
    }
}

/// Capture the current thread's trace position (see [`TraceContext`]).
/// One relaxed load when tracing is disabled.
pub fn current() -> TraceContext {
    if !crate::enabled() {
        return TraceContext::inactive();
    }
    LOCAL.with(|local| TraceContext {
        inner: local.borrow().as_ref().map(|ctx| {
            (
                Arc::clone(&ctx.trace),
                ctx.stack.last().copied().unwrap_or(0),
            )
        }),
    })
}

/// The ID of the trace active on this thread, if any — what outbound
/// HTTP calls put in their `X-Dn-Trace-Id` header.
pub fn current_trace_id() -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    LOCAL.with(|local| local.borrow().as_ref().map(|ctx| ctx.trace.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::global_state_lock;

    #[test]
    fn id_wire_format_round_trips() {
        assert_eq!(format_trace_id(0x1234), "0000000000001234");
        assert_eq!(parse_trace_id("0000000000001234"), Some(0x1234));
        assert_eq!(parse_trace_id("abc"), Some(0xabc));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None, "zero is reserved");
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None, "too long");
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = mint_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate minted ID");
        }
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _lock = global_state_lock();
        crate::set_sample_every(0);
        assert!(start_trace("test", None).is_none());
        assert!(span(Phase::Route).open.is_none());
        assert_eq!(current().id(), None);
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn spans_nest_and_publish() {
        let _lock = global_state_lock();
        crate::set_sample_every(1);
        let trace = start_trace("test_nest", None).expect("sampled at 1");
        let id = trace.id();
        trace.set_label("unit");
        assert_eq!(current_trace_id(), Some(id));
        {
            let outer = span_labeled(Phase::CoordScatter, "outer");
            assert!(outer.open.is_some());
            let _inner = span(Phase::ShardQuery);
        }
        drop(trace);
        crate::set_sample_every(0);

        let finished = crate::trace_by_id(id).expect("published");
        assert_eq!(finished.name, "test_nest");
        assert_eq!(finished.label, "unit");
        assert!(!finished.forwarded);
        assert_eq!(finished.spans.len(), 3);
        let root = finished.spans.iter().find(|s| s.id == 0).expect("root");
        assert_eq!(root.parent, None);
        let outer = finished
            .spans
            .iter()
            .find(|s| s.name == "coord_scatter")
            .expect("outer");
        assert_eq!(outer.parent, Some(0));
        assert_eq!(outer.label, "outer");
        let inner = finished
            .spans
            .iter()
            .find(|s| s.name == "shard_query")
            .expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        // Monotone containment: children inside parents, all inside root.
        for child in [outer, inner] {
            assert!(child.start_us <= child.end_us);
            assert!(child.end_us <= root.end_us);
        }
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
    }

    #[test]
    fn sampling_draw_traces_one_in_n() {
        let _lock = global_state_lock();
        crate::set_sample_every(4);
        let sampled = (0..40)
            .filter(|_| start_trace("test_draw", None).is_some())
            .count();
        crate::set_sample_every(0);
        assert_eq!(sampled, 10, "exactly 1 in 4");
    }

    #[test]
    fn forwarded_ids_bypass_the_draw() {
        let _lock = global_state_lock();
        crate::set_sample_every(1_000_000);
        for _ in 0..3 {
            let trace = start_trace("test_fwd", Some(0xF0F0)).expect("forwarded always traced");
            assert_eq!(trace.id(), 0xF0F0);
        }
        crate::set_sample_every(0);
        let finished = crate::trace_by_id(0xF0F0).expect("published");
        assert!(finished.forwarded);
    }

    #[test]
    fn context_carries_spans_across_threads() {
        let _lock = global_state_lock();
        crate::set_sample_every(1);
        let trace = start_trace("test_cross", None).expect("sampled at 1");
        let id = trace.id();
        let parent_span = span_labeled(Phase::CoordScatter, "batch");
        let ctx = current();
        assert_eq!(ctx.id(), Some(id));
        std::thread::scope(|scope| {
            for shard in 0..2 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _entered = ctx.enter(Phase::ShardQuery, format_args!("shard{shard}"));
                    let _nested = span(Phase::MeasureCompute);
                    assert_eq!(current_trace_id(), Some(id), "installed on the worker");
                });
            }
        });
        drop(parent_span);
        drop(trace);
        crate::set_sample_every(0);

        let finished = crate::trace_by_id(id).expect("published");
        // root + batch + 2×(enter + nested) = 6 spans.
        assert_eq!(finished.spans.len(), 6);
        let batch = finished
            .spans
            .iter()
            .find(|s| s.label == "batch")
            .expect("batch span");
        let probes: Vec<_> = finished
            .spans
            .iter()
            .filter(|s| s.name == "shard_query")
            .collect();
        assert_eq!(probes.len(), 2);
        for probe in &probes {
            assert_eq!(probe.parent, Some(batch.id), "probes hang off the batch");
            assert!(probe.start_us >= batch.start_us && probe.end_us <= batch.end_us);
            let nested = finished
                .spans
                .iter()
                .find(|s| s.parent == Some(probe.id))
                .expect("nested span recorded on the worker");
            assert_eq!(nested.name, "measure_compute");
        }
    }

    #[test]
    fn enter_restores_the_previous_thread_state() {
        let _lock = global_state_lock();
        crate::set_sample_every(1);
        let trace_a = start_trace("test_restore_a", None).expect("sampled");
        let ctx_a = current();
        // Simulate a same-thread handoff (inline pool path): entering a
        // context replaces the thread state and drop restores it.
        {
            let _entered = ctx_a.enter(Phase::PoolBcChunks, "inline");
            assert_eq!(current_trace_id(), Some(trace_a.id()));
        }
        assert_eq!(current_trace_id(), Some(trace_a.id()));
        drop(trace_a);
        assert_eq!(current_trace_id(), None, "root drop clears the thread");
        crate::set_sample_every(0);
    }
}
