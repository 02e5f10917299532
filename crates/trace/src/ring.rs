//! The completed-trace ring buffer.
//!
//! A process-wide, fixed-capacity ring of the most recent
//! [`FinishedTrace`]s. The write path is designed never to block a
//! request worker: claiming a slot is one lock-free `fetch_add` on the
//! cursor, and the per-slot store is a `try_lock` + swap — the slot
//! mutexes are uncontended in practice (a reader holds one only long
//! enough to clone an `Arc`), and if a slot *is* contended the trace is
//! counted in [`traces_dropped`] and discarded rather than waited for.
//! Unsampled requests never touch the ring at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::Counter;

/// How many completed traces the ring retains before overwriting.
pub const RING_CAPACITY: usize = 256;

/// One closed span inside a finished trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span ID, unique within the trace; the root span is always `0`.
    pub id: u32,
    /// Parent span ID (`None` only for the root).
    pub parent: Option<u32>,
    /// The span/phase name (`route`, `coord_scatter`, ...).
    pub name: &'static str,
    /// Free-form detail label (`shard1`, a route path, ...); often empty.
    pub label: String,
    /// Start offset from the trace's start, microseconds.
    pub start_us: u64,
    /// End offset from the trace's start, microseconds.
    pub end_us: u64,
}

impl SpanRecord {
    /// The span's wall duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A completed trace, as retained by the ring and served by the debug
/// endpoints.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The 64-bit trace ID (hex-encoded as 16 chars on the wire).
    pub id: u64,
    /// The trace name (`http`, `ingest_poll`, `replica_sync`, ...).
    pub name: &'static str,
    /// Free-form label set by the edge (route + status for HTTP traces).
    pub label: String,
    /// Wall-clock start, milliseconds since the Unix epoch (for display
    /// only — span timings use the monotonic clock).
    pub started_unix_ms: u64,
    /// Root span duration, microseconds.
    pub duration_us: u64,
    /// Whether the ID was forwarded from another process rather than
    /// minted here.
    pub forwarded: bool,
    /// All closed spans, sorted by `(start_us, id)`; `spans[0]` is not
    /// necessarily the root (sort order), find it by `id == 0`.
    pub spans: Vec<SpanRecord>,
}

struct Ring {
    slots: Vec<Mutex<Option<Arc<FinishedTrace>>>>,
    /// Next slot to claim; total published = this counter (minus drops).
    cursor: AtomicU64,
    published: Counter,
    dropped: Counter,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicU64::new(0),
        published: Counter::default(),
        dropped: Counter::default(),
    })
}

/// Publish one finished trace into the ring (called by the span layer
/// when a root guard drops).
pub(crate) fn publish(trace: FinishedTrace) {
    let ring = ring();
    let slot = ring.cursor.fetch_add(1, Ordering::Relaxed) as usize % RING_CAPACITY;
    match ring.slots[slot].try_lock() {
        Ok(mut held) => {
            *held = Some(Arc::new(trace));
            ring.published.inc();
        }
        Err(_) => {
            // A reader holds this slot right now; dropping the trace is
            // cheaper than making the request path wait.
            ring.dropped.inc();
        }
    }
}

/// The most recent traces, newest first, at most `limit`.
pub fn recent_traces(limit: usize) -> Vec<Arc<FinishedTrace>> {
    let ring = ring();
    let cursor = ring.cursor.load(Ordering::Relaxed);
    let mut out = Vec::new();
    for back in 1..=RING_CAPACITY as u64 {
        if out.len() >= limit || back > cursor {
            break;
        }
        let slot = ((cursor - back) % RING_CAPACITY as u64) as usize;
        if let Ok(held) = ring.slots[slot].try_lock() {
            if let Some(trace) = held.as_ref() {
                out.push(Arc::clone(trace));
            }
        }
    }
    out
}

/// Find the newest retained trace with the given ID. Forwarded IDs can
/// appear on several traces (each hop publishes its own tree under the
/// shared ID); the newest wins.
pub fn trace_by_id(id: u64) -> Option<Arc<FinishedTrace>> {
    recent_traces(RING_CAPACITY)
        .into_iter()
        .find(|t| t.id == id)
}

/// Total traces successfully published into the ring since startup.
pub fn traces_published() -> u64 {
    ring().published.get()
}

/// Total traces discarded because their slot was contended at publish
/// time.
pub fn traces_dropped() -> u64 {
    ring().dropped.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::global_state_lock;

    fn trace(id: u64, duration_us: u64) -> FinishedTrace {
        FinishedTrace {
            id,
            name: "test",
            label: String::new(),
            started_unix_ms: 0,
            duration_us,
            forwarded: false,
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                name: "test",
                label: String::new(),
                start_us: 0,
                end_us: duration_us,
            }],
        }
    }

    #[test]
    fn publish_find_and_evict() {
        let _lock = global_state_lock();
        // IDs in a range no other test uses: the ring is process-global.
        publish(trace(0xAAAA_0001, 10));
        publish(trace(0xAAAA_0002, 20));
        assert_eq!(trace_by_id(0xAAAA_0001).expect("retained").duration_us, 10);
        assert_eq!(trace_by_id(0xAAAA_0002).expect("retained").duration_us, 20);
        assert!(trace_by_id(0xAAAA_FFFF).is_none());

        // Overflow the capacity; the early IDs rotate out.
        for i in 0..RING_CAPACITY as u64 {
            publish(trace(0xBBBB_0000 + i, i));
        }
        assert!(trace_by_id(0xAAAA_0001).is_none(), "evicted");
        assert!(trace_by_id(0xBBBB_0000 + RING_CAPACITY as u64 - 1).is_some());

        let recent = recent_traces(8);
        assert_eq!(recent.len(), 8);
        assert_eq!(
            recent[0].id,
            0xBBBB_0000 + RING_CAPACITY as u64 - 1,
            "newest first"
        );
        assert!(traces_published() >= RING_CAPACITY as u64 + 2);
    }

    #[test]
    fn duplicate_ids_resolve_to_the_newest() {
        let _lock = global_state_lock();
        publish(trace(0xCCCC_0001, 1));
        publish(trace(0xCCCC_0001, 2));
        assert_eq!(trace_by_id(0xCCCC_0001).expect("retained").duration_us, 2);
    }
}
