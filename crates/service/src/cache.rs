//! Counters of the merged top-k reads. Each [`crate::MultiView`] merges
//! the shard rankings of a measure into one global order on its first
//! top-k read of that measure and keeps it while the view lives, so there
//! is nothing to size, evict or invalidate. The `dn_cache_*` families keep
//! their names: a **miss** is a view merging an order, a **hit** is any
//! other top-k read.

use dn_trace::metrics::Counter;

/// Top-k read counters, shared by every view one coordinator publishes.
#[derive(Debug, Default)]
pub(crate) struct TopKReads {
    pub hits: Counter,
    pub misses: Counter,
}

/// Aggregate top-k read counters, exposed via
/// [`crate::CoordinatorHandle::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Top-k reads answered from an order their view had already merged.
    pub hits: u64,
    /// Top-k reads that merged their view's order under the measure.
    pub misses: u64,
    /// Orders merged in the current view.
    pub entries: usize,
    /// Orders the current view can hold: one per served measure.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of reads that found their order merged (0.0 when none
    /// happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
