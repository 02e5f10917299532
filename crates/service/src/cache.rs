//! A small LRU cache for repeated top-k queries.
//!
//! Top-k is by far the hottest query shape a homograph service answers
//! ("show me the 20 most suspicious values"), and its result is identical
//! for every reader pinned to the same epoch. The cache therefore keys on
//! `(epoch, measure, k)` and stores the materialized prefix behind an
//! `Arc`, so concurrent readers share one allocation. Publishing a new
//! epoch invalidates the whole cache — entries for dead epochs would only
//! be hit by readers deliberately pinned to the past, and those can afford
//! the recompute.

use std::collections::HashMap;
use std::sync::Arc;

use domainnet::{Measure, ScoredValue};

/// Cache key: one entry per `(epoch, measure, k)` combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub epoch: u64,
    pub measure: Measure,
    pub k: usize,
}

#[derive(Debug)]
struct CacheEntry {
    last_used: u64,
    data: Arc<Vec<ScoredValue>>,
}

/// Aggregate cache counters, exposed via
/// [`crate::CoordinatorHandle::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to materialize the prefix.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The LRU store. Not thread-safe by itself: the engine wraps it in a
/// `Mutex`, which is the right trade at this size — the critical section is
/// a hash lookup, far cheaper than the ranking clone it avoids.
#[derive(Debug)]
pub(crate) struct TopKCache {
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    entries: HashMap<CacheKey, CacheEntry>,
}

impl TopKCache {
    pub fn new(capacity: usize) -> Self {
        TopKCache {
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            entries: HashMap::with_capacity(capacity.min(64)),
        }
    }

    /// Look up a key, bumping its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<ScoredValue>>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.data))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly materialized prefix, evicting the least recently
    /// used entry when full. A no-op at capacity 0.
    pub fn insert(&mut self, key: CacheKey, data: Arc<Vec<ScoredValue>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Linear-scan eviction: the cache is deliberately small (tens of
            // entries), so a scan beats the bookkeeping of an intrusive list.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            CacheEntry {
                last_used: self.tick,
                data,
            },
        );
    }

    /// Drop every entry (called on epoch publish).
    pub fn invalidate(&mut self) {
        self.entries.clear();
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, k: usize) -> CacheKey {
        CacheKey {
            epoch,
            measure: Measure::lcc(),
            k,
        }
    }

    fn data(n: usize) -> Arc<Vec<ScoredValue>> {
        Arc::new(
            (0..n)
                .map(|i| ScoredValue {
                    value: format!("v{i}"),
                    score: i as f64,
                    attribute_count: 1,
                    cardinality: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn hit_miss_accounting_and_sharing() {
        let mut cache = TopKCache::new(4);
        assert!(cache.get(&key(0, 10)).is_none());
        cache.insert(key(0, 10), data(10));
        let a = cache.get(&key(0, 10)).expect("hit");
        let b = cache.get(&key(0, 10)).expect("hit");
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut cache = TopKCache::new(2);
        cache.insert(key(0, 1), data(1));
        cache.insert(key(0, 2), data(2));
        // Touch k=1 so k=2 becomes the LRU victim.
        assert!(cache.get(&key(0, 1)).is_some());
        cache.insert(key(0, 3), data(3));
        assert!(cache.get(&key(0, 1)).is_some());
        assert!(cache.get(&key(0, 2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(&key(0, 3)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn invalidate_clears_but_keeps_counters() {
        let mut cache = TopKCache::new(4);
        cache.insert(key(0, 5), data(5));
        assert!(cache.get(&key(0, 5)).is_some());
        cache.invalidate();
        assert!(cache.get(&key(0, 5)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1, "counters survive invalidation");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = TopKCache::new(0);
        cache.insert(key(0, 5), data(5));
        assert!(cache.get(&key(0, 5)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
