//! The one metrics registry: every family on `/metrics` is declared once
//! in [`FAMILIES`], its number lives in an instrument ([`Counter`],
//! [`Gauge`], [`Histogram`]) that its owner writes with relaxed atomics,
//! and [`Exposition`] is the only code that formats the Prometheus text:
//!
//! ```text
//! # TYPE dn_http_request_duration_us histogram
//! dn_http_request_duration_us_bucket{route="top_k",le="50"} 31
//! dn_http_request_duration_us_sum{route="top_k"} 1840
//! dn_http_request_duration_us_count{route="top_k"} 40
//! ```
//!
//! An owner (the HTTP server, the coordinator handle, the ingest stats,
//! the span layer) exposes its instruments by writing them to an
//! `Exposition` in family order; `GET /metrics` is those calls in a row.
//! Adding a metric is one line in the table below, one instrument field,
//! and one line in its owner's export — `docs/OBSERVABILITY.md` is
//! checked against the table by `tests/metrics_exposition.rs`.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds, in microseconds — the one layout every
/// duration histogram shares. The last, implicit bucket is `+Inf`; the 1 s
/// and 5 s bounds keep the heavy-delta commits (~0.2 s and beyond) and
/// the WAL-replay recoveries (~0.8 s) out of it.
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000, 5_000_000,
];

/// A count that only goes up.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value its owner overwrites.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A duration histogram over [`BUCKET_BOUNDS_US`]. Counts are stored per
/// bucket and accumulated when written.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn observe(&self, micros: u64) {
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// What a family's `# TYPE` line says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket duration histogram.
    Histogram,
}

impl Kind {
    /// The Prometheus type keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric family: its name, type, and label keys (in written order).
#[derive(Debug)]
pub struct Family {
    /// The family name (`dn_...`).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
    /// Label keys every series of the family carries.
    pub labels: &'static [&'static str],
}

macro_rules! families {
    ($($ident:ident: $kind:ident $name:literal [$($label:literal),*];)*) => {
        $(
            #[doc = concat!("`", $name, "`")]
            pub const $ident: Family = Family {
                name: $name,
                kind: Kind::$kind,
                labels: &[$($label),*],
            };
        )*
        /// Every family the stack can expose.
        pub const FAMILIES: &[Family] = &[$($ident),*];
    };
}

families! {
    HTTP_REQUESTS: Counter "dn_http_requests_total" ["route", "class"];
    HTTP_REQUEST_DURATION: Histogram "dn_http_request_duration_us" ["route"];
    HTTP_CONNECTIONS_ACCEPTED: Counter "dn_http_connections_accepted_total" [];
    BUILD_INFO: Gauge "dn_build_info" ["version", "crate", "rust_edition"];
    UPTIME_SECONDS: Gauge "dn_uptime_seconds" [];
    TRACE_SAMPLE_EVERY: Gauge "dn_trace_sample_every" [];
    TRACES_PUBLISHED: Counter "dn_traces_published_total" [];
    TRACES_DROPPED: Counter "dn_traces_dropped_total" [];
    PHASE_DURATION: Histogram "dn_phase_duration_us" ["phase"];
    SERVER_EPOCH: Gauge "dn_server_epoch" [];
    SERVER_EPOCHS_PUBLISHED: Counter "dn_server_epochs_published_total" [];
    CACHE_HITS: Counter "dn_cache_hits_total" [];
    CACHE_MISSES: Counter "dn_cache_misses_total" [];
    CACHE_HIT_RATE: Gauge "dn_cache_hit_rate" [];
    WAL_RECORD_BYTES: Gauge "dn_wal_record_bytes" [];
    STORE_SNAPSHOTS: Gauge "dn_store_snapshots" [];
    SHARD_EPOCH: Gauge "dn_shard_epoch" ["shard"];
    SHARD_WAL_RECORD_BYTES: Gauge "dn_shard_wal_record_bytes" ["shard"];
    SHARD_STORE_SNAPSHOTS: Gauge "dn_shard_store_snapshots" ["shard"];
    REPLICA_LAG_EPOCHS: Gauge "dn_replica_lag_epochs" [];
    REPLICA_DIVERGENCE: Counter "dn_replica_divergence_total" [];
    INGEST_FILES_SEEN: Counter "dn_ingest_files_seen_total" [];
    INGEST_BATCHES_APPLIED: Counter "dn_ingest_batches_applied_total" [];
    INGEST_ROWS_DIFFED: Counter "dn_ingest_rows_diffed_total" [];
    INGEST_RETRIES: Counter "dn_ingest_retries_total" [];
    INGEST_TORN_FILES: Counter "dn_ingest_torn_files_total" [];
    INGEST_LAG_SECONDS: Gauge "dn_ingest_lag_seconds" [];
}

/// The Prometheus text writer. Owners write their series family by
/// family; the `# TYPE` line goes out ahead of a family's first series, so
/// a family nobody wrote (a primary's replica gauges, an unobserved
/// phase) is simply absent.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    /// The family the last series belonged to.
    current: &'static str,
}

impl Exposition {
    /// One counter or gauge series; `labels` are the values for
    /// `family.labels`, in order. Fractional gauges pass
    /// `format_args!("{:.3}", seconds)`.
    pub fn value(&mut self, family: &Family, labels: &[&str], value: impl Display) {
        self.series(family, "", labels, None);
        let _ = writeln!(self.out, " {value}");
    }

    /// One histogram series: cumulative buckets, sum and count. A
    /// histogram with no observations writes nothing.
    pub fn histogram(&mut self, family: &Family, labels: &[&str], histogram: &Histogram) {
        if histogram.count() == 0 {
            return;
        }
        let mut cumulative = 0u64;
        for (i, bucket) in histogram.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let bound: &dyn Display = BUCKET_BOUNDS_US.get(i).map_or(&"+Inf", |bound| bound);
            self.series(family, "_bucket", labels, Some(bound));
            let _ = writeln!(self.out, " {cumulative}");
        }
        self.series(family, "_sum", labels, None);
        let _ = writeln!(self.out, " {}", histogram.sum_us.load(Ordering::Relaxed));
        self.series(family, "_count", labels, None);
        let _ = writeln!(self.out, " {cumulative}");
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.out
    }

    /// `name<suffix>{key="value",...}`, preceded by the family's `# TYPE`
    /// line when the family changes.
    fn series(&mut self, family: &Family, suffix: &str, labels: &[&str], le: Option<&dyn Display>) {
        debug_assert_eq!(labels.len(), family.labels.len(), "{}", family.name);
        if self.current != family.name {
            self.current = family.name;
            let _ = writeln!(self.out, "# TYPE {} {}", family.name, family.kind.as_str());
        }
        self.out.push_str(family.name);
        self.out.push_str(suffix);
        let values = labels.iter().map(|value| value as &dyn Display);
        let pairs = family.labels.iter().copied().zip(values);
        let mut open = '{';
        for (key, value) in pairs.chain(le.map(|bound| ("le", bound))) {
            let _ = write!(self.out, "{open}{key}=\"{value}\"");
            open = ',';
        }
        if open == ',' {
            self.out.push('}');
        }
    }
}
