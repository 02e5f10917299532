//! In-memory spans recorded by the benchmark around its own calls into each
//! layer (choosing-metrics §4). Span names are `<crate>.<function>`; the part
//! before the dot is the layer. Tracing inside the program is a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Ascending durations, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl Aggregate {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Span recorder for the benchmark's main thread. Disabled (the untraced
/// run) it records nothing and `scope` is a plain call.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.ns(Instant::now());
        out
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.scope(name, op, |_| f())
    }

    /// Add a span that was timed elsewhere (a client thread), as a child of
    /// whatever is open now.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (clamped at zero should clock skew make children overrun).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Totals per span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += own;
        entry.durations_ns.push(span.duration_ns());
    }
    for entry in out.values_mut() {
        entry.durations_ns.sort_unstable();
    }
    out
}

/// Mean duration of the spans named `name`, in units of `per_unit`
/// nanoseconds; 0 when none were recorded.
pub fn mean_of(by_name: &BTreeMap<&'static str, Aggregate>, name: &str, per_unit: f64) -> f64 {
    by_name.get(name).map_or(0.0, |a| a.mean_ns() / per_unit)
}

/// Nearest-rank quantile of the durations of the spans named `name`, in
/// units of `per_unit` nanoseconds; 0 when none were recorded.
pub fn quantile_of(
    by_name: &BTreeMap<&'static str, Aggregate>,
    name: &str,
    q: f64,
    per_unit: f64,
) -> f64 {
    by_name
        .get(name)
        .and_then(|a| crate::stats::percentile(&a.durations_ns, q))
        .map_or(0.0, |ns| ns as f64 / per_unit)
}

/// Share of an operation's time that its layer spans do not explain, in
/// percent: (operation − Σ layers) / operation. Zero for an empty operation.
pub fn residual_pct(operation_ns: u64, layers_ns: u64) -> f64 {
    if operation_ns == 0 {
        return 0.0;
    }
    (operation_ns as f64 - layers_ns as f64) / operation_ns as f64 * 100.0
}

/// Write the spans as one JSON document. Names are static identifiers, so
/// no escaping is needed.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
            span.name, span.start_ns, span.end_ns, span.op
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) has siblings a [10,40) and b [50,90); a has child c [15,25).
        let spans = vec![
            span("service.op", 0, 100, None),
            span("lake.a", 10, 40, Some(0)),
            span("graph.c", 15, 25, Some(1)),
            span("core.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_name = aggregate(&spans);
        assert_eq!(by_name["service.op"].self_ns, 30);
        assert_eq!(by_name["lake.a"].total_ns, 30);
        assert_eq!(by_name["graph.c"].count, 1);
    }

    #[test]
    fn self_time_clamps_overrunning_children() {
        let spans = vec![span("a.x", 0, 10, None), span("b.y", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 15]);
    }

    #[test]
    fn aggregate_sorts_durations_and_averages() {
        let spans = vec![
            span("store.w", 0, 30, None),
            span("store.w", 40, 50, None),
            span("store.w", 60, 80, None),
        ];
        let agg = &aggregate(&spans)["store.w"];
        assert_eq!(agg.durations_ns, vec![10, 20, 30]);
        assert_eq!(agg.mean_ns(), 20.0);
        assert_eq!(Aggregate::default().mean_ns(), 0.0);
    }

    #[test]
    fn per_name_means_and_quantiles_convert_units() {
        let spans = vec![
            span("store.w", 0, 3_000, None),
            span("store.w", 0, 1_000, None),
            span("store.w", 0, 2_000, None),
        ];
        let by_name = aggregate(&spans);
        assert_eq!(mean_of(&by_name, "store.w", 1e3), 2.0);
        assert_eq!(quantile_of(&by_name, "store.w", 0.5, 1e3), 2.0);
        assert_eq!(quantile_of(&by_name, "store.w", 0.9, 1e3), 3.0);
        assert_eq!(mean_of(&by_name, "absent", 1.0), 0.0);
        assert_eq!(quantile_of(&by_name, "absent", 0.5, 1.0), 0.0);
    }

    #[test]
    fn residual_is_the_unexplained_share() {
        assert_eq!(residual_pct(200, 150), 25.0);
        assert_eq!(residual_pct(100, 100), 0.0);
        assert_eq!(residual_pct(100, 120), -20.0);
        assert_eq!(residual_pct(0, 0), 0.0);
    }

    #[test]
    fn recorder_nests_scopes_and_is_free_when_disabled() {
        let mut rec = Recorder::new(true, 8);
        rec.scope("service.commit", 7, |rec| {
            rec.leaf("lake.apply_batch", 7, || ());
            rec.leaf("core.apply_delta", 7, || ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Recorder::new(false, 8);
        assert_eq!(off.scope("a.b", 0, |rec| rec.leaf("c.d", 0, || 5)), 5);
        off.record("e.f", 0, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
