//! Structured single-line event logging.
//!
//! One process-wide logger shared by `dn-serve` and `dn-ingest`: an event
//! is a level, a snake_case event name, and typed fields. The default
//! rendering is a human `ts LEVEL event key=value` line; under
//! [`set_log_format_json`] every event becomes one JSON object per line
//! (`{"ts":...,"level":...,"event":...,...}`). The slow-query log
//! ([`slow_query`]) is *always* JSON — it exists to be machine-parsed.
//!
//! Everything goes to stderr, matching the pre-existing `eprintln!`
//! diagnostics it replaces. Timestamps are hand-rolled ISO-8601 UTC (no
//! chrono; the civil-from-days conversion is the standard Howard Hinnant
//! algorithm).

use std::sync::atomic::{AtomicBool, Ordering};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Routine lifecycle events (startup, drain, catch-up).
    Info,
    /// Degraded-but-operating conditions (retries, slow queries).
    Warn,
    /// Failures (halt, fatal I/O).
    Error,
}

impl Level {
    /// The lowercase label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value; borrows strings so call sites pay nothing to
/// build an event that formatting will not allocate for twice.
#[derive(Debug, Clone, Copy)]
pub enum EventValue<'a> {
    /// A string value (JSON-escaped when rendered as JSON).
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered with enough precision to round-trip).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

static JSON_FORMAT: AtomicBool = AtomicBool::new(false);

/// Switch the event logger between human text (default) and single-line
/// JSON (`--log-format json`).
pub fn set_log_format_json(json: bool) {
    JSON_FORMAT.store(json, Ordering::Relaxed);
}

/// Whether the logger is in JSON mode.
pub fn log_format_json() -> bool {
    JSON_FORMAT.load(Ordering::Relaxed)
}

/// Emit one event in the configured format.
pub fn event(level: Level, name: &str, fields: &[(&str, EventValue<'_>)]) {
    if log_format_json() {
        eprintln!("{}", render_json(level, name, fields));
    } else {
        eprintln!("{}", render_text(level, name, fields));
    }
}

/// Emit one event as a JSON line regardless of the configured format
/// (machine-consumed logs: slow queries, ingest stats).
pub fn json_event(level: Level, name: &str, fields: &[(&str, EventValue<'_>)]) {
    eprintln!("{}", render_json(level, name, fields));
}

/// Emit the slow-query JSON line for one handled request. The caller
/// checks the [`crate::slow_query_us`] threshold; `trace_id` is present
/// only when the request was sampled (slow detection itself covers every
/// request).
pub fn slow_query(route: &str, status: u16, duration_us: u64, trace_id: Option<u64>) {
    let id_hex;
    let mut fields: Vec<(&str, EventValue<'_>)> = vec![
        ("route", EventValue::Str(route)),
        ("status", EventValue::U64(status as u64)),
        ("duration_us", EventValue::U64(duration_us)),
        ("threshold_us", EventValue::U64(crate::slow_query_us())),
    ];
    if let Some(id) = trace_id {
        id_hex = crate::format_trace_id(id);
        fields.push(("trace_id", EventValue::Str(&id_hex)));
    }
    json_event(Level::Warn, "slow_query", &fields);
}

/// Render an event as one JSON object (exposed for tests and for callers
/// that write to their own sink).
pub fn render_json(level: Level, name: &str, fields: &[(&str, EventValue<'_>)]) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"ts\":\"");
    out.push_str(&iso8601_utc_now());
    out.push_str("\",\"level\":\"");
    out.push_str(level.label());
    out.push_str("\",\"event\":\"");
    push_json_escaped(&mut out, name);
    out.push('"');
    for (key, value) in fields {
        out.push_str(",\"");
        push_json_escaped(&mut out, key);
        out.push_str("\":");
        match value {
            EventValue::Str(s) => {
                out.push('"');
                push_json_escaped(&mut out, s);
                out.push('"');
            }
            EventValue::U64(n) => out.push_str(&n.to_string()),
            EventValue::I64(n) => out.push_str(&n.to_string()),
            EventValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
            EventValue::F64(_) => out.push_str("null"),
            EventValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

fn render_text(level: Level, name: &str, fields: &[(&str, EventValue<'_>)]) -> String {
    let mut out = format!("{} {} {}", iso8601_utc_now(), level.label(), name);
    for (key, value) in fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        match value {
            // Anything that could end the value early, forge a second
            // `key=value` or break the one-line contract is quoted and
            // escaped; plain tokens stay bare.
            EventValue::Str(s) if s.is_empty() || s.chars().any(needs_quoting) => {
                out.push('"');
                push_json_escaped(&mut out, s);
                out.push('"');
            }
            EventValue::Str(s) => out.push_str(s),
            EventValue::U64(n) => out.push_str(&n.to_string()),
            EventValue::I64(n) => out.push_str(&n.to_string()),
            EventValue::F64(x) => out.push_str(&format!("{x}")),
            EventValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out
}

fn needs_quoting(c: char) -> bool {
    c.is_whitespace() || c.is_control() || c == '"' || c == '='
}

fn push_json_escaped(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Now, as `YYYY-MM-DDTHH:MM:SS.mmmZ`.
fn iso8601_utc_now() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    format_unix_ms(now.as_millis() as u64)
}

/// Format milliseconds-since-epoch as ISO-8601 UTC.
pub fn format_unix_ms(unix_ms: u64) -> String {
    let secs = unix_ms / 1000;
    let millis = unix_ms % 1000;
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60,
    )
}

/// Days-since-epoch → (year, month, day), proleptic Gregorian.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if month <= 2 { year + 1 } else { year }, month, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(format_unix_ms(0), "1970-01-01T00:00:00.000Z");
        // 2000-02-29 (leap day) 12:34:56.789
        assert_eq!(format_unix_ms(951_827_696_789), "2000-02-29T12:34:56.789Z");
        // 2026-08-08 00:00:00
        assert_eq!(
            format_unix_ms(1_786_147_200_000),
            "2026-08-08T00:00:00.000Z"
        );
    }

    #[test]
    fn json_rendering_escapes_and_types_fields() {
        let line = render_json(
            Level::Warn,
            "test_event",
            &[
                ("path", EventValue::Str("a\"b\\c\nd")),
                ("count", EventValue::U64(7)),
                ("delta", EventValue::I64(-3)),
                ("rate", EventValue::F64(0.5)),
                ("nan", EventValue::F64(f64::NAN)),
                ("ok", EventValue::Bool(true)),
            ],
        );
        assert!(line.starts_with("{\"ts\":\""));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"event\":\"test_event\""));
        assert!(line.contains("\"path\":\"a\\\"b\\\\c\\nd\""));
        assert!(line.contains("\"count\":7"));
        assert!(line.contains("\"delta\":-3"));
        assert!(line.contains("\"rate\":0.5"));
        assert!(line.contains("\"nan\":null"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'), "single line");
    }

    #[test]
    fn text_rendering_is_single_line_key_values() {
        let line = render_text(
            Level::Info,
            "server_started",
            &[
                ("addr", EventValue::Str("127.0.0.1:80")),
                ("mode", EventValue::Str("two words")),
                ("shards", EventValue::U64(2)),
                ("error", EventValue::Str("a\nb \"c\" d=e")),
                ("forged", EventValue::Str("x=y")),
                ("empty", EventValue::Str("")),
            ],
        );
        assert!(line.contains("info server_started"));
        assert!(line.contains("addr=127.0.0.1:80"));
        assert!(line.contains("mode=\"two words\""));
        assert!(line.contains("shards=2"));
        // A hostile value stays one quoted, escaped token on one line.
        assert_eq!(line.lines().count(), 1, "{line:?}");
        assert!(line.contains(r#"error="a\nb \"c\" d=e""#), "{line}");
        assert!(line.contains(r#"forged="x=y""#), "{line}");
        assert!(line.ends_with(r#"empty="""#), "{line}");
    }
}
