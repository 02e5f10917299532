//! Minimal HTTP/1.1 wire handling on `std::net` — request parsing with
//! hard limits, response writing, and the tiny URL utilities the router
//! needs (percent decoding, query-string parsing).
//!
//! The parser is deliberately strict and small: it understands exactly the
//! subset of HTTP/1.1 a JSON API needs — a request line, `\r\n`-separated
//! headers, and an optional `Content-Length` body. Chunked transfer
//! encoding is rejected with `501`, anything malformed with `400`, and
//! every read is bounded both in bytes (header/body limits) and in time
//! (the caller sets a socket read timeout), so a slow or hostile client
//! can never pin a worker for long.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Read-side limits applied to every request on a connection.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is refused).
    pub max_body_bytes: usize,
    /// Socket read timeout covering each blocking read.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed request. `path` is the raw (still percent-encoded) path
/// component; the router decodes individual segments.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// The raw path component of the target, before the `?`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// A forwarded trace ID from an `X-Dn-Trace-Id` header (16 hex
    /// chars); malformed values are treated as absent.
    pub trace_id: Option<u64>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one documented
/// close-path: a status code where a response is still possible, or a
/// silent close where the peer is already gone.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before the first byte — the peer closed an idle
    /// connection; not an error, just the end of the keep-alive loop.
    Closed,
    /// The socket read timed out (idle keep-alive slot or a stalled
    /// client); the connection is closed without a response.
    Timeout,
    /// Request line + headers exceeded [`Limits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`] → `413`.
    BodyTooLarge,
    /// The peer closed mid-request (EOF before `Content-Length` bytes or
    /// inside the head) → `400`.
    Truncated,
    /// Anything else unparsable (bad request line, bad header, bad
    /// `Content-Length`) → `400`, with a human-readable reason.
    Malformed(String),
    /// `Transfer-Encoding: chunked` (unsupported) → `501`.
    ChunkedUnsupported,
    /// A transport error other than a timeout; close silently.
    Io(std::io::Error),
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read and parse one request from `stream`. The caller is expected to
/// have applied `limits.read_timeout` to the stream already (once per
/// connection).
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, ReadError> {
    // --- head: read until CRLFCRLF, bounded ---------------------------
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end;
    loop {
        if let Some(pos) = find_head_end(&buf) {
            head_end = pos;
            break;
        }
        if buf.len() >= limits.max_head_bytes {
            return Err(ReadError::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(ReadError::Closed)
                } else {
                    Err(ReadError::Truncated)
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return if buf.is_empty() {
                    Err(ReadError::Timeout)
                } else {
                    // Started a request but stalled: the worker gives up on
                    // the slot rather than waiting for more.
                    Err(ReadError::Truncated)
                };
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut trace_id = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line: {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // 1*DIGIT, one value however often it is sent (RFC 9112
                // §6.3); a number past usize is too large, not malformed.
                let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
                let declared = value.parse().unwrap_or(usize::MAX);
                if !digits || content_length.is_some_and(|n| n != declared) {
                    let why = format!("bad or conflicting Content-Length: {value:?}");
                    return Err(ReadError::Malformed(why));
                }
                content_length = Some(declared);
            }
            "transfer-encoding" if value.to_ascii_lowercase().contains("chunked") => {
                return Err(ReadError::ChunkedUnsupported);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "x-dn-trace-id" => trace_id = dn_trace::parse_trace_id(value),
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ReadError::BodyTooLarge);
    }

    // --- body: whatever followed the head, then read the remainder ----
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        // Pipelined extra bytes are not supported; treat as malformed
        // rather than silently answering requests out of order.
        return Err(ReadError::Malformed(
            "request body longer than Content-Length".into(),
        ));
    }
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(ReadError::Truncated),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(ReadError::Truncated),
            Err(e) => return Err(ReadError::Io(e)),
        }
    }

    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        query: parse_query(query_raw),
        body,
        keep_alive,
        trace_id,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to be written to the wire.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// When the request was traced, its ID — echoed back to the client
    /// as an `X-Dn-Trace-Id` header so callers can fetch the span tree
    /// from `/v1/debug/traces/{id}`.
    pub trace_id: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            trace_id: None,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            trace_id: None,
        }
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serialize `response` onto the stream. `keep_alive` decides the
/// `Connection` header (the worker closes the socket when false).
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let trace_header = match response.trace_id {
        Some(id) => format!("X-Dn-Trace-Id: {}\r\n", dn_trace::format_trace_id(id)),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{trace_header}Connection: {}\r\n\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Percent-decode one path segment or query component. Returns `None` on
/// an invalid escape or non-UTF-8 result. `plus_is_space` applies the
/// `application/x-www-form-urlencoded` convention used in query strings.
pub fn percent_decode(input: &str, plus_is_space: bool) -> Option<String> {
    let bytes = input.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16))?;
                let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16))?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Percent-encode one path segment or query value: everything except RFC
/// 3986 unreserved characters is escaped. Clients interpolating data
/// values into request paths (`/v1/score/{value}`) must use this — raw
/// values can contain spaces (`TERRITORY 12`), which would split the
/// request line.
pub fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for &b in raw.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Parse a raw query string into decoded `(key, value)` pairs. Components
/// that fail to decode are dropped (the router treats a missing key the
/// same as an absent parameter).
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .filter_map(|part| {
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            Some((percent_decode(k, true)?, percent_decode(v, true)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("JAGUAR", false).unwrap(), "JAGUAR");
        assert_eq!(percent_decode("a%20b", false).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", true).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert_eq!(percent_decode("%C3%A9", false).unwrap(), "é");
        assert!(percent_decode("%zz", false).is_none());
        assert!(percent_decode("%2", false).is_none());
        assert!(percent_decode("%ff", false).is_none(), "invalid UTF-8");
    }

    #[test]
    fn percent_encoding_round_trips() {
        for raw in ["JAGUAR", "TERRITORY 12", "a/b?c&d", "naïve", "100%"] {
            let encoded = percent_encode(raw);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')),
                "{encoded}"
            );
            assert_eq!(percent_decode(&encoded, false).unwrap(), raw);
        }
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("measure=bc&k=20&table=T%201&flag");
        assert_eq!(
            q,
            vec![
                ("measure".into(), "bc".into()),
                ("k".into(), "20".into()),
                ("table".into(), "T 1".into()),
                ("flag".into(), String::new()),
            ]
        );
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for status in [200, 400, 403, 404, 405, 409, 413, 431, 500, 501, 503] {
            assert!(!reason_phrase(status).is_empty(), "{status}");
        }
    }
}
