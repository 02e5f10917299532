//! A minimal blocking HTTP/1.1 client over `std::net`, good enough for
//! the wire tests, the process probes (`tests/dn_serve_process.rs`), and
//! the standing benchmark's load generator — so driving the server needs
//! no external tooling.
//!
//! The client keeps one connection alive and reuses it across requests
//! (matching the server's keep-alive path); when the server closed the
//! connection in the meantime, the next request transparently reconnects
//! once. Responses are read strictly by `Content-Length`, mirroring the
//! server's framing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// Body as text (the API is JSON / plain text throughout).
    pub body: String,
    /// Whether the server kept the connection open.
    pub keep_alive: bool,
    /// The `X-Dn-Trace-Id` the server echoed, when the request was
    /// traced (fetch its span tree at `/v1/debug/traces/{id}`).
    pub trace_id: Option<u64>,
}

impl ClientResponse {
    /// Deserialize the JSON body into `T`.
    ///
    /// # Errors
    /// The decode error when the body is not valid JSON for `T`.
    pub fn json<T: serde::Deserialize>(&self) -> Result<T, serde::Error> {
        serde_json::from_str(&self.body)
    }
}

/// A blocking keep-alive client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr`. No connection is made until the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(10),
            stream: None,
        }
    }

    /// Override the connect/read timeout (default 10s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// `GET` a path (with query string), e.g. `"/v1/top-k?measure=bc&k=10"`.
    ///
    /// # Errors
    /// Transport failures after one reconnect attempt.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST` a JSON body to a path.
    ///
    /// # Errors
    /// Transport failures after one reconnect attempt.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        // Before reusing a kept-alive connection, probe it: the server
        // may have sent a FIN in the meantime (drain, per-connection
        // request cap). Detecting staleness *before* writing means even
        // a non-idempotent POST can safely go out on a fresh socket.
        if self.stream.as_ref().is_some_and(connection_is_stale) {
            self.stream = None;
        }
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Ok(response) => Ok(response),
            Err(err) if reused && method == "GET" => {
                // A request already in flight when the connection died is
                // only safe to replay when it is idempotent; POSTs (e.g.
                // /v1/mutations, which the server may have committed even
                // though the response was lost) surface the error to the
                // caller instead of silently applying twice.
                self.stream = None;
                let _ = err;
                self.try_request(method, path, body)
            }
            Err(err) => {
                self.stream = None;
                Err(err)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        // Inside an active trace every request carries its ID, so the far
        // server's spans join this trace.
        let trace_header = match dn_trace::current_trace_id() {
            Some(id) => format!("X-Dn-Trace-Id: {}\r\n", dn_trace::format_trace_id(id)),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{}{trace_header}Connection: keep-alive\r\n\r\n",
            self.addr,
            body.map_or(0, str::len),
            if body.is_some() {
                "Content-Type: application/json\r\n"
            } else {
                ""
            },
        );
        let result = (|| {
            let stream = self.connect()?;
            stream.write_all(head.as_bytes())?;
            if let Some(body) = body {
                stream.write_all(body.as_bytes())?;
            }
            stream.flush()?;
            read_response(stream)
        })();
        match result {
            Ok(response) => {
                if !response.keep_alive {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(err) => {
                self.stream = None;
                Err(err)
            }
        }
    }
}

/// Whether a kept-alive connection is unusable for the next request: a
/// non-blocking peek sees a FIN (EOF), leftover unread bytes (protocol
/// desync), or a socket error. Only a clean `WouldBlock` means the
/// connection is idle and healthy.
fn connection_is_stale(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut byte = [0u8; 1];
    let probe = stream.peek(&mut byte);
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    !matches!(probe, Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock)
}

fn bad_data(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_owned())
}

/// Read one `Content-Length`-framed response from the stream.
fn read_response(stream: &mut TcpStream) -> std::io::Result<ClientResponse> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > (1 << 20) {
            return Err(bad_data("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad_data("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("bad status line"))?;
    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut keep_alive = true;
    let mut trace_id = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_data("bad Content-Length"))?;
            }
            "content-type" => content_type = value.trim().to_owned(),
            "connection" => keep_alive = !value.trim().eq_ignore_ascii_case("close"),
            "x-dn-trace-id" => trace_id = dn_trace::parse_trace_id(value.trim()),
            _ => {}
        }
    }

    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    if body.len() != content_length {
        return Err(bad_data("body length mismatch"));
    }
    Ok(ClientResponse {
        status,
        content_type,
        body: String::from_utf8(body).map_err(|_| bad_data("non-UTF-8 body"))?,
        keep_alive,
        trace_id,
    })
}
