//! The connection engine: a `TcpListener` accept loop feeding a fixed
//! worker-thread pool, with keep-alive, bounded reads, and a graceful
//! drain on shutdown.
//!
//! ## Thread model
//!
//! ```text
//!            ┌────────────┐  shared ConnQueue  ┌───────────┐
//!  clients ─►│ accept loop├───────────────────►│ worker 0  │──┐
//!            │ (1 thread) │ (Mutex<VecDeque> + │   ...     │  ├─► ServerState
//!            └────────────┘        Condvar)    │ worker N-1│──┘   (CoordinatorHandle,
//!                        ▲                     └─────┬─────┘      Mutex<Coordinator>,
//!                        └── idle keep-alive conns ──┘            Metrics, shutdown)
//! ```
//!
//! Keep-alive connections do **not** pin a worker while idle: before
//! blocking on a connection's next request, a worker `peek`s it — if no
//! bytes are buffered and other connections are waiting, the idle
//! connection is rotated to the back of the queue and the worker serves
//! whoever is ready. A fixed pool of N workers therefore multiplexes any
//! number of keep-alive connections, with the worst-case pickup latency
//! for a newly active connection bounded by one rotation cycle. A
//! connection idle longer than the read timeout is closed.
//!
//! ## Shutdown / drain semantics
//!
//! [`Server::shutdown`] (or `POST /v1/admin/shutdown`) flips the shared
//! shutdown flag and pokes the listener with a dummy connection so the
//! blocking `accept` wakes up. From that instant: the accept loop stops
//! accepting and drops the channel sender; workers finish the request
//! they are handling, answer it, then close their connection instead of
//! reading the next keep-alive request; queued-but-unserved connections
//! are drained and closed without a response. [`Server::join`] returns
//! once every worker has exited, so after it returns no request is in
//! flight and the [`dn_service::Coordinator`] can be dropped (flushing
//! nothing — commits are durable at append time).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dn_service::{Coordinator, CoordinatorHandle, ReplicaShared};

use crate::error::ApiError;
use crate::http::{read_request, write_response, Limits, ReadError, Response};
use crate::metrics::{Metrics, Route};
use crate::router;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:8080"`. Port `0` picks an
    /// ephemeral port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Read-side limits (head/body size, read timeout).
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            limits: Limits::default(),
        }
    }
}

/// What makes a server a read-only follower: where its primary lives
/// (returned in `403` envelopes so clients can redirect their writes) and
/// the replication gauges + halt latch shared with the tail loop.
pub struct ReplicaContext {
    /// Base URL of the primary, e.g. `http://127.0.0.1:8080`.
    pub primary_url: String,
    /// Lag/divergence gauges and the halt latch, shared with the
    /// follower's sync loop.
    pub shared: Arc<ReplicaShared>,
}

/// What makes a server an ingesting primary: the stats block shared with
/// the drop-folder ingest loop, sampled into `dn_ingest_*` gauges at
/// /metrics render time.
pub struct IngestContext {
    /// Counters/gauges shared with the ingest thread.
    pub shared: Arc<dn_ingest::IngestStats>,
}

/// Shared state every worker sees.
pub(crate) struct ServerState {
    pub(crate) service: CoordinatorHandle,
    pub(crate) coordinator: Arc<Mutex<Coordinator>>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) limits: Limits,
    pub(crate) replica: Option<ReplicaContext>,
    pub(crate) ingest: Option<IngestContext>,
    local_addr: SocketAddr,
}

impl ServerState {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and wake the accept loop with a throwaway
    /// connection (idempotent; safe from any thread, including a worker
    /// answering `/v1/admin/shutdown`).
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(500));
    }
}

/// A running HTTP server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`] + [`Server::join`] (or drive `POST
/// /v1/admin/shutdown` and then [`Server::join`]).
pub struct Server {
    state: Arc<ServerState>,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

/// Bind, spawn the workers, and start accepting.
///
/// The coordinator moves into the server (it is the process's single
/// write side; mutations arrive via `POST /v1/mutations`). The cloneable
/// [`CoordinatorHandle`] stays shareable — keep one outside to observe
/// epochs and cache stats from the hosting process. A single-engine host
/// wraps its lake with `serve_sharded(lake, config, 1)`, which is
/// bit-identical to the unsharded engine.
///
/// # Errors
/// Binding the listener may fail (address in use, permission).
pub fn serve_http(
    service: CoordinatorHandle,
    coordinator: Coordinator,
    config: ServerConfig,
) -> std::io::Result<Server> {
    serve_http_inner(
        service,
        Arc::new(Mutex::new(coordinator)),
        config,
        None,
        None,
    )
}

/// Like [`serve_http`], but for a primary that also runs an in-process
/// drop-folder ingester: the coordinator is *shared* with the ingest loop
/// (which stages/commits/publishes behind the same mutex the mutation
/// handler uses), and the ingester's stats surface as `dn_ingest_*` gauges
/// in /metrics. The ingest thread must drop its `Arc` clone before
/// [`Server::join`] is called.
///
/// # Errors
/// Binding the listener may fail (address in use, permission).
pub fn serve_http_ingest(
    service: CoordinatorHandle,
    coordinator: Arc<Mutex<Coordinator>>,
    config: ServerConfig,
    ingest: IngestContext,
) -> std::io::Result<Server> {
    serve_http_inner(service, coordinator, config, None, Some(ingest))
}

/// Like [`serve_http`], but as a read-only follower: the coordinator is
/// *shared* with the replication tail loop (which applies WAL batches
/// behind the same mutex the write handlers would use), mutations and
/// checkpoints answer `403` pointing at the primary, and reads answer
/// `503` once the insurance layer has halted the replica.
///
/// # Errors
/// Binding the listener may fail (address in use, permission).
pub fn serve_http_follower(
    service: CoordinatorHandle,
    coordinator: Arc<Mutex<Coordinator>>,
    config: ServerConfig,
    replica: ReplicaContext,
) -> std::io::Result<Server> {
    serve_http_inner(service, coordinator, config, Some(replica), None)
}

fn serve_http_inner(
    service: CoordinatorHandle,
    coordinator: Arc<Mutex<Coordinator>>,
    config: ServerConfig,
    replica: Option<ReplicaContext>,
    ingest: Option<IngestContext>,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        service,
        coordinator,
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        limits: config.limits,
        replica,
        ingest,
        local_addr,
    });

    let queue = Arc::new(ConnQueue::new());
    let workers = config.workers.max(1);
    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("dn-http-worker-{i}"))
                .spawn(move || worker_loop(&queue, &state))
                .expect("spawn worker thread")
        })
        .collect();

    let accept_state = Arc::clone(&state);
    let accept_queue = Arc::clone(&queue);
    let accept_handle = std::thread::Builder::new()
        .name("dn-http-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_queue, &accept_state))
        .expect("spawn accept thread");

    Ok(Server {
        state,
        accept_handle,
        worker_handles,
    })
}

impl Server {
    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// A read handle onto the served coordinator (epoch, cache stats).
    pub fn service(&self) -> CoordinatorHandle {
        self.state.service.clone()
    }

    /// Total requests handled so far.
    pub fn requests_total(&self) -> u64 {
        self.state.metrics.requests_total()
    }

    /// Requests handled on one route so far.
    pub fn route_total(&self, route: Route) -> u64 {
        self.state.metrics.route_total(route)
    }

    /// Whether a shutdown has been initiated (locally or over HTTP).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    /// Initiate a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Wait for the drain to finish and reclaim the [`Coordinator`].
    /// Blocks until the accept loop and every worker have exited — which
    /// only happens after a shutdown was initiated (here, via
    /// [`Server::shutdown`], or over HTTP).
    ///
    /// Returns the coordinator so a durable host can checkpoint on exit.
    pub fn join(self) -> Coordinator {
        let state = self.join_inner();
        Arc::try_unwrap(state.coordinator)
            .ok()
            .expect("no replication loop holds the coordinator after join")
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// [`Server::join`] for a follower, whose coordinator stays shared
    /// with the replication tail loop: waits for the drain but leaves the
    /// `Arc<Mutex<Coordinator>>` to the remaining holder.
    pub fn join_follower(self) {
        let _ = self.join_inner();
    }

    fn join_inner(self) -> ServerState {
        let _ = self.accept_handle.join();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        Arc::try_unwrap(self.state)
            .ok()
            .expect("all worker references released after join")
    }
}

/// One live connection and its bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Requests already served on this connection.
    served: usize,
    /// When the connection last finished a request (or was accepted).
    idle_since: Instant,
}

/// The shared connection queue: accepted connections and rotated-out idle
/// keep-alive connections, consumed by the workers.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

struct QueueInner {
    queue: VecDeque<Conn>,
    closed: bool,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, conn: Conn) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queue.push_back(conn);
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Conn> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(conn) = inner.queue.pop_front() {
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Whether other connections are waiting (the signal to rotate an
    /// idle keep-alive connection instead of blocking on it).
    fn has_waiters(&self) -> bool {
        self.len() > 0
    }

    /// Connections currently waiting in the queue.
    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queue
            .len()
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

fn accept_loop(listener: &TcpListener, queue: &Arc<ConnQueue>, state: &Arc<ServerState>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutting_down() {
                    // The wake-up connection (or a late client): close it
                    // unanswered and stop accepting.
                    drop(stream);
                    break;
                }
                state.metrics.record_connection();
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(state.limits.read_timeout));
                queue.push(Conn {
                    stream,
                    served: 0,
                    idle_since: Instant::now(),
                });
            }
            Err(_) if state.shutting_down() => break,
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // keep listening rather than killing the server.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Closing the queue lets workers drain what is left and exit.
    queue.close();
}

/// How long a worker blocks waiting for a sole connection's next request
/// before re-checking the queue for newly arrived connections.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// What a readiness probe of a connection found.
enum Probe {
    /// At least one request byte is buffered.
    Data,
    /// No data yet (within the probe window).
    Empty,
    /// The peer closed (EOF) or the socket errored.
    Gone,
}

/// Probe a connection for buffered request bytes without consuming them.
/// `block_for: None` = non-blocking probe; `Some(t)` = wait up to `t`.
fn probe(stream: &TcpStream, block_for: Option<Duration>) -> Probe {
    let mut byte = [0u8; 1];
    let result = match block_for {
        Some(timeout) => {
            if stream.set_read_timeout(Some(timeout)).is_err() {
                return Probe::Gone;
            }
            stream.peek(&mut byte)
        }
        None => {
            if stream.set_nonblocking(true).is_err() {
                return Probe::Gone;
            }
            let result = stream.peek(&mut byte);
            if stream.set_nonblocking(false).is_err() {
                return Probe::Gone;
            }
            result
        }
    };
    match result {
        Ok(0) => Probe::Gone,
        Ok(_) => Probe::Data,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Probe::Empty
        }
        Err(_) => Probe::Gone,
    }
}

/// Requests served on one connection before it is closed (bounds the damage
/// of a counting bug and recycles sockets under load).
const MAX_REQUESTS_PER_CONNECTION: usize = 10_000;

fn worker_loop(queue: &Arc<ConnQueue>, state: &Arc<ServerState>) {
    // Counts consecutive idle rotations; once a full cycle of the queue
    // found nothing ready, back off briefly so all-idle connection sets
    // don't busy-spin the pool.
    let mut consecutive_idle = 0usize;
    while let Some(mut conn) = queue.pop() {
        if state.shutting_down() {
            drop(conn); // queued but unserved: drain and close
            continue;
        }
        // Serve this connection until it closes, goes idle while others
        // wait (rotate), expires, or the server drains.
        loop {
            if state.shutting_down() || conn.served >= MAX_REQUESTS_PER_CONNECTION {
                break; // close
            }
            let others_waiting = queue.has_waiters();
            let window = if others_waiting {
                None // non-blocking probe: someone else is ready to serve
            } else {
                Some(POLL_SLICE)
            };
            match probe(&conn.stream, window) {
                Probe::Gone => break,
                Probe::Empty => {
                    // Only a connection with *nothing buffered* can be an
                    // idle-expiry victim: a request that queued up while
                    // every worker was busy must still be answered, even
                    // if the wait exceeded the read timeout.
                    if conn.idle_since.elapsed() >= state.limits.read_timeout {
                        break; // idle keep-alive expiry
                    }
                    if others_waiting {
                        consecutive_idle += 1;
                        if consecutive_idle > queue.len().max(4) {
                            // A whole rotation cycle (with margin) found
                            // only idle connections: pause briefly so an
                            // all-idle connection set doesn't busy-spin
                            // the pool.
                            std::thread::sleep(Duration::from_millis(1));
                            consecutive_idle = 0;
                        }
                        queue.push(conn); // rotate to the back
                        break;
                    }
                    continue; // sole connection: keep waiting in slices
                }
                Probe::Data => {
                    consecutive_idle = 0;
                    if serve_one(&mut conn, state) {
                        conn.served += 1;
                        conn.idle_since = Instant::now();
                        continue;
                    }
                    break; // response said close (or transport died)
                }
            }
        }
        // Dropping the connection closes the socket.
    }
}

/// Read, dispatch, and answer exactly one request on a connection whose
/// readiness was just probed. Returns whether the connection stays open.
/// Every failure path answers with the documented status when a response
/// is still possible; a worker never dies with its connection.
fn serve_one(conn: &mut Conn, state: &Arc<ServerState>) -> bool {
    if conn
        .stream
        .set_read_timeout(Some(state.limits.read_timeout))
        .is_err()
    {
        return false;
    }
    {
        let request = match read_request(&mut conn.stream, &state.limits) {
            Ok(request) => request,
            Err(read_error) => {
                // One terminal response (when one is still possible), then
                // close. `Closed`/`Timeout`/`Io` get no response — there
                // is either nobody listening or no usable request framing.
                let response: Option<Response> = match read_error {
                    ReadError::Closed | ReadError::Timeout | ReadError::Io(_) => None,
                    ReadError::HeadTooLarge => Some(
                        ApiError {
                            status: 431,
                            kind: "head_too_large",
                            message: format!(
                                "request head exceeds {} bytes",
                                state.limits.max_head_bytes
                            ),
                        }
                        .into_response(),
                    ),
                    ReadError::BodyTooLarge => Some(
                        ApiError {
                            status: 413,
                            kind: "body_too_large",
                            message: format!(
                                "request body exceeds {} bytes",
                                state.limits.max_body_bytes
                            ),
                        }
                        .into_response(),
                    ),
                    ReadError::Truncated => Some(
                        ApiError::bad_request("request truncated before Content-Length bytes")
                            .into_response(),
                    ),
                    ReadError::Malformed(reason) => {
                        Some(ApiError::bad_request(reason).into_response())
                    }
                    ReadError::ChunkedUnsupported => Some(
                        ApiError {
                            status: 501,
                            kind: "not_implemented",
                            message: "chunked transfer encoding is not supported".to_owned(),
                        }
                        .into_response(),
                    ),
                };
                if let Some(response) = response {
                    state.metrics.count(Route::Other, response.status);
                    let _ = write_response(&mut conn.stream, &response, false);
                }
                return false;
            }
        };

        let started = Instant::now();
        // Sampling decision for this request: a forwarded X-Dn-Trace-Id
        // bypasses the 1-in-N draw so cross-process traces always stitch.
        let trace = dn_trace::start_trace("http", request.trace_id);
        let trace_id = trace.as_ref().map(|t| t.id());
        let (route, mut response) = router::handle(state, &request);
        if let Some(trace) = &trace {
            trace.set_label(format!("{} {}", route.label(), response.status));
        }
        // Close the root span (and publish to the ring) before the
        // response is written: by the time a client asks for its trace,
        // the trace is retrievable.
        drop(trace);
        let micros = started.elapsed().as_micros() as u64;
        state.metrics.record(route, response.status, micros);
        // Slow-query detection is independent of sampling: `micros` is
        // always measured, so an unsampled slow request still logs (just
        // without a trace ID to follow up on).
        if micros >= dn_trace::slow_query_us() {
            dn_trace::slow_query(route.label(), response.status, micros, trace_id);
        }
        response.trace_id = trace_id;

        let keep_alive = request.keep_alive
            && conn.served + 1 < MAX_REQUESTS_PER_CONNECTION
            && !state.shutting_down();
        write_response(&mut conn.stream, &response, keep_alive).is_ok() && keep_alive
    }
}
