//! `dn-serve` — serve a durable DomainNet engine over HTTP.
//!
//! ```text
//! dn-serve --data-dir DIR [--shards N] [--addr 127.0.0.1:8080] [--workers 4]
//!          [--checkpoint-every 8] [--max-body-bytes N]
//!          [--ingest-dir DIR [--ingest-poll-ms 500]]
//!          [--trace-sample 16] [--slow-query-us US] [--log-format text|json]
//! dn-serve --data-dir DIR --follow http://PRIMARY [--poll-ms 100] [...]
//! ```
//!
//! Server mode: if `--data-dir` already holds a sharded store, the
//! coordinator is recovered from it (`serve_sharded_from_dir` — per-shard
//! snapshot load + WAL replay, the coordinator epoch resumes as the sum
//! of the shard epochs; the shard count comes from the on-disk manifest,
//! and a conflicting `--shards` is an error rather than a silent
//! reshard). Otherwise a fresh sharded store with `--shards N` engines
//! (default 1 — bit-identical to the pre-coordinator engine) is
//! initialized over an empty lake and populated via `POST /v1/mutations`.
//! The bound address and the serving epoch are logged on startup; the
//! process exits after a graceful drain once `POST /v1/admin/shutdown`
//! arrives.
//!
//! Follower mode (`--follow http://PRIMARY`): the data dir becomes a
//! read replica of a running primary — bootstrapped from the primary's
//! newest per-shard snapshots (or recovered locally on restart), kept in
//! step by tailing the per-shard WALs every `--poll-ms`, and verified by
//! the divergence-insurance digest exchange. Mutations answer `403` with
//! the primary's URL; a digest mismatch halts the replica (reads answer
//! `503`) rather than serving wrong rankings.
//!
//! Ingest mode (`--ingest-dir DIR`): the server additionally tails `DIR`
//! as a CDC-style CSV drop-folder — a background `dn_ingest::Ingester`
//! polls it every `--ingest-poll-ms`, diffs changed files into minimal
//! deltas, and commits them through the same coordinator mutex the HTTP
//! mutation handler uses. The resume journal lives at
//! `<data-dir>/ingest.journal`; `dn_ingest_*` gauges appear in /metrics.
//!
//! This binary is arg parsing plus wiring. The process-level probes that
//! drive it end to end (HTTP, replication, drop-folder ingest) live in
//! `tests/dn_serve_process.rs`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dn_server::{
    serve_http, serve_http_follower, HttpReplicaSource, Limits, ReplicaContext, ServerConfig,
};
use dn_service::{
    serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Follower, ReplicaError,
    ServiceConfig,
};
use domainnet::Measure;
use lake::delta::MutableLake;

#[derive(Debug)]
struct Args {
    data_dir: Option<String>,
    /// `None`: the manifest rules, and a fresh store gets one shard.
    shards: Option<usize>,
    addr: String,
    workers: usize,
    threads: usize,
    checkpoint_every: u64,
    max_body_bytes: usize,
    follow: Option<String>,
    poll_ms: u64,
    ingest_dir: Option<String>,
    ingest_poll_ms: u64,
    trace_sample: u32,
    slow_query_us: Option<u64>,
    log_json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            data_dir: None,
            shards: None,
            addr: "127.0.0.1:8080".to_owned(),
            workers: 4,
            threads: dn_pool::Pool::machine_wide().threads(),
            checkpoint_every: 8,
            max_body_bytes: 1 << 20,
            follow: None,
            poll_ms: 100,
            ingest_dir: None,
            ingest_poll_ms: 500,
            trace_sample: 16,
            slow_query_us: None,
            log_json: false,
        }
    }
}

const USAGE: &str = "usage: dn-serve --data-dir DIR [--shards N] [--addr HOST:PORT] [--workers N] \
[--threads N] [--checkpoint-every EPOCHS] [--max-body-bytes N] \
[--ingest-dir DIR] [--ingest-poll-ms MS] [--trace-sample N] [--slow-query-us US] \
[--log-format text|json]\n       \
dn-serve --data-dir DIR --follow http://HOST:PORT [--poll-ms MS]";

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--data-dir" => out.data_dir = Some(value("--data-dir")?),
            "--shards" => {
                let shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_owned())?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                out.shards = Some(shards);
            }
            "--addr" => out.addr = value("--addr")?,
            "--workers" => {
                out.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_owned())?;
                if out.workers == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
            }
            "--threads" => {
                out.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_owned())?;
                if out.threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
            }
            "--checkpoint-every" => {
                out.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every must be an integer".to_owned())?;
            }
            "--max-body-bytes" => {
                out.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|_| "--max-body-bytes must be an integer".to_owned())?;
            }
            "--follow" => out.follow = Some(value("--follow")?),
            "--poll-ms" => {
                out.poll_ms = value("--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms must be an integer".to_owned())?;
                if out.poll_ms == 0 {
                    return Err("--poll-ms must be at least 1".to_owned());
                }
            }
            "--ingest-dir" => out.ingest_dir = Some(value("--ingest-dir")?),
            "--ingest-poll-ms" => {
                out.ingest_poll_ms = value("--ingest-poll-ms")?
                    .parse()
                    .map_err(|_| "--ingest-poll-ms must be an integer".to_owned())?;
                if out.ingest_poll_ms == 0 {
                    return Err("--ingest-poll-ms must be at least 1".to_owned());
                }
            }
            "--trace-sample" => {
                // 0 disables tracing outright; N samples one request in N.
                out.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample must be a non-negative integer".to_owned())?;
            }
            "--slow-query-us" => {
                out.slow_query_us = Some(
                    value("--slow-query-us")?
                        .parse()
                        .map_err(|_| "--slow-query-us must be an integer".to_owned())?,
                );
            }
            "--log-format" => match value("--log-format")?.as_str() {
                "text" => out.log_json = false,
                "json" => out.log_json = true,
                other => return Err(format!("--log-format must be text or json, not {other:?}")),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if out.data_dir.is_none() {
        return Err("--data-dir is required".to_owned());
    }
    if out.follow.is_some() && out.shards.is_some() {
        return Err("--shards is meaningless with --follow (the primary's manifest rules)".into());
    }
    if out.follow.is_some() && out.ingest_dir.is_some() {
        return Err("--ingest-dir needs a writable primary, not a --follow replica".to_owned());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dn-serve: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    dn_trace::set_log_format_json(args.log_json);
    dn_trace::set_sample_every(args.trace_sample);
    if let Some(us) = args.slow_query_us {
        dn_trace::set_slow_query_us(us);
    }
    let served = match &args.follow {
        Some(primary) => run_follower(&args, primary),
        None => run_server(&args),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dn-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The startup line. `tests/dn_serve_process.rs` reads the bound address
/// out of the text form (`dn-serve listening on http://ADDR ...`), so
/// that exact shape is load-bearing; JSON mode renders the same facts as
/// one `server_started` event on stdout instead.
#[allow(clippy::too_many_arguments)]
fn log_listening(
    addr: impl std::fmt::Display,
    epoch: u64,
    shards: usize,
    workers: usize,
    threads: usize,
    data_dir: &str,
    mode: &str,
) {
    if dn_trace::log_format_json() {
        println!(
            "{}",
            dn_trace::render_json(
                dn_trace::Level::Info,
                "server_started",
                &[
                    ("addr", dn_trace::EventValue::Str(&addr.to_string())),
                    ("epoch", dn_trace::EventValue::U64(epoch)),
                    ("shards", dn_trace::EventValue::U64(shards as u64)),
                    ("workers", dn_trace::EventValue::U64(workers as u64)),
                    ("threads", dn_trace::EventValue::U64(threads as u64)),
                    ("data_dir", dn_trace::EventValue::Str(data_dir)),
                    ("mode", dn_trace::EventValue::Str(mode)),
                ],
            )
        );
    } else {
        println!(
            "dn-serve listening on http://{addr} epoch={epoch} shards={shards} \
workers={workers} threads={threads} data_dir={data_dir} ({mode})"
        );
    }
}

// The engine, checkpoint and listener settings are the same for a primary
// and a follower (a follower's log grows only as fast as the primary's,
// so the same policy keeps its disk bounded the same way).
impl Args {
    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            measures: vec![Measure::lcc(), Measure::exact_bc()],
            prune_single_attribute_values: true,
            threads: self.threads,
        }
    }

    fn checkpoint_policy(&self) -> CheckpointPolicy {
        if self.checkpoint_every == 0 {
            CheckpointPolicy::manual()
        } else {
            CheckpointPolicy {
                every_epochs: Some(self.checkpoint_every),
                max_wal_bytes: Some(16 << 20),
            }
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            addr: self.addr.clone(),
            workers: self.workers,
            limits: Limits {
                max_body_bytes: self.max_body_bytes,
                ..Limits::default()
            },
        }
    }
}

fn run_server(args: &Args) -> Result<(), String> {
    let data_dir = args.data_dir.as_deref().expect("checked in parse_args");
    let service_config = args.service_config();
    let policy = args.checkpoint_policy();

    let root = std::path::Path::new(data_dir);
    if dn_store::Store::exists(root) {
        return Err(format!(
            "{data_dir} holds a pre-sharding single-engine store; move it into a \
shard-0/ subdirectory with a shards.json manifest to serve it"
        ));
    }
    // The on-disk shard manifest is authoritative once a store exists:
    // resharding in place would split components silently.
    let recovering = match dn_store::read_shard_manifest(root)
        .map_err(|e| format!("probing {data_dir}: {e}"))?
    {
        Some(manifest) => {
            if let Some(shards) = args.shards.filter(|&s| s != manifest.shards) {
                return Err(format!(
                    "{data_dir} was initialized with {} shard(s); --shards {shards} would \
reshard it in place (not supported)",
                    manifest.shards
                ));
            }
            true
        }
        None => false,
    };
    let (service, coordinator) = if recovering {
        serve_sharded_from_dir(data_dir, service_config, policy)
            .map_err(|e| format!("recovering {data_dir}: {e}"))?
    } else {
        serve_sharded_durable(
            MutableLake::new(),
            service_config,
            data_dir,
            policy,
            args.shards.unwrap_or(1),
        )
        .map_err(|e| format!("initializing {data_dir}: {e}"))?
    };
    let shards = coordinator.shard_count();
    let epoch = service.epoch();

    let server_config = args.server_config();

    // With --ingest-dir the coordinator is shared between the HTTP write
    // handlers and a background drop-folder ingester; the ingest thread
    // must release its Arc clone before Server::join can reclaim it.
    let (server, ingest_thread, ingest_stop) = if let Some(ingest_dir) = &args.ingest_dir {
        let coordinator = Arc::new(std::sync::Mutex::new(coordinator));
        let stats = Arc::new(dn_ingest::IngestStats::default());
        let mut config = dn_ingest::IngestConfig::new(ingest_dir);
        config.journal_path = root.join("ingest.journal");
        config.poll_interval = Duration::from_millis(args.ingest_poll_ms);
        let sink = dn_ingest::CoordinatorSink::new(Arc::clone(&coordinator));
        let mut ingester = dn_ingest::Ingester::new(config, sink, Arc::clone(&stats))
            .map_err(|e| format!("starting ingester on {ingest_dir}: {e}"))?;
        let server = dn_server::serve_http_ingest(
            service,
            coordinator,
            server_config,
            dn_server::IngestContext { shared: stats },
        )
        .map_err(|e| format!("binding {}: {e}", args.addr))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dn-ingest".to_owned())
            .spawn(move || {
                if let Err(e) = ingester.run(&thread_stop, |_, outcome| {
                    if let Err(e) = outcome {
                        dn_trace::event(
                            dn_trace::Level::Warn,
                            "ingest_retry",
                            &[("error", dn_trace::EventValue::Str(&e.to_string()))],
                        );
                    }
                }) {
                    dn_trace::event(
                        dn_trace::Level::Error,
                        "ingest_halted",
                        &[("error", dn_trace::EventValue::Str(&e.to_string()))],
                    );
                }
            })
            .map_err(|e| format!("spawning ingest thread: {e}"))?;
        (server, Some(thread), Some(stop))
    } else {
        let server = serve_http(service, coordinator, server_config)
            .map_err(|e| format!("binding {}: {e}", args.addr))?;
        (server, None, None)
    };

    log_listening(
        server.local_addr(),
        epoch,
        shards,
        args.workers,
        args.threads,
        data_dir,
        &format!(
            "{}{}",
            if recovering { "recovered" } else { "fresh" },
            if let Some(dir) = &args.ingest_dir {
                format!(", ingesting {dir}")
            } else {
                String::new()
            },
        ),
    );

    // Block until a graceful shutdown (POST /v1/admin/shutdown) drains
    // the workers, then checkpoint the final state so the next start
    // recovers without a WAL replay. The ingest thread (if any) is
    // stopped first so its coordinator Arc is released before join().
    if let (Some(thread), Some(stop)) = (ingest_thread, ingest_stop) {
        while !server.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(100));
        }
        stop.store(true, Ordering::SeqCst);
        let _ = thread.join();
    }
    let mut coordinator = server.join();
    match coordinator.checkpoint_now() {
        Ok(checkpointed) => dn_trace::event(
            dn_trace::Level::Info,
            "server_drained",
            &[("final_checkpoint", dn_trace::EventValue::Bool(checkpointed))],
        ),
        Err(e) => dn_trace::event(
            dn_trace::Level::Error,
            "final_checkpoint_failed",
            &[("error", dn_trace::EventValue::Str(&e.to_string()))],
        ),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Follower mode
// ---------------------------------------------------------------------

fn run_follower(args: &Args, primary: &str) -> Result<(), String> {
    let data_dir = args.data_dir.as_deref().expect("checked in parse_args");
    let primary_addr: std::net::SocketAddr = primary
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .parse()
        .map_err(|e| format!("bad primary address {primary:?}: {e}"))?;
    let source = HttpReplicaSource::with_timeout(primary_addr, Duration::from_secs(10));
    let service_config = args.service_config();
    let policy = args.checkpoint_policy();

    // Bootstrap with backoff: a follower routinely starts before (or
    // during a restart of) its primary.
    let mut follower = {
        let mut attempt: u32 = 0;
        loop {
            match Follower::bootstrap(data_dir, service_config.clone(), policy, &source) {
                Ok(follower) => break follower,
                Err(ReplicaError::Source(message)) => {
                    attempt += 1;
                    if attempt > 120 {
                        return Err(format!("primary unreachable, giving up: {message}"));
                    }
                    dn_trace::event(
                        dn_trace::Level::Warn,
                        "primary_wait",
                        &[
                            (
                                "primary",
                                dn_trace::EventValue::Str(&primary_addr.to_string()),
                            ),
                            ("error", dn_trace::EventValue::Str(&message)),
                        ],
                    );
                    std::thread::sleep(Duration::from_millis(250).saturating_mul(attempt.min(8)));
                }
                Err(e) => return Err(format!("bootstrapping {data_dir}: {e}")),
            }
        }
    };
    // Catch up before accepting traffic so the first readers don't see a
    // stale bootstrap epoch (transient source errors are fine — the tail
    // loop keeps trying).
    match follower.sync_once(&source) {
        Ok(_) | Err(ReplicaError::Source(_)) => {}
        Err(e) => return Err(format!("initial sync: {e}")),
    }

    let shared = follower.shared();
    let handle = follower.handle();
    let shards = handle.shard_count();
    let epoch = handle.epoch();
    let server = serve_http_follower(
        handle,
        follower.coordinator(),
        args.server_config(),
        ReplicaContext {
            primary_url: format!("http://{primary_addr}"),
            shared: Arc::clone(&shared),
        },
    )
    .map_err(|e| format!("binding {}: {e}", args.addr))?;

    log_listening(
        server.local_addr(),
        epoch,
        shards,
        args.workers,
        args.threads,
        data_dir,
        &format!("follower of http://{primary_addr}"),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let tail_stop = Arc::clone(&stop);
    let poll = Duration::from_millis(args.poll_ms);
    let tail = std::thread::Builder::new()
        .name("dn-replica-tail".to_owned())
        .spawn(move || {
            let mut backoff = poll;
            while !tail_stop.load(Ordering::SeqCst) {
                match follower.sync_once(&source) {
                    Ok(_) => {
                        backoff = poll;
                        std::thread::sleep(poll);
                    }
                    Err(ReplicaError::Source(message)) => {
                        dn_trace::event(
                            dn_trace::Level::Warn,
                            "primary_unreachable",
                            &[("error", dn_trace::EventValue::Str(&message))],
                        );
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(5));
                    }
                    Err(e) => {
                        // Divergence or a local apply failure: the halt
                        // latch is set, the router refuses reads. Idle
                        // until the operator drains us — tailing further
                        // WAL onto untrusted state helps nobody.
                        dn_trace::event(
                            dn_trace::Level::Error,
                            "replication_halted",
                            &[("error", dn_trace::EventValue::Str(&e.to_string()))],
                        );
                        while !tail_stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                }
            }
        })
        .map_err(|e| format!("spawning tail thread: {e}"))?;

    server.join_follower();
    stop.store(true, Ordering::SeqCst);
    let _ = tail.join();
    dn_trace::event(dn_trace::Level::Info, "follower_drained", &[]);
    Ok(())
}
