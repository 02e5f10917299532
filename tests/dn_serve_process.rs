//! Process-level probes: the real `dn-serve` and `dn-ingest` binaries,
//! started on loopback port 0 and driven over the wire through the
//! `dn-server` client module.
//!
//! * `http_probe_at_one_and_two_shards` — healthz → mutation → trace ring
//!   → top-k → metrics → checkpoint → shutdown, single-shard and through
//!   the 2-shard coordinator, on the pooled compute core; then a
//!   `--shards 1` restart of the 2-shard store is refused.
//! * `replica_probe_with_sequential_and_pooled_primary` — a 2-shard
//!   primary plus a `--follow` follower: convergence, lag gauge back to 0
//!   with zero divergences (the follower replays sequentially, so the
//!   4-thread primary pass proves the pooled digests are bit-identical
//!   across a real WAL-shipping pipeline), and the read-only 403.
//! * `drop_folder_ingest_probe` — `dn-serve --ingest-dir` tails a folder
//!   while three homograph-drift generations land in it.
//! * `dn_ingest_once_ships_a_drop_folder_over_http` — the standalone
//!   `dn-ingest --once` against a plain `dn-serve`, twice (redelivery is a
//!   no-op).
//! * `retired_smoke_flags_are_rejected_with_usage` — `parse_args`' error
//!   path, for the retired `--smoke*` flags and `--cache-capacity`.
//!
//! Every server is a [`ServerProc`] from the one [`spawn_server`] helper;
//! its `Drop` kills the child, so a failed assertion leaks no process.
//! Waits poll on observable state with a [`DEADLINE`], never a fixed
//! sleep. Scratch dirs live under `CARGO_TARGET_TMPDIR` (prefix
//! `dn_process_`, checked by the CI hygiene gate) and are removed on
//! success; on failure they stay, with each server's stderr in them.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datagen::{DriftConfig, DriftStream};
use dn_server::api::{
    CheckpointResponse, ErrorBody, HealthResponse, MutationRequest, MutationResponse,
    ShutdownResponse, TopKResponse, TraceResponse,
};
use dn_server::{Client, ClientResponse};
use lake::delta::LakeDelta;
use lake::table::TableBuilder;

/// Upper bound on every wait for a state change (startup line, follower
/// convergence, ingest pickup, process exit). Generous because tier-1
/// runs these against debug binaries on a loaded 2-core box.
const DEADLINE: Duration = Duration::from_secs(60);

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_process_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Poll `probe` until it yields a value; panic after [`DEADLINE`].
fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + DEADLINE;
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A running `dn-serve` child. Dropping it kills the process.
struct ServerProc {
    child: Child,
    data_dir: PathBuf,
    addr: SocketAddr,
    /// The `dn-serve listening on http://ADDR ...` stdout line.
    startup_line: String,
    stderr_log: PathBuf,
    stdout_reader: Option<JoinHandle<()>>,
}

/// Start `dn-serve --data-dir <dir>/<name> --addr 127.0.0.1:0 --workers 2
/// <flags>` with stderr captured in `<dir>/<name>.stderr`, and wait for
/// the startup line that carries the bound address.
fn spawn_server(dir: &Path, name: &str, flags: &[&str]) -> ServerProc {
    let data_dir = dir.join(name);
    let stderr_log = dir.join(format!("{name}.stderr"));
    let stderr = std::fs::File::create(&stderr_log).expect("create stderr log");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dn-serve"))
        .arg("--data-dir")
        .arg(&data_dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn dn-serve");
    // The reader thread hands over the first line, then drains stdout so
    // the child never blocks on (or breaks) the pipe; it ends at EOF, i.e.
    // when the child exits.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (first_line, startup) = mpsc::channel();
    let stdout_reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let _ = first_line.send(line);
        let _ = std::io::copy(&mut stdout, &mut std::io::sink());
    });
    // Owned by `server` from here on, so a panic below still kills it.
    let mut server = ServerProc {
        child,
        data_dir,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        startup_line: String::new(),
        stderr_log,
        stdout_reader: Some(stdout_reader),
    };
    server.startup_line = startup
        .recv_timeout(DEADLINE)
        .expect("dn-serve printed nothing on stdout before the deadline");
    let line = &server.startup_line;
    server.addr = line
        .strip_prefix("dn-serve listening on http://")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("dn-serve exited before binding or logged no address: {line:?}"));
    server
}

impl ServerProc {
    fn client(&self) -> Client {
        Client::new(self.addr).with_timeout(Duration::from_secs(30))
    }

    /// The server must drain and exit on its own after
    /// `POST /v1/admin/shutdown`.
    fn wait_exit(&mut self) -> ExitStatus {
        wait_for("dn-serve to exit after shutdown", || {
            self.child.try_wait().expect("poll child")
        })
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_log).unwrap_or_default()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
        if std::thread::panicking() {
            eprintln!("--- {} ---", self.stderr_log.display());
            for line in self.stderr().lines() {
                eprintln!("  server: {line}");
            }
        }
    }
}

fn get(client: &mut Client, path: &str) -> ClientResponse {
    client
        .get(path)
        .unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// `GET path`, which must answer 200 with a JSON body of type `T`.
fn get_json<T: serde::Deserialize>(client: &mut Client, path: &str) -> T {
    let response = get(client, path);
    assert_eq!(response.status, 200, "GET {path}: {}", response.body);
    response
        .json()
        .unwrap_or_else(|e| panic!("GET {path} body: {e}"))
}

fn post(client: &mut Client, path: &str, body: &str) -> ClientResponse {
    client
        .post_json(path, body)
        .unwrap_or_else(|e| panic!("POST {path}: {e}"))
}

/// `POST path`, which must answer 200 with a JSON body of type `T`.
fn post_json<T: serde::Deserialize>(client: &mut Client, path: &str, body: &str) -> T {
    let response = post(client, path, body);
    assert_eq!(response.status, 200, "POST {path}: {}", response.body);
    response
        .json()
        .unwrap_or_else(|e| panic!("POST {path} body: {e}"))
}

/// Graceful drain: the shutdown is acknowledged and the process then
/// exits 0 by itself.
fn shut_down(server: &mut ServerProc, client: &mut Client) {
    let shutdown: ShutdownResponse = post_json(client, "/v1/admin/shutdown", "");
    assert_eq!(shutdown.status, "shutting down");
    let status = server.wait_exit();
    assert!(status.success(), "dn-serve exited with {status}");
}

/// Two tables sharing JAGUAR across semantic domains — the paper's
/// running homograph, as a wire mutation.
fn jaguar_batch() -> String {
    let table = |name: &str, column: &str, cells: [&str; 3]| {
        LakeDelta::new().add_table(
            TableBuilder::new(name)
                .column(column, cells)
                .build()
                .expect("build table"),
        )
    };
    serde_json::to_string(&MutationRequest {
        deltas: vec![
            table("probe_zoo", "animal", ["Jaguar", "Okapi", "Zebra"]),
            table("probe_cars", "make", ["Jaguar", "Fiat", "Kia"]),
        ],
    })
    .expect("encode mutation")
}

fn ranks_jaguar(top: &TopKResponse) -> bool {
    top.results.iter().any(|s| s.value == "JAGUAR")
}

#[test]
fn http_probe_at_one_and_two_shards() {
    for shards in ["1", "2"] {
        let dir = scratch(&format!("http_{shards}"));
        // --trace-sample 1 makes the per-trace ring assertions
        // unconditional; --slow-query-us 0 makes every request emit a
        // slow-query JSON line; --threads 4 probes the pooled core.
        let mut server = spawn_server(
            &dir,
            "store",
            &[
                "--shards",
                shards,
                "--threads",
                "4",
                "--trace-sample",
                "1",
                "--slow-query-us",
                "0",
            ],
        );
        assert!(
            server.startup_line.contains(&format!(" shards={shards} ")),
            "{}",
            server.startup_line
        );
        let mut client = server.client();

        let health: HealthResponse = get_json(&mut client, "/healthz");
        assert_eq!(health.status, "ok");

        let response = post(&mut client, "/v1/mutations", &jaguar_batch());
        assert_eq!(response.status, 200, "{}", response.body);
        let trace_id = response
            .trace_id
            .expect("--trace-sample 1 echoes an X-Dn-Trace-Id on every request");
        let mutation: MutationResponse = response.json().expect("mutation body");
        assert!(mutation.epoch > health.epoch, "mutation published an epoch");
        assert!(mutation.stats.edges_added > 0, "mutation added graph edges");

        // The debug trace ring serves the mutation's own span tree.
        let listing = get(&mut client, "/v1/debug/traces");
        assert_eq!(listing.status, 200);
        let hex = dn_trace::format_trace_id(trace_id);
        let trace: TraceResponse = get_json(&mut client, &format!("/v1/debug/traces/{hex}"));
        assert_eq!(trace.id, hex);
        assert!(!trace.spans.is_empty(), "mutation trace carries spans");
        assert!(listing.body.contains(&hex), "trace list includes {hex}");

        let top: TopKResponse = get_json(&mut client, "/v1/top-k?measure=bc&k=5");
        assert!(
            top.epoch >= mutation.epoch,
            "top-k sees the published epoch"
        );
        assert!(
            ranks_jaguar(&top),
            "top-k surfaces JAGUAR: {:?}",
            top.results
        );

        // The server always fronts the coordinator, so shard 0 exists
        // even in single-shard mode.
        let metrics = get(&mut client, "/metrics");
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("dn_shard_epoch{shard=\"0\"}"));

        let checkpoint: CheckpointResponse = post_json(&mut client, "/v1/admin/checkpoint", "");
        assert!(checkpoint.checkpointed, "checkpoint was written");

        shut_down(&mut server, &mut client);
        let stderr = server.stderr();
        assert!(
            stderr.contains("\"event\":\"slow_query\""),
            "no slow-query JSON line despite --slow-query-us 0:\n{stderr}"
        );
        assert!(
            stderr.contains("\"trace_id\":\""),
            "slow-query lines carry no trace IDs despite --trace-sample 1:\n{stderr}"
        );
        if shards == "2" {
            let store = &server.data_dir;
            assert!(store.join("shards.json").is_file(), "no shard manifest");
            assert!(store.join("shard-1").is_dir(), "no shard-1 directory");
            // The manifest rules an existing store: an explicit
            // `--shards 1` conflicts with it like any other count.
            let mut child = Command::new(env!("CARGO_BIN_EXE_dn-serve"))
                .arg("--data-dir")
                .arg(store)
                .args(["--addr", "127.0.0.1:0", "--shards", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn dn-serve");
            let mut startup = String::new();
            let stdout = child.stdout.take().expect("piped stdout");
            let _ = BufReader::new(stdout).read_line(&mut startup);
            let _ = child.kill();
            let output = child.wait_with_output().expect("wait for dn-serve");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(startup.is_empty(), "served a 2-shard store: {startup}");
            assert_eq!(output.status.code(), Some(1), "{stderr}");
            assert!(
                stderr.contains("initialized with 2 shard(s); --shards 1 would"),
                "{stderr}"
            );
        }
        drop(server);
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

#[test]
fn replica_probe_with_sequential_and_pooled_primary() {
    for primary_threads in ["1", "4"] {
        let dir = scratch(&format!("replica_{primary_threads}"));
        let mut primary = spawn_server(
            &dir,
            "primary",
            &["--shards", "2", "--threads", primary_threads],
        );
        let primary_url = format!("http://{}", primary.addr);
        let mut follower = spawn_server(
            &dir,
            "follower",
            &[
                "--poll-ms",
                "50",
                "--threads",
                "1",
                "--follow",
                &primary_url,
            ],
        );
        let mut primary_client = primary.client();
        let mut follower_client = follower.client();

        let _: HealthResponse = get_json(&mut primary_client, "/healthz");
        let _: HealthResponse = get_json(&mut follower_client, "/healthz");

        let batch = jaguar_batch();
        let mutation: MutationResponse = post_json(&mut primary_client, "/v1/mutations", &batch);

        // The follower converges: same epoch, homograph visible.
        wait_for("the follower to reach the primary's epoch", || {
            let top: TopKResponse = get_json(&mut follower_client, "/v1/top-k?measure=bc&k=5");
            (top.epoch >= mutation.epoch && ranks_jaguar(&top)).then_some(())
        });

        // Insurance gauges: caught up, zero divergences.
        wait_for("the follower lag gauge to return to 0", || {
            let metrics = get(&mut follower_client, "/metrics");
            assert_eq!(metrics.status, 200);
            assert!(
                metrics.body.contains("dn_replica_divergence_total 0"),
                "follower reports divergences:\n{}",
                metrics.body
            );
            metrics
                .body
                .contains("dn_replica_lag_epochs 0")
                .then_some(())
        });

        // The follower refuses writes, pointing at the primary.
        let refused = post(&mut follower_client, "/v1/mutations", &batch);
        assert_eq!(refused.status, 403, "{}", refused.body);
        let envelope: ErrorBody = refused.json().expect("403 body");
        assert_eq!(envelope.error.kind, "read_only_follower");
        assert!(
            envelope.error.message.contains(&primary_url),
            "403 points at the primary: {}",
            envelope.error.message
        );

        // Follower first: its tail loop needs the primary gone last.
        shut_down(&mut follower, &mut follower_client);
        shut_down(&mut primary, &mut primary_client);
        drop((primary, follower));
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

fn drift_stream() -> DriftStream {
    DriftStream::new(DriftConfig {
        seed: 42,
        tables: 4,
        rows_per_table: 24,
        drifters: 2,
        churn_per_generation: 1,
    })
}

/// The value of a `name value` sample line in a `/metrics` exposition.
fn metric(exposition: &str, name: &str) -> Option<u64> {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn drop_folder_ingest_probe() {
    let dir = scratch("ingest");
    let drop_dir = dir.join("drop");
    let mut server = spawn_server(
        &dir,
        "store",
        &[
            "--threads",
            "4",
            "--ingest-dir",
            drop_dir.to_str().expect("utf-8 scratch path"),
            "--ingest-poll-ms",
            "50",
        ],
    );
    let mut client = server.client();
    let _: HealthResponse = get_json(&mut client, "/healthz");

    // Three generations of the drift workload: generation 0 plants each
    // Drifter token in one semantic home; later generations migrate it
    // into foreign columns, making it a served homograph. Each generation
    // is picked up (the applied-batch counter moves) before the next
    // lands on top of it.
    let mut stream = drift_stream();
    let mut applied = 0;
    for _ in 0..3 {
        stream
            .write_next_generation(&drop_dir)
            .expect("write drift generation");
        applied = wait_for("the ingester to apply the generation", || {
            let metrics = get(&mut client, "/metrics");
            metric(&metrics.body, "dn_ingest_batches_applied_total").filter(|&n| n > applied)
        });
    }

    let token = lake::normalize(&stream.drift_tokens()[0]);
    wait_for("the drifted homograph to rank", || {
        let top: TopKResponse = get_json(&mut client, "/v1/top-k?measure=bc&k=10");
        top.results.iter().any(|s| s.value == token).then_some(())
    });

    let metrics = get(&mut client, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metric(&metrics.body, "dn_ingest_files_seen_total").is_some_and(|n| n > 0));

    shut_down(&mut server, &mut client);
    assert!(
        server.data_dir.join("ingest.journal").is_file(),
        "ingester wrote no resume journal"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn dn_ingest_once_ships_a_drop_folder_over_http() {
    let dir = scratch("ingest_once");
    let drop_dir = dir.join("drop");
    let mut server = spawn_server(&dir, "store", &[]);
    let mut client = server.client();

    let mut stream = drift_stream();
    stream
        .write_next_generation(&drop_dir)
        .expect("write drift generation");
    let folder_values: BTreeSet<String> = stream
        .live_tables()
        .iter()
        .flat_map(|table| table.rows().flatten().map(lake::normalize))
        .collect();

    let ingest_once = |run: &str| {
        let stderr = std::fs::File::create(dir.join(format!("dn-ingest.{run}.stderr")))
            .expect("create dn-ingest stderr log");
        let status = Command::new(env!("CARGO_BIN_EXE_dn-ingest"))
            .args(["--once", "--poll-ms", "50", "--watch-dir"])
            .arg(&drop_dir)
            .args(["--primary", &format!("http://{}", server.addr)])
            .stdin(Stdio::null())
            .stderr(stderr)
            .status()
            .expect("run dn-ingest");
        assert!(
            status.success(),
            "dn-ingest --once ({run}) exited with {status}"
        );
    };

    ingest_once("first");
    let top: TopKResponse = get_json(&mut client, "/v1/top-k?measure=bc&k=5");
    assert!(top.epoch > 0, "the folder was committed");
    let served = &top.results.first().expect("a non-empty ranking").value;
    assert!(
        folder_values.contains(served),
        "{served} is not from the folder"
    );

    // The journal makes redelivery a no-op: same folder, same epoch.
    ingest_once("second");
    let again: TopKResponse = get_json(&mut client, "/v1/top-k?measure=bc&k=5");
    assert_eq!(again.epoch, top.epoch, "a second --once moved the epoch");

    shut_down(&mut server, &mut client);
    drop(server);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn retired_smoke_flags_are_rejected_with_usage() {
    for (flag, value) in [
        ("--smoke", "127.0.0.1:1"),
        ("--smoke-replica", "127.0.0.1:1"),
        ("--smoke-ingest", "127.0.0.1:1"),
        ("--cache-capacity", "64"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dn-serve"))
            .args([flag, value])
            .stdin(Stdio::null())
            .output()
            .expect("run dn-serve");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown argument {flag:?}")),
            "{stderr}"
        );
        assert!(
            stderr.contains("usage: dn-serve --data-dir DIR"),
            "{stderr}"
        );
    }
}
