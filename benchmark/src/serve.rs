//! `serve_read_heavy` and `serve_write_heavy`: the full serving stack on
//! loopback — `serve_sharded_durable(shards = 2)` behind `serve_http`,
//! driven by closed-loop keep-alive `dn_server::Client` threads.
//!
//! Read-heavy: HTTP parse → worker queue → route → coordinator scatter/merge
//! → cache → serialize do all the work; kernels, WAL and ingest do none after
//! set-up. Write-heavy uses the same layers differently: JSON decode → route
//! → commit (`apply_batch`, `apply_delta`, WAL fsync) → publish dominate, and
//! a concurrent reader shows what a write costs the reads.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use datagen::mutate::{MutationConfig, MutationStream};
use dn_server::api::{MutationRequest, TablesResponse, TopKResponse};
use dn_server::{serve_http, Client, Server, ServerConfig};
use dn_service::{
    serve_sharded, serve_sharded_durable, CheckpointPolicy, CoordinatorHandle, ServiceConfig,
};
use dn_store::snapshot::{encode_snapshot_threaded, Manifest};
use dn_store::Store;
use domainnet::{DomainNetBuilder, Measure};
use lake::delta::MutableLake;
use lake::LakeDelta;

use crate::inputs::{
    digest_reads, dir_bytes, tus_config, write_lake, ReadMix, ReadOp, Scratch, TopKKeys, ROUTES,
};
use crate::layers::{compare_rankings, fresh_rankings, load_lake, served_measures, timed};
use crate::spans::{aggregate, mean_of, quantile_of, residual_pct, Recorder};
use crate::stats::{mean, median, percentile, sorted_percentile_in, Fnv};
use crate::{Layers, Outcome, RunArgs, COMPUTE_THREADS, FIRST_MEASURED_OP, SERVER_WORKERS, SHARDS};

/// Load-generator threads (keep-alive connections).
pub const CLIENTS: usize = 2;
/// Serving lake: `tus(SERVE_SCALE)`.
pub const SERVE_SCALE: f64 = 0.2;
/// Stand-ups per run; `setup_s` is their median and the last one serves.
pub const SETUP_REPS: usize = 5;
/// Discarded GETs per client before the measured ones.
pub const WARMUP_GETS: usize = 2_000;
/// Read-heavy runs one round per second of `--seconds`: every client issues
/// this many measured GETs, …
pub const GETS_PER_CLIENT_PER_ROUND: usize = 4_500;
/// … then one caller answers this many reads of the same mix in-process.
pub const IN_PROCESS_READS_PER_ROUND: usize = 2_500;
/// Requests per single-client probe of the traced read-heavy run.
pub const PROBE_GETS: usize = 3_000;
/// Requests of the traced read-heavy run that each open their own connection.
pub const PROBE_CONNECTS: usize = 1_000;
/// Top-k reads with a key of their own (cache misses) in that run.
pub const PROBE_MISSES: usize = 200;
/// Two-way no-op scatters behind `pool.run_overhead_us`.
pub const PROBE_SCATTERS: usize = 2_000;
/// Single-delta POSTs per second of `--seconds` (write-heavy).
pub const POSTS_PER_S: usize = 20;
/// Distinct reads per second of `--seconds` the concurrent reader draws from.
pub const READ_POOL_PER_S: usize = 5_000;
/// Discarded POSTs before the measured ones.
pub const WARMUP_POSTS: usize = 4;
/// A delta is heavy when `apply_delta` takes longer than this.
pub const HEAVY_DELTA_MS: f64 = 50.0;
/// Shares of the four read routes in the mix, in `ROUTES` order.
pub const MIX_WEIGHTS: [f64; 4] = [0.50, 0.20, 0.15, 0.15];
/// Hot values: the epoch-0 top of the first served measure.
pub const HOT_VALUES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadHeavy,
    WriteHeavy,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ReadHeavy => "serve_read_heavy",
            Kind::WriteHeavy => "serve_write_heavy",
        }
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: COMPUTE_THREADS,
        ..ServiceConfig::default()
    }
}

/// CSV directory → a server answering on loopback. This is `setup_s`.
fn stand_up(rec: &mut Recorder, lake_dir: &Path, data_dir: &Path, op: u64) -> Server {
    rec.scope("op.stand_up", op, |rec| {
        let catalog = rec.leaf("lake.load_dir", op, || load_lake(lake_dir));
        let lake = rec.leaf("lake.from_catalog", op, || {
            MutableLake::from_catalog(&catalog)
        });
        let (handle, coordinator) = rec.leaf("service.serve_sharded_durable", op, || {
            serve_sharded_durable(
                lake,
                service_config(),
                data_dir,
                CheckpointPolicy::default(),
                SHARDS,
            )
            .expect("fresh data directory")
        });
        let server = rec.leaf("server.serve_http", op, || {
            serve_http(
                handle,
                coordinator,
                ServerConfig {
                    workers: SERVER_WORKERS,
                    ..ServerConfig::default()
                },
            )
            .expect("bind loopback")
        });
        let health = rec.leaf("server.healthz", op, || {
            Client::new(server.local_addr()).get("/healthz")
        });
        assert_eq!(health.expect("first healthz").status, 200);
        server
    })
}

fn tear_down(server: Server) {
    server.shutdown();
    drop(server.join());
}

/// One timed request of a client thread.
struct Sample {
    route: usize,
    start: Instant,
    end: Instant,
}

impl Sample {
    fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// A GET succeeded when it answered 200 — or 404 on a value route, which
/// is the documented answer once a mutation has removed the hot value.
fn get_ok(status: u16, op: &ReadOp, writes_running: bool) -> bool {
    status == 200
        || (status == 404
            && writes_running
            && matches!(op, ReadOp::Score { .. } | ReadOp::Explain { .. }))
}

fn timed_get(client: &mut Client, op: &ReadOp, path: &str, writes: bool, log: &mut ClientLog) {
    let start = Instant::now();
    let response = client.get(path);
    let end = Instant::now();
    log.attempted += 1;
    match response {
        Ok(response) if get_ok(response.status, op, writes) => log.samples.push(Sample {
            route: op.route(),
            start,
            end,
        }),
        _ => log.failed += 1,
    }
}

struct Targets {
    hot: Vec<String>,
    tables: Vec<String>,
}

fn fetch_targets(addr: SocketAddr) -> Targets {
    let mut client = Client::new(addr);
    let top: TopKResponse = client
        .get(&format!("/v1/top-k?k={HOT_VALUES}"))
        .expect("set-up top-k")
        .json()
        .expect("set-up top-k body");
    let tables: TablesResponse = client
        .get("/v1/tables")
        .expect("set-up tables")
        .json()
        .expect("set-up tables body");
    Targets {
        hot: top.results.into_iter().map(|s| s.value).collect(),
        tables: tables.tables,
    }
}

/// A seeded read sequence and its request paths.
struct ReadStream {
    ops: Vec<ReadOp>,
    paths: Vec<String>,
}

impl ReadStream {
    fn new(mut mix: ReadMix, count: usize, targets: &Targets, digest: &mut Fnv) -> ReadStream {
        let ops = mix.take(count);
        digest_reads(&ops, digest);
        let paths = ops
            .iter()
            .map(|op| op.path(&targets.hot, &targets.tables))
            .collect();
        ReadStream { ops, paths }
    }

    fn reads(&self) -> impl Iterator<Item = (&ReadOp, &String)> + Clone {
        self.ops.iter().zip(&self.paths)
    }
}

/// A keep-alive client with the stream's first `WARMUP_GETS` reads done and
/// discarded.
fn warmed_up(addr: SocketAddr, stream: &ReadStream, writes: bool) -> (Client, ClientLog) {
    let mut client = Client::new(addr);
    let mut log = ClientLog {
        samples: Vec::with_capacity(stream.ops.len()),
        ..ClientLog::default()
    };
    for (op, path) in stream.reads().take(WARMUP_GETS) {
        timed_get(&mut client, op, path, writes, &mut log);
    }
    log.samples.clear();
    (client, log)
}

/// A closed-loop client of the read-heavy rounds: after every
/// `GETS_PER_CLIENT_PER_ROUND` GETs it yields the turn to the in-process
/// caller and waits to get it back.
fn round_reader(addr: SocketAddr, stream: &ReadStream, turn: &Barrier) -> ClientLog {
    let (mut client, mut log) = warmed_up(addr, stream, false);
    let mut reads = stream.reads().skip(WARMUP_GETS).peekable();
    turn.wait();
    while reads.peek().is_some() {
        for (op, path) in reads.by_ref().take(GETS_PER_CLIENT_PER_ROUND) {
            timed_get(&mut client, op, path, false, &mut log);
        }
        turn.wait();
        turn.wait();
    }
    log
}

/// A closed-loop client that reads until `done` is set, cycling through
/// its stream should the writer outlast it.
fn reader_until(
    addr: SocketAddr,
    stream: &ReadStream,
    start_line: &Barrier,
    done: &AtomicBool,
) -> ClientLog {
    let (mut client, mut log) = warmed_up(addr, stream, true);
    start_line.wait();
    for (op, path) in stream.reads().cycle().skip(WARMUP_GETS) {
        if done.load(Ordering::SeqCst) {
            break;
        }
        timed_get(&mut client, op, path, true, &mut log);
    }
    log
}

fn route_name(route: usize) -> &'static str {
    [
        "server.get_topk",
        "server.get_score",
        "server.get_explain",
        "server.get_table",
    ][route]
}

fn record_samples(rec: &mut Recorder, logs: &[&ClientLog], first_op: u64) {
    let mut op = first_op;
    for log in logs {
        for sample in &log.samples {
            rec.record(route_name(sample.route), op, sample.start, sample.end);
            op += 1;
        }
    }
}

/// Ascending nanosecond latencies of a sample set, per route.
struct ByRoute([Vec<u64>; 4]);

impl ByRoute {
    fn of<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> ByRoute {
        let mut by_route: [Vec<u64>; 4] = Default::default();
        for sample in samples {
            by_route[sample.route].push(sample.ns());
        }
        by_route.iter_mut().for_each(|ns| ns.sort_unstable());
        ByRoute(by_route)
    }

    fn p50_us(&self, route: usize) -> f64 {
        percentile(&self.0[route], 0.5).unwrap_or(0) as f64 / 1e3
    }

    /// The read latency every read metric reports: the per-route medians
    /// weighted by the mix. (The plain median of the pooled samples would
    /// sit on the boundary between the top-k mode — half of the mix — and
    /// the slower routes, and jump between them from run to run.)
    fn latency_ns(&self) -> f64 {
        self.0
            .iter()
            .zip(MIX_WEIGHTS)
            .map(|(ns, weight)| weight * percentile(ns, 0.5).unwrap_or(0) as f64)
            .sum()
    }

    fn note(&self, what: &str) -> String {
        let total: usize = self.0.iter().map(Vec::len).sum();
        let mut line = format!("{what}: {total} samples");
        for (route, name) in ROUTES.iter().enumerate() {
            line.push_str(&format!(
                ", {name} p50 {:.1} us ({})",
                self.p50_us(route),
                self.0[route].len()
            ));
        }
        line
    }

    /// Per-route client medians and the pooled tail (reported, not gated).
    fn client_layers(&self, layers: &mut Layers) {
        for (route, name) in [
            "server.topk_p50_us",
            "server.score_p50_us",
            "server.explain_p50_us",
            "server.table_p50_us",
        ]
        .iter()
        .enumerate()
        {
            layers.set(name, self.p50_us(route));
        }
        let mut pooled: Vec<u64> = self.0.iter().flatten().copied().collect();
        pooled.sort_unstable();
        let at = |q| percentile(&pooled, q).unwrap_or(0) as f64 / 1e3;
        layers.set("server.read_p99_us", at(0.99));
        layers.set("server.read_p999_us", at(0.999));
    }
}

/// What standing the server up cost, layer by layer (medians of the
/// stand-ups).
fn stand_up_layers(rec: &Recorder, csv_bytes: u64, layers: &mut Layers) {
    let by_name = aggregate(rec.spans());
    let load_dir_s = quantile_of(&by_name, "lake.load_dir", 0.5, 1e9);
    layers.set("lake.load_dir_s", load_dir_s);
    layers.set(
        "lake.csv_mb_per_s",
        csv_bytes as f64 / 1e6 / load_dir_s.max(1e-9),
    );
    layers.set(
        "lake.from_catalog_ms",
        quantile_of(&by_name, "lake.from_catalog", 0.5, 1e6),
    );
    layers.set(
        "service.cold_start_s",
        quantile_of(&by_name, "service.serve_sharded_durable", 0.5, 1e9),
    );
}

/// Answer one read in-process, the way the router does.
fn read_in_process(handle: &CoordinatorHandle, op: &ReadOp, targets: &Targets) -> bool {
    let reader = handle.reader();
    match *op {
        ReadOp::TopK { bc, k } => {
            let measure = if bc {
                Measure::exact_bc()
            } else {
                Measure::lcc()
            };
            reader.top_k(measure, k).is_some()
        }
        ReadOp::Score { hot } => {
            served_measures()
                .into_iter()
                .filter_map(|m| reader.score_card(m, &targets.hot[hot]))
                .count()
                > 0
        }
        ReadOp::Explain { hot } => reader.explain(&targets.hot[hot]).is_some(),
        ReadOp::Table { table } => reader
            .table_summary(&targets.tables[table], Measure::lcc(), 5)
            .is_some(),
    }
}

/// Replay reads against a coordinator handle in-process under spans.
fn replay_in_process(
    rec: &mut Recorder,
    handle: &CoordinatorHandle,
    ops: &[ReadOp],
    targets: &Targets,
    names: [&'static str; 4],
    first_op: u64,
    samples: &mut Vec<Sample>,
) {
    for (i, op) in ops.iter().enumerate() {
        let start = Instant::now();
        let answered = rec.leaf(names[op.route()], first_op + i as u64, || {
            read_in_process(handle, op, targets)
        });
        samples.push(Sample {
            route: op.route(),
            start,
            end: Instant::now(),
        });
        assert!(answered, "in-process read {op:?} found nothing");
    }
}

const SERVICE_NAMES: [&str; 4] = [
    "service.top_k",
    "service.score_card",
    "service.explain",
    "service.table_summary",
];
const SINGLE_SHARD_NAMES: [&str; 4] = [
    "service.top_k_1shard",
    "service.score_card_1shard",
    "service.explain_1shard",
    "service.table_summary_1shard",
];

/// The measured phase of `serve_read_heavy`.
fn read_heavy(
    args: &RunArgs,
    rec: &mut Recorder,
    server: &Server,
    lake_dir: &Path,
    out: &mut Outcome,
) {
    let addr = server.local_addr();
    let targets = fetch_targets(addr);
    let rounds = args.seconds as usize;
    let mut digest = Fnv::default();
    let mix = |stream: usize| {
        ReadMix::new(
            args.seed.wrapping_mul(31).wrapping_add(stream as u64),
            TopKKeys::Six,
            targets.hot.len(),
            targets.tables.len(),
        )
    };
    let streams: Vec<ReadStream> = (0..CLIENTS)
        .map(|c| {
            ReadStream::new(
                mix(c),
                WARMUP_GETS + rounds * GETS_PER_CLIENT_PER_ROUND,
                &targets,
                &mut digest,
            )
        })
        .collect();
    let embedded_ops = mix(CLIENTS).take(rounds * IN_PROCESS_READS_PER_ROUND);
    digest_reads(&embedded_ops, &mut digest);

    // HTTP rounds and in-process rounds alternate, so both latencies sample
    // the whole run and a slow spell of the machine cannot land on one.
    let handle = server.service();
    let mut embedded = Vec::with_capacity(embedded_ops.len());
    let turn = Barrier::new(CLIENTS + 1);
    let logs = std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter()
            .map(|stream| {
                let turn = &turn;
                scope.spawn(move || round_reader(addr, stream, turn))
            })
            .collect();
        turn.wait();
        let measured = Instant::now();
        for (round, ops) in embedded_ops.chunks(IN_PROCESS_READS_PER_ROUND).enumerate() {
            turn.wait();
            // The same mix without HTTP: one caller on the served coordinator.
            replay_in_process(
                rec,
                &handle,
                ops,
                &targets,
                SERVICE_NAMES,
                FIRST_MEASURED_OP + 2_000_000 + (round * IN_PROCESS_READS_PER_ROUND) as u64,
                &mut embedded,
            );
            turn.wait();
        }
        out.wall_s = measured.elapsed().as_secs_f64();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<ClientLog>>()
    });

    let keep_alive = ByRoute::of(logs.iter().flat_map(|l| &l.samples));
    let in_process = ByRoute::of(&embedded);
    let (client_ns, embedded_ns) = (keep_alive.latency_ns(), in_process.latency_ns());
    out.primary_op_ms = client_ns / 1e6;
    out.secondary_op_ms = embedded_ns / 1e6;
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    out.attempted += embedded_ops.len() as u64;
    out.requests = out.attempted;
    out.digest = digest.value();
    out.note(keep_alive.note("keep-alive GETs"));
    out.note(in_process.note("in-process reads"));
    let cache = handle.cache_stats();
    out.note(format!(
        "coordinator cache: {} hits, {} misses, hit rate {:.4}",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    ));

    if !rec.enabled() {
        return;
    }
    record_samples(rec, &logs.iter().collect::<Vec<_>>(), FIRST_MEASURED_OP);
    let layers = &mut out.layers;
    layers.set("service.cache_hit_rate", cache.hit_rate());
    keep_alive.client_layers(layers);
    for (route, name) in [
        "service.topk_hit_us",
        "service.score_card_us",
        "service.explain_us",
        "service.table_summary_us",
    ]
    .iter()
    .enumerate()
    {
        layers.set(name, in_process.p50_us(route));
    }
    layers.set("server.http_overhead_us", (client_ns - embedded_ns) / 1e3);

    // Layer by layer: the first round's in-process reads again on a
    // shards = 1 twin, the pool's scatter floor, the wire and queue floor,
    // the accept path, what dn-trace costs a read, and the cache-miss path.
    let catalog = load_lake(lake_dir);
    let (single, _single_writer) =
        serve_sharded(MutableLake::from_catalog(&catalog), service_config(), 1);
    let mut single_samples = Vec::with_capacity(IN_PROCESS_READS_PER_ROUND);
    replay_in_process(
        rec,
        &single,
        &embedded_ops[..IN_PROCESS_READS_PER_ROUND],
        &targets,
        SINGLE_SHARD_NAMES,
        FIRST_MEASURED_OP + 4_000_000,
        &mut single_samples,
    );
    let single_ns = ByRoute::of(&single_samples).latency_ns();
    layers.set(
        "service.scatter_overhead_us",
        (embedded_ns - single_ns) / 1e3,
    );

    let pool = dn_pool::Pool::new(COMPUTE_THREADS);
    let (_, scatters_s) = timed(|| {
        rec.leaf("pool.run_noop", FIRST_MEASURED_OP + 5_000_000, || {
            for _ in 0..PROBE_SCATTERS {
                std::hint::black_box(pool.run(COMPUTE_THREADS, std::hint::black_box));
            }
        })
    });
    layers.set(
        "pool.run_overhead_us",
        scatters_s * 1e6 / PROBE_SCATTERS as f64,
    );

    let mut client = Client::new(addr);
    let mut timed_gets =
        |rec: &mut Recorder, name: &'static str, first_op: u64, count: usize, fresh: bool| {
            let mut ns = Vec::with_capacity(count);
            for (i, path) in streams[0].paths.iter().take(count).enumerate() {
                let path = if name == "server.get_healthz" {
                    "/healthz"
                } else {
                    path
                };
                let start = Instant::now();
                let ok = rec.leaf(name, first_op + i as u64, || {
                    let response = if fresh {
                        Client::new(addr).get(path)
                    } else {
                        client.get(path)
                    };
                    response.is_ok_and(|r| r.status == 200)
                });
                ns.push(start.elapsed().as_nanos() as u64);
                assert!(ok, "{name} {path}");
            }
            sorted_percentile_in(&mut ns, 0.5, 1e3).unwrap_or(0.0)
        };
    let first = FIRST_MEASURED_OP + 6_000_000;
    let healthz_us = timed_gets(rec, "server.get_healthz", first, PROBE_GETS, false);
    let connect_us = timed_gets(
        rec,
        "server.get_fresh_connection",
        first + 10_000,
        PROBE_CONNECTS,
        true,
    );
    let unsampled_us = timed_gets(
        rec,
        "server.get_unsampled",
        first + 20_000,
        PROBE_GETS,
        false,
    );
    dn_trace::set_sample_every(1);
    let sampled_us = timed_gets(rec, "server.get_sampled", first + 30_000, PROBE_GETS, false);
    dn_trace::set_sample_every(0);
    layers.set("server.healthz_p50_us", healthz_us);
    layers.set("server.connect_p50_us", connect_us);
    layers.set(
        "trace.overhead_pct",
        (sampled_us - unsampled_us) / unsampled_us.max(1e-9) * 100.0,
    );

    // Last, because these keys evict the six hot ones from the cache.
    let reader = handle.reader();
    let mut miss_ns = Vec::with_capacity(PROBE_MISSES);
    for i in 0..PROBE_MISSES {
        let start = Instant::now();
        let answered = rec.leaf("service.top_k_miss", first + 40_000 + i as u64, || {
            reader.top_k(Measure::lcc(), 201 + i).is_some()
        });
        miss_ns.push(start.elapsed().as_nanos() as u64);
        assert!(answered, "top-k of an uncached key");
    }
    layers.set(
        "service.topk_miss_us",
        sorted_percentile_in(&mut miss_ns, 0.5, 1e3).unwrap_or(0.0),
    );
    out.note(format!(
        "read latency: client {:.1} us, in-process shards=2 {:.1} us, shards=1 {:.1} us",
        client_ns / 1e3,
        embedded_ns / 1e3,
        single_ns / 1e3
    ));
    out.note(format!(
        "one client alone, p50: healthz {healthz_us:.1} us, fresh connection each {connect_us:.1} us, keep-alive {unsampled_us:.1} us with dn-trace sampling off and {sampled_us:.1} us sampling every request"
    ));
}

/// The shape-seeded single-delta mutation stream and the shadow lake it
/// evolves.
struct Mutations {
    deltas: Vec<LakeDelta>,
    bodies: Vec<String>,
    shadow: MutableLake,
}

fn mutations(seed: u64, base: MutableLake, count: usize, digest: &mut Fnv) -> Mutations {
    let mut stream = MutationStream::new(MutationConfig {
        seed,
        tables_per_delta: 1,
        rows_per_table: 80,
        ..MutationConfig::default()
    });
    let mut shadow = base;
    let mut deltas = Vec::with_capacity(count);
    let mut bodies = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = stream.next_delta(&shadow);
        shadow.apply(&delta).expect("stream deltas apply");
        let body = serde_json::to_string(&MutationRequest {
            deltas: vec![delta.clone()],
        })
        .expect("encode mutation request");
        digest.feed(body.as_bytes());
        deltas.push(delta);
        bodies.push(body);
    }
    Mutations {
        deltas,
        bodies,
        shadow,
    }
}

/// The measured phase of `serve_write_heavy`. Returns the shadow lake.
fn write_heavy(
    args: &RunArgs,
    rec: &mut Recorder,
    server: &Server,
    lake_dir: &Path,
    scratch: &Scratch,
    out: &mut Outcome,
) -> MutableLake {
    let addr = server.local_addr();
    let targets = fetch_targets(addr);
    let posts = POSTS_PER_S * args.seconds as usize;
    let catalog = load_lake(lake_dir);
    let base = MutableLake::from_catalog(&catalog);
    let mut digest = Fnv::default();
    // The mutation stream is part of the frozen shape: which deltas touch
    // the giant component (and so recompute its BC) is a seeded coin flip
    // per delta, and the mean ack would follow the count of heads.
    let writes = mutations(
        args.shape_seed,
        base.clone(),
        WARMUP_POSTS + posts,
        &mut digest,
    );
    let reads = ReadStream::new(
        ReadMix::new(
            args.seed.wrapping_mul(31),
            TopKKeys::Wide,
            targets.hot.len(),
            targets.tables.len(),
        ),
        READ_POOL_PER_S * args.seconds as usize,
        &targets,
        &mut digest,
    );

    let done = AtomicBool::new(false);
    let start_line = Barrier::new(3);
    let (wall_s, post_log, read_log) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client::new(addr);
            let mut log = ClientLog {
                samples: Vec::with_capacity(posts),
                ..ClientLog::default()
            };
            for (i, body) in writes.bodies.iter().enumerate() {
                if i == WARMUP_POSTS {
                    start_line.wait();
                }
                let start = Instant::now();
                let response = client.post_json("/v1/mutations", body);
                let end = Instant::now();
                log.attempted += 1;
                match response {
                    Ok(response) if response.status == 200 => {
                        if i >= WARMUP_POSTS {
                            log.samples.push(Sample {
                                route: 0,
                                start,
                                end,
                            });
                        }
                    }
                    _ => log.failed += 1,
                }
            }
            done.store(true, Ordering::SeqCst);
            log
        });
        let reader = scope.spawn(|| reader_until(addr, &reads, &start_line, &done));
        start_line.wait();
        let measured = Instant::now();
        let post_log = writer.join().expect("writer thread");
        let wall_s = measured.elapsed().as_secs_f64();
        (wall_s, post_log, reader.join().expect("reader thread"))
    });
    out.wall_s = wall_s;

    let post_ms: Vec<f64> = post_log
        .samples
        .iter()
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    out.primary_op_ms = mean(&post_ms).unwrap_or(0.0);
    let gets = ByRoute::of(&read_log.samples);
    out.secondary_op_ms = gets.latency_ns() / 1e6;
    out.attempted = post_log.attempted + read_log.attempted;
    out.failed = post_log.failed + read_log.failed;
    out.requests = post_log.attempted;
    out.digest = digest.value();
    let heavy = post_ms.iter().filter(|ms| **ms > HEAVY_DELTA_MS).count();
    out.note(format!(
        "POSTs: {} measured, mean {:.2} ms, median {:.2} ms, {} above {HEAVY_DELTA_MS} ms",
        post_ms.len(),
        out.primary_op_ms,
        median(&post_ms).unwrap_or(0.0),
        heavy
    ));
    out.note(gets.note("concurrent GETs"));
    let cache = server.service().cache_stats();
    out.note(format!(
        "coordinator cache: {} hits, {} misses, hit rate {:.4}",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    ));

    if rec.enabled() {
        for (i, sample) in post_log.samples.iter().enumerate() {
            rec.record(
                "server.post_mutations",
                FIRST_MEASURED_OP + i as u64,
                sample.start,
                sample.end,
            );
        }
        record_samples(rec, &[&read_log], FIRST_MEASURED_OP + 10_000);
        out.layers.set("service.cache_hit_rate", cache.hit_rate());
        gets.client_layers(&mut out.layers);
        trace_writes(rec, &writes, base, scratch, &post_ms, out);
    }
    writes.shadow
}

/// Layer by layer: the first half of the measured deltas, once through an
/// in-process coordinator and once through the benchmark's own twin of what
/// a commit does — a checkpoint when the policy says so, WAL append,
/// `apply_batch`, `apply_delta`, `warm_rankings`.
fn trace_writes(
    rec: &mut Recorder,
    writes: &Mutations,
    base: MutableLake,
    scratch: &Scratch,
    post_ms: &[f64],
    out: &mut Outcome,
) {
    let (warm_up, measured) = writes.deltas.split_at(WARMUP_POSTS);
    let measured = &measured[..measured.len() / 2];
    let measures = served_measures();

    let (_handle, mut coordinator) = serve_sharded_durable(
        base.clone(),
        service_config(),
        scratch.path("twin-coordinator"),
        CheckpointPolicy::default(),
        SHARDS,
    )
    .expect("fresh twin data directory");
    for delta in warm_up {
        coordinator
            .apply_and_publish(delta.clone())
            .expect("twin coordinator warm-up");
    }
    for (i, delta) in measured.iter().enumerate() {
        let op = FIRST_MEASURED_OP + 1_000_000 + i as u64;
        rec.scope("op.apply_and_publish", op, |rec| {
            coordinator.stage(delta.clone());
            rec.leaf("service.commit", op, || coordinator.commit())
                .expect("twin coordinator commit");
            rec.leaf("service.publish", op, || coordinator.publish());
        });
    }
    drop(coordinator);

    let mut lake = base;
    let mut net = DomainNetBuilder::new().build(&lake);
    net.set_compute_threads(COMPUTE_THREADS);
    net.warm_rankings(&measures);
    let mut store = Store::create(scratch.path("twin-store")).expect("fresh twin store");
    store.set_threads(COMPUTE_THREADS);
    let checkpoint_every = CheckpointPolicy::default().every_epochs.unwrap_or(u64::MAX);
    let mut wal_bytes = 0u64;
    for (epoch, delta) in (0u64..).zip(warm_up.iter().chain(measured)) {
        let op = FIRST_MEASURED_OP + 2_000_000 + epoch;
        // The warm-up deltas are applied, not recorded.
        let mut unrecorded = Recorder::new(false, 0);
        let rec = if (epoch as usize) < WARMUP_POSTS {
            &mut unrecorded
        } else {
            &mut *rec
        };
        let checkpoint_due = epoch > 0 && epoch % checkpoint_every == 0;
        rec.scope("op.commit_layers", op, |rec| {
            if checkpoint_due {
                rec.leaf("store.checkpoint", op, || {
                    store.checkpoint(&lake, &net, epoch, &measures)
                })
                .expect("twin checkpoint");
            }
            let before = store.wal_record_bytes();
            rec.leaf("store.append_batch", op, || {
                store.append_batch(epoch, std::slice::from_ref(delta))
            })
            .expect("twin WAL append");
            if rec.enabled() {
                wal_bytes += store.wal_record_bytes() - before;
            }
            let effects = rec
                .leaf("lake.apply_batch", op, || lake.apply_batch([delta]))
                .expect("twin apply_batch");
            rec.leaf("core.apply_delta", op, || net.apply_delta(&lake, &effects))
                .expect("twin apply_delta");
            rec.leaf("core.warm_rankings", op, || net.warm_rankings(&measures));
        });
        if checkpoint_due {
            // The codec's share of a checkpoint, without the file write.
            let manifest = Manifest {
                last_seq: store.last_seq(),
                epoch,
                measures: measures.to_vec(),
            };
            rec.leaf("store.encode_snapshot", op, || {
                std::hint::black_box(encode_snapshot_threaded(
                    &lake,
                    &net,
                    &manifest,
                    COMPUTE_THREADS,
                ))
            });
        }
    }
    for (i, body) in writes.bodies[WARMUP_POSTS..][..measured.len()]
        .iter()
        .enumerate()
    {
        let op = FIRST_MEASURED_OP + 3_000_000 + i as u64;
        let decoded = rec.leaf("server.decode_mutation", op, || {
            serde_json::from_str::<MutationRequest>(body)
        });
        assert!(decoded.is_ok(), "mutation body decodes");
    }

    let by_name = aggregate(rec.spans());
    let total = |name: &str| by_name.get(name).map_or(0, |a| a.total_ns);
    let layer_sum: u64 = [
        "store.checkpoint",
        "store.append_batch",
        "lake.apply_batch",
        "core.apply_delta",
        "core.warm_rankings",
    ]
    .iter()
    .map(|name| total(name))
    .sum();
    let apply_ns = &by_name["core.apply_delta"].durations_ns;
    let heavy = apply_ns
        .iter()
        .filter(|ns| **ns as f64 / 1e6 > HEAVY_DELTA_MS)
        .count();
    let post_mean_ms = mean(&post_ms[..measured.len()]).unwrap_or(0.0);
    let in_process_mean_ms = mean_of(&by_name, "op.apply_and_publish", 1e6);
    let layers = &mut out.layers;
    layers.set(
        "lake.apply_batch_us",
        mean_of(&by_name, "lake.apply_batch", 1e3),
    );
    layers.set(
        "core.apply_delta_mean_ms",
        mean_of(&by_name, "core.apply_delta", 1e6),
    );
    layers.set(
        "core.apply_delta_p50_ms",
        quantile_of(&by_name, "core.apply_delta", 0.5, 1e6),
    );
    layers.set(
        "core.apply_delta_p90_ms",
        quantile_of(&by_name, "core.apply_delta", 0.9, 1e6),
    );
    layers.set(
        "core.heavy_delta_share",
        heavy as f64 / apply_ns.len() as f64,
    );
    layers.set(
        "core.warm_rankings_mean_ms",
        mean_of(&by_name, "core.warm_rankings", 1e6),
    );
    layers.set(
        "store.wal_append_us",
        mean_of(&by_name, "store.append_batch", 1e3),
    );
    layers.set(
        "store.wal_bytes_per_mutation",
        wal_bytes as f64 / measured.len() as f64,
    );
    layers.set(
        "store.checkpoint_ms",
        mean_of(&by_name, "store.checkpoint", 1e6),
    );
    layers.set(
        "store.snapshot_encode_ms",
        mean_of(&by_name, "store.encode_snapshot", 1e6),
    );
    layers.set(
        "service.commit_mean_ms",
        mean_of(&by_name, "service.commit", 1e6),
    );
    layers.set(
        "service.publish_mean_ms",
        mean_of(&by_name, "service.publish", 1e6),
    );
    layers.set(
        "service.commit_residual_pct",
        residual_pct(total("service.commit"), layer_sum),
    );
    layers.set(
        "server.mutation_decode_ms",
        mean_of(&by_name, "server.decode_mutation", 1e6),
    );
    layers.set(
        "server.mutate_http_overhead_ms",
        post_mean_ms - in_process_mean_ms,
    );
    out.note(format!(
        "first {} measured mutations: POST ack mean {post_mean_ms:.2} ms, in-process apply_and_publish mean {in_process_mean_ms:.2} ms, commit residual vs layer twin {:.1} %",
        measured.len(),
        out.layers.get("service.commit_residual_pct")
    ));
}

pub fn run(kind: Kind, args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let scratch = Scratch::new(kind.name());
    let lake_dir = scratch.path("lake");
    let (generated, csv_bytes) = write_lake(tus_config(SERVE_SCALE, args.shape_seed), &lake_dir);
    drop(generated);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: serving lake tus({SERVE_SCALE}) {csv_bytes} CSV bytes"
    ));

    // Set-up, several times over; the last stand-up serves the run.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            tear_down(previous);
        }
        let data_dir = scratch.path(&format!("data-{rep}"));
        let (stood_up, seconds) = timed(|| stand_up(rec, &lake_dir, &data_dir, rep as u64));
        setup_s.push(seconds);
        server = Some(stood_up);
    }
    let server = server.expect("at least one stand-up");
    out.setup_s = median(&setup_s).expect("at least one stand-up");
    let data_dir = scratch.path(&format!("data-{}", SETUP_REPS - 1));
    if rec.enabled() {
        stand_up_layers(rec, csv_bytes, &mut out.layers);
    }

    let shadow = match kind {
        Kind::ReadHeavy => {
            read_heavy(args, rec, &server, &lake_dir, &mut out);
            let catalog = load_lake(&lake_dir);
            MutableLake::from_catalog(&catalog)
        }
        Kind::WriteHeavy => write_heavy(args, rec, &server, &lake_dir, &scratch, &mut out),
    };

    // Correctness gate, untimed: what is served equals a from-scratch build.
    let reader = server.service().reader();
    for (measure, fresh) in fresh_rankings(&shadow) {
        let served = reader
            .top_k(measure, usize::MAX)
            .ok_or_else(|| format!("{} is not served", measure.name()))?;
        compare_rankings(measure.name(), &served, &fresh)?;
    }
    let epochs = server.service().epochs_published();
    tear_down(server);
    let data_bytes = dir_bytes(&data_dir);
    out.exact_counts = vec![("data_dir_bytes", data_bytes), ("csv_bytes", csv_bytes)];
    out.note(format!(
        "store: {data_bytes} bytes in the data directory after {epochs} published epochs, {:.3} per CSV byte",
        data_bytes as f64 / csv_bytes as f64
    ));
    if rec.enabled() && kind == Kind::WriteHeavy {
        out.layers.set(
            "store.bytes_per_csv_byte",
            data_bytes as f64 / csv_bytes as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn read_latency_weights_route_medians_by_the_mix() {
        let origin = Instant::now();
        let sample = |route, us| Sample {
            route,
            start: origin,
            end: origin + Duration::from_micros(us),
        };
        // Route medians 10, 100, 200, 400 us.
        let set = vec![
            sample(0, 10),
            sample(0, 10),
            sample(0, 1_000),
            sample(1, 100),
            sample(2, 200),
            sample(3, 400),
        ];
        let by_route = ByRoute::of(&set);
        let expected = 0.5 * 10e3 + 0.2 * 100e3 + 0.15 * 200e3 + 0.15 * 400e3;
        assert!((by_route.latency_ns() - expected).abs() < 1e-6);
        assert!(by_route
            .note("x")
            .starts_with("x: 6 samples, topk p50 10.0 us (3)"));
        assert_eq!(MIX_WEIGHTS.iter().sum::<f64>(), 1.0);
        let mut layers = Layers::default();
        by_route.client_layers(&mut layers);
        assert_eq!(layers.get("server.score_p50_us"), 100.0);
        assert_eq!(layers.get("server.read_p999_us"), 1_000.0);
    }

    #[test]
    fn a_404_counts_as_success_only_on_value_routes_under_writes() {
        let score = ReadOp::Score { hot: 0 };
        let top = ReadOp::TopK { bc: false, k: 10 };
        assert!(get_ok(200, &top, false));
        assert!(get_ok(404, &score, true));
        assert!(!get_ok(404, &score, false));
        assert!(!get_ok(404, &top, true));
        assert!(!get_ok(500, &score, true));
    }
}
