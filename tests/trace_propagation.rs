//! End-to-end tests for `dn-trace` propagation across the serving stack.
//!
//! Three suites, all over real sockets:
//!
//! * `sharded_requests_build_one_contained_span_tree` — a mutation and a
//!   top-k against a 2-shard server (threads=1 so pool work is inline and
//!   strictly sequential) must each produce a single trace whose span tree
//!   covers route → coordinator → per-shard work, with every child span
//!   contained in its parent's interval and the root's duration at least
//!   the sum of the other spans' self-times.
//! * `http_sink_deliveries_forward_the_cycle_trace_id` — an ingest-style
//!   delivery made while a local trace is active must surface on the
//!   primary's ring as an `http` trace with the *same* ID, marked
//!   forwarded: the cross-process half of "one logical trace".
//! * `follower_tail_fetches_forward_the_sync_trace_id` — a follower's
//!   `sync_once` against an HTTP primary must leave `http` traces with the
//!   `replica_sync` trace's ID (forwarded) on the primary's ring.
//!
//! The sampling gate and the trace ring are process-global, so the suites
//! serialize on a local mutex and restore the disabled state on exit.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use dn_ingest::DeltaSink;
use dn_server::api::{MutationRequest, MutationResponse, TraceListResponse, TraceResponse};
use dn_server::{serve_http, Client, HttpReplicaSource, HttpSink, Limits, Server, ServerConfig};
use dn_service::{serve_sharded, serve_sharded_durable, CheckpointPolicy, Follower, ServiceConfig};
use domainnet::Measure;
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;

static GLOBAL_TRACE_STATE: Mutex<()> = Mutex::new(());

/// Hold the global-state lock and force sampling back off on drop, so a
/// panicking suite cannot leak an enabled gate into the next one.
struct TraceStateGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl TraceStateGuard {
    fn sampling_every(n: u32) -> Self {
        let lock = GLOBAL_TRACE_STATE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        dn_trace::set_sample_every(n);
        TraceStateGuard(lock)
    }
}

impl Drop for TraceStateGuard {
    fn drop(&mut self) {
        dn_trace::set_sample_every(0);
    }
}

fn config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        measures: vec![Measure::lcc(), Measure::exact_bc()],
        prune_single_attribute_values: true,
        threads,
    }
}

fn start_server(shards: usize, threads: usize) -> Server {
    let (service, coordinator) = serve_sharded(MutableLake::new(), config(threads), shards);
    serve_http(
        service,
        coordinator,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            limits: Limits::default(),
        },
    )
    .expect("bind ephemeral port")
}

fn homograph_batch() -> String {
    let request = MutationRequest {
        deltas: vec![
            LakeDelta::new().add_table(
                TableBuilder::new("zoo")
                    .column("animal", ["Jaguar", "Okapi", "Zebra"])
                    .build()
                    .expect("build table"),
            ),
            LakeDelta::new().add_table(
                TableBuilder::new("cars")
                    .column("make", ["Jaguar", "Fiat", "Kia"])
                    .build()
                    .expect("build table"),
            ),
        ],
    };
    serde_json::to_string(&request).expect("encode mutation")
}

/// Fetch the full span tree for `id` over the wire and run the structural
/// invariants every trace must satisfy: exactly one root, every child
/// contained in its parent's interval, and the root's duration at least
/// the sum of all other spans' self-times (exact partition only holds
/// when the pool is inline, i.e. threads=1).
fn fetch_and_check_tree(client: &mut Client, id: u64) -> TraceResponse {
    let hex = dn_trace::format_trace_id(id);
    let response = client
        .get(&format!("/v1/debug/traces/{hex}"))
        .expect("trace fetch");
    assert_eq!(response.status, 200, "{}", response.body);
    let trace: TraceResponse = response.json().expect("trace json");
    assert_eq!(trace.id, hex, "endpoint answers the requested ID");

    let by_id: HashMap<u64, _> = trace.spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    let root = roots[0];
    assert_eq!(root.id, 0, "root span has ID 0");
    assert_eq!(
        root.duration_us, trace.duration_us,
        "trace duration is the root's"
    );

    let mut child_self_total = 0u64;
    for span in &trace.spans {
        assert!(span.end_us >= span.start_us, "span interval is ordered");
        assert!(span.self_us <= span.duration_us, "self-time is a share");
        if let Some(parent) = span.parent {
            let parent = by_id.get(&parent).expect("parent span exists");
            assert!(
                span.start_us >= parent.start_us && span.end_us <= parent.end_us,
                "span {}/{} [{}, {}] escapes parent {} [{}, {}]",
                span.name,
                span.label,
                span.start_us,
                span.end_us,
                parent.name,
                parent.start_us,
                parent.end_us,
            );
            child_self_total += span.self_us;
        }
    }
    assert!(
        root.duration_us >= child_self_total,
        "root {}us < sum of child self-times {}us",
        root.duration_us,
        child_self_total,
    );
    trace
}

fn span_names(trace: &TraceResponse) -> HashSet<&str> {
    trace.spans.iter().map(|s| s.name.as_str()).collect()
}

#[test]
fn sharded_requests_build_one_contained_span_tree() {
    let _guard = TraceStateGuard::sampling_every(1);
    let server = start_server(2, 1);
    let mut client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(10));

    // A sharded mutation: route → coordinator commit → per-shard apply
    // and publish, all under the ID echoed in X-Dn-Trace-Id.
    let response = client
        .post_json("/v1/mutations", &homograph_batch())
        .expect("mutation transport");
    assert_eq!(response.status, 200, "{}", response.body);
    let _: MutationResponse = response.json().expect("mutation json");
    let mutation_id = response
        .trace_id
        .expect("sampling=1 echoes a trace ID on every response");
    let tree = fetch_and_check_tree(&mut client, mutation_id);
    let names = span_names(&tree);
    for expected in ["route", "coord_commit", "shard_apply", "shard_publish"] {
        assert!(names.contains(expected), "mutation tree misses {expected}");
    }

    // A sharded top-k: route → scatter → one query span per shard → merge.
    let response = client
        .get("/v1/top-k?measure=bc&k=5")
        .expect("top-k transport");
    assert_eq!(response.status, 200, "{}", response.body);
    let topk_id = response.trace_id.expect("top-k is sampled too");
    let tree = fetch_and_check_tree(&mut client, topk_id);
    let names = span_names(&tree);
    for expected in ["route", "coord_scatter", "shard_query", "coord_merge"] {
        assert!(names.contains(expected), "top-k tree misses {expected}");
    }
    let shard_queries: HashSet<&str> = tree
        .spans
        .iter()
        .filter(|s| s.name == "shard_query")
        .map(|s| s.label.as_str())
        .collect();
    assert_eq!(
        shard_queries,
        HashSet::from(["shard0", "shard1"]),
        "both shards answered under the scatter"
    );
    assert_ne!(mutation_id, topk_id, "each request gets its own trace");

    // The list endpoint carries both summaries.
    let response = client
        .get("/v1/debug/traces?limit=100")
        .expect("list transport");
    assert_eq!(response.status, 200, "{}", response.body);
    let list: TraceListResponse = response.json().expect("list json");
    assert_eq!(list.sample_every, 1);
    for id in [mutation_id, topk_id] {
        let hex = dn_trace::format_trace_id(id);
        assert!(
            list.traces.iter().any(|t| t.id == hex),
            "recent-traces list misses {hex}"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn http_sink_deliveries_forward_the_cycle_trace_id() {
    let _guard = TraceStateGuard::sampling_every(1);
    let server = start_server(1, 1);

    // Stand in for one ingest poll cycle: while its trace is active on
    // this thread, the sink's POST forwards the ID to the primary.
    let cycle = dn_trace::start_trace("ingest_poll", None).expect("sampling=1 always traces");
    let cycle_id = cycle.id();
    let mut sink = HttpSink::with_timeout(server.local_addr(), Duration::from_secs(10));
    let delta = LakeDelta::new().add_table(
        TableBuilder::new("zoo")
            .column("animal", ["Jaguar", "Okapi"])
            .build()
            .expect("build table"),
    );
    sink.deliver(1, &[delta]).expect("delivery applied");
    drop(cycle);

    // The server shares this process's ring, so the forwarded trace is
    // directly observable: an `http` trace under the cycle's own ID.
    let forwarded: Vec<_> = dn_trace::recent_traces(dn_trace::RING_CAPACITY)
        .into_iter()
        .filter(|t| t.id == cycle_id && t.name == "http")
        .collect();
    assert_eq!(
        forwarded.len(),
        1,
        "exactly one server-side trace carries the cycle ID"
    );
    assert!(forwarded[0].forwarded, "the server marks the ID forwarded");
    assert!(
        forwarded[0].label.contains("mutations"),
        "the forwarded trace is the delivery POST, got {:?}",
        forwarded[0].label,
    );

    server.shutdown();
    server.join();
}

#[test]
fn follower_tail_fetches_forward_the_sync_trace_id() {
    let _guard = TraceStateGuard::sampling_every(1);
    let scratch = std::env::temp_dir().join(format!(
        "dn_trace_propagation_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let primary_dir = scratch.join("primary");
    let follower_dir = scratch.join("follower");
    let _ = std::fs::remove_dir_all(&scratch);

    let (service, coordinator) = serve_sharded_durable(
        MutableLake::new(),
        config(1),
        &primary_dir,
        CheckpointPolicy::manual(),
        1,
    )
    .expect("durable primary");
    let server = serve_http(
        service,
        coordinator,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            limits: Limits::default(),
        },
    )
    .expect("bind primary");
    let mut client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(10));
    let response = client
        .post_json("/v1/mutations", &homograph_batch())
        .expect("mutation transport");
    assert_eq!(response.status, 200, "{}", response.body);

    let source = HttpReplicaSource::with_timeout(server.local_addr(), Duration::from_secs(10));
    let mut follower = Follower::bootstrap(
        &follower_dir,
        config(1),
        CheckpointPolicy::manual(),
        &source,
    )
    .expect("bootstrap follower");
    follower.sync_once(&source).expect("clean sync");

    // The tail cycle's own trace is on the (shared) ring; every primary
    // fetch it made must appear as an `http` trace under the same ID.
    let traces = dn_trace::recent_traces(dn_trace::RING_CAPACITY);
    let sync = traces
        .iter()
        .find(|t| t.name == "replica_sync")
        .expect("sync_once published its trace");
    let forwarded: Vec<_> = traces
        .iter()
        .filter(|t| t.id == sync.id && t.name == "http")
        .collect();
    assert!(
        !forwarded.is_empty(),
        "no primary-side trace carries the sync ID {}",
        dn_trace::format_trace_id(sync.id),
    );
    assert!(
        forwarded.iter().all(|t| t.forwarded),
        "primary-side traces under the sync ID must be marked forwarded"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&scratch);
}
