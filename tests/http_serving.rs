//! Wire-path test for the `dn-server` HTTP layer.
//!
//! Two suites:
//!
//! * `http_readers_stay_consistent_while_a_writer_posts` — the serving
//!   stress test, now over a real socket: N concurrent client threads
//!   issue top-k / score / explain / tables requests against an ephemeral
//!   server while one writer thread POSTs seeded mutation batches. Every
//!   response is checked for internal epoch consistency, per-client epoch
//!   monotonicity, and ranking order; afterwards the final `GET /v1/top-k`
//!   must agree with a from-scratch build of the final lake to 1e-9 (the
//!   slack covers the fresh build's different node layout, not drift).
//! * `malformed_requests_answer_their_documented_status` — each abuse case
//!   (bad JSON, unknown route, wrong method, oversized body, truncated
//!   request, bad request line, chunked encoding, bad parameters) must
//!   yield exactly its documented status code *and leave the worker
//!   alive*, proven by a successful `/healthz` after every case.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datagen::mutate::{MutationConfig, MutationStream};
use datagen::sb::{SbConfig, SbGenerator};
use dn_server::api::{
    ExplainResponse, HealthResponse, MutationRequest, MutationResponse, ScoreResponse,
    TablesResponse, TopKResponse,
};
use dn_server::{percent_encode, serve_http, Client, Limits, Server, ServerConfig};
use dn_service::{serve_sharded, ServiceConfig};
use domainnet::{DomainNetBuilder, Measure};
use lake::delta::MutableLake;

const CLIENTS: usize = 4;
const BATCHES: usize = 12;
const DELTAS_PER_BATCH: usize = 2;

fn measures() -> Vec<Measure> {
    vec![Measure::lcc(), Measure::exact_bc()]
}

fn start_server(lake: MutableLake) -> Server {
    start_sharded_server(lake, 1)
}

fn start_sharded_server(lake: MutableLake, shards: usize) -> Server {
    let (service, coordinator) = serve_sharded(
        lake,
        ServiceConfig {
            measures: measures(),
            cache_capacity: 32,
            prune_single_attribute_values: true,
            threads: 1,
        },
        shards,
    );
    serve_http(
        service,
        coordinator,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            limits: Limits {
                max_head_bytes: 8 << 10,
                max_body_bytes: 64 << 10,
                read_timeout: Duration::from_secs(2),
            },
        },
    )
    .expect("bind ephemeral port")
}

/// One query-side client thread: mixed requests, asserting per-response
/// internal consistency and that observed epochs never move backwards.
fn client_loop(addr: SocketAddr, seed: u64, stop: Arc<AtomicBool>) -> u64 {
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let mut last_epoch = 0u64;
    let mut requests = 0u64;
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    while !stop.load(Ordering::Relaxed) {
        let epoch = match next() % 4 {
            0 => {
                let (measure, higher_first) = if next() % 2 == 0 {
                    ("bc", true)
                } else {
                    ("lcc", false)
                };
                let k = 5 + (next() % 20) as usize;
                let response = client
                    .get(&format!("/v1/top-k?measure={measure}&k={k}"))
                    .expect("top-k transport");
                assert_eq!(response.status, 200, "{}", response.body);
                let top: TopKResponse = response.json().expect("top-k json");
                assert!(top.results.len() <= k);
                for pair in top.results.windows(2) {
                    let ordered = if higher_first {
                        pair[0].score >= pair[1].score
                    } else {
                        pair[0].score <= pair[1].score
                    };
                    assert!(ordered, "{measure} ranking out of order");
                }
                // Same response, same epoch: the head of the ranking must
                // agree with a score card *from the same pinned snapshot*
                // semantics — verified via a follow-up request only when
                // the epoch did not advance in between.
                if let Some(head) = top.results.first() {
                    let card = client
                        .get(&format!("/v1/score/{}?k=1", percent_encode(&head.value)))
                        .expect("score transport");
                    // 404 is legal here: a mutation published after the
                    // top-k answer may have removed the value entirely.
                    assert!(card.status == 200 || card.status == 404, "{}", card.body);
                    if card.status == 200 {
                        let card: ScoreResponse = card.json().expect("score json");
                        if card.epoch == top.epoch {
                            let matching = card
                                .cards
                                .iter()
                                .find(|c| c.measure.name() == top.measure)
                                .expect("served measure has a card");
                            assert_eq!(matching.rank, 1, "top-1 must rank first");
                            assert_eq!(
                                matching.score.to_bits(),
                                head.score.to_bits(),
                                "same epoch, same value, same bits"
                            );
                        }
                        assert!(card.epoch >= top.epoch, "epochs move forward");
                    }
                }
                top.epoch
            }
            1 => {
                let response = client.get("/v1/tables").expect("tables transport");
                assert_eq!(response.status, 200);
                let tables: TablesResponse = response.json().expect("tables json");
                assert!(!tables.tables.is_empty(), "SB lake always has tables");
                tables.epoch
            }
            2 => {
                // Explain whatever currently tops BC (always a live value).
                let response = client
                    .get("/v1/top-k?measure=bc&k=1")
                    .expect("top-k transport");
                let top: TopKResponse = response.json().expect("top-k json");
                if let Some(head) = top.results.first() {
                    let response = client
                        .get(&format!("/v1/explain/{}", percent_encode(&head.value)))
                        .expect("explain transport");
                    // As above, the value may be gone by the time the
                    // explain request pins a newer epoch.
                    assert!(
                        response.status == 200 || response.status == 404,
                        "{}",
                        response.body
                    );
                    if response.status == 200 {
                        let explain: ExplainResponse = response.json().expect("explain json");
                        assert_eq!(explain.explanation.value, head.value);
                        assert_eq!(
                            explain.explanation.attribute_count,
                            explain.explanation.attributes.len()
                        );
                        assert!(explain.epoch >= top.epoch);
                    }
                }
                top.epoch
            }
            _ => {
                let response = client.get("/healthz").expect("healthz transport");
                assert_eq!(response.status, 200);
                let health: HealthResponse = response.json().expect("healthz json");
                health.epoch
            }
        };
        assert!(
            epoch >= last_epoch,
            "epoch went backwards over the wire: {last_epoch} -> {epoch}"
        );
        last_epoch = epoch;
        requests += 1;
    }
    requests
}

#[test]
fn http_readers_stay_consistent_while_a_writer_posts() {
    let base = SbGenerator::with_config(SbConfig {
        seed: 2021,
        rows_per_table: 30,
    })
    .generate();
    let lake = MutableLake::from_catalog(&base.catalog);
    let server = start_server(lake.clone());
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(addr, 1 + i as u64, stop))
        })
        .collect();

    // The writer client: seeded mutation batches over POST /v1/mutations,
    // mirrored into a shadow lake for the final from-scratch comparison.
    let mut shadow = lake;
    let mut writer_client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let mut stream = MutationStream::new(MutationConfig {
        seed: 77,
        tables_per_delta: 1,
        rows_per_table: 15,
        ..MutationConfig::default()
    });
    let mut last_published = 0u64;
    for _ in 0..BATCHES {
        let mut deltas = Vec::with_capacity(DELTAS_PER_BATCH);
        for _ in 0..DELTAS_PER_BATCH {
            let delta = stream.next_delta(&shadow);
            shadow.apply(&delta).expect("stream deltas apply to shadow");
            deltas.push(delta);
        }
        let body = serde_json::to_string(&MutationRequest { deltas }).unwrap();
        let response = writer_client
            .post_json("/v1/mutations", &body)
            .expect("mutation transport");
        assert_eq!(response.status, 200, "{}", response.body);
        let published: MutationResponse = response.json().expect("mutation json");
        assert!(
            published.epoch > last_published,
            "every batch publishes a fresh epoch"
        );
        last_published = published.epoch;
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_requests = 0;
    for handle in clients {
        total_requests += handle.join().expect("client thread panicked");
    }
    assert!(
        total_requests >= CLIENTS as u64,
        "every client completed at least one request"
    );
    assert_eq!(last_published, BATCHES as u64);

    // Final equivalence: the served ranking over HTTP vs a from-scratch
    // build of the shadow lake, per value to 1e-9 (node layout can differ,
    // so ties may reorder; compare scores by value like the stress test).
    let fresh = DomainNetBuilder::new().build(&shadow);
    let mut verify_client = Client::new(addr);
    for (param, measure) in [("lcc", Measure::lcc()), ("bc", Measure::exact_bc())] {
        let response = verify_client
            .get(&format!("/v1/top-k?measure={param}&k=100000"))
            .expect("final top-k transport");
        assert_eq!(response.status, 200);
        let served: TopKResponse = response.json().expect("final top-k json");
        assert_eq!(served.epoch, last_published, "no further epochs appeared");
        let rebuilt = fresh.rank_shared(measure);
        assert_eq!(
            served.results.len(),
            rebuilt.len(),
            "{measure:?}: candidate counts diverged"
        );
        let by_value: std::collections::HashMap<&str, &domainnet::ScoredValue> =
            rebuilt.iter().map(|s| (s.value.as_str(), s)).collect();
        for s in &served.results {
            let r = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{measure:?}: {} missing from rebuild", s.value));
            assert!(
                (s.score - r.score).abs() < 1e-9,
                "{measure:?}: {} scored {} over HTTP vs {} rebuilt",
                s.value,
                s.score,
                r.score
            );
            assert_eq!(s.attribute_count, r.attribute_count, "{}", s.value);
            assert_eq!(s.cardinality, r.cardinality, "{}", s.value);
        }
    }

    // /metrics reflects the load that just ran.
    let metrics = verify_client.get("/metrics").expect("metrics transport");
    assert_eq!(metrics.status, 200);
    assert!(metrics.content_type.starts_with("text/plain"));
    assert!(metrics
        .body
        .contains("dn_http_requests_total{route=\"top_k\",class=\"2xx\"}"));
    assert!(metrics
        .body
        .contains("dn_http_requests_total{route=\"mutations\",class=\"2xx\"}"));
    assert!(metrics
        .body
        .contains(&format!("dn_server_epoch {last_published}")));
    assert!(metrics
        .body
        .contains("dn_http_request_duration_us_count{route=\"top_k\"}"));

    server.shutdown();
    let _coordinator = server.join();
}

#[test]
fn sharded_server_serves_merged_rankings_on_the_same_wire() {
    let base = SbGenerator::with_config(SbConfig {
        seed: 909,
        rows_per_table: 20,
    })
    .generate();
    let lake = MutableLake::from_catalog(&base.catalog);
    let server = start_sharded_server(lake.clone(), 2);
    let addr = server.local_addr();

    // Mutations over the same wire route through the coordinator.
    let mut shadow = lake;
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let mut stream = MutationStream::new(MutationConfig {
        seed: 31,
        tables_per_delta: 1,
        rows_per_table: 10,
        ..MutationConfig::default()
    });
    let mut last_epoch = 0u64;
    for _ in 0..6 {
        let delta = stream.next_delta(&shadow);
        shadow.apply(&delta).expect("stream deltas apply to shadow");
        let body = serde_json::to_string(&MutationRequest {
            deltas: vec![delta],
        })
        .unwrap();
        let response = client
            .post_json("/v1/mutations", &body)
            .expect("mutation transport");
        assert_eq!(response.status, 200, "{}", response.body);
        let published: MutationResponse = response.json().expect("mutation json");
        assert!(
            published.epoch > last_epoch,
            "coordinator epoch stays monotone across shards"
        );
        last_epoch = published.epoch;
    }

    // The merged ranking is indistinguishable from a from-scratch
    // single-engine build of the same lake (per value, to 1e-9).
    let fresh = DomainNetBuilder::new().build(&shadow);
    for (param, measure) in [("lcc", Measure::lcc()), ("bc", Measure::exact_bc())] {
        let response = client
            .get(&format!("/v1/top-k?measure={param}&k=100000"))
            .expect("top-k transport");
        assert_eq!(response.status, 200);
        let served: TopKResponse = response.json().expect("top-k json");
        assert_eq!(served.epoch, last_epoch);
        let rebuilt = fresh.rank_shared(measure);
        assert_eq!(served.results.len(), rebuilt.len(), "{measure:?}");
        let by_value: std::collections::HashMap<&str, &domainnet::ScoredValue> =
            rebuilt.iter().map(|s| (s.value.as_str(), s)).collect();
        for s in &served.results {
            let r = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{measure:?}: {} missing from rebuild", s.value));
            assert!(
                (s.score - r.score).abs() < 1e-9,
                "{measure:?}: {} scored {} sharded vs {} rebuilt",
                s.value,
                s.score,
                r.score
            );
        }
    }

    // A score card carries the *global* rank: the head of the merged
    // LCC ranking must report rank 1 even though it lives on one shard.
    let head = client
        .get("/v1/top-k?measure=lcc&k=1")
        .expect("head transport");
    let head: TopKResponse = head.json().expect("head json");
    let top_value = head.results[0].value.clone();
    let card = client
        .get(&format!("/v1/score/{}", percent_encode(&top_value)))
        .expect("score transport");
    assert_eq!(card.status, 200, "{}", card.body);
    let card: ScoreResponse = card.json().expect("score json");
    let lcc_card = card
        .cards
        .iter()
        .find(|c| c.measure == Measure::lcc())
        .expect("lcc card present");
    assert_eq!(lcc_card.rank, 1, "global rank of the merged head");

    // /metrics exposes the per-shard gauge families.
    let metrics = client.get("/metrics").expect("metrics transport");
    assert!(metrics.body.contains("dn_shard_epoch{shard=\"0\"}"));
    assert!(metrics.body.contains("dn_shard_epoch{shard=\"1\"}"));

    server.shutdown();
    server.join();
}

/// Send raw bytes, optionally half-close, and read whatever comes back.
fn raw_roundtrip(addr: SocketAddr, payload: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("write");
    stream.flush().unwrap();
    if half_close {
        // Best-effort: the server may already have answered and closed
        // (e.g. a 400 for a garbage request line), which can surface as
        // ENOTCONN here — that's fine, the EOF signal is moot then.
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut buf = String::new();
    let _ = stream.read_to_string(&mut buf);
    buf
}

fn status_of(raw: &str) -> Option<u16> {
    raw.split(' ').nth(1)?.parse().ok()
}

/// The value of one series (`name{labels}`) in a `/metrics` exposition;
/// 0 when the series is absent.
fn sample(exposition: &str, series: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

#[test]
fn malformed_requests_answer_their_documented_status() {
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let server = start_server(lake);
    let addr = server.local_addr();
    let mut health_probe = Client::new(addr).with_timeout(Duration::from_secs(10));
    let mut assert_workers_alive = |context: &str| {
        let health = health_probe.get("/healthz").expect("healthz transport");
        assert_eq!(health.status, 200, "worker died after: {context}");
    };

    // Unknown route → 404.
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let response = client.get("/no/such/route").unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    assert!(response.body.contains("not_found"));
    assert_workers_alive("unknown route");

    // Wrong method on a known route → 405.
    let response = client.post_json("/v1/top-k", "{}").unwrap();
    assert_eq!(response.status, 405, "{}", response.body);
    assert_workers_alive("wrong method");

    // Bad JSON body → 400.
    let response = client.post_json("/v1/mutations", "{not json").unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("bad_request"));
    assert_workers_alive("bad JSON");

    // Structurally valid JSON, wrong schema → 400.
    let response = client.post_json("/v1/mutations", "{\"nope\": 1}").unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert_workers_alive("wrong schema");

    // Empty batch → 400.
    let response = client
        .post_json("/v1/mutations", "{\"deltas\": []}")
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert_workers_alive("empty batch");

    // Decodable but structurally impossible table (dictionary index out
    // of range) → 400 from the validate_encoding re-check, not a panic
    // inside the engine.
    let impossible = concat!(
        "{\"deltas\":[{\"ops\":[{\"AddTable\":{\"name\":\"bad\",\"columns\":",
        "[{\"name\":\"c\",\"dictionary\":[\"A\"],\"indices\":[0,5],",
        "\"distinct\":[\"A\"]}]}}]}]}"
    );
    let response = client.post_json("/v1/mutations", impossible).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("invalid table payload"));
    assert_workers_alive("impossible table encoding");

    // Unknown measure token → 400; recognized but unserved → 404.
    let response = client.get("/v1/top-k?measure=pagerank").unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    let response = client.get("/v1/top-k?measure=approx_bc").unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    // Garbage k → 400.
    let response = client.get("/v1/top-k?measure=bc&k=lots").unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert_workers_alive("bad parameters");

    // Unknown value / table → 404.
    let response = client.get("/v1/score/zzz-no-such-value").unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    let response = client.get("/v1/explain/zzz-no-such-value").unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    let response = client.get("/v1/tables/zzz-no-such-table").unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    assert_workers_alive("unknown entities");

    // Checkpoint on a non-durable server → 409.
    let response = client.post_json("/v1/admin/checkpoint", "").unwrap();
    assert_eq!(response.status, 409, "{}", response.body);
    assert!(response.body.contains("conflict"));
    assert_workers_alive("non-durable checkpoint");

    // From here on the requests are refused before they parse: nothing
    // was dispatched and nothing was timed, so they may only move the
    // status-class counters of route="other" — never its latency
    // histogram (which so far holds the one timed 404 above).
    let before = client.get("/metrics").unwrap().body;
    let timed_other = sample(
        &before,
        "dn_http_request_duration_us_count{route=\"other\"}",
    );
    assert_eq!(timed_other, 1, "{before}");

    // Oversized body (Content-Length over the limit) → 413, without the
    // server reading the megabytes that were never sent.
    let raw = raw_roundtrip(
        addr,
        b"POST /v1/mutations HTTP/1.1\r\nHost: x\r\nContent-Length: 10485760\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&raw), Some(413), "{raw}");
    assert_workers_alive("oversized body");

    // Truncated request: fewer bytes than Content-Length, then EOF → 400.
    let raw = raw_roundtrip(
        addr,
        b"POST /v1/mutations HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{\"del",
        true,
    );
    assert_eq!(status_of(&raw), Some(400), "{raw}");
    assert_workers_alive("truncated body");

    // Garbage request line → 400.
    let raw = raw_roundtrip(addr, b"GARBAGE\r\n\r\n", true);
    assert_eq!(status_of(&raw), Some(400), "{raw}");
    assert_workers_alive("garbage request line");

    // Oversized head → 431.
    let mut huge_head = Vec::from(&b"GET /healthz HTTP/1.1\r\nHost: x\r\n"[..]);
    huge_head.extend(std::iter::repeat(b'a').take(16 << 10));
    let raw = raw_roundtrip(addr, &huge_head, true);
    assert_eq!(status_of(&raw), Some(431), "{raw}");
    assert_workers_alive("oversized head");

    // Chunked transfer encoding → 501.
    let raw = raw_roundtrip(
        addr,
        b"POST /v1/mutations HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        true,
    );
    assert_eq!(status_of(&raw), Some(501), "{raw}");
    assert_workers_alive("chunked encoding");

    // A bare connect-and-close must not kill anything either.
    drop(TcpStream::connect(addr).expect("connect"));
    assert_workers_alive("connect-and-close");

    // The refused traffic (413, 400, 400, 431 and the 501) landed in the
    // status-class counters and left the latency histogram alone.
    let after = client.get("/metrics").unwrap().body;
    let moved = |series: &str| sample(&after, series) - sample(&before, series);
    assert_eq!(
        moved("dn_http_requests_total{route=\"other\",class=\"4xx\"}"),
        4,
        "{after}"
    );
    assert_eq!(
        moved("dn_http_requests_total{route=\"other\",class=\"5xx\"}"),
        1,
        "{after}"
    );
    assert_eq!(
        sample(&after, "dn_http_request_duration_us_count{route=\"other\"}"),
        timed_other,
        "an unparsed request is not a 0 us latency sample\n{after}"
    );

    server.shutdown();
    server.join();
}

/// `/metrics` reads the store gauges the shards publish, never the
/// writer: with the coordinator mutex held (as it is for the whole of
/// every commit), a scrape still answers and still carries the WAL and
/// snapshot families at their last committed values.
#[test]
fn a_scrape_never_waits_for_the_writer() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_http_scrape_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let (service, coordinator) = dn_service::serve_sharded_durable(
        lake,
        ServiceConfig {
            measures: measures(),
            ..ServiceConfig::default()
        },
        &dir,
        dn_service::CheckpointPolicy::manual(),
        2,
    )
    .expect("fresh sharded store");
    let coordinator = Arc::new(std::sync::Mutex::new(coordinator));
    let server = dn_server::serve_http_ingest(
        service,
        Arc::clone(&coordinator),
        ServerConfig::default(),
        dn_server::IngestContext {
            shared: Arc::new(dn_ingest::IngestStats::new()),
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(10));

    let delta = lake::LakeDelta::new().add_table(
        lake::table::TableBuilder::new("extra")
            .column("animal", ["Jaguar", "Okapi"])
            .build()
            .unwrap(),
    );
    let body = serde_json::to_string(&MutationRequest {
        deltas: vec![delta],
    })
    .unwrap();
    let committed = client.post_json("/v1/mutations", &body).unwrap();
    assert_eq!(committed.status, 200, "{}", committed.body);

    let writer = coordinator.lock().expect("coordinator lock");
    let (total, shard0) = (
        writer.wal_record_bytes(),
        writer.shard(0).wal_record_bytes(),
    );
    assert!(total > 0, "the commit was logged");
    let scrape = client
        .get("/metrics")
        .expect("scrape while the writer is held");
    assert_eq!(scrape.status, 200);
    for (series, expected) in [
        ("dn_wal_record_bytes", total),
        ("dn_shard_wal_record_bytes{shard=\"0\"}", shard0),
        ("dn_store_snapshots", 2),
        ("dn_shard_store_snapshots{shard=\"1\"}", 1),
    ] {
        assert!(
            scrape.body.contains(&format!("{series} {expected}\n")),
            "{series} {expected} missing from a contended scrape\n{}",
            scrape.body
        );
    }
    drop(writer);

    server.shutdown();
    drop(coordinator);
    server.join();
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

#[test]
fn shutdown_drains_and_join_returns_the_coordinator() {
    let lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let server = start_server(lake);
    let addr = server.local_addr();

    // Shut down over HTTP like an operator would.
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let response = client.post_json("/v1/admin/shutdown", "").unwrap();
    assert_eq!(response.status, 200);
    assert!(server.is_shutting_down());

    let coordinator = server.join();
    assert_eq!(coordinator.epoch(), 0, "no mutations were posted");
    // New connections are refused or closed without an answer now.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut stream) = refused {
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let mut buf = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.is_empty(), "drained server answered: {buf}");
    }
}
