//! Divergence insurance for WAL-shipping replication: every injected
//! corruption must be *detected* — a diverged follower never serves a
//! ranking.
//!
//! Two suites:
//!
//! * `in_flight_corruption_is_caught_within_one_exchange` — a byte of one
//!   replicated batch is flipped after the CRC was stripped (the window
//!   the WAL checksum cannot cover): the follower applies it silently,
//!   and the insurance digest must flag the mismatch in the *same* sync
//!   pass, increment `dn_replica_divergence_total`, latch the halt, and
//!   turn every follower read into a typed `503 replica_diverged` over
//!   HTTP — while `/healthz` and `/metrics` stay reachable for operators.
//! * `on_disk_corruption_is_caught_on_the_first_exchange_after_restart` —
//!   one record in a stopped follower's shard WAL is rewritten with a
//!   recomputed CRC (checksum-valid, content-wrong — e.g. silent media
//!   corruption): local recovery replays the lie without complaint, and
//!   the first digest exchange after restart must catch it.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dn_server::{serve_http_follower, Client, ReplicaContext, ServerConfig};
use dn_service::{
    serve_sharded_durable, CheckpointPolicy, Follower, LocalReplicaSource, ReplicaError,
    ReplicaSource, ServiceConfig, WalFetch,
};
use domainnet::Measure;
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;

const SHARDS: usize = 2;

fn config() -> ServiceConfig {
    ServiceConfig {
        measures: vec![Measure::lcc(), Measure::exact_bc()],
        prune_single_attribute_values: true,
        threads: 1,
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_replica_div_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn multi_component_base() -> MutableLake {
    let mut lake = MutableLake::new();
    lake.apply(
        &LakeDelta::new()
            .add_table(table("zoo", "animal", &["Jaguar", "Okapi", "Zebra"]))
            .add_table(table("cars", "make", &["Jaguar", "Fiat", "Kia"]))
            .add_table(table("fx", "code", &["USD", "EUR", "JPY"]))
            .add_table(table("cities", "city", &["Memphis", "Sydney", "Austin"])),
    )
    .expect("base lake applies");
    lake
}

fn table(name: &str, column: &str, cells: &[&str]) -> lake::Table {
    TableBuilder::new(name)
        .column(column, cells.iter().copied())
        .build()
        .expect("rectangular by construction")
}

/// Stand up a durable primary + caught-up follower pair under `root`.
fn primary_and_follower(
    root: &Path,
) -> (
    dn_service::CoordinatorHandle,
    Arc<Mutex<dn_service::Coordinator>>,
    LocalReplicaSource,
    Follower,
) {
    let (handle, coordinator) = serve_sharded_durable(
        multi_component_base(),
        config(),
        root.join("primary"),
        CheckpointPolicy::manual(),
        SHARDS,
    )
    .expect("fresh sharded primary");
    let primary = Arc::new(Mutex::new(coordinator));
    let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));
    let mut follower = Follower::bootstrap(
        root.join("follower"),
        config(),
        CheckpointPolicy::manual(),
        &source,
    )
    .expect("follower bootstraps");
    let report = follower.sync_once(&source).expect("clean initial sync");
    assert_eq!(report.lag_epochs, 0);
    (handle, primary, source, follower)
}

/// Forwards to the inner source, but flips a byte in the first replicated
/// batch whose payload mentions the marker — *after* the transport layer
/// would have stripped and verified the CRC, which is exactly the window
/// the WAL checksum cannot cover.
struct CorruptingSource<'a> {
    inner: &'a LocalReplicaSource,
    corrupted: Cell<bool>,
}

impl ReplicaSource for CorruptingSource<'_> {
    fn fetch_status(&self) -> Result<dn_service::PrimaryStatus, ReplicaError> {
        self.inner.fetch_status()
    }

    fn fetch_snapshot(&self, shard: usize) -> Result<(u64, Vec<u8>), ReplicaError> {
        self.inner.fetch_snapshot(shard)
    }

    fn fetch_wal(&self, shard: usize, from_seq: u64) -> Result<WalFetch, ReplicaError> {
        match self.inner.fetch_wal(shard, from_seq)? {
            WalFetch::Records(mut records) => {
                if !self.corrupted.get() {
                    for record in &mut records {
                        let text = serde_json::to_string(&record.batch).expect("batch serializes");
                        if text.contains("Jaguar") {
                            // Both the raw dictionary entry and its cached
                            // normalized form: the lie has to be
                            // *self-consistent* to model the dangerous case
                            // — corruption that yields a valid batch with
                            // wrong content, which no apply-time validation
                            // can reject.
                            let tampered =
                                text.replace("Jaguar", "Jaguaq").replace("JAGUAR", "JAGUAQ");
                            record.batch = serde_json::from_str(&tampered)
                                .expect("tampered batch still decodes");
                            self.corrupted.set(true);
                            break;
                        }
                    }
                }
                Ok(WalFetch::Records(records))
            }
            other => Ok(other),
        }
    }
}

#[test]
fn in_flight_corruption_is_caught_within_one_exchange() {
    let root = test_dir("inflight");
    let (_handle, primary, source, mut follower) = primary_and_follower(&root);

    primary
        .lock()
        .unwrap()
        .apply_and_publish(LakeDelta::new().add_table(table(
            "marked",
            "animal",
            &["Jaguar", "Puma"],
        )))
        .expect("primary applies");

    let corrupting = CorruptingSource {
        inner: &source,
        corrupted: Cell::new(false),
    };
    let err = follower
        .sync_once(&corrupting)
        .expect_err("the tampered batch must not pass the digest exchange");
    assert!(corrupting.corrupted.get(), "the fault actually injected");
    let reason = match err {
        ReplicaError::Diverged(reason) => reason,
        other => panic!("expected Diverged, got: {other}"),
    };
    assert!(
        reason.contains("digest mismatch"),
        "the reason names the failed exchange: {reason}"
    );
    assert_eq!(follower.shared().divergence_total.get(), 1);
    assert_eq!(
        follower.shared().halted().as_deref(),
        Some(reason.as_str()),
        "the first divergence latches the halt"
    );

    // Even against a now-clean source the follower refuses to resume —
    // its local state is wrong and only an operator can rebuild it.
    let refused = follower
        .sync_once(&source)
        .expect_err("a halted follower must not sync again");
    assert!(matches!(refused, ReplicaError::Diverged(_)));
    assert_eq!(
        follower.shared().divergence_total.get(),
        1,
        "refusing to resume is not a second divergence"
    );

    // Over HTTP the halt is a *typed* refusal on every data route, while
    // health, metrics, and the write-redirect envelope keep working.
    let server = serve_http_follower(
        follower.handle(),
        follower.coordinator(),
        ServerConfig::default(),
        ReplicaContext {
            primary_url: "http://127.0.0.1:9".into(),
            shared: follower.shared(),
        },
    )
    .expect("follower server binds");
    let mut client = Client::new(server.local_addr());

    let read = client.get("/v1/top-k?measure=bc&k=3").expect("wire ok");
    assert_eq!(
        read.status, 503,
        "a diverged follower never serves a ranking"
    );
    assert!(
        read.body.contains("replica_diverged"),
        "typed error kind, got: {}",
        read.body
    );
    let stats = client.get("/v1/tables").expect("wire ok");
    assert_eq!(
        stats.status, 503,
        "every data route is gated, not just top-k"
    );

    let write = client.post_json("/v1/mutations", "{}").expect("wire ok");
    assert_eq!(
        write.status, 403,
        "writes redirect regardless of halt state"
    );
    assert!(write.body.contains("read_only_follower"));

    let health = client.get("/healthz").expect("wire ok");
    assert_eq!(health.status, 200, "operators can still observe the halt");
    let metrics = client.get("/metrics").expect("wire ok");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("dn_replica_divergence_total 1"),
        "the counter is exported: {}",
        metrics
            .body
            .lines()
            .filter(|l| l.contains("replica"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    server.shutdown();
    server.join_follower();
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

// The WAL file layout, from `crates/store/src/wal.rs`:
// `DNWAL001` + version u32, then per record
// seq u64 | epoch u64 | payload_len u32 | crc32(seq ‖ epoch ‖ payload) u32 | payload.
const WAL_FILE_HEADER_LEN: usize = 8 + 4;
const WAL_RECORD_HEADER_LEN: usize = 8 + 8 + 4 + 4;

/// Rewrite the first on-disk WAL record (across all of `shards`) whose
/// payload matches the first substitution, applying every `(needle,
/// replacement)` pair in place and recomputing the record CRC — a
/// checksum-valid, self-consistent lie, like silent media corruption that
/// happens to land on content bytes. The substitutions must cover every
/// serialized form of the value (raw dictionary entry *and* its cached
/// normalized distinct), or apply-time validation rejects the record
/// instead of replaying it.
fn corrupt_one_record_on_disk(root: &Path, shards: usize, subs: &[(&[u8], &[u8])]) -> bool {
    for (needle, replacement) in subs {
        assert_eq!(needle.len(), replacement.len(), "in-place substitution");
    }
    for shard in 0..shards {
        let path = dn_store::shard_dir(root, shard).join("wal.dnlog");
        let mut bytes = std::fs::read(&path).expect("follower shard WAL");
        let mut pos = WAL_FILE_HEADER_LEN;
        while pos + WAL_RECORD_HEADER_LEN <= bytes.len() {
            let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            let epoch = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().unwrap()) as usize;
            let start = pos + WAL_RECORD_HEADER_LEN;
            if start + len > bytes.len() {
                break;
            }
            let payload = &mut bytes[start..start + len];
            let marker = subs[0].0;
            if payload.windows(marker.len()).any(|w| w == marker) {
                for (needle, replacement) in subs {
                    let mut offset = 0;
                    while offset + needle.len() <= payload.len() {
                        if &payload[offset..offset + needle.len()] == *needle {
                            payload[offset..offset + needle.len()].copy_from_slice(replacement);
                            offset += needle.len();
                        } else {
                            offset += 1;
                        }
                    }
                }
                let mut checked = Vec::with_capacity(16 + len);
                checked.extend_from_slice(&seq.to_le_bytes());
                checked.extend_from_slice(&epoch.to_le_bytes());
                checked.extend_from_slice(&bytes[start..start + len]);
                let crc = dn_store::codec::crc32(&checked);
                bytes[pos + 20..pos + 24].copy_from_slice(&crc.to_le_bytes());
                std::fs::write(&path, &bytes).expect("rewrite follower WAL");
                return true;
            }
            pos = start + len;
        }
    }
    false
}

#[test]
fn on_disk_corruption_is_caught_on_the_first_exchange_after_restart() {
    let root = test_dir("ondisk");
    let (_handle, primary, source, mut follower) = primary_and_follower(&root);

    // Replicate a marked record so the follower's local WAL holds it,
    // then stop the follower cleanly short of a checkpoint — the record
    // stays in the log, where recovery will trust it.
    primary
        .lock()
        .unwrap()
        .apply_and_publish(LakeDelta::new().add_table(table(
            "marked",
            "animal",
            &["Jaguar", "Puma"],
        )))
        .expect("primary applies");
    follower
        .sync_once(&source)
        .expect("follower replicates the record");
    assert_eq!(follower.shared().divergence_total.get(), 0);
    let follower_dir = follower.root().to_path_buf();
    drop(follower);

    assert!(
        corrupt_one_record_on_disk(
            &follower_dir,
            SHARDS,
            &[(b"Jaguar", b"Jaguaq"), (b"JAGUAR", b"JAGUAQ")],
        ),
        "the marked record must exist in some shard's WAL"
    );

    // Local recovery replays the checksum-valid lie without complaint...
    let mut follower =
        Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
            .expect("recovery cannot see through a valid CRC");

    // ...and the very first insurance exchange catches it.
    let err = follower
        .sync_once(&source)
        .expect_err("the first digest exchange must flag the corrupted shard");
    assert!(
        matches!(&err, ReplicaError::Diverged(reason) if reason.contains("digest mismatch")),
        "expected a digest-mismatch divergence, got: {err}"
    );
    assert_eq!(follower.shared().divergence_total.get(), 1);
    assert!(follower.shared().halted().is_some());

    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}
