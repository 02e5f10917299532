//! Fault injection for WAL-shipping replication (`dn_service::replica`).
//!
//! Two suites:
//!
//! * `primary_killed_at_ten_seeded_points_follower_reconverges` — the
//!   acceptance scenario: a durable sharded primary under seeded mutation
//!   traffic is killed (dropped without a final checkpoint) at ten
//!   different points while a follower is mid-tail, restarted via
//!   `serve_sharded_from_dir`, and mutated further. The follower must
//!   reconnect, drain the suffix, and converge — bit-exact (`to_bits`)
//!   against the primary's merged rankings, exact on per-shard identity
//!   counts (nodes, edges, candidates, components), and within 1e-9 of a
//!   from-scratch build of the same lake — with zero divergences counted.
//! * `follower_killed_mid_apply_resumes_from_its_own_seq` — the follower
//!   side: a fault-injecting source cuts the link *between* per-shard WAL
//!   fetches, so the follower dies with one shard's records applied and
//!   the other's not. Re-bootstrapping over the same directory must
//!   recover locally (no snapshot re-download), resume from exactly the
//!   per-shard sequence numbers the WAL holds, and apply precisely the
//!   missed suffix — not the whole log.
//!
//! Both suites use the in-process `LocalReplicaSource`: the faults under
//! test are process deaths and stream cuts, which sockets would only make
//! nondeterministic. The HTTP transport is covered by `http_serving.rs`
//! and the replica probe of `dn_serve_process.rs`.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use datagen::mutate::{MutationConfig, MutationStream};
use dn_service::{
    serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Coordinator, Follower,
    LocalReplicaSource, MultiView, ReplicaError, ReplicaSource, ServiceConfig, WalFetch,
};
use domainnet::{DomainNetBuilder, Measure};
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;

const SHARDS: usize = 2;
const KILL_POINTS: usize = 10;

/// Both measures exact, so cross-engine agreement can be asserted to raw
/// score bits (no estimation slack).
fn measures() -> Vec<Measure> {
    vec![Measure::lcc(), Measure::exact_bc()]
}

fn config() -> ServiceConfig {
    ServiceConfig {
        measures: measures(),
        prune_single_attribute_values: true,
        threads: 1,
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_replica_fault_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A base lake with disjoint value islands so the partitioner has real
/// components to spread across shards.
fn multi_component_base() -> MutableLake {
    let mut lake = MutableLake::new();
    lake.apply(
        &LakeDelta::new()
            .add_table(table("zoo", "animal", &["Jaguar", "Okapi", "Zebra"]))
            .add_table(table("cars", "make", &["Jaguar", "Fiat", "Kia"]))
            .add_table(table("fx", "code", &["USD", "EUR", "JPY"]))
            .add_table(table("prices", "currency", &["USD", "EUR", "GBP"]))
            .add_table(table("cities", "city", &["Memphis", "Sydney", "Austin"]))
            .add_table(table("routes", "dest", &["Sydney", "Phoenix", "Lima"])),
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

/// Bit-exact agreement between two live engines: merged rankings compared
/// entry by entry on `to_bits`, per-shard identity counts compared exactly
/// (epoch and generation excluded — the generation counts internal
/// rebuilds, which legitimately differ across a snapshot bootstrap).
fn assert_bit_exact(label: &str, primary: &MultiView, follower: &MultiView) {
    assert_eq!(
        primary.shard_count(),
        follower.shard_count(),
        "{label}: shard counts"
    );
    for shard in 0..primary.shard_count() {
        let (p, f) = (primary.shard(shard).stats(), follower.shard(shard).stats());
        assert_eq!(
            p.value_nodes, f.value_nodes,
            "{label} shard {shard}: value nodes"
        );
        assert_eq!(
            p.attribute_nodes, f.attribute_nodes,
            "{label} shard {shard}: attribute nodes"
        );
        assert_eq!(p.edge_count, f.edge_count, "{label} shard {shard}: edges");
        assert_eq!(
            p.live_candidates, f.live_candidates,
            "{label} shard {shard}: candidates"
        );
        assert_eq!(
            p.component_count, f.component_count,
            "{label} shard {shard}: components"
        );
    }
    for measure in measures() {
        let merged_p = primary.top_k(measure, usize::MAX).expect("served measure");
        let merged_f = follower.top_k(measure, usize::MAX).expect("served measure");
        assert_eq!(
            merged_p.len(),
            merged_f.len(),
            "{label} {measure:?}: ranking lengths"
        );
        for (p, f) in merged_p.iter().zip(&merged_f) {
            assert_eq!(p.value, f.value, "{label} {measure:?}: ranked order");
            assert_eq!(
                p.score.to_bits(),
                f.score.to_bits(),
                "{label} {measure:?}: {} scored {} vs {}",
                p.value,
                p.score,
                f.score
            );
        }
    }
}

/// 1e-9 agreement between a follower's merged rankings and a from-scratch
/// single-engine build of the shadow lake (the slack covers the fresh
/// build's different node layout, not drift).
fn assert_matches_fresh_build(view: &MultiView, expected: &MutableLake, context: &str) {
    let fresh = DomainNetBuilder::new().build(expected);
    for measure in measures() {
        let merged = view.top_k(measure, usize::MAX).expect("served measure");
        let rebuilt = fresh.rank_shared(measure);
        assert_eq!(
            merged.len(),
            rebuilt.len(),
            "{context} {measure:?}: candidate counts diverged"
        );
        let by_value: std::collections::HashMap<&str, f64> = rebuilt
            .iter()
            .map(|s| (s.value.as_str(), s.score))
            .collect();
        for s in &merged {
            let fresh_score = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{context} {measure:?}: {} not in rebuild", s.value));
            assert!(
                (s.score - fresh_score).abs() < 1e-9,
                "{context} {measure:?}: {} scored {} replicated vs {} rebuilt",
                s.value,
                s.score,
                fresh_score
            );
        }
    }
}

fn mutate(
    primary: &Arc<Mutex<Coordinator>>,
    stream: &mut MutationStream,
    shadow: &mut MutableLake,
    count: usize,
) {
    for _ in 0..count {
        let delta = stream.next_delta(shadow);
        shadow.apply(&delta).expect("stream deltas apply");
        primary
            .lock()
            .unwrap()
            .apply_and_publish(delta)
            .expect("primary applies");
    }
}

#[test]
fn primary_killed_at_ten_seeded_points_follower_reconverges() {
    let base = multi_component_base();
    for kill_point in 0..KILL_POINTS {
        let seed = 9_000 + kill_point as u64;
        let context = format!("kill point {kill_point}");
        let root = test_dir(&format!("pkill_{kill_point}"));
        let primary_dir = root.join("primary");
        let follower_dir = root.join("follower");
        // Shards checkpoint on their own cadence, so most kill points land
        // with one shard snapshotted and another sitting on a WAL suffix.
        let policy = CheckpointPolicy::every_epochs(3);
        let mut stream = MutationStream::new(MutationConfig {
            seed,
            tables_per_delta: 2,
            rows_per_table: 8,
            ..MutationConfig::default()
        });
        let mut shadow = base.clone();

        // Phase 1: live primary; the follower bootstraps, catches up, then
        // falls behind again — the kill lands while it is mid-tail.
        let mut follower = {
            let (handle, coordinator) =
                serve_sharded_durable(base.clone(), config(), &primary_dir, policy, SHARDS)
                    .expect("fresh sharded primary");
            let primary = Arc::new(Mutex::new(coordinator));
            let source = LocalReplicaSource::new(handle, Arc::clone(&primary));
            mutate(&primary, &mut stream, &mut shadow, 1 + kill_point);
            let mut follower =
                Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
                    .expect("follower bootstraps");
            let report = follower.sync_once(&source).expect("first sync");
            assert_eq!(report.lag_epochs, 0, "{context}: caught up pre-kill");
            // Traffic the follower has NOT replicated when the kill hits.
            mutate(&primary, &mut stream, &mut shadow, 2);
            follower
            // Primary coordinator and source drop here WITHOUT a final
            // checkpoint_now(): the simulated kill.
        };

        // Phase 2: restart over the same directory, take more writes, and
        // let the follower reconnect against the recovered primary.
        let (handle, coordinator) =
            serve_sharded_from_dir(&primary_dir, config(), policy).expect("primary recovers");
        let primary = Arc::new(Mutex::new(coordinator));
        let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));
        mutate(&primary, &mut stream, &mut shadow, 2);

        let report = follower.sync_once(&source).expect("post-restart sync");
        assert_eq!(report.lag_epochs, 0, "{context}: converged post-restart");
        assert_eq!(
            report.checked_shards, SHARDS,
            "{context}: insurance digests verified on every shard"
        );
        assert_eq!(
            follower.shared().divergence_total.get(),
            0,
            "{context}: a clean kill/restart is lag, never divergence"
        );
        assert_eq!(follower.shared().halted(), None, "{context}: still serving");

        let primary_view = handle.current();
        let follower_view = follower.handle().current();
        follower_view.verify_consistency().expect("follower view");
        assert_eq!(primary_view.epoch(), follower_view.epoch(), "{context}");
        assert_bit_exact(&context, &primary_view, &follower_view);
        assert_matches_fresh_build(&follower_view, &shadow, &context);

        // The pair keeps serving: one more write replicates cleanly.
        mutate(&primary, &mut stream, &mut shadow, 1);
        let report = follower.sync_once(&source).expect("follow-up sync");
        assert_eq!(report.lag_epochs, 0, "{context}: keeps tailing");
        assert_bit_exact(&context, &handle.current(), &follower.handle().current());

        std::fs::remove_dir_all(&root).expect("scratch cleanup");
    }
}

/// Forwards to an inner source but cuts the link after a budgeted number
/// of WAL fetches — the follower dies mid-pass with some shards applied
/// and others not, exactly like a crash between per-shard appends.
struct CuttingSource<'a> {
    inner: &'a LocalReplicaSource,
    wal_fetch_budget: Cell<usize>,
}

impl ReplicaSource for CuttingSource<'_> {
    fn fetch_status(&self) -> Result<dn_service::PrimaryStatus, ReplicaError> {
        self.inner.fetch_status()
    }

    fn fetch_snapshot(&self, shard: usize) -> Result<(u64, Vec<u8>), ReplicaError> {
        self.inner.fetch_snapshot(shard)
    }

    fn fetch_wal(&self, shard: usize, from_seq: u64) -> Result<WalFetch, ReplicaError> {
        let budget = self.wal_fetch_budget.get();
        if budget == 0 {
            return Err(ReplicaError::Source("injected link cut".into()));
        }
        self.wal_fetch_budget.set(budget - 1);
        self.inner.fetch_wal(shard, from_seq)
    }
}

#[test]
fn follower_killed_mid_apply_resumes_from_its_own_seq() {
    let root = test_dir("fkill");
    let primary_dir = root.join("primary");
    let follower_dir = root.join("follower");
    let base = multi_component_base();
    let (handle, coordinator) = serve_sharded_durable(
        base.clone(),
        config(),
        &primary_dir,
        CheckpointPolicy::manual(),
        SHARDS,
    )
    .expect("fresh sharded primary");
    let primary = Arc::new(Mutex::new(coordinator));
    let source = LocalReplicaSource::new(handle.clone(), Arc::clone(&primary));
    let mut stream = MutationStream::new(MutationConfig {
        seed: 7_700,
        tables_per_delta: 2,
        rows_per_table: 8,
        ..MutationConfig::default()
    });
    let mut shadow = base;

    mutate(&primary, &mut stream, &mut shadow, 4);
    let mut follower =
        Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
            .expect("follower bootstraps");
    follower.sync_once(&source).expect("initial catch-up");

    // More traffic, then a sync whose link dies after ONE WAL fetch:
    // shard 0's suffix lands in the follower's WAL, shard 1's never
    // arrives, and the pass aborts before the view refresh.
    mutate(&primary, &mut stream, &mut shadow, 4);
    let cutting = CuttingSource {
        inner: &source,
        wal_fetch_budget: Cell::new(1),
    };
    let err = follower
        .sync_once(&cutting)
        .expect_err("the injected cut must surface");
    assert!(
        matches!(err, ReplicaError::Source(_)),
        "a stream cut is transient, got: {err}"
    );
    assert_eq!(
        follower.shared().halted(),
        None,
        "transient source failures must not latch the halt"
    );

    // Record where the (partially applied) WAL stands, then kill the
    // follower: drop without any checkpoint. Every applied record is
    // already synced to its shard log.
    let mid_apply_seqs: Vec<u64> = {
        let local = follower.coordinator();
        let local = local.lock().unwrap();
        (0..SHARDS).map(|s| local.shard(s).last_seq()).collect()
    };
    drop(follower);

    // The primary keeps moving while the follower is down.
    mutate(&primary, &mut stream, &mut shadow, 3);

    // Restart over the same directory: local recovery, no re-download,
    // resuming from exactly the sequence numbers the local WAL holds.
    let mut follower =
        Follower::bootstrap(&follower_dir, config(), CheckpointPolicy::manual(), &source)
            .expect("follower recovers locally");
    let resumed_seqs: Vec<u64> = {
        let local = follower.coordinator();
        let local = local.lock().unwrap();
        (0..SHARDS).map(|s| local.shard(s).last_seq()).collect()
    };
    assert_eq!(
        resumed_seqs, mid_apply_seqs,
        "local recovery must resume from the pre-kill per-shard positions"
    );

    // The next sync applies precisely the missed suffix — nothing is
    // re-fetched, nothing is skipped.
    let expected_suffix: u64 = {
        let p = primary.lock().unwrap();
        (0..SHARDS)
            .map(|s| p.shard(s).last_seq() - resumed_seqs[s])
            .sum()
    };
    assert!(
        expected_suffix > 0,
        "the primary moved while the follower was down"
    );
    let report = follower.sync_once(&source).expect("resumed sync");
    assert_eq!(
        report.applied_batches, expected_suffix,
        "the follower must apply exactly the batches it missed"
    );
    assert_eq!(report.lag_epochs, 0);
    assert_eq!(report.checked_shards, SHARDS);
    assert_eq!(follower.shared().divergence_total.get(), 0);

    let follower_view = follower.handle().current();
    follower_view.verify_consistency().expect("follower view");
    assert_bit_exact("follower restart", &handle.current(), &follower_view);
    assert_matches_fresh_build(&follower_view, &shadow, "follower restart");

    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}
