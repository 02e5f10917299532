//! Sharded-serving equivalence and crash recovery.
//!
//! Five suites for the component-sharded coordinator
//! (`dn_service::serve_sharded*`):
//!
//! * `fifty_seeded_sequences_agree_across_shard_counts` — the property:
//!   50 seeded mutation sequences, each replayed through coordinators at
//!   1, 2, and 4 shards, must all end with merged rankings that match a
//!   from-scratch single-engine build of the final lake — same candidate
//!   sets, scores within 1e-9 (both served measures are exact; the slack
//!   covers node layout only: the fresh build, and a shard rebuilt by a
//!   component migration, number nodes differently and so sum in a different
//!   order. A maintained score does not drift with the deltas applied).
//!   Sequence 0 at 2 shards also checks, after every commit, that each
//!   shard's maintained net is a fresh build of its lake, bit for bit.
//! * `grouped_commits_place_tables_as_op_by_op_commits` — a multi-shard
//!   commit routes op by op but commits once per shard; 50 seeded 8-delta
//!   sequences, and 30 seeded chains of tables linked by new values,
//!   committed whole must leave every shard holding the tables
//!   one-op-per-commit leaves it, match a fresh build, and recover from
//!   their per-shard WAL records to the `to_bits()` live rankings. The
//!   chains end by meeting a committed component or by a replacement
//!   that a chain table made live, on the chain's shard or another one.
//! * `an_add_table_chain_is_one_wal_record_per_touched_shard` — eight
//!   tables sharing only new values, committed whole, are one WAL record
//!   on their shard and none on the other.
//! * `kill_between_shard_checkpoints_recovers_a_consistent_epoch` — the
//!   crash scenario the sharded store layout exists for: shards checkpoint
//!   on their *own* cadence, so a kill almost always catches them at
//!   different snapshot/WAL positions; recovery must replay each shard's
//!   WAL suffix independently and restore the exact per-shard epochs (and
//!   therefore the exact coordinator epoch, their sum) plus rankings that
//!   match a fresh build — then keep serving.
//! * `rebalance_intent_left_by_a_crash_is_completed_on_recovery` — a
//!   crash mid-migration leaves the intent file plus a table live on both
//!   shards; `serve_sharded_from_dir` must finish the move (remove from
//!   source, clear the intent) before accepting traffic.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` (the CI hygiene gate
//! fails if anything is left behind).

mod common;

use std::collections::HashMap;
use std::path::PathBuf;

use datagen::mutate::{MutationConfig, MutationStream};
use dn_service::{
    serve_sharded, serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, Coordinator,
    MultiView, ServiceConfig,
};
use domainnet::{DomainNetBuilder, Measure};
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;
use lake::value::normalize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const SEQUENCES: usize = 50;
const DELTAS_PER_SEQUENCE: usize = 4;
/// Deltas of one grouped commit in the op-by-op placement property.
const GROUPED_DELTAS: usize = 8;
/// Seeded chain sequences in the op-by-op placement property.
const CHAINS: usize = 30;

/// Both measures exact: equivalence can be asserted to 1e-9 with no
/// estimation slack (the approx-BC sampler is salted by generation and
/// deliberately out of scope here).
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
        .join(format!("dn_store_shard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The base lake's tables: name, column, cells.
const BASE_TABLES: [(&str, &str, [&str; 3]); 6] = [
    ("zoo", "animal", ["Jaguar", "Okapi", "Zebra"]),
    ("cars", "make", ["Jaguar", "Fiat", "Kia"]),
    ("fx", "code", ["USD", "EUR", "JPY"]),
    ("prices", "currency", ["USD", "EUR", "GBP"]),
    ("cities", "city", ["Memphis", "Sydney", "Austin"]),
    ("routes", "dest", ["Sydney", "Phoenix", "Lima"]),
];

/// A base lake with three *disjoint* value islands, so the partitioner
/// has real components to spread and mutations can later bridge them.
fn multi_component_base() -> MutableLake {
    let mut delta = LakeDelta::new();
    for (name, column, cells) in BASE_TABLES {
        delta = delta.add_table(table(name, column, &cells));
    }
    let mut lake = MutableLake::new();
    lake.apply(&delta).expect("base lake applies");
    lake
}

fn table(name: &str, column: &str, cells: &[&str]) -> lake::Table {
    TableBuilder::new(name)
        .column(column, cells.iter().copied())
        .build()
        .expect("rectangular by construction")
}

/// `len` seeded two-op mutation deltas against `base`, and the lake they
/// leave behind.
fn seeded_sequence(base: &MutableLake, seed: u64, len: usize) -> (Vec<LakeDelta>, MutableLake) {
    let mut stream = MutationStream::new(MutationConfig {
        seed,
        tables_per_delta: 2,
        rows_per_table: 8,
        ..MutationConfig::default()
    });
    let mut shadow = base.clone();
    let mut deltas = Vec::with_capacity(len);
    for _ in 0..len {
        let delta = stream.next_delta(&shadow);
        shadow.apply(&delta).expect("stream deltas apply");
        deltas.push(delta);
    }
    (deltas, shadow)
}

/// How a chain sequence ends.
enum ChainEnd {
    /// A chain table also holds this (normalized) base value.
    Meets(String),
    /// This base table takes a chain value as a replacement.
    Edits(String),
}

/// A seeded chain of tables `chain0`, `chain1`, … linked by values no
/// base table holds.
struct Chain {
    deltas: Vec<LakeDelta>,
    /// The lake the deltas leave behind.
    shadow: MutableLake,
    /// The index of the end op among the deltas (one op each).
    end_step: usize,
    end: ChainEnd,
}

/// Two to five chain tables, each sharing a new value with the next, then
/// the end op: a chain table that also holds a base value, or a base table
/// edit whose replacement is a chain value; then one more chain table.
/// Half the time the first chain table holds a base value too, from the
/// end's base table or another one, so the chain starts on a committed
/// shard.
fn chain_sequence(base: &MutableLake, seed: u64) -> Chain {
    let mut rng = StdRng::seed_from_u64(seed);
    let link = |i: usize| format!("Link{seed}x{i}");
    let add = |i: usize, cells: &[String]| {
        let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
        LakeDelta::new().add_table(table(&format!("chain{i}"), "link", &cells))
    };
    let pick = |rng: &mut StdRng| BASE_TABLES[rng.gen_range(0..BASE_TABLES.len())];
    let (len, meets) = (rng.gen_range(2..=5), rng.gen_bool(0.5));
    let (name, column, cells) = pick(&mut rng);
    let mut first = vec![link(0), link(1)];
    if rng.gen_bool(0.5) {
        let anchor = if rng.gen_bool(0.5) {
            cells
        } else {
            pick(&mut rng).2
        };
        first.push(anchor[rng.gen_range(0..3)].to_owned());
    }
    let mut deltas = vec![add(0, &first)];
    deltas.extend((1..len).map(|i| add(i, &[link(i), link(i + 1)])));
    let value = cells[rng.gen_range(0..3)];
    let end = if meets {
        deltas.push(add(len, &[link(len), link(len + 1), value.to_owned()]));
        ChainEnd::Meets(normalize(value))
    } else {
        let replacement = link(rng.gen_range(0..=len));
        deltas.push(LakeDelta::new().replace_value(name, column, value, replacement));
        ChainEnd::Edits(name.to_owned())
    };
    deltas.push(add(len + 1, &[link(len), format!("Tail{seed}")]));
    let mut shadow = base.clone();
    for delta in &deltas {
        shadow.apply(delta).expect("chain deltas apply");
    }
    Chain {
        deltas,
        shadow,
        end_step: len,
        end,
    }
}

/// Assert two views rank every served measure alike, scores `to_bits()`.
fn assert_same_bits(a: &MultiView, b: &MultiView, context: &str) {
    for measure in measures() {
        let a = a.top_k(measure, usize::MAX).expect("served measure");
        let b = b.top_k(measure, usize::MAX).expect("served measure");
        assert_eq!(a.len(), b.len(), "{context} {measure:?}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.value, y.value, "{context} {measure:?}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{context} {measure:?} {}",
                x.value
            );
        }
    }
}

/// Assert one coordinator's merged rankings equal a from-scratch
/// single-engine build of `expected` — same candidates, scores to 1e-9
/// (node layout, not drift: see the module doc).
fn assert_matches_fresh_build(view: &dn_service::MultiView, expected: &MutableLake, context: &str) {
    let fresh = DomainNetBuilder::new().build(expected);
    for measure in measures() {
        let merged = view.top_k(measure, usize::MAX).expect("served measure");
        let rebuilt = fresh.rank_shared(measure);
        assert_eq!(
            merged.len(),
            rebuilt.len(),
            "{context} {measure:?}: candidate counts diverged"
        );
        let by_value: HashMap<&str, f64> = rebuilt
            .iter()
            .map(|s| (s.value.as_str(), s.score))
            .collect();
        for s in &merged {
            let fresh_score = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{context} {measure:?}: {} not in rebuild", s.value));
            assert!(
                (s.score - fresh_score).abs() < 1e-9,
                "{context} {measure:?}: {} scored {} sharded vs {} rebuilt",
                s.value,
                s.score,
                fresh_score
            );
        }
    }
}

#[test]
fn fifty_seeded_sequences_agree_across_shard_counts() {
    let base = multi_component_base();
    for sequence in 0..SEQUENCES {
        // Materialize the sequence once so every shard count replays the
        // byte-identical deltas.
        let (deltas, shadow) = seeded_sequence(&base, 5_000 + sequence as u64, DELTAS_PER_SEQUENCE);

        for shards in SHARD_COUNTS {
            let (handle, mut coordinator) = serve_sharded(base.clone(), config(), shards);
            for (step, delta) in deltas.iter().enumerate() {
                coordinator.stage(delta.clone());
                coordinator.commit().expect("batch commits cleanly");
                coordinator.publish();
                if sequence == 0 && shards == 2 {
                    for shard in 0..shards {
                        let engine = coordinator.shard(shard);
                        common::assert_net_is_a_fresh_build(
                            engine.lake(),
                            engine.net(),
                            &format!("seq 0 step {step} shard {shard}"),
                        );
                    }
                }
            }
            let view = handle.current();
            view.verify_consistency()
                .unwrap_or_else(|e| panic!("seq {sequence} shards {shards}: {e}"));
            assert_matches_fresh_build(&view, &shadow, &format!("seq {sequence} shards {shards}"));
        }
    }
}

/// Commit `deltas` on `base` at `shards` durable shards twice, grouped
/// into one commit and one op per commit, and assert that both runs place
/// every table alike and match a fresh build of `shadow`, and that the
/// grouped store recovers to its live rankings bit for bit. `before_op`
/// sees the op-by-op coordinator before each op commits, with the op's
/// index.
fn assert_grouped_places_as_op_by_op(
    base: &MutableLake,
    deltas: &[LakeDelta],
    shadow: &MutableLake,
    shards: usize,
    context: &str,
    mut before_op: impl FnMut(usize, &Coordinator),
) {
    let policy = CheckpointPolicy::manual();
    let grouped_dir = test_dir(&format!("grouped_{shards}"));
    let op_by_op_dir = test_dir(&format!("op_by_op_{shards}"));
    let (grouped_handle, mut grouped) =
        serve_sharded_durable(base.clone(), config(), &grouped_dir, policy, shards)
            .expect("fresh sharded store");
    for delta in deltas {
        grouped.stage(delta.clone());
    }
    grouped.commit().expect("grouped batch commits cleanly");
    grouped.publish();
    let (op_by_op_handle, mut op_by_op) =
        serve_sharded_durable(base.clone(), config(), &op_by_op_dir, policy, shards)
            .expect("fresh sharded store");
    for (step, op) in deltas.iter().flat_map(LakeDelta::ops).enumerate() {
        before_op(step, &op_by_op);
        let mut single = LakeDelta::new();
        single.push(op.clone());
        op_by_op.stage(single);
        op_by_op.commit().expect("single op commits cleanly");
    }
    op_by_op.publish();

    for shard in 0..shards {
        assert_eq!(
            grouped.shard(shard).lake().live_table_names(),
            op_by_op.shard(shard).lake().live_table_names(),
            "{context}: shard {shard} holds different tables"
        );
    }
    for (name, handle) in [("grouped", &grouped_handle), ("op-by-op", &op_by_op_handle)] {
        let view = handle.current();
        view.verify_consistency()
            .unwrap_or_else(|e| panic!("{context} {name}: {e}"));
        assert_matches_fresh_build(&view, shadow, &format!("{context} {name}"));
    }

    // The grouped WAL records are what recovery replays.
    let live = grouped_handle.current();
    drop(grouped);
    let (recovered_handle, recovered_coordinator) =
        serve_sharded_from_dir(&grouped_dir, config(), policy).expect("sharded recovery");
    assert_same_bits(&live, &recovered_handle.current(), context);
    drop(recovered_coordinator);
    drop(op_by_op);
    std::fs::remove_dir_all(&grouped_dir).expect("cleanup");
    std::fs::remove_dir_all(&op_by_op_dir).expect("cleanup");
}

#[test]
fn grouped_commits_place_tables_as_op_by_op_commits() {
    let base = multi_component_base();
    for sequence in 0..SEQUENCES {
        let (deltas, shadow) = seeded_sequence(&base, 7_000 + sequence as u64, GROUPED_DELTAS);
        for shards in [2usize, 4] {
            let context = format!("seq {sequence} shards {shards}");
            assert_grouped_places_as_op_by_op(&base, &deltas, &shadow, shards, &context, |_, _| {});
        }
    }

    for shards in [2usize, 4] {
        // How often the end op met its other value on the chain's shard,
        // and elsewhere: [meets, edits] × [same shard, other shard].
        let mut ends = [[0usize; 2]; 2];
        for sequence in 0..CHAINS {
            let chain = chain_sequence(&base, 9_000 + sequence as u64);
            let context = format!("chain {sequence} shards {shards}");
            assert_grouped_places_as_op_by_op(
                &base,
                &chain.deltas,
                &chain.shadow,
                shards,
                &context,
                |step, coordinator| {
                    if step != chain.end_step {
                        return;
                    }
                    let home = coordinator.table_owner("chain0");
                    let (kind, other) = match &chain.end {
                        ChainEnd::Meets(value) => (
                            0,
                            (0..shards)
                                .find(|&s| coordinator.shard(s).lake().contains_value(value)),
                        ),
                        ChainEnd::Edits(table) => (1, coordinator.table_owner(table)),
                    };
                    ends[kind][usize::from(other != home)] += 1;
                },
            );
        }
        // The three cases the gathered placements must route like op by op
        // commits: a chain meeting a component on another shard (flush and
        // migrate), and a replacement a chain table made live on the edited
        // table's shard (no flush) or on another shard (flush and migrate).
        assert!(
            ends[0][1] > 0 && ends[1][0] > 0 && ends[1][1] > 0,
            "shards {shards}: chain ends [meets, edits] x [same, other] = {ends:?}"
        );
    }
}

#[test]
fn an_add_table_chain_is_one_wal_record_per_touched_shard() {
    let base = multi_component_base();
    let dir = test_dir("chain");
    let policy = CheckpointPolicy::manual();
    let (handle, mut coordinator) =
        serve_sharded_durable(base.clone(), config(), &dir, policy, 2).expect("fresh store");
    // t1..t8 share only values no committed table holds: ti and ti+1
    // share LINKi+1, so each table's one contact is the one before it.
    let chain: Vec<LakeDelta> = (1..=8)
        .map(|i| {
            let cells = [
                format!("Link{i}"),
                format!("Link{}", i + 1),
                format!("Solo{i}"),
            ];
            let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
            LakeDelta::new().add_table(table(&format!("t{i}"), "link", &cells))
        })
        .collect();
    let seqs: Vec<u64> = (0..2).map(|i| coordinator.shard(i).last_seq()).collect();
    for delta in &chain {
        coordinator.stage(delta.clone());
    }
    coordinator.commit().expect("the chain commits");
    coordinator.publish();
    let target = coordinator.table_owner("t1").expect("t1 is live");
    for (shard, seq) in seqs.into_iter().enumerate() {
        assert_eq!(
            coordinator.shard(shard).last_seq() - seq,
            u64::from(shard == target),
            "shard {shard}: one WAL record for the chain on its shard, none elsewhere"
        );
    }

    let (_, mut op_by_op) = serve_sharded(base.clone(), config(), 2);
    for delta in &chain {
        op_by_op.stage(delta.clone());
        op_by_op.commit().expect("one table commits");
    }
    for shard in 0..2 {
        assert_eq!(
            coordinator.shard(shard).lake().live_table_names(),
            op_by_op.shard(shard).lake().live_table_names(),
            "shard {shard} holds different tables"
        );
    }
    let mut expected = base;
    for delta in &chain {
        expected.apply(delta).expect("chain applies");
    }
    let live = handle.current();
    live.verify_consistency().expect("live view");
    assert_matches_fresh_build(&live, &expected, "chain");

    drop(coordinator);
    let (recovered_handle, recovered) =
        serve_sharded_from_dir(&dir, config(), policy).expect("sharded recovery");
    assert_same_bits(&live, &recovered_handle.current(), "chain recovered");
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn kill_between_shard_checkpoints_recovers_a_consistent_epoch() {
    let root = test_dir("kill");
    let base = multi_component_base();
    let policy = CheckpointPolicy::every_epochs(2);
    let shards = 3;

    let (pre_epoch, per_shard_epochs, shadow) = {
        let (_, mut coordinator) =
            serve_sharded_durable(base.clone(), config(), &root, policy, shards)
                .expect("fresh sharded store");
        let mut stream = MutationStream::new(MutationConfig {
            seed: 4242,
            tables_per_delta: 2,
            rows_per_table: 10,
            ..MutationConfig::default()
        });
        let mut shadow = base;
        for _ in 0..10 {
            let delta = stream.next_delta(&shadow);
            shadow.apply(&delta).expect("stream deltas apply");
            coordinator.stage(delta);
            coordinator.commit().expect("batch commits cleanly");
            coordinator.publish();
        }
        let per_shard: Vec<u64> = (0..shards).map(|i| coordinator.shard(i).epoch()).collect();
        // The kill must actually land *between* shard checkpoints: routing
        // is uneven, so at least one shard is sitting on an un-checkpointed
        // WAL suffix while another just snapshotted.
        assert!(
            (0..shards).any(|i| coordinator.shard(i).wal_record_bytes() > 0),
            "every shard happened to be exactly checkpointed; weaken the policy"
        );
        assert_eq!(coordinator.epoch(), per_shard.iter().sum::<u64>());
        (coordinator.epoch(), per_shard, shadow)
        // Drop without checkpoint_now(): the simulated kill.
    };

    let (handle, mut recovered) =
        serve_sharded_from_dir(&root, config(), policy).expect("sharded recovery");
    let recovered_per_shard: Vec<u64> = (0..shards).map(|i| recovered.shard(i).epoch()).collect();
    assert_eq!(
        recovered_per_shard, per_shard_epochs,
        "per-shard WAL replay must restore the exact pre-kill epochs"
    );
    assert_eq!(recovered.epoch(), pre_epoch);
    assert_eq!(handle.epoch(), pre_epoch);

    let view = handle.current();
    view.verify_consistency().expect("recovered view");
    assert_matches_fresh_build(&view, &shadow, "recovered");

    // The recovered coordinator keeps serving: one more mutation routes,
    // commits, and publishes.
    let delta = LakeDelta::new().add_table(table("post_crash", "code", &["USD", "CHF"]));
    recovered
        .apply_and_publish(delta)
        .expect("post-recovery mutation");
    assert!(recovered.epoch() > pre_epoch);
    assert!(handle
        .current()
        .table_names()
        .contains(&"post_crash".to_owned()));

    drop(recovered);
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn rebalance_intent_left_by_a_crash_is_completed_on_recovery() {
    let root = test_dir("intent");
    dn_store::write_shard_manifest(&root, 2).expect("manifest");

    // Shard 0 holds its anchor plus `mover`; shard 1 holds its anchor
    // *and* `mover` too — the crash state where the migration's
    // add-to-target landed but the remove-from-source did not.
    let mut lake0 = MutableLake::new();
    lake0
        .apply(
            &LakeDelta::new()
                .add_table(table("anchor0", "city", &["Memphis", "Austin"]))
                .add_table(table("mover", "code", &["USD", "EUR"])),
        )
        .expect("shard 0 lake");
    let mut lake1 = MutableLake::new();
    lake1
        .apply(
            &LakeDelta::new()
                .add_table(table("anchor1", "animal", &["Okapi", "Zebra"]))
                .add_table(table("mover", "code", &["USD", "EUR"])),
        )
        .expect("shard 1 lake");
    // Each shard store is an initial checkpoint of its lake, written the
    // way a shard engine writes it, then abandoned: the simulated kill.
    for (i, lake) in [lake0, lake1].into_iter().enumerate() {
        let net = DomainNetBuilder::new().build(&lake);
        net.warm_rankings(&measures());
        dn_store::Store::create(dn_store::shard_dir(&root, i))
            .expect("shard store")
            .checkpoint(&lake, &net, 0, &measures())
            .expect("initial checkpoint");
    }
    dn_store::write_rebalance_intent(
        &root,
        &dn_store::RebalanceIntent {
            moves: vec![dn_store::TableMove {
                table: "mover".to_owned(),
                from: 0,
                to: 1,
            }],
        },
    )
    .expect("intent");

    let (handle, recovered) =
        serve_sharded_from_dir(&root, config(), CheckpointPolicy::manual()).expect("recovery");
    assert!(
        dn_store::read_rebalance_intent(&root)
            .expect("intent readable")
            .is_none(),
        "recovery must clear the completed intent"
    );
    assert_eq!(recovered.table_owner("mover"), Some(1));
    assert!(recovered.shard(0).lake().table("mover").is_none());
    assert!(recovered.shard(1).lake().table("mover").is_some());

    // The finished state equals a fresh build of the three live tables.
    let mut expected = MutableLake::new();
    expected
        .apply(
            &LakeDelta::new()
                .add_table(table("anchor0", "city", &["Memphis", "Austin"]))
                .add_table(table("anchor1", "animal", &["Okapi", "Zebra"]))
                .add_table(table("mover", "code", &["USD", "EUR"])),
        )
        .expect("expected lake");
    let view = handle.current();
    view.verify_consistency().expect("recovered view");
    assert_matches_fresh_build(&view, &expected, "intent recovery");

    drop(recovered);
    std::fs::remove_dir_all(&root).expect("cleanup");
}
