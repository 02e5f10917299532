//! The one referee for every write path, and the fixtures the root
//! package's suites share.
//!
//! A net is a function of its lake. So every write path must serve what
//! `DomainNetBuilder::build` of the same lake serves, and every path is
//! held to one predicate, [`assert_serves_the_reference`]. Each engine a
//! path serves must pass three clauses against the *reference lake*, the
//! path's deltas applied in order to one `MutableLake`:
//!
//! 1. **Lake equality.** A one-shard engine holds the reference entry for
//!    entry: interner, attribute ids and live tables cell for cell. At more
//!    shards, or against a reference loaded from a drop folder, the live
//!    tables together are the reference's. A recovered or follower engine
//!    also holds the live engine's lakes shard by shard, id for id, and
//!    serves its per-shard rankings and epochs bit for bit.
//! 2. **Fresh build.** Every shard's net is a fresh build of its own lake
//!    ([`assert_net_is_a_fresh_build`]): CSR, labels, components, and
//!    LCC, exact-BC and sampled-BC scores by `to_bits()`.
//! 3. **Served ranking.** The served rankings of the exact measures (a
//!    coordinator's merged `top_k(usize::MAX)`) are a fresh build of
//!    `MutableLake::from_tables(reference.tables())` within 1e-9. That
//!    build lays out another id space, so its nodes sum in another order;
//!    the tolerance covers that and nothing else.
//!
//! `tests/referee_matrix.rs` drives the rows, one test each: a path turns
//! a seed lake and seeded delta streams, with pruning on and off, into
//! served engines, and counts what its streams exercised:
//! `row_live_commits` (`apply` + `apply_delta`), `row_folded_runs`
//! (`fold_batch` runs of 1 to 3 batches), `row_recovered_after_every_commit`
//! (a durable coordinator killed after every commit, at 1 and 3 shards),
//! `row_follower` (bootstrap, leave, rejoin and `sync_once`),
//! `row_http_mutations` (`POST /v1/mutations`), `row_drop_folder_ingest`
//! (drift generations through an `Ingester`) and `row_sharded_1_2_4`.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use datagen::MutationStream;
use dn_graph::approx_bc::ApproxBcConfig;
use dn_service::{Coordinator, MultiView, ServiceConfig};
use domainnet::{DomainNet, DomainNetBuilder, Measure, ScoredValue};
use lake::catalog::AttrId;
use lake::delta::{LakeDelta, LakeOp, MutableLake};
use lake::table::TableBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scratch directory under `CARGO_TARGET_TMPDIR`, cleared of what an
/// earlier failed run left. The test removes it: CI fails on a leftover
/// `dn_store_*` directory.
pub fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact measures, LCC and exact BC.
pub fn measures() -> Vec<Measure> {
    vec![Measure::lcc(), Measure::exact_bc()]
}

/// The golden-corpus measures (`tests/golden_rankings.rs`): LCC, exact BC
/// and the seeded approx BC.
pub fn golden_measures() -> Vec<Measure> {
    vec![
        Measure::lcc(),
        Measure::exact_bc(),
        Measure::ApproxBc(ApproxBcConfig {
            samples: 512,
            seed: 2021,
        }),
    ]
}

/// One worker thread, pruning on, serving [`measures`].
pub fn config() -> ServiceConfig {
    ServiceConfig {
        measures: measures(),
        prune_single_attribute_values: true,
        threads: 1,
    }
}

/// A one-column table.
pub fn table(name: &str, column: &str, cells: &[&str]) -> lake::Table {
    TableBuilder::new(name)
        .column(column, cells.iter().copied())
        .build()
        .expect("rectangular by construction")
}

/// The multi-component base lake's tables: name, column, cells.
pub const BASE_TABLES: [(&str, &str, [&str; 3]); 6] = [
    ("zoo", "animal", ["Jaguar", "Okapi", "Zebra"]),
    ("cars", "make", ["Jaguar", "Fiat", "Kia"]),
    ("fx", "code", ["USD", "EUR", "JPY"]),
    ("prices", "currency", ["USD", "EUR", "GBP"]),
    ("cities", "city", ["Memphis", "Sydney", "Austin"]),
    ("routes", "dest", ["Sydney", "Phoenix", "Lima"]),
];

/// A base lake with three *disjoint* value islands, so the partitioner
/// has real components to spread and mutations can later bridge them.
pub fn multi_component_base() -> MutableLake {
    let mut delta = LakeDelta::new();
    for (name, column, cells) in BASE_TABLES {
        delta = delta.add_table(table(name, column, &cells));
    }
    let mut lake = MutableLake::new();
    lake.apply(&delta).expect("base lake applies");
    lake
}

/// A small random table over overlapping vocabularies, in the `base_*`
/// namespace (disjoint from `MutationStream`'s generated names).
pub fn random_base_table(rng: &mut StdRng, index: usize) -> lake::Table {
    const POOLS: &[(&str, &[&str])] = &[
        ("animal", &["Jaguar", "Puma", "Panda", "Lemur", "Okapi"]),
        ("brand", &["Jaguar", "Puma", "Fiat", "Toyota", "Rover"]),
        ("city", &["Memphis", "Sydney", "Austin", "Phoenix"]),
    ];
    let mut builder = TableBuilder::new(format!("base_{index}"));
    let n_cols = rng.gen_range(1..=POOLS.len());
    let rows = rng.gen_range(2..=6usize);
    for (col, pool) in POOLS.iter().take(n_cols) {
        let cells: Vec<String> = (0..rows)
            .map(|_| pool[rng.gen_range(0..pool.len())].to_owned())
            .collect();
        builder = builder.column(*col, cells);
    }
    builder.build().expect("rectangular by construction")
}

/// A table's columns: each column's name and cells.
pub type Columns = Vec<(String, Vec<String>)>;

/// Each live table of `lake` in slot order: its name and columns.
pub fn live_tables(lake: &MutableLake) -> Vec<(String, Columns)> {
    lake.tables()
        .map(|table| {
            let columns = table
                .columns()
                .iter()
                .map(|c| {
                    let cells = c.cells().into_iter().map(str::to_owned).collect();
                    (c.name().to_owned(), cells)
                })
                .collect();
            (table.name().to_owned(), columns)
        })
        .collect()
}

/// A [`MutationStream`] whose replacements also land on values the lake
/// already holds. The stream's own replacement is always a fresh text, so
/// alone it never merges two components through an edit or revives a
/// value that left the graph; here a seeded share of each delta's
/// `ReplaceValue` ops takes instead a text drawn from the cells of another
/// live column of the lake the delta is drawn against.
pub struct HeldValueReplacements {
    stream: MutationStream,
    rng: StdRng,
}

impl HeldValueReplacements {
    /// The share of `ReplaceValue` ops whose replacement is a held text.
    const SHARE: f64 = 0.5;

    /// Wrap `stream`, drawing which replacements change and to what from
    /// `seed`.
    pub fn new(stream: MutationStream, seed: u64) -> Self {
        HeldValueReplacements {
            stream,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The stream's next delta against `lake`, a share of its replacements
    /// redrawn from the texts `lake`'s other live columns hold.
    pub fn next_delta(&mut self, lake: &MutableLake) -> LakeDelta {
        let tables = live_tables(lake);
        let mut delta = LakeDelta::new();
        for op in self.stream.next_delta(lake).ops() {
            let mut op = op.clone();
            if let LakeOp::ReplaceValue {
                table,
                column,
                replacement,
                ..
            } = &mut op
            {
                let held: Vec<&str> = tables
                    .iter()
                    .flat_map(|(t, columns)| columns.iter().map(move |(c, cells)| (t, c, cells)))
                    .filter(|&(t, c, _)| (t, c) != (&*table, &*column))
                    .flat_map(|(_, _, cells)| cells.iter().map(String::as_str))
                    .collect();
                if !held.is_empty() && self.rng.gen_bool(Self::SHARE) {
                    *replacement = held[self.rng.gen_range(0..held.len())].to_owned();
                }
            }
            delta.push(op);
        }
        delta
    }
}

/// Where a reference lake came from, which decides how a one-shard
/// engine's lake is held to it.
#[derive(Clone, Copy)]
pub enum Reference<'a> {
    /// The path's deltas applied in order to one lake: a one-shard engine
    /// holds it entry for entry.
    Applied(&'a MutableLake),
    /// `load_dir` of a drop folder, whose ids no delta history shares:
    /// held table for table.
    Loaded(&'a MutableLake),
}

/// An engine as the referee reads it: each shard's lake and net, and what
/// it serves.
pub struct Engine {
    /// Each shard's lake and net, in shard order.
    pub shards: Vec<(MutableLake, DomainNet)>,
    /// A coordinator's published view. A bare net serves its own rankings
    /// of [`measures`].
    pub view: Option<Arc<MultiView>>,
}

impl Engine {
    /// A bare lake and net.
    pub fn net(lake: &MutableLake, net: &DomainNet) -> Engine {
        Engine {
            shards: vec![(lake.clone(), net.clone())],
            view: None,
        }
    }

    /// A coordinator's shards and its last published view.
    pub fn coordinator(coordinator: &Coordinator) -> Engine {
        Engine {
            shards: (0..coordinator.shard_count())
                .map(|i| {
                    let writer = coordinator.shard(i);
                    (writer.lake().clone(), writer.net().clone())
                })
                .collect(),
            view: Some(coordinator.handle().current()),
        }
    }

    fn served_measures(&self) -> Vec<Measure> {
        self.view
            .as_ref()
            .map_or_else(measures, |view| view.measures().to_vec())
    }

    fn ranking(&self, measure: Measure) -> Vec<ScoredValue> {
        match &self.view {
            Some(view) => view.top_k(measure, usize::MAX).expect("a served measure"),
            None => self.shards[0].1.rank(measure),
        }
    }
}

/// The referee: assert that `engine` serves `reference` (clauses 1-3 of
/// the module doc), and, given the live engine a recovered or follower
/// engine stands in for, that it holds and serves what that one does.
pub fn assert_serves_the_reference(
    reference: Reference,
    engine: &Engine,
    live: Option<&Engine>,
    context: &str,
) {
    // 1. Lake equality.
    let lake = match (reference, engine.shards.as_slice()) {
        (Reference::Applied(lake), [(own, _)]) => {
            assert_lakes_equal(lake, own, context);
            lake
        }
        (Reference::Applied(lake) | Reference::Loaded(lake), shards) => {
            let mut together = BTreeMap::new();
            for (shard, (own, _)) in shards.iter().enumerate() {
                for (name, columns) in live_tables(own) {
                    let twice = together.insert(name.clone(), columns).is_some();
                    assert!(
                        !twice,
                        "{context}: table {name} is live twice (shard {shard})"
                    );
                }
            }
            let want: BTreeMap<_, _> = live_tables(lake).into_iter().collect();
            assert!(together == want, "{context}: the shards' live tables");
            lake
        }
    };
    if let Some(live) = live {
        assert_same_as_live(engine, live, context);
    }

    // 2. Fresh build.
    for (shard, (lake, net)) in engine.shards.iter().enumerate() {
        assert_net_is_a_fresh_build(lake, net, &format!("{context} shard {shard}"));
    }

    // 3. Served ranking.
    let prune = engine.shards[0].1.config().prune_single_attribute_values;
    let fresh = DomainNetBuilder::new()
        .prune_single_attribute_values(prune)
        .build(&MutableLake::from_tables(lake.tables()).expect("live tables are well-formed"));
    for measure in engine.served_measures() {
        if matches!(measure, Measure::ApproxBc(_)) {
            continue;
        }
        let served = engine.ranking(measure);
        let rebuilt = fresh.rank_shared(measure);
        let name = measure.name();
        assert_eq!(
            served.len(),
            rebuilt.len(),
            "{context} {name}: ranking sizes"
        );
        let by_value: HashMap<&str, f64> = rebuilt
            .iter()
            .map(|s| (s.value.as_str(), s.score))
            .collect();
        for s in &served {
            let want = by_value
                .get(s.value.as_str())
                .unwrap_or_else(|| panic!("{context} {name}: {} not in a fresh build", s.value));
            assert!(
                (s.score - want).abs() < 1e-9,
                "{context} {name}: {} served {} against a fresh build's {want}",
                s.value,
                s.score
            );
        }
    }
    if let Some(view) = &engine.view {
        view.verify_consistency()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
    }
}

/// Assert that `lake` holds `want` entry for entry: the interner, every
/// attribute id's liveness, name and values, and the live tables in slot
/// order, cell for cell.
fn assert_lakes_equal(want: &MutableLake, lake: &MutableLake, context: &str) {
    assert!(
        lake.interner().texts() == want.interner().texts(),
        "{context}: interner"
    );
    assert_eq!(
        lake.attribute_count(),
        want.attribute_count(),
        "{context}: attribute ids"
    );
    for a in 0..want.attribute_count() as u32 {
        let id = AttrId(a);
        assert_eq!(
            lake.is_attr_live(id),
            want.is_attr_live(id),
            "{context}: attribute {a}"
        );
        if want.is_attr_live(id) {
            assert_eq!(
                lake.attribute_ref(id),
                want.attribute_ref(id),
                "{context}: attribute {a}"
            );
            assert_eq!(
                lake.attribute_values(id),
                want.attribute_values(id),
                "{context}: values of attribute {a}"
            );
        }
    }
    assert!(
        live_tables(lake) == live_tables(want),
        "{context}: live tables"
    );
}

/// Assert that `engine` holds `live`'s lakes shard by shard, id for id,
/// and serves its epochs, counts and per-shard rankings (order, score
/// bits, attribute counts and cardinalities) of every served measure.
fn assert_same_as_live(engine: &Engine, live: &Engine, context: &str) {
    assert_eq!(
        engine.shards.len(),
        live.shards.len(),
        "{context}: shard counts"
    );
    for (shard, ((lake, _), (want, _))) in engine.shards.iter().zip(&live.shards).enumerate() {
        assert_lakes_equal(
            want,
            lake,
            &format!("{context} shard {shard} against the live engine"),
        );
    }
    let (Some(view), Some(want)) = (&engine.view, &live.view) else {
        return;
    };
    assert_eq!(view.epoch(), want.epoch(), "{context}: epoch");
    for shard in 0..want.shard_count() {
        let (own, want) = (view.shard(shard), want.shard(shard));
        assert_eq!(own.stats(), want.stats(), "{context} shard {shard}");
        for &measure in want.measures() {
            let a = own.ranking(measure).expect("a served measure");
            let b = want.ranking(measure).expect("a served measure");
            assert_eq!(
                a.len(),
                b.len(),
                "{context} shard {shard}: {measure:?} ranking sizes"
            );
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(
                    x.value, y.value,
                    "{context} shard {shard}: {measure:?} order"
                );
                assert!(
                    x.score.to_bits() == y.score.to_bits(),
                    "{context} shard {shard}: {measure:?} {} scored {} against the live {}",
                    x.value,
                    x.score,
                    y.score
                );
                assert_eq!(
                    x.attribute_count, y.attribute_count,
                    "{context}: {}",
                    x.value
                );
                assert_eq!(x.cardinality, y.cardinality, "{context}: {}", x.value);
            }
        }
    }
}

/// Assert that `net` is a fresh build of `lake`: the same CSR arrays,
/// value and attribute labels, node counts and connected components, and
/// the same raw scores bit for bit under LCC, exact BC, sampled BC (8
/// sources, seed 7) and every measure `net` holds scores for. `net` itself
/// is left as it was: a measure it has not scored is scored on a clone.
pub fn assert_net_is_a_fresh_build(lake: &MutableLake, net: &DomainNet, context: &str) {
    let fresh = DomainNetBuilder::new()
        .prune_single_attribute_values(net.config().prune_single_attribute_values)
        .build(lake);
    let (kept, built) = (net.graph(), fresh.graph());
    kept.validate()
        .unwrap_or_else(|e| panic!("{context}: CSR: {e}"));
    assert_eq!(
        kept.csr_offsets(),
        built.csr_offsets(),
        "{context}: offsets"
    );
    assert_eq!(
        kept.csr_adjacency(),
        built.csr_adjacency(),
        "{context}: adjacency"
    );
    assert_eq!(kept.value_labels(), built.value_labels(), "{context}");
    for index in 0..kept.attribute_count() as u32 {
        assert_eq!(
            kept.attribute_label(index),
            built.attribute_label(index),
            "{context}: label of attribute index {index}"
        );
    }
    assert_eq!(net.candidate_count(), fresh.candidate_count(), "{context}");
    assert_eq!(net.attribute_count(), fresh.attribute_count(), "{context}");
    let (kept, built) = (net.components(), fresh.components());
    assert_eq!(kept.labels, built.labels, "{context}: component labels");
    assert_eq!(kept.sizes, built.sizes, "{context}: component sizes");

    let mut scored = vec![
        Measure::lcc(),
        Measure::exact_bc(),
        Measure::approx_bc(8, 7),
    ];
    for (measure, _) in net.export_state().caches.raw {
        if !scored.contains(&measure) {
            scored.push(measure);
        }
    }
    let net = net.clone();
    for measure in scored {
        let (maintained, rebuilt) = (net.raw_scores(measure), fresh.raw_scores(measure));
        assert_eq!(maintained.len(), rebuilt.len(), "{context}");
        for (node, (a, b)) in maintained.iter().zip(&rebuilt).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{context}: {} of node {node} is {a}, a fresh build's {b}",
                measure.name()
            );
        }
    }
}
