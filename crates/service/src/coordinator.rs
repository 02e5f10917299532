//! Scatter-gather coordination over N component-sharded engines.
//!
//! DomainNet's scores are *component-local*: LCC is a function of a
//! value's neighborhood and BC is computed per connected component, so a
//! shard that owns whole components computes exactly the scores the
//! global engine would. The coordinator exploits that:
//!
//! ```text
//!             ┌────────────────────────────────────────────┐
//!   deltas ──►│ Coordinator (routing + rebalance)          │
//!             │   shard 0        shard 1       shard N-1   │
//!             │  ┌─────────┐   ┌─────────┐   ┌─────────┐   │
//!             │  │ Writer  │   │ Writer  │   │ Writer  │   │ one engine,
//!             │  │ lake+net│   │ lake+net│   │ lake+net│   │ WAL, store dir
//!             │  │ WAL/dir │   │ WAL/dir │   │ WAL/dir │   │ and epoch each
//!             │  └────┬────┘   └────┬────┘   └────┬────┘   │
//!             └───────┼────────────┼─────────────┼─────────┘
//!                     ▼            ▼             ▼
//!   queries ◄── MultiView { epoch, [Arc<Snapshot>; N] }  (swapped atomically)
//! ```
//!
//! ## Invariant and routing
//!
//! **A live value exists on exactly one shard** — components never span
//! shards. Each [`lake::LakeOp`] routes by what it touches:
//!
//! * `AddTable` — probe every shard's lake for the table's distinct
//!   values. Zero hits: the table starts a new component, assigned to the
//!   least-loaded shard. One hit: route there. Multiple hits: the new
//!   table *merges* components across shards — the connected components
//!   reachable from the shared values migrate into one target shard
//!   first, then the op applies there.
//! * `RemoveTable` / `ReplaceValue` — route to the shard owning the
//!   table. A replacement value that is live on another shard triggers
//!   the same migration into the table's home shard. Component *splits*
//!   need no movement: both halves stay co-resident, and co-residency
//!   never changes a score.
//!
//! Migrations re-home tables with ordinary deltas (add to target, then
//! remove from source) logged in each shard's own WAL, guarded by a
//! durable rebalance-intent file. A live move and a move a crash left
//! half done run one executor over that intent, so recovery finishes the
//! move instead of leaving one component split across two shards.
//!
//! ## Epochs
//!
//! The coordinator epoch is the **sum of the shard epochs** — monotone,
//! and recoverable shard-by-shard from the per-shard WAL epoch tags. With
//! one shard it is that shard's own epoch numbering, which is part of
//! the shard-count=1 bit-identity contract. Readers pin an
//! [`Arc<MultiView>`] (the coordinator epoch plus one snapshot per
//! shard, swapped atomically on publish), so a reader never observes a
//! mixture of shard epochs.
//!
//! ## Batch semantics
//!
//! One path at every shard count: ops are **routed one at a time** in
//! stage order against the committed shard lakes and gathered into one
//! [`LakeDelta`] per shard; each gathered batch is **committed once** —
//! one WAL record, one fold, one BC pass per touched component. Routing
//! must see the state op-by-op commits would. A value a gathered
//! `AddTable` made live is routing state (*placed* on that table's
//! shard): a table or replacement meeting placed values on one shard p
//! only, and committed state on no other shard, goes to p with no flush,
//! so a chain of tables sharing new values is one commit per shard.
//! Otherwise the gathered batches are flushed (committed in ascending
//! shard order) at four points:
//!
//! * before routing an op whose probes hit what a gathered op changed:
//!   an `AddTable` whose name is pending or any of whose values a gathered
//!   `RemoveTable` or `ReplaceValue` touched, a `RemoveTable` whose name
//!   is pending, a `ReplaceValue` whose table or replacement is;
//! * before placing a brand-new component (least-loaded placement reads
//!   incidence counts), or an op whose placed values span shards or meet
//!   committed state elsewhere, then the op is re-routed;
//! * before a migration (it reads whole components and keeps its intent
//!   protocol), then the op is re-routed;
//! * at the end of the commit.
//!
//! With one shard every op routes to shard 0 whatever is pending, so only
//! the last flush runs: the staged batch becomes one WAL record holding
//! one concatenated delta and one fold. Cross-delta cancellation holds,
//! since applying N deltas in one batch equals applying their
//! concatenation. A staged batch without ops commits nothing.
//!
//! Every table therefore lands where op-by-op commits would put it, and
//! the per-shard WAL records are what recovery and replication replay.
//! **Errors:** an op the lake refuses stops its shard's batch there, with
//! that batch's earlier ops applied (as within one shard); batches already
//! flushed stay applied; gathered batches of later shards are dropped.
//! There is no cross-shard rollback, the refusing shard resyncs per the
//! engine's own semantics, and nothing publishes until
//! [`Coordinator::publish`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};

use dn_store::{Store, StorePresence};
use dn_trace::metrics::{
    Counter, Exposition, CACHE_HITS, CACHE_HIT_RATE, CACHE_MISSES, SERVER_EPOCH,
    SERVER_EPOCHS_PUBLISHED, SHARD_EPOCH, SHARD_STORE_SNAPSHOTS, SHARD_WAL_RECORD_BYTES,
    STORE_SNAPSHOTS, WAL_RECORD_BYTES,
};
use domainnet::{DeltaStats, Measure, ScoredValue};
use lake::delta::{LakeDelta, LakeOp, MutableLake};
use lake::table::Table;
use lake::value::normalize;

use crate::cache::{CacheStats, TopKReads};
use crate::engine::{
    serve, serve_durable, serve_from_dir, CheckpointPolicy, ServiceConfig, ServiceError,
    StoreGauges, Writer,
};
use crate::snapshot::{ScoreCard, Snapshot, SnapshotStats, TableSummary, ValueExplanation};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Serve a lake across `shards` independent engines behind a coordinator.
///
/// The lake's live tables are partitioned by connected component (tables
/// transitively linked through shared values stay together) and each
/// shard builds its own engine over its sub-lake. With `shards == 1` the
/// lake is passed through untouched, so the single shard holds exactly the
/// ids, generation, and rankings of an unsharded build.
pub fn serve_sharded(
    lake: MutableLake,
    config: ServiceConfig,
    shards: usize,
) -> (CoordinatorHandle, Coordinator) {
    let writers = build_shards(lake, shards, &config, |_, sub| serve(sub, &config));
    build_coordinator(writers, config, None)
}

/// Like [`serve_sharded`], but durable: the root directory gains a shard
/// manifest (written first, atomically) plus one full store per shard
/// under `shard-<i>/`, each with its own WAL and checkpoint cadence.
///
/// # Errors
/// [`ServiceError::Store`] when the root already holds a store (sharded
/// or legacy single-engine) or a shard store cannot be initialized.
pub fn serve_sharded_durable(
    lake: MutableLake,
    config: ServiceConfig,
    root: impl Into<PathBuf>,
    policy: CheckpointPolicy,
    shards: usize,
) -> Result<(CoordinatorHandle, Coordinator), ServiceError> {
    let root = root.into();
    if dn_store::sharded_store_exists(&root) || Store::exists(&root) {
        return Err(ServiceError::Store(dn_store::StoreError::corrupt(format!(
            "{} already holds a store (recover with serve_sharded_from_dir)",
            root.display()
        ))));
    }
    dn_store::write_shard_manifest(&root, shards.max(1))?;
    let writers = build_shards(lake, shards, &config, |i, sub| {
        serve_durable(sub, &config, dn_store::shard_dir(&root, i), policy)
    })
    .into_iter()
    .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(build_coordinator(writers, config, Some(root)))
}

/// Recover a sharded coordinator from its root directory: read the
/// manifest, recover every shard store independently (snapshot load + WAL
/// replay), and resume the coordinator epoch as the sum of the recovered
/// shard epochs.
///
/// Recovery is deliberately tolerant of a crash at any point of the
/// sharded lifecycle: a shard directory that is missing or holds only an
/// aborted initialization (record-free WAL, no snapshot) is rebuilt as a
/// fresh empty shard — nothing acknowledged can live there, because a
/// shard acknowledges a commit only after its own WAL append — and a
/// shard killed mid-checkpoint falls back to its previous snapshot plus
/// WAL suffix via the store's own recovery. A rebalance-intent file left
/// by a crash mid-migration is completed here (and published) before the
/// coordinator accepts traffic, restoring the one-shard-per-component
/// invariant.
///
/// # Errors
/// [`ServiceError::Store`] when the root holds no shard manifest or a
/// shard fails validation; [`ServiceError::Maintenance`] when the
/// recovered shards violate table-ownership invariants beyond what the
/// intent file explains.
pub fn serve_sharded_from_dir(
    root: impl Into<PathBuf>,
    config: ServiceConfig,
    policy: CheckpointPolicy,
) -> Result<(CoordinatorHandle, Coordinator), ServiceError> {
    let root = root.into();
    let (handle, mut coordinator) = recover_shards_lenient(&root, config, policy)?;
    if let Some(intent) = dn_store::read_rebalance_intent(&root)? {
        coordinator.run_rebalance(&intent)?;
        if !coordinator.dirty.is_empty() {
            coordinator.publish();
        }
        dn_store::clear_rebalance_intent(&root)?;
    }
    coordinator.verify_table_ownership()?;
    Ok((handle, coordinator))
}

/// The recovery body proper, and on its own the follower-side recovery:
/// [`serve_sharded_from_dir`] without rebalance-intent completion or
/// table-ownership verification. A replica replays the primary's
/// per-shard logs *as shipped*, and a cross-shard migration is two records
/// in two different logs — so between applying them a follower
/// legitimately holds the table on both shards (or neither). The primary
/// already enforced the invariants when it committed; re-checking them
/// mid-window would reject valid replica states.
/// [`Coordinator::table_owner`] resolves such a duplicate to the
/// lowest-index shard, as the read side does, and converges once the
/// second migration record is applied.
pub(crate) fn recover_shards_lenient(
    root: &Path,
    config: ServiceConfig,
    policy: CheckpointPolicy,
) -> Result<(CoordinatorHandle, Coordinator), ServiceError> {
    let manifest = dn_store::read_shard_manifest(root)?.ok_or_else(|| {
        ServiceError::Store(dn_store::StoreError::corrupt(format!(
            "{} holds no shard manifest (not a sharded store)",
            root.display()
        )))
    })?;
    let ctx = dn_trace::current();
    let writers = dn_pool::Pool::new(config.threads.max(1))
        .run(manifest.shards, |i| {
            let _replay = ctx.enter(dn_trace::Phase::PoolWalReplay, format_args!("shard{i}"));
            recover_shard_writer(dn_store::shard_dir(root, i), &config, policy)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(build_coordinator(writers, config, Some(root.to_path_buf())))
}

/// Partition `lake` into `shards` (at least one) sub-lakes and run `build`
/// over them on the worker pool, one call per shard, results in shard
/// order.
fn build_shards<T: Send>(
    lake: MutableLake,
    shards: usize,
    config: &ServiceConfig,
    build: impl Fn(usize, MutableLake) -> T + Sync,
) -> Vec<T> {
    let mut subs: Vec<Option<MutableLake>> = partition_lake(lake, shards.max(1))
        .into_iter()
        .map(Some)
        .collect();
    dn_pool::Pool::new(config.threads.max(1)).run_over_mut(&mut subs, |i, sub| {
        build(i, sub.take().expect("each sub-lake is built exactly once"))
    })
}

/// Bring one shard store back up, whatever state a crash left it in:
/// recover a real store, build a fresh empty shard where nothing was ever
/// acknowledged, and clear out an aborted initialization (record-free WAL,
/// no snapshot) before rebuilding. Shards fan out over the worker pool —
/// each shard's recovery touches only its own directory.
fn recover_shard_writer(
    dir: PathBuf,
    config: &ServiceConfig,
    policy: CheckpointPolicy,
) -> Result<Writer, ServiceError> {
    match Store::probe(&dir)? {
        StorePresence::Recoverable => serve_from_dir(dir, config, policy, Arc::default()),
        StorePresence::Fresh => serve_durable(MutableLake::new(), config, dir, policy),
        StorePresence::AbortedInit { wal_path } => {
            std::fs::remove_file(&wal_path).map_err(|e| {
                ServiceError::Store(dn_store::StoreError::io_with_path(e, wal_path))
            })?;
            serve_durable(MutableLake::new(), config, dir, policy)
        }
    }
}

/// Shared tail of the entry points: wrap the shards in a coordinator and
/// publish the initial [`MultiView`].
fn build_coordinator(
    shards: Vec<Writer>,
    config: ServiceConfig,
    root_dir: Option<PathBuf>,
) -> (CoordinatorHandle, Coordinator) {
    let reads = Arc::new(TopKReads::default());
    let placeholder = Arc::new(MultiView::new(0, Vec::new(), 1, Arc::clone(&reads)));
    let store_gauges = shards.iter().filter_map(Writer::store_gauges).collect();
    let mut coordinator = Coordinator {
        shards,
        dirty: BTreeSet::new(),
        staged: Vec::new(),
        epoch: 0,
        shared: Arc::new(CoordShared {
            current: RwLock::new(placeholder),
            reads,
            epochs_published: Counter::default(),
            store_gauges,
        }),
        root_dir,
        threads: config.threads.max(1),
    };
    coordinator.install_view();
    (coordinator.handle(), coordinator)
}

// ---------------------------------------------------------------------------
// Component partitioning (shared by the entry points and migration)
// ---------------------------------------------------------------------------

/// Union-find with path halving; roots are always the smallest member
/// index, so grouping is deterministic.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root below the smaller: the component
            // representative is its lowest table index.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Group a lake's live tables into connected components via shared
/// values. Returns the live table names (original order), each name's
/// component root index and its distinct-value count (summed over its
/// columns, off the lake's index).
fn table_components(lake: &MutableLake) -> (Vec<String>, Vec<usize>, Vec<usize>) {
    let names: Vec<String> = lake
        .live_table_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut uf = UnionFind::new(names.len());
    let mut weights = vec![0; names.len()];
    let mut first_table_of_value: HashMap<usize, usize> = HashMap::new();
    for (attr, values) in lake.live_attribute_values() {
        let table = lake
            .attribute_ref(attr)
            .expect("live attribute has a table reference")
            .table;
        let t = index[table.as_str()];
        weights[t] += values.len();
        for &v in values {
            match first_table_of_value.entry(v.index()) {
                std::collections::hash_map::Entry::Occupied(e) => uf.union(*e.get(), t),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(t);
                }
            }
        }
    }
    let roots: Vec<usize> = (0..names.len()).map(|i| uf.find(i)).collect();
    (names, roots, weights)
}

/// Split a lake into `shards` sub-lakes along component boundaries.
///
/// Components are assigned greedily (in order of first appearance) to the
/// shard with the least accumulated distinct-value weight, which is
/// deterministic and keeps shards roughly balanced. With `shards == 1`
/// the input lake is returned untouched — the bit-identity anchor.
fn partition_lake(lake: MutableLake, shards: usize) -> Vec<MutableLake> {
    if shards <= 1 {
        return vec![lake];
    }
    let (names, roots, weights) = table_components(&lake);
    // Component weight = sum of its tables' distinct-value counts.
    let mut weight_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    for (&root, &weight) in roots.iter().zip(&weights) {
        *weight_of_root.entry(root).or_insert(0) += weight;
    }
    // Greedy assignment in root order (= first-appearance order).
    let mut load = vec![0usize; shards];
    let mut shard_of_root: HashMap<usize, usize> = HashMap::new();
    for (&root, &weight) in &weight_of_root {
        let target = (0..shards)
            .min_by_key(|&s| (load[s], s))
            .expect(">=1 shard");
        load[target] += weight;
        shard_of_root.insert(root, target);
    }
    let mut lakes: Vec<MutableLake> = (0..shards).map(|_| MutableLake::new()).collect();
    for (i, name) in names.iter().enumerate() {
        let target = shard_of_root[&roots[i]];
        let table = lake.table(name).expect("live table").clone();
        lakes[target]
            .apply(&LakeDelta::new().add_table(table))
            .expect("repartitioned table re-applies cleanly");
    }
    lakes
}

/// The live tables of `lake` transitively connected to any of
/// `trigger_values` (normalized) — the move-set of a cross-shard merge.
fn connected_tables(lake: &MutableLake, trigger_values: &[String]) -> Vec<String> {
    let (names, roots, _) = table_components(lake);
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut hit_roots: HashSet<usize> = HashSet::new();
    for value in trigger_values {
        if let Some(id) = lake.value_id(value) {
            for &attr in lake.value_attributes(id) {
                if let Some(aref) = lake.attribute_ref(attr) {
                    hit_roots.insert(roots[index[aref.table.as_str()]]);
                }
            }
        }
    }
    names
        .into_iter()
        .enumerate()
        .filter(|(i, _)| hit_roots.contains(&roots[*i]))
        .map(|(_, n)| n)
        .collect()
}

/// The distinct (normalized) values of `table`'s columns, sorted and
/// deduplicated: `commit` derives an `AddTable`'s once, for every probe.
fn distinct_values(table: &Table) -> Vec<String> {
    let columns = table.columns().iter().map(|c| c.distinct_values());
    let values: BTreeSet<String> = columns
        .flat_map(|d| d.iter().map(str::to_owned).collect::<Vec<_>>())
        .collect();
    values.into_iter().collect()
}

/// Where [`Coordinator::route`] sends one op.
enum Route {
    /// Apply on this shard.
    Shard(usize),
    /// A table touching no live value: a new component, placed on the
    /// least-loaded shard.
    New,
    /// The op merges components across shards: move the components of
    /// `sources` connected to `values` into `target`, then apply there.
    Migrate {
        target: usize,
        sources: Vec<usize>,
        values: Vec<String>,
    },
}

/// What the gathered, uncommitted ops of a commit change. Routing reads
/// the committed shard lakes plus `placed`, so an op whose probes touch
/// `tables` or `values` flushes the gathered batches first.
///
/// Flushes exist only so that routing reads op-by-op state. With one
/// shard every op routes to shard 0 whatever is pending, so a one-shard
/// `Pending` records nothing and never asks for an early flush.
struct Pending {
    /// Whether routing can read gathered state: more than one shard.
    routing_reads_it: bool,
    /// Tables gathered `AddTable`/`RemoveTable` ops add or remove.
    tables: HashSet<String>,
    /// Normalized values whose liveness a gathered `RemoveTable` or
    /// `ReplaceValue` may change.
    values: HashSet<String>,
    /// Normalized values of gathered `AddTable`s and the shard each table
    /// went to: op-by-op state holds them live there, and nowhere else.
    placed: HashMap<String, usize>,
}

impl Pending {
    fn new(shards: usize) -> Pending {
        Pending {
            routing_reads_it: shards > 1,
            tables: HashSet::new(),
            values: HashSet::new(),
            placed: HashMap::new(),
        }
    }

    fn clear(&mut self) {
        self.tables.clear();
        self.values.clear();
        self.placed.clear();
    }

    fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.values.is_empty()
    }

    /// Whether a gathered op changed what routing `op` probes in a way
    /// `placed` does not record: a table it names, or a value whose
    /// liveness a gathered `RemoveTable` or `ReplaceValue` changed.
    fn hit(&self, op: &LakeOp, values: &[String]) -> bool {
        match op {
            LakeOp::AddTable(table) => {
                self.tables.contains(table.name()) || values.iter().any(|v| self.values.contains(v))
            }
            LakeOp::RemoveTable(name) => self.tables.contains(name),
            LakeOp::ReplaceValue {
                table, replacement, ..
            } => self.tables.contains(table) || self.values.contains(&normalize(replacement)),
        }
    }

    /// The shards gathered `AddTable`s placed the values `op` probes on,
    /// ascending.
    fn placed_on(&self, op: &LakeOp, values: &[String]) -> Vec<usize> {
        let mut shards: Vec<usize> = match op {
            LakeOp::AddTable(_) => values
                .iter()
                .filter_map(|v| self.placed.get(v).copied())
                .collect(),
            LakeOp::RemoveTable(_) => Vec::new(),
            LakeOp::ReplaceValue { replacement, .. } => self
                .placed
                .get(&normalize(replacement))
                .copied()
                .into_iter()
                .collect(),
        };
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Record what `op` (probing `values`), gathered for `shard`, whose
    /// committed lake is `owner`, changes.
    fn note(&mut self, op: &LakeOp, values: Vec<String>, shard: usize, owner: &MutableLake) {
        if !self.routing_reads_it {
            return;
        }
        match op {
            LakeOp::AddTable(table) => {
                self.tables.insert(table.name().to_owned());
                self.placed.extend(values.into_iter().map(|v| (v, shard)));
            }
            LakeOp::RemoveTable(name) => {
                self.tables.insert(name.clone());
                if let Some(table) = owner.table(name) {
                    self.values.extend(distinct_values(table));
                }
            }
            LakeOp::ReplaceValue {
                target,
                replacement,
                ..
            } => {
                self.values.insert(target.clone());
                self.values.insert(normalize(replacement));
            }
        }
    }
}

/// Sum the stats of a batch's shard commits. A node count is the values or
/// attributes that gained a node in that commit, so a value that loses its
/// node in one commit and gains it back in a later one counts once per
/// gain.
fn add_stats(total: &mut DeltaStats, part: DeltaStats) {
    total.value_nodes_added += part.value_nodes_added;
    total.attr_nodes_added += part.attr_nodes_added;
    total.edges_added += part.edges_added;
    total.edges_removed += part.edges_removed;
    total.dirty_values += part.dirty_values;
    total.touched_components += part.touched_components;
    total.touched_component_nodes += part.touched_component_nodes;
}

// ---------------------------------------------------------------------------
// MultiView: the atomically published cross-shard snapshot set
// ---------------------------------------------------------------------------

/// One coordinator epoch's worth of shard snapshots, published and pinned
/// as a unit so readers never observe a mixture of shard epochs. All
/// scatter-gather query merging lives here, the global ranking included.
#[derive(Debug)]
pub struct MultiView {
    epoch: u64,
    shards: Vec<Arc<Snapshot>>,
    /// Worker threads for scatter phases (inherited from the coordinator's
    /// [`ServiceConfig::threads`]). Fan-out only engages with more than one
    /// shard *and* more than one thread; answers are identical either way.
    threads: usize,
    /// The global order under each served measure (indexed like
    /// [`MultiView::measures`]) as `(shard, position in its ranking)`.
    orders: Vec<OnceLock<Vec<(u32, u32)>>>,
    /// The coordinator's top-k read counters, shared by all its views.
    reads: Arc<TopKReads>,
}

impl MultiView {
    fn new(epoch: u64, shards: Vec<Arc<Snapshot>>, threads: usize, reads: Arc<TopKReads>) -> Self {
        let measures = shards.first().map_or(0, |s| s.measures().len());
        MultiView {
            epoch,
            shards,
            threads,
            orders: (0..measures).map(|_| OnceLock::new()).collect(),
            reads,
        }
    }

    /// The coordinator epoch this view was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards in this view.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The pinned snapshot of one shard.
    pub fn shard(&self, i: usize) -> &Arc<Snapshot> {
        &self.shards[i]
    }

    /// Probe every shard and return the answers **in shard order**,
    /// fanning the probes out over the view's worker pool. `Pool::run`
    /// degenerates to an inline sequential loop for one shard or one
    /// thread, so the answers (and their order) are identical either way.
    fn scatter<'a, T: Send>(&'a self, probe: impl Fn(&'a Snapshot) -> T + Sync) -> Vec<T> {
        let _scatter = dn_trace::span(dn_trace::Phase::CoordScatter);
        // Pool workers run on their own threads; carry the trace across
        // explicitly so the per-shard probe spans nest under the scatter.
        let ctx = dn_trace::current();
        dn_pool::Pool::new(self.threads).run(self.shards.len(), |i| {
            let _probe = ctx.enter(dn_trace::Phase::ShardQuery, format_args!("shard{i}"));
            probe(&self.shards[i])
        })
    }

    /// The measures every shard serves (all shards share one config).
    pub fn measures(&self) -> &[Measure] {
        self.shards[0].measures()
    }

    /// Aggregate counts across the shards. `epoch` is the coordinator
    /// epoch; additive counters (nodes, edges, candidates, components,
    /// generations) are summed.
    pub fn stats(&self) -> SnapshotStats {
        let mut total = SnapshotStats {
            epoch: self.epoch,
            generation: 0,
            node_count: 0,
            value_nodes: 0,
            attribute_nodes: 0,
            edge_count: 0,
            live_candidates: 0,
            component_count: 0,
        };
        for shard in &self.shards {
            let s = shard.stats();
            total.generation += s.generation;
            total.node_count += s.node_count;
            total.value_nodes += s.value_nodes;
            total.attribute_nodes += s.attribute_nodes;
            total.edge_count += s.edge_count;
            total.live_candidates += s.live_candidates;
            total.component_count += s.component_count;
        }
        total
    }

    /// Globally merged top-`k` under a measure: the first `k` entries of
    /// the view's global order, which the view's first top-k read of the
    /// measure merges (a miss; every other read is a hit, and concurrent
    /// first readers wait for the one merge). `None` when the measure is
    /// not served.
    pub fn top_k(&self, measure: Measure, k: usize) -> Option<Vec<ScoredValue>> {
        let rankings: Vec<&Arc<Vec<ScoredValue>>> = self
            .shards
            .iter()
            .map(|s| s.ranking(measure))
            .collect::<Option<_>>()?;
        let slot = &self.orders[self.measures().iter().position(|&m| m == measure)?];
        let mut merged = false;
        let order = slot.get_or_init(|| {
            merged = true;
            self.merge(measure)
        });
        let read = if merged {
            &self.reads.misses
        } else {
            &self.reads.hits
        };
        read.inc();
        let entry = |&(shard, pos): &(u32, u32)| rankings[shard as usize][pos as usize].clone();
        Some(order.iter().take(k).map(entry).collect())
    }

    /// The exact k-way merge of the shard rankings under the measure's
    /// total order, run to the end: a stable sort of the rankings laid end
    /// to end in shard order. Each is sorted already, so the sort merges
    /// them, and a tie goes to the lower shard.
    fn merge(&self, measure: Measure) -> Vec<(u32, u32)> {
        let rankings = self.scatter(|s| s.ranking(measure).map_or(&[][..], |r| r.as_slice()));
        let _merge = dn_trace::span(dn_trace::Phase::CoordMerge);
        // Ranks are u32 throughout a snapshot (`rank_of_node`).
        let mut order: Vec<(u32, u32)> = (0..rankings.len() as u32)
            .flat_map(|shard| {
                (0..rankings[shard as usize].len() as u32).map(move |pos| (shard, pos))
            })
            .collect();
        let entry = |&(shard, pos): &(u32, u32)| &rankings[shard as usize][pos as usize];
        order.sort_by(|a, b| measure.rank_order(entry(a), entry(b)));
        order
    }

    /// Score, **global** rank, and **global** percentile of one value.
    ///
    /// The owning shard's card supplies the score (bit-identical to the
    /// unsharded engine's — components never span shards); rank and
    /// percentile are then corrected globally: the global rank is one
    /// plus the number of entries across *all* shard rankings ordered
    /// strictly before this value under the measure's total order
    /// (counted by binary search — the rankings are sorted by exactly
    /// that order), and the percentile is recomputed from the global
    /// rank and the global candidate count, reproducing the unsharded
    /// `100 * (of - rank) / of` to the bit.
    pub fn score_card(&self, measure: Measure, value: &str) -> Option<ScoreCard> {
        let (owner, mut card) = self
            .scatter(|s| s.score_card(measure, value))
            .into_iter()
            .enumerate()
            .find_map(|(i, c)| c.map(|c| (i, c)))?;
        let target = ScoredValue {
            value: card.value.clone(),
            score: card.score,
            attribute_count: card.attribute_count,
            cardinality: card.cardinality,
        };
        let rankings = self.scatter(|s| s.ranking(measure));
        let mut of = 0usize;
        let mut before = 0usize;
        for (i, ranking) in rankings.into_iter().enumerate() {
            let ranking = ranking?;
            of += ranking.len();
            if i == owner {
                before += card.rank - 1;
            } else {
                before += ranking.partition_point(|e| measure.rank_order(e, &target).is_lt());
            }
        }
        card.rank = before + 1;
        card.of = of;
        card.percentile = 100.0 * (of - card.rank) as f64 / of as f64;
        Some(card)
    }

    /// The attribute-neighborhood explanation of a value.
    ///
    /// On a healthy primary exactly one shard can answer — components
    /// never span shards — so shard order cannot matter. A **follower**
    /// mid-migration-replay is the documented exception: a cross-shard
    /// move is two records in two different logs, and between them the
    /// value legitimately exists on both shards (see the lenient
    /// follower-side recovery, `recover_shards_lenient`). The ambiguity is resolved
    /// deterministically: **the lowest-index answering shard wins**, every
    /// probe is evaluated (no short-circuit racing the fan-out), and the
    /// same rule governs [`MultiView::table_summary`] and
    /// [`Coordinator::table_owner`], so one request never mixes two shards'
    /// views of a half-moved component.
    pub fn explain(&self, value: &str) -> Option<ValueExplanation> {
        self.scatter(|s| s.explain(value))
            .into_iter()
            .flatten()
            .next()
    }

    /// Sorted names of the live tables across all shards.
    pub fn table_names(&self) -> Vec<String> {
        let per_shard = self.scatter(|s| s.table_names().map(str::to_owned).collect::<Vec<_>>());
        let mut names: BTreeSet<String> = BTreeSet::new();
        for shard_names in per_shard {
            names.extend(shard_names);
        }
        names.into_iter().collect()
    }

    /// Summary of one table, answered by the shard that owns it. All
    /// summary fields are table-local, so the shard's answer is the
    /// global answer. Duplicate ownership (a follower mid-migration)
    /// resolves to the lowest-index answering shard, exactly as
    /// [`MultiView::explain`] documents.
    pub fn table_summary(&self, table: &str, measure: Measure, k: usize) -> Option<TableSummary> {
        self.scatter(|s| s.table_summary(table, measure, k))
            .into_iter()
            .flatten()
            .next()
    }

    /// Check every shard snapshot's internal consistency plus the
    /// cross-shard invariant that no live value appears on two shards.
    pub fn verify_consistency(&self) -> Result<(), String> {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .verify_consistency()
                .map_err(|e| format!("shard {i}: {e}"))?;
            let Some(&measure) = shard.measures().first() else {
                continue;
            };
            let ranking = shard
                .ranking(measure)
                .ok_or_else(|| format!("shard {i}: first measure has no ranking"))?;
            for scored in ranking.iter() {
                if let Some(&other) = seen.get(scored.value.as_str()) {
                    return Err(format!(
                        "value '{}' is live on shards {other} and {i}",
                        scored.value
                    ));
                }
                seen.insert(scored.value.as_str(), i);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Handle + reader
// ---------------------------------------------------------------------------

struct CoordShared {
    current: RwLock<Arc<MultiView>>,
    reads: Arc<TopKReads>,
    epochs_published: Counter,
    /// One entry per shard of a durable coordinator (empty otherwise),
    /// written by the shards.
    store_gauges: Vec<Arc<StoreGauges>>,
}

impl CoordShared {
    fn current(&self) -> Arc<MultiView> {
        Arc::clone(&self.current.read().expect("multiview pointer lock"))
    }
}

/// Cloneable read-side handle onto a sharded coordinator: mints
/// [`CoordinatorReader`]s and reports aggregate stats.
#[derive(Clone)]
pub struct CoordinatorHandle {
    shared: Arc<CoordShared>,
}

impl CoordinatorHandle {
    /// A new reader, pinned to the current view.
    pub fn reader(&self) -> CoordinatorReader {
        CoordinatorReader {
            pinned: self.shared.current(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current view (for one-off queries).
    pub fn current(&self) -> Arc<MultiView> {
        self.shared.current()
    }

    /// The current coordinator epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch()
    }

    /// Number of views published so far (the initial one included).
    pub fn epochs_published(&self) -> u64 {
        self.shared.epochs_published.get()
    }

    /// Counters of the merged top-k reads, with the current view's merged
    /// orders as `entries` and its served measures as `capacity`.
    pub fn cache_stats(&self) -> CacheStats {
        let view = self.shared.current();
        CacheStats {
            hits: self.shared.reads.hits.get(),
            misses: self.shared.reads.misses.get(),
            entries: view.orders.iter().filter(|o| o.get().is_some()).count(),
            capacity: view.orders.len(),
        }
    }

    /// Number of shards behind this handle.
    pub fn shard_count(&self) -> usize {
        self.shared.current().shard_count()
    }

    /// Write the engine families: epochs, the merged top-k reads, and —
    /// for a durable coordinator — the store sizes its shards publish.
    /// Reads the published view and atomics only, never the writer.
    pub fn export_metrics(&self, w: &mut Exposition) {
        let view = self.shared.current();
        let cache = self.cache_stats();
        let stores = &self.shared.store_gauges;
        w.value(&SERVER_EPOCH, &[], view.epoch());
        w.value(&SERVER_EPOCHS_PUBLISHED, &[], self.epochs_published());
        w.value(&CACHE_HITS, &[], cache.hits);
        w.value(&CACHE_MISSES, &[], cache.misses);
        w.value(
            &CACHE_HIT_RATE,
            &[],
            format_args!("{:.6}", cache.hit_rate()),
        );
        if !stores.is_empty() {
            let wal_bytes: u64 = stores.iter().map(|s| s.wal_record_bytes.get()).sum();
            let snapshots: u64 = stores.iter().map(|s| s.snapshots.get()).sum();
            w.value(&WAL_RECORD_BYTES, &[], wal_bytes);
            w.value(&STORE_SNAPSHOTS, &[], snapshots);
        }
        let shard_labels: Vec<String> = (0..view.shard_count()).map(|i| i.to_string()).collect();
        for (i, shard) in shard_labels.iter().enumerate() {
            w.value(&SHARD_EPOCH, &[shard], view.shard(i).epoch());
        }
        for (shard, store) in shard_labels.iter().zip(stores) {
            w.value(
                &SHARD_WAL_RECORD_BYTES,
                &[shard],
                store.wal_record_bytes.get(),
            );
        }
        for (shard, store) in shard_labels.iter().zip(stores) {
            w.value(&SHARD_STORE_SNAPSHOTS, &[shard], store.snapshots.get());
        }
    }
}

/// A reader pinned to one [`MultiView`]. Queries answer entirely from
/// the pinned view; [`CoordinatorReader::pin`] moves to the latest.
pub struct CoordinatorReader {
    shared: Arc<CoordShared>,
    pinned: Arc<MultiView>,
}

impl CoordinatorReader {
    /// Re-pin to the current view, returning its epoch.
    pub fn pin(&mut self) -> u64 {
        self.pinned = self.shared.current();
        self.pinned.epoch()
    }

    /// The pinned view.
    pub fn view(&self) -> &Arc<MultiView> {
        &self.pinned
    }

    /// The pinned coordinator epoch.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch()
    }

    /// Globally merged top-`k`, sliced from the pinned view's global
    /// order. See [`MultiView::top_k`].
    pub fn top_k(&self, measure: Measure, k: usize) -> Option<Arc<Vec<ScoredValue>>> {
        self.pinned.top_k(measure, k).map(Arc::new)
    }

    /// Global score/rank/percentile card. See [`MultiView::score_card`].
    pub fn score_card(&self, measure: Measure, value: &str) -> Option<ScoreCard> {
        self.pinned.score_card(measure, value)
    }

    /// Attribute-neighborhood explanation. See [`MultiView::explain`].
    pub fn explain(&self, value: &str) -> Option<ValueExplanation> {
        self.pinned.explain(value)
    }

    /// Per-table summary. See [`MultiView::table_summary`].
    pub fn table_summary(&self, table: &str, measure: Measure, k: usize) -> Option<TableSummary> {
        self.pinned.table_summary(table, measure, k)
    }

    /// Dump the merged top-`k` ranking under `measure` as CSV (header +
    /// `rank,value,score,attribute_count,cardinality` rows) — the export
    /// the golden-corpus workflow and external diffing tools consume.
    /// Scores are rendered with Rust's shortest-round-trip float
    /// formatting, so re-parsing the CSV recovers them exactly. Returns
    /// the number of data rows written.
    ///
    /// # Errors
    /// [`lake::LakeError::NotFound`] when the pinned view does not serve
    /// `measure`; I/O errors from the underlying writer.
    pub fn export_top_k_csv<W: std::io::Write>(
        &self,
        measure: Measure,
        k: usize,
        out: &mut W,
    ) -> lake::Result<usize> {
        let ranking = self.top_k(measure, k).ok_or_else(|| {
            lake::LakeError::NotFound(format!(
                "measure {measure:?} in the view of epoch {}",
                self.epoch()
            ))
        })?;
        let mut records = Vec::with_capacity(ranking.len() + 1);
        records.push(
            ["rank", "value", "score", "attribute_count", "cardinality"]
                .map(str::to_owned)
                .to_vec(),
        );
        for (i, scored) in ranking.iter().enumerate() {
            records.push(vec![
                (i + 1).to_string(),
                scored.value.clone(),
                scored.score.to_string(),
                scored.attribute_count.to_string(),
                scored.cardinality.to_string(),
            ]);
        }
        lake::csv::write_records(out, &records)?;
        Ok(ranking.len())
    }
}

// ---------------------------------------------------------------------------
// Coordinator (write side)
// ---------------------------------------------------------------------------

/// The unique write-side coordinator: owns the shard [`Writer`]s, routes
/// staged deltas by connected component, rebalances components across
/// shard boundaries when a mutation merges them, and publishes
/// [`MultiView`]s through a stage → commit → publish lifecycle.
/// Single-writer discipline is enforced by ownership — there is exactly
/// one `Coordinator` per store and it is not `Clone`.
pub struct Coordinator {
    shards: Vec<Writer>,
    /// Shards with committed-but-unpublished state.
    dirty: BTreeSet<usize>,
    staged: Vec<LakeDelta>,
    /// Sum of the shard epochs.
    epoch: u64,
    shared: Arc<CoordShared>,
    /// Root of the sharded store for durable coordinators (where the
    /// manifest and rebalance intent live).
    root_dir: Option<PathBuf>,
    /// Worker threads for cross-shard fan-out (checkpointing, and carried
    /// into every published [`MultiView`] for the read side). Always ≥ 1.
    threads: usize,
}

impl Coordinator {
    /// Stage a delta for the next [`Coordinator::commit`].
    pub fn stage(&mut self, delta: LakeDelta) {
        self.staged.push(delta);
    }

    /// Route every staged op and commit it on its shard: one commit per
    /// touched shard, split only at the flush points the [module
    /// docs](self) list. Does **not** publish. The returned
    /// [`DeltaStats`] are summed over the shard commits the batch took,
    /// so a chain gathered into one commit reports one recompute; they
    /// cover the client's ops only (rebalance migrations are internal
    /// bookkeeping and excluded).
    ///
    /// # Errors
    /// A refused op stops its shard's batch (that batch's earlier ops stay
    /// applied, as within one shard); batches flushed before it stay
    /// applied and gathered batches of later shards are dropped. Store
    /// failures during a migration abort the rebalance with the intent
    /// file left in place, so recovery (or the next commit touching the
    /// same values) finishes the move.
    pub fn commit(&mut self) -> Result<DeltaStats, ServiceError> {
        let _commit = dn_trace::span(dn_trace::Phase::CoordCommit);
        let staged = std::mem::take(&mut self.staged);
        let mut total = DeltaStats::default();
        let mut batches = vec![LakeDelta::new(); self.shards.len()];
        let mut pending = Pending::new(self.shards.len());
        for op in staged.iter().flat_map(LakeDelta::ops) {
            let values = match op {
                LakeOp::AddTable(table) => distinct_values(table),
                _ => Vec::new(),
            };
            let route = match self.route_gathered(op, &values, &pending) {
                Some(route) => route,
                None => {
                    self.flush(&mut batches, &mut pending, &mut total)?;
                    self.route(op, &values)
                }
            };
            let shard = match route {
                Route::Shard(shard) => shard,
                Route::New => self.least_loaded_shard(),
                Route::Migrate {
                    target,
                    sources,
                    values,
                } => {
                    self.migrate_into(target, &sources, &values)?;
                    target
                }
            };
            pending.note(op, values, shard, self.shards[shard].lake());
            batches[shard].push(op.clone());
        }
        self.flush(&mut batches, &mut pending, &mut total)?;
        Ok(total)
    }

    /// Publish the committed state: every dirty shard publishes its own
    /// epoch, and one new [`MultiView`] (coordinator epoch = sum of
    /// shard epochs) is swapped in atomically. With nothing dirty, every
    /// shard republishes — a publish always bumps the epoch.
    pub fn publish(&mut self) -> u64 {
        let to_publish: Vec<usize> = if self.dirty.is_empty() {
            (0..self.shards.len()).collect()
        } else {
            std::mem::take(&mut self.dirty).into_iter().collect()
        };
        for i in to_publish {
            self.shards[i].publish();
        }
        self.install_view()
    }

    /// Swap in a [`MultiView`] over the shards' current snapshots (epoch =
    /// sum of shard epochs) and count the publication. The one place a
    /// view becomes visible to readers.
    fn install_view(&mut self) -> u64 {
        self.epoch = self.shards.iter().map(Writer::epoch).sum();
        let view = Arc::new(MultiView::new(
            self.epoch,
            self.shards
                .iter()
                .map(|w| Arc::clone(w.current()))
                .collect(),
            self.threads,
            Arc::clone(&self.shared.reads),
        ));
        *self.shared.current.write().expect("multiview pointer lock") = view;
        self.shared.epochs_published.inc();
        self.epoch
    }

    /// Convenience: stage one delta, commit, and publish.
    pub fn apply_and_publish(
        &mut self,
        delta: LakeDelta,
    ) -> Result<(DeltaStats, u64), ServiceError> {
        self.stage(delta);
        let stats = self.commit()?;
        Ok((stats, self.publish()))
    }

    /// Checkpoint every shard immediately, regardless of policy. Returns
    /// `true` when at least one snapshot was written (`false` only for a
    /// fully non-durable coordinator).
    ///
    /// # Errors
    /// [`ServiceError::Store`] from the first (lowest-index) shard whose
    /// snapshot cannot be written. The shards checkpoint in parallel over
    /// the coordinator's worker pool, so with a multi-shard failure later
    /// shards may also have attempted (and possibly kept) their
    /// checkpoints — each shard's snapshot write is atomic on its own, so
    /// that is safe.
    pub fn checkpoint_now(&mut self) -> Result<bool, ServiceError> {
        let results = dn_pool::Pool::new(self.threads)
            .run_over_mut(&mut self.shards, |_, writer| writer.checkpoint_now());
        let mut any = false;
        for result in results {
            any |= result?;
        }
        Ok(any)
    }

    /// Whether the shards persist commits to a sharded store.
    pub fn is_durable(&self) -> bool {
        self.root_dir.is_some()
    }

    /// The measures every shard warms and publishes.
    pub fn measures(&self) -> &[Measure] {
        self.shards[0].measures()
    }

    /// The current coordinator epoch (sum of the shard epochs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only access to one shard: its epoch, live lake and net, and
    /// store counters (WAL bytes, last sequence, WAL suffixes and snapshot
    /// bytes for shipping).
    ///
    /// # Panics
    /// When `shard >= self.shard_count()`.
    pub fn shard(&self, shard: usize) -> &Writer {
        &self.shards[shard]
    }

    /// Total WAL record bytes across the shards.
    pub fn wal_record_bytes(&self) -> u64 {
        self.shards.iter().map(Writer::wal_record_bytes).sum()
    }

    /// Which shard owns a live table, read off the shard lakes. A table
    /// live on two shards (a follower between the two records of a
    /// migration) belongs to the lowest-index one, the shard
    /// [`MultiView::table_summary`] answers from.
    pub fn table_owner(&self, table: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|w| w.lake().table(table).is_some())
    }

    /// A read handle onto this coordinator.
    pub fn handle(&self) -> CoordinatorHandle {
        CoordinatorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    // -- replication ------------------------------------------------------

    /// Apply one replicated batch to one shard — log it under the
    /// primary's `seq`/`epoch` tags, replay it through the incremental
    /// path, adopt the primary's post-batch epoch. Does **not** swap the
    /// merged view — a sync pass applies every shard's tail first, then
    /// calls [`Coordinator::refresh_view`] once.
    ///
    /// # Errors
    /// [`ServiceError::Maintenance`] for an out-of-range shard index or a
    /// non-durable coordinator; [`ServiceError::Store`] when the record
    /// cannot be made durable (including an out-of-order `seq`).
    pub fn apply_replicated(
        &mut self,
        shard: usize,
        seq: u64,
        epoch: u64,
        batch: &[LakeDelta],
    ) -> Result<(), ServiceError> {
        let writer = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| ServiceError::Maintenance(format!("shard {shard} out of range")))?;
        writer.apply_replicated(seq, epoch, batch)
    }

    /// Swap in a fresh [`MultiView`] over the shards' *current* snapshots
    /// without bumping any shard epoch. [`Coordinator::publish`] with an
    /// empty dirty set republishes every shard (+1 each) — correct for a
    /// primary, fatal for a follower whose epochs must track the
    /// primary's. Returns the coordinator epoch (sum of shard epochs).
    pub fn refresh_view(&mut self) -> u64 {
        self.dirty.clear();
        self.install_view()
    }

    /// Tear down one shard and rebuild it from a shipped snapshot (the
    /// replica's answer to [`dn_store::WalTail::SnapshotRequired`]: the
    /// primary checkpointed past the follower's position, so the tail is
    /// gone and the shard must re-bootstrap). The shard's directory is
    /// removed, the snapshot installed, and a fresh [`Writer`] recovered
    /// over it.
    ///
    /// # Errors
    /// [`ServiceError::Maintenance`] when the coordinator is non-durable
    /// or the shard index is out of range; [`ServiceError::Store`] when
    /// the snapshot fails validation or the rebuilt shard cannot recover.
    pub fn reinstall_shard(
        &mut self,
        shard: usize,
        snapshot_bytes: &[u8],
        config: &ServiceConfig,
        policy: CheckpointPolicy,
    ) -> Result<(), ServiceError> {
        let root = self.root_dir.clone().ok_or_else(|| {
            ServiceError::Maintenance("reinstall requires a durable coordinator".to_string())
        })?;
        if shard >= self.shards.len() {
            return Err(ServiceError::Maintenance(format!(
                "shard {shard} out of range"
            )));
        }
        let dir = dn_store::shard_dir(&root, shard);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| ServiceError::Store(dn_store::StoreError::io_with_path(e, &dir)))?;
        }
        dn_store::install_snapshot(&dir, snapshot_bytes)?;
        let gauges = Arc::clone(&self.shared.store_gauges[shard]);
        self.shards[shard] = serve_from_dir(dir, config, policy, gauges)?;
        Ok(())
    }

    // -- routing ----------------------------------------------------------

    /// Where `op` goes, read off the committed shard lakes only.
    fn route(&self, op: &LakeOp, values: &[String]) -> Route {
        match op {
            LakeOp::AddTable(table) => {
                // Duplicate name: route to the owner so the engine
                // surfaces its own duplicate-table error.
                if let Some(owner) = self.table_owner(table.name()) {
                    return Route::Shard(owner);
                }
                let touched = self.shards_holding(values);
                match touched.as_slice() {
                    [] => Route::New,
                    [only] => Route::Shard(*only),
                    _ => {
                        let target = self.pick_merge_target(&touched);
                        let sources = touched.into_iter().filter(|&s| s != target).collect();
                        Route::Migrate {
                            target,
                            sources,
                            values: values.to_vec(),
                        }
                    }
                }
            }
            // An unknown table routes to shard 0 so the engine produces
            // its NotFound error deterministically.
            LakeOp::RemoveTable(name) => Route::Shard(self.table_owner(name).unwrap_or(0)),
            LakeOp::ReplaceValue {
                table, replacement, ..
            } => {
                let home = self.table_owner(table).unwrap_or(0);
                let norm = normalize(replacement);
                if lake::value::is_missing(&norm) {
                    return Route::Shard(home);
                }
                let values = vec![norm];
                let sources: Vec<usize> = self
                    .shards_holding(&values)
                    .into_iter()
                    .filter(|&s| s != home)
                    .collect();
                if sources.is_empty() {
                    Route::Shard(home)
                } else {
                    // The replacement value is live elsewhere: its
                    // components must co-reside with the edited table.
                    Route::Migrate {
                        target: home,
                        sources,
                        values,
                    }
                }
            }
        }
    }

    /// Where `op` goes in op-by-op state, read off the committed shard
    /// lakes and the values gathered `AddTable`s placed. `None` when only
    /// a flush can tell: a gathered op changed what `op` probes beyond the
    /// placed values, the placed values span shards or meet committed
    /// state elsewhere, or the op needs placement or a migration, which
    /// read committed state as a whole.
    fn route_gathered(&self, op: &LakeOp, values: &[String], pending: &Pending) -> Option<Route> {
        if pending.hit(op, values) {
            return None;
        }
        let placed = pending.placed_on(op, values);
        match (placed.as_slice(), self.route(op, values)) {
            ([], Route::Shard(shard)) => Some(Route::Shard(shard)),
            ([], route) if pending.is_empty() => Some(route),
            (&[placed], Route::New) => Some(Route::Shard(placed)),
            (&[placed], Route::Shard(shard)) if shard == placed => Some(Route::Shard(shard)),
            _ => None,
        }
    }

    /// Commit every gathered batch in ascending shard order and clear
    /// them. The first refused batch returns its error; later shards'
    /// batches stay uncommitted, for the caller to drop.
    fn flush(
        &mut self,
        batches: &mut [LakeDelta],
        pending: &mut Pending,
        total: &mut DeltaStats,
    ) -> Result<(), ServiceError> {
        pending.clear();
        for (shard, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                add_stats(total, self.commit_shard(shard, std::mem::take(batch))?);
            }
        }
        Ok(())
    }

    /// Commit one delta on one shard, marking it dirty.
    fn commit_shard(&mut self, shard: usize, delta: LakeDelta) -> Result<DeltaStats, ServiceError> {
        self.dirty.insert(shard);
        self.shards[shard].commit(&[delta])
    }

    /// Shards on which at least one of `values` (normalized) is live,
    /// ascending.
    fn shards_holding(&self, values: &[String]) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, writer)| {
                let lake = writer.lake();
                values.iter().any(|v| {
                    lake.value_id(v)
                        .is_some_and(|id| !lake.value_attributes(id).is_empty())
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Destination for a brand-new component: the shard with the fewest
    /// live incidences (ties to the lowest index).
    fn least_loaded_shard(&self) -> usize {
        (0..self.shards.len())
            .min_by_key(|&i| (self.shards[i].lake().incidence_count(), i))
            .expect(">=1 shard")
    }

    /// Destination of a merge: the touched shard holding the most live
    /// incidences (so the least data moves; ties to the lowest index).
    fn pick_merge_target(&self, touched: &[usize]) -> usize {
        let mut best = touched[0];
        for &s in &touched[1..] {
            if self.shards[s].lake().incidence_count() > self.shards[best].lake().incidence_count()
            {
                best = s;
            }
        }
        best
    }

    /// Move every component of `sources` connected to `trigger_values`
    /// into `target`: the intent is written first (durable coordinators
    /// only), run by the executor recovery runs, then cleared.
    fn migrate_into(
        &mut self,
        target: usize,
        sources: &[usize],
        trigger_values: &[String],
    ) -> Result<(), ServiceError> {
        let moves: Vec<dn_store::TableMove> = sources
            .iter()
            .flat_map(|&from| {
                connected_tables(self.shards[from].lake(), trigger_values)
                    .into_iter()
                    .map(move |table| dn_store::TableMove {
                        table,
                        from,
                        to: target,
                    })
            })
            .collect();
        if moves.is_empty() {
            return Ok(());
        }
        let intent = dn_store::RebalanceIntent { moves };
        if let Some(root) = &self.root_dir {
            dn_store::write_rebalance_intent(root, &intent)?;
        }
        self.run_rebalance(&intent)?;
        if let Some(root) = &self.root_dir {
            dn_store::clear_rebalance_intent(root)?;
        }
        Ok(())
    }

    /// The one move executor, for a live migration and for an intent a
    /// crash left behind (see [`dn_store::RebalanceIntent`] for the
    /// per-entry cases): per table, in intent order, add to `to` then
    /// remove from `from`, each an ordinary WAL-logged commit. Does
    /// **not** publish.
    fn run_rebalance(&mut self, intent: &dn_store::RebalanceIntent) -> Result<(), ServiceError> {
        for mv in &intent.moves {
            if mv.from >= self.shards.len() || mv.to >= self.shards.len() {
                return Err(ServiceError::Maintenance(format!(
                    "rebalance intent references shard {} of {}",
                    mv.from.max(mv.to),
                    self.shards.len()
                )));
            }
            let on_to = self.shards[mv.to].lake().table(&mv.table).is_some();
            let Some(table) = self.shards[mv.from].lake().table(&mv.table) else {
                continue; // move completed (or never started *and* the table is gone)
            };
            if !on_to {
                let add = LakeDelta::new().add_table(table.clone());
                self.commit_shard(mv.to, add)?;
            }
            self.commit_shard(mv.from, LakeDelta::new().remove_table(mv.table.clone()))?;
        }
        Ok(())
    }

    /// Fail on a table live on two shards with no intent explaining it —
    /// the invariant the rebalance machinery exists to protect.
    fn verify_table_ownership(&self) -> Result<(), ServiceError> {
        let mut owners: HashMap<&str, usize> = HashMap::new();
        for (i, writer) in self.shards.iter().enumerate() {
            for name in writer.lake().live_table_names() {
                if let Some(previous) = owners.insert(name, i) {
                    return Err(ServiceError::Maintenance(format!(
                        "table '{name}' is live on shards {previous} and {i} with no rebalance intent"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake::table::TableBuilder;

    fn config() -> ServiceConfig {
        ServiceConfig {
            measures: vec![Measure::lcc(), Measure::exact_bc()],
            prune_single_attribute_values: false,
            threads: 1,
        }
    }

    fn running_lake() -> MutableLake {
        MutableLake::from_catalog(&lake::fixtures::running_example())
    }

    /// The unsharded reference: one shard engine's snapshot of `lake`,
    /// built without any coordinator in the way.
    fn unsharded(lake: MutableLake) -> Arc<Snapshot> {
        Arc::clone(serve(lake, &config()).current())
    }

    fn zebra_table() -> LakeDelta {
        LakeDelta::new().add_table(
            TableBuilder::new("T9")
                .column("animal", ["Jaguar", "Zebra", "Okapi"])
                .build()
                .unwrap(),
        )
    }

    fn store_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("dn_store_coord_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `view`'s single shard ranks every served measure like a fresh
    /// build of `lake` (1e-9 on scores, identical order).
    fn assert_matches_fresh_build(view: &MultiView, lake: &MutableLake) {
        let fresh = domainnet::DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(lake);
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            let a = view.shard(0).ranking(measure).unwrap();
            let b = fresh.rank_shared(measure);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.value, y.value, "{measure:?}");
                assert!((x.score - y.score).abs() < 1e-9, "{measure:?} {}", x.value);
            }
        }
    }

    /// Two disconnected components: animals and currencies.
    fn two_component_lake() -> MutableLake {
        let mut lake = MutableLake::new();
        lake.apply(
            &LakeDelta::new()
                .add_table(
                    TableBuilder::new("zoo")
                        .column("animal", ["Jaguar", "Okapi", "Zebra"])
                        .build()
                        .unwrap(),
                )
                .add_table(
                    TableBuilder::new("cars")
                        .column("make", ["Jaguar", "Fiat", "Kia"])
                        .build()
                        .unwrap(),
                )
                .add_table(
                    TableBuilder::new("fx")
                        .column("code", ["USD", "EUR", "JPY"])
                        .build()
                        .unwrap(),
                )
                .add_table(
                    TableBuilder::new("prices")
                        .column("currency", ["USD", "GBP", "EUR"])
                        .build()
                        .unwrap(),
                ),
        )
        .unwrap();
        lake
    }

    #[test]
    fn explain_resolves_double_ownership_to_the_lowest_index_shard() {
        // A follower mid-migration-replay legitimately holds a value on
        // two shards (the move is two records in two logs); the fan-out
        // must resolve that window deterministically, not by whichever
        // worker finishes first. Build the window directly: two
        // single-shard snapshots that both know "Jaguar", with different
        // neighborhoods so the answers are distinguishable.
        let mut zoo_lake = MutableLake::new();
        zoo_lake
            .apply(
                &LakeDelta::new().add_table(
                    TableBuilder::new("zoo")
                        .column("animal", ["Jaguar", "Okapi", "Zebra"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        let mut cars_lake = MutableLake::new();
        cars_lake
            .apply(
                &LakeDelta::new().add_table(
                    TableBuilder::new("cars")
                        .column("make", ["Jaguar", "Fiat", "Kia"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        let zoo = unsharded(zoo_lake);
        let cars = unsharded(cars_lake);
        let zoo_answer = zoo.explain("Jaguar").unwrap();
        let cars_answer = cars.explain("Jaguar").unwrap();
        assert_ne!(
            zoo_answer, cars_answer,
            "the shards must genuinely disagree"
        );
        for threads in [1usize, 4] {
            let shards = vec![Arc::clone(&zoo), Arc::clone(&cars)];
            let view = MultiView::new(0, shards, threads, Arc::default());
            assert_eq!(view.explain("Jaguar").unwrap(), zoo_answer);
            assert_eq!(
                view.table_summary("cars", Measure::lcc(), 8),
                cars.table_summary("cars", Measure::lcc(), 8),
                "single-owner tables still answer from their owner"
            );
            let shards = vec![Arc::clone(&cars), Arc::clone(&zoo)];
            let flipped = MultiView::new(0, shards, threads, Arc::default());
            assert_eq!(flipped.explain("Jaguar").unwrap(), cars_answer);
        }

        // The write side answers by the same rule. Meet the window the way
        // a follower does: the add half of a move lands on shard 1 while
        // shard 0 still holds the table.
        let dir = store_dir("double_ownership");
        let policy = CheckpointPolicy::manual();
        let (service, mut coordinator) =
            serve_sharded_durable(two_component_lake(), config(), &dir, policy, 2).unwrap();
        assert_eq!(coordinator.table_owner("zoo"), Some(0));
        let zoo_table = coordinator.shard(0).lake().table("zoo").unwrap().clone();
        let (seq, epoch) = (
            coordinator.shard(1).last_seq() + 1,
            coordinator.shard(1).epoch(),
        );
        let add_half = [LakeDelta::new().add_table(zoo_table)];
        coordinator
            .apply_replicated(1, seq, epoch, &add_half)
            .unwrap();
        coordinator.refresh_view();
        assert!(coordinator.shard(1).lake().table("zoo").is_some());
        assert_eq!(
            coordinator.table_owner("zoo"),
            Some(0),
            "the shard table_summary answers from"
        );
        assert_eq!(
            service.current().table_summary("zoo", Measure::lcc(), 8),
            service
                .current()
                .shard(0)
                .table_summary("zoo", Measure::lcc(), 8),
        );
        let (seq, epoch) = (
            coordinator.shard(0).last_seq() + 1,
            coordinator.shard(0).epoch(),
        );
        let remove_half = [LakeDelta::new().remove_table("zoo")];
        coordinator
            .apply_replicated(0, seq, epoch, &remove_half)
            .unwrap();
        assert_eq!(
            coordinator.table_owner("zoo"),
            Some(1),
            "the move converged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_shard_is_bit_identical_to_an_unsharded_snapshot() {
        let plain = unsharded(running_lake());
        let (handle, _coordinator) = serve_sharded(running_lake(), config(), 1);
        assert_eq!(handle.shard_count(), 1);
        assert_eq!(handle.epoch(), 0);
        let view = handle.current();
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            let a = view.top_k(measure, usize::MAX).unwrap();
            let b = plain.ranking(measure).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.value, y.value);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{}", x.value);
            }
        }
        assert_eq!(view.stats(), plain.stats());
        view.verify_consistency().unwrap();
        // Score cards take the cross-shard rank correction at one shard
        // too, and must still be the shard's own cards to the bit.
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            for scored in plain.ranking(measure).unwrap().iter() {
                let card = view.score_card(measure, &scored.value).unwrap();
                let local = plain.score_card(measure, &scored.value).unwrap();
                assert_eq!(card, local, "{measure:?} {}", scored.value);
                assert_eq!(card.percentile.to_bits(), local.percentile.to_bits());
                assert_eq!(card.score.to_bits(), local.score.to_bits());
            }
        }
    }

    #[test]
    fn partition_keeps_components_whole() {
        let (handle, coordinator) = serve_sharded(two_component_lake(), config(), 2);
        assert_eq!(handle.shard_count(), 2);
        // zoo+cars share JAGUAR, fx+prices share USD/EUR: one component each.
        let zoo = coordinator.table_owner("zoo").unwrap();
        assert_eq!(coordinator.table_owner("cars").unwrap(), zoo);
        let fx = coordinator.table_owner("fx").unwrap();
        assert_eq!(coordinator.table_owner("prices").unwrap(), fx);
        assert_ne!(zoo, fx, "two components spread across two shards");
        handle.current().verify_consistency().unwrap();
    }

    #[test]
    fn cross_shard_merge_migrates_the_component() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        // A table bridging both components forces a merge.
        let bridge = LakeDelta::new().add_table(
            TableBuilder::new("bridge")
                .column("word", ["Jaguar", "USD"])
                .build()
                .unwrap(),
        );
        coordinator.apply_and_publish(bridge).unwrap();
        let owner = coordinator.table_owner("bridge").unwrap();
        for table in ["zoo", "cars", "fx", "prices"] {
            assert_eq!(
                coordinator.table_owner(table).unwrap(),
                owner,
                "{table} must co-reside with the bridge"
            );
        }
        let view = handle.current();
        view.verify_consistency().unwrap();
        // The merged component scores exactly like an unsharded engine.
        let mut reference_lake = two_component_lake();
        reference_lake
            .apply(
                &LakeDelta::new().add_table(
                    TableBuilder::new("bridge")
                        .column("word", ["Jaguar", "USD"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        let reference_view = unsharded(reference_lake);
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            let merged = view.top_k(measure, usize::MAX).unwrap();
            let plain = reference_view.ranking(measure).unwrap();
            assert_eq!(merged.len(), plain.len());
            for (x, y) in merged.iter().zip(plain.iter()) {
                assert_eq!(x.value, y.value, "{measure:?}");
                assert!((x.score - y.score).abs() < 1e-9, "{measure:?} {}", x.value);
            }
        }
    }

    #[test]
    fn global_score_cards_match_the_unsharded_engine() {
        let (sharded, _c) = serve_sharded(two_component_lake(), config(), 2);
        let view = sharded.current();
        let reference = unsharded(two_component_lake());
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            for value in ["Jaguar", "USD", "Okapi", "GBP", "Fiat"] {
                let merged = view.score_card(measure, value).unwrap();
                let local = reference.score_card(measure, value).unwrap();
                assert_eq!(merged.rank, local.rank, "{measure:?} {value}");
                assert_eq!(merged.of, local.of, "{measure:?} {value}");
                assert!(
                    (merged.percentile - local.percentile).abs() < 1e-9,
                    "{measure:?} {value}"
                );
                assert!((merged.score - local.score).abs() < 1e-9);
            }
        }
        assert!(view.score_card(Measure::lcc(), "no-such-value").is_none());
    }

    #[test]
    fn replace_value_can_pull_a_component_across_shards() {
        let (_handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        let zoo = coordinator.table_owner("zoo").unwrap();
        // Replacing FIAT with USD links the car component to the currency
        // component; the currency tables must migrate to cars' shard.
        coordinator
            .apply_and_publish(LakeDelta::new().replace_value("cars", "make", "FIAT", "USD"))
            .unwrap();
        assert_eq!(coordinator.table_owner("fx").unwrap(), zoo);
        assert_eq!(coordinator.table_owner("prices").unwrap(), zoo);
        coordinator.handle().current().verify_consistency().unwrap();
    }

    #[test]
    fn failed_ops_surface_engine_errors_without_publishing() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        let before = handle.epoch();
        coordinator.stage(LakeDelta::new().remove_table("no-such-table"));
        let err = coordinator.commit().unwrap_err();
        assert!(matches!(err, ServiceError::Lake(_)));
        assert_eq!(handle.epoch(), before, "nothing published");
        // Merged queries still answer from the old view.
        assert!(handle
            .current()
            .top_k(Measure::lcc(), 5)
            .is_some_and(|t| !t.is_empty()));

        // One batch: a flushed op, then applied ops ahead of the refused
        // one on its shard, then a later shard's gathered op.
        assert_eq!(coordinator.table_owner("cars"), Some(0));
        assert_eq!(coordinator.table_owner("fx"), Some(1));
        coordinator.stage(
            LakeDelta::new()
                .replace_value("fx", "code", "JPY", "CHF")
                // A new component: the fx edit is flushed before placing it.
                .add_table(
                    TableBuilder::new("staff")
                        .column("name", ["Ada", "Grace"])
                        .build()
                        .unwrap(),
                )
                .replace_value("cars", "make", "Kia", "Seat")
                .remove_table("no-such-table")
                .replace_value("prices", "currency", "GBP", "AUD"),
        );
        let err = coordinator.commit().unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Lake(lake::LakeError::NotFound(_))
        ));
        assert_eq!(handle.epoch(), before, "nothing published");
        let (zero, one) = (coordinator.shard(0).lake(), coordinator.shard(1).lake());
        assert!(one.contains_value("CHF"), "the flushed batch stays applied");
        assert_eq!(coordinator.table_owner("staff"), Some(0));
        assert!(
            zero.contains_value("SEAT") && !zero.contains_value("KIA"),
            "the refusing shard keeps the ops ahead of the refused one"
        );
        assert!(
            one.contains_value("GBP") && !one.contains_value("AUD"),
            "a later shard's gathered batch is dropped"
        );
        coordinator.publish();
        handle.current().verify_consistency().unwrap();
    }

    /// `view`'s merged rankings score every value like a fresh build of
    /// `lake` (same candidates, scores to 1e-9).
    fn assert_merged_matches_fresh_build(view: &MultiView, lake: &MutableLake) {
        let fresh = domainnet::DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(lake);
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            let merged = view.top_k(measure, usize::MAX).unwrap();
            let rebuilt = fresh.rank_shared(measure);
            assert_eq!(merged.len(), rebuilt.len(), "{measure:?}");
            let by_value: HashMap<&str, f64> = rebuilt
                .iter()
                .map(|s| (s.value.as_str(), s.score))
                .collect();
            for s in merged.iter() {
                let score = by_value[s.value.as_str()];
                assert!((s.score - score).abs() < 1e-9, "{measure:?} {}", s.value);
            }
        }
    }

    #[test]
    fn a_multi_shard_batch_is_one_wal_record_per_shard() {
        let dir = store_dir("grouped");
        let (handle, mut coordinator) = serve_sharded_durable(
            two_component_lake(),
            config(),
            &dir,
            CheckpointPolicy::manual(),
            2,
        )
        .unwrap();
        let batch = LakeDelta::new()
            .replace_value("cars", "make", "Kia", "Seat")
            .replace_value("fx", "code", "JPY", "CHF")
            .replace_value("zoo", "animal", "Okapi", "Tapir")
            .replace_value("prices", "currency", "GBP", "AUD");
        let seqs: Vec<u64> = (0..2).map(|i| coordinator.shard(i).last_seq()).collect();
        coordinator.stage(batch.clone());
        coordinator.commit().unwrap();
        coordinator.publish();
        for (i, seq) in seqs.into_iter().enumerate() {
            assert_eq!(
                coordinator.shard(i).last_seq(),
                seq + 1,
                "shard {i}: one WAL record for its two ops"
            );
        }
        let mut expected = two_component_lake();
        expected.apply(&batch).unwrap();
        let view = handle.current();
        view.verify_consistency().unwrap();
        assert_merged_matches_fresh_build(&view, &expected);
        drop(coordinator);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_table_sharing_a_gathered_tables_value_lands_beside_it() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        assert_eq!(coordinator.table_owner("fx"), Some(1));
        // T1's values are unseen, so it starts a component on the
        // least-loaded shard (0). T2 shares GRACE with it and USD with
        // shard 1: routed against committed state alone, GRACE is dead
        // and T2 would land on shard 1, splitting GRACE across shards.
        coordinator.stage(
            LakeDelta::new()
                .add_table(
                    TableBuilder::new("t1")
                        .column("name", ["Ada", "Grace"])
                        .build()
                        .unwrap(),
                )
                .add_table(
                    TableBuilder::new("t2")
                        .column("word", ["Grace", "USD"])
                        .build()
                        .unwrap(),
                ),
        );
        coordinator.commit().unwrap();
        coordinator.publish();
        let owner = coordinator.table_owner("t1");
        assert_eq!(coordinator.table_owner("t2"), owner);
        assert_eq!(coordinator.table_owner("fx"), owner);
        handle.current().verify_consistency().unwrap();
    }

    #[test]
    fn a_replacement_made_live_by_a_gathered_op_pulls_its_component() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        assert_eq!(coordinator.table_owner("zoo"), Some(0));
        assert_eq!(coordinator.table_owner("fx"), Some(1));
        // The add makes YAK live on shard 0; the replacement then links
        // fx (shard 1) to that component, which must migrate.
        coordinator.stage(
            LakeDelta::new()
                .add_table(
                    TableBuilder::new("herd")
                        .column("animal", ["Jaguar", "Yak"])
                        .build()
                        .unwrap(),
                )
                .replace_value("fx", "code", "JPY", "Yak"),
        );
        coordinator.commit().unwrap();
        coordinator.publish();
        let owner = coordinator.table_owner("fx");
        for table in ["herd", "zoo", "cars"] {
            assert_eq!(coordinator.table_owner(table), owner, "{table}");
        }
        handle.current().verify_consistency().unwrap();
    }

    #[test]
    fn merged_top_k_is_cached_per_epoch() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        let stats = handle.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.capacity, 2, "one order per served measure");
        let (reader_a, reader_b) = (handle.reader(), handle.reader());
        let long = reader_a.top_k(Measure::lcc(), 6).unwrap();
        let short = reader_b.top_k(Measure::lcc(), 3).unwrap();
        assert_eq!((long.len(), short.len()), (6, 3));
        assert_eq!(short[..], long[..3], "one view, one order: k only cuts it");
        let stats = handle.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        let old = reader_a.view().top_k(Measure::lcc(), usize::MAX).unwrap();
        coordinator
            .apply_and_publish(LakeDelta::new().remove_table("prices"))
            .unwrap();
        let stats = handle.cache_stats();
        assert_eq!(stats.entries, 0, "a new view starts with no order merged");
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // A reader still pinned to the old view answers from that view's
        // order: a hit, not a second merge.
        let again = reader_a.top_k(Measure::lcc(), usize::MAX).unwrap();
        assert_eq!(*again, old);
        let stats = handle.cache_stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
        let fresh = handle.reader().top_k(Measure::lcc(), usize::MAX).unwrap();
        assert_ne!(*fresh, old, "the new view ranks without the removed table");
        assert_eq!(handle.cache_stats().misses, 2);
    }

    #[test]
    fn empty_shards_serve_empty_answers() {
        // More shards than components: the extras stay empty but answer.
        let (handle, coordinator) = serve_sharded(two_component_lake(), config(), 4);
        assert_eq!(coordinator.shard_count(), 4);
        let view = handle.current();
        view.verify_consistency().unwrap();
        assert_eq!(view.table_names().len(), 4);
        let all = view.top_k(Measure::lcc(), usize::MAX).unwrap();
        let plain = unsharded(two_component_lake());
        assert_eq!(all.len(), plain.ranking(Measure::lcc()).unwrap().len());
    }

    #[test]
    fn coordinator_epoch_is_the_sum_of_shard_epochs() {
        let (handle, mut coordinator) = serve_sharded(two_component_lake(), config(), 2);
        assert_eq!(handle.epoch(), 0);
        // One op touching one shard publishes one shard epoch.
        coordinator
            .apply_and_publish(
                LakeDelta::new().add_table(
                    TableBuilder::new("staff")
                        .column("name", ["Ada", "Grace"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        assert_eq!(
            coordinator.epoch(),
            coordinator.shard(0).epoch() + coordinator.shard(1).epoch()
        );
        assert_eq!(handle.epoch(), coordinator.epoch());
        assert!(coordinator.epoch() >= 1);
    }

    // -- the single-engine contract, at shards = 1 -------------------------

    #[test]
    fn epoch_zero_serves_the_initial_lake() {
        let (service, coordinator) = serve_sharded(running_lake(), config(), 1);
        assert_eq!(service.epoch(), 0);
        assert_eq!(coordinator.epoch(), 0);
        let reader = service.reader();
        let top = reader.top_k(Measure::exact_bc(), 1).unwrap();
        assert_eq!(top[0].value, "JAGUAR");
        reader.view().verify_consistency().unwrap();
    }

    #[test]
    fn pinned_readers_keep_their_epoch_until_they_re_pin() {
        let (service, mut coordinator) = serve_sharded(running_lake(), config(), 1);
        let mut reader = service.reader();
        let before = reader.view().stats();

        coordinator.apply_and_publish(zebra_table()).unwrap();

        // Unpinned: still epoch 0, same counts, fully consistent.
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.view().stats(), before);
        reader.view().verify_consistency().unwrap();

        // Re-pin: epoch 1 with the new table visible.
        assert_eq!(reader.pin(), 1);
        let after = reader.view().stats();
        assert!(after.live_candidates > before.live_candidates);
        assert!(reader.explain("Zebra").is_some());
        reader.view().verify_consistency().unwrap();
    }

    #[test]
    fn commit_without_publish_is_invisible_to_readers() {
        let (service, mut coordinator) = serve_sharded(running_lake(), config(), 1);
        coordinator.stage(zebra_table());
        let stats = coordinator.commit().unwrap();
        assert!(stats.edges_added > 0);
        assert_eq!(service.epoch(), 0, "not yet published");
        assert!(service.current().explain("Zebra").is_none());
        coordinator.publish();
        assert_eq!(service.epoch(), 1);
        assert!(service.current().explain("Zebra").is_some());
    }

    #[test]
    fn batched_commit_matches_a_fresh_build() {
        let (service, mut coordinator) = serve_sharded(running_lake(), config(), 1);
        coordinator.stage(zebra_table());
        coordinator.stage(LakeDelta::new().remove_table("T3"));
        coordinator.stage(LakeDelta::new().replace_value("T4", "Name", "Puma", "Lynx"));
        coordinator.commit().unwrap();
        coordinator.publish();
        assert_matches_fresh_build(&service.current(), coordinator.shard(0).lake());

        // A dependent chain at one durable shard: a flush before the edit
        // of the pending T9 would split it, but every op routes to shard
        // 0 whatever is pending, so it is one WAL record and one fold.
        let chain = [
            zebra_table(),
            LakeDelta::new().replace_value("T9", "animal", "Okapi", "Tapir"),
            LakeDelta::new().add_table(
                TableBuilder::new("T10")
                    .column("animal", ["Zebra", "Gnu"])
                    .build()
                    .unwrap(),
            ),
        ];
        let measures = config().measures;
        let mut twin_lake = running_lake();
        let mut twin = domainnet::DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&twin_lake);
        twin.fold_batch(&mut twin_lake, &chain, &measures).unwrap();
        let dir = store_dir("chain");
        let (_, mut coordinator) = serve_sharded_durable(
            running_lake(),
            config(),
            &dir,
            CheckpointPolicy::manual(),
            1,
        )
        .unwrap();
        let (seq, generation) = (
            coordinator.shard(0).last_seq(),
            coordinator.shard(0).net().generation(),
        );
        for delta in chain {
            coordinator.stage(delta);
        }
        coordinator.commit().unwrap();
        let shard = coordinator.shard(0);
        assert_eq!(shard.last_seq(), seq + 1, "one WAL record");
        assert_eq!(shard.net().generation(), generation + 1, "one fold");
        for measure in measures {
            let (served, folded) = (shard.net().raw_scores(measure), twin.raw_scores(measure));
            assert_eq!(served.len(), folded.len(), "{measure:?}");
            for (a, b) in served.iter().zip(&folded) {
                assert_eq!(a.to_bits(), b.to_bits(), "{measure:?}");
            }
        }
        drop(coordinator);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batches_resync_the_writer() {
        let (service, mut coordinator) = serve_sharded(running_lake(), config(), 1);
        coordinator.stage(zebra_table());
        coordinator.stage(LakeDelta::new().remove_table("no-such-table"));
        let err = coordinator.commit().unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Lake(lake::LakeError::NotFound(_))
        ));
        assert!(coordinator.staged.is_empty(), "failed batch is dropped");

        // The first op stuck (documented batch semantics); the shard
        // resynced its net, so continuing to mutate and publish works and
        // matches a fresh build of the final lake.
        coordinator
            .apply_and_publish(LakeDelta::new().remove_table("T1"))
            .unwrap();
        let view = service.current();
        view.verify_consistency().unwrap();
        assert!(view.explain("Zebra").is_some(), "partial batch is visible");
        // Scores only: the resynced net breaks exact ties in another order.
        let fresh = domainnet::DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(coordinator.shard(0).lake());
        let a = view.top_k(Measure::lcc(), usize::MAX).unwrap();
        let b = fresh.rank_shared(Measure::lcc());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_commit_is_a_cheap_no_op() {
        let (_service, mut coordinator) = serve_sharded(running_lake(), config(), 1);
        let stats = coordinator.commit().unwrap();
        assert_eq!(stats, DeltaStats::default());
        assert_eq!(coordinator.epoch(), 0, "no publish happened");
        assert_eq!(
            coordinator.measures(),
            &[Measure::lcc(), Measure::exact_bc()]
        );
        assert!(
            coordinator.shard(0).store_gauges().is_none(),
            "non-durable shards publish no store gauges"
        );
    }

    #[test]
    fn durable_coordinator_survives_a_drop_mid_stream() {
        let dir = store_dir("survive");
        let (service, mut coordinator) = serve_sharded_durable(
            running_lake(),
            config(),
            &dir,
            CheckpointPolicy::manual(),
            1,
        )
        .unwrap();
        coordinator.apply_and_publish(zebra_table()).unwrap();
        coordinator
            .apply_and_publish(LakeDelta::new().remove_table("T3"))
            .unwrap();
        let reference = service.current();
        drop(coordinator); // crash: nothing flushed beyond the WAL appends

        let (recovered_service, recovered) =
            serve_sharded_from_dir(&dir, config(), CheckpointPolicy::manual()).unwrap();
        assert_eq!(recovered.epoch(), 2, "epoch numbering resumes");
        let view = recovered_service.current();
        view.verify_consistency().unwrap();
        for measure in [Measure::lcc(), Measure::exact_bc()] {
            let a = reference.top_k(measure, usize::MAX).unwrap();
            let b = view.top_k(measure, usize::MAX).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.value, y.value);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{}", x.value);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_coordinator_keeps_serving_and_checkpointing() {
        let dir = store_dir("resume");
        let policy = CheckpointPolicy::every_epochs(1);
        let (_, mut coordinator) =
            serve_sharded_durable(running_lake(), config(), &dir, policy, 1).unwrap();
        coordinator.apply_and_publish(zebra_table()).unwrap();
        drop(coordinator);

        let (service, mut coordinator) = serve_sharded_from_dir(&dir, config(), policy).unwrap();
        coordinator
            .apply_and_publish(LakeDelta::new().replace_value("T4", "Name", "Puma", "Lynx"))
            .unwrap();
        assert!(coordinator.checkpoint_now().unwrap());
        assert_eq!(
            coordinator.wal_record_bytes(),
            0,
            "checkpoint trimmed the log"
        );
        let view = service.current();
        view.verify_consistency().unwrap();
        assert!(view.explain("Lynx").is_some());
        assert!(view.explain("Zebra").is_some(), "pre-crash batch survived");

        // The whole lineage — durable start, crash, recover, mutate — must
        // equal a fresh build of the final lake.
        assert_matches_fresh_build(&view, coordinator.shard(0).lake());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_checkpoint_policy_counts_wal_only_epochs() {
        // Epochs whose batches live only in the WAL (no checkpoint yet)
        // must keep counting toward the policy after a crash: the age is
        // measured from the last on-disk checkpoint, not from the
        // recovered epoch, or frequent crashes would let the WAL grow
        // without bound.
        let dir = store_dir("policy_age");
        let policy = CheckpointPolicy::every_epochs(1);
        let (_, mut coordinator) =
            serve_sharded_durable(running_lake(), config(), &dir, policy, 1).unwrap();
        coordinator.apply_and_publish(zebra_table()).unwrap(); // epoch 1, in WAL only
        assert!(coordinator.wal_record_bytes() > 0);
        drop(coordinator);

        let (_, mut coordinator) = serve_sharded_from_dir(&dir, config(), policy).unwrap();
        // First post-recovery commit: one epoch has passed since the last
        // on-disk checkpoint (epoch 0), so the policy fires *now* — the
        // pre-batch state is checkpointed and the log trimmed before the
        // new batch is appended.
        coordinator
            .apply_and_publish(LakeDelta::new().remove_table("T3"))
            .unwrap();
        let snaps = dn_store::list_snapshots(&dn_store::shard_dir(&dir, 0)).unwrap();
        assert_eq!(snaps.len(), 2, "initial + post-recovery checkpoint");
        assert_eq!(snaps[0].0, 1, "checkpoint covers the WAL-only batch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_based_policy_checkpoints_on_commit() {
        let dir = store_dir("bytes");
        let (_, mut coordinator) = serve_sharded_durable(
            running_lake(),
            config(),
            &dir,
            CheckpointPolicy::max_wal_bytes(1),
            1,
        )
        .unwrap();
        coordinator.apply_and_publish(zebra_table()).unwrap();
        let shard = coordinator.shard(0);
        assert!(shard.wal_record_bytes() > 0, "batch logged");
        let gauges = shard.store_gauges().expect("durable shard");
        assert_eq!(gauges.wal_record_bytes.get(), shard.wal_record_bytes());
        assert_eq!(gauges.snapshots.get(), 1, "only the initial checkpoint");
        assert_eq!(shard.last_seq(), 1);
        // The next commit sees a non-empty WAL >= 1 byte and checkpoints
        // the pre-batch state before appending.
        coordinator
            .apply_and_publish(LakeDelta::new().remove_table("T9"))
            .unwrap();
        let snaps = dn_store::list_snapshots(&dn_store::shard_dir(&dir, 0)).unwrap();
        assert_eq!(snaps.len(), 2, "initial + policy checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_top_k_csv_round_trips() {
        let (service, _coordinator) = serve_sharded(running_lake(), config(), 1);
        let reader = service.reader();
        let mut out = Vec::new();
        let rows = reader
            .export_top_k_csv(Measure::exact_bc(), 3, &mut out)
            .unwrap();
        assert_eq!(rows, 3);
        let records = lake::csv::parse_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(records.len(), 4, "header + 3 rows");
        assert_eq!(records[0][1], "value");
        assert_eq!(records[1][0], "1");
        assert_eq!(records[1][1], "JAGUAR");

        // Unserved measures are a typed error, not a panic.
        let err = reader
            .export_top_k_csv(Measure::approx_bc(64, 7), 3, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, lake::LakeError::NotFound(_)));
    }

    #[test]
    fn export_top_k_csv_is_byte_identical_across_shard_counts() {
        let mut exports = Vec::new();
        for shards in [1usize, 2] {
            let (service, _coordinator) = serve_sharded(two_component_lake(), config(), shards);
            let reader = service.reader();
            for measure in [Measure::lcc(), Measure::exact_bc()] {
                let mut out = Vec::new();
                let rows = reader
                    .export_top_k_csv(measure, usize::MAX, &mut out)
                    .unwrap();
                // Shortest-round-trip float formatting: every score
                // re-parses to the exact bits the merged ranking holds.
                let ranking = reader.top_k(measure, usize::MAX).unwrap();
                assert_eq!(rows, ranking.len());
                let records = lake::csv::parse_str(std::str::from_utf8(&out).unwrap()).unwrap();
                assert_eq!(records.len(), rows + 1, "header + one row per value");
                for (record, scored) in records[1..].iter().zip(ranking.iter()) {
                    assert_eq!(record[1], scored.value);
                    let parsed: f64 = record[2].parse().unwrap();
                    assert_eq!(parsed.to_bits(), scored.score.to_bits(), "{}", scored.value);
                }
                exports.push((shards, measure, out));
            }
        }
        let (one, two) = exports.split_at(2);
        for ((_, measure, a), (_, _, b)) in one.iter().zip(two) {
            assert_eq!(a, b, "{measure:?}: 1-shard and 2-shard exports differ");
        }
    }
}
