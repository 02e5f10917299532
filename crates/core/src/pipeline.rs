//! The end-to-end DomainNet pipeline: lake → bipartite graph → scores → rank.
//!
//! Two usage modes share one type:
//!
//! * **Snapshot mode** — [`DomainNetBuilder::build`] over a [`LakeView`]
//!   (a [`lake::MutableLake`]) produces a [`DomainNet`] whose rankings are
//!   memoized per [`Measure`].
//! * **Incremental mode** — applying a [`lake::LakeDelta`] to the lake
//!   yields the values it touched ([`lake::DeltaEffects`]), which
//!   [`DomainNet::apply_delta`] consumes to re-derive the graph (by the
//!   function a build uses) and *patch* every cached score vector instead
//!   of recomputing from scratch: local clustering coefficients are
//!   recomputed only for the changed values and their value neighbours,
//!   exact betweenness centrality only for the connected components the
//!   mutation touched, and sampled betweenness ([`Measure::ApproxBc`])
//!   re-estimated over the new graph as a build estimates it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dn_graph::approx_bc::approximate_betweenness;
use dn_graph::bc::{betweenness_centrality_parallel, betweenness_from_sources};
use dn_graph::bipartite::BipartiteGraph;
use dn_graph::components::{connected_components, Components};
use dn_graph::delta::{dirty_region, nodes_in_components, Renumbering};
use dn_graph::lcc::lcc_with_cardinality_for_values;
use lake::catalog::AttrId;
use lake::delta::{diff_sorted, DeltaEffects, LakeDelta, LakeView, MutableLake};
use lake::value::ValueId;
use lake::LakeError;

use crate::measure::{Measure, ScoredValue};

/// Options controlling how the DomainNet graph is built from a lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainNetConfig {
    /// Remove values that occur in only one attribute before building the
    /// graph. Such values cannot be homographs, and pruning them shrinks the
    /// graph (≈3 % fewer nodes on TUS, ≈30 % on SB per §5) without affecting
    /// which values can be returned. Attributes left with no candidate
    /// value get no node. Defaults to `true`.
    pub prune_single_attribute_values: bool,
}

impl Default for DomainNetConfig {
    fn default() -> Self {
        DomainNetConfig {
            prune_single_attribute_values: true,
        }
    }
}

impl DomainNetConfig {
    /// The number of live attributes a value must occur in to be a
    /// candidate (to have edges in the graph).
    fn min_attrs(self) -> usize {
        if self.prune_single_attribute_values {
            2
        } else {
            1
        }
    }
}

/// Builder for [`DomainNet`].
///
/// ```
/// let lake = lake::fixtures::running_example();
/// let net = domainnet::DomainNetBuilder::new().build(&lake);
/// assert_eq!(net.candidate_count(), 4); // Jaguar, Puma, Panda, Toyota
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainNetBuilder {
    config: DomainNetConfig,
}

impl DomainNetBuilder {
    /// Create a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set whether single-attribute values are pruned from the graph.
    pub fn prune_single_attribute_values(mut self, prune: bool) -> Self {
        self.config.prune_single_attribute_values = prune;
        self
    }

    /// Build the DomainNet graph from the live state of a lake.
    pub fn build<L: LakeView + ?Sized>(&self, lake: &L) -> DomainNet {
        let (numbering, graph) = derive(lake, self.config);
        let components = connected_components(&graph);
        DomainNet {
            config: self.config,
            graph,
            components,
            numbering,
            compute_threads: 1,
            caches: Mutex::new(ScoreCaches::default()),
        }
    }
}

/// Memoized per-measure scores. `raw` is indexed by value node id; `ranked`
/// is the fully sorted ranking. Both are invalidated or patched by
/// [`DomainNet::apply_delta`] and rebuilt lazily on demand.
#[derive(Debug, Default)]
struct ScoreCaches {
    raw: HashMap<Measure, Vec<f64>>,
    ranked: HashMap<Measure, Arc<Vec<ScoredValue>>>,
    /// `|N(v)|` per value node. Computing it for every node costs as much
    /// as an LCC pass, so it is cached once and then patched only for dirty
    /// nodes on each delta.
    cardinalities: Option<Vec<usize>>,
}

/// Summary of one incremental maintenance step, returned by
/// [`DomainNet::apply_delta`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DeltaStats {
    /// Values that have a node after the delta and had none before it.
    pub value_nodes_added: usize,
    /// Attributes that have a node after the delta and had none before it.
    pub attr_nodes_added: usize,
    /// Edges inserted.
    pub edges_added: usize,
    /// Edges deleted.
    pub edges_removed: usize,
    /// Value nodes whose LCC had to be recomputed (the changed values and
    /// their value neighbours in the old or the new graph).
    pub dirty_values: usize,
    /// Connected components whose exact BC had to be recomputed.
    pub touched_components: usize,
    /// Total nodes inside the touched components.
    pub touched_component_nodes: usize,
}

/// Sums the stats of several commits. A node count is the values or
/// attributes that gained a node in one commit, so a value that loses its
/// node in one commit and gains it back in a later one counts once per
/// gain.
impl std::ops::AddAssign for DeltaStats {
    fn add_assign(&mut self, part: DeltaStats) {
        self.value_nodes_added += part.value_nodes_added;
        self.attr_nodes_added += part.attr_nodes_added;
        self.edges_added += part.edges_added;
        self.edges_removed += part.edges_removed;
        self.dirty_values += part.dirty_values;
        self.touched_components += part.touched_components;
        self.touched_component_nodes += part.touched_component_nodes;
    }
}

/// Why [`DomainNet::fold_batch`] rebuilt the net instead of patching it.
#[derive(Debug)]
pub enum FoldError {
    /// The lake refused an op of the batch.
    Lake(LakeError),
    /// [`DomainNet::apply_delta`] refused the batch's effects.
    Net(String),
}

/// The DomainNet model of a data lake: the bipartite graph plus scoring and
/// ranking on top of it, with per-measure memoization and incremental
/// maintenance under lake mutations.
#[derive(Debug)]
pub struct DomainNet {
    config: DomainNetConfig,
    graph: BipartiteGraph,
    components: Components,
    /// The node numbering the lake determined when `graph` was derived.
    numbering: Numbering,
    /// How many worker threads score computations may use. Runtime state,
    /// **not** identity: it is never persisted (snapshots from an 8-way host
    /// recover cleanly on a 1-way host) and scores are bit-identical for
    /// every width, so it deliberately lives outside [`NetState`].
    compute_threads: usize,
    caches: Mutex<ScoreCaches>,
}

impl Clone for DomainNet {
    fn clone(&self) -> Self {
        let caches = self.caches.lock().expect("score cache mutex");
        DomainNet {
            config: self.config,
            graph: self.graph.clone(),
            components: self.components.clone(),
            numbering: self.numbering.clone(),
            compute_threads: self.compute_threads,
            caches: Mutex::new(ScoreCaches {
                raw: caches.raw.clone(),
                ranked: caches.ranked.clone(),
                cardinalities: caches.cardinalities.clone(),
            }),
        }
    }
}

impl DomainNet {
    /// The underlying bipartite graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Set how many worker threads score computations may use (clamped to at
    /// least 1). Purely a runtime knob: every width yields bit-identical
    /// scores, so changing it never invalidates memoized rankings.
    pub fn set_compute_threads(&mut self, threads: usize) {
        self.compute_threads = threads.max(1);
    }

    /// The configured compute width (see [`DomainNet::set_compute_threads`]).
    pub fn compute_threads(&self) -> usize {
        self.compute_threads
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> DomainNetConfig {
        self.config
    }

    /// Connected components of the current graph.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Number of value nodes in the graph: the lake's candidate values.
    pub fn candidate_count(&self) -> usize {
        self.graph.value_count()
    }

    /// Number of attribute nodes in the graph: the live attributes holding
    /// a candidate value.
    pub fn attribute_count(&self) -> usize {
        self.graph.attribute_count()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The normalized value behind a value node id.
    pub fn value_label(&self, node: u32) -> &str {
        self.graph.value_label(node)
    }

    /// Compute (or fetch from the memo) the raw score of every value node
    /// under a measure, indexed by value node id (no sorting, no direction
    /// adjustment).
    pub fn raw_scores(&self, measure: Measure) -> Vec<f64> {
        if let Some(cached) = self
            .caches
            .lock()
            .expect("score cache mutex")
            .raw
            .get(&measure)
        {
            return cached.clone();
        }
        let scores = self.compute_raw_scores(measure);
        self.caches
            .lock()
            .expect("score cache mutex")
            .raw
            .insert(measure, scores.clone());
        scores
    }

    fn compute_raw_scores(&self, measure: Measure) -> Vec<f64> {
        let _compute = dn_trace::span_labeled(dn_trace::Phase::MeasureCompute, measure.name());
        match measure {
            Measure::Lcc => {
                let targets: Vec<u32> = self.graph.value_nodes().collect();
                let (scores, cardinalities) =
                    lcc_with_cardinality_for_values(&self.graph, &targets, self.compute_threads);
                // The kernel returns |N(v)| with the scores; keep it so
                // `cardinalities` has nothing left to walk.
                self.caches
                    .lock()
                    .expect("score cache mutex")
                    .cardinalities
                    .get_or_insert(cardinalities);
                scores
            }
            Measure::ExactBc => {
                let all = betweenness_centrality_parallel(&self.graph, self.compute_threads);
                all[..self.graph.value_count()].to_vec()
            }
            Measure::ApproxBc(config) => {
                let all = approximate_betweenness(&self.graph, config, self.compute_threads);
                all[..self.graph.value_count()].to_vec()
            }
        }
    }

    /// Score every live candidate value and return them ranked
    /// most-homograph-like first (descending BC, ascending LCC). Ties are
    /// broken by value string so the output is fully deterministic.
    ///
    /// Results are memoized per measure: repeated calls return a clone of
    /// the cached ranking without re-scoring or re-sorting. The memo is
    /// patched by [`DomainNet::apply_delta`] and cleared by
    /// [`DomainNet::refresh`]. Use [`DomainNet::rank_shared`] to avoid even
    /// the clone.
    pub fn rank(&self, measure: Measure) -> Vec<ScoredValue> {
        self.rank_shared(measure).as_ref().clone()
    }

    /// Like [`DomainNet::rank`] but returns the shared cached ranking
    /// without copying it.
    pub fn rank_shared(&self, measure: Measure) -> Arc<Vec<ScoredValue>> {
        if let Some(cached) = self
            .caches
            .lock()
            .expect("score cache mutex")
            .ranked
            .get(&measure)
        {
            return Arc::clone(cached);
        }
        let scores = self.raw_scores(measure);
        let cardinalities = self.cardinalities();
        let mut ranked: Vec<ScoredValue> = self
            .graph
            .value_nodes()
            .map(|node| ScoredValue {
                value: self.graph.value_label(node).to_owned(),
                score: scores[node as usize],
                attribute_count: self.graph.value_attribute_count(node),
                cardinality: cardinalities[node as usize],
            })
            .collect();
        ranked.sort_by(|a, b| measure.rank_order(a, b));
        let ranked = Arc::new(ranked);
        self.caches
            .lock()
            .expect("score cache mutex")
            .ranked
            .insert(measure, Arc::clone(&ranked));
        ranked
    }

    /// The cached `|N(v)|` table, computed on first use and patched (not
    /// recomputed) across deltas.
    fn cardinalities(&self) -> Vec<usize> {
        if let Some(cached) = &self.caches.lock().expect("score cache mutex").cardinalities {
            return cached.clone();
        }
        let computed = self.graph.value_neighbor_counts(self.compute_threads);
        self.caches.lock().expect("score cache mutex").cardinalities = Some(computed.clone());
        computed
    }

    /// Convenience: the top-`k` ranked values under a measure.
    pub fn top_k(&self, measure: Measure, k: usize) -> Vec<ScoredValue> {
        let ranked = self.rank_shared(measure);
        ranked.iter().take(k).cloned().collect()
    }

    /// The lake [`AttrId`] behind a graph attribute *index*. Snapshot
    /// consumers use this to recover structured `table`/`column` references
    /// from the lake instead of re-parsing the flattened display label.
    pub fn attr_id_of_index(&self, attr_index: u32) -> Option<AttrId> {
        self.numbering.attrs.get(attr_index as usize).copied()
    }

    /// Force the memoized ranking of every listed measure to exist.
    ///
    /// The serving layer calls this on the writer thread right after a
    /// delta is applied, so that snapshot extraction — and every reader
    /// query after it — only ever *clones `Arc`s* out of the memo instead
    /// of paying a scoring pass at query time.
    pub fn warm_rankings(&self, measures: &[Measure]) {
        for &measure in measures {
            let _ = self.rank_shared(measure);
        }
    }

    /// Look up the score of a specific (normalized) value in a ranking.
    pub fn score_of<'a>(ranked: &'a [ScoredValue], value: &str) -> Option<&'a ScoredValue> {
        ranked.iter().find(|s| s.value == value)
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Incrementally fold a lake mutation into the model.
    ///
    /// `lake` must be the same [`MutableLake`] this net was built from (or
    /// last refreshed against), **after** the delta was applied to it, and
    /// `effects` must be the effects record that application returned. The
    /// graph is derived from the lake by the function a build uses, so it
    /// is CSR-identical to a fresh build's: a value or attribute that stops
    /// qualifying (e.g. pruning is on and a value drops to one attribute)
    /// loses its node, and the nodes after it move down. Each touched
    /// value's edges are diffed across the two graphs, so touches that
    /// cancelled patch nothing; [`dirty_region`] compares the graphs through
    /// the old→new renumbering, every memoized vector moves through it, and
    /// then every memoized measure is repaired:
    ///
    /// * **LCC** — recomputed, by the kernel a build runs, only for the
    ///   changed values and their value neighbours in the old or the new
    ///   graph, one hop out. Every score is `to_bits()`-equal to
    ///   [`local_clustering_coefficients`](dn_graph::lcc::local_clustering_coefficients)
    ///   over the maintained [`DomainNet::graph`], whatever deltas led there.
    /// * **Exact BC** — recomputed only over the touched connected
    ///   components. Betweenness never crosses components, and the kernel
    ///   lays its chunks out per component, so every score is `to_bits()`-
    ///   equal to a whole-graph pass over the maintained graph.
    /// * **Approximate BC** — re-estimated over the whole new graph by the
    ///   call a build makes, so every score is `to_bits()`-equal to a fresh
    ///   build's estimate: the same seed draws the same sources from the
    ///   same graph. Every delta that changes an edge re-draws every
    ///   source, so scores in components the delta never touched move too,
    ///   as they would between two fresh builds.
    ///
    /// Cached rankings are invalidated and rebuilt lazily from the patched
    /// score vectors on the next [`DomainNet::rank`] call. A delta that
    /// changes no edge (a table whose every value pruning drops, effects
    /// already folded) leaves the graph as it is, so it keeps the
    /// components and every memo, rankings included, and reports all-zero
    /// [`DeltaStats`].
    ///
    /// # Errors
    /// Returns a description of the inconsistency if `effects` does not
    /// match this net's view of the lake: it names a value outside the
    /// lake, or the edges of the values it names do not account for the
    /// change in the graph's edge count (it was cut short, or came from a
    /// different lake). On error the net is left **unchanged**.
    pub fn apply_delta(
        &mut self,
        lake: &MutableLake,
        effects: &DeltaEffects,
    ) -> Result<DeltaStats, String> {
        let (numbering, graph) = derive(lake, self.config);
        let old = &self.numbering;

        // Diff each touched value's edges, as AttrIds, across the two graphs.
        let mut changed: Vec<u32> = Vec::new();
        let (mut edges_added, mut edges_removed, mut value_nodes_added) = (0, 0, 0);
        for &vid in &effects.touched_values {
            if vid.index() >= lake.value_count() {
                return Err(format!(
                    "effects reference value {} outside the lake's id space",
                    vid.0
                ));
            }
            let (before, after) = (
                old.attrs_of(&self.graph, vid),
                numbering.attrs_of(&graph, vid),
            );
            let (removed, added) = diff_sorted(&before, &after);
            if removed.is_empty() && added.is_empty() {
                continue;
            }
            edges_removed += removed.len();
            edges_added += added.len();
            if before.is_empty() {
                value_nodes_added += 1;
            }
            if let Some(node) = numbering.node(vid) {
                changed.push(node);
            }
        }
        if self.graph.edge_count() + edges_added != graph.edge_count() + edges_removed {
            return Err(format!(
                "effects add {edges_added} and remove {edges_removed} edges, but the graph \
                 goes from {} to {}",
                self.graph.edge_count(),
                graph.edge_count()
            ));
        }
        if edges_added == 0 && edges_removed == 0 {
            // No node or edge changed, so no component or score did either.
            self.numbering = numbering;
            return Ok(DeltaStats::default());
        }

        let renumbering = Renumbering {
            values: old
                .values
                .iter()
                .map(|v| numbering.node_of_value[v.index()])
                .collect(),
            attrs: old
                .attrs
                .iter()
                .map(|a| numbering.index_of_attr[a.index()])
                .collect(),
        };
        let region = dirty_region(&self.graph, &graph, &renumbering, &changed);
        let new_value_count = graph.value_count();
        let touched_pool = nodes_in_components(&region.components, &region.touched_components);

        // Move every memoized vector to the new numbering, then patch it.
        {
            let mut caches = self.caches.lock().expect("score cache mutex");
            let ScoreCaches {
                raw,
                ranked,
                cardinalities,
            } = &mut *caches;
            ranked.clear();
            if let Some(cardinalities) = cardinalities {
                *cardinalities = renumbering.move_values(cardinalities, new_value_count);
            }
            let mut cardinalities_patched = false;
            for (&measure, raw) in raw.iter_mut() {
                *raw = renumbering.move_values(raw, new_value_count);
                match measure {
                    Measure::Lcc => {
                        // The fresh build's kernel over the invalidation set:
                        // the scattered scores are to_bits()-equal to a full
                        // pass over the new graph. One thread: the writer
                        // shares the box with the readers.
                        let (fresh, cards) =
                            lcc_with_cardinality_for_values(&graph, &region.dirty_values, 1);
                        for (i, &node) in region.dirty_values.iter().enumerate() {
                            raw[node as usize] = fresh[i];
                        }
                        if let Some(cardinalities) = cardinalities {
                            for (i, &node) in region.dirty_values.iter().enumerate() {
                                cardinalities[node as usize] = cards[i];
                            }
                            cardinalities_patched = true;
                        }
                    }
                    Measure::ExactBc => {
                        let acc =
                            betweenness_from_sources(&graph, &touched_pool, self.compute_threads);
                        for &node in &touched_pool {
                            if (node as usize) < new_value_count {
                                raw[node as usize] = acc[node as usize];
                            }
                        }
                    }
                    Measure::ApproxBc(config) => {
                        let mut all = approximate_betweenness(&graph, config, self.compute_threads);
                        all.truncate(new_value_count);
                        *raw = all;
                    }
                }
            }
            if let Some(cardinalities) = cardinalities {
                if !cardinalities_patched {
                    for &node in &region.dirty_values {
                        cardinalities[node as usize] = graph.value_neighbor_count(node);
                    }
                }
            }
        }

        let stats = DeltaStats {
            value_nodes_added,
            attr_nodes_added: numbering
                .attrs
                .iter()
                .filter(|&&attr| old.index(attr).is_none())
                .count(),
            edges_added,
            edges_removed,
            dirty_values: region.dirty_values.len(),
            touched_components: region.touched_components.len(),
            touched_component_nodes: touched_pool.len(),
        };
        self.graph = graph;
        self.components = region.components;
        self.numbering = numbering;
        Ok(stats)
    }

    /// Fold a run of logged batches into `lake` and this net, then warm
    /// `measures`: the one policy a live commit and a replicated record (a
    /// run of one) and a WAL replay (the whole suffix) share, so all three
    /// land on the same state.
    ///
    /// The batches are applied to the lake in order, and one
    /// [`DomainNet::apply_delta`] takes the union of the values they
    /// touched; an empty run changes nothing. Every measure is a function
    /// of the lake (the maintained net is a fresh build, bit for bit), so
    /// the run lands on the state folding its batches one at a time gives.
    ///
    /// # Errors
    /// Each batch that did not fold, by its index in the run. When the lake
    /// refuses an op, that batch stops there with its earlier ops applied
    /// ([`MutableLake::apply_batch`]) and the run goes on. The net is then
    /// rebuilt from the lake's live state, which is where folding the rest
    /// would have left it too. When the net refuses the run's effects it is
    /// rebuilt the same way, and that refusal is reported against the last
    /// batch. Either way the net is coherent and warmed on every path.
    pub fn fold_batch(
        &mut self,
        lake: &mut MutableLake,
        batches: &[&[LakeDelta]],
        measures: &[Measure],
    ) -> Result<DeltaStats, Vec<(usize, FoldError)>> {
        if batches.is_empty() {
            return Ok(DeltaStats::default());
        }
        let mut touched_values = Vec::new();
        let mut failures = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            match lake.apply_batch(batch.iter()) {
                Ok(effects) => touched_values.extend(effects.touched_values),
                Err(e) => failures.push((i, FoldError::Lake(e))),
            }
        }
        if failures.is_empty() {
            touched_values.sort_unstable();
            touched_values.dedup();
            match self.apply_delta(lake, &DeltaEffects { touched_values }) {
                Ok(stats) => {
                    self.warm_rankings(measures);
                    return Ok(stats);
                }
                Err(e) => failures.push((batches.len() - 1, FoldError::Net(e))),
            }
        }
        self.refresh(lake);
        self.warm_rankings(measures);
        Err(failures)
    }

    /// Discard all incremental state and rebuild from scratch against the
    /// lake's current live content: the escape hatch after a batch that did
    /// not fold (and the baseline the incremental path is measured against).
    pub fn refresh<L: LakeView + ?Sized>(&mut self, lake: &L) {
        let rebuilt = DomainNetBuilder {
            config: self.config,
        }
        .build(lake);
        *self = rebuilt;
    }
}

/// The memoized score state of a [`DomainNet`], in a plain exportable form.
///
/// `raw` is an association list (not a map) so the export order is explicit
/// and deterministic; [`DomainNet::export_state`] sorts it by measure.
/// Rankings are not exported: they are a sort of `raw` and `cardinalities`
/// over the graph, which [`DomainNet::warm_rankings`] redoes faster than a
/// decoder reads them back. See [`NetState`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetCachesState {
    /// Per measure: raw score per value node id.
    pub raw: Vec<(Measure, Vec<f64>)>,
    /// `|N(v)|` per value node, if cached.
    pub cardinalities: Option<Vec<usize>>,
}

/// Everything a [`DomainNet`] holds *besides* its graph, in a plain
/// exportable form for the persistence layer (`dn-store`).
///
/// The graph and its node numbering are not exported: both are a function
/// of the lake and the configuration, which [`DomainNet::from_parts`]
/// derives them from before a net is handed back.
#[derive(Debug, Clone, PartialEq)]
pub struct NetState {
    /// The configuration the graph was built with.
    pub config: DomainNetConfig,
    /// The memoized per-measure scores.
    pub caches: NetCachesState,
}

impl DomainNet {
    /// Export the net's non-graph state (configuration, memoized scores) for
    /// persistence. Cache entries are sorted by measure so the export — and
    /// therefore the on-disk encoding — is deterministic across runs.
    pub fn export_state(&self) -> NetState {
        let caches = self.caches.lock().expect("score cache mutex");
        let mut raw: Vec<(Measure, Vec<f64>)> = caches
            .raw
            .iter()
            .map(|(&m, scores)| (m, scores.clone()))
            .collect();
        raw.sort_by_key(|(m, _)| format!("{m:?}"));
        NetState {
            config: self.config,
            caches: NetCachesState {
                raw,
                cardinalities: caches.cardinalities.clone(),
            },
        }
    }

    /// Reassemble a net from the lake it was maintained against and its
    /// persisted [`NetState`]. The graph is derived from the lake by the
    /// function [`DomainNetBuilder::build`] uses, and the caches are checked
    /// against it: every cached raw-score vector must cover exactly the
    /// value nodes with finite scores, and the cardinality vector, when
    /// present, exactly the value nodes.
    ///
    /// Components are computed from the graph and rankings are left to the
    /// next [`DomainNet::rank`] / [`DomainNet::warm_rankings`].
    ///
    /// # Errors
    /// A description of the first violated invariant; nothing is partially
    /// constructed on failure.
    pub fn from_parts<L: LakeView + ?Sized>(
        lake: &L,
        state: NetState,
    ) -> Result<DomainNet, String> {
        let (numbering, graph) = derive(lake, state.config);
        if let Some(cardinalities) = &state.caches.cardinalities {
            if cardinalities.len() != graph.value_count() {
                return Err(format!(
                    "cardinalities cover {} of {} value nodes",
                    cardinalities.len(),
                    graph.value_count()
                ));
            }
        }
        for (measure, scores) in &state.caches.raw {
            if scores.len() != graph.value_count() {
                return Err(format!(
                    "{measure:?}: raw scores cover {} of {} value nodes",
                    scores.len(),
                    graph.value_count()
                ));
            }
            if let Some(bad) = scores.iter().find(|s| !s.is_finite()) {
                return Err(format!("{measure:?}: non-finite raw score {bad}"));
            }
        }

        let caches = ScoreCaches {
            raw: state.caches.raw.into_iter().collect(),
            ranked: HashMap::new(),
            cardinalities: state.caches.cardinalities,
        };
        Ok(DomainNet {
            config: state.config,
            components: connected_components(&graph),
            graph,
            numbering,
            // Recovered nets start sequential; the serving layer re-applies
            // its configured width (the on-disk format never records one).
            compute_threads: 1,
            caches: Mutex::new(caches),
        })
    }
}

/// Which lake value and attribute each graph node stands for.
#[derive(Debug, Clone)]
struct Numbering {
    /// ValueId -> value node (`u32::MAX` = not a candidate).
    node_of_value: Vec<u32>,
    /// Value node -> ValueId, ascending.
    values: Vec<ValueId>,
    /// AttrId -> attribute index (`u32::MAX` = holds no candidate).
    index_of_attr: Vec<u32>,
    /// Attribute index -> AttrId, ascending.
    attrs: Vec<AttrId>,
}

impl Numbering {
    /// The value node of a lake value, if it has one.
    fn node(&self, vid: ValueId) -> Option<u32> {
        self.node_of_value
            .get(vid.index())
            .copied()
            .filter(|&node| node != u32::MAX)
    }

    /// The attribute index of a lake attribute, if it has a node.
    fn index(&self, attr: AttrId) -> Option<u32> {
        self.index_of_attr
            .get(attr.index())
            .copied()
            .filter(|&index| index != u32::MAX)
    }

    /// The attributes a value's node is joined to in `graph`, ascending
    /// (empty without a node).
    fn attrs_of(&self, graph: &BipartiteGraph, vid: ValueId) -> Vec<AttrId> {
        let Some(node) = self.node(vid) else {
            return Vec::new();
        };
        let shift = graph.value_count() as u32;
        graph
            .neighbors(node)
            .iter()
            .map(|&a| self.attrs[(a - shift) as usize])
            .collect()
    }
}

/// The numbering and graph a lake determines: the candidate values (those
/// in at least `config.min_attrs()` live attributes) are the value nodes in
/// `ValueId` order, the live attributes holding a candidate are the
/// attribute nodes in `AttrId` order, and each candidate has an edge to
/// every live attribute holding it. This is the one constructor of a net's
/// graph: [`DomainNetBuilder::build`], [`DomainNet::apply_delta`] and
/// [`DomainNet::from_parts`] all derive it here, so a maintained, a
/// recovered and a fresh net of one lake are the same graph.
fn derive<L: LakeView + ?Sized>(lake: &L, config: DomainNetConfig) -> (Numbering, BipartiteGraph) {
    let values = lake.values_in_at_least(config.min_attrs());
    let mut node_of_value = vec![u32::MAX; lake.value_count()];
    // Mark each attribute holding a candidate with 0, then number the
    // marked ones in AttrId order.
    let mut index_of_attr = vec![u32::MAX; lake.attribute_count()];
    for (node, &vid) in values.iter().enumerate() {
        node_of_value[vid.index()] = node as u32;
        for &attr in lake.value_attributes(vid) {
            index_of_attr[attr.index()] = 0;
        }
    }
    let mut attrs: Vec<AttrId> = Vec::new();
    for (attr, index) in index_of_attr.iter_mut().enumerate() {
        if *index == 0 {
            *index = attrs.len() as u32;
            attrs.push(AttrId(attr as u32));
        }
    }

    let value_labels = values
        .iter()
        .map(|&vid| lake.value(vid).expect("a candidate is interned").to_owned())
        .collect();
    let attr_labels = attrs
        .iter()
        .map(|&attr| {
            lake.attribute_ref(attr)
                .expect("an attribute holding a candidate is live")
                .qualified()
        })
        .collect();
    // A candidate's attributes ascend by AttrId, and so by index.
    let graph = BipartiteGraph::from_value_rows(value_labels, attr_labels, |node| {
        let attrs = lake.value_attributes(values[node as usize]);
        attrs.iter().map(|attr| index_of_attr[attr.index()])
    });
    let numbering = Numbering {
        node_of_value,
        values,
        index_of_attr,
        attrs,
    };
    (numbering, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measure;
    use lake::delta::LakeDelta;
    use lake::table::TableBuilder;

    fn running_example_net(prune: bool) -> DomainNet {
        let lake = lake::fixtures::running_example();
        DomainNetBuilder::new()
            .prune_single_attribute_values(prune)
            .build(&lake)
    }

    #[test]
    fn pruned_graph_keeps_only_candidates() {
        let net = running_example_net(true);
        // Only Jaguar, Puma, Panda, Toyota repeat across attributes.
        assert_eq!(net.candidate_count(), 4);
        assert_eq!(net.rank(Measure::lcc()).len(), 4);
        // Attributes that lose all their values are dropped (e.g. numeric
        // columns whose values are unique).
        assert!(net.attribute_count() <= 12);
        net.graph().validate().unwrap();
    }

    #[test]
    fn unpruned_graph_keeps_every_value_and_attribute() {
        let lake = lake::fixtures::running_example();
        let net = running_example_net(false);
        assert_eq!(net.candidate_count(), lake.value_count());
        assert_eq!(net.attribute_count(), lake.attribute_count());
        assert_eq!(net.edge_count(), lake.incidence_count());
    }

    #[test]
    fn bc_ranks_jaguar_first_on_the_running_example() {
        // Example 3.6: BC separates Jaguar and Puma from Panda and Toyota.
        let net = running_example_net(false);
        let ranked = net.rank(Measure::exact_bc());
        assert_eq!(ranked[0].value, "JAGUAR");
        let jaguar = DomainNet::score_of(&ranked, "JAGUAR").unwrap().score;
        let puma = DomainNet::score_of(&ranked, "PUMA").unwrap().score;
        let panda = DomainNet::score_of(&ranked, "PANDA").unwrap().score;
        let toyota = DomainNet::score_of(&ranked, "TOYOTA").unwrap().score;
        assert!(jaguar > puma);
        assert!(jaguar > panda && jaguar > toyota);
        assert!(puma > 0.0);
    }

    #[test]
    fn lcc_ranks_jaguar_below_unambiguous_repeats() {
        // Example 3.6 reports LCC(Jaguar) = 0.36 below the repeated-but-
        // unambiguous values (Panda, Toyota ≈ 0.45). Only the ordering of
        // Jaguar is robust to small definitional details (the paper itself
        // notes this example barely separates LCC ranks), so that is what we
        // assert: the four-meaning homograph has the lowest LCC of the
        // repeated values.
        let net = running_example_net(false);
        let ranked = net.rank(Measure::lcc());
        let jaguar = DomainNet::score_of(&ranked, "JAGUAR").unwrap().score;
        let puma = DomainNet::score_of(&ranked, "PUMA").unwrap().score;
        let panda = DomainNet::score_of(&ranked, "PANDA").unwrap().score;
        let toyota = DomainNet::score_of(&ranked, "TOYOTA").unwrap().score;
        assert!(jaguar < panda && jaguar < toyota);
        assert!(jaguar < puma);
        // All LCC scores are proper clustering coefficients.
        for score in [jaguar, puma, panda, toyota] {
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn exact_bc_scores_are_bit_identical_across_compute_widths() {
        let seq = running_example_net(false);
        let mut par = running_example_net(false);
        par.set_compute_threads(4);
        assert_eq!(par.compute_threads(), 4);
        let seq_ranked = net_scores(&seq);
        let par_ranked = net_scores(&par);
        assert_eq!(seq_ranked, par_ranked);
    }

    /// `(value, score bits)` of the exact-BC ranking — bitwise, so the
    /// comparison catches any thread-count-dependent float reassociation.
    fn net_scores(net: &DomainNet) -> Vec<(String, u64)> {
        net.rank(Measure::exact_bc())
            .into_iter()
            .map(|s| (s.value, s.score.to_bits()))
            .collect()
    }

    #[test]
    fn approx_bc_with_full_samples_matches_exact_ranking() {
        let net = running_example_net(false);
        let exact = net.rank(Measure::exact_bc());
        let n = net.graph().node_count();
        let approx = net.rank(Measure::approx_bc(n, 3));
        assert_eq!(exact[0].value, approx[0].value);
        // Scores agree, not just the ranking.
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e.score - a.score).abs() < 1e-6);
        }
    }

    #[test]
    fn attribute_jaccard_lcc_is_also_available() {
        let net = running_example_net(false);
        assert_eq!(Measure::lcc(), Measure::Lcc);
        let ranked = net.rank(Measure::Lcc);
        assert_eq!(ranked.len(), net.candidate_count());
        for s in &ranked {
            assert!((0.0..=1.0).contains(&s.score));
        }
    }

    #[test]
    fn top_k_truncates_and_scored_values_carry_metadata() {
        let net = running_example_net(true);
        let top = net.top_k(Measure::exact_bc(), 2);
        assert_eq!(top.len(), 2);
        let jaguar = &top[0];
        assert_eq!(jaguar.value, "JAGUAR");
        assert_eq!(jaguar.attribute_count, 4);
        assert!(jaguar.cardinality >= 3);
    }

    #[test]
    fn ranking_is_deterministic() {
        let net = running_example_net(false);
        let a = net.rank(Measure::exact_bc());
        let b = net.rank(Measure::exact_bc());
        assert_eq!(a, b);
    }

    #[test]
    fn ranking_is_memoized_per_measure() {
        let net = running_example_net(false);
        let first = net.rank_shared(Measure::exact_bc());
        let second = net.rank_shared(Measure::exact_bc());
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated rank calls must hit the memo"
        );
        // A different measure gets its own entry.
        let lcc = net.rank_shared(Measure::lcc());
        assert!(!Arc::ptr_eq(&first, &lcc));
    }

    #[test]
    fn empty_lake_produces_empty_model() {
        let lake = lake::catalog::LakeCatalog::new();
        let net = DomainNetBuilder::new().build(&lake);
        assert_eq!(net.candidate_count(), 0);
        assert!(net.rank(Measure::exact_bc()).is_empty());
        assert!(net.rank(Measure::lcc()).is_empty());
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    fn mutable_running_example() -> MutableLake {
        MutableLake::from_catalog(&lake::fixtures::running_example())
    }

    /// Compare a maintained net against a fresh build of the same lake:
    /// identical live node/edge label sets and identical scores (to 1e-9:
    /// the fresh build numbers nodes differently, so it sums in another
    /// order; the slack covers that layout, not drift).
    fn assert_equivalent(incremental: &DomainNet, lake: &MutableLake, measure: Measure) {
        let fresh = DomainNetBuilder {
            config: incremental.config(),
        }
        .build(lake);
        let a = incremental.rank(measure);
        let b = fresh.rank(measure);
        let labels =
            |r: &[ScoredValue]| -> Vec<String> { r.iter().map(|s| s.value.clone()).collect() };
        assert_eq!(labels(&a), labels(&b), "ranked orders diverged");
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x.score - y.score).abs() < 1e-9,
                "{}: {} vs {}",
                x.value,
                x.score,
                y.score
            );
            assert_eq!(x.attribute_count, y.attribute_count, "{}", x.value);
            assert_eq!(x.cardinality, y.cardinality, "{}", x.value);
        }
    }

    #[test]
    fn apply_delta_add_table_matches_fresh_build() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        // Warm the caches so the patch path is exercised.
        let _ = net.rank(Measure::lcc());
        let _ = net.rank(Measure::exact_bc());

        let delta = LakeDelta::new().add_table(
            TableBuilder::new("T5")
                .column("animal", ["Jaguar", "Pelican", "Okapi"])
                .build()
                .unwrap(),
        );
        let effects = lake.apply(&delta).unwrap();
        let stats = net.apply_delta(&lake, &effects).unwrap();
        assert!(stats.edges_added > 0);
        net.graph().validate().unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn apply_delta_remove_table_matches_fresh_build() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());
        let _ = net.rank(Measure::exact_bc());

        let effects = lake.apply(&LakeDelta::new().remove_table("T3")).unwrap();
        let stats = net.apply_delta(&lake, &effects).unwrap();
        assert!(stats.edges_removed > 0);
        net.graph().validate().unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn apply_delta_replace_value_matches_fresh_build() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());
        let _ = net.rank(Measure::exact_bc());

        let effects = lake
            .apply(&LakeDelta::new().replace_value("T4", "Name", "Jaguar", "Okapi"))
            .unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        net.graph().validate().unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn apply_delta_without_warm_caches_still_patches_graph() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let effects = lake.apply(&LakeDelta::new().remove_table("T1")).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn apply_delta_invalidates_the_rank_memo() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        let before = net.rank_shared(Measure::exact_bc());
        let effects = lake.apply(&LakeDelta::new().remove_table("T3")).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        let after = net.rank_shared(Measure::exact_bc());
        assert!(
            !Arc::ptr_eq(&before, &after),
            "mutation must invalidate the memoized ranking"
        );
        assert_ne!(before.len(), after.len());
    }

    #[test]
    fn warming_fills_the_memo() {
        let net = DomainNetBuilder::new().build(&mutable_running_example());
        let measures = [Measure::lcc(), Measure::exact_bc()];
        net.warm_rankings(&measures);
        for m in measures {
            let warm = net.rank_shared(m);
            assert!(
                Arc::ptr_eq(&warm, &net.rank_shared(m)),
                "warm_rankings must have populated the memo"
            );
        }
    }

    #[test]
    fn refresh_rebuilds_from_live_state() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let effects = lake.apply(&LakeDelta::new().remove_table("T2")).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        let patched_rank = net.rank(Measure::exact_bc());
        net.refresh(&lake);
        let fresh_rank = net.rank(Measure::exact_bc());
        assert_eq!(
            patched_rank.iter().map(|s| &s.value).collect::<Vec<_>>(),
            fresh_rank.iter().map(|s| &s.value).collect::<Vec<_>>()
        );
    }

    #[test]
    fn candidacy_flips_are_handled_in_both_directions() {
        // "Okapi" starts in one attribute (not a candidate under pruning),
        // gains a second (candidate), then loses it again.
        let mut lake = MutableLake::new();
        let base = LakeDelta::new()
            .add_table(
                TableBuilder::new("A")
                    .column("x", ["Okapi", "Panda", "Lemur"])
                    .build()
                    .unwrap(),
            )
            .add_table(
                TableBuilder::new("B")
                    .column("y", ["Panda", "Lemur"])
                    .build()
                    .unwrap(),
            );
        lake.apply(&base).unwrap();
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());
        assert_eq!(net.rank(Measure::lcc()).len(), 2); // Panda, Lemur

        let effects = lake
            .apply(
                &LakeDelta::new().add_table(
                    TableBuilder::new("C")
                        .column("z", ["Okapi"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        assert_eq!(net.rank(Measure::lcc()).len(), 3);
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());

        let effects = lake.apply(&LakeDelta::new().remove_table("C")).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        assert_eq!(
            net.rank(Measure::lcc()).len(),
            2,
            "Okapi loses its node again"
        );
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn a_delta_that_drops_nodes_counts_the_ones_it_creates() {
        // Without T3, TOYOTA is left in one attribute and loses its node, and
        // T3.C2 goes with its table: the graph shrinks, and the counts of
        // created nodes stay 0 instead of wrapping.
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        net.warm_rankings(&[Measure::lcc(), Measure::exact_bc()]);
        assert_eq!((net.candidate_count(), net.attribute_count()), (4, 4));
        let t3 = lake.table("T3").unwrap();
        let effects = lake.apply(&LakeDelta::new().remove_table("T3")).unwrap();
        let stats = net.apply_delta(&lake, &effects).unwrap();
        assert_eq!((net.candidate_count(), net.attribute_count()), (3, 3));
        assert_eq!((stats.value_nodes_added, stats.attr_nodes_added), (0, 0));
        assert_eq!(
            stats.edges_removed, 3,
            "both on T3.C2, and TOYOTA's on T4.Name"
        );

        // Re-adding T3 creates both again.
        let effects = lake.apply(&LakeDelta::new().add_table(t3)).unwrap();
        let stats = net.apply_delta(&lake, &effects).unwrap();
        assert_eq!((net.candidate_count(), net.attribute_count()), (4, 4));
        assert_eq!((stats.value_nodes_added, stats.attr_nodes_added), (1, 1));
        assert_equivalent(&net, &lake, Measure::lcc());
    }

    #[test]
    fn redelivered_effects_are_a_no_op() {
        // The translation diffs desired (lake) against current (graph)
        // state, so effects that were already folded in resolve to an empty
        // graph delta instead of corrupting the net.
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let _ = net.rank(Measure::lcc());

        let effects = lake.apply(&LakeDelta::new().remove_table("T3")).unwrap();
        let first = net.apply_delta(&lake, &effects).unwrap();
        assert!(first.edges_removed > 0);
        let second = net.apply_delta(&lake, &effects).unwrap();
        assert_eq!(second.edges_added, 0);
        assert_eq!(second.edges_removed, 0);
        net.graph().validate().unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
        assert_equivalent(&net, &lake, Measure::exact_bc());
    }

    #[test]
    fn a_batch_that_undoes_itself_patches_nothing() {
        // The lake reports every value the ops touched; that they cancelled
        // is found here, where each value's lake edges are diffed against
        // the graph's — the one place a cancellation is computed.
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let bits = |net: &DomainNet| {
            [Measure::lcc(), Measure::exact_bc()].map(|m| {
                let ranked = net.rank(m).into_iter();
                ranked
                    .map(|s| (s.value, s.score.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        let before = bits(&net);

        let effects = lake
            .apply_batch(&[
                LakeDelta::new().replace_value("T4", "Name", "Jaguar", "Okapi"),
                LakeDelta::new().replace_value("T4", "Name", "Okapi", "Jaguar"),
            ])
            .unwrap();
        assert_eq!(effects.touched_values.len(), 2, "JAGUAR and OKAPI");
        let stats = net.apply_delta(&lake, &effects).unwrap();
        assert_eq!(stats, DeltaStats::default());
        assert_eq!(bits(&net), before);
    }

    #[test]
    fn a_refused_delta_leaves_the_net_unchanged() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        net.warm_rankings(&[Measure::lcc(), Measure::exact_bc()]);
        // T5 makes PELICAN and OKAPI candidates that need new value nodes.
        let applied = lake
            .apply(
                &LakeDelta::new().add_table(
                    TableBuilder::new("T5")
                        .column("animal", ["Jaguar", "Pelican", "Okapi"])
                        .column("zoo", ["Pelican", "Okapi", "Lemur"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        assert!(!applied.touched_values.is_empty());
        let outside = DeltaEffects {
            touched_values: vec![ValueId(lake.value_count() as u32)],
        };
        // Naming none of them leaves candidates without a node, which the
        // graph derivation refuses.
        let incomplete = DeltaEffects::default();
        for (what, effects) in [("outside the lake", outside), ("incomplete", incomplete)] {
            let state = net.export_state();
            let offsets = net.graph().csr_offsets().to_vec();
            let adjacency = net.graph().csr_adjacency().to_vec();
            assert!(net.apply_delta(&lake, &effects).is_err(), "{what}");
            assert_eq!(net.export_state(), state, "{what}");
            assert_eq!(net.graph().csr_offsets(), offsets, "{what}");
            assert_eq!(net.graph().csr_adjacency(), adjacency, "{what}");
        }
        // The complete record still folds.
        net.apply_delta(&lake, &applied).unwrap();
        assert_equivalent(&net, &lake, Measure::lcc());
    }

    /// A table whose every value sits in that one attribute only is pruned
    /// whole: the graph keeps every node and edge, so the fold keeps every
    /// score and ranking (the same `Arc`s, nothing re-ranked), and they are
    /// a fresh build's, bit for bit.
    #[test]
    fn a_delta_that_changes_no_edge_keeps_the_net() {
        let sampled = Measure::approx_bc(7, 11);
        for measures in [
            vec![Measure::lcc()],
            vec![Measure::lcc(), Measure::exact_bc()],
            vec![Measure::lcc(), sampled],
        ] {
            let mut lake = mutable_running_example();
            let mut net = DomainNetBuilder::new().build(&lake);
            net.warm_rankings(&measures);
            let bits = |net: &DomainNet| -> Vec<Vec<u64>> {
                let scores = |m| net.raw_scores(m).iter().map(|s| s.to_bits()).collect();
                measures.iter().map(|&m| scores(m)).collect()
            };
            let scores = bits(&net);
            let ranked: Vec<_> = measures.iter().map(|&m| net.rank_shared(m)).collect();
            let pruned = LakeDelta::new().add_table(
                TableBuilder::new("T5")
                    .column("bird", ["Kiwi", "Okapi", "Kiwi"])
                    .column("count", ["7", "9", "11"])
                    .build()
                    .unwrap(),
            );
            let stats = net.fold_batch(&mut lake, &[&[pruned]], &measures).unwrap();
            assert_eq!(stats, DeltaStats::default(), "{measures:?}");
            assert!(lake.contains_value("KIWI"), "the lake took the table");
            assert_eq!(bits(&net), scores, "{measures:?}: scores before");
            let fresh = DomainNetBuilder::new().build(&lake);
            assert_eq!(bits(&net), bits(&fresh), "{measures:?}: a fresh build");
            for (&m, before) in measures.iter().zip(&ranked) {
                assert!(Arc::ptr_eq(before, &net.rank_shared(m)), "{m:?}");
            }
        }
    }

    /// A partial sample draws some sources and not others, so an estimate
    /// kept across a delta equals a fresh build's only if it is re-drawn
    /// from the new graph with the build's seed.
    #[test]
    fn sampled_bc_after_a_delta_is_a_fresh_builds_estimate() {
        let mut lake = mutable_running_example();
        let mut net = DomainNetBuilder::new().build(&lake);
        let measure = Measure::approx_bc(net.graph().node_count() / 3, 7);
        net.warm_rankings(&[measure]);
        let t3 = lake.table("T3").unwrap();
        for (step, delta) in [
            ("remove T3", LakeDelta::new().remove_table("T3")),
            ("re-add T3", LakeDelta::new().add_table(t3)),
        ] {
            let effects = lake.apply(&delta).unwrap();
            net.apply_delta(&lake, &effects).unwrap();
            let fresh = DomainNetBuilder::new().build(&lake);
            let bits = |net: &DomainNet| -> Vec<u64> {
                net.raw_scores(measure)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect()
            };
            assert_eq!(bits(&net), bits(&fresh), "{step}");
        }
    }
}
