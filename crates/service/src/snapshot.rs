//! Immutable epoch snapshots of a [`DomainNet`] and the queries they answer.
//!
//! A [`Snapshot`] is extracted on the writer thread after a delta batch has
//! been folded into the net, and is then shared behind an `Arc` with any
//! number of reader threads. Everything a query touches lives inside the
//! snapshot — the graph copy, the per-measure rankings (shared zero-copy
//! with the net's memo via `Arc`), the label and rank indexes — so readers
//! never synchronize with the writer after pinning one.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use domainnet::{DomainNet, Measure, ScoredValue};
use lake::delta::LakeView;
use lake::value::normalize;
use lake::TextSet;

const EXPLAIN_SAMPLE_LIMIT: usize = 8;

/// Counts describing one epoch, all taken from the same underlying state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotStats {
    /// The epoch this snapshot was published as.
    pub epoch: u64,
    /// Total graph nodes (value + attribute).
    pub node_count: usize,
    /// Value nodes: the lake's candidate values. Every ranking of this
    /// snapshot holds one entry per value node.
    pub value_nodes: usize,
    /// Attribute nodes: the live attributes holding a candidate.
    pub attribute_nodes: usize,
    /// Undirected edges.
    pub edge_count: usize,
    /// Connected components.
    pub component_count: usize,
}

/// Score, rank, and percentile of one value under one measure.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScoreCard {
    /// The normalized value.
    pub value: String,
    /// The measure the card was computed under.
    pub measure: Measure,
    /// The raw score (interpretation depends on the measure).
    pub score: f64,
    /// 1-based rank, 1 = most homograph-like.
    pub rank: usize,
    /// Number of ranked candidates in this snapshot.
    pub of: usize,
    /// Share (in percent) of candidates ranked *after* this value, i.e.
    /// `100 * (of - rank) / of`. Rank follows the measure's total order
    /// — score first (direction per measure), ties broken by value
    /// string — so equal-scoring candidates do **not** share a rank or a
    /// percentile: a value tied with `m` others sits anywhere in an
    /// `m+1`-long run depending only on its name. The same formula over
    /// a sharded deployment's merged ranking yields the same number,
    /// because every shard ranks by the same total order.
    pub percentile: f64,
    /// Number of attributes the value occurs in.
    pub attribute_count: usize,
    /// The value's neighborhood cardinality |N(v)|.
    pub cardinality: usize,
}

/// One attribute of a value's neighborhood, for "explain" output.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AttributeNeighborhood {
    /// Qualified `table.column` label.
    pub attribute: String,
    /// Table part of the label.
    pub table: String,
    /// Column part of the label.
    pub column: String,
    /// Distinct values in the attribute.
    pub size: usize,
    /// Up to a few co-occurring values (node order, the queried value
    /// excluded) as a human-readable sample.
    pub sample_co_values: Vec<String>,
}

/// Why a value scores the way it does: its attribute neighborhood.
///
/// A homograph's signature is attributes from *different* semantic domains
/// (`zoo.animal` and `cars.make` both containing `JAGUAR`); this is the
/// paper's bipartite intuition surfaced as a query result.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ValueExplanation {
    /// The normalized value.
    pub value: String,
    /// Number of attributes it occurs in.
    pub attribute_count: usize,
    /// Its neighborhood cardinality |N(v)|.
    pub cardinality: usize,
    /// Per-attribute breakdown.
    pub attributes: Vec<AttributeNeighborhood>,
}

/// Aggregate view of one table's candidate values in a snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TableSummary {
    /// Table name.
    pub table: String,
    /// Live attributes (columns) the table contributes to the graph.
    pub attribute_count: usize,
    /// Distinct candidate values occurring in the table.
    pub candidate_values: usize,
    /// Live (attribute, value) incidences the table contributes.
    pub incidence_count: usize,
    /// The table's most homograph-like values under the requested measure,
    /// best first.
    pub top: Vec<ScoredValue>,
}

/// An immutable, internally consistent view of the DomainNet model at one
/// epoch. See the [module docs](self) for the extraction/sharing contract.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    graph: dn_graph::bipartite::BipartiteGraph,
    component_count: usize,
    measures: Vec<Measure>,
    /// Per measure: the full ranking, shared with the net's memo.
    rankings: HashMap<Measure, Arc<Vec<ScoredValue>>>,
    /// Per measure: value node id -> 0-based rank (`u32::MAX` = unranked).
    rank_of_node: HashMap<Measure, Vec<u32>>,
    /// The value labels in node order: a normalized value's id in the set
    /// is its live value node id.
    node_of_label: TextSet,
    /// Live attribute node -> structured `(table, column)` reference,
    /// resolved from the lake at extraction time (display labels are
    /// ambiguous once table names contain dots).
    attr_refs: HashMap<u32, (String, String)>,
    /// Table name -> attribute node ids, sorted by node id.
    tables: BTreeMap<String, Vec<u32>>,
}

impl Snapshot {
    /// Extract a snapshot from a net and the lake it models, serving the
    /// given measures.
    ///
    /// Rankings come out of [`DomainNet::rank_shared`], so measures the
    /// writer warmed are shared by `Arc` clone rather than recomputed; cold
    /// measures pay their scoring pass here, on the calling (writer) thread.
    /// The lake is consulted only for structured `table`/`column` attribute
    /// references (the graph keeps flattened display labels, which cannot be
    /// split unambiguously when table names contain dots); everything the
    /// snapshot serves afterwards is owned by the snapshot.
    pub fn extract<L: LakeView + ?Sized>(
        net: &DomainNet,
        lake: &L,
        measures: &[Measure],
        epoch: u64,
    ) -> Snapshot {
        let graph = net.graph().clone();
        // The labels are distinct, so each one is stored under its node id.
        let mut node_of_label = TextSet::default();
        for label in graph.value_labels() {
            node_of_label.insert(label);
        }

        let mut rankings = HashMap::new();
        let mut rank_of_node = HashMap::new();
        for &measure in measures {
            let ranking = net.rank_shared(measure);
            let mut ranks = vec![u32::MAX; graph.value_count()];
            for (pos, scored) in ranking.iter().enumerate() {
                if let Some(node) = node_of_label.get(&scored.value) {
                    ranks[node as usize] = pos as u32;
                }
            }
            rankings.insert(measure, ranking);
            rank_of_node.insert(measure, ranks);
        }

        let mut attr_refs: HashMap<u32, (String, String)> = HashMap::new();
        let mut tables: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for attr_node in graph.attribute_nodes() {
            let (table, column) = graph
                .attribute_index(attr_node)
                .and_then(|idx| net.attr_id_of_index(idx))
                .and_then(|attr_id| lake.attribute_ref(attr_id))
                .map(|aref| (aref.table, aref.column))
                .unwrap_or_else(|| {
                    // The lake no longer knows this attribute (it should,
                    // for a live node, but stay servable): fall back to the
                    // display label, splitting at the first dot.
                    let label = graph.node_label(attr_node);
                    match label.split_once('.') {
                        Some((t, c)) => (t.to_owned(), c.to_owned()),
                        None => (label.to_owned(), String::new()),
                    }
                });
            tables.entry(table.clone()).or_default().push(attr_node);
            attr_refs.insert(attr_node, (table, column));
        }

        Snapshot {
            epoch,
            component_count: net.components().count(),
            measures: measures.to_vec(),
            rankings,
            rank_of_node,
            node_of_label,
            attr_refs,
            tables,
            graph,
        }
    }

    /// The epoch this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The measures this snapshot can answer queries for.
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// Counts describing this epoch.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epoch: self.epoch,
            node_count: self.graph.node_count(),
            value_nodes: self.graph.value_count(),
            attribute_nodes: self.graph.attribute_count(),
            edge_count: self.graph.edge_count(),
            component_count: self.component_count,
        }
    }

    /// The full ranking under a measure (`None` if the measure is not
    /// served by this snapshot).
    pub fn ranking(&self, measure: Measure) -> Option<&Arc<Vec<ScoredValue>>> {
        self.rankings.get(&measure)
    }

    /// Score, rank, and percentile of a value under a measure. The value is
    /// normalized here, so callers may pass the raw form. `None` when the
    /// measure is not served or the value is not a live candidate.
    pub fn score_card(&self, measure: Measure, value: &str) -> Option<ScoreCard> {
        let normalized = normalize(value);
        let node = self.node_of_label.get(&normalized)?;
        let ranks = self.rank_of_node.get(&measure)?;
        let rank0 = ranks[node as usize];
        if rank0 == u32::MAX {
            return None;
        }
        let ranking = &self.rankings[&measure];
        let scored = &ranking[rank0 as usize];
        let of = ranking.len();
        Some(ScoreCard {
            value: normalized,
            measure,
            score: scored.score,
            rank: rank0 as usize + 1,
            of,
            percentile: 100.0 * (of - 1 - rank0 as usize) as f64 / of as f64,
            attribute_count: scored.attribute_count,
            cardinality: scored.cardinality,
        })
    }

    /// The attribute neighborhood of a value — which `table.column`s it
    /// occurs in and a sample of the values it co-occurs with there.
    pub fn explain(&self, value: &str) -> Option<ValueExplanation> {
        let normalized = normalize(value);
        let node = self.node_of_label.get(&normalized)?;
        let attributes = self
            .graph
            .neighbors(node)
            .iter()
            .map(|&attr_node| {
                let label = self.graph.node_label(attr_node).to_owned();
                let (table, column) = self
                    .attr_refs
                    .get(&attr_node)
                    .cloned()
                    .expect("live attribute nodes are in the ref index");
                let members = self.graph.neighbors(attr_node);
                let sample_co_values = members
                    .iter()
                    .filter(|&&v| v != node)
                    .take(EXPLAIN_SAMPLE_LIMIT)
                    .map(|&v| self.graph.value_label(v).to_owned())
                    .collect();
                AttributeNeighborhood {
                    attribute: label,
                    table,
                    column,
                    size: members.len(),
                    sample_co_values,
                }
            })
            .collect();
        // Every ranking carries |N(v)|; the two-hop walk runs only when the
        // snapshot serves no measure.
        let cardinality = match self.measures.first() {
            Some(measure) => {
                let rank = self.rank_of_node[measure][node as usize];
                self.rankings[measure][rank as usize].cardinality
            }
            None => self.graph.value_neighbor_count(node),
        };
        Some(ValueExplanation {
            value: normalized,
            attribute_count: self.graph.value_attribute_count(node),
            cardinality,
            attributes,
        })
    }

    /// Names of the tables with at least one live attribute in this epoch.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Summarize one table: its live attributes, candidate values, and its
    /// `k` most homograph-like values under `measure`.
    pub fn table_summary(&self, table: &str, measure: Measure, k: usize) -> Option<TableSummary> {
        let attr_nodes = self.tables.get(table)?;
        let ranks = self.rank_of_node.get(&measure)?;
        let ranking = &self.rankings[&measure];
        let mut member_ranks: Vec<u32> = Vec::new();
        let mut incidence_count = 0usize;
        for &attr_node in attr_nodes {
            let members = self.graph.neighbors(attr_node);
            incidence_count += members.len();
            member_ranks.extend(
                members
                    .iter()
                    .map(|&v| ranks[v as usize])
                    .filter(|&r| r != u32::MAX),
            );
        }
        member_ranks.sort_unstable();
        member_ranks.dedup();
        let top = member_ranks
            .iter()
            .take(k)
            .map(|&r| ranking[r as usize].clone())
            .collect();
        Some(TableSummary {
            table: table.to_owned(),
            attribute_count: attr_nodes.len(),
            candidate_values: member_ranks.len(),
            incidence_count,
            top,
        })
    }

    /// Check every internal cross-reference of this snapshot.
    ///
    /// This is the invariant the concurrency stress test leans on: all data
    /// reachable from one snapshot must describe the *same* state, so a
    /// reader that pinned epoch `e` can never observe a mixture of epochs.
    /// Verified: every ranking has one entry per value node in the
    /// measure's sort order, every ranked value resolves to a live node,
    /// the rank index round-trips, and the per-table attribute partition
    /// covers exactly the attribute nodes.
    pub fn verify_consistency(&self) -> Result<(), String> {
        for &measure in &self.measures {
            let ranking = self
                .rankings
                .get(&measure)
                .ok_or_else(|| format!("{measure:?}: served measure has no ranking"))?;
            if ranking.len() != self.graph.value_count() {
                return Err(format!(
                    "{measure:?}: ranking has {} entries but the graph has {} value nodes",
                    ranking.len(),
                    self.graph.value_count()
                ));
            }
            let higher_first = measure.higher_is_more_homograph_like();
            let ranks = &self.rank_of_node[&measure];
            for (pos, scored) in ranking.iter().enumerate() {
                if let Some(prev) = ranking.get(pos.wrapping_sub(1)) {
                    let ordered = if higher_first {
                        prev.score >= scored.score
                    } else {
                        prev.score <= scored.score
                    };
                    if !ordered {
                        return Err(format!(
                            "{measure:?}: rank {pos} out of order ({} then {})",
                            prev.score, scored.score
                        ));
                    }
                }
                let node = self
                    .node_of_label
                    .get(&scored.value)
                    .ok_or_else(|| format!("{measure:?}: '{}' has no live node", scored.value))?;
                if ranks[node as usize] as usize != pos {
                    return Err(format!(
                        "{measure:?}: rank index says {} for '{}' at position {pos}",
                        ranks[node as usize], scored.value
                    ));
                }
            }
        }
        let table_attrs: usize = self.tables.values().map(Vec::len).sum();
        if table_attrs != self.graph.attribute_count() {
            return Err(format!(
                "table partition covers {table_attrs} attribute nodes, graph has {}",
                self.graph.attribute_count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domainnet::DomainNetBuilder;

    fn running_snapshot() -> Snapshot {
        let lake = lake::fixtures::running_example();
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        Snapshot::extract(&net, &lake, &[Measure::exact_bc(), Measure::lcc()], 3)
    }

    #[test]
    fn extraction_reuses_the_memoized_ranking() {
        let lake = lake::fixtures::running_example();
        let net = DomainNetBuilder::new().build(&lake);
        let warm = net.rank_shared(Measure::exact_bc());
        let snap = Snapshot::extract(&net, &lake, &[Measure::exact_bc()], 0);
        assert!(
            Arc::ptr_eq(&warm, snap.ranking(Measure::exact_bc()).unwrap()),
            "snapshot must share the memoized Arc, not copy the ranking"
        );
    }

    #[test]
    fn dotted_table_names_are_partitioned_structurally() {
        // A table whose *name* contains dots: the flattened display label
        // "sales.2024.id" is ambiguous, so table/column must come from the
        // lake's structured references, not from re-parsing the label.
        use lake::table::TableBuilder;
        let mut lake = lake::delta::MutableLake::new();
        lake.apply(
            &lake::delta::LakeDelta::new()
                .add_table(
                    TableBuilder::new("sales.2024")
                        .column("id", ["Jaguar", "Fiat"])
                        .build()
                        .unwrap(),
                )
                .add_table(
                    TableBuilder::new("zoo")
                        .column("animal", ["Jaguar", "Panda"])
                        .build()
                        .unwrap(),
                ),
        )
        .unwrap();
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        let snap = Snapshot::extract(&net, &lake, &[Measure::exact_bc()], 0);
        snap.verify_consistency().unwrap();

        let tables: Vec<&str> = snap.table_names().collect();
        assert_eq!(tables, ["sales.2024", "zoo"]);
        let summary = snap
            .table_summary("sales.2024", Measure::exact_bc(), 5)
            .expect("dotted table is addressable");
        assert_eq!(summary.attribute_count, 1);

        let explanation = snap.explain("Jaguar").unwrap();
        let sales = explanation
            .attributes
            .iter()
            .find(|a| a.table == "sales.2024")
            .expect("structured table reference survives");
        assert_eq!(sales.column, "id");
    }

    #[test]
    fn score_card_matches_the_ranking() {
        let snap = running_snapshot();
        let ranking = snap.ranking(Measure::exact_bc()).unwrap().clone();
        let card = snap.score_card(Measure::exact_bc(), "jaguar").unwrap();
        assert_eq!(card.rank, 1, "JAGUAR tops exact BC");
        assert_eq!(card.of, ranking.len());
        assert_eq!(card.score, ranking[0].score);
        assert!(card.percentile > 90.0);
        // Unknown values and unserved measures answer None.
        assert!(snap
            .score_card(Measure::exact_bc(), "no-such-value")
            .is_none());
        assert!(snap
            .score_card(Measure::approx_bc(64, 7), "jaguar")
            .is_none());

        // Every ranked value answers by each raw spelling the lake holds,
        // at its rank.
        let lake = lake::fixtures::running_example();
        let mut answered = vec![false; ranking.len()];
        for raw in (0..lake.text_count() as u32).map(|id| lake.text(id)) {
            let normalized = normalize(raw);
            let Some(pos) = ranking.iter().position(|s| s.value == normalized) else {
                continue;
            };
            let card = snap.score_card(Measure::exact_bc(), raw).unwrap();
            assert_eq!((card.value, card.rank), (normalized, pos + 1), "{raw:?}");
            answered[pos] = true;
        }
        assert!(answered.iter().all(|&a| a), "every ranked value answered");

        // Values the lake interned but pruning dropped have no node.
        let net = DomainNetBuilder::new().build(&lake);
        let pruned = Snapshot::extract(&net, &lake, &[Measure::exact_bc()], 0);
        let dropped: Vec<&str> = lake
            .interner()
            .texts()
            .iter()
            .filter(|&v| lake.value_attribute_count(lake.value_id(v).unwrap()) < 2)
            .collect();
        assert!(dropped.len() > 10, "{dropped:?}");
        for value in dropped {
            assert!(pruned.score_card(Measure::exact_bc(), value).is_none());
            assert!(pruned.explain(value).is_none());
        }
        // Nor does the empty string, pruned or not.
        for snap in [&snap, &pruned] {
            assert!(snap.score_card(Measure::exact_bc(), "").is_none());
            assert!(snap.explain("").is_none());
        }
    }

    #[test]
    fn explain_surfaces_the_two_meanings() {
        let snap = running_snapshot();
        let explanation = snap.explain("Jaguar").unwrap();
        assert_eq!(explanation.value, "JAGUAR");
        assert_eq!(explanation.attribute_count, explanation.attributes.len());
        assert!(explanation.attributes.len() >= 2);
        let tables: std::collections::HashSet<&str> = explanation
            .attributes
            .iter()
            .map(|a| a.table.as_str())
            .collect();
        assert!(tables.len() >= 2, "JAGUAR spans tables: {tables:?}");
        for attr in &explanation.attributes {
            assert!(attr.size >= 1);
            assert!(attr.sample_co_values.len() < attr.size);
            assert!(!attr.sample_co_values.contains(&"JAGUAR".to_owned()));
        }
    }

    /// `explain` reads `|N(v)|` off the rankings, which must hold the
    /// two-hop count for every value; with no measure served it walks.
    #[test]
    fn explain_cardinality_is_the_rankings() {
        let tus = datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(7)).generate();
        for (what, lake) in [
            ("running example", lake::fixtures::running_example()),
            ("TUS small", tus.catalog),
        ] {
            let net = DomainNetBuilder::new()
                .prune_single_attribute_values(false)
                .build(&lake);
            let served = Snapshot::extract(&net, &lake, &[Measure::lcc(), Measure::exact_bc()], 0);
            let unserved = Snapshot::extract(&net, &lake, &[], 0);
            for v in net.graph().value_nodes() {
                let value = net.graph().value_label(v);
                let count = net.graph().value_neighbor_count(v);
                assert_eq!(
                    served.explain(value).unwrap().cardinality,
                    count,
                    "{what}: {value}"
                );
                assert_eq!(
                    unserved.explain(value).unwrap().cardinality,
                    count,
                    "{what}: {value}"
                );
                for measure in [Measure::lcc(), Measure::exact_bc()] {
                    let card = served.score_card(measure, value).unwrap();
                    assert_eq!(card.cardinality, count, "{what}: {value}, {measure:?}");
                }
            }
        }
    }

    #[test]
    fn table_summaries_partition_the_lake() {
        let snap = running_snapshot();
        let tables: Vec<String> = snap.table_names().map(str::to_owned).collect();
        assert_eq!(tables, ["T1", "T2", "T3", "T4"]);
        let mut total_incidences = 0;
        for t in &tables {
            let summary = snap.table_summary(t, Measure::exact_bc(), 3).unwrap();
            assert!(summary.attribute_count >= 1);
            assert!(summary.top.len() <= 3);
            assert!(summary.candidate_values >= summary.top.len());
            total_incidences += summary.incidence_count;
        }
        assert_eq!(total_incidences, snap.stats().edge_count);
        assert!(snap
            .table_summary("ghost", Measure::exact_bc(), 3)
            .is_none());
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let snap = running_snapshot();
        snap.verify_consistency().unwrap();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(
            snap.ranking(Measure::lcc()).unwrap().len(),
            snap.stats().value_nodes,
            "one ranked entry per value node"
        );
    }
}
