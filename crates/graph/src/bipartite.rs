//! The bipartite value/attribute graph and its builder.
//!
//! Node ids are dense `u32`s. Value nodes occupy `0..value_count` and
//! attribute nodes occupy `value_count..value_count + attribute_count`; this
//! layout lets the centrality kernels use plain vectors indexed by node id
//! with no hashing on the hot path, which matters for Brandes' algorithm
//! whose inner loop touches every edge once per source.

/// Incrementally builds a [`BipartiteGraph`].
///
/// The builder accepts edges in any order, tolerates duplicate edges (they
/// are deduplicated at [`BipartiteBuilder::build`] time), and keeps optional
/// human-readable labels for diagnostics and experiment output.
#[derive(Debug, Default, Clone)]
pub struct BipartiteBuilder {
    value_labels: Vec<String>,
    attr_labels: Vec<String>,
    /// Edges as (value node id, attribute node id offset by value count at build time).
    edges: Vec<(u32, u32)>,
}

impl BipartiteBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with pre-allocated capacity.
    pub fn with_capacity(values: usize, attributes: usize, edges: usize) -> Self {
        BipartiteBuilder {
            value_labels: Vec::with_capacity(values),
            attr_labels: Vec::with_capacity(attributes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a value node and return its id (dense, starting at 0).
    pub fn add_value(&mut self, label: impl Into<String>) -> u32 {
        let id = self.value_labels.len() as u32;
        self.value_labels.push(label.into());
        id
    }

    /// Add an attribute node and return its *attribute index* (dense,
    /// starting at 0 — **not** the final node id, which is offset by the
    /// number of value nodes when the graph is built).
    pub fn add_attribute(&mut self, label: impl Into<String>) -> u32 {
        let id = self.attr_labels.len() as u32;
        self.attr_labels.push(label.into());
        id
    }

    /// Connect a value node to an attribute node (by attribute index).
    ///
    /// # Panics
    /// Panics if either id has not been allocated by this builder.
    pub fn add_edge(&mut self, value: u32, attribute: u32) {
        assert!(
            (value as usize) < self.value_labels.len(),
            "value node {value} was never added"
        );
        assert!(
            (attribute as usize) < self.attr_labels.len(),
            "attribute node {attribute} was never added"
        );
        self.edges.push((value, attribute));
    }

    /// Number of value nodes added so far.
    pub fn value_count(&self) -> usize {
        self.value_labels.len()
    }

    /// Number of attribute nodes added so far.
    pub fn attribute_count(&self) -> usize {
        self.attr_labels.len()
    }

    /// Finalize into an immutable CSR graph. Duplicate edges are removed:
    /// the edges are sorted and de-duplicated, and each value's run of
    /// them is its row in [`BipartiteGraph::from_value_rows`].
    pub fn build(self) -> BipartiteGraph {
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        // Value v's row is edges[starts[v]..starts[v + 1]].
        let mut starts = vec![0usize; self.value_labels.len() + 1];
        for &(v, _) in &edges {
            starts[v as usize + 1] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        BipartiteGraph::from_value_rows(self.value_labels, self.attr_labels, |v| {
            edges[starts[v as usize]..starts[v as usize + 1]]
                .iter()
                .map(|&(_, a)| a)
        })
    }
}

/// An immutable bipartite graph in CSR form.
///
/// * Value nodes: ids `0..value_count()`.
/// * Attribute nodes: ids `value_count()..node_count()`.
///
/// All adjacency queries are O(1) + O(degree) slices into a single shared
/// buffer, and the whole structure is `Send + Sync` so centrality kernels can
/// share it across threads without cloning. It is immutable: a lake mutation
/// yields a new graph from [`BipartiteBuilder`], and
/// [`dirty_region`](crate::delta::dirty_region) tells what the change
/// dirtied.
///
/// ```
/// use dn_graph::bipartite::BipartiteBuilder;
///
/// let mut builder = BipartiteBuilder::new();
/// let jaguar = builder.add_value("JAGUAR");
/// let panda = builder.add_value("PANDA");
/// let zoo = builder.add_attribute("zoo.animal");
/// let cars = builder.add_attribute("cars.brand");
/// builder.add_edge(jaguar, zoo);
/// builder.add_edge(jaguar, cars);
/// builder.add_edge(panda, zoo);
///
/// let graph = builder.build();
/// assert_eq!(graph.node_count(), 4);
/// assert_eq!(graph.degree(jaguar), 2);
/// // Attribute node ids are offset by the number of value nodes.
/// assert!(graph.has_edge(jaguar, graph.attribute_node(cars)));
/// assert_eq!(graph.value_neighbors(jaguar), vec![panda]);
/// ```
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_values: usize,
    n_attrs: usize,
    /// CSR offsets, length `node_count() + 1`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists, length `2 * edge_count()`.
    adjacency: Vec<u32>,
    value_labels: Vec<String>,
    attr_labels: Vec<String>,
}

impl BipartiteGraph {
    /// The one CSR fill: value node `v`'s edges go to the attribute
    /// indices `row(v)`, which must ascend strictly and be below
    /// `attr_labels.len()`. `row` is called twice per value (degrees, then
    /// the fill), and no edge list is built beside the CSR. Values are
    /// filled in ascending order, so every attribute's row comes out
    /// ascending too: the graph [`BipartiteBuilder::build`] gives for the
    /// same edges.
    ///
    /// # Panics
    /// Panics if a row names an attribute index out of range.
    pub fn from_value_rows<I>(
        value_labels: Vec<String>,
        attr_labels: Vec<String>,
        row: impl Fn(u32) -> I,
    ) -> BipartiteGraph
    where
        I: IntoIterator<Item = u32>,
    {
        let (n_values, n_attrs) = (value_labels.len(), attr_labels.len());
        let n = n_values + n_attrs;
        // Each node's degree at its index + 1, then summed into offsets.
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n_values {
            for a in row(v as u32) {
                assert!((a as usize) < n_attrs, "attribute node {a} was never added");
                offsets[v + 1] += 1;
                offsets[n_values + a as usize + 1] += 1;
            }
        }
        for node in 0..n {
            offsets[node + 1] += offsets[node];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u64> = offsets[n_values..n].to_vec();
        for (v, &row_start) in offsets[..n_values].iter().enumerate() {
            let row_start = row_start as usize;
            for (i, a) in row(v as u32).into_iter().enumerate() {
                let attr_node = (n_values + a as usize) as u32;
                debug_assert!(i == 0 || adjacency[row_start + i - 1] < attr_node);
                adjacency[row_start + i] = attr_node;
                let at = &mut cursor[a as usize];
                adjacency[*at as usize] = v as u32;
                *at += 1;
            }
        }
        BipartiteGraph {
            n_values,
            n_attrs,
            offsets,
            adjacency,
            value_labels,
            attr_labels,
        }
    }

    /// The CSR offset array (length `node_count() + 1`), for comparing two
    /// graphs node for node.
    pub fn csr_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated CSR adjacency lists (length `2 * edge_count()`),
    /// for comparing two graphs node for node.
    pub fn csr_adjacency(&self) -> &[u32] {
        &self.adjacency
    }

    /// The value-node label table, indexed by value node id.
    pub fn value_labels(&self) -> &[String] {
        &self.value_labels
    }

    /// Number of value nodes.
    pub fn value_count(&self) -> usize {
        self.n_values
    }

    /// Number of attribute nodes.
    pub fn attribute_count(&self) -> usize {
        self.n_attrs
    }

    /// Total number of nodes (values + attributes).
    pub fn node_count(&self) -> usize {
        self.n_values + self.n_attrs
    }

    /// Number of (undirected, deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Whether a node id denotes a value node.
    #[inline]
    pub fn is_value_node(&self, node: u32) -> bool {
        (node as usize) < self.n_values
    }

    /// The node id of the `i`-th attribute.
    #[inline]
    pub fn attribute_node(&self, attr_index: u32) -> u32 {
        self.n_values as u32 + attr_index
    }

    /// The attribute index of an attribute node id, if it is one.
    pub fn attribute_index(&self, node: u32) -> Option<u32> {
        if self.is_value_node(node) || (node as usize) >= self.node_count() {
            None
        } else {
            Some(node - self.n_values as u32)
        }
    }

    /// Neighbors of a node (attribute nodes for a value node and vice versa).
    #[inline]
    pub fn neighbors(&self, node: u32) -> &[u32] {
        let s = self.offsets[node as usize] as usize;
        let e = self.offsets[node as usize + 1] as usize;
        &self.adjacency[s..e]
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, node: u32) -> usize {
        (self.offsets[node as usize + 1] - self.offsets[node as usize]) as usize
    }

    /// Label of a value node.
    pub fn value_label(&self, value: u32) -> &str {
        &self.value_labels[value as usize]
    }

    /// Label of an attribute node (by attribute index).
    pub fn attribute_label(&self, attr_index: u32) -> &str {
        &self.attr_labels[attr_index as usize]
    }

    /// Label of any node id.
    pub fn node_label(&self, node: u32) -> &str {
        if self.is_value_node(node) {
            self.value_label(node)
        } else {
            self.attribute_label(node - self.n_values as u32)
        }
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.node_count() as u32
    }

    /// Iterate over all value node ids.
    pub fn value_nodes(&self) -> impl Iterator<Item = u32> {
        0..self.n_values as u32
    }

    /// Iterate over all attribute node ids.
    pub fn attribute_nodes(&self) -> impl Iterator<Item = u32> {
        self.n_values as u32..self.node_count() as u32
    }

    /// Whether an edge exists between two nodes (binary search, O(log deg)).
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        let (small, large) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(small).binary_search(&large).is_ok()
    }

    /// The *value neighbors* N(v) of a value node: all other value nodes that
    /// share at least one attribute with it (paths of length two), in sorted
    /// order without duplicates.
    pub fn value_neighbors(&self, value: u32) -> Vec<u32> {
        debug_assert!(self.is_value_node(value));
        let mut out = Vec::new();
        for &attr in self.neighbors(value) {
            for &other in self.neighbors(attr) {
                if other != value {
                    out.push(other);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The cardinality |N(v)| of a value node (number of distinct value
    /// neighbors). This is the quantity the paper calls the cardinality of a
    /// homograph.
    pub fn value_neighbor_count(&self, value: u32) -> usize {
        self.value_neighbors(value).len()
    }

    /// The cardinality |N(v)| of **every** value node, indexed by value node
    /// id, on a pool `threads` wide. It is `|B(v)| − 1` for the closed
    /// neighbourhood `B(v)`, `v` with every value sharing an attribute with
    /// it: the word runs of `v`'s attributes are OR-ed into one bitset per
    /// canonical chunk of value nodes, popcounted and cleared within their
    /// span of words. An isolated value has the empty `B(v)` and count 0.
    /// The counts are integers, hence the same at every width.
    pub fn value_neighbor_counts(&self, threads: usize) -> Vec<usize> {
        let runs = crate::closed::AttributeRuns::of(self);
        let chunks = crate::bc::canonical_chunks(self.n_values);
        let counts = dn_pool::Pool::new(threads).run(chunks.len(), |c| {
            let mut bits = vec![0u64; runs.words()];
            chunks[c]
                .clone()
                .map(|v| {
                    let span = runs.or_closed(self, v as u32, &mut bits);
                    let closed = crate::closed::popcount(&bits[span.clone()]);
                    bits[span].fill(0);
                    closed.saturating_sub(1)
                })
                .collect::<Vec<usize>>()
        });
        counts.concat()
    }

    /// The number of attributes a value node occurs in (its degree).
    pub fn value_attribute_count(&self, value: u32) -> usize {
        self.degree(value)
    }

    /// Consistency check used by tests and debug assertions: CSR offsets are
    /// monotone, adjacency lists are sorted, deduplicated, bipartite, and
    /// symmetric.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.node_count() + 1 {
            return Err("offset array has wrong length".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets are not monotone".into());
            }
        }
        if *self.offsets.last().expect("non-empty") as usize != self.adjacency.len() {
            return Err("final offset does not match adjacency length".into());
        }
        for node in self.nodes() {
            let neigh = self.neighbors(node);
            for w in neigh.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {node} not sorted/deduped"));
                }
            }
            for &other in neigh {
                if self.is_value_node(node) == self.is_value_node(other) {
                    return Err(format!("edge {node}-{other} is not bipartite"));
                }
                if !self.neighbors(other).contains(&node) {
                    return Err(format!("edge {node}-{other} is not symmetric"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds the bipartite graph of the paper's running example (Fig. 3b):
    /// 4 attributes, 8 values.
    pub(crate) fn figure3b() -> (BipartiteGraph, std::collections::HashMap<String, u32>) {
        let mut b = BipartiteBuilder::new();
        let mut ids = std::collections::HashMap::new();
        let values = [
            "FIAT", "TOYOTA", "APPLE", "PUMA", "JAGUAR", "PELICAN", "PANDA", "LEMUR",
        ];
        for v in values {
            ids.insert(v.to_string(), b.add_value(v));
        }
        let t2_name = b.add_attribute("T2.name");
        let t1_at_risk = b.add_attribute("T1.At Risk");
        let t4_name = b.add_attribute("T4.Name");
        let t3_c2 = b.add_attribute("T3.C2");
        for v in ["PANDA", "LEMUR", "JAGUAR"] {
            b.add_edge(ids[v], t2_name);
        }
        for v in ["PANDA", "PUMA", "JAGUAR", "PELICAN"] {
            b.add_edge(ids[v], t1_at_risk);
        }
        for v in ["JAGUAR", "PUMA", "APPLE", "TOYOTA"] {
            b.add_edge(ids[v], t4_name);
        }
        for v in ["JAGUAR", "TOYOTA", "FIAT"] {
            b.add_edge(ids[v], t3_c2);
        }
        (b.build(), ids)
    }

    #[test]
    fn build_and_validate_figure3b() {
        let (g, ids) = figure3b();
        assert_eq!(g.value_count(), 8);
        assert_eq!(g.attribute_count(), 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 14);
        g.validate().unwrap();
        assert_eq!(g.degree(ids["JAGUAR"]), 4);
        assert_eq!(g.degree(ids["PANDA"]), 2);
        assert_eq!(g.degree(ids["FIAT"]), 1);
    }

    #[test]
    fn node_kinds_and_labels() {
        let (g, ids) = figure3b();
        assert!(g.is_value_node(ids["JAGUAR"]));
        let attr_node = g.attribute_node(0);
        assert!(!g.is_value_node(attr_node));
        assert_eq!(g.node_label(ids["JAGUAR"]), "JAGUAR");
        assert_eq!(g.node_label(attr_node), "T2.name");
        assert_eq!(g.attribute_index(attr_node), Some(0));
        assert_eq!(g.attribute_index(ids["JAGUAR"]), None);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let mut b = BipartiteBuilder::new();
        let v = b.add_value("v");
        let a = b.add_attribute("a");
        b.add_edge(v, a);
        b.add_edge(v, a);
        b.add_edge(v, a);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(v), 1);
        g.validate().unwrap();
    }

    #[test]
    fn has_edge_uses_symmetric_lookup() {
        let (g, ids) = figure3b();
        let t3_c2 = g.attribute_node(3);
        assert!(g.has_edge(ids["FIAT"], t3_c2));
        assert!(g.has_edge(t3_c2, ids["FIAT"]));
        assert!(!g.has_edge(ids["FIAT"], g.attribute_node(0)));
    }

    #[test]
    fn value_neighbors_of_jaguar_span_all_values() {
        let (g, ids) = figure3b();
        // Jaguar appears in all four attributes, so it neighbors every other value.
        assert_eq!(g.value_neighbor_count(ids["JAGUAR"]), 7);
        // Fiat only co-occurs with Jaguar and Toyota (T3.C2).
        let fiat_neighbors = g.value_neighbors(ids["FIAT"]);
        let names: Vec<&str> = fiat_neighbors.iter().map(|&n| g.value_label(n)).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"JAGUAR"));
        assert!(names.contains(&"TOYOTA"));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = BipartiteBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_nodes_are_allowed() {
        let mut b = BipartiteBuilder::new();
        b.add_value("lonely");
        b.add_attribute("empty_column");
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0), 0);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "never added")]
    fn edge_to_unknown_node_panics() {
        let mut b = BipartiteBuilder::new();
        let v = b.add_value("v");
        b.add_edge(v, 3);
    }
}
