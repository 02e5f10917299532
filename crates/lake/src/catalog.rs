//! The lake catalog: all tables, plus a global attribute and value index.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::error::LakeError;
use crate::table::Table;
use crate::value::{ValueId, ValueInterner};
use crate::Result;

/// A dense identifier for an attribute (a column of a specific table).
///
/// Attribute ids are assigned in the order tables are added and, within a
/// table, in column order. They are stable for the lifetime of the catalog
/// and are used directly as attribute-node indices in the DomainNet graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fully-qualified name of an attribute: `table.column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrRef {
    /// Name of the table the attribute belongs to.
    pub table: String,
    /// Name of the column inside that table.
    pub column: String,
}

impl AttrRef {
    /// Construct an attribute reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        AttrRef {
            table: table.into(),
            column: column.into(),
        }
    }

    /// Render as `table.column`.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

/// The data lake: an ordered collection of [`Table`]s with global indexes.
///
/// The catalog maintains:
/// * a global [`ValueInterner`] over all distinct normalized values,
/// * a dense [`AttrId`] per column,
/// * for every attribute, the sorted set of distinct [`ValueId`]s it contains,
/// * for every value, the set of attributes it appears in (the inverted
///   index that makes "candidate homographs appear in ≥ 2 attributes"
///   queries cheap).
///
/// The catalog is a **static snapshot**; for a lake that mutates, wrap it in
/// (or build) a [`crate::delta::MutableLake`] instead.
///
/// ```
/// use lake::catalog::LakeCatalog;
/// use lake::table::TableBuilder;
///
/// let mut lake = LakeCatalog::new();
/// lake.add_table(
///     TableBuilder::new("zoo")
///         .column("animal", ["Jaguar", "Panda"])
///         .build()
///         .unwrap(),
/// )
/// .unwrap();
/// lake.add_table(
///     TableBuilder::new("cars")
///         .column("brand", ["Jaguar", "Fiat"])
///         .build()
///         .unwrap(),
/// )
/// .unwrap();
///
/// // "Jaguar" occurs in two attributes — the homograph candidate set.
/// let jaguar = lake.value_id("JAGUAR").unwrap();
/// assert_eq!(lake.value_attribute_count(jaguar), 2);
/// assert_eq!(lake.values_in_at_least(2), vec![jaguar]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct LakeCatalog {
    tables: Vec<Table>,
    table_index: HashMap<String, usize>,
    /// attr id -> (table index, column index)
    attrs: Vec<(usize, usize)>,
    /// attr id -> distinct value ids (sorted)
    attr_values: Vec<Vec<ValueId>>,
    /// value id -> attr ids containing it (sorted)
    value_attrs: Vec<Vec<AttrId>>,
    interner: ValueInterner,
}

impl LakeCatalog {
    /// Create an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table to the lake, indexing all of its columns and values.
    ///
    /// # Errors
    /// [`LakeError::DuplicateTable`] if a table with the same name exists.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.table_index.contains_key(table.name()) {
            return Err(LakeError::DuplicateTable(table.name().to_owned()));
        }
        let table_idx = self.tables.len();
        self.table_index.insert(table.name().to_owned(), table_idx);
        for (col_idx, column) in table.columns().iter().enumerate() {
            let attr_id = AttrId(self.attrs.len() as u32);
            self.attrs.push((table_idx, col_idx));
            let mut values = Vec::with_capacity(column.distinct_count());
            for v in column.distinct_values() {
                let vid = self.interner.intern(v);
                if vid.index() >= self.value_attrs.len() {
                    self.value_attrs.resize(vid.index() + 1, Vec::new());
                }
                self.value_attrs[vid.index()].push(attr_id);
                values.push(vid);
            }
            values.sort_unstable();
            values.dedup();
            self.attr_values.push(values);
        }
        self.tables.push(table);
        Ok(())
    }

    /// Build a catalog from an iterator of tables.
    pub fn from_tables<I>(tables: I) -> Result<Self>
    where
        I: IntoIterator<Item = Table>,
    {
        let mut catalog = LakeCatalog::new();
        for t in tables {
            catalog.add_table(t)?;
        }
        Ok(catalog)
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Number of tables in the lake.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The tables in insertion order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index.get(name).map(|&i| &self.tables[i])
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// Number of attributes (columns) across all tables.
    pub fn attribute_count(&self) -> usize {
        self.attrs.len()
    }

    /// Iterate over all attribute ids.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// The column behind an attribute id.
    pub fn attribute(&self, id: AttrId) -> Option<&Column> {
        let &(t, c) = self.attrs.get(id.index())?;
        self.tables[t].columns().get(c)
    }

    /// The fully-qualified `table.column` reference of an attribute.
    pub fn attribute_ref(&self, id: AttrId) -> Option<AttrRef> {
        let &(t, c) = self.attrs.get(id.index())?;
        let table = &self.tables[t];
        Some(AttrRef::new(table.name(), table.columns()[c].name()))
    }

    /// Resolve a `table.column` pair to its attribute id.
    pub fn attribute_id(&self, table: &str, column: &str) -> Option<AttrId> {
        let &t = self.table_index.get(table)?;
        let c = self.tables[t]
            .columns()
            .iter()
            .position(|col| col.name() == column)?;
        self.attrs
            .iter()
            .position(|&(ti, ci)| ti == t && ci == c)
            .map(|i| AttrId(i as u32))
    }

    /// Distinct value ids of an attribute (sorted ascending).
    pub fn attribute_values(&self, id: AttrId) -> &[ValueId] {
        self.attr_values
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The cardinality (number of distinct values) of an attribute.
    pub fn attribute_cardinality(&self, id: AttrId) -> usize {
        self.attribute_values(id).len()
    }

    // ------------------------------------------------------------------
    // Values
    // ------------------------------------------------------------------

    /// Number of distinct normalized values across the whole lake.
    pub fn value_count(&self) -> usize {
        self.interner.len()
    }

    /// The shared value interner.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Whether the lake contains the given **normalized** value.
    pub fn contains_value(&self, normalized: &str) -> bool {
        self.interner.get(normalized).is_some()
    }

    /// Look up the id of a normalized value.
    pub fn value_id(&self, normalized: &str) -> Option<ValueId> {
        self.interner.get(normalized)
    }

    /// The normalized string behind a value id.
    pub fn value(&self, id: ValueId) -> Option<&str> {
        self.interner.try_resolve(id)
    }

    /// Attributes in which a value occurs (sorted ascending by id).
    pub fn value_attributes(&self, id: ValueId) -> &[AttrId] {
        self.value_attrs
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of attributes in which a value occurs.
    pub fn value_attribute_count(&self, id: ValueId) -> usize {
        self.value_attributes(id).len()
    }

    /// Values that occur in at least `min_attrs` attributes.
    ///
    /// With `min_attrs == 2` this is exactly the DomainNet candidate set:
    /// a value appearing in a single attribute cannot be a homograph and is
    /// pruned before graph analysis (§5, pre-processing).
    pub fn values_in_at_least(&self, min_attrs: usize) -> Vec<ValueId> {
        self.value_attrs
            .iter()
            .enumerate()
            .filter(|(_, attrs)| attrs.len() >= min_attrs)
            .map(|(i, _)| ValueId(i as u32))
            .collect()
    }

    /// The *cardinality of a value node*: the number of unique other values
    /// it co-occurs with across all attributes containing it (|N(v)| in the
    /// paper).
    pub fn value_cardinality(&self, id: ValueId) -> usize {
        let mut neighbors: HashSet<ValueId> = HashSet::new();
        for &attr in self.value_attributes(id) {
            for &other in self.attribute_values(attr) {
                if other != id {
                    neighbors.insert(other);
                }
            }
        }
        neighbors.len()
    }

    /// Iterate over `(AttrId, &[ValueId])` pairs — the exact input needed to
    /// build the bipartite DomainNet graph.
    pub fn attribute_value_pairs(&self) -> impl Iterator<Item = (AttrId, &[ValueId])> {
        self.attr_values
            .iter()
            .enumerate()
            .map(|(i, vs)| (AttrId(i as u32), vs.as_slice()))
    }

    /// Total number of (attribute, distinct value) incidences, i.e. the edge
    /// count of the bipartite graph before any pruning.
    pub fn incidence_count(&self) -> usize {
        self.attr_values.iter().map(Vec::len).sum()
    }

    /// Per-attribute cardinality histogram: map from cardinality to the
    /// number of attributes with that cardinality. Useful for diagnosing
    /// skew, which strongly affects LCC quality (§3.3).
    pub fn cardinality_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for vs in &self.attr_values {
            *hist.entry(vs.len()).or_insert(0) += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    use crate::fixtures::running_example;

    #[test]
    fn counts_on_running_example() {
        let lake = running_example();
        assert_eq!(lake.table_count(), 4);
        assert_eq!(lake.attribute_count(), 12);
        assert!(lake.contains_value("JAGUAR"));
        assert!(lake.contains_value("SAN DIEGO"));
        assert!(
            !lake.contains_value("jaguar"),
            "lookups are by normalized form"
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut lake = LakeCatalog::new();
        let t = TableBuilder::new("T").column("a", ["1"]).build().unwrap();
        lake.add_table(t.clone()).unwrap();
        assert!(matches!(
            lake.add_table(t),
            Err(LakeError::DuplicateTable(_))
        ));
    }

    #[test]
    fn value_attribute_index() {
        let lake = running_example();
        let jaguar = lake.value_id("JAGUAR").unwrap();
        // Jaguar appears in T1.At Risk, T2.name, T3.C2, T4.Name
        assert_eq!(lake.value_attribute_count(jaguar), 4);
        let panda = lake.value_id("PANDA").unwrap();
        assert_eq!(lake.value_attribute_count(panda), 2);
        let google = lake.value_id("GOOGLE").unwrap();
        assert_eq!(lake.value_attribute_count(google), 1);
    }

    #[test]
    fn candidate_set_is_values_in_at_least_two_attrs() {
        let lake = running_example();
        let candidates = lake.values_in_at_least(2);
        let names: Vec<&str> = candidates.iter().map(|&v| lake.value(v).unwrap()).collect();
        assert!(names.contains(&"JAGUAR"));
        assert!(names.contains(&"PUMA"));
        assert!(names.contains(&"PANDA"));
        assert!(names.contains(&"TOYOTA"));
        assert!(!names.contains(&"GOOGLE"));
        assert!(!names.contains(&"MEMPHIS"));
    }

    #[test]
    fn attribute_lookup_round_trip() {
        let lake = running_example();
        let id = lake.attribute_id("T2", "name").unwrap();
        let aref = lake.attribute_ref(id).unwrap();
        assert_eq!(aref.table, "T2");
        assert_eq!(aref.column, "name");
        assert_eq!(aref.qualified(), "T2.name");
        assert_eq!(lake.attribute_cardinality(id), 3); // Panda, Lemur, Jaguar
    }

    #[test]
    fn value_cardinality_counts_unique_co_occurring_values() {
        let lake = running_example();
        let panda = lake.value_id("PANDA").unwrap();
        // Panda co-occurs with T1.At Risk = {Puma, Jaguar, Pelican} and
        // T2.name = {Lemur, Jaguar} -> unique neighbors = 4.
        assert_eq!(lake.value_cardinality(panda), 4);
    }

    #[test]
    fn incidence_count_matches_sum_of_cardinalities() {
        let lake = running_example();
        let total: usize = lake
            .attribute_ids()
            .map(|a| lake.attribute_cardinality(a))
            .sum();
        assert_eq!(lake.incidence_count(), total);
    }

    #[test]
    fn cardinality_histogram_sums_to_attribute_count() {
        let lake = running_example();
        let hist = lake.cardinality_histogram();
        let total: usize = hist.values().sum();
        assert_eq!(total, lake.attribute_count());
    }

    #[test]
    fn attribute_values_are_sorted_and_deduped() {
        let lake = running_example();
        for (_, values) in lake.attribute_value_pairs() {
            let mut sorted = values.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.as_slice(), values);
        }
    }
}
