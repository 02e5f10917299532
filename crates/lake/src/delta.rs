//! The lake: one value↔attribute incidence index, built once and mutated
//! in place.
//!
//! * [`MutableLake`] — the lake (§3, Figure 2 of the paper) and the only
//!   lake type: a freshly loaded lake and one that has taken a thousand
//!   deltas are the same struct, with ids that never shift.
//! * [`LakeOp`] / [`LakeDelta`] — a recorded batch of table-level mutations
//!   (add table, remove table, replace a value inside one attribute).
//! * [`DeltaEffects`] — what an applied batch reports: the values whose
//!   attribute sets it touched. A consumer recomputes those values from the
//!   lake; nothing else can have changed.
//! * [`LakeView`] — the read-only interface the DomainNet graph builder
//!   is written against.
//!
//! ## Example
//!
//! ```
//! use lake::delta::{LakeDelta, LakeView, MutableLake};
//! use lake::table::TableBuilder;
//!
//! let mut lake = MutableLake::new();
//! let zoo = TableBuilder::new("zoo")
//!     .column("animal", ["Jaguar", "Panda"])
//!     .build()
//!     .unwrap();
//! let cars = TableBuilder::new("cars")
//!     .column("brand", ["Jaguar", "Fiat"])
//!     .build()
//!     .unwrap();
//!
//! let effects = lake.apply(&LakeDelta::new().add_table(zoo).add_table(cars)).unwrap();
//! assert_eq!(effects.touched_values.len(), 3); // Jaguar, Panda, Fiat
//! assert_eq!(lake.live_table_count(), 2);
//!
//! // Removing a table tombstones its attributes; value ids stay stable.
//! let jaguar = lake.value_id("JAGUAR").unwrap();
//! lake.apply(&LakeDelta::new().remove_table("cars")).unwrap();
//! assert_eq!(lake.value_id("JAGUAR"), Some(jaguar));
//! assert_eq!(lake.value_attributes(jaguar).len(), 1);
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::catalog::{AttrId, AttrRef};
use crate::column::Column;
use crate::error::LakeError;
use crate::table::Table;
use crate::value::{normalize, ValueId, ValueInterner};
use crate::Result;

// ---------------------------------------------------------------------------
// The read-only view
// ---------------------------------------------------------------------------

/// The read-only lake interface consumed by the DomainNet graph builder.
///
/// [`MutableLake`] is its one implementation. All methods describe the
/// **live** state only: tombstoned attributes contribute no incidences, and
/// values that no longer occur anywhere are reported in zero attributes.
pub trait LakeView {
    /// Number of distinct normalized values ever interned (including values
    /// that no longer occur anywhere).
    fn value_count(&self) -> usize;
    /// Number of attribute slots ever allocated (including tombstones).
    fn attribute_count(&self) -> usize;
    /// Total number of live (attribute, distinct value) incidences.
    fn incidence_count(&self) -> usize;
    /// The normalized string behind a value id.
    fn value(&self, id: ValueId) -> Option<&str>;
    /// The `table.column` reference of a live attribute.
    fn attribute_ref(&self, id: AttrId) -> Option<AttrRef>;
    /// Live attributes in which a value occurs (sorted ascending by id).
    fn value_attributes(&self, id: ValueId) -> &[AttrId];
    /// Values occurring in at least `min_attrs` live attributes.
    fn values_in_at_least(&self, min_attrs: usize) -> Vec<ValueId>;
    /// `(AttrId, sorted distinct ValueIds)` for every live attribute.
    fn live_attribute_values(&self) -> Vec<(AttrId, &[ValueId])>;
}

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// One table-level mutation of the lake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LakeOp {
    /// Add a new table (its name must not collide with a live table).
    AddTable(Table),
    /// Remove a live table by name.
    RemoveTable(String),
    /// Replace every cell of one column whose normalized form equals
    /// `target` (already normalized) with `replacement` (raw).
    ReplaceValue {
        /// Name of the (live) table to mutate.
        table: String,
        /// Name of the column inside that table.
        column: String,
        /// The normalized value to replace.
        target: String,
        /// The raw replacement text.
        replacement: String,
    },
}

/// A recorded batch of lake mutations, applied in order by
/// [`MutableLake::apply`]. Application is **not** atomic across ops — see
/// [`MutableLake::apply`] for the failure semantics.
///
/// ```
/// use lake::delta::LakeDelta;
/// use lake::table::TableBuilder;
///
/// let t = TableBuilder::new("t").column("c", ["x"]).build().unwrap();
/// let delta = LakeDelta::new()
///     .add_table(t)
///     .replace_value("t", "c", "X", "y");
/// assert_eq!(delta.len(), 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LakeDelta {
    ops: Vec<LakeOp>,
}

impl LakeDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an [`LakeOp::AddTable`] op.
    pub fn add_table(mut self, table: Table) -> Self {
        self.ops.push(LakeOp::AddTable(table));
        self
    }

    /// Append an [`LakeOp::RemoveTable`] op.
    pub fn remove_table(mut self, name: impl Into<String>) -> Self {
        self.ops.push(LakeOp::RemoveTable(name.into()));
        self
    }

    /// Append an [`LakeOp::ReplaceValue`] op. `target` is normalized here, so
    /// callers may pass the raw form.
    pub fn replace_value(
        mut self,
        table: impl Into<String>,
        column: impl Into<String>,
        target: &str,
        replacement: impl Into<String>,
    ) -> Self {
        self.ops.push(LakeOp::ReplaceValue {
            table: table.into(),
            column: column.into(),
            target: normalize(target),
            replacement: replacement.into(),
        });
        self
    }

    /// Append an already-built op.
    pub fn push(&mut self, op: LakeOp) {
        self.ops.push(op);
    }

    /// Concatenate another delta's ops onto this one — a convenience for
    /// callers composing one delta from several recorded pieces before
    /// applying it.
    pub fn merge(mut self, other: LakeDelta) -> Self {
        self.ops.extend(other.ops);
        self
    }

    /// The recorded ops in application order.
    pub fn ops(&self) -> &[LakeOp] {
        &self.ops
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta records no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What applying a batch of [`LakeDelta`]s reports to incremental consumers.
///
/// `DomainNet::apply_delta` re-reads each touched value's attribute set from
/// the lake and diffs it against the graph, so ops that cancel each other
/// cost an empty diff there and the lake keeps no change list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaEffects {
    /// Every value whose live attribute set an op of the batch changed,
    /// sorted ascending and deduplicated. A superset of the values whose
    /// set differs before and after the whole batch.
    pub touched_values: Vec<ValueId>,
}

// ---------------------------------------------------------------------------
// The lake
// ---------------------------------------------------------------------------

/// The data lake: an ordered collection of [`Table`]s with global indexes,
/// mutable in place with **stable identifiers**.
///
/// The lake maintains:
/// * a global [`ValueInterner`] over all distinct normalized values,
/// * an [`AttrId`] per column,
/// * for every attribute, the sorted set of distinct [`ValueId`]s it contains,
/// * for every value, the set of attributes it appears in (the inverted
///   index that makes "candidate homographs appear in ≥ 2 attributes"
///   queries cheap).
///
/// Identifier stability is the contract mutation keeps:
///
/// * [`ValueId`]s are append-only. A value that disappears from every live
///   attribute keeps its id (it simply occurs in zero attributes); if it
///   later reappears, the same id is reused.
/// * [`AttrId`]s are append-only, assigned in the order tables are added
///   and, within a table, in column order. Removing a table *tombstones*
///   its attribute slots — they stay allocated but hold no incidences.
///   Re-adding a table of the same name allocates fresh slots.
///
/// Stability is what lets the centrality scores on top of the bipartite
/// graph be *patched* instead of rebuilt: node indices derived from these
/// ids never shift underneath a consumer. Every read accessor
/// describes the live state, so code written against a never-mutated lake
/// is correct on a mutated one; [`MutableLake::snapshot`] compacts the live
/// state into fresh, dense ids.
///
/// ```
/// use lake::delta::MutableLake;
/// use lake::table::TableBuilder;
///
/// let mut lake = MutableLake::new();
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
pub struct MutableLake {
    /// Table slots; `None` marks a tombstoned (removed) table.
    tables: Vec<Option<Table>>,
    /// Live table name -> slot.
    table_index: HashMap<String, usize>,
    /// AttrId -> (table slot, column index). Never shrinks.
    attrs: Vec<(usize, usize)>,
    /// AttrId -> live flag.
    attr_live: Vec<bool>,
    /// AttrId -> sorted distinct live ValueIds (empty for tombstones).
    attr_values: Vec<Vec<ValueId>>,
    /// ValueId -> sorted live AttrIds containing it.
    value_attrs: Vec<Vec<AttrId>>,
    /// Append-only value interner.
    interner: ValueInterner,
}

impl MutableLake {
    /// Create an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a lake from an iterator of tables.
    pub fn from_tables(tables: impl IntoIterator<Item = Table>) -> Result<Self> {
        let mut lake = MutableLake::new();
        for t in tables {
            lake.add_table(t)?;
        }
        Ok(lake)
    }

    /// A copy of `catalog`, ids included (they are the same type).
    pub fn from_catalog(catalog: &MutableLake) -> Self {
        catalog.clone()
    }

    /// Add a table to the lake, indexing all of its columns and values.
    ///
    /// # Errors
    /// [`LakeError::DuplicateTable`] if a live table has the same name, or
    /// the shape error [`Table::validate_shape`] reports: a lake holds only
    /// tables its snapshot can decode.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        table.validate_shape()?;
        if self.table_index.contains_key(table.name()) {
            return Err(LakeError::DuplicateTable(table.name().to_owned()));
        }
        let slot = self.tables.len();
        self.table_index.insert(table.name().to_owned(), slot);
        for (col_idx, column) in table.columns().iter().enumerate() {
            let attr = AttrId(self.attrs.len() as u32);
            self.attrs.push((slot, col_idx));
            self.attr_live.push(true);
            let mut values = Vec::with_capacity(column.distinct_count());
            for v in column.distinct_values() {
                let vid = self.intern(v);
                // `attr` is the newest id, so pushing keeps the list sorted.
                self.value_attrs[vid.index()].push(attr);
                values.push(vid);
            }
            values.sort_unstable();
            values.dedup();
            self.attr_values.push(values);
        }
        self.tables.push(Some(table));
        Ok(())
    }

    /// Apply a delta, returning the [`DeltaEffects`] of its ops.
    ///
    /// Ops are applied in order. If an op fails, the error is returned and
    /// **no further ops run**; ops before the failing one remain applied
    /// and their effects are discarded with the error. Incremental
    /// consumers therefore cannot be patched after a failed apply — rebuild
    /// them against the lake's current state (`DomainNet::refresh` in the
    /// core crate) before continuing. Validate deltas upfront (as
    /// `datagen::mutate::MutationStream` does) to keep the fast path.
    ///
    /// # Errors
    /// * [`LakeError::DuplicateTable`] when adding a name that is live.
    /// * [`LakeError::ColumnLengthMismatch`] or
    ///   [`LakeError::DuplicateColumn`] when adding an ill-shaped table.
    /// * [`LakeError::NotFound`] when removing or mutating a missing table
    ///   or column.
    pub fn apply(&mut self, delta: &LakeDelta) -> Result<DeltaEffects> {
        self.apply_batch(std::iter::once(delta))
    }

    /// Apply several deltas as one batch, returning a single
    /// [`DeltaEffects`] record: the batching hook the serving layer's
    /// writer uses. Failure semantics match [`MutableLake::apply`]: the
    /// first failing op stops the batch, ops before it remain applied, and
    /// their effects are discarded with the error.
    pub fn apply_batch<'a, I>(&mut self, deltas: I) -> Result<DeltaEffects>
    where
        I: IntoIterator<Item = &'a LakeDelta>,
    {
        let mut touched_values = Vec::new();
        for delta in deltas {
            for op in delta.ops() {
                self.apply_op(op, &mut touched_values)?;
            }
        }
        touched_values.sort_unstable();
        touched_values.dedup();
        Ok(DeltaEffects { touched_values })
    }

    /// Apply one op, appending the values whose attribute sets it changed.
    fn apply_op(&mut self, op: &LakeOp, touched: &mut Vec<ValueId>) -> Result<()> {
        match op {
            LakeOp::AddTable(table) => {
                let first_new = self.attrs.len();
                self.add_table(table.clone())?;
                touched.extend(self.attr_values[first_new..].iter().flatten());
                Ok(())
            }
            LakeOp::RemoveTable(name) => self.remove_table(name, touched),
            LakeOp::ReplaceValue {
                table,
                column,
                target,
                replacement,
            } => self.replace_value(table, column, target, replacement, touched),
        }
    }

    fn intern(&mut self, normalized: &str) -> ValueId {
        let vid = self.interner.intern(normalized);
        if vid.index() >= self.value_attrs.len() {
            self.value_attrs.resize(vid.index() + 1, Vec::new());
        }
        vid
    }

    fn remove_table(&mut self, name: &str, touched: &mut Vec<ValueId>) -> Result<()> {
        let slot = self
            .table_index
            .remove(name)
            .ok_or_else(|| LakeError::NotFound(format!("table '{name}'")))?;
        for (attr_idx, &(t, _)) in self.attrs.iter().enumerate() {
            if t != slot || !self.attr_live[attr_idx] {
                continue;
            }
            let attr = AttrId(attr_idx as u32);
            for &vid in &self.attr_values[attr_idx] {
                remove_sorted(&mut self.value_attrs[vid.index()], attr);
            }
            touched.append(&mut self.attr_values[attr_idx]);
            self.attr_live[attr_idx] = false;
        }
        self.tables[slot] = None;
        Ok(())
    }

    fn replace_value(
        &mut self,
        table: &str,
        column: &str,
        target: &str,
        replacement: &str,
        touched: &mut Vec<ValueId>,
    ) -> Result<()> {
        if !self.table_index.contains_key(table) {
            return Err(LakeError::NotFound(format!("table '{table}'")));
        }
        let attr = self
            .attribute_id(table, column)
            .ok_or_else(|| LakeError::NotFound(format!("column '{table}.{column}'")))?;
        let (slot, col_idx) = self.attrs[attr.index()];
        let tab = self.tables[slot].as_mut().expect("live attribute");
        let col = &mut tab.columns_mut()[col_idx];
        if col.replace_value(target, replacement) == 0 {
            return Ok(());
        }
        // Recompute the attribute's distinct set and diff it against the index.
        let distinct: Vec<String> = col.distinct_values().map(str::to_owned).collect();
        let mut new_values: Vec<ValueId> = distinct.iter().map(|v| self.intern(v)).collect();
        new_values.sort_unstable();
        new_values.dedup();
        let (removed, added) = diff_sorted(&self.attr_values[attr.index()], &new_values);
        for &o in &removed {
            remove_sorted(&mut self.value_attrs[o.index()], attr);
        }
        for &n in &added {
            insert_sorted(&mut self.value_attrs[n.index()], attr);
        }
        touched.extend(removed);
        touched.extend(added);
        self.attr_values[attr.index()] = new_values;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tables (live state)
    // ------------------------------------------------------------------

    /// Number of live (non-tombstoned) tables.
    pub fn table_count(&self) -> usize {
        self.table_index.len()
    }

    /// [`MutableLake::table_count`], under the name the mutation path uses.
    pub fn live_table_count(&self) -> usize {
        self.table_count()
    }

    /// The live tables, in slot (insertion) order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter().flatten()
    }

    /// Names of the live tables, in slot order.
    pub fn live_table_names(&self) -> Vec<&str> {
        self.tables().map(Table::name).collect()
    }

    /// Look up a live table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index
            .get(name)
            .and_then(|&slot| self.tables[slot].as_ref())
    }

    // ------------------------------------------------------------------
    // Attributes (live state)
    // ------------------------------------------------------------------

    /// Number of attribute slots ever allocated (including tombstones).
    pub fn attribute_count(&self) -> usize {
        self.attrs.len()
    }

    /// Whether an attribute slot is live.
    pub fn is_attr_live(&self, id: AttrId) -> bool {
        self.attr_live.get(id.index()).copied().unwrap_or(false)
    }

    /// Iterate over the ids of the live attributes.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u32)
            .map(AttrId)
            .filter(|&id| self.is_attr_live(id))
    }

    /// The table and column behind a live attribute id.
    fn locate(&self, id: AttrId) -> Option<(&Table, &Column)> {
        if !self.is_attr_live(id) {
            return None;
        }
        let (slot, col) = self.attrs[id.index()];
        let table = self.tables[slot].as_ref()?;
        Some((table, table.columns().get(col)?))
    }

    /// The column behind a live attribute id.
    pub fn attribute(&self, id: AttrId) -> Option<&Column> {
        self.locate(id).map(|(_, column)| column)
    }

    /// The fully-qualified `table.column` reference of a live attribute.
    pub fn attribute_ref(&self, id: AttrId) -> Option<AttrRef> {
        self.locate(id)
            .map(|(table, column)| AttrRef::new(table.name(), column.name()))
    }

    /// Resolve a `table.column` pair of a live table to its attribute id.
    pub fn attribute_id(&self, table: &str, column: &str) -> Option<AttrId> {
        let &slot = self.table_index.get(table)?;
        let col = self.tables[slot]
            .as_ref()?
            .columns()
            .iter()
            .position(|c| c.name() == column)?;
        self.attribute_ids()
            .find(|id| self.attrs[id.index()] == (slot, col))
    }

    /// Sorted distinct live values of an attribute (empty for tombstones).
    pub fn attribute_values(&self, id: AttrId) -> &[ValueId] {
        self.attr_values
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The cardinality (number of distinct live values) of an attribute.
    pub fn attribute_cardinality(&self, id: AttrId) -> usize {
        self.attribute_values(id).len()
    }

    /// `(AttrId, sorted distinct ValueIds)` for every live attribute — the
    /// exact input needed to build the bipartite DomainNet graph.
    pub fn live_attribute_values(&self) -> Vec<(AttrId, &[ValueId])> {
        self.attribute_ids()
            .map(|id| (id, self.attribute_values(id)))
            .collect()
    }

    /// Total number of live (attribute, distinct value) incidences, i.e. the
    /// edge count of the bipartite graph before any pruning.
    pub fn incidence_count(&self) -> usize {
        self.attr_values.iter().map(Vec::len).sum()
    }

    /// Per-attribute cardinality histogram over the live attributes: map
    /// from cardinality to the number of attributes with that cardinality.
    /// Useful for diagnosing skew, which strongly affects LCC quality (§3.3).
    pub fn cardinality_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for id in self.attribute_ids() {
            *hist.entry(self.attribute_cardinality(id)).or_insert(0) += 1;
        }
        hist
    }

    // ------------------------------------------------------------------
    // Values (live state)
    // ------------------------------------------------------------------

    /// Number of distinct normalized values ever interned (including values
    /// that no longer occur anywhere).
    pub fn value_count(&self) -> usize {
        self.interner.len()
    }

    /// The shared append-only interner.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Look up the id of a normalized value.
    pub fn value_id(&self, normalized: &str) -> Option<ValueId> {
        self.interner.get(normalized)
    }

    /// Whether the given **normalized** value occurs in a live attribute.
    pub fn contains_value(&self, normalized: &str) -> bool {
        self.value_id(normalized)
            .is_some_and(|id| self.value_attribute_count(id) > 0)
    }

    /// The normalized string behind a value id.
    pub fn value(&self, id: ValueId) -> Option<&str> {
        self.interner.try_resolve(id)
    }

    /// Live attributes in which a value occurs (sorted ascending by id).
    pub fn value_attributes(&self, id: ValueId) -> &[AttrId] {
        self.value_attrs
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of live attributes in which a value occurs.
    pub fn value_attribute_count(&self, id: ValueId) -> usize {
        self.value_attributes(id).len()
    }

    /// Values that occur in at least `min_attrs` live attributes.
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

    // ------------------------------------------------------------------
    // Persistence (consumed by the `dn-store` crate)
    // ------------------------------------------------------------------

    /// All table slots in allocation order, tombstones included (`None`).
    pub fn table_slots(&self) -> &[Option<Table>] {
        &self.tables
    }

    /// `(table slot, column index)` per attribute slot, in [`AttrId`] order.
    /// Tombstoned attributes keep their location for id stability.
    pub fn attr_locations(&self) -> &[(usize, usize)] {
        &self.attrs
    }

    /// Liveness flag per attribute slot, in [`AttrId`] order.
    pub fn attr_live_flags(&self) -> &[bool] {
        &self.attr_live
    }

    /// Reassemble a lake from persisted parts, validating every
    /// cross-reference before any state becomes observable.
    ///
    /// This is the inverse of reading the lake back field-by-field via
    /// [`MutableLake::table_slots`], [`MutableLake::attr_locations`],
    /// [`MutableLake::attr_live_flags`], [`MutableLake::attribute_values`],
    /// and [`MutableLake::interner`]. The checks are deliberately paranoid —
    /// the inputs come from disk, and a half-loaded lake must never escape:
    ///
    /// * the interner values must be distinct (ids are their positions);
    /// * every live table must be well-shaped ([`Table::validate_shape`]:
    ///   equally long, uniquely named columns);
    /// * live table names must be unique; the three attribute-slot arrays
    ///   must agree in length;
    /// * every live attribute must point at a live table and a valid column,
    ///   every live `(table, column)` pair must have exactly one live slot,
    ///   and tombstoned attributes must hold no values;
    /// * `attr_values` must be sorted, deduplicated, in interner range, and
    ///   **equal to the re-derived distinct value set of its column** — the
    ///   redundancy is what turns a subtly corrupted index into a load
    ///   error instead of wrong scores.
    ///
    /// The `value_attrs` inverted index and the name index are rebuilt from
    /// the validated parts rather than trusted from disk.
    ///
    /// # Errors
    /// [`LakeError::Serde`] describing the first violated invariant, or the
    /// shape error [`Table::validate_shape`] reports.
    pub fn from_raw_parts(
        tables: Vec<Option<Table>>,
        attr_locations: Vec<(usize, usize)>,
        attr_live: Vec<bool>,
        attr_values: Vec<Vec<ValueId>>,
        interner_values: Vec<String>,
    ) -> Result<Self> {
        let corrupt = |msg: String| LakeError::Serde(msg);

        let interner = ValueInterner::from_values(interner_values).map_err(|(kept, dup)| {
            corrupt(format!("interner value {dup} duplicates value {}", kept.0))
        })?;

        let mut table_index = HashMap::new();
        for (slot, table) in tables.iter().enumerate() {
            if let Some(table) = table {
                table.validate_shape()?;
                if table_index.insert(table.name().to_owned(), slot).is_some() {
                    return Err(corrupt(format!(
                        "live table name '{}' appears in two slots",
                        table.name()
                    )));
                }
            }
        }

        if attr_locations.len() != attr_live.len() || attr_locations.len() != attr_values.len() {
            return Err(corrupt(format!(
                "attribute arrays disagree: {} locations, {} live flags, {} value sets",
                attr_locations.len(),
                attr_live.len(),
                attr_values.len()
            )));
        }

        // Every live (table slot, column) must be claimed by exactly one
        // live attribute slot, and vice versa.
        let mut claimed: HashMap<(usize, usize), usize> = HashMap::new();
        for (idx, &(slot, col)) in attr_locations.iter().enumerate() {
            if !attr_live[idx] {
                if !attr_values[idx].is_empty() {
                    return Err(corrupt(format!(
                        "tombstoned attribute {idx} still holds {} values",
                        attr_values[idx].len()
                    )));
                }
                continue;
            }
            let table = tables.get(slot).and_then(Option::as_ref).ok_or_else(|| {
                corrupt(format!("live attribute {idx} points at dead slot {slot}"))
            })?;
            let column = table.columns().get(col).ok_or_else(|| {
                corrupt(format!(
                    "live attribute {idx} points at missing column {col} of '{}'",
                    table.name()
                ))
            })?;
            if let Some(prev) = claimed.insert((slot, col), idx) {
                return Err(corrupt(format!(
                    "column {col} of slot {slot} is claimed by attributes {prev} and {idx}"
                )));
            }
            // Cross-check the persisted value set against a re-derivation
            // from the column's cells.
            let derived: Vec<ValueId> = column
                .distinct_values()
                .map(|v| {
                    interner.get(v).ok_or_else(|| {
                        corrupt(format!(
                            "column '{}.{}' holds value {v:?} missing from the interner",
                            table.name(),
                            column.name()
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            let mut derived = derived;
            derived.sort_unstable();
            derived.dedup();
            if derived != attr_values[idx] {
                return Err(corrupt(format!(
                    "attribute {idx} ('{}.{}') value set does not match its column",
                    table.name(),
                    column.name()
                )));
            }
        }
        let live_columns: usize = tables.iter().flatten().map(|t| t.column_count()).sum();
        if claimed.len() != live_columns {
            return Err(corrupt(format!(
                "{} live attribute slots cover {live_columns} live columns",
                claimed.len()
            )));
        }

        // Rebuild the inverted index from the validated forward index,
        // sizing each per-value list exactly (one counting pass) so the
        // rebuild does one allocation per value instead of amortized
        // regrowth.
        let mut counts = vec![0u32; interner.len()];
        for (idx, values) in attr_values.iter().enumerate() {
            for &vid in values {
                match counts.get_mut(vid.index()) {
                    Some(count) => *count += 1,
                    None => {
                        return Err(corrupt(format!(
                            "attribute {idx} references value {} outside the interner",
                            vid.0
                        )))
                    }
                }
            }
        }
        let mut value_attrs: Vec<Vec<AttrId>> = counts
            .into_iter()
            .map(|count| Vec::with_capacity(count as usize))
            .collect();
        for (idx, values) in attr_values.iter().enumerate() {
            for &vid in values {
                value_attrs[vid.index()].push(AttrId(idx as u32));
            }
        }
        // AttrIds were pushed in ascending idx order, so each list is sorted.

        Ok(MutableLake {
            tables,
            table_index,
            attrs: attr_locations,
            attr_live,
            attr_values,
            value_attrs,
            interner,
        })
    }

    /// Compact the live state into a fresh lake.
    ///
    /// The snapshot re-derives dense ids from scratch, so its [`ValueId`] /
    /// [`AttrId`] spaces generally differ from this lake's; it represents the
    /// same live content. This is the "full rebuild" path the incremental
    /// machinery is benchmarked against.
    pub fn snapshot(&self) -> Result<MutableLake> {
        MutableLake::from_tables(self.tables().cloned())
    }
}

impl LakeView for MutableLake {
    fn value_count(&self) -> usize {
        MutableLake::value_count(self)
    }
    fn attribute_count(&self) -> usize {
        MutableLake::attribute_count(self)
    }
    fn incidence_count(&self) -> usize {
        MutableLake::incidence_count(self)
    }
    fn value(&self, id: ValueId) -> Option<&str> {
        MutableLake::value(self, id)
    }
    fn attribute_ref(&self, id: AttrId) -> Option<AttrRef> {
        MutableLake::attribute_ref(self, id)
    }
    fn value_attributes(&self, id: ValueId) -> &[AttrId] {
        MutableLake::value_attributes(self, id)
    }
    fn values_in_at_least(&self, min_attrs: usize) -> Vec<ValueId> {
        MutableLake::values_in_at_least(self, min_attrs)
    }
    fn live_attribute_values(&self) -> Vec<(AttrId, &[ValueId])> {
        MutableLake::live_attribute_values(self)
    }
}

/// Symmetric difference of two sorted, deduplicated slices: returns the
/// items only in `old` (removed) and only in `new` (added).
///
/// Shared by the incidence diffing here and the edge diffing in the core
/// crate's incremental maintenance.
pub fn diff_sorted<T: Ord + Copy>(old: &[T], new: &[T]) -> (Vec<T>, Vec<T>) {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&o), Some(&n)) if o == n => {
                i += 1;
                j += 1;
            }
            (Some(&o), Some(&n)) if o < n => {
                removed.push(o);
                i += 1;
            }
            (Some(_), Some(&n)) => {
                added.push(n);
                j += 1;
            }
            (Some(&o), None) => {
                removed.push(o);
                i += 1;
            }
            (None, Some(&n)) => {
                added.push(n);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (removed, added)
}

fn insert_sorted<T: Ord + Copy>(vec: &mut Vec<T>, item: T) {
    if let Err(pos) = vec.binary_search(&item) {
        vec.insert(pos, item);
    }
}

fn remove_sorted<T: Ord + Copy>(vec: &mut Vec<T>, item: T) {
    if let Ok(pos) = vec.binary_search(&item) {
        vec.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn zoo() -> Table {
        TableBuilder::new("zoo")
            .column("animal", ["Jaguar", "Panda", "Lemur"])
            .build()
            .unwrap()
    }

    fn cars() -> Table {
        TableBuilder::new("cars")
            .column("brand", ["Jaguar", "Fiat", "Toyota"])
            .build()
            .unwrap()
    }

    /// The ids of `names`, sorted the way `touched_values` and
    /// `attribute_values` are.
    fn ids(lake: &MutableLake, names: &[&str]) -> Vec<ValueId> {
        let mut ids: Vec<ValueId> = names.iter().map(|n| lake.value_id(n).unwrap()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn add_tables_tracks_incidences_and_new_values() {
        let mut lake = MutableLake::new();
        let e1 = lake.apply(&LakeDelta::new().add_table(zoo())).unwrap();
        assert_eq!(e1.touched_values, ids(&lake, &["JAGUAR", "PANDA", "LEMUR"]));
        assert_eq!(lake.attribute_values(AttrId(0)), e1.touched_values);

        let e2 = lake.apply(&LakeDelta::new().add_table(cars())).unwrap();
        // Jaguar was already interned: it is touched again, under its old id.
        assert_eq!(e2.touched_values, ids(&lake, &["JAGUAR", "FIAT", "TOYOTA"]));
        assert_eq!(lake.attribute_values(AttrId(1)), e2.touched_values);
        assert_eq!(lake.value_count(), 5);
        let jaguar = lake.value_id("JAGUAR").unwrap();
        assert_eq!(lake.value_attributes(jaguar), &[AttrId(0), AttrId(1)]);
    }

    #[test]
    fn ill_shaped_tables_never_enter_the_lake() {
        // Snapshot decode refuses these, so a lake that held one could not
        // be recovered from its own checkpoint.
        let column = |name: &str, cells: &[&str]| {
            Column::new(name, cells.iter().map(|c| c.to_string()).collect())
        };
        let ragged = Table::from_columns(
            "ragged",
            vec![column("a", &["Jaguar", "Puma"]), column("b", &["Okapi"])],
        );
        let twice = Table::from_columns(
            "twice",
            vec![column("a", &["Jaguar"]), column("a", &["Okapi"])],
        );
        let mut lake = MutableLake::new();
        lake.add_table(zoo()).unwrap();
        assert!(matches!(
            lake.add_table(ragged.clone()),
            Err(LakeError::ColumnLengthMismatch { .. })
        ));
        assert!(matches!(
            lake.apply(&LakeDelta::new().add_table(ragged)),
            Err(LakeError::ColumnLengthMismatch { .. })
        ));
        assert!(matches!(
            lake.apply(&LakeDelta::new().add_table(twice)),
            Err(LakeError::DuplicateColumn { .. })
        ));
        assert_eq!(lake.live_table_names(), ["zoo"]);
        assert_eq!(lake.attribute_count(), 1);
        assert_eq!(lake.value_count(), 3);
    }

    #[test]
    fn remove_table_tombstones_but_keeps_ids() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        let jaguar = lake.value_id("JAGUAR").unwrap();
        let fiat = lake.value_id("FIAT").unwrap();

        let e = lake.apply(&LakeDelta::new().remove_table("cars")).unwrap();
        assert_eq!(e.touched_values, ids(&lake, &["JAGUAR", "FIAT", "TOYOTA"]));

        assert_eq!(lake.live_table_count(), 1);
        assert!(!lake.is_attr_live(AttrId(1)));
        assert!(lake.attribute_values(AttrId(1)).is_empty());
        assert_eq!(lake.attribute_ids().collect::<Vec<_>>(), [AttrId(0)]);
        assert_eq!(lake.value_attributes(jaguar), &[AttrId(0)]);
        assert!(lake.value_attributes(fiat).is_empty());
        // Ids are stable: Fiat stays interned at the same id.
        assert_eq!(lake.value_id("FIAT"), Some(fiat));
        assert_eq!(LakeView::value(&lake, fiat), Some("FIAT"));
    }

    #[test]
    fn readd_after_remove_allocates_fresh_attrs_and_reuses_value_ids() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        let fiat = lake.value_id("FIAT").unwrap();
        lake.apply(&LakeDelta::new().remove_table("cars")).unwrap();
        let values = lake.value_count();
        let e = lake.apply(&LakeDelta::new().add_table(cars())).unwrap();
        assert_eq!(e.touched_values, ids(&lake, &["JAGUAR", "FIAT", "TOYOTA"]));
        assert_eq!(lake.attribute_values(AttrId(2)), e.touched_values);
        assert_eq!(
            lake.value_count(),
            values,
            "all values were already interned"
        );
        assert_eq!(lake.value_attributes(fiat), &[AttrId(2)]);
        assert_eq!(lake.live_table_count(), 2);
    }

    #[test]
    fn duplicate_live_table_is_rejected() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo())).unwrap();
        let err = lake.apply(&LakeDelta::new().add_table(zoo())).unwrap_err();
        assert!(matches!(err, LakeError::DuplicateTable(_)));
    }

    #[test]
    fn remove_missing_table_is_not_found() {
        let mut lake = MutableLake::new();
        let err = lake
            .apply(&LakeDelta::new().remove_table("ghost"))
            .unwrap_err();
        assert!(matches!(err, LakeError::NotFound(_)));
    }

    #[test]
    fn replace_value_diffs_incidences() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        let e = lake
            .apply(&LakeDelta::new().replace_value("cars", "brand", "Jaguar", "Rover"))
            .unwrap();
        let jaguar = lake.value_id("JAGUAR").unwrap();
        let rover = lake.value_id("ROVER").expect("ROVER is new");
        assert_eq!(e.touched_values, vec![jaguar, rover]);
        assert_eq!(lake.value_attributes(jaguar), &[AttrId(0)]);
        assert_eq!(lake.value_attributes(rover), &[AttrId(1)]);
        assert_eq!(
            lake.attribute_values(AttrId(1)),
            ids(&lake, &["FIAT", "TOYOTA", "ROVER"])
        );
    }

    #[test]
    fn replace_missing_target_is_noop() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo())).unwrap();
        let e = lake
            .apply(&LakeDelta::new().replace_value("zoo", "animal", "Dodo", "Raven"))
            .unwrap();
        assert!(e.touched_values.is_empty());
        assert_eq!(lake.attribute_values(AttrId(0)).len(), 3);
    }

    #[test]
    fn remove_then_readd_same_delta_cancels_incidences() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(cars())).unwrap();
        let e = lake
            .apply(&LakeDelta::new().remove_table("cars").add_table(cars()))
            .unwrap();
        // The value set is back, but under a fresh attribute slot: every
        // value is touched (once — the set is deduplicated) and now sits in
        // the new attribute only.
        assert_eq!(e.touched_values, ids(&lake, &["JAGUAR", "FIAT", "TOYOTA"]));
        assert!(lake.attribute_values(AttrId(0)).is_empty());
        assert_eq!(lake.attribute_values(AttrId(1)), e.touched_values);
        for &v in &e.touched_values {
            assert_eq!(lake.value_attributes(v), &[AttrId(1)]);
        }
    }

    #[test]
    fn merge_concatenates_ops_in_order() {
        let merged = LakeDelta::new()
            .add_table(zoo())
            .merge(LakeDelta::new().add_table(cars()).remove_table("zoo"));
        assert_eq!(merged.len(), 3);
        assert!(matches!(merged.ops()[0], LakeOp::AddTable(_)));
        assert!(matches!(merged.ops()[2], LakeOp::RemoveTable(_)));
        let mut lake = MutableLake::new();
        lake.apply(&merged).unwrap();
        assert_eq!(lake.live_table_count(), 1);
    }

    #[test]
    fn apply_batch_matches_sequential_applies() {
        let deltas = [
            LakeDelta::new().add_table(zoo()),
            LakeDelta::new().add_table(cars()),
            LakeDelta::new().replace_value("cars", "brand", "Fiat", "Rover"),
        ];
        let mut batched = MutableLake::new();
        let effects = batched.apply_batch(deltas.iter()).unwrap();
        let mut sequential = MutableLake::new();
        for delta in &deltas {
            sequential.apply(delta).unwrap();
        }
        // Same live state...
        assert_eq!(batched.live_table_names(), sequential.live_table_names());
        assert_eq!(
            LakeView::incidence_count(&batched),
            LakeView::incidence_count(&sequential)
        );
        // ...and the one record covers everything the batch touched.
        assert_eq!(
            effects.touched_values,
            ids(
                &batched,
                &["JAGUAR", "PANDA", "LEMUR", "FIAT", "TOYOTA", "ROVER"]
            )
        );
        for attr in [AttrId(0), AttrId(1)] {
            assert_eq!(
                batched.attribute_values(attr),
                sequential.attribute_values(attr)
            );
        }
    }

    #[test]
    fn apply_batch_cancels_incidences_across_deltas() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo())).unwrap();
        // One batch rewrites Jaguar away and back: both values are reported
        // touched and the lake ends where it started, so a consumer that
        // diffs them against its own state finds nothing to do.
        let before = lake.attribute_values(AttrId(0)).to_vec();
        let effects = lake
            .apply_batch(
                [
                    LakeDelta::new().replace_value("zoo", "animal", "Jaguar", "Okapi"),
                    LakeDelta::new().replace_value("zoo", "animal", "Okapi", "Jaguar"),
                ]
                .iter(),
            )
            .unwrap();
        let jaguar = lake.value_id("JAGUAR").unwrap();
        let okapi = lake.value_id("OKAPI").unwrap();
        assert_eq!(effects.touched_values, vec![jaguar, okapi]);
        assert_eq!(lake.attribute_values(AttrId(0)), before);
        assert_eq!(lake.value_attributes(jaguar), &[AttrId(0)]);
        assert!(lake.value_attributes(okapi).is_empty());
    }

    #[test]
    fn apply_batch_stops_at_the_first_failing_op() {
        let mut lake = MutableLake::new();
        let err = lake
            .apply_batch(
                [
                    LakeDelta::new().add_table(zoo()),
                    LakeDelta::new().remove_table("ghost"),
                    LakeDelta::new().add_table(cars()),
                ]
                .iter(),
            )
            .unwrap_err();
        assert!(matches!(err, LakeError::NotFound(_)));
        // The first delta stuck, the third never ran.
        assert!(lake.table("zoo").is_some());
        assert!(lake.table("cars").is_none());
    }

    #[test]
    fn from_raw_parts_round_trips_a_mutated_lake() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        lake.apply(
            &LakeDelta::new()
                .remove_table("zoo")
                .replace_value("cars", "brand", "Fiat", "Rover"),
        )
        .unwrap();

        let rebuilt = MutableLake::from_raw_parts(
            lake.table_slots().to_vec(),
            lake.attr_locations().to_vec(),
            lake.attr_live_flags().to_vec(),
            (0..lake.attr_locations().len())
                .map(|i| lake.attribute_values(AttrId(i as u32)).to_vec())
                .collect(),
            lake.interner().iter().map(|(_, v)| v.to_owned()).collect(),
        )
        .unwrap();

        assert_eq!(rebuilt.live_table_names(), lake.live_table_names());
        assert_eq!(
            LakeView::incidence_count(&rebuilt),
            LakeView::incidence_count(&lake)
        );
        for vid in (0..lake.interner().len() as u32).map(ValueId) {
            assert_eq!(
                LakeView::value(&rebuilt, vid),
                LakeView::value(&lake, vid),
                "value ids must survive the round trip"
            );
            assert_eq!(
                LakeView::value_attributes(&rebuilt, vid),
                LakeView::value_attributes(&lake, vid)
            );
        }
    }

    #[test]
    fn from_raw_parts_rejects_mismatched_value_sets() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo())).unwrap();
        let mut attr_values: Vec<Vec<ValueId>> = (0..lake.attr_locations().len())
            .map(|i| lake.attribute_values(AttrId(i as u32)).to_vec())
            .collect();
        attr_values[0].pop(); // drop one incidence: no longer matches the column
        let err = MutableLake::from_raw_parts(
            lake.table_slots().to_vec(),
            lake.attr_locations().to_vec(),
            lake.attr_live_flags().to_vec(),
            attr_values,
            lake.interner().iter().map(|(_, v)| v.to_owned()).collect(),
        )
        .unwrap_err();
        assert!(matches!(err, LakeError::Serde(_)), "{err}");
    }

    #[test]
    fn snapshot_compacts_live_state() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        lake.apply(&LakeDelta::new().remove_table("zoo")).unwrap();
        let snap = lake.snapshot().unwrap();
        assert_eq!(snap.table_count(), 1);
        assert_eq!(snap.value_count(), 3, "only the live values remain");
        assert!(snap.contains_value("FIAT"));
        assert!(!snap.contains_value("PANDA"));
    }

    #[test]
    fn from_catalog_preserves_ids() {
        let catalog = crate::fixtures::running_example();
        let lake = MutableLake::from_catalog(&catalog);
        assert_eq!(LakeView::value_count(&lake), catalog.value_count());
        assert_eq!(LakeView::attribute_count(&lake), catalog.attribute_count());
        assert_eq!(LakeView::incidence_count(&lake), catalog.incidence_count());
        for vid in (0..catalog.value_count() as u32).map(ValueId) {
            assert_eq!(
                LakeView::value(&lake, vid),
                catalog.value(vid),
                "value ids must agree"
            );
            assert_eq!(
                LakeView::value_attributes(&lake, vid),
                catalog.value_attributes(vid)
            );
        }
    }

    #[test]
    fn live_view_matches_snapshot_view() {
        let mut lake = MutableLake::new();
        lake.apply(
            &LakeDelta::new()
                .add_table(zoo())
                .add_table(cars())
                .remove_table("zoo"),
        )
        .unwrap();
        let snap = lake.snapshot().unwrap();
        // Same live incidence structure, possibly different id spaces:
        // compare as (attr label, value string) pairs.
        let live_pairs = |view: &dyn LakeView| -> Vec<(String, String)> {
            let mut out = Vec::new();
            for (attr, values) in view.live_attribute_values() {
                let aref = view.attribute_ref(attr).unwrap().qualified();
                for &v in values {
                    out.push((aref.clone(), view.value(v).unwrap().to_owned()));
                }
            }
            out.sort();
            out
        };
        assert_eq!(live_pairs(&lake), live_pairs(&snap));
    }
}
