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
//! assert_eq!(lake.table_count(), 2);
//!
//! // Removing a table tombstones its attributes; value ids stay stable.
//! let jaguar = lake.value_id("JAGUAR").unwrap();
//! lake.apply(&LakeDelta::new().remove_table("cars")).unwrap();
//! assert_eq!(lake.value_id("JAGUAR"), Some(jaguar));
//! assert_eq!(lake.value_attributes(jaguar).len(), 1);
//! ```

use std::collections::{HashMap, HashSet};

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

    /// [`Table::validate_encoding`] on every added table: a decoded delta
    /// holds whatever its JSON said, and an impossible table must be a typed
    /// error, never a panic inside the engine.
    ///
    /// # Errors
    /// The first failing table's [`LakeError`].
    pub fn validate_encoding(&self) -> Result<()> {
        self.ops.iter().try_for_each(|op| match op {
            LakeOp::AddTable(table) => table.validate_encoding(),
            _ => Ok(()),
        })
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

/// One table slot of a [`MutableLake`], in allocation order. Slots are
/// never reused: removing a table leaves its slot `Removed`, and its
/// columns' attribute ids stay allocated, dead.
#[derive(Debug, Clone)]
pub enum TableSlot {
    /// A live table.
    Live(Table),
    /// A removed table.
    Removed {
        /// The removed table's column count: the attribute ids it keeps.
        columns: usize,
    },
}

impl TableSlot {
    /// The table, if the slot is live.
    pub fn live(&self) -> Option<&Table> {
        match self {
            TableSlot::Live(table) => Some(table),
            TableSlot::Removed { .. } => None,
        }
    }

    /// The slot's column count: the attribute ids it holds, live or dead.
    pub fn column_count(&self) -> usize {
        match self {
            TableSlot::Live(table) => table.column_count(),
            TableSlot::Removed { columns } => *columns,
        }
    }
}

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
/// is correct on a mutated one; `MutableLake::from_tables(lake.tables().cloned())`
/// compacts the live state into fresh, dense ids.
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
    /// Table slots in allocation order; an attribute is live exactly when
    /// its slot is.
    tables: Vec<TableSlot>,
    /// Live table name -> slot.
    table_index: HashMap<String, usize>,
    /// AttrId -> (table slot, column index). Never shrinks.
    attrs: Vec<(usize, usize)>,
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
            let values = dictionary_ids(&mut self.interner, column);
            self.value_attrs.resize(self.interner.len(), Vec::new());
            for &vid in &values {
                // `attr` is the newest id, so pushing keeps the list sorted.
                self.value_attrs[vid.index()].push(attr);
            }
            self.attr_values.push(values);
        }
        self.tables.push(TableSlot::Live(table));
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

    fn remove_table(&mut self, name: &str, touched: &mut Vec<ValueId>) -> Result<()> {
        let slot = self
            .table_index
            .remove(name)
            .ok_or_else(|| LakeError::NotFound(format!("table '{name}'")))?;
        for (attr_idx, &(t, _)) in self.attrs.iter().enumerate() {
            if t != slot {
                continue;
            }
            let attr = AttrId(attr_idx as u32);
            for &vid in &self.attr_values[attr_idx] {
                remove_sorted(&mut self.value_attrs[vid.index()], attr);
            }
            touched.append(&mut self.attr_values[attr_idx]);
        }
        let columns = self.tables[slot].column_count();
        self.tables[slot] = TableSlot::Removed { columns };
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
        let TableSlot::Live(tab) = &mut self.tables[slot] else {
            unreachable!("a live attribute's slot is live")
        };
        let col = &mut tab.columns_mut()[col_idx];
        if col.replace_value(target, replacement) == 0 {
            return Ok(());
        }
        // Recompute the attribute's distinct set and diff it against the index.
        let new_values = dictionary_ids(&mut self.interner, col);
        self.value_attrs.resize(self.interner.len(), Vec::new());
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

    /// The live tables, in slot (insertion) order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter().filter_map(TableSlot::live)
    }

    /// Names of the live tables, in slot order.
    pub fn live_table_names(&self) -> Vec<&str> {
        self.tables().map(Table::name).collect()
    }

    /// Look up a live table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index
            .get(name)
            .and_then(|&slot| self.tables[slot].live())
    }

    // ------------------------------------------------------------------
    // Attributes (live state)
    // ------------------------------------------------------------------

    /// Number of attribute slots ever allocated (including tombstones).
    pub fn attribute_count(&self) -> usize {
        self.attrs.len()
    }

    /// Whether an attribute slot is live: whether its table slot is.
    pub fn is_attr_live(&self, id: AttrId) -> bool {
        self.attrs
            .get(id.index())
            .is_some_and(|&(slot, _)| self.tables[slot].live().is_some())
    }

    /// Iterate over the ids of the live attributes.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u32)
            .map(AttrId)
            .filter(|&id| self.is_attr_live(id))
    }

    /// The table and column behind a live attribute id.
    fn locate(&self, id: AttrId) -> Option<(&Table, &Column)> {
        let &(slot, col) = self.attrs.get(id.index())?;
        let table = self.tables[slot].live()?;
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
            .live()?
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

    /// All table slots in allocation order, removed ones included: with
    /// [`MutableLake::interner`], everything [`MutableLake::from_slots`]
    /// needs to rebuild this lake, ids included.
    pub fn table_slots(&self) -> &[TableSlot] {
        &self.tables
    }

    /// Rebuild a lake from its interner's values (ids are their positions)
    /// and its table slots, in allocation order. Live slots are indexed by
    /// [`MutableLake::add_table`], the function a load and a delta use; a
    /// removed slot allocates its attribute ids, dead. Every index is
    /// derived here, so the result has the ids of the lake that wrote the
    /// parts.
    ///
    /// # Errors
    /// [`LakeError::Serde`] when the values hold a duplicate or a live
    /// table holds a value they lack (the ids would no longer be the
    /// writer's); [`MutableLake::add_table`]'s error for an ill-shaped
    /// table or a second live table of one name.
    pub fn from_slots(
        values: Vec<String>,
        slots: impl IntoIterator<Item = TableSlot>,
    ) -> Result<Self> {
        let interner = ValueInterner::from_values(values).map_err(|(kept, dup)| {
            LakeError::Serde(format!("interner value {dup} duplicates value {}", kept.0))
        })?;
        let mut lake = MutableLake {
            value_attrs: vec![Vec::new(); interner.len()],
            interner,
            ..MutableLake::default()
        };
        for slot in slots {
            match slot {
                TableSlot::Live(table) => {
                    let interned = lake.value_count();
                    lake.add_table(table)?;
                    if lake.value_count() > interned {
                        let table = lake.tables().last().expect("just added").name();
                        let value = lake.value(ValueId(interned as u32)).unwrap_or_default();
                        return Err(LakeError::Serde(format!(
                            "table '{table}' holds value {value:?} missing from the interner"
                        )));
                    }
                }
                TableSlot::Removed { columns } => {
                    let slot = lake.tables.len();
                    lake.attrs.extend((0..columns).map(|col| (slot, col)));
                    lake.attr_values.resize(lake.attrs.len(), Vec::new());
                    lake.tables.push(TableSlot::Removed { columns });
                }
            }
        }
        Ok(lake)
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

/// The sorted ids of `column`'s distinct normalized values. Only those new
/// to `interner` are sorted and interned, in byte order: the ids interning
/// [`Column::distinct_values`] in order gives, minus most of its sort.
fn dictionary_ids(interner: &mut ValueInterner, column: &Column) -> Vec<ValueId> {
    let mut ids = Vec::new();
    // Known values give their ids; the spans kept are the new ones.
    let (fresh, spans) =
        column.normalized_spans(|v| interner.get(v).map(|id| ids.push(id)).is_none());
    ids.extend(spans.iter().map(|&(a, b)| interner.intern(&fresh[a..b])));
    ids.sort_unstable();
    ids.dedup();
    ids
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
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The oracle of [`dictionary_ids`]: interning the column's sorted
    /// distinct list in order, as the lake did while a column stored it.
    fn sorted_list_ids(interner: &mut ValueInterner, column: &Column) -> Vec<ValueId> {
        let mut ids: Vec<ValueId> = column
            .distinct_values()
            .iter()
            .map(|v| interner.intern(v))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// `add_table` and the `ReplaceValue` reindex read a column only
    /// through [`dictionary_ids`], so a lake interns as the oracle does when
    /// every call gives the oracle's ids and leaves the oracle's interner.
    /// 2 000 seeded columns, each interned into one growing interner:
    /// spellings that normalize alike (`ß` and `ss` too), empty and
    /// whitespace-only cells, non-ASCII, and values new in one column and
    /// known in the next.
    #[test]
    fn dictionary_interning_matches_the_sorted_list_oracle() {
        const CELLS: [&str; 16] = [
            "jaguar",
            "Jaguar",
            " JAGUAR ",
            "puma",
            "Straße",
            "STRASSE",
            "é",
            "É",
            "İ",
            "",
            " ",
            "\t",
            "1",
            "1.5",
            "San  Diego",
            "san diego",
        ];
        let mut rng = StdRng::seed_from_u64(0x1D5);
        let (mut lake, mut oracle) = (ValueInterner::new(), ValueInterner::new());
        let (mut known, mut fresh) = (0, 0);
        for i in 0..2_000 {
            let cells: Vec<String> = (0..rng.gen_range(0..12))
                .map(|_| match rng.gen_range(0..4) {
                    0 => format!("v{}", rng.gen_range(0..i + 2)),
                    _ => CELLS[rng.gen_range(0..CELLS.len())].to_owned(),
                })
                .collect();
            let column = Column::new("c", cells);
            let before = oracle.len();
            let want = sorted_list_ids(&mut oracle, &column);
            assert_eq!(dictionary_ids(&mut lake, &column), want, "column {i}");
            assert!(lake.iter().eq(oracle.iter()), "column {i}: interner order");
            fresh += oracle.len() - before;
            known += want.len() - (oracle.len() - before);
        }
        assert!(
            fresh >= 1_000 && known >= 1_000,
            "{fresh} new, {known} known"
        );
    }

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

        assert_eq!(lake.table_count(), 1);
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
        assert_eq!(lake.table_count(), 2);
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
        assert_eq!(lake.table_count(), 1);
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
    fn snapshot_compacts_live_state() {
        let mut lake = MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(zoo()).add_table(cars()))
            .unwrap();
        lake.apply(&LakeDelta::new().remove_table("zoo")).unwrap();
        let snap = MutableLake::from_tables(lake.tables().cloned()).unwrap();
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
        let snap = MutableLake::from_tables(lake.tables().cloned()).unwrap();
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
