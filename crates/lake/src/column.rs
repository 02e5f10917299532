//! Column-oriented storage for a single attribute of a table.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::value::{normalize, value_kind, FxBuildHasher, FxHashMap, ValueKind};

/// One attribute (column) of a [`crate::table::Table`].
///
/// Cells are stored **dictionary-encoded**: a table of distinct raw cells
/// (in first-occurrence order) plus one index per row. Real-lake columns
/// repeat a small vocabulary across many rows, so this is dramatically
/// smaller than dense row storage, it makes [`Column::replace_value`] an
/// O(dictionary) operation instead of an O(rows) one, and it is the shape
/// the persistence layer (`dn-store`) writes to and restores from disk —
/// normalization on load runs once per distinct raw cell, not once per
/// row. Alongside the dictionary the column caches the set of distinct
/// *normalized* values, which is all DomainNet itself consumes.
///
/// Dense row access ([`Column::cells`]) is still available: the rows are
/// materialized lazily on first use and cached (row-oriented consumers —
/// CSV write-back, baselines — keep working unchanged).
///
/// Invariant: every dictionary entry is referenced by at least one row and
/// entries are pairwise distinct; all constructors and mutators uphold
/// this, and [`Column::from_dictionary`] validates it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    name: String,
    /// Distinct raw cells, in first-occurrence order.
    dictionary: Vec<String>,
    /// Per-row index into `dictionary`.
    indices: Vec<u32>,
    /// Cached distinct normalized (non-missing) values.
    distinct: BTreeSet<String>,
    /// Lazily materialized dense rows for [`Column::cells`].
    #[serde(skip)]
    dense: OnceLock<Vec<String>>,
}

/// The structural dictionary-encoding invariants shared by
/// [`Column::from_dictionary`] and [`Column::validate_encoding`]: every
/// index in range, every entry referenced by some row, entries pairwise
/// distinct.
fn check_encoding(name: &str, dictionary: &[String], indices: &[u32]) -> crate::Result<()> {
    let corrupt = |msg: String| crate::error::LakeError::Serde(msg);
    let mut used = vec![false; dictionary.len()];
    for &ix in indices {
        match used.get_mut(ix as usize) {
            Some(slot) => *slot = true,
            None => {
                return Err(corrupt(format!(
                    "column '{name}': cell index {ix} outside its {}-entry dictionary",
                    dictionary.len()
                )))
            }
        }
    }
    if let Some(unused) = used.iter().position(|&u| !u) {
        return Err(corrupt(format!(
            "column '{name}': dictionary entry {unused} is referenced by no row"
        )));
    }
    let mut seen: FxHashMap<&str, usize> =
        FxHashMap::with_capacity_and_hasher(dictionary.len(), FxBuildHasher::default());
    for (i, entry) in dictionary.iter().enumerate() {
        if let Some(prev) = seen.insert(entry.as_str(), i) {
            return Err(corrupt(format!(
                "column '{name}': dictionary entries {prev} and {i} are identical"
            )));
        }
    }
    Ok(())
}

fn distinct_of(dictionary: &[String]) -> BTreeSet<String> {
    // collect() on a BTreeSet sorts into a Vec and bulk-builds the tree,
    // which beats repeated inserts on the snapshot-recovery hot path.
    dictionary
        .iter()
        .map(|raw| normalize(raw))
        .filter(|norm| !norm.is_empty())
        .collect()
}

impl Column {
    /// Create a column from a name and dense raw cells.
    pub fn new(name: impl Into<String>, cells: Vec<String>) -> Self {
        let mut dictionary: Vec<String> = Vec::new();
        let mut index_of: FxHashMap<&str, u32> = FxHashMap::default();
        let mut indices = Vec::with_capacity(cells.len());
        for cell in &cells {
            match index_of.get(cell.as_str()) {
                Some(&ix) => indices.push(ix),
                None => {
                    let ix = dictionary.len() as u32;
                    dictionary.push(cell.clone());
                    index_of.insert(cell.as_str(), ix);
                    indices.push(ix);
                }
            }
        }
        let distinct = distinct_of(&dictionary);
        drop(index_of);
        // The input rows are deliberately dropped: the dictionary + index
        // encoding reproduces them exactly, and only row-oriented
        // consumers (CSV write-back, baselines) ever materialize the dense
        // form again via `cells()`. Keeping both would double resident
        // memory for every ingested column.
        drop(cells);
        Column {
            name: name.into(),
            dictionary,
            indices,
            distinct,
            dense: OnceLock::new(),
        }
    }

    /// Create an empty column with just a name.
    pub fn empty(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            dictionary: Vec::new(),
            indices: Vec::new(),
            distinct: BTreeSet::new(),
            dense: OnceLock::new(),
        }
    }

    /// Reassemble a column from its dictionary-encoded parts — the shape
    /// the persistence layer stores. The column's invariants are validated
    /// (every index in range, every entry referenced, no duplicate
    /// entries) and the distinct-value cache is re-derived by normalizing
    /// the dictionary, so the result is semantically identical to
    /// [`Column::new`] over the materialized rows at a fraction of the
    /// cost (no per-row allocation, no per-row normalization).
    ///
    /// # Errors
    /// [`crate::error::LakeError::Serde`] describing the violated
    /// invariant.
    pub fn from_dictionary(
        name: impl Into<String>,
        dictionary: Vec<String>,
        indices: Vec<u32>,
    ) -> crate::Result<Self> {
        let name = name.into();
        check_encoding(&name, &dictionary, &indices)?;
        let distinct = distinct_of(&dictionary);
        Ok(Column {
            name,
            dictionary,
            indices,
            distinct,
            dense: OnceLock::new(),
        })
    }

    /// Check this column's dictionary-encoding invariants and the
    /// consistency of its cached distinct set, as if it had gone through
    /// [`Column::from_dictionary`].
    ///
    /// Constructors and mutators uphold the invariants, but a `Column`
    /// can also enter the process through serde (write-ahead-log records
    /// carry whole tables), where a derived `Deserialize` trusts the
    /// fields as written. The WAL replay path calls this on every decoded
    /// table so a checksum-valid but structurally impossible record
    /// surfaces as a typed error instead of an out-of-bounds panic (or a
    /// silently wrong distinct set) later.
    ///
    /// # Errors
    /// [`crate::error::LakeError::Serde`] describing the violated
    /// invariant.
    pub fn validate_encoding(&self) -> crate::Result<()> {
        check_encoding(&self.name, &self.dictionary, &self.indices)?;
        if self.distinct != distinct_of(&self.dictionary) {
            return Err(crate::error::LakeError::Serde(format!(
                "column '{}': cached distinct set does not match its dictionary",
                self.name
            )));
        }
        Ok(())
    }

    /// Append a raw cell to the column.
    pub fn push(&mut self, cell: impl Into<String>) {
        let cell = cell.into();
        let norm = normalize(&cell);
        if !norm.is_empty() {
            self.distinct.insert(norm);
        }
        let ix = match self.dictionary.iter().position(|d| *d == cell) {
            Some(ix) => ix as u32,
            None => {
                let ix = self.dictionary.len() as u32;
                self.dictionary.push(cell);
                ix
            }
        };
        self.indices.push(ix);
        self.dense = OnceLock::new();
    }

    /// The column (attribute) name. May be empty or meaningless in a lake.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of rows (cells), counting duplicates and missing cells.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The raw cells in row order (materialized lazily and cached).
    pub fn cells(&self) -> &[String] {
        self.dense.get_or_init(|| {
            self.indices
                .iter()
                .map(|&ix| self.dictionary[ix as usize].clone())
                .collect()
        })
    }

    /// The distinct raw cells, in first-occurrence order.
    pub fn dictionary(&self) -> &[String] {
        &self.dictionary
    }

    /// The per-row dictionary indices.
    pub fn cell_indices(&self) -> &[u32] {
        &self.indices
    }

    /// The distinct normalized (non-missing) values, in lexicographic order.
    pub fn distinct_values(&self) -> impl Iterator<Item = &str> {
        self.distinct.iter().map(String::as_str)
    }

    /// Number of distinct normalized non-missing values.
    ///
    /// This is the *cardinality* of the attribute in the paper's terminology.
    pub fn distinct_count(&self) -> usize {
        self.distinct.len()
    }

    /// Whether the normalized form of `value` occurs in this column.
    pub fn contains_normalized(&self, normalized: &str) -> bool {
        self.distinct.contains(normalized)
    }

    /// Fraction of distinct values that look numeric (integer or float).
    ///
    /// Used by the D4 baseline, which only discovers domains over
    /// string-dominated attributes, and by the statistics module.
    pub fn numeric_fraction(&self) -> f64 {
        if self.distinct.is_empty() {
            return 0.0;
        }
        let numeric = self
            .distinct
            .iter()
            .filter(|v| value_kind(v) != ValueKind::Text)
            .count();
        numeric as f64 / self.distinct.len() as f64
    }

    /// Replace every cell whose normalized form equals `target` with
    /// `replacement`, returning the number of cells rewritten.
    ///
    /// This is the primitive behind the TUS-I homograph-injection procedure
    /// (§4.3): a value is picked in a column and globally rewritten to an
    /// artificial token such as `InjectedHomograph1`. With dictionary
    /// encoding the rewrite touches only the dictionary — O(distinct raw
    /// cells) plus one index-remap pass — instead of every row.
    pub fn replace_value(&mut self, target_normalized: &str, replacement: &str) -> usize {
        let mut hit = vec![false; self.dictionary.len()];
        let mut any = false;
        for (i, entry) in self.dictionary.iter().enumerate() {
            if normalize(entry) == target_normalized {
                hit[i] = true;
                any = true;
            }
        }
        if !any {
            return 0;
        }
        let replaced = self.indices.iter().filter(|&&ix| hit[ix as usize]).count();
        for (i, entry) in self.dictionary.iter_mut().enumerate() {
            if hit[i] {
                replacement.clone_into(entry);
            }
        }
        // Rewriting can collide entries (several spellings collapse into
        // one replacement, or the replacement already existed): merge
        // duplicates back into a canonical first-occurrence dictionary and
        // remap the row indices.
        let mut canonical: Vec<String> = Vec::with_capacity(self.dictionary.len());
        let mut new_of_old: Vec<u32> = Vec::with_capacity(self.dictionary.len());
        {
            let mut index_of: FxHashMap<String, u32> = FxHashMap::with_capacity_and_hasher(
                self.dictionary.len(),
                FxBuildHasher::default(),
            );
            for entry in self.dictionary.drain(..) {
                match index_of.get(entry.as_str()) {
                    Some(&ix) => new_of_old.push(ix),
                    None => {
                        let ix = canonical.len() as u32;
                        index_of.insert(entry.clone(), ix);
                        canonical.push(entry);
                        new_of_old.push(ix);
                    }
                }
            }
        }
        self.dictionary = canonical;
        for ix in &mut self.indices {
            *ix = new_of_old[*ix as usize];
        }
        self.recompute_distinct();
        self.dense = OnceLock::new();
        replaced
    }

    fn recompute_distinct(&mut self) {
        self.distinct = distinct_of(&self.dictionary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(cells: &[&str]) -> Column {
        Column::new("c", cells.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn distinct_values_are_normalized_and_deduped() {
        let c = col(&["jaguar", " Jaguar ", "PUMA", "puma", ""]);
        let distinct: Vec<&str> = c.distinct_values().collect();
        assert_eq!(distinct, vec!["JAGUAR", "PUMA"]);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn push_updates_distinct() {
        let mut c = Column::empty("animals");
        c.push("Panda");
        c.push("panda");
        c.push("Lemur");
        assert_eq!(c.distinct_count(), 2);
        assert!(c.contains_normalized("LEMUR"));
        assert!(!c.contains_normalized("Lemur"));
        assert_eq!(c.cells(), &["Panda", "panda", "Lemur"]);
    }

    #[test]
    fn missing_cells_do_not_count_as_distinct() {
        let c = col(&["", "  ", "x"]);
        assert_eq!(c.distinct_count(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn numeric_fraction_and_textual_flag() {
        let numeric = col(&["1", "2", "3.5"]);
        assert!((numeric.numeric_fraction() - 1.0).abs() < 1e-12);

        let mixed = col(&["1", "Jaguar", "Puma", "Lemur"]);
        assert!((mixed.numeric_fraction() - 0.25).abs() < 1e-12);

        let empty = Column::empty("e");
        assert_eq!(empty.numeric_fraction(), 0.0);
    }

    #[test]
    fn replace_value_rewrites_all_matching_cells() {
        let mut c = col(&["Jaguar", "jaguar ", "Puma"]);
        let n = c.replace_value("JAGUAR", "InjectedHomograph1");
        assert_eq!(n, 2);
        assert!(c.contains_normalized("INJECTEDHOMOGRAPH1"));
        assert!(!c.contains_normalized("JAGUAR"));
        assert_eq!(c.distinct_count(), 2);
        // Dense rows rematerialize with the rewrite applied.
        assert_eq!(
            c.cells(),
            &["InjectedHomograph1", "InjectedHomograph1", "Puma"]
        );
    }

    #[test]
    fn replace_value_collapsing_onto_an_existing_cell_keeps_invariants() {
        let mut c = col(&["Jaguar", "Rover", "jaguar", "Rover"]);
        let n = c.replace_value("JAGUAR", "Rover");
        assert_eq!(n, 2);
        assert_eq!(c.cells(), &["Rover", "Rover", "Rover", "Rover"]);
        assert_eq!(c.dictionary().len(), 1, "collided entries merged");
        assert_eq!(c.distinct_count(), 1);
        // The merged encoding round-trips through from_dictionary.
        let rebuilt = Column::from_dictionary(
            c.name().to_owned(),
            c.dictionary().to_vec(),
            c.cell_indices().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.cells(), c.cells());
    }

    #[test]
    fn replace_value_missing_target_is_noop() {
        let mut c = col(&["Puma"]);
        assert_eq!(c.replace_value("JAGUAR", "X"), 0);
        assert_eq!(c.distinct_count(), 1);
    }

    #[test]
    fn rename() {
        let mut c = Column::empty("a");
        c.set_name("b");
        assert_eq!(c.name(), "b");
    }

    #[test]
    fn from_dictionary_matches_new_over_materialized_cells() {
        let cells = ["Jaguar", " jaguar", "Puma", "", "Puma"];
        let reference = col(&cells);
        let rebuilt = Column::from_dictionary(
            "c",
            reference.dictionary().to_vec(),
            reference.cell_indices().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.cells(), reference.cells());
        assert_eq!(
            rebuilt.distinct_values().collect::<Vec<_>>(),
            reference.distinct_values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_dictionary_rejects_violated_invariants() {
        // Out-of-range index.
        let err = Column::from_dictionary("c", vec!["x".to_owned()], vec![0, 3]).unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
        // Unreferenced entry.
        let err =
            Column::from_dictionary("c", vec!["x".to_owned(), "ghost".to_owned()], vec![0, 0])
                .unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
        // Duplicate entries.
        let err = Column::from_dictionary("c", vec!["x".to_owned(), "x".to_owned()], vec![0, 1])
            .unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
    }

    #[test]
    fn serde_round_trip_preserves_rows() {
        let c = col(&["Jaguar", "Puma", "Jaguar"]);
        let json = serde_json::to_string(&c).unwrap();
        let back: Column = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells(), c.cells());
        assert_eq!(back.distinct_count(), c.distinct_count());
    }
}
