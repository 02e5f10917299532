//! Column-oriented storage for a single attribute of a table in flight.
//!
//! A [`Column`] is the form a column travels in: a parsed CSV file, a
//! delta, a POST body, a WAL record. Inside a
//! [`crate::delta::MutableLake`] a column is only its name and one `u32`
//! store id per cell, each raw text held once in the lake's text store.
//! [`crate::delta::MutableLake::table`] materializes a column back with its
//! dictionary in the order each entry first occurs in the rows — the order
//! [`Column::new`], the CSV loader and [`Column::replace_value`] give — so
//! a table that went through a lake comes back as it went in.

use std::fmt;
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::texts::TextSet;
use crate::value::{normalize_into, value_kind, ValueKind};

/// A list of strings held as one buffer plus the end offset of each entry:
/// two allocations for the whole list instead of one per entry.
///
/// It serializes as a JSON array of strings, exactly as a `Vec<String>`.
///
/// ```
/// use lake::column::StringList;
///
/// let list: StringList = ["Jaguar", "", "Puma"].into_iter().collect();
/// assert_eq!(list.len(), 3);
/// assert_eq!(list.get(2), Some("Puma"));
/// assert_eq!(list.iter().collect::<Vec<_>>(), ["Jaguar", "", "Puma"]);
/// assert_eq!(format!("{list:?}"), r#"["Jaguar", "", "Puma"]"#);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StringList {
    buf: String,
    /// Where each entry ends in `buf`; entry `i` starts where `i - 1` ends.
    ends: Vec<usize>,
}

impl StringList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty list with room for `entries` entries of `bytes` bytes in all.
    fn with_capacity(entries: usize, bytes: usize) -> Self {
        StringList {
            buf: String::with_capacity(bytes),
            ends: Vec::with_capacity(entries),
        }
    }

    /// Append an entry.
    pub fn push(&mut self, entry: &str) {
        self.buf.push_str(entry);
        self.ends.push(self.buf.len());
    }

    /// Remove every entry, keeping both buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Entry `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&str> {
        (i < self.len()).then(|| &self[i])
    }

    /// The entries in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            buf: &self.buf,
            ends: self.ends.iter(),
            start: 0,
        }
    }
}

impl Index<usize> for StringList {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }
}

/// The entries of a [`StringList`], in order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    buf: &'a str,
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()?;
        let entry = &self.buf[self.start..end];
        self.start = end;
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a StringList {
    type Item = &'a str;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<S: AsRef<str>> FromIterator<S> for StringList {
    fn from_iter<I: IntoIterator<Item = S>>(entries: I) -> Self {
        let mut list = StringList::new();
        for entry in entries {
            list.push(entry.as_ref());
        }
        list
    }
}

impl fmt::Debug for StringList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl Serialize for StringList {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(
            self.iter()
                .map(|entry| serde::Value::Str(entry.to_owned()))
                .collect(),
        )
    }
}

impl Deserialize for StringList {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let invalid = |expected: &str, got: &serde::Value| {
            serde::Error::custom(format!(
                "invalid type: expected {expected}, got {}",
                got.kind()
            ))
        };
        let serde::Value::Seq(items) = value else {
            return Err(invalid("sequence", value));
        };
        items
            .iter()
            .map(|item| match item {
                serde::Value::Str(entry) => Ok(entry),
                other => Err(invalid("string", other)),
            })
            .collect()
    }
}

/// One attribute (column) of a [`crate::table::Table`].
///
/// Cells are stored **dictionary-encoded**: a table of distinct raw cells
/// (in first-occurrence order) plus one index per row. Real-lake columns
/// repeat a small vocabulary across many rows, so this is dramatically
/// smaller than dense row storage, it makes [`Column::replace_value`] an
/// O(dictionary) operation instead of an O(rows) one, and the lake
/// normalizes once per distinct raw cell, not once per row. The dictionary is a [`StringList`], so a column holds no string
/// per entry, and it and the indices are all a column holds.
///
/// Everything else is derived on every read and never cached: row order
/// ([`Column::cells`]; [`crate::table::Table::rows`] and CSV write-back
/// read the dictionary at each row's index) and the sorted distinct
/// *normalized* values DomainNet consumes ([`Column::distinct_values`];
/// the lake interns straight from the dictionary and keeps ids).
///
/// Invariant: every dictionary entry is referenced by at least one row and
/// entries are pairwise distinct; all constructors and mutators uphold
/// this, and [`Column::validate_encoding`] checks it.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    /// Distinct raw cells, in first-occurrence order.
    dictionary: StringList,
    /// Per-row index into `dictionary`.
    indices: Vec<u32>,
}

impl Column {
    /// Create a column from a name and dense raw cells.
    pub fn new(name: impl Into<String>, cells: Vec<String>) -> Self {
        let mut dictionary = TextSet::default();
        let indices = cells.iter().map(|cell| dictionary.insert(cell).0).collect();
        Column {
            name: name.into(),
            dictionary: dictionary.into_texts(),
            indices,
        }
    }

    /// Create an empty column with just a name.
    pub fn empty(name: impl Into<String>) -> Self {
        Column::new(name, Vec::new())
    }

    /// Adopt parts that uphold the column's invariants by construction
    /// (the lake's materialization, a CSV parse), without checking them.
    pub(crate) fn from_parts(name: String, dictionary: StringList, indices: Vec<u32>) -> Self {
        Column {
            name,
            dictionary,
            indices,
        }
    }

    /// Check this column's dictionary-encoding invariants: every index in
    /// range, every entry referenced by some row, entries pairwise
    /// distinct.
    ///
    /// Constructors and mutators uphold the invariants, but a `Column`
    /// can also enter the process through serde (write-ahead-log records
    /// carry whole tables), where decoding checks only that the `distinct`
    /// array is the one the dictionary derives. The WAL replay path calls
    /// this on every decoded table so a checksum-valid but structurally
    /// impossible record surfaces as a typed error instead of an
    /// out-of-bounds panic later.
    ///
    /// # Errors
    /// [`crate::error::LakeError::Serde`] describing the violated
    /// invariant.
    pub fn validate_encoding(&self) -> crate::Result<()> {
        let (name, dictionary) = (&self.name, &self.dictionary);
        let corrupt = |msg: String| crate::error::LakeError::Serde(msg);
        let mut used = vec![false; dictionary.len()];
        for &ix in &self.indices {
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
        let mut seen = TextSet::default();
        for (i, entry) in dictionary.iter().enumerate() {
            if let (prev, false) = seen.insert(entry) {
                return Err(corrupt(format!(
                    "column '{name}': dictionary entries {prev} and {i} are identical"
                )));
            }
        }
        Ok(())
    }

    /// The column (attribute) name. May be empty or meaningless in a lake.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (cells), counting duplicates and missing cells.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The raw cells in row order, borrowed from the dictionary.
    ///
    /// The list is built on every call (one `&str` per row) and nothing is
    /// kept: a loop over rows should read [`Column::dictionary`] at each of
    /// [`Column::cell_indices`] instead.
    pub fn cells(&self) -> Vec<&str> {
        self.indices
            .iter()
            .map(|&ix| &self.dictionary[ix as usize])
            .collect()
    }

    /// The distinct raw cells, in first-occurrence order.
    pub fn dictionary(&self) -> &StringList {
        &self.dictionary
    }

    /// The per-row dictionary indices.
    pub fn cell_indices(&self) -> &[u32] {
        &self.indices
    }

    /// The distinct normalized (non-missing) values, in lexicographic order.
    ///
    /// The list is derived from the dictionary on every call and nothing
    /// is kept: a caller reading it twice should hold the result, and one
    /// holding the lake should read its interned ids instead.
    pub fn distinct_values(&self) -> StringList {
        let (buf, spans) = self.normalized_spans(|_| true);
        let mut distinct =
            StringList::with_capacity(spans.len(), spans.iter().map(|&(a, b)| b - a).sum());
        for (start, end) in spans {
            distinct.push(&buf[start..end]);
        }
        distinct
    }

    /// The distinct non-missing normalized values that `keep` (called once
    /// per entry) accepts, as sorted, deduplicated spans of one buffer.
    pub(crate) fn normalized_spans(
        &self,
        mut keep: impl FnMut(&str) -> bool,
    ) -> (String, Vec<(usize, usize)>) {
        let mut buf = String::with_capacity(self.dictionary.buf.len());
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for raw in &self.dictionary {
            let start = buf.len();
            normalize_into(raw, &mut buf);
            if buf.len() > start && keep(&buf[start..]) {
                spans.push((start, buf.len()));
            } else {
                buf.truncate(start);
            }
        }
        let bytes = buf.as_bytes();
        spans.sort_unstable_by(|&(a, b), &(c, d)| bytes[a..b].cmp(&bytes[c..d]));
        spans.dedup_by(|&mut (a, b), &mut (c, d)| bytes[a..b] == bytes[c..d]);
        (buf, spans)
    }

    /// Fraction of distinct values that look numeric (integer or float).
    pub fn numeric_fraction(&self) -> f64 {
        let distinct = self.distinct_values();
        if distinct.is_empty() {
            return 0.0;
        }
        let numeric = distinct
            .iter()
            .filter(|v| value_kind(v) != ValueKind::Text)
            .count();
        numeric as f64 / distinct.len() as f64
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
        let mut scratch = String::new();
        let hit: Vec<bool> = self
            .dictionary
            .iter()
            .map(|entry| {
                scratch.clear();
                normalize_into(entry, &mut scratch);
                scratch == target_normalized
            })
            .collect();
        if !hit.contains(&true) {
            return 0;
        }
        let replaced = self.indices.iter().filter(|&&ix| hit[ix as usize]).count();
        // Rewriting can collide entries (several spellings collapse into
        // one replacement, or the replacement already existed): merge
        // duplicates back into a canonical first-occurrence dictionary and
        // remap the row indices.
        let mut canonical = TextSet::default();
        let new_of_old: Vec<u32> = self
            .dictionary
            .iter()
            .zip(hit)
            .map(|(entry, hit)| canonical.insert(if hit { replacement } else { entry }).0)
            .collect();
        self.dictionary = canonical.into_texts();
        for ix in &mut self.indices {
            *ix = new_of_old[*ix as usize];
        }
        replaced
    }
}

/// A column's JSON is a wire format (WAL records and POST bodies carry
/// whole tables): name, dictionary, indices, then the derived `distinct`.
impl Serialize for Column {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("name".to_owned(), self.name.to_value()),
            ("dictionary".to_owned(), self.dictionary.to_value()),
            ("indices".to_owned(), self.indices.to_value()),
            ("distinct".to_owned(), self.distinct_values().to_value()),
        ])
    }
}

/// Refuses a `distinct` array other than the derived one; the encoding is
/// left to [`Column::validate_encoding`].
impl Deserialize for Column {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |key| value.get(key).unwrap_or(&serde::Value::Null);
        let column = Column {
            name: Deserialize::from_value(field("name"))?,
            dictionary: Deserialize::from_value(field("dictionary"))?,
            indices: Deserialize::from_value(field("indices"))?,
        };
        if StringList::from_value(field("distinct"))? != column.distinct_values() {
            return Err(serde::Error::custom(format!(
                "column '{}': distinct array does not match its dictionary",
                column.name
            )));
        }
        Ok(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn col(cells: &[&str]) -> Column {
        Column::new("c", cells.iter().map(|s| s.to_string()).collect())
    }

    fn list(entries: &[&str]) -> StringList {
        entries.iter().collect()
    }

    #[test]
    fn string_list_indexes_iterates_and_prints_as_a_list() {
        let l = list(&["Jaguar", "", "é", "Puma"]);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty() && StringList::new().is_empty());
        assert_eq!(l.get(0), Some("Jaguar"));
        assert_eq!(l.get(1), Some(""));
        assert_eq!(&l[2], "é");
        assert_eq!(l.get(4), None);
        assert_eq!(l.iter().len(), 4);
        let mut entries = Vec::new();
        for entry in &l {
            entries.push(entry);
        }
        assert_eq!(entries, ["Jaguar", "", "é", "Puma"]);
        assert_eq!(
            format!("{l:?}"),
            format!("{:?}", ["Jaguar", "", "é", "Puma"])
        );
    }

    #[test]
    fn distinct_values_are_normalized_and_deduped() {
        let c = col(&["jaguar", " Jaguar ", "PUMA", "puma", ""]);
        assert_eq!(c.distinct_values(), list(&["JAGUAR", "PUMA"]));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn new_encodes_cells_and_distinct() {
        let c = col(&["Panda", "panda", "Lemur", "Panda"]);
        assert_eq!(c.distinct_values(), list(&["LEMUR", "PANDA"]));
        assert_eq!(c.dictionary(), &list(&["Panda", "panda", "Lemur"]));
        assert_eq!(c.cell_indices(), [0, 1, 2, 0]);
        assert_eq!(c.cells(), &["Panda", "panda", "Lemur", "Panda"]);
        let empty = Column::empty("animals");
        assert!(empty.is_empty() && empty.dictionary().is_empty());
        assert!(empty.distinct_values().is_empty());
    }

    #[test]
    fn missing_cells_do_not_count_as_distinct() {
        let c = col(&["", "  ", "x"]);
        assert_eq!(c.distinct_values(), list(&["X"]));
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
        assert_eq!(c.distinct_values(), list(&["INJECTEDHOMOGRAPH1", "PUMA"]));
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
        assert_eq!(c.distinct_values(), list(&["ROVER"]));
        c.validate_encoding().unwrap();
    }

    #[test]
    fn replace_value_missing_target_is_noop() {
        let mut c = col(&["Puma"]);
        assert_eq!(c.replace_value("JAGUAR", "X"), 0);
        assert_eq!(c.distinct_values(), list(&["PUMA"]));
    }

    #[test]
    fn validate_encoding_rejects_violated_invariants() {
        let check = |dictionary: &[&str], indices: Vec<u32>| {
            Column::from_parts("c".into(), list(dictionary), indices).validate_encoding()
        };
        check(&["x", "y"], vec![1, 0, 1]).unwrap();
        // Out-of-range index.
        let err = check(&["x"], vec![0, 3]).unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
        // Unreferenced entry.
        let err = check(&["x", "ghost"], vec![0, 0]).unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
        // Duplicate entries.
        let err = check(&["x", "x"], vec![0, 1]).unwrap_err();
        assert!(matches!(err, crate::error::LakeError::Serde(_)));
    }

    #[test]
    fn serde_round_trip_preserves_rows() {
        let c = col(&["Jaguar", "Puma", "Jaguar"]);
        let json = serde_json::to_string(&c).unwrap();
        let back: Column = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells(), c.cells());
        assert_eq!(back.distinct_values(), c.distinct_values());
    }

    /// WAL records and POST bodies carry whole tables, so a column's JSON
    /// is a wire format: field order, and every list a plain array.
    #[test]
    fn column_wire_format_is_pinned() {
        let c = col(&["Jaguar", "café", "jaguar", "  ", "Jaguar", "Puma"]);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"name":"c","dictionary":["Jaguar","café","jaguar","  ","Puma"],"indices":[0,1,2,3,0,4],"distinct":["CAFÉ","JAGUAR","PUMA"]}"#
        );
        let back: Column = serde_json::from_str(&json).unwrap();
        back.validate_encoding().unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert!(serde_json::from_str::<Column>(&json.replace("\"PUMA\"", "7")).is_err());
    }

    /// A decoded `distinct` array must be exactly the sorted, deduplicated
    /// normalized dictionary. A column holds no such list, so a forged one
    /// is refused by the decoder itself: no column with it can exist.
    #[test]
    fn validate_encoding_rejects_a_forged_distinct_array() {
        let json = serde_json::to_string(&col(&["b", "a", "c"])).unwrap();
        let pinned = r#""distinct":["A","B","C"]"#;
        assert!(json.contains(pinned), "{json}");
        for forged in [
            r#""distinct":["B","A","C"]"#,
            r#""distinct":["A","B","B","C"]"#,
            r#""distinct":["A","B","C","D"]"#,
            r#""distinct":["A","B"]"#,
        ] {
            let err = serde_json::from_str::<Column>(&json.replace(pinned, forged)).unwrap_err();
            assert!(err.to_string().contains("distinct"), "{forged}: {err:?}");
        }
    }

    /// Seeded random dictionaries against a `BTreeSet<String>` of the
    /// normalized cells — the representation the sorted list replaced.
    #[test]
    fn distinct_values_match_a_btreeset_reference() {
        const PIECES: [&str; 12] = ["a", "A", "b", "é", "É", "ß", " ", "\t", "1", ".", "5", "İ"];
        let mut rng = StdRng::seed_from_u64(0xD15);
        let reference = |c: &Column| -> BTreeSet<String> {
            c.cells()
                .iter()
                .map(|cell| crate::value::normalize(cell))
                .filter(|v| !v.is_empty())
                .collect()
        };
        let check = |c: &Column| {
            let set = reference(c);
            assert!(c
                .distinct_values()
                .iter()
                .eq(set.iter().map(String::as_str)));
            let numeric = set
                .iter()
                .filter(|v| value_kind(v) != ValueKind::Text)
                .count();
            let expected = if set.is_empty() {
                0.0
            } else {
                numeric as f64 / set.len() as f64
            };
            assert_eq!(c.numeric_fraction().to_bits(), expected.to_bits());
            c.validate_encoding().unwrap();
        };
        let cell = |rng: &mut StdRng| -> String {
            (0..rng.gen_range(0..5))
                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                .collect()
        };
        for _ in 0..300 {
            let cells: Vec<String> = (0..rng.gen_range(0..40)).map(|_| cell(&mut rng)).collect();
            let mut c = Column::new("c", cells.clone());
            check(&c);
            if cells.is_empty() {
                continue;
            }
            // A replacement from the column's own cells collapses onto an
            // existing entry; a fresh one adds a value.
            let target = crate::value::normalize(&cells[rng.gen_range(0..cells.len())]);
            let replacement = if rng.gen_bool(0.5) {
                cells[rng.gen_range(0..cells.len())].clone()
            } else {
                cell(&mut rng)
            };
            let expected: Vec<String> = c
                .cells()
                .iter()
                .map(|raw| {
                    if crate::value::normalize(raw) == target {
                        replacement.clone()
                    } else {
                        raw.to_string()
                    }
                })
                .collect();
            c.replace_value(&target, &replacement);
            assert_eq!(c.cells(), expected);
            check(&c);
        }
    }
}
