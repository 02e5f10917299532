//! Attribute identifiers, and `LakeCatalog` as a name for the one lake
//! type, [`MutableLake`] (in [`crate::delta`]).

use serde::{Deserialize, Serialize};

use crate::delta::MutableLake;

/// A dense identifier for an attribute (a column of a specific table).
///
/// Attribute ids are assigned in the order tables are added and, within a
/// table, in column order. They are stable for the lifetime of the lake
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

/// The lake under its older name: there is one lake type,
/// [`MutableLake`], and this alias is kept because the frozen standing
/// benchmark (`benchmark/`) names it.
pub type LakeCatalog = MutableLake;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LakeError;
    use crate::fixtures::running_example;
    use crate::table::TableBuilder;

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
        for (_, values) in lake.live_attribute_values() {
            let mut sorted = values.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.as_slice(), values);
        }
    }
}
