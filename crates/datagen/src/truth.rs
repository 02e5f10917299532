//! Ground-truth bookkeeping for generated benchmarks.
//!
//! Real data lakes do not come with homograph labels; the paper derives them
//! either from construction (the synthetic benchmark) or from table-union
//! ground truth (Definition 2: a value is a homograph iff it appears in two
//! attributes that are not unionable). The generators in this crate track,
//! for every attribute they emit, a *semantic class* — two attributes are
//! unionable exactly when they share a class — and derive homograph labels
//! from that, which mirrors the paper's methodology precisely.

use std::collections::{BTreeMap, BTreeSet};

use lake::catalog::LakeCatalog;

/// Ground truth attached to a generated lake.
#[derive(Debug, Clone, Default)]
pub struct LakeTruth {
    /// Semantic class per attribute, keyed by `table.column`. Attributes with
    /// the same class are unionable (same domain); attributes with different
    /// classes are not.
    pub attribute_classes: BTreeMap<String, String>,
}

impl LakeTruth {
    /// Create an empty truth record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the semantic class of an attribute.
    pub fn set_class(
        &mut self,
        table: impl Into<String>,
        column: impl Into<String>,
        class: impl Into<String>,
    ) {
        self.attribute_classes
            .insert(format!("{}.{}", table.into(), column.into()), class.into());
    }

    /// The class of an attribute, if recorded.
    pub fn class_of(&self, table: &str, column: &str) -> Option<&str> {
        self.attribute_classes
            .get(&format!("{table}.{column}"))
            .map(String::as_str)
    }

    /// Compute the set of homographs of a lake under Definition 2, together
    /// with each homograph's number of distinct meanings (= number of
    /// distinct semantic classes it occurs in).
    ///
    /// A value that appears in an attribute without a recorded class is
    /// treated conservatively: the unknown attribute forms its own singleton
    /// class, so values confined to unknown attributes are never labeled.
    pub fn homographs(&self, lake: &LakeCatalog) -> BTreeMap<String, usize> {
        let mut result = BTreeMap::new();
        for value_id in lake.values_in_at_least(2) {
            let attrs = lake.value_attributes(value_id);
            let mut classes: BTreeSet<String> = BTreeSet::new();
            for &attr in attrs {
                let aref = lake
                    .attribute_ref(attr)
                    .expect("attribute id from the catalog resolves");
                let class = self
                    .attribute_classes
                    .get(&aref.qualified())
                    .cloned()
                    .unwrap_or_else(|| format!("__unknown__::{}", aref.qualified()));
                classes.insert(class);
            }
            if classes.len() >= 2 {
                let value = lake
                    .value(value_id)
                    .expect("value id from the catalog resolves")
                    .to_owned();
                result.insert(value, classes.len());
            }
        }
        result
    }
}

/// A generated lake together with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedLake {
    /// The lake itself.
    pub catalog: LakeCatalog,
    /// Per-attribute semantic classes.
    pub truth: LakeTruth,
}

impl GeneratedLake {
    /// Homograph labels (value → number of meanings) under Definition 2.
    pub fn homographs(&self) -> BTreeMap<String, usize> {
        self.truth.homographs(&self.catalog)
    }

    /// The normalized homograph values as a set.
    pub fn homograph_set(&self) -> BTreeSet<String> {
        self.homographs().into_keys().collect()
    }

    /// Candidate values: everything that appears in at least two attributes.
    pub fn candidate_count(&self) -> usize {
        self.catalog.values_in_at_least(2).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake::table::TableBuilder;

    impl LakeTruth {
        /// The set of values (normalized) that repeat across attributes but
        /// are **not** homographs — the "unambiguous repeated values" the
        /// evaluation treats as negatives.
        pub(crate) fn unambiguous_repeats(&self, lake: &LakeCatalog) -> BTreeSet<String> {
            let homographs = self.homographs(lake);
            lake.values_in_at_least(2)
                .into_iter()
                .filter_map(|id| lake.value(id).map(str::to_owned))
                .filter(|v| !homographs.contains_key(v))
                .collect()
        }
    }

    fn labeled_running_example() -> GeneratedLake {
        let catalog = lake::fixtures::running_example();
        let mut truth = LakeTruth::new();
        truth.set_class("T1", "Donor", "company");
        truth.set_class("T1", "At Risk", "animal");
        truth.set_class("T1", "Donation", "money");
        truth.set_class("T2", "name", "animal");
        truth.set_class("T2", "locale", "city");
        truth.set_class("T2", "num", "count");
        truth.set_class("T3", "C1", "car_model");
        // Car makers are companies: Toyota in T3.C2 and T4.Name keeps a
        // single meaning, exactly as in the paper's narrative.
        truth.set_class("T3", "C2", "company");
        truth.set_class("T3", "C3", "country");
        truth.set_class("T4", "Name", "company");
        truth.set_class("T4", "Revenue", "money");
        truth.set_class("T4", "Total", "count");
        GeneratedLake { catalog, truth }
    }

    #[test]
    fn definition_2_labels_running_example() {
        let lake = labeled_running_example();
        let homographs = lake.homographs();
        assert_eq!(homographs.get("JAGUAR"), Some(&2), "animal vs company");
        assert_eq!(homographs.get("PUMA"), Some(&2), "animal vs company");
        assert!(
            !homographs.contains_key("PANDA"),
            "animal in both attributes"
        );
        assert!(
            !homographs.contains_key("TOYOTA"),
            "company in both attributes"
        );
        assert!(!homographs.contains_key("GOOGLE"), "appears once");
    }

    #[test]
    fn unambiguous_repeats_complement_homographs() {
        let lake = labeled_running_example();
        let homographs = lake.homograph_set();
        let unambiguous = lake.truth.unambiguous_repeats(&lake.catalog);
        assert!(unambiguous.contains("PANDA"));
        assert!(unambiguous.is_disjoint(&homographs));
        let candidates = lake.candidate_count();
        assert_eq!(candidates, homographs.len() + unambiguous.len());
    }

    #[test]
    fn unknown_attributes_are_conservative() {
        let t1 = TableBuilder::new("A")
            .column("x", ["shared", "one"])
            .build()
            .unwrap();
        let t2 = TableBuilder::new("B")
            .column("y", ["shared", "two"])
            .build()
            .unwrap();
        let catalog = LakeCatalog::from_tables([t1, t2]).unwrap();
        let truth = LakeTruth::new();
        // No classes recorded: each unknown attribute is its own class, so
        // "shared" counts as a homograph (it spans two unknown attributes).
        let homographs = truth.homographs(&catalog);
        assert_eq!(homographs.get("SHARED"), Some(&2));
    }

    #[test]
    fn class_lookup_round_trip() {
        let mut truth = LakeTruth::new();
        truth.set_class("T", "c", "animal");
        assert_eq!(truth.class_of("T", "c"), Some("animal"));
        assert_eq!(truth.class_of("T", "missing"), None);
    }
}
