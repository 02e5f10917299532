//! Lake-level statistics, mirroring Table 1 of the paper.

use crate::catalog::LakeCatalog;

/// Summary statistics for a data lake (one row of the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct LakeStats {
    /// Number of tables in the lake.
    pub tables: usize,
    /// Number of attributes (columns) across all tables.
    pub attributes: usize,
    /// Number of distinct normalized values across the lake.
    pub values: usize,
    /// Number of values occurring in at least two attributes (homograph
    /// candidates after the pre-processing step of §5).
    pub candidate_values: usize,
    /// Number of bipartite incidences (edges between values and attributes).
    pub incidences: usize,
    /// Smallest attribute cardinality.
    pub min_attr_cardinality: usize,
    /// Largest attribute cardinality.
    pub max_attr_cardinality: usize,
    /// Mean attribute cardinality.
    pub mean_attr_cardinality: f64,
}

impl LakeStats {
    /// Compute statistics for the live state of a lake.
    pub fn compute(lake: &LakeCatalog) -> Self {
        let cardinalities: Vec<usize> = lake
            .attribute_ids()
            .map(|a| lake.attribute_cardinality(a))
            .collect();
        let (min, max, sum) = cardinalities
            .iter()
            .fold((usize::MAX, 0usize, 0usize), |(min, max, sum), &c| {
                (min.min(c), max.max(c), sum + c)
            });
        let attributes = cardinalities.len();
        LakeStats {
            tables: lake.table_count(),
            attributes,
            values: lake.values_in_at_least(1).len(),
            candidate_values: lake.values_in_at_least(2).len(),
            incidences: lake.incidence_count(),
            min_attr_cardinality: if attributes == 0 { 0 } else { min },
            max_attr_cardinality: max,
            mean_attr_cardinality: if attributes == 0 {
                0.0
            } else {
                sum as f64 / attributes as f64
            },
        }
    }
}

/// Statistics about a set of labeled homographs in a lake, used to fill the
/// `Card(H)` and `#M` columns of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct HomographStats {
    /// Number of labeled homographs.
    pub count: usize,
    /// Minimum value-node cardinality |N(v)| over the homographs.
    pub min_cardinality: usize,
    /// Maximum value-node cardinality |N(v)| over the homographs.
    pub max_cardinality: usize,
    /// Minimum number of meanings per homograph.
    pub min_meanings: usize,
    /// Maximum number of meanings per homograph.
    pub max_meanings: usize,
}

impl HomographStats {
    /// Compute homograph statistics given the normalized homograph strings
    /// and, for each, its number of distinct meanings (from ground truth).
    pub fn compute(lake: &LakeCatalog, homographs: &[(String, usize)]) -> Self {
        let mut min_card = usize::MAX;
        let mut max_card = 0usize;
        let mut min_meanings = usize::MAX;
        let mut max_meanings = 0usize;
        let mut count = 0usize;
        for (value, meanings) in homographs {
            if let Some(id) = lake.value_id(value) {
                let card = lake.value_cardinality(id);
                min_card = min_card.min(card);
                max_card = max_card.max(card);
                min_meanings = min_meanings.min(*meanings);
                max_meanings = max_meanings.max(*meanings);
                count += 1;
            }
        }
        if count == 0 {
            return HomographStats {
                count: 0,
                min_cardinality: 0,
                max_cardinality: 0,
                min_meanings: 0,
                max_meanings: 0,
            };
        }
        HomographStats {
            count,
            min_cardinality: min_card,
            max_cardinality: max_card,
            min_meanings,
            max_meanings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;

    #[test]
    fn stats_on_running_example() {
        let lake = running_example();
        let stats = LakeStats::compute(&lake);
        assert_eq!(stats.tables, 4);
        assert_eq!(stats.attributes, 12);
        assert!(stats.values > 0);
        assert!(stats.candidate_values >= 4); // Jaguar, Puma, Panda, Toyota
        assert!(stats.min_attr_cardinality >= 1);
        assert!(stats.max_attr_cardinality >= stats.min_attr_cardinality);
        assert!(stats.mean_attr_cardinality > 0.0);
    }

    #[test]
    fn stats_on_empty_lake() {
        let lake = LakeCatalog::new();
        let stats = LakeStats::compute(&lake);
        assert_eq!(stats.tables, 0);
        assert_eq!(stats.attributes, 0);
        assert_eq!(stats.min_attr_cardinality, 0);
        assert_eq!(stats.mean_attr_cardinality, 0.0);
    }

    #[test]
    fn homograph_stats() {
        let lake = running_example();
        let homographs = vec![("JAGUAR".to_string(), 2), ("PUMA".to_string(), 2)];
        let hs = HomographStats::compute(&lake, &homographs);
        assert_eq!(hs.count, 2);
        assert!(hs.min_cardinality > 0);
        assert!(hs.max_cardinality >= hs.min_cardinality);
        assert_eq!(hs.min_meanings, 2);
        assert_eq!(hs.max_meanings, 2);
    }

    #[test]
    fn homograph_stats_with_unknown_values() {
        let lake = running_example();
        let homographs = vec![("NOT_IN_LAKE".to_string(), 3)];
        let hs = HomographStats::compute(&lake, &homographs);
        assert_eq!(hs.count, 0);
        assert_eq!(hs.max_cardinality, 0);
    }
}
