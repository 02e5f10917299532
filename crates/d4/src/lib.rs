//! # `d4` — a from-scratch reimplementation of the D4 domain-discovery baseline
//!
//! The paper compares DomainNet against *D4* (Ota, Müller, Freire,
//! Srivastava — "Data-Driven Domain Discovery for Structured Datasets",
//! PVLDB 2020), the state-of-the-art unsupervised domain-discovery algorithm:
//! D4 clusters the string columns of a data lake into *domains* (sets of
//! values belonging to one semantic type) and assigns columns to the
//! discovered domains. Repurposed as a homograph detector, any value that is
//! a member of more than one discovered domain is declared a homograph
//! (§5, "Comparison to a baseline").
//!
//! This crate reimplements D4 at the granularity the paper's comparison
//! relies on:
//!
//! 1. **String columns only** — D4 does not discover domains over numeric
//!    data ([`D4Config::string_column_min_fraction`]), which is why the paper
//!    cannot run it on the numeric-heavy TUS benchmark.
//! 2. **Robust column signatures** — each column's signature is its distinct
//!    value set minus values whose *context* is heterogeneous (the columns
//!    containing the value barely overlap with one another). This mirrors
//!    D4's robust-signature step, whose purpose is to keep ambiguous values
//!    from gluing unrelated columns together — and it is exactly the step
//!    that degrades as homographs are injected (Figure 10): every excluded
//!    value removes evidence that two unionable columns belong together.
//! 3. **Domain formation** — columns whose robust signatures overlap strongly
//!    (overlap coefficient ≥ [`D4Config::merge_threshold`]) are merged
//!    transitively; a connected group with at least
//!    [`D4Config::min_domain_columns`] columns becomes a discovered domain
//!    whose value set is the union of its member columns' values.
//! 4. **Column assignment** — every string column is assigned to each domain
//!    that covers at least [`D4Config::assignment_threshold`] of its values;
//!    columns can therefore belong to several domains, and the
//!    maximum / average number of domains per column are reported just as in
//!    the paper's Figure 10 discussion.
//!
//! The resulting behaviour matches the baseline's role in the paper: it
//! discovers clean domains on unambiguous data, covers only a subset of the
//! columns (single-column types get no domain), fragments into more domains
//! as homographs are injected, and — used as a homograph detector — reaches
//! far lower precision/recall than DomainNet's centrality ranking.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use lake::catalog::{AttrId, LakeCatalog};
use lake::value::ValueId;

/// Configuration of the simplified D4 algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct D4Config {
    /// Minimum fraction of non-numeric distinct values for a column to be
    /// considered a string column (D4 ignores numeric columns).
    pub string_column_min_fraction: f64,
    /// Overlap coefficient (|A∩B| / min(|A|,|B|)) two robust signatures must
    /// reach for their columns to be merged into the same domain.
    pub merge_threshold: f64,
    /// A value appearing in several columns is excluded from robust
    /// signatures when the average pairwise overlap of those columns is below
    /// this threshold (its context is heterogeneous — it looks ambiguous).
    pub ambiguity_context_threshold: f64,
    /// A column is assigned to a domain when the domain covers at least this
    /// fraction of the column's distinct values.
    pub assignment_threshold: f64,
    /// Minimum number of member columns for a merged group to count as a
    /// discovered domain.
    pub min_domain_columns: usize,
    /// Cap on the number of containing columns examined per value when
    /// scoring context heterogeneity (keeps the pre-pass near-linear).
    pub max_context_columns: usize,
}

impl Default for D4Config {
    fn default() -> Self {
        D4Config {
            string_column_min_fraction: 0.5,
            merge_threshold: 0.5,
            ambiguity_context_threshold: 0.25,
            assignment_threshold: 0.5,
            min_domain_columns: 2,
            max_context_columns: 6,
        }
    }
}

/// A discovered domain: a set of values supported by a group of columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// Dense domain id.
    pub id: usize,
    /// Qualified names (`table.column`) of the member columns.
    pub columns: Vec<String>,
    /// The domain's value set (normalized values).
    pub values: BTreeSet<String>,
}

/// The result of a D4 run.
#[derive(Debug, Clone, PartialEq)]
pub struct D4Output {
    /// Discovered domains.
    pub domains: Vec<Domain>,
    /// For every string column (qualified name), the ids of the domains it
    /// was assigned to (possibly empty, possibly several).
    pub assignments: BTreeMap<String, Vec<usize>>,
    /// Number of string columns that participated in discovery.
    pub string_columns: usize,
}

impl D4Output {
    /// Number of discovered domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of string columns assigned to at least one domain.
    pub fn covered_columns(&self) -> usize {
        self.assignments.values().filter(|d| !d.is_empty()).count()
    }

    /// Maximum number of domains assigned to any single column.
    pub fn max_domains_per_column(&self) -> usize {
        self.assignments.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Average number of domains assigned per assigned column.
    pub fn avg_domains_per_column(&self) -> f64 {
        let assigned: Vec<usize> = self
            .assignments
            .values()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .collect();
        if assigned.is_empty() {
            return 0.0;
        }
        assigned.iter().sum::<usize>() as f64 / assigned.len() as f64
    }

    /// The homographs implied by the discovery result: values that are
    /// members of more than one discovered domain (the baseline rule used in
    /// the paper's §5.1 comparison).
    pub fn homographs(&self) -> BTreeSet<String> {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        let mut result = BTreeSet::new();
        for domain in &self.domains {
            for value in &domain.values {
                let count = seen.entry(value.as_str()).or_insert(0);
                *count += 1;
                if *count == 2 {
                    result.insert(value.clone());
                }
            }
        }
        result
    }
}

/// Run the (simplified) D4 domain-discovery algorithm over a lake.
pub fn discover(lake: &LakeCatalog, config: D4Config) -> D4Output {
    // ------------------------------------------------------------------
    // 1. Select string columns and materialize their distinct value sets.
    // ------------------------------------------------------------------
    let mut columns: Vec<AttrId> = Vec::new();
    let mut value_sets: Vec<HashSet<ValueId>> = Vec::new();
    for attr in lake.attribute_ids() {
        let values = lake.attribute_values(attr);
        if values.is_empty() {
            continue;
        }
        // Emptiness off the index: `numeric_fraction` derives the list once.
        let column = lake.attribute(attr).expect("live attribute");
        if 1.0 - column.numeric_fraction() < config.string_column_min_fraction {
            continue;
        }
        columns.push(attr);
        value_sets.push(values.iter().copied().collect());
    }
    let string_columns = columns.len();
    let column_index: HashMap<AttrId, usize> =
        columns.iter().enumerate().map(|(i, &a)| (a, i)).collect();

    // ------------------------------------------------------------------
    // 2. Robust signatures: drop values whose containing columns barely
    //    overlap with one another (heterogeneous context = looks ambiguous).
    // ------------------------------------------------------------------
    let mut robust: Vec<HashSet<ValueId>> = value_sets.clone();
    for vid in lake.values_in_at_least(2) {
        let holder_cols: Vec<usize> = lake
            .value_attributes(vid)
            .iter()
            .filter_map(|a| column_index.get(a).copied())
            .take(config.max_context_columns)
            .collect();
        if holder_cols.len() < 2 {
            continue;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..holder_cols.len() {
            for j in i + 1..holder_cols.len() {
                total +=
                    overlap_coefficient(&value_sets[holder_cols[i]], &value_sets[holder_cols[j]]);
                pairs += 1;
            }
        }
        let context_cohesion = if pairs == 0 {
            1.0
        } else {
            total / pairs as f64
        };
        if context_cohesion < config.ambiguity_context_threshold {
            for &c in &holder_cols {
                robust[c].remove(&vid);
            }
        }
    }

    // ------------------------------------------------------------------
    // 3. Merge columns whose robust signatures overlap strongly
    //    (single-linkage via union-find).
    // ------------------------------------------------------------------
    let mut dsu = DisjointSet::new(columns.len());
    for i in 0..columns.len() {
        for j in i + 1..columns.len() {
            if robust[i].is_empty() || robust[j].is_empty() {
                continue;
            }
            if overlap_coefficient(&robust[i], &robust[j]) >= config.merge_threshold {
                dsu.union(i, j);
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..columns.len() {
        groups.entry(dsu.find(i)).or_default().push(i);
    }

    // ------------------------------------------------------------------
    // 4. Groups with enough member columns become domains.
    // ------------------------------------------------------------------
    let mut domains = Vec::new();
    for members in groups.values() {
        if members.len() < config.min_domain_columns {
            continue;
        }
        let mut values = BTreeSet::new();
        let mut names = Vec::new();
        for &m in members {
            names.push(
                lake.attribute_ref(columns[m])
                    .expect("attribute resolves")
                    .qualified(),
            );
            for &vid in &value_sets[m] {
                values.insert(lake.value(vid).expect("value resolves").to_owned());
            }
        }
        names.sort();
        domains.push(Domain {
            id: domains.len(),
            columns: names,
            values,
        });
    }

    // ------------------------------------------------------------------
    // 5. Assign every string column to the domains that cover it.
    // ------------------------------------------------------------------
    let mut assignments: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, &attr) in columns.iter().enumerate() {
        let name = lake
            .attribute_ref(attr)
            .expect("attribute resolves")
            .qualified();
        let column_values: BTreeSet<String> = value_sets[i]
            .iter()
            .map(|&vid| lake.value(vid).expect("value resolves").to_owned())
            .collect();
        let mut assigned = Vec::new();
        for domain in &domains {
            let covered = column_values
                .iter()
                .filter(|v| domain.values.contains(*v))
                .count();
            if !column_values.is_empty()
                && covered as f64 / column_values.len() as f64 >= config.assignment_threshold
            {
                assigned.push(domain.id);
            }
        }
        assignments.insert(name, assigned);
    }

    D4Output {
        domains,
        assignments,
        string_columns,
    }
}

fn overlap_coefficient(a: &HashSet<ValueId>, b: &HashSet<ValueId>) -> f64 {
    let min = a.len().min(b.len());
    if min == 0 {
        return 0.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let inter = small.iter().filter(|v| large.contains(v)).count();
    inter as f64 / min as f64
}

/// Minimal union-find used for single-linkage clustering of columns.
#[derive(Debug)]
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake::table::TableBuilder;

    /// A tiny lake with two obvious domains (animals, cities), each supported
    /// by two columns, plus a numeric column D4 must ignore.
    fn two_domain_lake() -> LakeCatalog {
        let animals = ["Panda", "Lemur", "Jaguar", "Otter", "Badger", "Walrus"];
        let cities = [
            "Boston", "Memphis", "Atlanta", "Denver", "Seattle", "Austin",
        ];
        let t1 = TableBuilder::new("zoo_a")
            .column("animal", animals)
            .column("count", ["1", "2", "3", "4", "5", "6"])
            .build()
            .unwrap();
        let t2 = TableBuilder::new("zoo_b")
            .column("species", animals)
            .column("city", cities)
            .build()
            .unwrap();
        let t3 = TableBuilder::new("travel")
            .column("destination", cities)
            .column("nights", ["7", "8", "9", "10", "11", "12"])
            .build()
            .unwrap();
        LakeCatalog::from_tables([t1, t2, t3]).unwrap()
    }

    #[test]
    fn discovers_clean_domains_and_ignores_numeric_columns() {
        let lake = two_domain_lake();
        let out = discover(&lake, D4Config::default());
        assert_eq!(out.domain_count(), 2, "animals and cities");
        assert_eq!(out.string_columns, 4);
        // Numeric columns never show up in the assignments.
        assert!(!out.assignments.contains_key("zoo_a.count"));
        assert!(!out.assignments.contains_key("travel.nights"));
        // Each string column is assigned to exactly one domain.
        assert_eq!(out.covered_columns(), 4);
        assert_eq!(out.max_domains_per_column(), 1);
        // No homographs in a clean lake.
        assert!(out.homographs().is_empty());
    }

    #[test]
    fn value_in_two_domains_is_a_homograph() {
        // "Jaguar" appears in both animal columns and in a company column
        // that clusters with another company column.
        let animals = ["Panda", "Lemur", "Jaguar", "Otter", "Badger", "Walrus"];
        let companies = ["Google", "Amazon", "Jaguar", "Apple", "Shell", "Nestle"];
        let t1 = TableBuilder::new("zoo_a")
            .column("animal", animals)
            .build()
            .unwrap();
        let t2 = TableBuilder::new("zoo_b")
            .column("species", animals)
            .build()
            .unwrap();
        let t3 = TableBuilder::new("firms_a")
            .column("company", companies)
            .build()
            .unwrap();
        let t4 = TableBuilder::new("firms_b")
            .column("name", companies)
            .build()
            .unwrap();
        let lake = LakeCatalog::from_tables([t1, t2, t3, t4]).unwrap();
        let out = discover(&lake, D4Config::default());
        assert_eq!(out.domain_count(), 2);
        let homographs = out.homographs();
        assert!(homographs.contains("JAGUAR"), "{homographs:?}");
        assert_eq!(homographs.len(), 1);
    }

    #[test]
    fn single_column_types_get_no_domain() {
        // A type supported by only one column is not discovered (this is what
        // limits D4's recall as a homograph detector on SB).
        let t1 = TableBuilder::new("a")
            .column("animal", ["Panda", "Lemur", "Jaguar"])
            .build()
            .unwrap();
        let t2 = TableBuilder::new("b")
            .column("species", ["Panda", "Lemur", "Jaguar"])
            .build()
            .unwrap();
        let t3 = TableBuilder::new("c")
            .column("grocery", ["Apple", "Olive", "Pumpkin"])
            .build()
            .unwrap();
        let lake = LakeCatalog::from_tables([t1, t2, t3]).unwrap();
        let out = discover(&lake, D4Config::default());
        assert_eq!(out.domain_count(), 1);
        assert_eq!(out.assignments["c.grocery"], Vec::<usize>::new());
    }

    #[test]
    fn on_sb_d4_covers_a_subset_and_underperforms_on_homographs() {
        let generated = datagen::sb::SbGenerator::new(7).generate();
        let out = discover(&generated.catalog, D4Config::default());
        // D4 discovers some domains but does not cover all string columns
        // (the paper: 4 domains over 14 of 39 columns).
        assert!(out.domain_count() >= 2);
        assert!(out.covered_columns() < out.string_columns);
        // Its induced homograph set misses a large part of the ground truth.
        let truth = generated.homograph_set();
        let found = out.homographs();
        let hits = found.intersection(&truth).count();
        let recall = hits as f64 / truth.len() as f64;
        assert!(
            recall < 0.8,
            "D4-based recall unexpectedly high: {recall} ({hits}/{})",
            truth.len()
        );
    }

    #[test]
    fn injected_homographs_do_not_reduce_domain_count() {
        // Figure 10's direction: more injected homographs → at least as many
        // (typically more) discovered domains, never a cleaner clustering.
        let generated =
            datagen::tus::TusGenerator::new(datagen::tus::TusConfig::small(31)).generate();
        let clean = datagen::inject::remove_homographs(&generated);
        let base = discover(&clean.catalog, D4Config::default()).domain_count();
        let injected = datagen::inject::inject_homographs(
            &clean,
            datagen::inject::InjectionConfig {
                count: 30,
                meanings: 4,
                min_attr_cardinality: 0,
                seed: 5,
            },
        )
        .expect("injection succeeds");
        let with = discover(&injected.lake.catalog, D4Config::default()).domain_count();
        assert!(
            with >= base,
            "domain count should not shrink when homographs are injected: {base} -> {with}"
        );
    }

    #[test]
    fn a_tombstoned_lake_reads_like_its_compaction() {
        // A lake that has lost a table keeps the table's attribute slots and
        // value ids as tombstones; rebuilding the lake from its live tables
        // re-derives dense ids. Discovery
        // and the ground-truth labels must not see the difference.
        let generated = datagen::sb::SbGenerator::new(7).generate();
        let mut lake = generated.catalog;
        let removed = lake.live_table_names()[0].to_owned();
        lake.apply(&lake::LakeDelta::new().remove_table(&removed))
            .unwrap();
        let compact = LakeCatalog::from_tables(lake.tables().cloned()).unwrap();
        assert!(lake.attribute_count() > compact.attribute_count());
        assert!(lake.value_count() > compact.value_count());

        assert_eq!(
            discover(&lake, D4Config::default()),
            discover(&compact, D4Config::default())
        );
        let truth = generated.truth.homographs(&lake);
        assert!(!truth.is_empty());
        assert_eq!(truth, generated.truth.homographs(&compact));
    }

    #[test]
    fn empty_lake_yields_empty_output() {
        let lake = LakeCatalog::new();
        let out = discover(&lake, D4Config::default());
        assert_eq!(out.domain_count(), 0);
        assert_eq!(out.string_columns, 0);
        assert!(out.homographs().is_empty());
        assert_eq!(out.avg_domains_per_column(), 0.0);
    }
}
