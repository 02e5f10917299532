//! A TUS-like open-data lake generator.
//!
//! The paper's large-scale evaluation uses the Table Union Search (TUS)
//! benchmark: 1 327 real tables sliced out of UK/Canadian open-data sources,
//! with unionability ground truth per column, 190 399 distinct values, and
//! 26 035 homographs derived via Definition 2. The raw benchmark is not
//! redistributable here, so this module generates a synthetic lake that
//! reproduces the structural properties DomainNet actually consumes:
//!
//! * a universe of semantic **domains** with heavy-tailed vocabulary sizes
//!   (attribute cardinalities in TUS range from 3 to ~23 000),
//! * wide **source tables** that are sliced vertically and horizontally into
//!   many smaller tables, so that columns originating from the same source
//!   column are unionable but may share only part of their values,
//! * **shared tokens** (null markers, codes, small numbers) that occur in
//!   several domains and therefore become natural homographs, mirroring the
//!   paper's observations about `"."`, `"50"`, `"Music Faculty"`, …,
//! * **numeric columns** whose overlapping ranges create numeric homographs.
//!
//! Because every attribute carries its semantic class in the
//! [`crate::truth::LakeTruth`], ground-truth homographs follow from exactly
//! the same rule the paper uses (Definition 2).

use lake::catalog::LakeCatalog;
use lake::column::Column;
use lake::table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::truth::{GeneratedLake, LakeTruth};
use crate::vocab;

/// Configuration for the TUS-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TusConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of semantic domains (the real TUS ground truth has ~70).
    pub domain_count: usize,
    /// Wide source tables generated per domain before slicing.
    pub source_tables_per_domain: usize,
    /// Vertical slices cut from each source table.
    pub vertical_slices: usize,
    /// Horizontal slices cut from each vertical slice.
    pub horizontal_slices: usize,
    /// Vocabulary size of the largest domain.
    pub max_domain_vocab: usize,
    /// Vocabulary size of the smallest domain.
    pub min_domain_vocab: usize,
    /// Zipf-style exponent controlling how quickly domain vocabularies shrink.
    pub skew: f64,
    /// Number of tokens in the cross-domain shared pool.
    pub shared_pool_size: usize,
    /// Probability that a vocabulary slot is filled from the shared pool.
    pub collision_rate: f64,
    /// Numeric columns attached to each source table.
    pub numeric_columns_per_source: usize,
    /// Rows per source table (before horizontal slicing).
    pub rows_per_source: usize,
}

impl Default for TusConfig {
    fn default() -> Self {
        TusConfig {
            seed: 42,
            domain_count: 48,
            source_tables_per_domain: 2,
            vertical_slices: 2,
            horizontal_slices: 2,
            max_domain_vocab: 2500,
            min_domain_vocab: 8,
            skew: 1.0,
            shared_pool_size: 400,
            collision_rate: 0.04,
            numeric_columns_per_source: 2,
            rows_per_source: 900,
        }
    }
}

impl TusConfig {
    /// A small configuration for unit tests (runs in well under a second).
    pub fn small(seed: u64) -> Self {
        TusConfig {
            seed,
            domain_count: 12,
            source_tables_per_domain: 2,
            vertical_slices: 2,
            horizontal_slices: 2,
            max_domain_vocab: 300,
            min_domain_vocab: 6,
            skew: 1.0,
            shared_pool_size: 80,
            collision_rate: 0.05,
            numeric_columns_per_source: 1,
            rows_per_source: 200,
        }
    }

    /// A larger configuration approximating the TUS benchmark's scale
    /// characteristics (hundreds of thousands of incidences) while still
    /// running in minutes on a laptop.
    pub fn paper_scale(seed: u64) -> Self {
        TusConfig {
            seed,
            domain_count: 70,
            source_tables_per_domain: 3,
            vertical_slices: 2,
            horizontal_slices: 3,
            max_domain_vocab: 8000,
            min_domain_vocab: 6,
            skew: 1.05,
            shared_pool_size: 800,
            collision_rate: 0.04,
            numeric_columns_per_source: 2,
            rows_per_source: 1500,
        }
    }
}

/// Generator for the TUS-like benchmark.
#[derive(Debug, Clone)]
pub struct TusGenerator {
    config: TusConfig,
}

impl TusGenerator {
    /// Create a generator from a configuration.
    pub fn new(config: TusConfig) -> Self {
        TusGenerator { config }
    }

    /// Generate the lake and its ground truth.
    pub fn generate(&self) -> GeneratedLake {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let shared_pool = build_shared_pool(cfg.shared_pool_size);
        let domains = build_domain_vocabularies(cfg, &shared_pool, &mut rng);

        let mut truth = LakeTruth::new();
        let mut tables: Vec<Table> = Vec::new();

        for (domain_id, domain_vocab) in domains.iter().enumerate() {
            for source_idx in 0..cfg.source_tables_per_domain {
                let source = SourceTable::generate(
                    cfg,
                    domain_id,
                    source_idx,
                    &domains,
                    domain_vocab,
                    &mut rng,
                );
                source.slice_into(cfg, &mut tables, &mut truth, &mut rng);
            }
        }

        let catalog = LakeCatalog::from_tables(tables)
            .expect("generated table names are unique by construction");
        GeneratedLake { catalog, truth }
    }
}

/// Tokens deliberately shared across domains: null markers, short codes, and
/// small numbers, echoing the homographs the paper finds in real open data.
fn build_shared_pool(size: usize) -> Vec<String> {
    let mut pool: Vec<String> = Vec::with_capacity(size);
    for marker in vocab::NULL_MARKERS {
        pool.push((*marker).to_string());
    }
    for dept in vocab::DEPARTMENTS.iter().take(12) {
        pool.push((*dept).to_string());
    }
    let mut n = 0usize;
    while pool.len() < size {
        pool.push(match n % 3 {
            0 => (n / 3 + 1).to_string(),
            1 => format!("CODE-{:03}", n / 3),
            _ => format!("Region {}", n / 3),
        });
        n += 1;
    }
    pool.truncate(size);
    pool
}

/// Build one vocabulary per domain with Zipf-like sizes; a fraction of each
/// vocabulary is drawn from the shared pool (creating cross-domain values).
fn build_domain_vocabularies(
    cfg: &TusConfig,
    shared_pool: &[String],
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let mut domains = Vec::with_capacity(cfg.domain_count);
    for d in 0..cfg.domain_count {
        let rank = (d + 1) as f64;
        let size = ((cfg.max_domain_vocab as f64 / rank.powf(cfg.skew)) as usize)
            .max(cfg.min_domain_vocab);
        let mut vocabulary = Vec::with_capacity(size);
        for j in 0..size {
            if rng.gen_bool(cfg.collision_rate) && !shared_pool.is_empty() {
                vocabulary.push(
                    shared_pool
                        .choose(rng)
                        .expect("shared pool is non-empty")
                        .clone(),
                );
            } else {
                vocabulary.push(format!("dom{d:02}_value_{j:05}"));
            }
        }
        vocabulary.sort();
        vocabulary.dedup();
        domains.push(vocabulary);
    }
    domains
}

/// A wide source table before slicing.
struct SourceTable {
    name: String,
    /// (column name, semantic class, cells)
    columns: Vec<(String, String, Vec<String>)>,
}

impl SourceTable {
    fn generate(
        cfg: &TusConfig,
        domain_id: usize,
        source_idx: usize,
        domains: &[Vec<String>],
        domain_vocab: &[String],
        rng: &mut StdRng,
    ) -> SourceTable {
        let rows = cfg.rows_per_source.max(4);
        let name = format!("src_d{domain_id:02}_{source_idx}");
        let mut columns = Vec::new();

        // Key column over the domain's own vocabulary.
        columns.push((
            "key".to_string(),
            format!("dom{domain_id:02}"),
            draw(rng, domain_vocab, rows),
        ));

        // One or two columns borrowed from other domains, emulating the fact
        // that open-data tables mix entity types (a transport table carries
        // both stop names and street names).
        let foreign_count = 1 + (source_idx % 2);
        for f in 0..foreign_count {
            let other = (domain_id + 3 + 5 * f + source_idx) % domains.len();
            if other == domain_id {
                continue;
            }
            columns.push((
                format!("ref_{f}"),
                format!("dom{other:02}"),
                draw(rng, &domains[other], rows),
            ));
        }

        // Numeric columns. Each source numeric column is its own unionability
        // class, so identical numbers across sources are homographs — exactly
        // like "50" / "125" / "2" in the real TUS data.
        for c in 0..cfg.numeric_columns_per_source {
            let magnitude = 10u64.pow(1 + ((domain_id + c + source_idx) % 3) as u32);
            let cells: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(0..magnitude * 5).to_string())
                .collect();
            columns.push((
                format!("metric_{c}"),
                format!("num_src_d{domain_id:02}_{source_idx}_{c}"),
                cells,
            ));
        }

        SourceTable { name, columns }
    }

    /// Slice the source table vertically and horizontally into lake tables,
    /// recording the class of every emitted attribute.
    fn slice_into(
        &self,
        cfg: &TusConfig,
        tables: &mut Vec<Table>,
        truth: &mut LakeTruth,
        rng: &mut StdRng,
    ) {
        let rows = self.columns[0].2.len();
        let v_slices = cfg.vertical_slices.max(1);
        let h_slices = cfg.horizontal_slices.max(1);
        let rows_per_slice = rows.div_ceil(h_slices);

        for v in 0..v_slices {
            // Choose a random subset of the columns (at least one); the key
            // column is always kept so every slice stays anchored in its
            // domain.
            let mut chosen: Vec<usize> = (1..self.columns.len())
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            chosen.insert(0, 0);

            for h in 0..h_slices {
                let start = h * rows_per_slice;
                if start >= rows {
                    break;
                }
                let end = (start + rows_per_slice).min(rows);
                let table_name = format!("{}_v{v}_h{h}", self.name);
                let mut columns = Vec::with_capacity(chosen.len());
                for &ci in &chosen {
                    let (col_name, class, cells) = &self.columns[ci];
                    columns.push(Column::new(col_name.clone(), cells[start..end].to_vec()));
                    truth.set_class(&table_name, col_name.clone(), class.clone());
                }
                tables.push(Table::from_columns(table_name, columns));
            }
        }
    }
}

fn draw(rng: &mut StdRng, vocabulary: &[String], rows: usize) -> Vec<String> {
    let mut cells = Vec::with_capacity(rows);
    // Include a prefix of the vocabulary so small domains are fully covered,
    // then fill randomly (values may repeat, as in real columns).
    for value in vocabulary.iter().take(rows) {
        cells.push(value.clone());
    }
    while cells.len() < rows {
        cells.push(
            vocabulary
                .choose(rng)
                .expect("domain vocabularies are non-empty")
                .clone(),
        );
    }
    cells.shuffle(rng);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_a_lake_with_sliced_tables_and_classes() {
        let lake = TusGenerator::new(TusConfig::small(1)).generate();
        let cfg = TusConfig::small(1);
        let max_tables = cfg.domain_count
            * cfg.source_tables_per_domain
            * cfg.vertical_slices
            * cfg.horizontal_slices;
        assert!(lake.catalog.table_count() > cfg.domain_count);
        assert!(lake.catalog.table_count() <= max_tables);
        // Every attribute is labeled with a class.
        assert_eq!(
            lake.truth.attribute_classes.len(),
            lake.catalog.attribute_count()
        );
    }

    #[test]
    fn produces_natural_homographs_from_shared_tokens_and_numbers() {
        let lake = TusGenerator::new(TusConfig::small(2)).generate();
        let homographs = lake.homographs();
        assert!(
            homographs.len() > 20,
            "expected a healthy number of natural homographs, got {}",
            homographs.len()
        );
        // Homograph fraction of candidates should be substantial but not
        // overwhelming (TUS: 26 035 of ~190 399 values; ours varies with the
        // collision rate).
        let candidates = lake.candidate_count();
        assert!(candidates > homographs.len());
        // At least one of the classic shared tokens spans domains.
        let has_shared = homographs
            .keys()
            .any(|k| k.starts_with("CODE-") || k == "." || k == "NA" || k.starts_with("REGION"));
        assert!(has_shared, "expected shared-pool tokens among homographs");
        // Numeric homographs exist too.
        let has_numeric = homographs.keys().any(|k| k.parse::<u64>().is_ok());
        assert!(has_numeric, "expected numeric homographs");
    }

    #[test]
    fn cardinalities_are_skewed() {
        let lake = TusGenerator::new(TusConfig::small(3)).generate();
        let catalog = &lake.catalog;
        let cardinalities = || {
            catalog
                .attribute_ids()
                .map(|a| catalog.attribute_cardinality(a))
        };
        let (min, max) = (
            cardinalities().min().unwrap(),
            cardinalities().max().unwrap(),
        );
        // The small test configuration caps per-slice cardinality at
        // rows_per_source / horizontal_slices, so the spread is modest here;
        // paper_scale() configurations spread much wider.
        assert!(
            max >= 3 * min.max(1),
            "expected skewed attribute cardinalities, got [{min}, {max}]"
        );
    }

    #[test]
    fn unionable_slices_share_a_class() {
        let lake = TusGenerator::new(TusConfig::small(4)).generate();
        // Two horizontal slices of the same source column must have the same
        // class label.
        let c1 = lake.truth.class_of("src_d00_0_v0_h0", "key");
        let c2 = lake.truth.class_of("src_d00_0_v0_h1", "key");
        assert!(c1.is_some());
        assert_eq!(c1, c2);
        // And a slice from a different domain gets a different class.
        let other = lake.truth.class_of("src_d01_0_v0_h0", "key");
        assert!(other.is_some());
        assert_ne!(c1, other);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TusGenerator::new(TusConfig::small(9)).generate();
        let b = TusGenerator::new(TusConfig::small(9)).generate();
        assert_eq!(a.catalog.value_count(), b.catalog.value_count());
        assert_eq!(a.homographs(), b.homographs());
    }
}
