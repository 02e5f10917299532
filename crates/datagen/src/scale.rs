//! Large-lake generator for scalability experiments (§5.4, Figures 8 & 9).
//!
//! The paper measures graph-construction time and approximate-BC runtime on
//! the NYC-education open-data lake (201 tables, 3 496 attributes, ~1.5 M
//! distinct values). That corpus is not redistributable, so this generator
//! produces lakes with a configurable number of attributes, heavy-tailed
//! attribute cardinalities, and a shared global vocabulary with popularity
//! skew — the three properties that determine the size and density of the
//! DomainNet graph and therefore the runtime being measured.

use lake::catalog::LakeCatalog;
use lake::column::Column;
use lake::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the scalability-lake generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of tables.
    pub tables: usize,
    /// Attributes per table.
    pub attrs_per_table: usize,
    /// Maximum attribute cardinality (cardinalities follow a power law from
    /// `min_cardinality` up to this value).
    pub max_cardinality: usize,
    /// Minimum attribute cardinality.
    pub min_cardinality: usize,
    /// Size of the global vocabulary values are drawn from. Smaller
    /// vocabularies make denser graphs (more repeated values).
    pub vocab_size: usize,
    /// Exponent of the popularity skew over the vocabulary (0 = uniform).
    pub popularity_skew: f64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 1,
            tables: 60,
            attrs_per_table: 8,
            max_cardinality: 3_000,
            min_cardinality: 5,
            vocab_size: 120_000,
            popularity_skew: 0.6,
        }
    }
}

impl ScaleConfig {
    /// A small configuration for unit tests.
    pub fn small(seed: u64) -> Self {
        ScaleConfig {
            seed,
            tables: 10,
            attrs_per_table: 4,
            max_cardinality: 200,
            min_cardinality: 3,
            vocab_size: 3_000,
            popularity_skew: 0.6,
        }
    }

    /// Scale the configuration by a multiplicative factor (used by the
    /// experiment binaries' `--scale` flag).
    pub fn scaled(mut self, factor: f64) -> Self {
        let f = factor.max(0.01);
        self.tables = ((self.tables as f64 * f).round() as usize).max(1);
        self.vocab_size = ((self.vocab_size as f64 * f).round() as usize).max(100);
        self.max_cardinality =
            ((self.max_cardinality as f64 * f).round() as usize).max(self.min_cardinality + 1);
        self
    }
}

/// Generator for scalability lakes.
#[derive(Debug, Clone)]
pub struct ScaleGenerator {
    config: ScaleConfig,
}

impl ScaleGenerator {
    /// Create a generator from a configuration.
    pub fn new(config: ScaleConfig) -> Self {
        ScaleGenerator { config }
    }

    /// Generate the lake. No ground truth is produced — these lakes are used
    /// only for runtime measurements.
    pub fn generate(&self) -> LakeCatalog {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut tables = Vec::with_capacity(cfg.tables);
        for t in 0..cfg.tables {
            let mut columns = Vec::with_capacity(cfg.attrs_per_table);
            // All columns of one table share the row count of the widest
            // column; shorter columns repeat values, like real tables do.
            let cardinalities: Vec<usize> = (0..cfg.attrs_per_table)
                .map(|_| sample_cardinality(cfg, &mut rng))
                .collect();
            let rows = cardinalities.iter().copied().max().unwrap_or(1);
            for (c, &cardinality) in cardinalities.iter().enumerate() {
                let mut cells = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let value = sample_value(cfg, &mut rng);
                    cells.push(value);
                }
                // Guarantee roughly the requested cardinality by seeding the
                // first `cardinality` cells with distinct draws.
                for (i, cell) in cells.iter_mut().enumerate().take(cardinality) {
                    *cell = format!("v{}", stable_value_index(cfg, t, c, i));
                }
                columns.push(Column::new(format!("col_{c}"), cells));
            }
            tables.push(Table::from_columns(format!("table_{t:04}"), columns));
        }
        LakeCatalog::from_tables(tables).expect("generated table names are unique")
    }
}

/// Power-law-ish cardinality in `[min_cardinality, max_cardinality]`.
fn sample_cardinality(cfg: &ScaleConfig, rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    let min = cfg.min_cardinality.max(1) as f64;
    let max = cfg.max_cardinality.max(cfg.min_cardinality + 1) as f64;
    // Inverse-CDF sampling of a truncated Pareto-like distribution.
    let alpha = 1.2f64;
    let value = min * ((1.0 - u) + u * (min / max).powf(alpha)).powf(-1.0 / alpha);
    value.min(max) as usize
}

/// Draw a vocabulary value with popularity skew: low indexes are more popular
/// and therefore shared across many attributes (graph hubs), high indexes are
/// rare (graph leaves).
fn sample_value(cfg: &ScaleConfig, rng: &mut StdRng) -> String {
    let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
    let skewed = u.powf(1.0 + cfg.popularity_skew);
    let index = (skewed * cfg.vocab_size as f64) as usize;
    format!("v{}", index.min(cfg.vocab_size - 1))
}

/// Deterministic distinct-value index for the cardinality-seeding cells,
/// spread across the vocabulary so different attributes still overlap.
fn stable_value_index(cfg: &ScaleConfig, table: usize, column: usize, i: usize) -> usize {
    let spread = (table * 31 + column * 7) % 97;
    (i * 97 + spread) % cfg.vocab_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = ScaleConfig::small(3);
        let lake = ScaleGenerator::new(cfg).generate();
        assert_eq!(lake.table_count(), cfg.tables);
        assert_eq!(lake.attribute_count(), cfg.tables * cfg.attrs_per_table);
        assert!(lake.value_count() > 100);
    }

    #[test]
    fn cardinalities_are_heavy_tailed_and_bounded() {
        let cfg = ScaleConfig::small(4);
        let lake = ScaleGenerator::new(cfg).generate();
        let cards: Vec<usize> = lake
            .attribute_ids()
            .map(|a| lake.attribute_cardinality(a))
            .collect();
        let max = *cards.iter().max().unwrap();
        let min = *cards.iter().min().unwrap();
        assert!(max <= cfg.max_cardinality + cfg.min_cardinality);
        assert!(min >= 1);
        assert!(max > 4 * min.max(1), "expected skew, got [{min}, {max}]");
    }

    #[test]
    fn values_are_shared_across_attributes() {
        let lake = ScaleGenerator::new(ScaleConfig::small(5)).generate();
        let candidates = lake.values_in_at_least(2);
        assert!(
            candidates.len() > lake.value_count() / 20,
            "expected a healthy fraction of repeated values: {} of {}",
            candidates.len(),
            lake.value_count()
        );
    }

    #[test]
    fn deterministic_per_seed_and_scalable() {
        let a = ScaleGenerator::new(ScaleConfig::small(6)).generate();
        let b = ScaleGenerator::new(ScaleConfig::small(6)).generate();
        assert_eq!(a.value_count(), b.value_count());
        assert_eq!(a.incidence_count(), b.incidence_count());

        let bigger = ScaleConfig::small(6).scaled(2.0);
        assert!(bigger.tables > ScaleConfig::small(6).tables);
        let smaller = ScaleConfig::small(6).scaled(0.5);
        assert!(smaller.tables < ScaleConfig::small(6).tables);
    }
}
