//! The Synthetic Benchmark (SB) generator — §4.1 of the paper.
//!
//! The paper's SB is a small, fully synthetic but realistic data lake: 13
//! tables of about 1 000 rows each (plus a 193-row country table and a 50-row
//! US-state table) whose vocabularies overlap in controlled ways, producing
//! 55 ground-truth homographs such as `Jaguar` (animal / company), `Sydney`
//! (city / first name), `Jamaica` (city / country), `Lincoln` (car maker /
//! city), `CA` (country code / state abbreviation), and `Pumpkin` (grocery /
//! movie). The original was authored with Mockaroo; this generator rebuilds
//! an equivalent lake from the embedded vocabularies in [`crate::vocab`],
//! with exact per-attribute semantic classes so the ground truth follows
//! mechanically from [`crate::truth::LakeTruth`].
//!
//! The generator is deterministic for a given seed.

use lake::catalog::LakeCatalog;
use lake::table::TableBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::truth::{GeneratedLake, LakeTruth};
use crate::vocab;

/// Configuration for the SB generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbConfig {
    /// RNG seed.
    pub seed: u64,
    /// Rows per "large" table (the paper uses 1 000).
    pub rows_per_table: usize,
}

impl Default for SbConfig {
    fn default() -> Self {
        SbConfig {
            seed: 2021,
            rows_per_table: 1000,
        }
    }
}

/// Generator for the Synthetic Benchmark.
#[derive(Debug, Clone)]
pub struct SbGenerator {
    config: SbConfig,
}

impl SbGenerator {
    /// Create a generator with the default row count and the given seed.
    pub fn new(seed: u64) -> Self {
        SbGenerator {
            config: SbConfig {
                seed,
                ..SbConfig::default()
            },
        }
    }

    /// Create a generator from an explicit configuration.
    pub fn with_config(config: SbConfig) -> Self {
        SbGenerator { config }
    }

    /// Values that the benchmark is designed to turn into homographs and that
    /// every generated instance is guaranteed to contain (normalized form).
    ///
    /// The full ground-truth homograph set (derived from the semantic
    /// classes) is larger; these are the canonical, paper-style examples used
    /// by tests and documentation.
    pub fn canonical_homographs() -> Vec<&'static str> {
        vec![
            "JAGUAR",
            "PUMA",
            "LINCOLN",
            "SYDNEY",
            "JAMAICA",
            "CUBA",
            "PUMPKIN",
            "APPLE",
            "ORANGE",
            "CA",
            "GA",
            "DE",
            "AL",
            "CO",
            "MD",
            "BEETLE",
            "MUSTANG",
            "COLT",
            "RAM",
            "IMPALA",
            "FALCON",
            "EAGLE",
            "VIPER",
            "COBRA",
            "PANDA",
            "KIWI",
            "GEORGIA",
            "VIRGINIA",
            "WASHINGTON",
            "MADISON",
            "JACKSON",
            "CHARLOTTE",
            "AUSTIN",
            "PHOENIX",
            "SAVANNAH",
            "FLORENCE",
            "VICTORIA",
            "CHELSEA",
            "BROOKLYN",
            "NEBRASKA",
            "CHICAGO",
            "PHILADELPHIA",
            "CASABLANCA",
            "OLIVE",
            "BLACKBERRY",
        ]
    }

    /// Generate the lake and its ground truth.
    pub fn generate(&self) -> GeneratedLake {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let rows = self.config.rows_per_table;
        let mut truth = LakeTruth::new();
        let mut tables = Vec::new();

        // -- T01: corporate donations to protect endangered species ---------
        {
            let donors = sample_column(&mut rng, vocab::COMPANIES, rows);
            let animals = sample_column(&mut rng, vocab::ANIMALS, rows);
            let amounts: Vec<String> = (0..rows)
                .map(|_| format!("{:.1}M", rng.gen_range(0.1..25.0)))
                .collect();
            tables.push(
                TableBuilder::new("endangered_donations")
                    .column("donor", donors)
                    .column("at_risk", animals)
                    .column("donation", amounts)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("endangered_donations", "donor", "company");
            truth.set_class("endangered_donations", "at_risk", "animal");
            truth.set_class("endangered_donations", "donation", "money_millions");
        }

        // -- T02: zoo populations -------------------------------------------
        {
            let animals = sample_column(&mut rng, vocab::ANIMALS, rows);
            let cities = sample_column(&mut rng, vocab::CITIES, rows);
            let counts: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(1..=40).to_string())
                .collect();
            tables.push(
                TableBuilder::new("zoo_population")
                    .column("animal", animals)
                    .column("city", cities)
                    .column("count", counts)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("zoo_population", "animal", "animal");
            truth.set_class("zoo_population", "city", "city");
            truth.set_class("zoo_population", "count", "small_count");
        }

        // -- T03: car imports ------------------------------------------------
        {
            let models = sample_column(&mut rng, vocab::CAR_MODELS, rows);
            let brands = sample_column(&mut rng, vocab::CAR_BRANDS, rows);
            let countries = sample_column(&mut rng, vocab::COUNTRIES, rows);
            tables.push(
                TableBuilder::new("car_imports")
                    .column("model", models)
                    .column("brand", brands)
                    .column("origin", countries)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("car_imports", "model", "car_model");
            // Car manufacturers are companies (as in the running example):
            // Toyota in `brand` and in `company_financials.company` keeps a
            // single meaning; Jaguar still collides with the animal columns.
            truth.set_class("car_imports", "brand", "company");
            truth.set_class("car_imports", "origin", "country");
        }

        // -- T04: company financials -----------------------------------------
        {
            let companies = sample_column(&mut rng, vocab::COMPANIES, rows);
            let revenue: Vec<String> = (0..rows)
                .map(|_| format!("{:.2}", rng.gen_range(1.0..999.0)))
                .collect();
            let employees: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(2_500..900_000).to_string())
                .collect();
            tables.push(
                TableBuilder::new("company_financials")
                    .column("company", companies)
                    .column("revenue", revenue)
                    .column("employees", employees)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("company_financials", "company", "company");
            truth.set_class("company_financials", "revenue", "revenue");
            truth.set_class("company_financials", "employees", "employees");
        }

        // -- T05: customers ---------------------------------------------------
        {
            let first = sample_column(&mut rng, vocab::FIRST_NAMES, rows);
            let last = sample_column(&mut rng, vocab::LAST_NAMES, rows);
            let cities = sample_column(&mut rng, vocab::CITIES, rows);
            let states = sample_column(&mut rng, vocab::US_STATES, rows);
            let emails: Vec<String> = (0..rows)
                .map(|i| {
                    format!(
                        "{}.{}{}@example.com",
                        first[i].to_lowercase().replace(' ', ""),
                        last[i].to_lowercase().replace(' ', ""),
                        rng.gen_range(1..10_000)
                    )
                })
                .collect();
            tables.push(
                TableBuilder::new("customers")
                    .column("first_name", first)
                    .column("last_name", last)
                    .column("city", cities)
                    .column("state", states)
                    .column("email", emails)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("customers", "first_name", "first_name");
            truth.set_class("customers", "last_name", "last_name");
            truth.set_class("customers", "city", "city");
            truth.set_class("customers", "state", "us_state");
            truth.set_class("customers", "email", "email");
        }

        // -- T06: countries (193 rows, as in the paper) -----------------------
        {
            let mut countries: Vec<String> =
                vocab::COUNTRIES.iter().map(|s| s.to_string()).collect();
            countries.truncate(193);
            while countries.len() < 193 {
                countries.push(format!("Territory {}", countries.len()));
            }
            let codes: Vec<String> = (0..countries.len())
                .map(|i| {
                    vocab::COUNTRY_CODES
                        .get(i)
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| synthetic_code(i))
                })
                .collect();
            let capitals = sample_column(&mut rng, vocab::CITIES, countries.len());
            tables.push(
                TableBuilder::new("countries")
                    .column("country", countries)
                    .column("code", codes)
                    .column("capital", capitals)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("countries", "country", "country");
            truth.set_class("countries", "code", "country_code");
            truth.set_class("countries", "capital", "city");
        }

        // -- T07: US states (50 rows) -----------------------------------------
        {
            let states: Vec<String> = vocab::US_STATES.iter().map(|s| s.to_string()).collect();
            let abbrevs: Vec<String> = vocab::STATE_ABBREVS.iter().map(|s| s.to_string()).collect();
            let capitals = sample_column(&mut rng, vocab::CITIES, states.len());
            tables.push(
                TableBuilder::new("us_states")
                    .column("state", states)
                    .column("abbreviation", abbrevs)
                    .column("capital", capitals)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("us_states", "state", "us_state");
            truth.set_class("us_states", "abbreviation", "state_abbrev");
            truth.set_class("us_states", "capital", "city");
        }

        // -- T08: grocery products --------------------------------------------
        {
            let products = sample_column(&mut rng, vocab::GROCERIES, rows);
            let prices: Vec<String> = (0..rows)
                .map(|_| format!("${:.2}", rng.gen_range(0.5..50.0)))
                .collect();
            let skus: Vec<String> = (0..rows)
                .map(|_| format!("SKU-{:06}", rng.gen_range(0..1_000_000)))
                .collect();
            tables.push(
                TableBuilder::new("grocery_products")
                    .column("product", products)
                    .column("price", prices)
                    .column("sku", skus)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("grocery_products", "product", "grocery");
            truth.set_class("grocery_products", "price", "price");
            truth.set_class("grocery_products", "sku", "sku");
        }

        // -- T09: movies --------------------------------------------------------
        {
            let titles = sample_column(&mut rng, vocab::MOVIES, rows);
            let years: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(1950..=2023).to_string())
                .collect();
            let ratings: Vec<String> = (0..rows)
                .map(|_| format!("{:.1}", rng.gen_range(1.0..9.9)))
                .collect();
            tables.push(
                TableBuilder::new("movies")
                    .column("title", titles)
                    .column("year", years)
                    .column("rating", ratings)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("movies", "title", "movie");
            truth.set_class("movies", "year", "year");
            truth.set_class("movies", "rating", "rating");
        }

        // -- T10: botany --------------------------------------------------------
        {
            let plants = sample_column(&mut rng, vocab::PLANTS, rows);
            let scientific = sample_column(&mut rng, vocab::SCIENTIFIC_NAMES, rows);
            let families: Vec<String> = (0..rows)
                .map(|_| format!("Family {}", rng.gen_range(1..=60)))
                .collect();
            tables.push(
                TableBuilder::new("botany")
                    .column("common_name", plants)
                    .column("scientific_name", scientific)
                    .column("family", families)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("botany", "common_name", "plant");
            truth.set_class("botany", "scientific_name", "scientific_name");
            truth.set_class("botany", "family", "taxon_family");
        }

        // -- T11: wildlife ------------------------------------------------------
        {
            let animals = sample_column(&mut rng, vocab::ANIMALS, rows);
            let scientific = sample_column(&mut rng, vocab::SCIENTIFIC_NAMES, rows);
            let habitats = sample_column(&mut rng, vocab::HABITATS, rows);
            let colors = sample_column(&mut rng, vocab::COLORS, rows);
            tables.push(
                TableBuilder::new("wildlife")
                    .column("animal", animals)
                    .column("scientific_name", scientific)
                    .column("habitat", habitats)
                    .column("color", colors)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("wildlife", "animal", "animal");
            truth.set_class("wildlife", "scientific_name", "scientific_name");
            truth.set_class("wildlife", "habitat", "habitat");
            truth.set_class("wildlife", "color", "color");
        }

        // -- T12: world cities ---------------------------------------------------
        {
            let cities = sample_column(&mut rng, vocab::CITIES, rows);
            let countries = sample_column(&mut rng, vocab::COUNTRIES, rows);
            let populations: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(1_000_000..30_000_000).to_string())
                .collect();
            tables.push(
                TableBuilder::new("world_cities")
                    .column("city", cities)
                    .column("country", countries)
                    .column("population", populations)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("world_cities", "city", "city");
            truth.set_class("world_cities", "country", "country");
            truth.set_class("world_cities", "population", "population");
        }

        // -- T13: university departments -----------------------------------------
        {
            let departments = sample_column(&mut rng, vocab::DEPARTMENTS, rows);
            let cities = sample_column(&mut rng, vocab::CITIES, rows);
            let enrollment: Vec<String> = (0..rows)
                .map(|_| rng.gen_range(50..1_800).to_string())
                .collect();
            tables.push(
                TableBuilder::new("university_departments")
                    .column("department", departments)
                    .column("city", cities)
                    .column("enrollment", enrollment)
                    .build()
                    .expect("rectangular by construction"),
            );
            truth.set_class("university_departments", "department", "department");
            truth.set_class("university_departments", "city", "city");
            truth.set_class("university_departments", "enrollment", "enrollment");
        }

        let catalog = LakeCatalog::from_tables(tables).expect("generated table names are unique");
        GeneratedLake { catalog, truth }
    }
}

/// Values that are always kept when a column subsamples its vocabulary, so
/// the benchmark's engineered overlaps (and a couple of engineered
/// *non*-homographs such as Toyota) are guaranteed to materialize in every
/// generated instance.
fn anchored(value: &str) -> bool {
    let normalized = lake::normalize(value);
    normalized == "TOYOTA"
        || normalized == "PANDA"
        || SbGenerator::canonical_homographs().contains(&normalized.as_str())
}

/// Sample `rows` cells from a vocabulary.
///
/// Real open-data and Mockaroo columns rarely contain a semantic type's
/// *entire* vocabulary: two city columns overlap only partially, and their
/// cardinalities differ a lot. To reproduce that structure — which is what
/// makes the local clustering coefficient unreliable on SB (Figure 5) — each
/// column first draws its own random subset of the vocabulary (between ~35 %
/// and ~95 % of it, anchors always included), then fills its rows from that
/// subset. Every subset member appears at least once when the row count
/// allows.
fn sample_column(rng: &mut StdRng, vocabulary: &[&str], rows: usize) -> Vec<String> {
    let keep_fraction: f64 = rng.gen_range(0.35..0.95);
    let mut subset: Vec<&str> = vocabulary
        .iter()
        .copied()
        .filter(|v| anchored(v) || rng.gen_bool(keep_fraction))
        .collect();
    if subset.is_empty() {
        subset.push(vocabulary[0]);
    }
    let mut cells: Vec<String> = Vec::with_capacity(rows);
    for value in subset.iter().take(rows) {
        cells.push((*value).to_string());
    }
    while cells.len() < rows {
        let value = subset.choose(rng).expect("subset is never empty");
        cells.push((*value).to_string());
    }
    cells.shuffle(rng);
    cells
}

/// Deterministic synthetic two-letter-plus-digit code for countries beyond
/// the curated ISO list (kept distinct from real codes to avoid accidental
/// extra homographs).
fn synthetic_code(index: usize) -> String {
    let a = (b'A' + (index % 26) as u8) as char;
    let b = (b'A' + ((index / 26) % 26) as u8) as char;
    format!("{a}{b}{}", index % 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_thirteen_tables_with_expected_shapes() {
        let lake = SbGenerator::new(7).generate();
        assert_eq!(lake.catalog.table_count(), 13);
        assert_eq!(lake.catalog.table("countries").unwrap().row_count(), 193);
        assert_eq!(lake.catalog.table("us_states").unwrap().row_count(), 50);
        assert_eq!(
            lake.catalog.table("zoo_population").unwrap().row_count(),
            1000
        );
        // Every attribute has a recorded semantic class.
        assert_eq!(
            lake.truth.attribute_classes.len(),
            lake.catalog.attribute_count()
        );
    }

    #[test]
    fn canonical_homographs_are_labeled() {
        let lake = SbGenerator::new(7).generate();
        let homographs = lake.homographs();
        for value in SbGenerator::canonical_homographs() {
            assert!(
                homographs.contains_key(value),
                "expected {value} to be a ground-truth homograph"
            );
        }
    }

    #[test]
    fn homograph_count_is_in_a_plausible_band() {
        let lake = SbGenerator::new(7).generate();
        let homographs = lake.homographs();
        // The paper's SB has 55; the regenerated lake lands in the same
        // neighbourhood (the exact number depends on vocabulary overlap).
        assert!(
            (40..=120).contains(&homographs.len()),
            "unexpected homograph count {}",
            homographs.len()
        );
        // All homographs have at least two meanings.
        assert!(homographs.values().all(|&m| m >= 2));
    }

    #[test]
    fn unambiguous_repeats_exist_and_do_not_overlap() {
        let lake = SbGenerator::new(7).generate();
        let homographs = lake.homograph_set();
        let repeats = lake.truth.unambiguous_repeats(&lake.catalog);
        // Panda appears in several animal columns but only as an animal...
        // except that the Fiat Panda makes it a homograph in SB, matching the
        // richer vocabulary. Use Toyota (company in two tables) instead.
        assert!(repeats.contains("TOYOTA"));
        assert!(repeats.is_disjoint(&homographs));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SbGenerator::new(99).generate();
        let b = SbGenerator::new(99).generate();
        assert_eq!(a.catalog.value_count(), b.catalog.value_count());
        assert_eq!(a.homographs(), b.homographs());
        let c = SbGenerator::new(100).generate();
        // Different seed still produces the same schema.
        assert_eq!(c.catalog.table_count(), 13);
    }

    #[test]
    fn small_tables_create_low_cardinality_homographs() {
        // The state/country-code homographs (CA, GA, ...) live in the two
        // small tables, which is what makes them hard for BC (the paper's
        // Figure 6 discussion). Verify they are present and small.
        let lake = SbGenerator::new(7).generate();
        let ca = lake.catalog.value_id("CA").expect("CA present");
        let card = lake.catalog.value_cardinality(ca);
        assert!(card < 500, "CA should have small cardinality, got {card}");
        // And it genuinely is a ground-truth homograph despite that.
        assert!(lake.homographs().contains_key("CA"));
    }
}
