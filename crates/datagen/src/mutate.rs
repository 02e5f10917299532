//! Deterministic mutation streams for incremental-maintenance workloads.
//!
//! Real data lakes are not static snapshots: tables arrive, get deprecated,
//! come back under the same name, and have cells rewritten. The incremental
//! subsystem (`lake::MutableLake` + `domainnet::DomainNet::apply_delta`)
//! exists for exactly that traffic, and this module generates it: a seeded,
//! reproducible stream of [`lake::LakeDelta`]s to replay against a base
//! lake.
//!
//! Each delta holds `tables_per_delta` single-table operations, drawn from
//! three kinds with configurable weights:
//!
//! * **Add** — a fresh synthetic table whose columns sample the embedded
//!   vocabularies ([`crate::vocab`]), so new tables overlap the base lake's
//!   value space the way real arrivals do (and therefore create and destroy
//!   homographs as they come and go).
//! * **Remove** — a uniformly chosen live table (generated ones and, when
//!   [`MutationConfig::touch_base_tables`] is set, base tables too).
//!   Removed tables are remembered and may be re-added later, exercising
//!   the value-revival path.
//! * **Replace** — a random cell-rewrite of one distinct value in one
//!   column, the same primitive the TUS-I injection procedure uses.
//!
//! ```
//! use datagen::mutate::{MutationConfig, MutationStream};
//! use lake::delta::MutableLake;
//!
//! let base = datagen::sb::SbGenerator::new(7).generate();
//! let mut lake = MutableLake::from_catalog(&base.catalog);
//! let mut stream = MutationStream::new(MutationConfig {
//!     seed: 42,
//!     ..MutationConfig::default()
//! });
//! let delta = stream.next_delta(&lake);
//! assert!(!delta.is_empty());
//! lake.apply(&delta).unwrap();
//! ```

use lake::catalog::AttrId;
use lake::delta::{LakeDelta, MutableLake};
use lake::table::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::vocab;

/// Configuration for [`MutationStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationConfig {
    /// RNG seed; the stream is fully deterministic given the seed and the
    /// sequence of lake states it is asked to mutate.
    pub seed: u64,
    /// Single-table operations per generated delta (the *mutation
    /// granularity*; `1` = one table add/remove/rewrite per delta).
    pub tables_per_delta: usize,
    /// Rows per synthetic added table.
    pub rows_per_table: usize,
    /// Relative weight of table additions.
    pub add_weight: u32,
    /// Relative weight of table removals.
    pub remove_weight: u32,
    /// Relative weight of value rewrites.
    pub replace_weight: u32,
    /// Whether removals may target tables of the base lake (not only tables
    /// this stream added itself).
    pub touch_base_tables: bool,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            seed: 2021,
            tables_per_delta: 1,
            rows_per_table: 80,
            add_weight: 4,
            remove_weight: 3,
            replace_weight: 3,
            touch_base_tables: false,
        }
    }
}

/// A deterministic generator of [`LakeDelta`]s against an evolving lake.
#[derive(Debug, Clone)]
pub struct MutationStream {
    config: MutationConfig,
    rng: StdRng,
    /// Names of tables this stream has added and not yet removed.
    own_live: Vec<String>,
    /// Tables removed by this stream, kept for later re-addition.
    parked: Vec<Table>,
    next_table_id: usize,
}

/// Vocabularies a synthetic mutation table draws its columns from. A pair of
/// overlapping semantic pools per column keeps the added tables entangled
/// with the base lake's value space.
const COLUMN_POOLS: &[(&str, &[&str])] = &[
    ("animal", vocab::ANIMALS),
    ("brand", vocab::CAR_BRANDS),
    ("company", vocab::COMPANIES),
    ("city", vocab::CITIES),
    ("country", vocab::COUNTRIES),
    ("first_name", vocab::FIRST_NAMES),
    ("grocery", vocab::GROCERIES),
    ("movie", vocab::MOVIES),
    ("plant", vocab::PLANTS),
    ("color", vocab::COLORS),
];

impl MutationStream {
    /// Create a stream with the given configuration.
    pub fn new(config: MutationConfig) -> Self {
        MutationStream {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            own_live: Vec::new(),
            parked: Vec::new(),
            next_table_id: 0,
        }
    }

    /// Generate the next delta against the lake's current live state.
    ///
    /// The returned delta is guaranteed to be applicable: removals name live
    /// tables, additions use fresh (or parked, currently-unused) names, and
    /// rewrites target existing values. It contains
    /// [`MutationConfig::tables_per_delta`] operations.
    pub fn next_delta(&mut self, lake: &MutableLake) -> LakeDelta {
        let mut delta = LakeDelta::new();
        // Track the table set as ops accumulate so one delta stays
        // self-consistent (no removing a table twice, no add/remove races).
        let mut live: Vec<String> = lake
            .live_table_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        for _ in 0..self.config.tables_per_delta.max(1) {
            let total =
                self.config.add_weight + self.config.remove_weight + self.config.replace_weight;
            let mut pick = if total == 0 {
                0
            } else {
                self.rng.gen_range(0..total)
            };
            if pick < self.config.add_weight {
                delta = self.push_add(delta, &mut live);
                continue;
            }
            pick -= self.config.add_weight;
            if pick < self.config.remove_weight {
                if let Some(name) = self.pick_removal_target(&live) {
                    live.retain(|t| t != &name);
                    self.own_live.retain(|t| t != &name);
                    if let Some(table) = lake.table(&name) {
                        self.parked.push(table);
                    }
                    delta = delta.remove_table(name);
                } else {
                    // Nothing removable: fall back to an add instead.
                    delta = self.push_add(delta, &mut live);
                }
                continue;
            }
            if let Some(op) = self.pick_replacement(lake, &live) {
                let (table, column, target, replacement) = op;
                delta = delta.replace_value(table, column, &target, replacement);
            } else {
                delta = self.push_add(delta, &mut live);
            }
        }
        delta
    }

    /// Append an add-table op to `delta`, keeping the live-name and
    /// own-table bookkeeping in sync.
    fn push_add(&mut self, delta: LakeDelta, live: &mut Vec<String>) -> LakeDelta {
        let table = self.next_added_table(live);
        live.push(table.name().to_owned());
        self.own_live.push(table.name().to_owned());
        delta.add_table(table)
    }

    /// A fresh synthetic table, or a parked (previously removed) one when
    /// its name is free again — exercising the value-revival path.
    fn next_added_table(&mut self, live: &[String]) -> Table {
        if !self.parked.is_empty() && self.rng.gen_bool(0.4) {
            if let Some(pos) = self
                .parked
                .iter()
                .position(|t| !live.iter().any(|l| l == t.name()))
            {
                return self.parked.swap_remove(pos);
            }
        }
        let id = self.next_table_id;
        self.next_table_id += 1;
        let rows = self.config.rows_per_table.max(2);
        let n_cols = self.rng.gen_range(2..=3usize);
        let mut pools: Vec<&(&str, &[&str])> = COLUMN_POOLS.iter().collect();
        pools.shuffle(&mut self.rng);
        let mut builder = TableBuilder::new(format!("mut_table_{id}"));
        for (col_name, pool) in pools.into_iter().take(n_cols) {
            // Arriving tables cover a modest slice of their domain's
            // vocabulary — real columns rarely replicate half a domain.
            let keep: f64 = self.rng.gen_range(0.1..0.4);
            let mut subset: Vec<&str> = pool
                .iter()
                .copied()
                .filter(|_| self.rng.gen_bool(keep))
                .collect();
            if subset.is_empty() {
                subset.push(pool[0]);
            }
            let cells: Vec<String> = (0..rows)
                .map(|_| (*subset.choose(&mut self.rng).expect("subset non-empty")).to_owned())
                .collect();
            builder = builder.column(*col_name, cells);
        }
        builder.build().expect("rectangular by construction")
    }

    fn pick_removal_target(&mut self, live: &[String]) -> Option<String> {
        let candidates: Vec<&String> = if self.config.touch_base_tables {
            live.iter().collect()
        } else {
            live.iter().filter(|t| self.own_live.contains(t)).collect()
        };
        candidates.choose(&mut self.rng).map(|s| (*s).clone())
    }

    fn pick_replacement(
        &mut self,
        lake: &MutableLake,
        live: &[String],
    ) -> Option<(String, String, String, String)> {
        // Try a few random live columns for one with a distinct value,
        // read off the lake's index: its values, sorted as
        // `Column::distinct_values` sorts them.
        for _ in 0..8 {
            let table_name = live.choose(&mut self.rng)?;
            let attrs: Vec<AttrId> = lake.table_attributes(table_name).collect();
            if attrs.is_empty() {
                continue;
            }
            let attr = attrs[self.rng.gen_range(0..attrs.len())];
            let mut distinct: Vec<&str> = lake
                .attribute_values(attr)
                .iter()
                .map(|&v| lake.value(v).expect("an indexed value is interned"))
                .collect();
            if distinct.is_empty() {
                continue;
            }
            distinct.sort_unstable();
            let target = distinct[self.rng.gen_range(0..distinct.len())].to_owned();
            let replacement = format!("Mutated{}", self.rng.gen_range(0..1_000_000u32));
            let column = lake.attribute_ref(attr).expect("a live attribute").column;
            return Some((table_name.clone(), column, target, replacement));
        }
        None
    }
}

/// Configuration for [`DriftStream`], the homograph-drift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// RNG seed; generations are fully deterministic given the seed.
    pub seed: u64,
    /// Base tables in the drop-folder.
    pub tables: usize,
    /// Rows per table.
    pub rows_per_table: usize,
    /// Number of drifting values (`Drifter0`, `Drifter1`, …). Each starts
    /// with one semantic home and invades a new semantic context roughly
    /// every `drifters` generations.
    pub drifters: usize,
    /// Ordinary value rewrites per generation, on top of the drift.
    pub churn_per_generation: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            seed: 2021,
            tables: 6,
            rows_per_table: 40,
            drifters: 3,
            churn_per_generation: 2,
        }
    }
}

/// What one emitted generation changed on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftGeneration {
    /// 0-based generation index.
    pub index: usize,
    /// File names written this generation (every live table is rewritten,
    /// so unchanged tables surface as content-identical rewrites — the
    /// ingest watcher's fingerprint-only update path).
    pub written: Vec<String>,
    /// File names deleted this generation (retired extra tables).
    pub removed: Vec<String>,
}

/// A deterministic emitter of numbered CSV file generations in which values
/// *drift*: a `Drifter<i>` token starts out meaning one thing (it lives in,
/// say, an `animal` column) and, generation by generation, invades columns
/// of other semantic domains (a `brand` column of another table) — becoming
/// a homograph not by construction of a static lake but by the passage of
/// mutation epochs. This is the time-evolving scenario the ROADMAP's drift
/// bullet asks for, shaped for the dn-ingest drop-folder: each
/// [`DriftStream::write_next_generation`] call rewrites the folder to the
/// next generation (adds, cell rewrites, occasional table arrivals and
/// retirements) exactly like an upstream exporter would.
///
/// Besides the drifters, every generation applies
/// [`DriftConfig::churn_per_generation`] ordinary value substitutions
/// (`Churn<n>` values), so most diffs are expressible as minimal
/// `ReplaceValue` deltas, while the periodic extra-table arrivals and
/// retirements exercise the add/remove paths.
#[derive(Debug, Clone)]
pub struct DriftStream {
    config: DriftConfig,
    rng: StdRng,
    tables: Vec<Table>,
    /// Generations produced so far (0 = none yet).
    produced: usize,
    /// Per drifter: how many foreign tables it has invaded.
    invasions: Vec<usize>,
    /// Live extra tables, oldest first.
    extras: Vec<String>,
    next_extra: usize,
    churned: usize,
}

impl DriftStream {
    /// Create a stream with the given configuration.
    pub fn new(config: DriftConfig) -> Self {
        DriftStream {
            rng: StdRng::seed_from_u64(config.seed),
            invasions: vec![0; config.drifters],
            config,
            tables: Vec::new(),
            produced: 0,
            extras: Vec::new(),
            next_extra: 0,
            churned: 0,
        }
    }

    /// The drifting tokens, in drifter order (raw form; normalize for
    /// lookups against the engine).
    pub fn drift_tokens(&self) -> Vec<String> {
        (0..self.config.drifters)
            .map(|d| format!("Drifter{d}"))
            .collect()
    }

    /// Generations produced so far.
    pub fn generations(&self) -> usize {
        self.produced
    }

    /// The current generation's live tables.
    pub fn live_tables(&self) -> &[Table] {
        &self.tables
    }

    /// Advance to the next generation and rewrite `dir` to match: every
    /// live table is written as `<name>.csv` and retired tables' files are
    /// deleted.
    ///
    /// # Errors
    /// Propagates I/O failures writing the folder.
    pub fn write_next_generation(
        &mut self,
        dir: impl AsRef<std::path::Path>,
    ) -> lake::Result<DriftGeneration> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| lake::LakeError::io_with_path(e, dir))?;
        let removed = self.advance();
        let mut written = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            let name = format!("{}.csv", table.name());
            let path = dir.join(&name);
            let file = std::fs::File::create(&path)
                .map_err(|e| lake::LakeError::io_with_path(e, &path))?;
            let mut writer = std::io::BufWriter::new(file);
            lake::loader::write_table(&mut writer, table)?;
            use std::io::Write as _;
            writer
                .flush()
                .map_err(|e| lake::LakeError::io_with_path(e, &path))?;
            written.push(name);
        }
        let mut removed_files = Vec::with_capacity(removed.len());
        for name in removed {
            let file_name = format!("{name}.csv");
            let path = dir.join(&file_name);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(lake::LakeError::io_with_path(e, &path)),
            }
            removed_files.push(file_name);
        }
        Ok(DriftGeneration {
            index: self.produced - 1,
            written,
            removed: removed_files,
        })
    }

    /// Advance the in-memory lake one generation; returns retired table
    /// names.
    fn advance(&mut self) -> Vec<String> {
        if self.produced == 0 {
            self.build_base();
            self.produced = 1;
            return Vec::new();
        }
        let generation = self.produced;
        // One drifter invades a new semantic context per generation.
        if self.config.drifters > 0 && self.config.tables > 1 {
            let d = (generation - 1) % self.config.drifters;
            self.invade(d);
        }
        // Ordinary churn: full substitutions of one distinct value.
        for _ in 0..self.config.churn_per_generation {
            self.churn();
        }
        // Structural churn: arrivals every 3rd generation, retirements once
        // more than two extras are live.
        let mut removed = Vec::new();
        if generation % 3 == 0 {
            let table = self.build_extra();
            self.extras.push(table.name().to_owned());
            self.tables.push(table);
        }
        if self.extras.len() > 2 {
            let name = self.extras.remove(0);
            self.tables.retain(|t| t.name() != name);
            removed.push(name);
        }
        self.produced += 1;
        removed
    }

    fn build_base(&mut self) {
        let rows = self.config.rows_per_table.max(4);
        let n_pools = COLUMN_POOLS.len();
        for i in 0..self.config.tables.max(1) {
            let (name_a, pool_a) = COLUMN_POOLS[i % n_pools];
            let (name_b, pool_b) = COLUMN_POOLS[(i + 3) % n_pools];
            let mut cells_a: Vec<String> = (0..rows)
                .map(|_| pool_a[self.rng.gen_range(0..pool_a.len())].to_owned())
                .collect();
            let cells_b: Vec<String> = (0..rows)
                .map(|_| pool_b[self.rng.gen_range(0..pool_b.len())].to_owned())
                .collect();
            // Plant each drifter in its home column (its original meaning).
            for d in 0..self.config.drifters {
                if d % self.config.tables.max(1) == i {
                    let token = format!("Drifter{d}");
                    for k in 0..3usize {
                        let row = (d + 7 * k + 1) % rows;
                        cells_a[row] = token.clone();
                    }
                }
            }
            let table = TableBuilder::new(format!("drift_{i:02}"))
                .column(name_a, cells_a)
                .column(name_b, cells_b)
                .build()
                .expect("rectangular by construction");
            self.tables.push(table);
        }
    }

    fn build_extra(&mut self) -> Table {
        let rows = self.config.rows_per_table.max(4);
        let id = self.next_extra;
        self.next_extra += 1;
        let n_pools = COLUMN_POOLS.len();
        let a = self.rng.gen_range(0..n_pools);
        let b = (a + self.rng.gen_range(1..n_pools)) % n_pools;
        let (name_a, pool_a) = COLUMN_POOLS[a];
        let (name_b, pool_b) = COLUMN_POOLS[b];
        let cells_a: Vec<String> = (0..rows)
            .map(|_| pool_a[self.rng.gen_range(0..pool_a.len())].to_owned())
            .collect();
        let cells_b: Vec<String> = (0..rows)
            .map(|_| pool_b[self.rng.gen_range(0..pool_b.len())].to_owned())
            .collect();
        TableBuilder::new(format!("drift_extra_{id}"))
            .column(name_a, cells_a)
            .column(name_b, cells_b)
            .build()
            .expect("rectangular by construction")
    }

    /// Drifter `d` replaces one ordinary value in the *second* column of a
    /// table other than its home — the token now also means whatever that
    /// column's domain means.
    fn invade(&mut self, d: usize) {
        let tables = self.config.tables;
        let home = d % tables;
        let mut idx = (home + 1 + self.invasions[d]) % tables;
        if idx == home {
            idx = (idx + 1) % tables;
        }
        let token = format!("Drifter{d}");
        let table = &mut self.tables[idx];
        let column = &mut table.columns_mut()[1];
        let victim = column
            .distinct_values()
            .iter()
            .find(|v| !v.starts_with("DRIFTER") && !v.starts_with("CHURN"))
            .map(str::to_owned);
        if let Some(victim) = victim {
            column.replace_value(&victim, &token);
            self.invasions[d] += 1;
        }
    }

    /// Replace every cell of one randomly chosen distinct value with a
    /// fresh `Churn<n>` value — a consistent substitution, expressible by
    /// the ingest differ as a single `ReplaceValue` op.
    fn churn(&mut self) {
        for _ in 0..8 {
            let t = self.rng.gen_range(0..self.tables.len());
            let table = &mut self.tables[t];
            let c = self.rng.gen_range(0..table.column_count());
            let column = &mut table.columns_mut()[c];
            let distinct: Vec<String> = column
                .distinct_values()
                .iter()
                .filter(|v| !v.starts_with("DRIFTER") && !v.starts_with("CHURN"))
                .map(str::to_owned)
                .collect();
            if distinct.is_empty() {
                continue;
            }
            let victim = &distinct[self.rng.gen_range(0..distinct.len())];
            let replacement = format!("Churn{}", self.churned);
            self.churned += 1;
            column.replace_value(victim, &replacement);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_base() -> MutableLake {
        let mut lake = MutableLake::new();
        let t1 = TableBuilder::new("base_a")
            .column("animal", ["Jaguar", "Panda", "Lemur", "Puma"])
            .column("city", ["Memphis", "Atlanta", "Sydney", "Austin"])
            .build()
            .unwrap();
        let t2 = TableBuilder::new("base_b")
            .column("brand", ["Jaguar", "Fiat", "Toyota"])
            .column("country", ["Jamaica", "Cuba", "Italy"])
            .build()
            .unwrap();
        lake.apply(&LakeDelta::new().add_table(t1).add_table(t2))
            .unwrap();
        lake
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let render = |seed: u64| -> Vec<String> {
            let mut lake = small_base();
            let mut stream = MutationStream::new(MutationConfig {
                seed,
                ..MutationConfig::default()
            });
            let mut log = Vec::new();
            for _ in 0..10 {
                let delta = stream.next_delta(&lake);
                log.push(format!("{delta:?}"));
                lake.apply(&delta).unwrap();
            }
            log
        };
        assert_eq!(render(5), render(5));
        assert_ne!(render(5), render(6));
    }

    #[test]
    fn long_streams_always_apply_cleanly() {
        let mut lake = small_base();
        let mut stream = MutationStream::new(MutationConfig {
            seed: 11,
            tables_per_delta: 2,
            rows_per_table: 30,
            ..MutationConfig::default()
        });
        for step in 0..40 {
            let delta = stream.next_delta(&lake);
            assert_eq!(delta.len(), 2);
            lake.apply(&delta)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        // Base tables were never touched.
        assert!(lake.contains_table("base_a"));
        assert!(lake.contains_table("base_b"));
    }

    #[test]
    fn touch_base_tables_can_remove_the_base() {
        let mut lake = small_base();
        let mut stream = MutationStream::new(MutationConfig {
            seed: 3,
            add_weight: 0,
            remove_weight: 1,
            replace_weight: 0,
            touch_base_tables: true,
            ..MutationConfig::default()
        });
        let delta = stream.next_delta(&lake);
        lake.apply(&delta).unwrap();
        assert_eq!(lake.table_count(), 1);
    }

    #[test]
    fn added_tables_overlap_the_vocabularies() {
        let mut lake = small_base();
        let mut stream = MutationStream::new(MutationConfig {
            seed: 9,
            add_weight: 1,
            remove_weight: 0,
            replace_weight: 0,
            rows_per_table: 50,
            ..MutationConfig::default()
        });
        for _ in 0..5 {
            let delta = stream.next_delta(&lake);
            lake.apply(&delta).unwrap();
        }
        assert_eq!(lake.table_count(), 7);
    }

    #[test]
    fn parked_tables_can_return() {
        let mut lake = small_base();
        let mut stream = MutationStream::new(MutationConfig {
            seed: 17,
            tables_per_delta: 1,
            rows_per_table: 20,
            ..MutationConfig::default()
        });
        let mut seen_readd = false;
        let mut names_added = std::collections::HashSet::new();
        for _ in 0..60 {
            let delta = stream.next_delta(&lake);
            for op in delta.ops() {
                if let lake::delta::LakeOp::AddTable(t) = op {
                    if !names_added.insert(t.name().to_owned()) {
                        seen_readd = true;
                    }
                }
            }
            lake.apply(&delta).unwrap();
        }
        assert!(
            seen_readd,
            "60 mutations should re-add at least one parked table"
        );
    }

    fn drift_config() -> DriftConfig {
        DriftConfig {
            seed: 99,
            tables: 4,
            rows_per_table: 24,
            drifters: 2,
            churn_per_generation: 2,
        }
    }

    #[test]
    fn drift_stream_is_deterministic_per_seed() {
        let render = |config: DriftConfig, generations: usize| {
            let mut stream = DriftStream::new(config);
            let mut out = String::new();
            for _ in 0..generations {
                let removed = stream.advance();
                for table in stream.live_tables() {
                    out.push_str(&format!("{table:?}\n"));
                }
                out.push_str(&format!("removed: {removed:?}\n"));
            }
            out
        };
        assert_eq!(render(drift_config(), 8), render(drift_config(), 8));
        assert_ne!(
            render(drift_config(), 8),
            render(
                DriftConfig {
                    seed: 100,
                    ..drift_config()
                },
                8
            )
        );
    }

    #[test]
    fn drifters_become_homographs_across_generations() {
        // Each live column's name and distinct values, derived once, and
        // the columns among them that hold `token`.
        let columns = |stream: &DriftStream| -> Vec<(String, lake::column::StringList)> {
            let columns = stream.live_tables().iter().flat_map(|t| t.columns());
            columns
                .map(|c| (c.name().to_owned(), c.distinct_values()))
                .collect()
        };
        let hosts = |columns: &[(String, lake::column::StringList)], token: &str| {
            let normalized = lake::normalize(token);
            columns
                .iter()
                .filter(|(_, distinct)| distinct.iter().any(|v| v == normalized))
                .map(|(name, _)| name.clone())
                .collect::<Vec<_>>()
        };
        let mut stream = DriftStream::new(drift_config());
        stream.advance();
        // Generation 0: each drifter lives in exactly one column semantic.
        let live = columns(&stream);
        let homes: Vec<usize> = stream
            .drift_tokens()
            .iter()
            .map(|token| hosts(&live, token).len())
            .collect();
        assert!(homes.iter().all(|&n| n == 1), "homes: {homes:?}");
        // After enough generations every drifter occupies >= 2 columns of
        // different semantic names — a homograph by meaning change.
        for _ in 0..6 {
            stream.advance();
        }
        let live = columns(&stream);
        for token in stream.drift_tokens() {
            let hosts: std::collections::HashSet<String> =
                hosts(&live, &token).into_iter().collect();
            assert!(
                hosts.len() >= 2,
                "{token} should span >=2 column semantics, got {hosts:?}"
            );
        }
    }

    #[test]
    fn drift_generations_write_and_retire_files() {
        let dir = std::env::temp_dir().join(format!("dn_drift_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut stream = DriftStream::new(drift_config());
        let mut saw_removal = false;
        for i in 0..10 {
            let generation = stream.write_next_generation(&dir).unwrap();
            assert_eq!(generation.index, i);
            saw_removal |= !generation.removed.is_empty();
            // The folder holds exactly the live tables.
            let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            on_disk.sort();
            let mut expected: Vec<String> = stream
                .live_tables()
                .iter()
                .map(|t| format!("{}.csv", t.name()))
                .collect();
            expected.sort();
            assert_eq!(on_disk, expected);
            // Every file round-trips through the strict loader.
            for name in &expected {
                let table = lake::loader::load_table(
                    &dir.join(name),
                    lake::loader::LoadOptions {
                        strict: true,
                        ..lake::loader::LoadOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(table.row_count(), 24);
            }
        }
        assert!(saw_removal, "10 generations should retire an extra table");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drift_churn_is_a_consistent_substitution() {
        // Consecutive generations of the same table differ only by full
        // value substitutions (plus drift), never partial rewrites: every
        // churned-away value disappears entirely.
        let mut stream = DriftStream::new(drift_config());
        stream.advance();
        let before: Vec<Table> = stream.live_tables().to_vec();
        stream.advance();
        for old in &before {
            let Some(new) = stream.live_tables().iter().find(|t| t.name() == old.name()) else {
                continue;
            };
            for (oc, nc) in old.columns().iter().zip(new.columns()) {
                let kept = nc.distinct_values();
                for value in &oc.distinct_values() {
                    let survives = kept.iter().any(|v| v == value);
                    if !survives {
                        // Vanished entirely: no cell may still hold it.
                        assert!(nc.dictionary().iter().all(|c| lake::normalize(c) != value));
                    }
                }
            }
        }
    }
}
