//! Generated inputs: lakes, scratch directories, and the seeded read mix.
//!
//! The program under test only ever sees what these functions write to disk
//! (CSV directories) or hand over as values (`LakeDelta`s, request paths).

use std::path::{Path, PathBuf};

use datagen::tus::{TusConfig, TusGenerator};
use datagen::GeneratedLake;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Fnv;

/// Default `--shape-seed`: the seed of every generated lake, of the mutation
/// stream and of the drift stream. Frozen, not drawn from `--seed`: the
/// driver compares runs of different seeds, and at one scale the TUS
/// generator's shapes differ by 2× in exact-BC time (which domains end up
/// linked is a handful of coin flips), the share of mutations that recompute
/// the giant component follows the mutation stream's coin flips, and recovery
/// time follows the drift stream's routing. `--seed` draws the read mixes
/// and the BC sampling sources.
pub const SHAPE_SEED: u64 = 2021;

/// `TusConfig::default()` with the four size fields multiplied by `scale`
/// (the same scaling `bench::tus_config` applies).
pub fn tus_config(scale: f64, shape_seed: u64) -> TusConfig {
    let scaled = |base: usize, min: usize| ((base as f64 * scale).round() as usize).max(min);
    let base = TusConfig::default();
    TusConfig {
        seed: shape_seed,
        domain_count: scaled(base.domain_count, 8),
        max_domain_vocab: scaled(base.max_domain_vocab, 60),
        rows_per_source: scaled(base.rows_per_source, 60),
        shared_pool_size: scaled(base.shared_pool_size, 20),
        ..base
    }
}

/// `TusConfig::paper_scale` with vocabulary and rows multiplied by `scale`.
pub fn large_config(scale: f64, shape_seed: u64) -> TusConfig {
    let scaled = |base: usize| ((base as f64 * scale).round() as usize).max(1);
    let base = TusConfig::paper_scale(shape_seed);
    TusConfig {
        max_domain_vocab: scaled(base.max_domain_vocab),
        rows_per_source: scaled(base.rows_per_source),
        ..base
    }
}

/// Generate a lake and write it as a CSV directory. Returns the generated
/// lake (for its ground truth) and the CSV byte count.
pub fn write_lake(config: TusConfig, dir: &Path) -> (GeneratedLake, u64) {
    let generated = TusGenerator::new(config).generate();
    lake::loader::save_dir(&generated.catalog, dir).expect("write generated lake");
    (generated, dir_bytes(dir))
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A per-run scratch directory under `benchmark/target/tmp/`, removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(workload: &str) -> Scratch {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/tmp")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The four read routes, in the order per-route metrics are reported.
pub const ROUTES: [&str; 4] = ["topk", "score", "explain", "table"];

/// One read of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    TopK { bc: bool, k: usize },
    Score { hot: usize },
    Explain { hot: usize },
    Table { table: usize },
}

impl ReadOp {
    /// Index into [`ROUTES`].
    pub fn route(&self) -> usize {
        match self {
            ReadOp::TopK { .. } => 0,
            ReadOp::Score { .. } => 1,
            ReadOp::Explain { .. } => 2,
            ReadOp::Table { .. } => 3,
        }
    }

    /// The request path of this read over HTTP.
    pub fn path(&self, hot: &[String], tables: &[String]) -> String {
        match *self {
            ReadOp::TopK { bc, k } => {
                format!("/v1/top-k?measure={}&k={k}", if bc { "bc" } else { "lcc" })
            }
            ReadOp::Score { hot: i } => format!("/v1/score/{}", dn_server::percent_encode(&hot[i])),
            ReadOp::Explain { hot: i } => {
                format!("/v1/explain/{}", dn_server::percent_encode(&hot[i]))
            }
            ReadOp::Table { table } => format!(
                "/v1/tables/{}?measure=lcc&k=5",
                dn_server::percent_encode(&tables[table])
            ),
        }
    }
}

/// Which top-k keys the mix asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKKeys {
    /// k ∈ {10, 20, 50} × two measures: six keys, fits the 64-entry cache.
    Six,
    /// k uniform in 1..=200 × two measures: 400 keys ≫ the cache.
    Wide,
}

/// Seeded generator of the read mix: 50 % top-k, 20 % score, 15 % explain,
/// 15 % table summary.
pub struct ReadMix {
    rng: StdRng,
    keys: TopKKeys,
    hot: usize,
    tables: usize,
}

impl ReadMix {
    pub fn new(seed: u64, keys: TopKKeys, hot: usize, tables: usize) -> ReadMix {
        assert!(hot > 0 && tables > 0, "read mix needs targets");
        ReadMix {
            rng: StdRng::seed_from_u64(seed),
            keys,
            hot,
            tables,
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        // Thresholds are the cumulative `serve::MIX_WEIGHTS`.
        let dice = self.rng.gen_range(0..100u32);
        if dice < 50 {
            let bc = self.rng.gen_range(0..2u32) == 1;
            let k = match self.keys {
                TopKKeys::Six => [10usize, 20, 50][self.rng.gen_range(0..3)],
                TopKKeys::Wide => self.rng.gen_range(1..=200usize),
            };
            ReadOp::TopK { bc, k }
        } else if dice < 70 {
            ReadOp::Score {
                hot: self.rng.gen_range(0..self.hot),
            }
        } else if dice < 85 {
            ReadOp::Explain {
                hot: self.rng.gen_range(0..self.hot),
            }
        } else {
            ReadOp::Table {
                table: self.rng.gen_range(0..self.tables),
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<ReadOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// FNV digest of a read-op sequence (for `--check-determinism`).
pub fn digest_reads(ops: &[ReadOp], digest: &mut Fnv) {
    for op in ops {
        digest.feed(format!("{op:?}").as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_mix_proportions_match_the_definition() {
        let n = 100_000;
        let ops = ReadMix::new(11, TopKKeys::Six, 64, 40).take(n);
        let mut by_route = [0usize; 4];
        for op in &ops {
            by_route[op.route()] += 1;
        }
        let share = |count: usize| count as f64 / n as f64;
        assert!((share(by_route[0]) - 0.50).abs() < 0.01, "{by_route:?}");
        assert!((share(by_route[1]) - 0.20).abs() < 0.01, "{by_route:?}");
        assert!((share(by_route[2]) - 0.15).abs() < 0.01, "{by_route:?}");
        assert!((share(by_route[3]) - 0.15).abs() < 0.01, "{by_route:?}");
        assert!(ops.iter().all(|op| match *op {
            ReadOp::TopK { k, .. } => [10, 20, 50].contains(&k),
            ReadOp::Score { hot } | ReadOp::Explain { hot } => hot < 64,
            ReadOp::Table { table } => table < 40,
        }));
    }

    #[test]
    fn wide_keys_outnumber_the_cache_and_the_mix_is_seeded() {
        let ops = ReadMix::new(5, TopKKeys::Wide, 8, 8).take(20_000);
        let keys: std::collections::BTreeSet<(bool, usize)> = ops
            .iter()
            .filter_map(|op| match *op {
                ReadOp::TopK { bc, k } => Some((bc, k)),
                _ => None,
            })
            .collect();
        assert!(keys.len() > 390, "{} distinct top-k keys", keys.len());
        assert!(keys.iter().all(|&(_, k)| (1..=200).contains(&k)));
        assert_eq!(ops, ReadMix::new(5, TopKKeys::Wide, 8, 8).take(20_000));
        assert_ne!(ops, ReadMix::new(6, TopKKeys::Wide, 8, 8).take(20_000));
    }

    #[test]
    fn paths_name_the_route_and_encode_the_target() {
        let hot = vec!["a b".to_owned()];
        let tables = vec!["t/1".to_owned()];
        assert_eq!(
            ReadOp::TopK { bc: true, k: 20 }.path(&hot, &tables),
            "/v1/top-k?measure=bc&k=20"
        );
        assert_eq!(
            ReadOp::Score { hot: 0 }.path(&hot, &tables),
            "/v1/score/a%20b"
        );
        assert_eq!(
            ReadOp::Table { table: 0 }.path(&hot, &tables),
            "/v1/tables/t%2F1?measure=lcc&k=5"
        );
    }

    #[test]
    fn scaled_configs_take_the_shape_seed() {
        let small = tus_config(0.2, SHAPE_SEED);
        assert_eq!(small.seed, SHAPE_SEED);
        assert_eq!(small.domain_count, 10);
        assert_eq!(small.max_domain_vocab, 500);
        let large = large_config(0.5, 7);
        assert_eq!(large.seed, 7);
        assert_eq!(large.domain_count, TusConfig::paper_scale(0).domain_count);
        assert_eq!(large.rows_per_source, 750);
    }
}
