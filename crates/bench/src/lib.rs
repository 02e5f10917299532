//! # `bench` — paper-result harness for the DomainNet reproduction
//!
//! One binary per table/figure of the paper's evaluation (§5), and nothing
//! else: system performance (serving, durability, ingest, tracing) is
//! measured by the standing benchmark under `benchmark/` (contract:
//! `BENCHMARK.json`). Every binary prints a human-readable table to stdout
//! and writes a JSON artifact under `target/experiments/` so results can be
//! collected into `docs/EXPERIMENTS.md`.
//!
//! | Binary | Paper result |
//! |---|---|
//! | `exp_table1` | Table 1 — dataset statistics |
//! | `exp_running_example` | Example 3.6 — LCC/BC scores on Figure 1 |
//! | `exp_fig5_lcc_sb` | Figure 5 — top-55 by LCC on SB |
//! | `exp_fig6_bc_sb` | Figure 6 — top-55 by BC on SB |
//! | `exp_d4_comparison` | §5.1 — D4 vs DomainNet on SB |
//! | `exp_table2_injection_cardinality` | Table 2 — injected-homograph recall vs cardinality |
//! | `exp_table3_injection_meanings` | Table 3 — injected-homograph recall vs #meanings |
//! | `exp_fig7_tus_topk` | Figure 7 + §5.3 top-10 — top-k P/R/F1 on the TUS-like lake |
//! | `exp_fig8_sampling` | Figure 8 — precision & runtime vs BC sample size |
//! | `exp_fig9_scalability` | Figure 9 + §5.4 — approx-BC runtime vs graph size |
//! | `exp_fig10_d4_impact` | Figure 10 — D4 domain count vs injected homographs |
//!
//! All binaries accept `--scale <f64>` (default 1.0) to shrink or grow the
//! generated workloads, and `--seed <u64>` to change the data seed. See
//! `docs/EXPERIMENTS.md` for output shapes and expected runtimes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy)]
pub struct ExpArgs {
    /// Workload scale factor (1.0 = default size).
    pub scale: f64,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            seed: 2021,
        }
    }
}

impl ExpArgs {
    /// Parse `--scale <f>` and `--seed <n>` from `std::env::args`.
    ///
    /// Unknown arguments are ignored so the binaries stay forgiving when run
    /// through wrappers.
    pub fn parse() -> Self {
        let mut out = ExpArgs::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse() {
                        out.scale = v;
                    }
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse() {
                        out.seed = v;
                    }
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// Scale an integer quantity, keeping it at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }
}

/// Where experiment artifacts are written.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialize an experiment report as pretty JSON under `target/experiments/`.
pub fn write_report<T: Serialize>(name: &str, report: &T) {
    let path = output_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            if let Err(err) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {err}", path.display());
            } else {
                println!("\n[report written to {}]", path.display());
            }
        }
        Err(err) => eprintln!("warning: could not serialize report {name}: {err}"),
    }
}

/// Time a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown-style table header (with separator line).
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Build the TUS-like lake configuration for a given scale factor.
///
/// Scale 1.0 gives a lake that runs end-to-end (generation + approximate BC)
/// in tens of seconds on a laptop; larger scales approach the paper's setup.
pub fn tus_config(args: ExpArgs) -> datagen::tus::TusConfig {
    let mut cfg = datagen::tus::TusConfig {
        seed: args.seed,
        ..datagen::tus::TusConfig::default()
    };
    cfg.domain_count = args.scaled(cfg.domain_count, 8);
    cfg.max_domain_vocab = args.scaled(cfg.max_domain_vocab, 60);
    cfg.rows_per_source = args.scaled(cfg.rows_per_source, 60);
    cfg.shared_pool_size = args.scaled(cfg.shared_pool_size, 20);
    cfg
}

/// The number of approximate-BC samples used by default in the experiments
/// (the paper's heuristic of ≈1 % of the nodes, with a floor).
pub fn default_samples(node_count: usize) -> usize {
    ((node_count as f64) * 0.01).ceil() as usize + 50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        let args = ExpArgs {
            scale: 0.01,
            seed: 1,
        };
        assert_eq!(args.scaled(100, 10), 10);
        let args = ExpArgs {
            scale: 2.0,
            seed: 1,
        };
        assert_eq!(args.scaled(100, 10), 200);
    }

    #[test]
    fn default_samples_has_floor() {
        assert!(default_samples(0) >= 50);
        assert!(default_samples(100_000) >= 1_050);
    }

    #[test]
    fn tus_config_scales_down() {
        let small = tus_config(ExpArgs {
            scale: 0.1,
            seed: 3,
        });
        let default = tus_config(ExpArgs {
            scale: 1.0,
            seed: 3,
        });
        assert!(small.domain_count < default.domain_count);
        assert!(small.max_domain_vocab < default.max_domain_vocab);
        assert_eq!(small.seed, 3);
    }

    #[test]
    fn timed_returns_result() {
        let (value, secs) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
