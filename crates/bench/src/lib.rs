//! # `bench` — the paper-result harness of the DomainNet reproduction
//!
//! One binary, `paper`, over one table, [`EXPERIMENTS`]: every table, figure
//! and worked example of the paper's evaluation (§5) is a function from a
//! shared [`Ctx`] (which generates each lake once) to a [`Section`] of typed
//! result tables. `paper <name>|all [--scale <f64>] [--seed <u64>]` prints
//! sections as markdown; `paper all` at [`Args::LEDGER`] is the committed
//! results ledger `tests/golden/paper.json`, which `tests/paper_ledger.rs`
//! recomputes and compares on every tier-1 run. `docs/EXPERIMENTS.md` sets
//! each ledger number beside the paper's.
//!
//! System performance (serving, durability, ingest, tracing) is not measured
//! here but by the standing benchmark under `benchmark/` (contract:
//! `BENCHMARK.json`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod experiments;
mod section;

use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Instant;

use datagen::inject::remove_homographs;
use datagen::sb::SbGenerator;
use datagen::truth::GeneratedLake;
use datagen::tus::TusGenerator;
use domainnet::pipeline::{DomainNet, DomainNetBuilder};
use lake::catalog::LakeCatalog;

pub use experiments::{Experiment, EXPERIMENTS};
pub use section::{ledger_json, Cell, Section, Table};

/// The two knobs of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Scale factor of the generated TUS-like and SCALE lakes (1.0 = default
    /// size). SB and the running example are the paper's exact set-up and do
    /// not scale.
    pub scale: f64,
    /// Data-generation seed.
    pub seed: u64,
}

impl Args {
    /// What the committed ledger is generated at: small enough to recompute
    /// inside the tier-1 test run.
    pub const LEDGER: Args = Args {
        scale: 0.1,
        seed: 2021,
    };

    /// Scale an integer quantity, keeping it at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }
}

/// The usage text of the `paper` binary, listing the experiment names.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    format!(
        "usage: paper <name>|all [--scale <f64>] [--seed <u64>]\n  names: {}",
        names.join(", ")
    )
}

/// Parse the arguments after the program name: which experiments to run and
/// with what [`Args`]. Anything unrecognised is an error, never ignored.
pub fn parse(argv: &[String]) -> Result<(&'static [Experiment], Args), String> {
    let selected = match argv.first().map(String::as_str) {
        None => return Err("missing experiment name".to_owned()),
        Some("all") => EXPERIMENTS,
        Some(name) => match EXPERIMENTS.iter().position(|e| e.0 == name) {
            Some(i) => &EXPERIMENTS[i..=i],
            None => return Err(format!("unknown experiment '{name}'")),
        },
    };
    let mut args = Args {
        scale: 1.0,
        ..Args::LEDGER
    };
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--scale" => {
                let v = value?;
                args.scale = v.parse().map_err(|_| bad(v))?;
                if !(args.scale.is_finite() && args.scale > 0.0) {
                    return Err(bad(v));
                }
            }
            "--seed" => {
                let v = value?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok((selected, args))
}

/// The regenerated synthetic benchmark with its ground truth and graph.
pub(crate) struct Sb {
    /// The 13-table lake.
    pub(crate) lake: GeneratedLake,
    /// The ground-truth homographs.
    pub(crate) truth: BTreeSet<String>,
    /// The DomainNet graph over the lake; its rankings are memoized, so the
    /// sections that rank SB by the same measure share one computation.
    pub(crate) net: DomainNet,
}

/// What the experiments of one run share: the arguments and the lakes, each
/// generated on first use and once.
pub struct Ctx {
    /// Scale and seed.
    pub args: Args,
    /// Compute width of every graph the experiments build. Scores are
    /// bit-identical at every width; only `Seconds` cells depend on it.
    pub threads: usize,
    sb: OnceLock<Sb>,
    tus: OnceLock<GeneratedLake>,
    clean: OnceLock<GeneratedLake>,
}

impl Ctx {
    /// A context with nothing generated yet.
    pub const fn new(args: Args, threads: usize) -> Self {
        Ctx {
            args,
            threads,
            sb: OnceLock::new(),
            tus: OnceLock::new(),
            clean: OnceLock::new(),
        }
    }

    /// Build the DomainNet graph of a lake at this context's compute width.
    pub(crate) fn net(&self, lake: &LakeCatalog) -> DomainNet {
        let mut net = DomainNetBuilder::new().build(lake);
        net.set_compute_threads(self.threads);
        net
    }

    /// The synthetic benchmark SB (§4.1).
    pub(crate) fn sb(&self) -> &Sb {
        self.sb.get_or_init(|| {
            let lake = SbGenerator::new(self.args.seed).generate();
            Sb {
                truth: lake.homograph_set(),
                net: self.net(&lake.catalog),
                lake,
            }
        })
    }

    /// The TUS-like lake (§4.2) at this run's scale.
    pub(crate) fn tus(&self) -> &GeneratedLake {
        self.tus
            .get_or_init(|| TusGenerator::new(tus_config(self.args)).generate())
    }

    /// The TUS-like lake with its natural homographs removed: the base of
    /// every TUS-I injection (§4.3).
    pub(crate) fn clean(&self) -> &GeneratedLake {
        self.clean.get_or_init(|| remove_homographs(self.tus()))
    }
}

/// Run one experiment of the table.
pub fn run(experiment: &Experiment, ctx: &Ctx) -> Section {
    let (name, _, paper, tables) = experiment;
    Section {
        name: (*name).to_owned(),
        paper: (*paper).to_owned(),
        tables: tables(ctx),
    }
}

/// Time a closure, returning its result and the elapsed wall-clock time as
/// a [`Cell::Seconds`].
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cell) {
    let start = Instant::now();
    let out = f();
    (out, Cell::Seconds(start.elapsed().as_secs_f64()))
}

/// Build the TUS-like lake configuration for a given scale factor.
///
/// Scale 1.0 gives a lake that runs end-to-end (generation + approximate BC)
/// in seconds on a laptop; larger scales approach the paper's setup.
pub fn tus_config(args: Args) -> datagen::tus::TusConfig {
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

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parse_accepts_a_name_or_all_and_the_two_flags() {
        let (selected, args) = parse(&argv(&["fig6", "--scale", "0.2", "--seed", "7"])).unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].0, "fig6");
        assert_eq!(
            args,
            Args {
                scale: 0.2,
                seed: 7
            }
        );
        let (selected, args) = parse(&argv(&["all"])).unwrap();
        assert_eq!(selected.len(), EXPERIMENTS.len());
        assert_eq!((args.scale, args.seed), (1.0, 2021));
    }

    #[test]
    fn parse_rejects_what_it_does_not_understand() {
        for (bad, why) in [
            (&["fig11"][..], "unknown experiment 'fig11'"),
            (&["fig6", "--scal", "0.2"], "unknown flag '--scal'"),
            (&["fig6", "--scale"], "--scale needs a value"),
            (&["fig6", "--scale", "x"], "bad value 'x' for --scale"),
            (&["fig6", "--scale", "0"], "bad value '0' for --scale"),
            (&["fig6", "--seed", "-1"], "bad value '-1' for --seed"),
            (&[], "missing experiment name"),
        ] {
            assert_eq!(parse(&argv(bad)).unwrap_err(), why);
        }
        assert!(usage().contains("running_example, table1, fig5"));
    }

    #[test]
    fn scaled_respects_minimum() {
        let args = Args {
            scale: 0.01,
            seed: 1,
        };
        assert_eq!(args.scaled(100, 10), 10);
        let args = Args {
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
        let small = tus_config(Args {
            scale: 0.1,
            seed: 3,
        });
        let default = tus_config(Args {
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
        assert!(matches!(secs, Cell::Seconds(s) if s >= 0.0));
    }
}
