//! The standing benchmark of the DomainNet stack: four workloads, five
//! end-to-end metrics, and a traced run that gives the per-layer numbers
//! ISSUE 13 names.
//! `README.md` beside this package documents every name used here;
//! `../BENCHMARK.json` is the contract the driver reads.

mod batch;
mod ingest;
mod inputs;
mod layers;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Recorder;

/// `set_compute_threads` / `ServiceConfig.threads`. A constant, not `nproc`.
pub const COMPUTE_THREADS: usize = 2;
/// `ServerConfig.workers`.
pub const SERVER_WORKERS: usize = 2;
/// Shards behind the coordinator.
pub const SHARDS: usize = 2;
/// What `--seconds` defaults to, and `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 24;
/// What `--seed` defaults to.
pub const DEFAULT_SEED: u64 = 2021;

pub const WORKLOADS: [&str; 4] = [
    "batch_detect",
    "serve_read_heavy",
    "serve_write_heavy",
    "ingest_restart",
];

/// End-to-end metrics (name, unit); every workload reports every one. What
/// the primary and the secondary operation of a workload are is in README.md.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("primary_op_ms", "ms"),
    ("secondary_op_ms", "ms"),
];

/// Per-layer metrics (name, unit), named `<crate>.<what>` after the crate
/// whose public function the traced run times. A traced run measures the
/// ones README.md lists for its workload; the driver wants every name on
/// every traced run, so the others read 0 there: that layer was not run.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("lake.load_dir_s", "s"),
    ("lake.csv_mb_per_s", "MB/s"),
    ("lake.from_catalog_ms", "ms"),
    ("lake.apply_batch_us", "us"),
    ("core.build_s", "s"),
    ("graph.components_ms", "ms"),
    ("graph.lcc_s", "s"),
    ("graph.bc_exact_s", "s"),
    ("graph.bc_approx_s", "s"),
    ("graph.bc_approx_edges_per_s", "1/s"),
    ("pool.bc_speedup_2t", "ratio"),
    ("pool.run_overhead_us", "us"),
    ("core.apply_delta_mean_ms", "ms"),
    ("core.apply_delta_p50_ms", "ms"),
    ("core.apply_delta_p90_ms", "ms"),
    ("core.heavy_delta_share", "ratio"),
    ("core.warm_rankings_mean_ms", "ms"),
    ("store.wal_append_us", "us"),
    ("store.wal_bytes_per_mutation", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.snapshot_encode_ms", "ms"),
    ("store.snapshot_decode_ms", "ms"),
    ("store.wal_replay_ms_per_batch", "ms"),
    ("store.recover_ms", "ms"),
    ("store.bytes_per_csv_byte", "ratio"),
    ("service.cold_start_s", "s"),
    ("service.commit_mean_ms", "ms"),
    ("service.publish_mean_ms", "ms"),
    ("service.commit_residual_pct", "%"),
    ("service.topk_hit_us", "us"),
    ("service.topk_miss_us", "us"),
    ("service.score_card_us", "us"),
    ("service.explain_us", "us"),
    ("service.table_summary_us", "us"),
    ("service.scatter_overhead_us", "us"),
    ("service.cache_hit_rate", "ratio"),
    ("service.recover_s", "s"),
    ("server.healthz_p50_us", "us"),
    ("server.http_overhead_us", "us"),
    ("server.topk_p50_us", "us"),
    ("server.score_p50_us", "us"),
    ("server.explain_p50_us", "us"),
    ("server.table_p50_us", "us"),
    ("server.read_p99_us", "us"),
    ("server.read_p999_us", "us"),
    ("server.connect_p50_us", "us"),
    ("server.mutation_decode_ms", "ms"),
    ("server.mutate_http_overhead_ms", "ms"),
    ("ingest.scan_ms", "ms"),
    ("ingest.diff_ms", "ms"),
    ("ingest.rows_diffed_per_s", "1/s"),
    ("ingest.ops_per_generation", "count"),
    ("ingest.journal_save_us", "us"),
    ("ingest.gen_residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
];

/// Per-layer metric values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name.to_owned(), value);
    }

    /// 0 for a metric this run did not measure.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub primary_op_ms: f64,
    pub secondary_op_ms: f64,
    pub layers: Layers,
    /// What `--check-determinism` compares between two runs of one seed:
    /// the FNV digest of the operation stream, the request count, and the
    /// byte and operation counts that must repeat exactly.
    pub digest: u64,
    pub requests: u64,
    pub exact_counts: Vec<(&'static str, u64)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Draws what a correct program's speed does not depend on: read mixes
    /// and BC sampling sources.
    pub seed: u64,
    /// Draws the lakes, the mutation stream and the drift stream, which
    /// decide how much work a run is. The driver never passes it.
    pub shape_seed: u64,
    pub seconds: u64,
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    trace: bool,
    check_determinism: bool,
}

fn usage() -> String {
    format!(
        "usage: dn-benchmark --workload <{}> [--seed <u64>] [--seconds <1..=60>] [--trace [0|1]] [--shape-seed <u64>]\n       dn-benchmark --check-determinism [--seed <u64>] [--seconds <1..=60>]",
        WORKLOADS.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: DEFAULT_SEED,
            shape_seed: inputs::SHAPE_SEED,
            seconds: DEFAULT_SECONDS,
        },
        trace: false,
        check_determinism: false,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        args.get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(i, "--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name.clone());
                i += 1;
            }
            "--seed" => {
                cli.run.seed = value(i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_owned())?;
                i += 1;
            }
            "--shape-seed" => {
                cli.run.shape_seed = value(i, "--shape-seed")?
                    .parse()
                    .map_err(|_| "--shape-seed takes a u64".to_owned())?;
                i += 1;
            }
            "--seconds" => {
                cli.run.seconds = value(i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| "--seconds takes a whole number from 1 to 60".to_owned())?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--check-determinism" => cli.check_determinism = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.workload.is_none() && !cli.check_determinism {
        return Err("--workload is required".to_owned());
    }
    Ok(cli)
}

/// The revision of the checkout the benchmark was built in, when it is a
/// git repository (the driver's checkout is not).
fn git_revision() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn print_header(workload: &str, cli: &Cli) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# dn-benchmark workload={workload} seed={} seconds={} trace={} nproc={nproc} revision={}",
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.trace),
        git_revision()
    );
    println!(
        "# constants: compute_threads={COMPUTE_THREADS} server_workers={SERVER_WORKERS} shards={SHARDS} clients={} shape_seed={} dn-trace sampling off",
        serve::CLIENTS,
        cli.run.shape_seed
    );
}

fn run_workload(workload: &str, args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    match workload {
        "batch_detect" => batch::run(args, rec),
        "serve_read_heavy" => serve::run(serve::Kind::ReadHeavy, args, rec),
        "serve_write_heavy" => serve::run(serve::Kind::WriteHeavy, args, rec),
        "ingest_restart" => ingest::run(args, rec),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Operation ids from here up tag spans of the measured phase and of its
/// layer-by-layer replay; spans of set-up carry lower ids.
pub const FIRST_MEASURED_OP: u64 = 1_000;

/// Per-span-name table of a traced run.
fn print_span_table(rec: &Recorder) {
    println!("# spans: name count mean_us p50_us p90_us total_ms self_ms");
    for (name, agg) in &spans::aggregate(rec.spans()) {
        let pct = |q| stats::percentile(&agg.durations_ns, q).unwrap_or(0) as f64 / 1e3;
        println!(
            "#   {name} {} {:.1} {:.1} {:.1} {:.2} {:.2}",
            agg.count,
            agg.mean_ns() / 1e3,
            pct(0.5),
            pct(0.9),
            agg.total_ns as f64 / 1e6,
            agg.self_ns as f64 / 1e6
        );
    }
}

fn number(value: f64) -> String {
    // Every digit as measured; JSON has no NaN or infinity, and an empty
    // f64 sum is -0.
    if value.is_finite() {
        format!("{}", value + 0.0)
    } else {
        "0".to_owned()
    }
}

fn result_line(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Run every workload twice from one seed, briefly, and require the same
/// operation stream, request count and exact counts both times, so that
/// run-to-run spread can only come from the machine.
fn check_determinism(args: &RunArgs) -> Result<(), String> {
    for workload in WORKLOADS {
        let observe = || {
            run_workload(workload, args, &mut Recorder::new(false, 0))
                .map(|outcome| (outcome.digest, outcome.requests, outcome.exact_counts))
        };
        let (first, second) = (observe()?, observe()?);
        if first != second {
            return Err(format!(
                "{workload}: two runs of seed {} differ: {first:?} vs {second:?}",
                args.seed
            ));
        }
        println!(
            "{workload}: digest {:016x}, {} requests, exact counts {:?}: identical twice",
            first.0, first.1, first.2
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    dn_trace::set_sample_every(0);
    if cli.check_determinism {
        return match check_determinism(&cli.run) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("determinism check failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = cli.workload.as_deref().expect("checked by parse_cli");
    print_header(workload, &cli);
    let mut rec = Recorder::new(cli.trace, 1 << 20);
    let mut outcome = match run_workload(workload, &cli.run, &mut rec) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("correctness gate failed: {message}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# operations: attempted {} failed {} fail_share {fail_share}",
        outcome.attempted, outcome.failed
    );
    if outcome.failed > 0 {
        eprintln!(
            "correctness gate failed: {} operations failed",
            outcome.failed
        );
        return ExitCode::FAILURE;
    }
    let peak_rss_mb = stats::peak_rss_mib().unwrap_or(0.0);

    let metrics: Vec<(&str, &str, f64)> = if cli.trace {
        print_span_table(&rec);
        // Against the untraced run's `wall_s`, this is what recording costs.
        outcome.layers.set("trace.wall_s", outcome.wall_s);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/out")
            .join(format!("trace-{workload}.json"));
        match spans::write_json(&path, workload, cli.run.seed, rec.spans()) {
            Ok(()) => println!(
                "# trace: {} spans written to {}",
                rec.spans().len(),
                path.display()
            ),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layers.get(name)))
            .collect()
    } else {
        let values = [
            outcome.setup_s,
            outcome.wall_s,
            peak_rss_mb,
            outcome.primary_op_ms,
            outcome.secondary_op_ms,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    // A traced run lists the per-layer metrics of its own workload; the
    // result line carries every name.
    for (name, unit, value) in &metrics {
        if !cli.trace || outcome.layers.has(name) {
            println!("{name} = {} {unit}", number(*value));
        }
    }
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn cli_accepts_the_driver_invocation() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "ingest_restart",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("ingest_restart"));
        assert_eq!((cli.run.seed, cli.run.seconds, cli.trace), (7, 10, true));
        let cli = parse_cli(&strings(&["--workload", "batch_detect", "--trace", "0"])).unwrap();
        assert_eq!(
            (cli.run.seed, cli.run.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert!(!cli.trace);
        assert!(
            parse_cli(&strings(&["--trace", "--workload", "batch_detect"]))
                .unwrap()
                .trace
        );
        assert!(
            parse_cli(&strings(&["--check-determinism"]))
                .unwrap()
                .check_determinism
        );
    }

    #[test]
    fn cli_rejects_what_it_does_not_know() {
        assert!(parse_cli(&strings(&[])).is_err());
        assert!(parse_cli(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&strings(&["--workload"])).is_err());
        assert!(parse_cli(&strings(&["--workload", "batch_detect", "--seconds", "0"])).is_err());
        assert!(parse_cli(&strings(&["--workload", "batch_detect", "--seconds", "61"])).is_err());
        assert!(parse_cli(&strings(&["--workload", "batch_detect", "--seed", "x"])).is_err());
        assert!(parse_cli(&strings(&["--workload", "batch_detect", "--bogus"])).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        let line = result_line(&outcome, &[("setup_s", "s", 0.25), ("bad", "ms", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` and the tables in this file name the same workloads
    /// and metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section is a list")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        entry
                            .split(&format!("\"{key}\": \""))
                            .nth(1)
                            .and_then(|rest| rest.split('"').next())
                            .unwrap_or("")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(named("end_to_end"), pairs(&END_TO_END));
        assert_eq!(named("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = named("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
