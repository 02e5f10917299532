//! `dn-ingest` — tail a CSV drop-folder into a remote DomainNet primary.
//!
//! ```text
//! dn-ingest --watch-dir DIR --primary http://HOST:PORT
//!           [--journal PATH] [--poll-ms 500] [--once]
//!           [--stats-every-s 60] [--trace-sample 16] [--log-format text|json]
//! ```
//!
//! The standalone companion to `dn-serve --ingest-dir`: where that flag
//! runs the ingester in-process against the server's own coordinator,
//! this binary runs it anywhere a drop-folder lives and ships the
//! synthesized delta batches over HTTP via `POST /v1/mutations`. The
//! resume journal (default `<watch-dir>/.dn-ingest.journal`) carries the
//! exactly-once state across restarts: a killed-and-restarted `dn-ingest`
//! resumes without duplicating or losing a batch, as long as it is the
//! folder's only writer to that primary.
//!
//! A remote ingester has no `/metrics` endpoint, so the polling loop
//! emits a one-line JSON stats event every `--stats-every-s` seconds
//! (files seen, batches applied, journal seq, caught-up — `0` disables).
//! While `--trace-sample` is non-zero, sampled poll cycles forward their
//! trace ID on every delivery, so the primary's `/v1/debug/traces` ring
//! shows this ingester's mutations under the cycle's ID.
//!
//! `--once` catches the primary up with the folder's current contents
//! and exits (useful in scripts and cron-style setups): it polls every
//! `--poll-ms` until a cycle reports caught-up with nothing pending —
//! at least two polls, because a file only becomes ingestable once its
//! fingerprint holds still across two consecutive polls, and that
//! stability state lives in the process, not the journal. The default
//! is a polling loop every `--poll-ms` until SIGINT/kill.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dn_ingest::{IngestConfig, IngestStats, Ingester};
use dn_server::HttpSink;
use dn_trace::{EventValue, Level};

#[derive(Debug)]
struct Args {
    watch_dir: Option<String>,
    primary: Option<String>,
    journal: Option<String>,
    poll_ms: u64,
    once: bool,
    stats_every_s: u64,
    trace_sample: u32,
    log_json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            watch_dir: None,
            primary: None,
            journal: None,
            poll_ms: 500,
            once: false,
            stats_every_s: 60,
            trace_sample: 16,
            log_json: false,
        }
    }
}

const USAGE: &str = "usage: dn-ingest --watch-dir DIR --primary http://HOST:PORT \
[--journal PATH] [--poll-ms MS] [--once] [--stats-every-s SECS] [--trace-sample N] \
[--log-format text|json]";

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--watch-dir" => out.watch_dir = Some(value("--watch-dir")?),
            "--primary" => out.primary = Some(value("--primary")?),
            "--journal" => out.journal = Some(value("--journal")?),
            "--poll-ms" => {
                out.poll_ms = value("--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms must be an integer".to_owned())?;
                if out.poll_ms == 0 {
                    return Err("--poll-ms must be at least 1".to_owned());
                }
            }
            "--once" => out.once = true,
            "--stats-every-s" => {
                // 0 disables the periodic stats line.
                out.stats_every_s = value("--stats-every-s")?
                    .parse()
                    .map_err(|_| "--stats-every-s must be an integer".to_owned())?;
            }
            "--trace-sample" => {
                out.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample must be a non-negative integer".to_owned())?;
            }
            "--log-format" => match value("--log-format")?.as_str() {
                "text" => out.log_json = false,
                "json" => out.log_json = true,
                other => return Err(format!("--log-format must be text or json, not {other:?}")),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if out.watch_dir.is_none() {
        return Err("--watch-dir is required".to_owned());
    }
    if out.primary.is_none() {
        return Err("--primary is required".to_owned());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dn-ingest: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    dn_trace::set_log_format_json(args.log_json);
    dn_trace::set_sample_every(args.trace_sample);
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dn-ingest: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The periodic observability line for a remote ingester: always one JSON
/// object per line, machine-parsed by whatever tails this process.
fn emit_stats(stats: &IngestStats, journal_seq: u64, pending: bool, caught_up: bool) {
    dn_trace::json_event(
        Level::Info,
        "ingest_stats",
        &[
            ("files_seen", EventValue::U64(stats.files_seen.get())),
            (
                "batches_applied",
                EventValue::U64(stats.batches_applied.get()),
            ),
            ("rows_diffed", EventValue::U64(stats.rows_diffed.get())),
            ("retries", EventValue::U64(stats.retries.get())),
            ("torn_files", EventValue::U64(stats.torn_files.get())),
            ("polls", EventValue::U64(stats.polls.get())),
            ("journal_seq", EventValue::U64(journal_seq)),
            ("pending", EventValue::Bool(pending)),
            ("caught_up", EventValue::Bool(caught_up)),
        ],
    );
}

fn run(args: &Args) -> Result<(), String> {
    let watch_dir = args.watch_dir.as_deref().expect("checked in parse_args");
    let primary = args.primary.as_deref().expect("checked in parse_args");
    let addr: std::net::SocketAddr = primary
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .parse()
        .map_err(|e| format!("bad primary address {primary:?}: {e}"))?;

    let mut config = IngestConfig::new(watch_dir);
    if let Some(journal) = &args.journal {
        config.journal_path = journal.into();
    }
    config.poll_interval = Duration::from_millis(args.poll_ms);
    let journal_path = config.journal_path.clone();

    let stats = Arc::new(IngestStats::default());
    let sink = HttpSink::with_timeout(addr, Duration::from_secs(10));
    let mut ingester = Ingester::new(config, sink, Arc::clone(&stats))
        .map_err(|e| format!("starting ingester on {watch_dir}: {e}"))?;

    dn_trace::event(
        Level::Info,
        "ingest_started",
        &[
            ("watch_dir", EventValue::Str(watch_dir)),
            ("primary", EventValue::Str(&format!("http://{addr}"))),
            (
                "journal",
                EventValue::Str(&journal_path.display().to_string()),
            ),
            ("resume_seq", EventValue::U64(ingester.last_seq())),
        ],
    );

    if args.once {
        // One catch-up cycle, not one poll: the two-poll stability guard
        // is in-process state, so the first poll after a fresh start only
        // observes fingerprints — keep polling until a cycle reports
        // caught-up with nothing pending, then exit.
        let mut polls = 0u64;
        let (mut batches, mut ops, mut torn) = (0u64, 0u64, 0u64);
        loop {
            let report = ingester
                .poll_once()
                .map_err(|e| format!("poll failed: {e}"))?;
            polls += 1;
            batches += report.batches_delivered as u64;
            ops += report.ops_delivered as u64;
            torn += report.torn_skipped as u64;
            if report.caught_up && !ingester.has_pending() {
                break;
            }
            std::thread::sleep(Duration::from_millis(args.poll_ms));
        }
        dn_trace::event(
            Level::Info,
            "ingest_caught_up",
            &[
                ("polls", EventValue::U64(polls)),
                ("batches_delivered", EventValue::U64(batches)),
                ("ops_delivered", EventValue::U64(ops)),
                ("torn_skipped", EventValue::U64(torn)),
            ],
        );
        emit_stats(&stats, ingester.last_seq(), ingester.has_pending(), true);
        return Ok(());
    }

    // Poll until killed: nothing sets `never`. Transient errors (primary
    // unreachable, torn folder I/O) are logged and retried next cycle; a
    // corrupt journal halts.
    let never = AtomicBool::new(false);
    let stats_every = Duration::from_secs(args.stats_every_s);
    let mut last_stats = Instant::now();
    let mut caught_up = false;
    ingester
        .run(&never, |ingester, outcome| {
            match outcome {
                Ok(report) => caught_up = report.caught_up,
                Err(e) => dn_trace::event(
                    Level::Warn,
                    "ingest_retry",
                    &[("error", EventValue::Str(&e.to_string()))],
                ),
            }
            if args.stats_every_s > 0 && last_stats.elapsed() >= stats_every {
                emit_stats(
                    &stats,
                    ingester.last_seq(),
                    ingester.has_pending(),
                    caught_up,
                );
                last_stats = Instant::now();
            }
        })
        .map_err(|e| format!("halted: {e}"))
}
