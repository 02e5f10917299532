//! `batch_detect`: the paper's offline pipeline, in-process, one caller.
//!
//! The only workload in which `lake` parsing, the `graph` kernels, `core`
//! ranking and `pool` do all the work and `store`, `service`, `server` and
//! `ingest` do none.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use dn_graph::approx_bc::{approximate_betweenness, ApproxBcConfig};
use dn_graph::bc::betweenness_centrality_parallel;
use dn_graph::components::connected_components;
use dn_graph::lcc::{local_clustering_coefficients, LccMethod};
use domainnet::{precision_recall_at_k, DomainNet, DomainNetBuilder, Measure, ScoredValue};

use crate::inputs::{large_config, tus_config, write_lake, Scratch};
use crate::layers::{load_lake, timed};
use crate::spans::{aggregate, mean_of, Recorder, Span};
use crate::stats::{median, Fnv};
use crate::{Layers, Outcome, RunArgs, COMPUTE_THREADS, FIRST_MEASURED_OP};

/// Exact-phase lake: `tus(EXACT_SCALE)`.
pub const EXACT_SCALE: f64 = 0.25;
/// Large-phase lake: `TusConfig::paper_scale` × `LARGE_SCALE`.
pub const LARGE_SCALE: f64 = 0.35;
/// `--seconds` per measured pair of detections, one exact and one large
/// (at least 3 pairs).
pub const SECONDS_PER_PAIR: u64 = 3;
/// Ranking depth every detection reads back.
pub const TOP: usize = 200;

/// Precision@200 of the exact-phase LCC, exact-BC and approximate-BC
/// rankings against the generator's ground truth, recorded per shape seed
/// when the benchmark was defined. The approximate-BC value holds for
/// `--seed` 2021 and 7.
const RECORDED_PRECISION: [(u64, [f64; 3]); 2] = [(2021, [0.935, 1.0, 1.0]), (7, [0.98, 1.0, 1.0])];
const RECORDED_SEEDS: [u64; 2] = [2021, 7];

fn pairs(seconds: u64) -> usize {
    (seconds / SECONDS_PER_PAIR).max(3) as usize
}

/// The paper's sample-count heuristic: 1 % of the nodes plus a floor.
fn approx_samples(net: &DomainNet) -> usize {
    (net.candidate_count() + net.attribute_count()) / 100 + 50
}

struct Detection {
    lcc: Vec<ScoredValue>,
    bc: Vec<ScoredValue>,
    approx: Vec<ScoredValue>,
}

fn load_and_build(rec: &mut Recorder, dir: &Path, op: u64) -> DomainNet {
    let catalog = rec.leaf("lake.load_dir", op, || load_lake(dir));
    let mut net = rec.leaf("core.build", op, || DomainNetBuilder::new().build(&catalog));
    net.set_compute_threads(COMPUTE_THREADS);
    net
}

fn top(
    rec: &mut Recorder,
    name: &'static str,
    net: &DomainNet,
    measure: Measure,
    op: u64,
) -> Vec<ScoredValue> {
    let mut ranked = rec.leaf(name, op, || net.rank(measure));
    ranked.truncate(TOP);
    ranked
}

/// CSV directory → LCC, exact-BC and approximate-BC rankings.
fn detect_exact(rec: &mut Recorder, dir: &Path, seed: u64, op: u64) -> Detection {
    rec.scope("op.detect_exact", op, |rec| {
        let net = load_and_build(rec, dir, op);
        let approx = Measure::approx_bc(approx_samples(&net), seed);
        Detection {
            lcc: top(rec, "core.rank_lcc", &net, Measure::lcc(), op),
            bc: top(rec, "core.rank_bc_exact", &net, Measure::exact_bc(), op),
            approx: top(rec, "core.rank_bc_approx", &net, approx, op),
        }
    })
}

/// CSV directory → approximate-BC ranking (the paper's at-scale setting).
fn detect_large(rec: &mut Recorder, dir: &Path, seed: u64, op: u64) -> Vec<ScoredValue> {
    rec.scope("op.detect_large", op, |rec| {
        let net = load_and_build(rec, dir, op);
        let approx = Measure::approx_bc(approx_samples(&net), seed);
        top(rec, "core.rank_bc_approx", &net, approx, op)
    })
}

fn check_ranking(what: &str, ranked: &[ScoredValue]) -> Result<(), String> {
    if ranked.is_empty() {
        return Err(format!("{what}: empty ranking"));
    }
    match ranked.iter().find(|s| !s.score.is_finite()) {
        Some(bad) => Err(format!("{what}: {:?} scores {}", bad.value, bad.score)),
        None => Ok(()),
    }
}

fn check_precision(
    what: &str,
    ranked: &[ScoredValue],
    truth: &BTreeSet<String>,
    recorded: Option<f64>,
) -> Result<f64, String> {
    let precision = precision_recall_at_k(ranked, truth, TOP).precision;
    match recorded {
        Some(recorded) if precision < recorded - 0.01 => Err(format!(
            "{what}: precision@{TOP} {precision:.4} is below the recorded {recorded:.4}"
        )),
        _ => Ok(precision),
    }
}

fn digest_ranking(ranked: &[ScoredValue], digest: &mut Fnv) {
    for scored in ranked {
        digest.feed(scored.value.as_bytes());
        digest.feed(&scored.score.to_bits().to_le_bytes());
    }
}

/// The kernels behind a detection, one public `dn_graph` function at a time:
/// components, Eq.-1 LCC and exact BC at two threads and at one on the exact
/// lake, approximate BC on the large one.
fn kernel_walk(
    rec: &mut Recorder,
    layers: &mut Layers,
    exact_dir: &Path,
    large_dir: &Path,
    seed: u64,
    op: u64,
) {
    let exact = DomainNetBuilder::new().build(&load_lake(exact_dir));
    let graph = exact.graph();
    let (_, components_s) =
        timed(|| rec.leaf("graph.components", op, || connected_components(graph)));
    layers.set("graph.components_ms", components_s * 1e3);
    let (_, lcc_s) = timed(|| {
        rec.leaf("graph.lcc", op, || {
            local_clustering_coefficients(graph, LccMethod::ValueNeighborJaccard)
        })
    });
    layers.set("graph.lcc_s", lcc_s);
    let (_, bc_s) = timed(|| {
        rec.leaf("graph.bc_exact", op, || {
            betweenness_centrality_parallel(graph, COMPUTE_THREADS)
        })
    });
    layers.set("graph.bc_exact_s", bc_s);
    let (_, bc_1t_s) = timed(|| {
        rec.leaf("graph.bc_exact_1t", op, || {
            betweenness_centrality_parallel(graph, 1)
        })
    });
    layers.set("pool.bc_speedup_2t", bc_1t_s / bc_s.max(1e-9));

    let large = DomainNetBuilder::new().build(&load_lake(large_dir));
    let graph = large.graph();
    let config = ApproxBcConfig {
        samples: approx_samples(&large),
        seed,
        ..ApproxBcConfig::default()
    };
    let (_, approx_s) = timed(|| {
        rec.leaf("graph.bc_approx", op, || {
            approximate_betweenness(graph, config, COMPUTE_THREADS)
        })
    });
    layers.set("graph.bc_approx_s", approx_s);
    layers.set(
        "graph.bc_approx_edges_per_s",
        config.samples.min(graph.node_count()) as f64 * graph.edge_count() as f64
            / approx_s.max(1e-9),
    );
}

/// The spans recorded directly under the operations named `operation`.
fn children_of(spans: &[Span], operation: &str) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| spans[p as usize].name == operation)
        })
        .map(|s| Span {
            parent: None,
            ..s.clone()
        })
        .collect()
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let scratch = Scratch::new("batch_detect");
    let (exact_dir, large_dir) = (scratch.path("exact"), scratch.path("large"));
    let (exact_lake, exact_bytes) =
        write_lake(tus_config(EXACT_SCALE, args.shape_seed), &exact_dir);
    let truth = exact_lake.homograph_set();
    drop(exact_lake);
    let (large_lake, large_bytes) =
        write_lake(large_config(LARGE_SCALE, args.shape_seed), &large_dir);
    drop(large_lake);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: exact lake tus({EXACT_SCALE}) {exact_bytes} CSV bytes, large lake paper_scale x{LARGE_SCALE} {large_bytes} CSV bytes"
    ));

    // Set-up: the cold first detection of each phase, discarded.
    let setup = Instant::now();
    let mut untraced = Recorder::new(false, 0);
    std::hint::black_box(detect_exact(&mut untraced, &exact_dir, args.seed, 0));
    std::hint::black_box(detect_large(&mut untraced, &large_dir, args.seed, 0));
    out.setup_s = setup.elapsed().as_secs_f64();

    // Exact and large detections alternate, so both medians sample the
    // whole run and a slow spell of the machine cannot land on one of them.
    let pairs = pairs(args.seconds);
    let mut exact_s = Vec::with_capacity(pairs);
    let mut large_s = Vec::with_capacity(pairs);
    let mut last_exact = None;
    let mut last_large = None;
    let measured = Instant::now();
    for pair in 0..pairs as u64 {
        let op = FIRST_MEASURED_OP + 2 * pair;
        let start = Instant::now();
        last_exact = Some(detect_exact(rec, &exact_dir, args.seed, op));
        exact_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        last_large = Some(detect_large(rec, &large_dir, args.seed, op + 1));
        large_s.push(start.elapsed().as_secs_f64());
    }
    out.wall_s = measured.elapsed().as_secs_f64();
    out.attempted = 2 * pairs as u64;
    out.primary_op_ms = median(&exact_s).expect("at least three repetitions") * 1e3;
    out.secondary_op_ms = median(&large_s).expect("at least three repetitions") * 1e3;
    out.note(format!("exact-phase repetitions (s): {exact_s:.3?}"));
    out.note(format!("large-phase repetitions (s): {large_s:.3?}"));

    // Correctness gate.
    let exact = last_exact.expect("at least three repetitions");
    let large = last_large.expect("at least three repetitions");
    for (what, ranked) in [
        ("exact-phase LCC", &exact.lcc),
        ("exact-phase BC", &exact.bc),
        ("exact-phase approximate BC", &exact.approx),
        ("large-phase approximate BC", &large),
    ] {
        check_ranking(what, ranked)?;
    }
    let recorded = RECORDED_PRECISION
        .iter()
        .find(|(shape, _)| *shape == args.shape_seed)
        .map(|&(_, precision)| precision);
    let recorded_approx = recorded
        .filter(|_| RECORDED_SEEDS.contains(&args.seed))
        .map(|p| p[2]);
    let p_lcc = check_precision(
        "exact-phase LCC",
        &exact.lcc,
        &truth,
        recorded.map(|p| p[0]),
    )?;
    let p_bc = check_precision("exact-phase BC", &exact.bc, &truth, recorded.map(|p| p[1]))?;
    let p_approx = check_precision(
        "exact-phase approximate BC",
        &exact.approx,
        &truth,
        recorded_approx,
    )?;
    out.note(format!(
        "precision@{TOP} vs ground truth ({} homographs): LCC {p_lcc:.4}, BC {p_bc:.4}, approximate BC {p_approx:.4}",
        truth.len()
    ));
    let mut digest = Fnv::default();
    for ranked in [&exact.lcc, &exact.bc, &exact.approx, &large] {
        digest_ranking(ranked, &mut digest);
    }
    out.digest = digest.value();
    out.requests = out.attempted;

    if rec.enabled() {
        // CSV load and graph build as the large detections paid for them,
        // then the kernels one at a time.
        let in_large = aggregate(&children_of(rec.spans(), "op.detect_large"));
        let load_dir_s = mean_of(&in_large, "lake.load_dir", 1e9);
        let layers = &mut out.layers;
        layers.set("lake.load_dir_s", load_dir_s);
        layers.set(
            "lake.csv_mb_per_s",
            large_bytes as f64 / 1e6 / load_dir_s.max(1e-9),
        );
        layers.set("core.build_s", mean_of(&in_large, "core.build", 1e9));
        let op = FIRST_MEASURED_OP + 2 * pairs as u64;
        kernel_walk(rec, layers, &exact_dir, &large_dir, args.seed, op);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_selected_by_their_parent_operation() {
        let span = |name, parent| Span {
            name,
            start_ns: 0,
            end_ns: 10,
            parent,
            op: 0,
        };
        let spans = vec![
            span("op.detect_exact", None),
            span("lake.load_dir", Some(0)),
            span("op.detect_large", None),
            span("lake.load_dir", Some(2)),
            span("core.build", Some(2)),
        ];
        let children = children_of(&spans, "op.detect_large");
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(names, ["lake.load_dir", "core.build"]);
        assert!(children.iter().all(|s| s.parent.is_none()));
    }
}
