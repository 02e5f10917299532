//! The experiment table and the eleven functions behind it, one per table,
//! figure or worked example of the paper's evaluation.

use std::collections::BTreeSet;
use std::sync::Arc;

use d4::D4Config;
use datagen::inject::{inject_homographs, InjectionConfig};
use datagen::scale::{ScaleConfig, ScaleGenerator};
use datagen::truth::{GeneratedLake, LakeTruth};
use dn_graph::approx_bc::{approximate_betweenness, ApproxBcConfig};
use dn_graph::bc::normalize_scores;
use dn_graph::lcc::LccMethod;
use dn_graph::subgraph::random_attribute_subgraph;
use domainnet::eval::{
    precision_recall_at_k, precision_recall_of_set, recall_of_expected_in_top_k, EvalPoint,
    TopKCurve,
};
use domainnet::{DomainNet, Measure, ScoredValue};
use lake::stats::{HomographStats, LakeStats};

use crate::{default_samples, row, timed, Cell, Ctx, Table};

/// An experiment: its name on the command line and in the ledger, the part
/// of the paper it reproduces, what the paper reports there, and the function
/// that computes this repository's side of it.
pub type Experiment = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Ctx) -> Vec<Table>,
);

/// Every experiment, in the paper's order.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    ("running_example", "Example 3.6: LCC and BC on the Figure 1 lake",
     "LCC Jaguar 0.36, Puma 0.43, Panda/Toyota 0.45-0.46; normalised BC Jaguar 0.025, Puma \
      0.003, Panda/Toyota 0.002. Jaguar has the lowest LCC among the repeated values and by far \
      the highest BC.",
     running_example),
    ("table1", "Table 1: dataset statistics",
     "SB 13 tables / 39 attributes / 17,633 values / 55 homographs; TUS 1,327 / 9,859 / 190,399 / \
      26,035; TUS-I 1,253 / 5,020 / 163,860; NYC-EDU 201 / 3,496 / 1,469,547.",
     table1),
    ("fig5", "Figure 5: the 55 lowest-LCC values of SB",
     "fewer than 25 % of the 55 lowest-LCC values are homographs (precision < 0.25): unambiguous \
      values of small domains score low too.",
     |ctx| sb_figure(ctx, Measure::lcc(), "LCC")),
    ("fig6", "Figure 6: the 55 highest-BC values of SB",
     "38 of the 55 highest-BC values are homographs (precision 0.69); the misses are the \
      country-code / state-abbreviation homographs of the two small tables.",
     |ctx| sb_figure(ctx, Measure::exact_bc(), "BC")),
    ("d4", "§5.1: the D4 baseline against DomainNet on SB",
     "calling every value D4 puts in more than one domain a homograph reaches precision = recall \
      = F1 = 0.38 at k = 55, DomainNet's BC ranking 0.69; D4 discovers domains for only a subset \
      of the columns.",
     d4),
    ("table2", "Table 2: injected homographs found vs attribute cardinality",
     "0.85 -> 0.935 -> 0.935 -> 0.95 -> 0.945 -> 0.975 of 50 injected homographs in the top-50 \
      as the cardinality threshold rises 0 -> 500 (mean of 4 runs): homographs replacing values \
      of larger attributes are easier to find.",
     table2),
    ("table3", "Table 3: injected homographs found vs number of meanings",
     "0.975 / 0.975 / 0.985 / 0.985 / 1.0 / 1.0 / 1.0 of the injected homographs in the top-50 \
      for 2..8 meanings: more meanings bridge more communities.",
     table3),
    ("fig7", "Figure 7 and §5.3: top-k P/R/F1 on the TUS-like lake",
     "precision 0.89 at k = 200; P = R = F1 = 0.622 at k = |H| = 26,035; best F1 0.655 at \
      k = 29,633; the ten highest-BC values are all homographs.",
     fig7),
    ("fig8", "Figure 8: precision and runtime vs BC sample size",
     "on TUS precision@|H| settles near 0.6 by ~1,000 samples (0.5 % of the nodes, ~40 s) where \
      exact BC takes 150 min for 0.631: the ranking converges long before the scores, and \
      runtime is linear in the sample count.",
     fig8),
    ("fig9", "Figure 9 and §5.4: approximate-BC runtime vs graph size",
     "approximate-BC runtime grows linearly with the number of edges at a fixed 1 % sampling \
      rate; the TUS graph builds in ~1.5 min, LCC takes ~4 s, BC on NYC-EDU (1.5 M nodes, 2.3 M \
      edges) ~27 min.",
     fig9),
    ("fig10", "Figure 10: D4 domain count vs injected homographs",
     "on TUS-I D4 finds 134 domains with no homographs, rising toward ~160 as 200 homographs \
      with 6 meanings are injected (371, up to 22 per column, at 5,000): more homographs, more \
      and messier domains.",
     fig10),
];

/// Homographs injected per TUS-I lake, and the `k` they are looked for in.
const INJECTIONS: usize = 50;

const EVAL_COLUMNS: &str = "k | hits | precision | recall | F1";

fn eval_cells(e: EvalPoint) -> Vec<Cell> {
    row![e.k, e.hits, e.precision, e.recall, e.f1]
}

/// The size of a DomainNet graph and of the ground truth it is scored on.
fn graph_table(net: &DomainNet, truth: &BTreeSet<String>) -> Table {
    let mut graph = Table::new("graph", "candidates | attributes | edges | homographs");
    let (values, attributes) = (net.candidate_count(), net.attribute_count());
    graph.push(row![values, attributes, net.edge_count(), truth.len()]);
    graph
}

/// The head of a ranking, one row per rank, marked against the ground truth.
fn ranking_table(score: &str, head: &[ScoredValue], truth: &BTreeSet<String>) -> Table {
    let mut top = Table::new("top", &format!("rank | value | {score} | homograph"));
    for (i, s) in head.iter().enumerate() {
        let homograph = truth.contains(&s.value);
        top.push(row![i + 1, s.value.as_str(), s.score, homograph]);
    }
    top
}

fn running_example(ctx: &Ctx) -> Vec<Table> {
    // Example 3.6 computes on the full Figure 1 graph, so single-attribute
    // values stay (pruning them changes the LCC neighbourhoods).
    let mut net = domainnet::DomainNetBuilder::new()
        .prune_single_attribute_values(false)
        .build(&lake::fixtures::running_example());
    net.set_compute_threads(ctx.threads);
    let homographs = lake::fixtures::running_example_homographs();
    let (lcc, bc) = (net.rank(Measure::lcc()), net.rank(Measure::exact_bc()));
    // Normalisation divides by the pairs among all nodes of the graph.
    let mut normalised: Vec<f64> = bc.iter().map(|s| s.score).collect();
    normalised.resize(net.graph().node_count(), 0.0);
    normalize_scores(&mut normalised);

    let header = "BC rank | value | LCC | BC (raw) | BC (normalised) | homograph";
    let mut scores = Table::new("scores", header);
    for (i, s) in bc.iter().enumerate() {
        let lcc = DomainNet::score_of(&lcc, &s.value).expect("both measures rank every value");
        let (value, homograph) = (s.value.as_str(), homographs.contains(&s.value.as_str()));
        scores.push(row![
            i + 1,
            value,
            lcc.score,
            s.score,
            normalised[i],
            homograph
        ]);
    }
    vec![scores]
}

fn scale_lake(ctx: &Ctx) -> lake::catalog::LakeCatalog {
    let config = ScaleConfig {
        seed: ctx.args.seed,
        ..ScaleConfig::default()
    };
    ScaleGenerator::new(config.scaled(ctx.args.scale)).generate()
}

fn table1(ctx: &Ctx) -> Vec<Table> {
    let header = "dataset | tables | attributes | values | homographs | Card(H) | #M";
    let mut datasets = Table::new("datasets", header);
    let mut labelled = |name: &str, lake: &GeneratedLake| {
        let s = LakeStats::compute(&lake.catalog);
        let homographs: Vec<(String, usize)> = lake.homographs().into_iter().collect();
        let h = HomographStats::compute(&lake.catalog, &homographs);
        let cardinality = format!("{}-{}", h.min_cardinality, h.max_cardinality);
        let meanings = format!("{}-{}", h.min_meanings, h.max_meanings);
        datasets.push(row![
            name,
            s.tables,
            s.attributes,
            s.values,
            h.count,
            cardinality.as_str(),
            meanings.as_str()
        ]);
    };
    labelled("SB", &ctx.sb().lake);
    labelled("TUS-like", ctx.tus());
    // The default injection is Table 1's: 50 homographs of 2 meanings, anywhere.
    let config = InjectionConfig {
        seed: ctx.args.seed,
        ..InjectionConfig::default()
    };
    if let Some(injected) = inject_homographs(ctx.clean(), config) {
        labelled("TUS-I (50 injected)", &injected.lake);
    }
    // The scalability lake has no ground truth: zero labelled homographs.
    let scale = GeneratedLake {
        catalog: scale_lake(ctx),
        truth: LakeTruth::new(),
    };
    labelled("SCALE (NYC-EDU stand-in)", &scale);
    vec![datasets]
}

/// The SB ranking under `measure` and its top-`k` evaluated against the
/// ground truth: the one body behind Figures 5 and 6 and the DomainNet rows
/// of §5.1.
fn sb_top_k(ctx: &Ctx, measure: Measure, k: usize) -> (Arc<Vec<ScoredValue>>, EvalPoint) {
    let sb = ctx.sb();
    let ranked = sb.net.rank_shared(measure);
    let eval = precision_recall_at_k(&ranked, &sb.truth, k);
    (ranked, eval)
}

fn sb_figure(ctx: &Ctx, measure: Measure, score: &str) -> Vec<Table> {
    let sb = ctx.sb();
    let (ranked, eval) = sb_top_k(ctx, measure, sb.truth.len().clamp(1, 55));
    let head = &ranked[..eval.k];
    let mut summary = Table::new("summary", EVAL_COLUMNS);
    summary.push(eval_cells(eval));
    let mut missed = Table::new("missed", "homograph outside the top-k");
    for h in &sb.truth {
        if !head.iter().any(|s| &s.value == h) {
            missed.push(row![h.as_str()]);
        }
    }
    let graph = graph_table(&sb.net, &sb.truth);
    let top = ranking_table(score, head, &sb.truth);
    vec![graph, summary, top, missed]
}

fn d4(ctx: &Ctx) -> Vec<Table> {
    let sb = ctx.sb();
    let k = sb.truth.len();
    let out = d4::discover(&sb.lake.catalog, D4Config::default());
    let detected = precision_recall_of_set(&out.homographs(), &sb.truth);

    let mut methods = Table::new("methods", &format!("method | {EVAL_COLUMNS}"));
    let (bc, lcc) = (Measure::exact_bc(), Measure::lcc());
    for (method, eval) in [
        ("DomainNet (exact BC)", sb_top_k(ctx, bc, k).1),
        ("DomainNet (LCC)", sb_top_k(ctx, lcc, k).1),
        ("D4 baseline", detected),
    ] {
        let mut cells = row![method];
        cells.extend(eval_cells(eval));
        methods.push(cells);
    }
    let header = "domains | columns covered | string columns | max domains/column";
    let mut domains = Table::new("domains", header);
    let (found, most) = (out.domain_count(), out.max_domains_per_column());
    domains.push(row![found, out.covered_columns(), out.string_columns, most]);
    vec![methods, domains]
}

/// Mean share of the injected homographs found in the top-50 of the
/// approximate-BC ranking, over `runs` injections per setting: the one sweep
/// behind Tables 2 and 3. A setting the clean lake cannot serve (too few
/// eligible attributes or classes) injects nothing and gets no row.
fn injection_sweep(
    ctx: &Ctx,
    setting_column: &str,
    settings: impl Iterator<Item = usize>,
    runs: u64,
    config: impl Fn(usize, u64) -> InjectionConfig,
) -> Table {
    let header = format!("{setting_column} | runs | found in top-50");
    let mut recall = Table::new("recall", &header);
    for setting in settings {
        let found_in = |run: u64| {
            let injected = inject_homographs(ctx.clean(), config(setting, run))?;
            let net = ctx.net(&injected.lake.catalog);
            let samples = default_samples(net.graph().node_count());
            let ranked = net.rank(Measure::approx_bc(samples, ctx.args.seed + run));
            let expected: BTreeSet<String> = injected.injected.into_iter().collect();
            Some(recall_of_expected_in_top_k(&ranked, &expected, INJECTIONS))
        };
        let found: Vec<f64> = (0..runs).filter_map(found_in).collect();
        if !found.is_empty() {
            let mean = found.iter().sum::<f64>() / found.len() as f64;
            recall.push(row![setting, found.len(), mean]);
        }
    }
    recall
}

fn table2(ctx: &Ctx) -> Vec<Table> {
    // The paper's absolute thresholds (0..500) as fifths of the largest
    // attribute of the generated lake.
    let max = LakeStats::compute(&ctx.clean().catalog).max_attr_cardinality;
    let thresholds = (0..=5).map(|i| (max as f64 * 0.2 * i as f64) as usize);
    let config = |threshold, run| InjectionConfig {
        count: INJECTIONS,
        meanings: 2,
        min_attr_cardinality: threshold,
        seed: ctx.args.seed + run * 101,
    };
    let recall = injection_sweep(ctx, "min attribute cardinality", thresholds, 4, config);
    vec![recall]
}

fn table3(ctx: &Ctx) -> Vec<Table> {
    // Cardinality held high, as in the paper: the top half of the range.
    let threshold = LakeStats::compute(&ctx.clean().catalog).max_attr_cardinality / 2;
    let config = |meanings, run| InjectionConfig {
        count: INJECTIONS,
        meanings,
        min_attr_cardinality: threshold,
        seed: ctx.args.seed + run * 977 + meanings as u64,
    };
    let recall = injection_sweep(ctx, "meanings", 2..=8, 2, config);
    vec![recall]
}

fn fig7(ctx: &Ctx) -> Vec<Table> {
    let tus = ctx.tus();
    let truth = tus.homograph_set();
    let (net, build) = timed(|| ctx.net(&tus.catalog));
    let samples = default_samples(net.graph().node_count());
    let (ranked, bc) = timed(|| net.rank(Measure::approx_bc(samples, ctx.args.seed)));

    let curve = TopKCurve::sampled(&ranked, &truth, (ranked.len() / 400).max(1));
    let at_200 = curve.at_k(200).expect("the lake has candidates");
    let at_truth = curve.at_k(truth.len()).expect("the lake has candidates");
    let best = curve.best_f1().expect("the lake has candidates");

    let header = "precision@200 | precision@H | recall@H | F1@H | best F1 | best F1 at k";
    let mut summary = Table::new("summary", header);
    let (p, r) = (at_truth.precision, at_truth.recall);
    summary.push(row![at_200.precision, p, r, at_truth.f1, best.f1, best.k]);
    let mut run = Table::new("run", "BC samples | build (s) | BC (s)");
    run.push(row![samples, build, bc]);
    let top = ranking_table("BC (approx)", &ranked[..ranked.len().min(10)], &truth);
    vec![graph_table(&net, &truth), summary, run, top]
}

fn fig8(ctx: &Ctx) -> Vec<Table> {
    let tus = ctx.tus();
    let truth = tus.homograph_set();
    let net = ctx.net(&tus.catalog);
    let n = net.graph().node_count();

    // The paper's fractions of the nodes, floored at 10 samples; at small
    // scales several fractions hit the floor and are one measurement.
    let fractions = [0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1];
    let mut counts = fractions
        .map(|f| ((n as f64 * f).ceil() as usize).clamp(10, n))
        .to_vec();
    counts.dedup();
    let sampled = counts
        .iter()
        .map(|&c| ("sampled", c, Measure::approx_bc(c, ctx.args.seed)));

    let header = "BC | samples | % of nodes | precision@H | time (s)";
    let mut points = Table::new("points", header);
    for (kind, samples, measure) in sampled.chain([("exact", n, Measure::exact_bc())]) {
        let (ranked, seconds) = timed(|| net.rank(measure));
        let share = 100.0 * samples as f64 / n as f64;
        let precision = precision_recall_at_k(&ranked, &truth, truth.len()).precision;
        points.push(row![kind, samples, share, precision, seconds]);
    }
    vec![points]
}

fn fig9(ctx: &Ctx) -> Vec<Table> {
    let (lake, generate) = timed(|| scale_lake(ctx));
    let (net, build) = timed(|| ctx.net(&lake));
    // The attribute-Jaccard variant is the one a lake of this size would use.
    let (_, lcc) = timed(|| net.raw_scores(Measure::Lcc(LccMethod::AttributeJaccard)));
    let mut timings = Table::new("timings", "generate (s) | build (s) | LCC (s)");
    timings.push(row![generate, build, lcc]);

    // Approximate BC at 1 % of the nodes on nested subgraphs of growing size.
    let mut points = Table::new("points", "nodes | edges | BC samples | BC (s)");
    for tenths in [2, 4, 6, 8, 10] {
        let sub = if tenths == 10 {
            net.graph().clone()
        } else {
            let target = (net.edge_count() as f64 * tenths as f64 / 10.0) as usize;
            random_attribute_subgraph(net.graph(), target, ctx.args.seed)
        };
        let config = ApproxBcConfig {
            samples: ((sub.node_count() as f64 * 0.01).ceil() as usize).max(10),
            seed: ctx.args.seed,
        };
        let (_, seconds) = timed(|| approximate_betweenness(&sub, config, ctx.threads));
        let (nodes, edges) = (sub.node_count(), sub.edge_count());
        points.push(row![nodes, edges, config.samples, seconds]);
    }
    vec![timings, points]
}

fn fig10(ctx: &Ctx) -> Vec<Table> {
    let header = "injected | meanings | domains | max domains/column | mean domains/column";
    let mut points = Table::new("points", header);
    let mut discover = |injected: usize, meanings: usize, lake: &GeneratedLake| {
        let out = d4::discover(&lake.catalog, D4Config::default());
        let (max, mean) = (out.max_domains_per_column(), out.avg_domains_per_column());
        points.push(row![injected, meanings, out.domain_count(), max, mean]);
    };
    discover(0, 0, ctx.clean());
    for meanings in [2usize, 4, 6] {
        for count in [50usize, 100, 150, 200] {
            let config = InjectionConfig {
                count,
                meanings,
                min_attr_cardinality: 0,
                seed: ctx.args.seed + (count * meanings) as u64,
            };
            // No row where the clean lake is too small for the injection.
            if let Some(injected) = inject_homographs(ctx.clean(), config) {
                discover(count, meanings, &injected.lake);
            }
        }
    }
    vec![points]
}
