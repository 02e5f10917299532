//! "Reproduces the paper" as a test: every table, figure and worked example
//! of the paper's evaluation, recomputed and compared to the committed
//! results ledger `tests/golden/paper.json`.
//!
//! The ledger is `paper all` at `Args::LEDGER` (scale 0.1, seed 2021; SB and
//! the running example do not scale). Counts, ranks and text must be equal,
//! scores within 1e-9, runtimes are not compared. One test per experiment, so
//! the suite uses both cores and a drift names its figure twice: in the test
//! name and in the `section/table row N column 'c'` lines of the message.
//!
//! To regenerate after an *intentional* change of a kernel or a generator:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test paper_ledger
//! ```
//!
//! then review the diff of `tests/golden/paper.json` (one table row per
//! line) and bring `docs/EXPERIMENTS.md` back in line; its quoted numbers
//! are checked against the ledger below.

use std::path::PathBuf;

use bench::{Args, Cell, Ctx, Section, EXPERIMENTS};

/// The lakes are generated once and shared by the per-experiment tests.
static CTX: Ctx = Ctx::new(Args::LEDGER, 1);

fn repo_file(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// The committed ledger; `None` while `UPDATE_GOLDEN` has
/// `the_ledger_holds_every_experiment` rewriting it.
fn committed() -> Option<Vec<Section>> {
    if updating() {
        return None;
    }
    let path = repo_file("tests/golden/paper.json");
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}\nGenerate it with\n    UPDATE_GOLDEN=1 cargo test --test paper_ledger",
            path.display()
        )
    });
    Some(serde_json::from_str(&raw).unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display())))
}

/// The committed cell at `section/table`, row `row`, column `column`.
fn cell(ledger: &[Section], section: &str, table: &str, row: usize, column: &str) -> Cell {
    ledger
        .iter()
        .find(|s| s.name == section)
        .and_then(|s| s.tables.iter().find(|t| t.name == table))
        .and_then(|t| {
            let index = t.columns.iter().position(|c| c == column)?;
            t.rows.get(row)?.get(index)
        })
        .unwrap_or_else(|| panic!("the ledger has no cell {section}/{table}/{row}/{column}"))
        .clone()
}

/// Recompute one experiment and compare it to its committed section.
fn check(name: &str, ctx: &Ctx) {
    let Some(ledger) = committed() else { return };
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.0 == name)
        .unwrap_or_else(|| panic!("no experiment '{name}'"));
    let expected = ledger
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("the ledger has no section '{name}'"));
    let diff = bench::run(experiment, ctx).diff(expected);
    assert!(
        diff.is_empty(),
        "'{name}' no longer reproduces the committed results ({} threads):\n  {}\n\n\
         If the change is intentional, regenerate the ledger with\n    \
         UPDATE_GOLDEN=1 cargo test --test paper_ledger\n\
         review the diff of tests/golden/paper.json and update docs/EXPERIMENTS.md.",
        ctx.threads,
        diff.join("\n  ")
    );
}

macro_rules! one_test_per_experiment {
    ($($name:ident),*) => {
        const TESTED: &[&str] = &[$(stringify!($name)),*];
        /// A module, so that `reproduces::` filters these eleven and nothing else.
        mod reproduces {
            $(
                #[test]
                fn $name() {
                    super::check(stringify!($name), &super::CTX);
                }
            )*
        }
    };
}

one_test_per_experiment!(
    running_example,
    table1,
    fig5,
    fig6,
    d4,
    table2,
    table3,
    fig7,
    fig8,
    fig9,
    fig10
);

#[test]
fn the_ledger_holds_every_experiment() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    assert_eq!(names, TESTED, "one #[test] per row of bench::EXPERIMENTS");
    if updating() {
        let sections: Vec<Section> = EXPERIMENTS.iter().map(|e| bench::run(e, &CTX)).collect();
        let path = repo_file("tests/golden/paper.json");
        std::fs::write(&path, bench::ledger_json(&sections)).expect("write the ledger");
        println!("regenerated {}", path.display());
    }
    let Some(ledger) = committed() else { return };
    let sections: Vec<&str> = ledger.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(sections, names);
}

/// The kernels are bit-identical at every compute width (pinned in
/// `pipeline.rs` and `crates/graph/tests/properties.rs`); the ledger must not
/// be the first place that breaks. Every experiment that scores with BC off
/// a lake it does not re-inject, on a context of its own at width 2.
#[test]
fn compute_width_does_not_move_the_ledger() {
    let ctx = Ctx::new(Args::LEDGER, 2);
    for name in ["running_example", "fig6", "fig7", "fig8", "fig9"] {
        check(name, &ctx);
    }
}

/// The ledger pins numbers; this pins what the paper *claims* about them,
/// so a regenerated ledger cannot quietly invert a finding.
#[test]
fn the_papers_claims_hold_in_the_ledger() {
    let Some(ledger) = committed() else { return };
    let score = |section: &str, table: &str, row: usize, column: &str| match cell(
        &ledger, section, table, row, column,
    ) {
        Cell::Score(x) => x,
        other => panic!("{section}/{table}/{row}/{column} is {other:?}, not a score"),
    };

    // Figures 5 and 6: BC separates the homographs of SB, LCC does not.
    let (lcc, bc) = (
        score("fig5", "summary", 0, "precision"),
        score("fig6", "summary", 0, "precision"),
    );
    assert!(bc > lcc, "top-55 precision: BC {bc} vs LCC {lcc}");

    // §5.1: at k = |H| DomainNet's BC ranking beats its LCC ranking and the
    // D4 detour.
    let methods: Vec<Cell> = (0..3)
        .map(|row| cell(&ledger, "d4", "methods", row, "method"))
        .collect();
    assert_eq!(
        methods,
        [
            "DomainNet (exact BC)".into(),
            "DomainNet (LCC)".into(),
            "D4 baseline".into()
        ]
    );
    let f1 = |row| score("d4", "methods", row, "F1");
    assert!(f1(0) > f1(1), "F1: BC {} vs LCC {}", f1(0), f1(1));
    assert!(f1(0) > f1(2), "F1: BC {} vs D4 {}", f1(0), f1(2));

    // Tables 2 and 3: neither a high cardinality threshold nor many
    // meanings makes the injected homographs harder to find.
    for (section, last) in [("table2", 5), ("table3", 6)] {
        let (first, last) = (
            score(section, "recall", 0, "found in top-50"),
            score(section, "recall", last, "found in top-50"),
        );
        assert!(last >= first, "{section}: {first} falls to {last}");
    }

    // §5.3: the ten highest-BC values of the TUS-like lake are homographs.
    for row in 0..10 {
        assert_eq!(cell(&ledger, "fig7", "top", row, "homograph"), "yes".into());
    }
}

/// `docs/EXPERIMENTS.md` quotes a ledger number beside each of the paper's.
/// Every table line there that carries a `` `section/table/row/column` ``
/// address must show, in the cell before it, that ledger cell at the
/// precision the doc prints it with.
#[test]
fn experiments_doc_quotes_the_ledger() {
    let Some(ledger) = committed() else { return };
    let doc = std::fs::read_to_string(repo_file("docs/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut stale = Vec::new();
    let mut quoted = std::collections::BTreeSet::new();
    for line in doc.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(at) = cells
            .iter()
            .position(|c| c.starts_with('`') && c.ends_with('`') && c.matches('/').count() >= 3)
        else {
            continue;
        };
        let address: Vec<&str> = cells[at].trim_matches('`').splitn(4, '/').collect();
        let row: usize = address[2]
            .parse()
            .unwrap_or_else(|_| panic!("row of {}", cells[at]));
        let shown = cells[at - 1];
        let decimals = shown.split_once('.').map_or(0, |(_, frac)| frac.len());
        let actual = cell(&ledger, address[0], address[1], row, address[3]).render(decimals);
        if shown != actual {
            stale.push(format!(
                "{}: the doc says {shown}, the ledger {actual}",
                cells[at]
            ));
        }
        quoted.insert(address[0].to_owned());
    }
    assert!(
        stale.is_empty(),
        "docs/EXPERIMENTS.md:\n  {}",
        stale.join("\n  ")
    );
    let unquoted: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.0)
        .filter(|name| !quoted.contains(*name))
        .collect();
    assert!(unquoted.is_empty(), "no headline of {unquoted:?} is quoted");
}
