//! What an experiment returns: a [`Section`] of named [`Table`]s whose rows
//! are typed [`Cell`]s, with the one markdown printer, the one comparator
//! and the one ledger layout that every table and figure goes through.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How far a [`Cell::Score`] may sit from the ledger's (the golden ranking
/// corpus uses the same absolute tolerance).
const SCORE_TOLERANCE: f64 = 1e-9;

/// One typed value of a result table. The type says how the value is
/// printed and how it is compared against the ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// A count, rank or size: compared exactly.
    Count(u64),
    /// A score, precision or fraction: compared to an absolute 1e-9.
    Score(f64),
    /// A label or value string: compared exactly.
    Text(String),
    /// A wall-clock runtime: differs run to run, never compared.
    Seconds(f64),
}

impl Cell {
    /// Render with `decimals` fractional digits (counts and text ignore it).
    pub fn render(&self, decimals: usize) -> String {
        match self {
            Cell::Count(n) => n.to_string(),
            Cell::Score(x) | Cell::Seconds(x) => format!("{x:.decimals$}"),
            Cell::Text(s) => s.clone(),
        }
    }

    /// Whether `self` reproduces the ledger's `expected` cell.
    pub fn matches(&self, expected: &Cell) -> bool {
        match (self, expected) {
            (Cell::Score(a), Cell::Score(b)) => (a - b).abs() <= SCORE_TOLERANCE,
            (Cell::Seconds(_), Cell::Seconds(_)) => true,
            _ => self == expected,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let decimals = if matches!(self, Cell::Seconds(_)) {
            3
        } else {
            4
        };
        f.write_str(&self.render(decimals))
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Count(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Score(x)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Self {
        Cell::from(if b { "yes" } else { "no" })
    }
}

/// Build a table row from cells and values convertible to [`Cell`].
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($crate::Cell::from($cell)),*] };
}

/// A named table: column headers and rows of typed cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// The table's name within its section (`summary`, `top`, ...).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, each as long as `columns`.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table; `header` is its markdown header line, `a | b | c`.
    pub fn new(name: &str, header: &str) -> Self {
        Table {
            name: name.to_owned(),
            columns: header.split(" | ").map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "table {}", self.name);
        self.rows.push(row);
    }
}

/// The result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// The experiment's name in [`crate::EXPERIMENTS`].
    pub name: String,
    /// What the paper reports for it.
    pub paper: String,
    /// The result tables.
    pub tables: Vec<Table>,
}

impl Section {
    /// Where `self` departs from the ledger's `expected` section, one line
    /// per departure naming section, table, row and column. Empty when every
    /// count, rank and text is equal and every score within tolerance.
    pub fn diff(&self, expected: &Section) -> Vec<String> {
        let shape = |s: &Section| -> Vec<(String, Vec<String>, usize)> {
            let of = |t: &Table| (t.name.clone(), t.columns.clone(), t.rows.len());
            s.tables.iter().map(of).collect()
        };
        if (&self.paper, shape(self)) != (&expected.paper, shape(expected)) {
            return vec![format!(
                "{}: paper text {:?} over (table, columns, rows) {:?}, ledger has {:?} over {:?}",
                self.name,
                self.paper,
                shape(self),
                expected.paper,
                shape(expected)
            )];
        }
        let mut out = Vec::new();
        for (got, want) in self.tables.iter().zip(&expected.tables) {
            for (r, (got_row, want_row)) in got.rows.iter().zip(&want.rows).enumerate() {
                for ((g, w), column) in got_row.iter().zip(want_row).zip(&got.columns) {
                    if !g.matches(w) {
                        out.push(format!(
                            "{}/{} row {r} column '{column}': {}, ledger has {}",
                            self.name,
                            got.name,
                            g.render(12),
                            w.render(12)
                        ));
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Section {
    /// The tables as markdown, then the paper's numbers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            writeln!(f, "{}:\n\n| {} |", table.name, table.columns.join(" | "))?;
            writeln!(f, "|{}", "---|".repeat(table.columns.len()))?;
            for row in &table.rows {
                let cells: Vec<String> = row.iter().map(Cell::to_string).collect();
                writeln!(f, "| {} |", cells.join(" | "))?;
            }
            writeln!(f)?;
        }
        writeln!(f, "Paper: {}", self.paper)
    }
}

/// The sections of a ledger as JSON with a line break before every section,
/// table and row, so that a drifted score or a swapped rank is a one-line diff
/// of the committed file. (Neither `[{"` nor `},{"name"` can occur inside a
/// JSON string, whose quotes are escaped.)
pub fn ledger_json(sections: &[Section]) -> String {
    let json = serde_json::to_string(sections).expect("sections serialise");
    let lines = json
        .replace("[{\"", "\n[{\"")
        .replace("},{\"name\"", "},\n{\"name\"");
    lines.trim_start().to_owned() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section() -> Section {
        let mut top = Table::new("top", "Rank | Value | BC | Time (s)");
        top.push(row![1usize, "JAGUAR", 28.25, Cell::Seconds(0.5)]);
        top.push(row![2usize, "PUMA", 3.5, Cell::Seconds(0.25)]);
        Section {
            name: "fig".to_owned(),
            paper: "JAGUAR first".to_owned(),
            tables: vec![top],
        }
    }

    #[test]
    fn a_score_off_by_1e_6_is_named_by_section_table_row_and_column() {
        let mut drifted = section();
        drifted.tables[0].rows[1][2] = Cell::Score(3.5 + 1e-6);
        let diff = drifted.diff(&section());
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(
            diff[0].starts_with("fig/top row 1 column 'BC': 3.500001"),
            "{diff:?}"
        );
        drifted.tables[0].rows[1][2] = Cell::Score(3.5 + 1e-10);
        assert!(drifted.diff(&section()).is_empty());
    }

    #[test]
    fn swapped_ranks_differ_and_runtimes_never_do() {
        let mut swapped = section();
        swapped.tables[0].rows.swap(0, 1);
        let diff = swapped.diff(&section());
        assert!(
            diff.iter().any(|d| d.contains("row 0 column 'Value'")),
            "{diff:?}"
        );
        let mut slower = section();
        slower.tables[0].rows[0][3] = Cell::Seconds(99.0);
        assert!(slower.diff(&section()).is_empty());
        // A runtime is not a score: a cell that changes type is a departure.
        slower.tables[0].rows[0][3] = Cell::Score(0.5);
        assert_eq!(slower.diff(&section()).len(), 1);
    }

    #[test]
    fn a_missing_row_or_table_is_a_departure() {
        let mut short = section();
        short.tables[0].rows.pop();
        assert!(short.diff(&section())[0].contains("\"BC\", \"Time (s)\"], 1)]"));
        short.tables.clear();
        assert!(short.diff(&section())[0].contains("rows) [],"));
    }

    #[test]
    fn the_ledger_layout_round_trips_through_json() {
        let sections = [section(), section()];
        let json = ledger_json(&sections);
        assert_eq!(json.lines().filter(|l| l.contains("PUMA")).count(), 2);
        let back: Vec<Section> = serde_json::from_str(&json).expect("the ledger parses");
        assert_eq!(back, sections);
    }

    #[test]
    fn cells_print_at_their_types_precision() {
        let cells = row![7usize, 0.54546, "x", true, Cell::Seconds(1.2394)];
        let printed: Vec<String> = cells.iter().map(Cell::to_string).collect();
        assert_eq!(printed, ["7", "0.5455", "x", "yes", "1.239"]);
        assert_eq!(Cell::Score(0.54546).render(3), "0.545");
    }
}
