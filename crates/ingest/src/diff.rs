//! Table differ: turn (old generation, new generation) of one table into a
//! minimal [`LakeDelta`].
//!
//! The differ prefers value-granularity [`lake::delta::LakeOp::ReplaceValue`] ops because
//! they are cheap for the engine (dictionary rewrite + component-scoped
//! repair instead of a full table rebuild) and — crucially for exactly-once
//! delivery — idempotent: redelivering a `ReplaceValue` whose target is
//! already gone rewrites zero cells. A positional cell diff is only
//! expressible as `ReplaceValue` ops when it behaves like a consistent
//! value-level substitution; anything more structural falls back to a
//! `RemoveTable` + `AddTable` rewrite (state-equivalent on redelivery).
//!
//! Expressibility conditions, checked per column:
//! - same column names in the same order, and the same row count;
//! - the changed positions form a function `old value → new value`
//!   (no old value maps to two different new values);
//! - every occurrence of a replaced value changes (a `ReplaceValue` rewrites
//!   *all* cells holding the target, so a half-changed value is structural);
//! - targets and replacements are disjoint sets (no chains or swaps, whose
//!   sequential application would cascade);
//! - no change involves a missing (empty-normalized) cell on either side.
//!
//! The check reads the dictionaries, never a row: each distinct raw cell
//! of a column pair is normalized once into a class, and rows compare by
//! the classes of their dictionary indices. The per-cell differ it
//! replaced is the test oracle (same ops, same order).

use lake::value::normalize_into;
use lake::{Column, LakeDelta, Table, TextSet};

/// Outcome of diffing one table across two generations.
#[derive(Debug)]
pub struct TableDiff {
    /// Ops that transform the old table into the new one. Empty when the
    /// tables are value-identical (e.g. an mtime-only rewrite).
    pub delta: LakeDelta,
    /// Rows examined to synthesize the delta (metrics fuel).
    pub rows_diffed: u64,
    /// Whether the differ fell back to a remove+add rewrite.
    pub full_rewrite: bool,
}

/// Diff `old` → `new`, preferring minimal `ReplaceValue` ops.
///
/// Both tables must carry the same name (they come from the same file); the
/// delta is expressed against that name.
pub fn diff_tables(old: &Table, new: &Table) -> TableDiff {
    let rows_diffed = old.row_count().max(new.row_count()) as u64;
    if let Some(delta) = try_replace_diff(old, new) {
        let full_rewrite = false;
        return TableDiff {
            delta,
            rows_diffed,
            full_rewrite,
        };
    }
    TableDiff {
        delta: rewrite_delta(old.name(), new),
        rows_diffed,
        full_rewrite: true,
    }
}

/// The structural fallback: drop the old table and add the new content.
pub fn rewrite_delta(old_name: &str, new: &Table) -> LakeDelta {
    let remove = LakeDelta::new().remove_table(old_name);
    let add = LakeDelta::new().add_table(new.clone());
    remove.merge(add)
}

fn try_replace_diff(old: &Table, new: &Table) -> Option<LakeDelta> {
    let names = |t| Table::columns(t).iter().map(Column::name);
    if old.row_count() != new.row_count() || !names(old).eq(names(new)) {
        return None;
    }
    let mut delta = LakeDelta::new();
    // The normalized forms of a column pair's distinct raw cells, numbered
    // in first-seen order: one set and one buffer for every column.
    let (mut classes, mut normalized) = (TextSet::default(), String::new());
    for (oc, nc) in old.columns().iter().zip(new.columns()) {
        // Each distinct raw cell of either column is normalized once into a
        // class: two cells are equal exactly when their classes are.
        classes.clear();
        let mut class = |raw: &str| {
            normalized.clear();
            normalize_into(raw, &mut normalized);
            classes.insert(&normalized).0
        };
        let old_class: Vec<u32> = oc.dictionary().iter().map(&mut class).collect();
        let new_class: Vec<u32> = nc.dictionary().iter().map(&mut class).collect();
        let missing = classes.get("");
        // Per class: the new dictionary entry its first changed row holds,
        // and whether a row keeps it. Targets in first-seen order, with
        // their old and new dictionary entries.
        let mut replacement: Vec<Option<u32>> = vec![None; classes.len()];
        let mut kept = vec![false; classes.len()];
        let mut targets: Vec<(u32, u32, u32)> = Vec::new();
        for (&oi, &ni) in oc.cell_indices().iter().zip(nc.cell_indices()) {
            let (from, to) = (old_class[oi as usize], new_class[ni as usize]);
            if from == to {
                kept[from as usize] = true;
            } else if Some(from) == missing || Some(to) == missing {
                return None; // a missing cell has no value-level op
            } else if let Some(r) = replacement[from as usize] {
                if new_class[r as usize] != to {
                    return None; // one old value, two new ones
                }
            } else {
                replacement[from as usize] = Some(ni);
                targets.push((from, oi, ni));
            }
        }
        for (target, oi, ni) in targets {
            // ReplaceValue rewrites every occurrence, so no row may keep a
            // target, and a replacement that is itself a target would
            // cascade through both rewrites (chains, swaps).
            if kept[target as usize] || replacement[new_class[ni as usize] as usize].is_some() {
                return None;
            }
            // `replace_value` normalizes the target's raw spelling.
            let (target, repl) = (&oc.dictionary()[oi as usize], &nc.dictionary()[ni as usize]);
            delta = delta.replace_value(old.name(), oc.name(), target, repl);
        }
    }
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake::{normalize, LakeOp, TableBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The differ before it read the dictionary: both cells of every row
    /// normalized, the mapping searched per changed cell.
    fn per_cell_replace_diff(old: &Table, new: &Table) -> Option<LakeDelta> {
        if old.row_count() != new.row_count() || old.column_count() != new.column_count() {
            return None;
        }
        for (oc, nc) in old.columns().iter().zip(new.columns()) {
            if oc.name() != nc.name() {
                return None;
            }
        }
        let mut delta = LakeDelta::new();
        for (oc, nc) in old.columns().iter().zip(new.columns()) {
            let old_cells = oc.cells();
            let new_cells = nc.cells();
            // First-seen-order mapping of normalized target → raw replacement.
            let mut mapping: Vec<(String, String)> = Vec::new();
            for (old_raw, new_raw) in old_cells.iter().zip(&new_cells) {
                let old_norm = normalize(old_raw);
                let new_norm = normalize(new_raw);
                if old_norm == new_norm {
                    continue;
                }
                if old_norm.is_empty() || new_norm.is_empty() {
                    // Transitions to/from missing cells have no value-level op.
                    return None;
                }
                match mapping.iter().find(|(t, _)| *t == old_norm) {
                    Some((_, repl)) if normalize(repl) == new_norm => {}
                    Some(_) => return None, // inconsistent: one old value, two new ones
                    None => mapping.push((old_norm, new_raw.to_string())),
                }
            }
            if mapping.is_empty() {
                continue;
            }
            let targets: BTreeSet<&str> = mapping.iter().map(|(t, _)| t.as_str()).collect();
            // No chains/swaps: a replacement that is itself a target would make
            // sequential application cascade through both rewrites.
            if mapping
                .iter()
                .any(|(_, r)| targets.contains(normalize(r).as_str()))
            {
                return None;
            }
            // Completeness: every surviving occurrence of a target must have
            // changed, because ReplaceValue rewrites all of them.
            for (old_raw, new_raw) in old_cells.iter().zip(&new_cells) {
                let old_norm = normalize(old_raw);
                if let Some((_, repl)) = mapping.iter().find(|(t, _)| *t == old_norm) {
                    if normalize(new_raw) != normalize(repl) {
                        return None;
                    }
                }
            }
            for (target, replacement) in mapping {
                delta = delta.replace_value(old.name(), oc.name(), &target, replacement);
            }
        }
        Some(delta)
    }

    /// `diff_tables` through the per-cell oracle.
    fn oracle_diff(old: &Table, new: &Table) -> (String, bool) {
        match per_cell_replace_diff(old, new) {
            Some(delta) => (serde_json::to_string(&delta).unwrap(), false),
            None => (
                serde_json::to_string(&rewrite_delta(old.name(), new)).unwrap(),
                true,
            ),
        }
    }

    /// Assert the dictionary differ and the oracle agree on `old → new`;
    /// returns whether the diff fell back to a rewrite.
    fn assert_matches_oracle(old: &Table, new: &Table, case: &str) -> bool {
        let diff = diff_tables(old, new);
        let got = (
            serde_json::to_string(&diff.delta).unwrap(),
            diff.full_rewrite,
        );
        assert_eq!(got, oracle_diff(old, new), "{case}");
        diff.full_rewrite
    }

    /// Spellings that normalize alike, a missing cell in two spellings, and
    /// distinct values: enough collisions for chains, swaps and partial
    /// rewrites to arise by chance.
    const CELLS: [&str; 10] = [
        "Jaguar", "jaguar ", "Puma", "PUMA", "Okapi", "", "  ", "Kudu", "Zebu", "é",
    ];

    fn random_table(rng: &mut StdRng) -> Table {
        let rows = rng.gen_range(0..25);
        let mut builder = TableBuilder::new("t");
        for c in 0..rng.gen_range(1..4) {
            let cells: Vec<String> = (0..rows)
                .map(|_| CELLS[rng.gen_range(0..CELLS.len())].to_owned())
                .collect();
            builder = builder.column(format!("c{c}"), cells);
        }
        builder.build().unwrap()
    }

    /// `old` with one seeded edit per column: a consistent substitution (onto
    /// a fresh or an existing value), a partial rewrite, a transition to or
    /// from a missing cell, a swap, a chain, or nothing; sometimes a row
    /// more or a renamed column.
    fn edited(old: &Table, rng: &mut StdRng) -> Table {
        let mut builder = TableBuilder::new("t");
        let shape = rng.gen_range(0..10);
        for (c, column) in old.columns().iter().enumerate() {
            let mut cells: Vec<String> = column.cells().iter().map(|s| s.to_string()).collect();
            let pick = |rng: &mut StdRng| CELLS[rng.gen_range(0..CELLS.len())];
            let a = normalize(pick(rng));
            let b = pick(rng);
            match rng.gen_range(0..7) {
                0 => {
                    let fresh = format!("New{}", rng.gen_range(0..3));
                    for cell in cells.iter_mut().filter(|cell| normalize(cell) == a) {
                        *cell = fresh.clone();
                    }
                }
                1 => {
                    for cell in cells.iter_mut().filter(|cell| normalize(cell) == a) {
                        *cell = b.to_owned();
                    }
                }
                2 => {
                    for cell in cells.iter_mut() {
                        if rng.gen_bool(0.3) {
                            *cell = pick(rng).to_owned();
                        }
                    }
                }
                3 => {
                    if let Some(cell) = cells.first_mut() {
                        *cell = if normalize(cell).is_empty() {
                            "Okapi"
                        } else {
                            ""
                        }
                        .to_owned();
                    }
                }
                4 => {
                    let b = normalize(b);
                    for cell in cells.iter_mut() {
                        let norm = normalize(cell);
                        if norm == a {
                            *cell = b.clone();
                        } else if norm == b {
                            *cell = a.clone();
                        }
                    }
                }
                5 => {
                    // a → b while b → a fresh value.
                    let b = normalize(b);
                    for cell in cells.iter_mut() {
                        let norm = normalize(cell);
                        if norm == a {
                            *cell = b.clone();
                        } else if norm == b {
                            *cell = "Chained".to_owned();
                        }
                    }
                }
                _ => {}
            }
            if shape == 0 {
                cells.push(pick(rng).to_owned());
            }
            let name = if shape == 1 && c == 0 {
                "renamed".to_owned()
            } else {
                column.name().to_owned()
            };
            builder = builder.column(name, cells);
        }
        builder.build().unwrap()
    }

    /// The dictionary differ gives the oracle's ops, in its order, and its
    /// rewrite verdict: on seeded edits of random tables and on consecutive
    /// generations of a drifting drop-folder.
    #[test]
    fn dictionary_diff_matches_the_per_cell_oracle() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let (mut replaced, mut rewritten) = (0, 0);
        for case in 0..2_000 {
            let old = random_table(&mut rng);
            let new = edited(&old, &mut rng);
            if assert_matches_oracle(&old, &new, &format!("case {case}")) {
                rewritten += 1;
            } else if !diff_tables(&old, &new).delta.is_empty() {
                replaced += 1;
            }
        }
        assert!(
            replaced >= 200 && rewritten >= 200,
            "{replaced} replace diffs, {rewritten} rewrites"
        );

        let dir =
            std::env::temp_dir().join(format!("dn_ingest_diff_oracle_{}", std::process::id()));
        let mut stream = datagen::DriftStream::new(datagen::DriftConfig::default());
        stream.write_next_generation(&dir).unwrap();
        let (mut drift_replaced, mut drift_rewritten) = (0, 0);
        for generation in 1..16 {
            let before = stream.live_tables().to_vec();
            stream.write_next_generation(&dir).unwrap();
            for old in &before {
                let Some(new) = stream.live_tables().iter().find(|t| t.name() == old.name()) else {
                    continue;
                };
                let case = format!("generation {generation}, table {}", old.name());
                if assert_matches_oracle(old, new, &case) {
                    drift_rewritten += 1;
                } else if !diff_tables(old, new).delta.is_empty() {
                    drift_replaced += 1;
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            drift_replaced >= 10,
            "{drift_replaced} drift replace diffs, {drift_rewritten} rewrites"
        );
    }

    fn table(name: &str, col: &str, cells: &[&str]) -> Table {
        TableBuilder::new(name)
            .column(col, cells.iter().map(|c| c.to_string()).collect::<Vec<_>>())
            .build()
            .unwrap()
    }

    #[test]
    fn identical_tables_yield_empty_delta() {
        let a = table("t", "c", &["x", "y", "x"]);
        let b = table("t", "c", &["x", "y", "x"]);
        let diff = diff_tables(&a, &b);
        assert!(diff.delta.is_empty());
        assert!(!diff.full_rewrite);
        assert_eq!(diff.rows_diffed, 3);
    }

    #[test]
    fn consistent_substitution_becomes_replace_ops() {
        let a = table("t", "c", &["Jaguar", "Okapi", "Jaguar"]);
        let b = table("t", "c", &["Panther", "Okapi", "Panther"]);
        let diff = diff_tables(&a, &b);
        assert!(!diff.full_rewrite);
        assert_eq!(diff.delta.len(), 1);
        match &diff.delta.ops()[0] {
            LakeOp::ReplaceValue {
                table,
                column,
                target,
                replacement,
            } => {
                assert_eq!(table, "t");
                assert_eq!(column, "c");
                assert_eq!(target, "JAGUAR");
                assert_eq!(replacement, "Panther");
            }
            other => panic!("expected ReplaceValue, got {other:?}"),
        }
    }

    #[test]
    fn partial_change_of_a_value_falls_back_to_rewrite() {
        // Only one of the two Jaguar cells changes: not expressible as
        // ReplaceValue (which rewrites every occurrence).
        let a = table("t", "c", &["Jaguar", "Okapi", "Jaguar"]);
        let b = table("t", "c", &["Panther", "Okapi", "Jaguar"]);
        let diff = diff_tables(&a, &b);
        assert!(diff.full_rewrite);
        assert!(matches!(diff.delta.ops()[0], LakeOp::RemoveTable(_)));
        assert!(matches!(diff.delta.ops()[1], LakeOp::AddTable(_)));
    }

    #[test]
    fn swap_falls_back_to_rewrite() {
        let a = table("t", "c", &["a", "b"]);
        let b = table("t", "c", &["b", "a"]);
        assert!(diff_tables(&a, &b).full_rewrite);
    }

    #[test]
    fn inconsistent_mapping_falls_back_to_rewrite() {
        let a = table("t", "c", &["x", "x", "y"]);
        let b = table("t", "c", &["p", "q", "y"]);
        assert!(diff_tables(&a, &b).full_rewrite);
    }

    #[test]
    fn chain_falls_back_to_rewrite() {
        // a → b while b → c: applying "replace a with b" first would sweep
        // the new b cells into c.
        let a = table("t", "c", &["a", "b"]);
        let b = table("t", "c", &["b", "c"]);
        assert!(diff_tables(&a, &b).full_rewrite);
    }

    #[test]
    fn missing_cell_transitions_fall_back_to_rewrite() {
        let a = table("t", "c", &["x", ""]);
        let b = table("t", "c", &["x", "y"]);
        assert!(diff_tables(&a, &b).full_rewrite);
    }

    #[test]
    fn row_count_change_falls_back_to_rewrite() {
        let a = table("t", "c", &["x", "y"]);
        let b = table("t", "c", &["x", "y", "z"]);
        assert!(diff_tables(&a, &b).full_rewrite);
    }

    #[test]
    fn multi_column_substitutions_scope_per_column() {
        let a = TableBuilder::new("t")
            .column("c1", ["x", "y"])
            .column("c2", ["x", "z"])
            .build()
            .unwrap();
        let b = TableBuilder::new("t")
            .column("c1", ["w", "y"])
            .column("c2", ["x", "z"])
            .build()
            .unwrap();
        let diff = diff_tables(&a, &b);
        assert!(!diff.full_rewrite);
        assert_eq!(diff.delta.len(), 1, "only c1 changed");
    }

    #[test]
    fn replace_diff_applies_to_equivalence() {
        // Property-style check: applying the synthesized delta to a lake
        // holding the old table yields the new table's distinct values.
        let a = table("t", "c", &["Jaguar", "Okapi", "Jaguar", "Kudu"]);
        let b = table("t", "c", &["Panther", "Okapi", "Panther", "Zebu"]);
        let diff = diff_tables(&a, &b);
        assert!(!diff.full_rewrite);
        let mut lake = lake::MutableLake::new();
        lake.apply(&LakeDelta::new().add_table(a)).unwrap();
        lake.apply(&diff.delta).unwrap();
        let got = lake.table("t").unwrap().columns()[0].distinct_values();
        assert_eq!(got, b.columns()[0].distinct_values());
    }
}
