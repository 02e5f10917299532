//! Loading a data lake from (and saving it to) a directory of CSV files.
//!
//! Each `.csv` file becomes one [`Table`] whose name is the file stem and
//! whose first record is interpreted as the header (attribute names). Ragged
//! rows — rows with fewer or more cells than the header — are either padded /
//! truncated or rejected depending on [`LoadOptions::strict`]; open-data CSV
//! exports are frequently ragged, so lenient loading is the default.
//!
//! A file is read whole and parsed in one pass ([`crate::csv`]); every cell
//! goes straight into its column's dictionary, one buffer per column, so
//! only distinct cells are ever copied. [`load_dir`] parses its files and
//! builds their tables on a machine-wide [`dn_pool::Pool`], and the calling
//! thread adds them in path order, so the lake is the same at every width.
//! A column is a handful of buffers, so the tables a worker built pin no
//! measurable share of its malloc arena (ARCHITECTURE.md, "Who allocates
//! what outlives the call").

use std::borrow::Cow;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use dn_pool::Pool;

use crate::catalog::LakeCatalog;
use crate::column::{Column, StringList};
use crate::csv::{CsvOptions, Records};
use crate::error::LakeError;
use crate::table::Table;
use crate::value::FxHashMap;
use crate::Result;

/// Options controlling how CSV files are turned into tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// CSV dialect options.
    pub csv: CsvOptions,
    /// When `true`, ragged rows are an error; when `false` (default) short
    /// rows are padded with empty cells and long rows are truncated.
    pub strict: bool,
}

/// One column of a file being parsed: its distinct raw cells in
/// first-occurrence order and the dictionary index of every row.
struct ParsedColumn {
    name: String,
    dictionary: StringList,
    indices: Vec<u32>,
}

/// Parse a CSV document into per-column dictionaries, then build its
/// columns (validated, normalized and sorted by [`Column::from_dictionary`]).
/// A record is checked in full (structure, then UTF-8) before its width is,
/// and every record before the header names are: a header that names a
/// column twice is [`LakeError::DuplicateColumn`].
fn parse_table(name: String, bytes: &[u8], options: LoadOptions) -> Result<Table> {
    let mut records = Records::new(bytes, options.csv);
    let mut fields = Vec::new();
    if !records.next_into(&mut fields)? {
        return Err(LakeError::EmptyTable(name));
    }
    let mut columns: Vec<ParsedColumn> = fields
        .drain(..)
        .map(|header| ParsedColumn {
            name: header.into_owned(),
            dictionary: StringList::new(),
            indices: Vec::new(),
        })
        .collect();
    let width = columns.len();
    let mut index_of: Vec<FxHashMap<Cow<str>, u32>> =
        (0..width).map(|_| FxHashMap::default()).collect();
    let mut row = 0;
    while records.next_into(&mut fields)? {
        row += 1;
        if fields.len() != width && options.strict {
            return Err(LakeError::RaggedRow {
                table: name,
                row,
                expected: width,
                found: fields.len(),
            });
        }
        // Short rows are padded with empty cells, long ones truncated.
        let mut cells = fields.drain(..);
        for (column, index_of) in columns.iter_mut().zip(&mut index_of) {
            let cell = cells.next().unwrap_or(Cow::Borrowed(""));
            let ix = match index_of.get(cell.as_ref()) {
                Some(&ix) => ix,
                None => {
                    let ix = column.dictionary.len() as u32;
                    column.dictionary.push(&cell);
                    index_of.insert(cell, ix);
                    ix
                }
            };
            column.indices.push(ix);
        }
    }
    let columns = columns
        .into_iter()
        .enumerate()
        .map(|(i, column)| {
            let name = if column.name.trim().is_empty() {
                format!("column_{i}")
            } else {
                column.name
            };
            Column::from_dictionary(name, column.dictionary, column.indices)
        })
        .collect::<Result<Vec<_>>>()?;
    let table = Table::from_columns(name, columns);
    table.validate_shape()?;
    Ok(table)
}

/// Parse a single CSV file into a [`Table`] named after its file stem.
pub fn load_table(path: &Path, options: LoadOptions) -> Result<Table> {
    let bytes = fs::read(path).map_err(|e| LakeError::io_with_path(e, path))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_owned());
    parse_table(name, &bytes, options)
}

/// Load every `*.csv` file in a directory (non-recursive) into a lake.
///
/// Files are loaded in lexicographic order so the resulting [`AttrId`]s
/// (and therefore downstream graph node ids) are deterministic. They are
/// parsed in parallel; the first error in that order is returned.
///
/// [`AttrId`]: crate::catalog::AttrId
pub fn load_dir(dir: impl AsRef<Path>, options: LoadOptions) -> Result<LakeCatalog> {
    let dir = dir.as_ref();
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| LakeError::io_with_path(e, dir))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .map(|ext| ext.eq_ignore_ascii_case("csv"))
                .unwrap_or(false)
        })
        .collect();
    paths.sort();
    load_paths(&paths, options, Pool::machine_wide())
}

/// Load `paths` on `pool` and add their tables in path order: the lake, or
/// the first error in path order, is the one a sequential fold of
/// [`load_table`] gives, whatever the pool's width.
fn load_paths(paths: &[PathBuf], options: LoadOptions, pool: Pool) -> Result<LakeCatalog> {
    let loaded = pool.run(paths.len(), |i| load_table(&paths[i], options));
    let mut catalog = LakeCatalog::new();
    for table in loaded {
        catalog.add_table(table?)?;
    }
    Ok(catalog)
}

/// Write every live table of a lake as `<dir>/<table_name>.csv`.
///
/// The directory is created if it does not exist. Existing files with the
/// same names are overwritten.
pub fn save_dir(catalog: &LakeCatalog, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(|e| LakeError::io_with_path(e, dir))?;
    for table in catalog.tables() {
        let path = dir.join(format!("{}.csv", table.name()));
        let file = File::create(&path).map_err(|e| LakeError::io_with_path(e, &path))?;
        let mut writer = BufWriter::new(file);
        write_table(&mut writer, table)?;
        writer
            .flush()
            .map_err(|e| LakeError::io_with_path(e, &path))?;
    }
    Ok(())
}

/// Serialize a single table as CSV (header + rows) to any writer.
pub fn write_table<W: Write>(out: &mut W, table: &Table) -> Result<()> {
    let header: Vec<String> = table
        .columns()
        .iter()
        .map(|c| c.name().to_owned())
        .collect();
    let mut records = Vec::with_capacity(table.row_count() + 1);
    records.push(header);
    for row in table.rows() {
        records.push(row.into_iter().map(str::to_owned).collect());
    }
    crate::csv::write_records(out, &records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::oracle::CsvReader;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lake_loader_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_single_table_with_header() {
        let dir = temp_dir("single");
        let path = dir.join("animals.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "name,locale").unwrap();
        writeln!(f, "Panda,Memphis").unwrap();
        writeln!(f, "Jaguar,\"San Diego\"").unwrap();
        drop(f);

        let table = load_table(&path, LoadOptions::default()).unwrap();
        assert_eq!(table.name(), "animals");
        assert_eq!(table.column_count(), 2);
        assert_eq!(table.row_count(), 2);
        assert!(table
            .column("locale")
            .unwrap()
            .contains_normalized("SAN DIEGO"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_loading_pads_and_truncates_ragged_rows() {
        let dir = temp_dir("ragged");
        let path = dir.join("ragged.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "a,b,c").unwrap();
        writeln!(f, "1,2").unwrap();
        writeln!(f, "1,2,3,4").unwrap();
        drop(f);

        let table = load_table(&path, LoadOptions::default()).unwrap();
        assert_eq!(table.column_count(), 3);
        assert_eq!(table.row_count(), 2);

        let strict = LoadOptions {
            strict: true,
            ..LoadOptions::default()
        };
        assert!(matches!(
            load_table(&path, strict),
            Err(LakeError::RaggedRow { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_header_names_get_placeholders() {
        let dir = temp_dir("header");
        let path = dir.join("h.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "a,,c").unwrap();
        writeln!(f, "1,2,3").unwrap();
        drop(f);
        let table = load_table(&path, LoadOptions::default()).unwrap();
        assert_eq!(table.columns()[1].name(), "column_1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_that_names_a_column_twice_is_a_typed_error() {
        // A placeholder that collides with a real name counts too.
        let dir = temp_dir("twice");
        for header in ["id,name,id", "column_1,"] {
            fs::write(dir.join("t.csv"), format!("{header}\n1,2,3\n")).unwrap();
            let twice = |err: &LakeError| matches!(err, LakeError::DuplicateColumn { table, .. } if table == "t");
            let err = load_table(&dir.join("t.csv"), LoadOptions::default()).unwrap_err();
            assert!(twice(&err), "{header}: {err:?}");
            let err = load_dir(&dir, LoadOptions::default()).unwrap_err();
            assert!(twice(&err), "{header}: {err:?}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_and_reload_round_trips_lake() {
        let dir = temp_dir("roundtrip");
        let lake = crate::fixtures::running_example();
        save_dir(&lake, &dir).unwrap();
        let reloaded = load_dir(&dir, LoadOptions::default()).unwrap();
        assert_eq!(reloaded.table_count(), lake.table_count());
        assert_eq!(reloaded.attribute_count(), lake.attribute_count());
        assert_eq!(reloaded.value_count(), lake.value_count());
        assert!(reloaded.contains_value("JAGUAR"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_ignores_non_csv_files() {
        let dir = temp_dir("mixed");
        fs::write(dir.join("notes.txt"), "not a table").unwrap();
        fs::write(dir.join("t.csv"), "a\n1\n").unwrap();
        let lake = load_dir(&dir, LoadOptions::default()).unwrap();
        assert_eq!(lake.table_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_is_deterministic_order() {
        let dir = temp_dir("order");
        fs::write(dir.join("b.csv"), "x\n1\n").unwrap();
        fs::write(dir.join("a.csv"), "y\n2\n").unwrap();
        let lake = load_dir(&dir, LoadOptions::default()).unwrap();
        assert_eq!(lake.live_table_names(), ["a", "b"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `load_table` as it was before the one-pass parser: the reference
    /// reader's records, padded or truncated, through `Column::new`.
    fn oracle_table(path: &Path, options: LoadOptions) -> Result<Table> {
        let bytes = fs::read(path).unwrap();
        let mut reader = CsvReader::with_options(&bytes[..], options.csv);
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let Some(header) = reader.next_record()? else {
            return Err(LakeError::EmptyTable(name));
        };
        let width = header.len();
        let mut columns: Vec<Vec<String>> = vec![Vec::new(); width];
        let mut row = 0;
        while let Some(mut record) = reader.next_record()? {
            row += 1;
            if record.len() != width && options.strict {
                return Err(LakeError::RaggedRow {
                    table: name,
                    row,
                    expected: width,
                    found: record.len(),
                });
            }
            record.resize(width, String::new());
            for (column, cell) in columns.iter_mut().zip(record) {
                column.push(cell);
            }
        }
        let columns = header
            .into_iter()
            .zip(columns)
            .enumerate()
            .map(|(i, (name, cells))| {
                let name = if name.trim().is_empty() {
                    format!("column_{i}")
                } else {
                    name
                };
                Column::new(name, cells)
            })
            .collect();
        Ok(Table::from_columns(name, columns))
    }

    /// Everything a loaded lake holds, in order, or the error's every field.
    fn contents(lake: &Result<LakeCatalog>) -> String {
        let lake = match lake {
            Ok(lake) => lake,
            Err(err) => return format!("{err:?}"),
        };
        let tables: Vec<_> = lake
            .tables()
            .map(|table| {
                let columns: Vec<_> = table
                    .columns()
                    .iter()
                    .map(|c| {
                        let distinct: Vec<&str> = c.distinct_values().collect();
                        (c.name(), c.dictionary(), c.cell_indices(), distinct)
                    })
                    .collect();
                (table.name(), columns)
            })
            .collect();
        let values: Vec<_> = lake.interner().iter().collect();
        format!("{tables:?} {values:?}")
    }

    /// Seeded directories of files the writer produced (some ragged),
    /// half of them with bad files mixed in — an unterminated quote, a
    /// byte that is not UTF-8, junk after a closing quote, an empty file,
    /// a header that names a column twice.
    /// Strict and lenient, at pool widths 1, 2 and 4, the lake or the
    /// first error equals the reference reader's sequential fold.
    #[test]
    fn load_dir_is_width_invariant_and_matches_the_reference_reader() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const CELLS: [&str; 8] = [
            "Jaguar",
            "jaguar ",
            "é",
            "a,b",
            "say \"hi\"",
            "",
            "two\nlines",
            "x\r",
        ];
        const BAD: [&[u8]; 4] = [b"\"unterminated\n", b"ok,\xFF\n", b"\"x\"y,1\n", b""];
        let mut rng = StdRng::seed_from_u64(0x10AD);
        let (mut lakes, mut errors) = (0, 0);
        for seed in 0..12 {
            let dir = temp_dir(&format!("widths_{seed}"));
            for file in 0..6 {
                let width = rng.gen_range(1..4);
                let mut records: Vec<Vec<String>> = (0..rng.gen_range(1..30))
                    .map(|_| {
                        let len = if rng.gen_bool(0.1) {
                            rng.gen_range(1..6)
                        } else {
                            width
                        };
                        (0..len)
                            .map(|_| CELLS[rng.gen_range(0..CELLS.len())].to_owned())
                            .collect()
                    })
                    .collect();
                // The header names a run of distinct cells, except in the
                // bad file that names its first column twice.
                let start = rng.gen_range(0..CELLS.len());
                for (c, name) in records[0].iter_mut().enumerate() {
                    *name = CELLS[(start + c) % CELLS.len()].to_owned();
                }
                let bad =
                    (seed % 2 == 1 && rng.gen_bool(0.5)).then(|| rng.gen_range(0..BAD.len() + 1));
                if bad == Some(BAD.len()) {
                    let first = records[0][0].clone();
                    records[0].push(first);
                }
                let mut bytes = Vec::new();
                crate::csv::write_records(&mut bytes, &records).unwrap();
                match bad.and_then(|i| BAD.get(i)) {
                    Some([]) => bytes.clear(),
                    Some(bad) => bytes.extend_from_slice(bad),
                    None => {}
                }
                fs::write(dir.join(format!("t{file}.csv")), bytes).unwrap();
            }
            let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            paths.sort();
            for strict in [false, true] {
                let options = LoadOptions {
                    strict,
                    ..LoadOptions::default()
                };
                let oracle = paths.iter().try_fold(LakeCatalog::new(), |mut lake, path| {
                    lake.add_table(oracle_table(path, options)?)?;
                    Ok(lake)
                });
                match &oracle {
                    Ok(_) => lakes += 1,
                    Err(_) => errors += 1,
                }
                let expected = contents(&oracle);
                for threads in [1, 2, 4] {
                    let loaded = load_paths(&paths, options, Pool::new(threads));
                    assert_eq!(
                        contents(&loaded),
                        expected,
                        "seed {seed}, strict {strict}, {threads} threads"
                    );
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
        assert!(lakes >= 4 && errors >= 4, "{lakes} lakes, {errors} errors");
    }
}
