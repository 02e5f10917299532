//! Loading a data lake from (and saving it to) a directory of CSV files.
//!
//! Each `.csv` file becomes one [`Table`] whose name is the file stem and
//! whose first record is interpreted as the header (attribute names). Ragged
//! rows — rows with fewer or more cells than the header — are either padded /
//! truncated or rejected depending on [`LoadOptions::strict`]; open-data CSV
//! exports are frequently ragged, so lenient loading is the default.
//!
//! A file is read whole and parsed in one pass ([`crate::csv`]) into a
//! [`ParseScratch`]: per column position, an open-addressing set of the
//! column's distinct cells (the lake's text store's `TextSet`) and its row
//! indices, so only distinct cells are ever copied. The scratch is cleared,
//! not freed, from one file to the next, and each column leaves it as
//! exact-size copies of its dictionary and indices. [`load_dir`] parses its
//! files on a machine-wide [`dn_pool::Pool`] ([`Pool::run_in_order`]),
//! each task taking a scratch an earlier one handed back, so a worker
//! allocates one; the calling thread adds each table as soon as it and
//! every table before it are parsed, so indexing overlaps the parsing of
//! later files, and the lake is the sequential fold's at every width. A
//! column is a handful of buffers of exactly their length, so the tables a
//! worker built pin no measurable share of its malloc arena
//! (ARCHITECTURE.md, "Who allocates what outlives the call").

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dn_pool::Pool;

use crate::catalog::LakeCatalog;
use crate::column::Column;
use crate::csv::{write_record, CsvOptions, Records};
use crate::error::LakeError;
use crate::table::Table;
use crate::texts::TextSet;
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

/// The buffers a parse collects a file's columns in, kept from one file to
/// the next: per column position, the column's distinct cells (a `TextSet`
/// in first-occurrence order) and the dictionary index of every row.
///
/// A parse clears the scratch before it starts, so nothing a parse that
/// failed half way stored reaches the next one, and clearing costs O(what
/// the last file stored). The buffers grow to the widest and longest file parsed and are
/// freed with the scratch, so a caller keeps one for one batch of files:
/// [`load_dir`] one per worker, an ingester one per poll.
#[derive(Debug, Default)]
pub struct ParseScratch {
    columns: Vec<ColumnScratch>,
}

/// One column position of a [`ParseScratch`].
#[derive(Debug, Default)]
struct ColumnScratch {
    cells: TextSet,
    indices: Vec<u32>,
}

impl ParseScratch {
    /// Parse a single CSV file into a [`Table`] named after its file stem.
    pub fn load_table(&mut self, path: &Path, options: LoadOptions) -> Result<Table> {
        let bytes = fs::read(path).map_err(|e| LakeError::io_with_path(e, path))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_owned());
        self.parse_table(name, &bytes, options)
    }

    /// Forget the last file's columns and keep their buffers.
    fn clear(&mut self) {
        for column in &mut self.columns {
            column.cells.clear();
            column.indices.clear();
        }
    }

    /// Parse a CSV document into the scratch's per-column sets, then build
    /// its columns from exact-size copies of them. The entries are
    /// distinct, each referenced by the row that stored it, and every index
    /// is in range, so the columns are built unchecked (and re-checked in
    /// debug builds). A record is checked in full (structure, then UTF-8)
    /// before its width is, and every record before the header names are: a
    /// header that names a column twice is [`LakeError::DuplicateColumn`].
    fn parse_table(&mut self, name: String, bytes: &[u8], options: LoadOptions) -> Result<Table> {
        self.clear();
        let mut records = Records::new(bytes, options.csv);
        let mut fields = Vec::new();
        if !records.next_into(&mut fields)? {
            return Err(LakeError::EmptyTable(name));
        }
        let names: Vec<String> = fields.drain(..).map(|header| header.into_owned()).collect();
        let width = names.len();
        if self.columns.len() < width {
            self.columns.resize_with(width, ColumnScratch::default);
        }
        let columns = &mut self.columns[..width];
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
            for column in columns.iter_mut() {
                let cell = cells.next();
                let (ix, _) = column.cells.insert(cell.as_deref().unwrap_or(""));
                column.indices.push(ix);
            }
        }
        let columns = names
            .into_iter()
            .zip(columns.iter())
            .enumerate()
            .map(|(i, (name, parsed))| {
                let name = if name.trim().is_empty() {
                    format!("column_{i}")
                } else {
                    name
                };
                let column =
                    Column::from_parts(name, parsed.cells.texts().clone(), parsed.indices.clone());
                debug_assert!(column.validate_encoding().is_ok());
                column
            })
            .collect();
        let table = Table::from_columns(name, columns);
        table.validate_shape()?;
        Ok(table)
    }
}

/// Parse a single CSV file into a [`Table`] named after its file stem, with
/// a scratch of its own. A caller parsing many files should hand one
/// [`ParseScratch`] on from file to file instead.
pub fn load_table(path: &Path, options: LoadOptions) -> Result<Table> {
    ParseScratch::default().load_table(path, options)
}

/// Load every `*.csv` file in a directory (non-recursive) into a lake.
///
/// Files are loaded in lexicographic order so the resulting [`AttrId`]s
/// (and therefore downstream graph node ids) are deterministic. They are
/// parsed on a machine-wide pool, and each table is added to the lake as
/// soon as it and every file before it are parsed, while later files still
/// parse; the first error in path order is returned, and stops the load.
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

/// Load `paths` on `pool` and add each table as soon as it and every
/// table before it are parsed, while later files still parse: the lake, or
/// the first error in path order, is the one a sequential fold of
/// [`load_table`] and `add_table` gives, whatever the pool's width.
///
/// The lake keeps only store ids, so each table is dropped once indexed.
/// The tables indexed so far are dropped by the next task, on a worker:
/// freeing a worker's buffers on the calling thread while that worker
/// allocates slowed the serving lake's load by ~30 % (2 cores). Tasks hand
/// their [`ParseScratch`] on, failed parses included, so a worker
/// allocates one.
fn load_paths(paths: &[PathBuf], options: LoadOptions, pool: Pool) -> Result<LakeCatalog> {
    let mut catalog = LakeCatalog::new();
    let spent = Mutex::new(Vec::new());
    let scratches = Mutex::new(Vec::new());
    pool.run_in_order(
        paths.len(),
        |i| {
            drop(std::mem::take(&mut *spent.lock().expect("spent tables")));
            let spare = scratches.lock().expect("parse scratches").pop();
            let mut scratch: ParseScratch = spare.unwrap_or_default();
            let table = scratch.load_table(&paths[i], options);
            scratches.lock().expect("parse scratches").push(scratch);
            table
        },
        |_, table| {
            let table = table?;
            catalog.index_table(&table)?;
            spent.lock().expect("spent tables").push(table);
            Ok::<(), LakeError>(())
        },
    )?;
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
        write_table(&mut writer, &table)?;
        writer
            .flush()
            .map_err(|e| LakeError::io_with_path(e, &path))?;
    }
    Ok(())
}

/// Serialize a single table as CSV (header + rows) to any writer, one
/// record at a time.
pub fn write_table<W: Write>(out: &mut W, table: &Table) -> Result<()> {
    let options = CsvOptions::default();
    write_record(out, table.columns().iter().map(Column::name), options)?;
    table
        .rows()
        .try_for_each(|row| write_record(out, row, options))
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
        let locale = table.column("locale").unwrap().distinct_values();
        assert!(locale.iter().any(|v| v == "SAN DIEGO"), "{locale:?}");
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

    /// An empty line is no record to the parser, so a one-column row of
    /// one empty cell must be written as `""` to come back.
    #[test]
    fn a_one_column_table_with_empty_cells_round_trips() {
        let dir = temp_dir("one_column");
        let mut lake = LakeCatalog::new();
        let table = crate::TableBuilder::new("t")
            .column("c", ["a", "", "b", ""])
            .build()
            .unwrap();
        lake.add_table(table.clone()).unwrap();
        save_dir(&lake, &dir).unwrap();
        for strict in [false, true] {
            let options = LoadOptions {
                strict,
                ..LoadOptions::default()
            };
            let back = load_table(&dir.join("t.csv"), options).unwrap();
            assert_eq!(back.row_count(), table.row_count(), "strict {strict}");
            assert!(back.rows().eq(table.rows()), "strict {strict}");
        }
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

    /// The sink's own error stops the load: `a.CSV` and `a.csv` share the
    /// stem `a`, so adding the second is `DuplicateTable("a")`, the first
    /// error in path order even though `b.csv` after them does not parse.
    /// When the bad file sorts first, its CSV error is the one returned.
    #[test]
    fn a_failing_add_table_stops_the_load_at_every_width() {
        let dir = temp_dir("sink_error");
        fs::write(dir.join("a.CSV"), "x\n1\n").unwrap();
        fs::write(dir.join("a.csv"), "y\n2\n").unwrap();
        fs::write(dir.join("b.csv"), "z\n\"unterminated\n").unwrap();
        let paths =
            |names: &[&str]| -> Vec<PathBuf> { names.iter().map(|n| dir.join(n)).collect() };
        let options = LoadOptions::default();
        for threads in [1, 2, 4] {
            let err = load_paths(
                &paths(&["a.CSV", "a.csv", "b.csv"]),
                options,
                Pool::new(threads),
            )
            .unwrap_err();
            assert!(
                matches!(&err, LakeError::DuplicateTable(name) if name == "a"),
                "{threads} threads: {err:?}"
            );
            let err = load_paths(
                &paths(&["b.csv", "a.CSV", "a.csv"]),
                options,
                Pool::new(threads),
            )
            .unwrap_err();
            assert!(
                matches!(err, LakeError::Csv { .. }),
                "{threads} threads: {err:?}"
            );
        }
        let err = load_dir(&dir, options).unwrap_err();
        assert!(
            matches!(&err, LakeError::DuplicateTable(name) if name == "a"),
            "{err:?}"
        );
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
                        (
                            c.name(),
                            c.dictionary(),
                            c.cell_indices(),
                            c.distinct_values(),
                        )
                    })
                    .collect();
                format!("{:?}", (table.name(), columns))
            })
            .collect();
        format!("{tables:?} {:?}", lake.interner().texts())
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

    /// A parsed table's every part, or the error's every field.
    fn parsed(table: &Result<Table>) -> String {
        match table {
            Ok(table) => {
                let columns: Vec<_> = table
                    .columns()
                    .iter()
                    .map(|c| {
                        c.validate_encoding().unwrap();
                        (c.name(), c.dictionary(), c.cell_indices())
                    })
                    .collect();
                format!("{:?}", (table.name(), columns))
            }
            Err(err) => format!("{err:?}"),
        }
    }

    /// Parse `doc` with `scratch` and with a fresh scratch: the same table,
    /// or the same error.
    fn parse_as_fresh(
        scratch: &mut ParseScratch,
        doc: &[u8],
        options: LoadOptions,
    ) -> Result<Table> {
        let reused = scratch.parse_table("t".to_owned(), doc, options);
        let fresh = ParseScratch::default().parse_table("t".to_owned(), doc, options);
        let doc = String::from_utf8_lossy(doc);
        assert_eq!(parsed(&reused), parsed(&fresh), "{doc:?}");
        reused
    }

    /// One scratch through documents that differ in every way a scratch
    /// could carry over — width, length, raggedness, owned cells, a header
    /// alone, a failed parse, a table that grows mid-file — parses each as
    /// a fresh one does.
    #[test]
    fn a_reused_parse_scratch_parses_as_a_fresh_one() {
        let lenient = LoadOptions::default();
        let strict = LoadOptions {
            strict: true,
            ..LoadOptions::default()
        };
        let mut wide = String::from("a,b,c,d,e,f\n");
        for row in 0..400 {
            let cells: Vec<String> = (0..6)
                .map(|c| format!("v{}", (row * (c + 1)) % 97))
                .collect();
            wide.push_str(&cells.join(","));
            wide.push('\n');
        }
        // Column `id` stores a new cell every row: its table grows mid-file.
        let mut growing = String::from("id,kind\n");
        for row in 0..300 {
            growing.push_str(&format!("r{row},{}\n", ["x", "y"][row % 2]));
        }
        let docs: [(&str, LoadOptions, bool); 9] = [
            (&wide, lenient, true),
            ("v1,v2\nv1,v95\nv3,v1\n", lenient, true),
            ("a,b,c\n1,2\n1,2,3,4\n,,\n5\n", lenient, true),
            (
                "q,\"r\"\n\"say \"\"hi\"\"\",\n,\"\"\n\"say \"\"hi\"\"\",\"a,b\"\n",
                lenient,
                true,
            ),
            ("only,a,header\n", lenient, true),
            ("a,b\nv1,v2\nv3,v4\nv5\nv6,v7\n", strict, false),
            ("a,b\nv3,v4\nv1,v2\n", strict, true),
            (&growing, strict, true),
            ("v1\nv1\n", lenient, true),
        ];
        let mut scratch = ParseScratch::default();
        for (doc, options, ok) in docs {
            let table = parse_as_fresh(&mut scratch, doc.as_bytes(), options);
            assert_eq!(table.is_ok(), ok, "{doc:?}: {table:?}");
        }
        // Every document again, in reverse, on the same scratch.
        for (doc, options, ok) in docs.iter().rev() {
            let table = parse_as_fresh(&mut scratch, doc.as_bytes(), *options);
            assert_eq!(table.is_ok(), *ok, "{doc:?}: {table:?}");
        }
    }

    /// After a large file, the clear that follows a small one leaves every
    /// slot table within a multiple of what the small file stored.
    #[test]
    fn a_small_files_clear_releases_a_large_files_slot_table() {
        let mut large = String::from("a,b\n");
        for row in 0..5_000 {
            large.push_str(&format!("{row},{}\n", row % 3));
        }
        let small = "a,b,c\n1,2,3\n4,2,3\n";
        let mut scratch = ParseScratch::default();
        parse_as_fresh(&mut scratch, large.as_bytes(), LoadOptions::default()).unwrap();
        let slots = |scratch: &ParseScratch| -> Vec<usize> {
            let columns = scratch.columns.iter();
            columns.map(|column| column.cells.slot_count()).collect()
        };
        assert!(slots(&scratch)[0] >= 10_000, "{:?}", slots(&scratch));
        for _ in 0..2 {
            parse_as_fresh(&mut scratch, small.as_bytes(), LoadOptions::default()).unwrap();
            let stored: Vec<usize> = scratch.columns.iter().map(|c| c.cells.len()).collect();
            scratch.clear();
            for (column, (slots, stored)) in slots(&scratch).into_iter().zip(stored).enumerate() {
                assert!(
                    slots <= 8 * stored.max(2),
                    "column {column}: {slots} slots after a file of {stored} cells"
                );
            }
        }
    }

    /// The CSV parser's hostile documents, strict and lenient, through one
    /// reused scratch and through a fresh one each: the same table or error.
    #[test]
    fn hostile_documents_parse_alike_through_a_reused_scratch() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C8A);
        let mut scratch = ParseScratch::default();
        let (mut tables, mut errors) = (0, 0);
        for _ in 0..4_000 {
            let doc = crate::csv::oracle::hostile_document(&mut rng);
            for strict in [false, true] {
                let options = LoadOptions {
                    strict,
                    ..LoadOptions::default()
                };
                match parse_as_fresh(&mut scratch, &doc, options) {
                    Ok(_) => tables += 1,
                    Err(_) => errors += 1,
                }
            }
        }
        assert!(
            tables >= 1_000 && errors >= 1_000,
            "{tables} tables, {errors} errors"
        );
    }
}
