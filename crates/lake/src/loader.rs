//! Loading a data lake from (and saving it to) a directory of CSV files.
//!
//! Each `.csv` file becomes one [`Table`] whose name is the file stem and
//! whose first record is interpreted as the header (attribute names). Ragged
//! rows — rows with fewer or more cells than the header — are either padded /
//! truncated or rejected depending on [`LoadOptions::strict`]; open-data CSV
//! exports are frequently ragged, so lenient loading is the default.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::catalog::LakeCatalog;
use crate::column::Column;
use crate::csv::{CsvOptions, CsvReader};
use crate::error::LakeError;
use crate::table::Table;
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

/// Parse a single CSV file into a [`Table`] named after its file stem.
pub fn load_table(path: &Path, options: LoadOptions) -> Result<Table> {
    let file = File::open(path).map_err(|e| LakeError::io_with_path(e, path))?;
    let mut reader = CsvReader::with_options(BufReader::new(file), options.csv);
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_owned());

    let header = match reader.next_record()? {
        Some(h) => h,
        None => return Err(LakeError::EmptyTable(name)),
    };
    let width = header.len();
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); width];
    let mut row_idx = 0usize;
    while let Some(mut record) = reader.next_record()? {
        row_idx += 1;
        if record.len() != width {
            if options.strict {
                return Err(LakeError::RaggedRow {
                    table: name,
                    row: row_idx,
                    expected: width,
                    found: record.len(),
                });
            }
            record.resize(width, String::new());
        }
        for (i, cell) in record.into_iter().enumerate().take(width) {
            columns[i].push(cell);
        }
    }

    let columns: Vec<Column> = header
        .into_iter()
        .enumerate()
        .map(|(i, col_name)| {
            let col_name = if col_name.trim().is_empty() {
                format!("column_{i}")
            } else {
                col_name
            };
            Column::new(col_name, std::mem::take(&mut columns[i]))
        })
        .collect();
    Ok(Table::from_columns(name, columns))
}

/// Load every `*.csv` file in a directory (non-recursive) into a lake.
///
/// Files are loaded in lexicographic order so the resulting [`AttrId`]s
/// (and therefore downstream graph node ids) are deterministic.
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

    let mut catalog = LakeCatalog::new();
    for path in paths {
        let table = load_table(&path, options)?;
        catalog.add_table(table)?;
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
}
