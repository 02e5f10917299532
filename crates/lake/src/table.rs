//! Tables: named collections of equally-long columns.

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::error::LakeError;
use crate::Result;

/// A single table in the data lake.
///
/// Tables are stored column-oriented. All columns of a well-formed table have
/// the same number of rows; [`TableBuilder::build`] enforces this. Attribute
/// names are carried along but nothing in DomainNet relies on them — in a
/// lake they may be `"C1"`, `"column 2"`, or simply wrong.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Construct a table from pre-built columns without validation.
    ///
    /// Prefer [`TableBuilder`]; this constructor is for internal use by the
    /// loader and generators that guarantee rectangular data by construction.
    /// A lake refuses an ill-shaped table ([`Table::validate_shape`]).
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Table {
            name: name.into(),
            columns,
        }
    }

    /// The table name (file stem for loaded CSVs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of columns (attributes).
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows (0 for a table with no columns).
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutable access to the columns (used by homograph injection).
    pub fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Iterate over the rows as vectors of raw cells, each read from its
    /// column's dictionary (a column shorter than the first reads `""`).
    ///
    /// Mostly useful for writing tables back out as CSV; DomainNet itself
    /// never looks at rows.
    pub fn rows(&self) -> impl Iterator<Item = Vec<&str>> + '_ {
        (0..self.row_count()).map(move |r| {
            self.columns
                .iter()
                .map(|c| {
                    c.cell_indices()
                        .get(r)
                        .map_or("", |&ix| &c.dictionary()[ix as usize])
                })
                .collect()
        })
    }

    /// Check the invariants a well-formed table upholds by construction —
    /// every column's dictionary encoding ([`Column::validate_encoding`])
    /// and the table's shape ([`Table::validate_shape`]).
    ///
    /// Tables normally enter the process through [`TableBuilder`] or the
    /// loader, which enforce all of this; a table deserialized from an
    /// untrusted byte stream (a write-ahead-log record) did not, and the
    /// replay path calls this before applying it.
    ///
    /// # Errors
    /// The corresponding [`LakeError`] for the violated invariant.
    pub fn validate_encoding(&self) -> Result<()> {
        for col in &self.columns {
            col.validate_encoding()?;
        }
        self.validate_shape()
    }

    /// Check that the columns are equally long and uniquely named. Every
    /// door into a lake runs it: [`TableBuilder::build`], the CSV loader,
    /// [`MutableLake::add_table`](crate::delta::MutableLake::add_table)
    /// and snapshot decode. `rows()` and CSV write-back would pad or
    /// truncate a ragged table, and a lake holding an ill-shaped table
    /// would write a snapshot that decode refuses.
    ///
    /// # Errors
    /// [`LakeError::ColumnLengthMismatch`] or [`LakeError::DuplicateColumn`].
    pub fn validate_shape(&self) -> Result<()> {
        let expected = self.row_count();
        for col in &self.columns {
            if col.len() != expected {
                return Err(LakeError::ColumnLengthMismatch {
                    table: self.name.clone(),
                    column: col.name().to_owned(),
                    expected,
                    found: col.len(),
                });
            }
        }
        for (i, col) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|c| c.name() == col.name()) {
                return Err(LakeError::DuplicateColumn {
                    table: self.name.clone(),
                    column: col.name().to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Table`] with validation.
///
/// ```
/// use lake::table::TableBuilder;
///
/// let table = TableBuilder::new("zoo")
///     .column("name", ["Panda", "Panda", "Lemur", "Jaguar"])
///     .column("locale", ["Memphis", "Atlanta", "National", "San Diego"])
///     .build()
///     .unwrap();
/// assert_eq!(table.row_count(), 4);
/// assert_eq!(table.column_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start building a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Add a column from any iterator of string-like cells.
    pub fn column<I, S>(mut self, name: impl Into<String>, cells: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        self.columns.push(Column::new(name, cells));
        self
    }

    /// Validate and produce the table.
    ///
    /// # Errors
    /// * [`LakeError::EmptyTable`] if no columns were added.
    /// * [`LakeError::DuplicateColumn`] if two columns share a name.
    /// * [`LakeError::ColumnLengthMismatch`] if column lengths differ.
    pub fn build(self) -> Result<Table> {
        if self.columns.is_empty() {
            return Err(LakeError::EmptyTable(self.name));
        }
        let table = Table::from_columns(self.name, self.columns);
        table.validate_shape()?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_rectangular_table() {
        let t = TableBuilder::new("t")
            .column("a", ["1", "2"])
            .column("b", ["x", "y"])
            .build()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn builder_rejects_empty_table() {
        let err = TableBuilder::new("t").build().unwrap_err();
        assert!(matches!(err, LakeError::EmptyTable(_)));
    }

    #[test]
    fn builder_rejects_length_mismatch() {
        let err = TableBuilder::new("t")
            .column("a", ["1", "2"])
            .column("b", ["x"])
            .build()
            .unwrap_err();
        assert!(matches!(err, LakeError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn builder_rejects_duplicate_column_names() {
        let err = TableBuilder::new("t")
            .column("a", ["1"])
            .column("a", ["2"])
            .build()
            .unwrap_err();
        assert!(matches!(err, LakeError::DuplicateColumn { .. }));
    }

    #[test]
    fn column_lookup_by_name() {
        let t = TableBuilder::new("t")
            .column("a", ["1"])
            .column("b", ["x"])
            .build()
            .unwrap();
        assert!(t.column("a").is_some());
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn rows_iteration_round_trips_cells() {
        let t = TableBuilder::new("t")
            .column("a", ["1", "2"])
            .column("b", ["x", "y"])
            .build()
            .unwrap();
        let rows: Vec<Vec<&str>> = t.rows().collect();
        assert_eq!(rows, vec![vec!["1", "x"], vec!["2", "y"]]);
    }
}
