//! Error types for the data-lake substrate.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors produced while building, loading, or querying a data lake.
#[derive(Debug)]
pub enum LakeError {
    /// An I/O error occurred while reading or writing lake content.
    Io {
        /// The path involved, when known.
        path: Option<PathBuf>,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A CSV file was malformed (e.g., unbalanced quotes).
    Csv {
        /// 1-based line number at which the problem was detected.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A table had rows whose cell count did not match the header.
    RaggedRow {
        /// The table name.
        table: String,
        /// 1-based row index (excluding the header).
        row: usize,
        /// Number of columns declared by the header.
        expected: usize,
        /// Number of cells found in the offending row.
        found: usize,
    },
    /// A table with the same name was added to the catalog twice.
    DuplicateTable(String),
    /// A table was constructed with no columns.
    EmptyTable(String),
    /// Two columns in the same table share a name.
    DuplicateColumn {
        /// The table name.
        table: String,
        /// The duplicated column name.
        column: String,
    },
    /// Columns within one table had differing lengths.
    ColumnLengthMismatch {
        /// The table name.
        table: String,
        /// The offending column name.
        column: String,
        /// Length of the first column in the table.
        expected: usize,
        /// Length of the offending column.
        found: usize,
    },
    /// A referenced table or attribute does not exist.
    NotFound(String),
    /// A serialization problem (ground truth, experiment output, …).
    Serde(String),
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::Io { path, source } => match path {
                Some(p) => write!(f, "I/O error on {}: {source}", p.display()),
                None => write!(f, "I/O error: {source}"),
            },
            LakeError::Csv { line, message } => {
                write!(f, "malformed CSV at line {line}: {message}")
            }
            LakeError::RaggedRow {
                table,
                row,
                expected,
                found,
            } => write!(
                f,
                "table '{table}' row {row}: expected {expected} cells, found {found}"
            ),
            LakeError::DuplicateTable(name) => {
                write!(f, "a table named '{name}' already exists in the catalog")
            }
            LakeError::EmptyTable(name) => write!(f, "table '{name}' has no columns"),
            LakeError::DuplicateColumn { table, column } => {
                write!(
                    f,
                    "table '{table}' declares column '{column}' more than once"
                )
            }
            LakeError::ColumnLengthMismatch {
                table,
                column,
                expected,
                found,
            } => write!(
                f,
                "table '{table}' column '{column}' has {found} rows but the table has {expected}"
            ),
            LakeError::NotFound(what) => write!(f, "not found: {what}"),
            LakeError::Serde(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for LakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LakeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for LakeError {
    fn from(source: io::Error) -> Self {
        LakeError::Io { path: None, source }
    }
}

impl LakeError {
    /// Attach a path to an I/O error for better diagnostics.
    pub fn io_with_path(source: io::Error, path: impl Into<PathBuf>) -> Self {
        LakeError::Io {
            path: Some(path.into()),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_table_and_row() {
        let err = LakeError::RaggedRow {
            table: "zoo".into(),
            row: 7,
            expected: 3,
            found: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains("zoo"));
        assert!(msg.contains('7'));
        assert!(msg.contains('3'));
        assert!(msg.contains('2'));
    }

    #[test]
    fn io_error_retains_source() {
        let err: LakeError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn io_with_path_mentions_path() {
        let err = LakeError::io_with_path(
            io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
            "/tmp/lake/table.csv",
        );
        assert!(err.to_string().contains("table.csv"));
    }

    #[test]
    fn csv_error_mentions_line() {
        let err = LakeError::Csv {
            line: 42,
            message: "unterminated quote".into(),
        };
        assert!(err.to_string().contains("42"));
        assert!(err.to_string().contains("unterminated quote"));
    }
}
