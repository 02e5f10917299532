//! The typed error surface of the durability subsystem.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors produced while persisting or recovering DomainNet state.
///
/// Every corruption mode the hardening tests exercise — truncated files,
/// flipped bytes, foreign files, future format versions — maps to a typed
/// variant here. The store **never panics** on malformed input and never
/// yields partially loaded state: decoding validates every cross-reference
/// before any lake, graph, or net becomes observable.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error while reading or writing store files.
    Io {
        /// The path involved, when known.
        path: Option<PathBuf>,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A file did not start with the expected magic bytes (it is not a
    /// snapshot / WAL of this store, or its header was corrupted).
    BadMagic {
        /// What the file actually started with.
        found: Vec<u8>,
        /// The magic this reader expected.
        expected: &'static [u8],
    },
    /// The file declares a format version this build does not understand
    /// (e.g. it was written by a newer release).
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
        /// The newest version this build can read.
        supported: u32,
    },
    /// The file ended before a declared structure was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: String,
    },
    /// A section's checksum did not match its payload.
    SectionCrc {
        /// The section whose CRC failed.
        section: &'static str,
    },
    /// The bytes decoded, but a structural invariant or cross-reference
    /// check failed (the typed refusal to yield a half-loaded state).
    Corrupt {
        /// What was inconsistent.
        context: String,
    },
    /// A measure in the file is `LCC(value)`, the value-neighbour LCC
    /// reading, which is retired: a data dir that names it is refused, not
    /// served.
    RetiredLccReading,
    /// Recovery found no snapshot to start from in the directory.
    MissingSnapshot {
        /// The directory that was searched.
        dir: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => match path {
                Some(p) => write!(f, "store I/O error on {}: {source}", p.display()),
                None => write!(f, "store I/O error: {source}"),
            },
            StoreError::BadMagic { found, expected } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            StoreError::Truncated { context } => {
                write!(f, "file truncated while decoding {context}")
            }
            StoreError::SectionCrc { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            StoreError::Corrupt { context } => write!(f, "corrupt store state: {context}"),
            StoreError::RetiredLccReading => write!(
                f,
                "the store names LCC(value), the retired value-neighbour LCC reading; \
                 this build serves only the attribute-set LCC"
            ),
            StoreError::MissingSnapshot { dir } => {
                write!(f, "no usable snapshot found in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(source: io::Error) -> Self {
        StoreError::Io { path: None, source }
    }
}

impl StoreError {
    /// Attach a path to an I/O error for better diagnostics.
    pub fn io_with_path(source: io::Error, path: impl Into<PathBuf>) -> Self {
        StoreError::Io {
            path: Some(path.into()),
            source,
        }
    }

    /// Shorthand for a [`StoreError::Corrupt`] with a formatted context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        StoreError::Corrupt {
            context: context.into(),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = StoreError::SectionCrc { section: "lake" };
        assert!(err.to_string().contains("lake"));
        let err = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(err.to_string().contains('9'));
        let err = StoreError::Truncated {
            context: "section table".into(),
        };
        assert!(err.to_string().contains("section table"));
    }

    #[test]
    fn io_errors_keep_their_source() {
        let err: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&err).is_some());
        let err = StoreError::io_with_path(io::Error::other("denied"), "/tmp/x");
        assert!(err.to_string().contains("/tmp/x"));
    }
}
