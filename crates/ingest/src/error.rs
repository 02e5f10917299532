//! Typed errors for the ingest subsystem.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors surfaced by the ingester.
///
/// The variants split along the axis that matters operationally: which
/// failures are retried on the next poll (`Io`, `SinkExhausted`), and which
/// are fatal until an operator intervenes (`Journal` corruption, a batch the
/// engine `Rejected` on its very first delivery attempt).
#[derive(Debug)]
pub enum IngestError {
    /// Filesystem error while scanning, reading, or journalling.
    Io {
        path: Option<PathBuf>,
        source: io::Error,
    },
    /// The resume journal exists but is unreadable: framing damage, checksum
    /// mismatch, or undecodable payload. Recovering automatically would risk
    /// double-applying a batch, so this is fatal.
    Journal { path: PathBuf, message: String },
    /// The sink rejected a batch on its first-ever delivery attempt. The
    /// batch is invalid for the current engine state; it is dropped from the
    /// journal and re-synthesized (and re-rejected, visibly) on later polls
    /// until the conflict is resolved.
    Rejected { seq: u64, message: String },
    /// Every retry of a transiently failing delivery was exhausted. The
    /// batch stays pending in the journal and redelivery resumes on the next
    /// poll.
    SinkExhausted {
        seq: u64,
        attempts: u32,
        message: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, source } => match path {
                Some(path) => write!(f, "ingest io error at {}: {source}", path.display()),
                None => write!(f, "ingest io error: {source}"),
            },
            IngestError::Journal { path, message } => {
                write!(f, "corrupt ingest journal {}: {message}", path.display())
            }
            IngestError::Rejected { seq, message } => {
                write!(f, "batch seq={seq} rejected by sink: {message}")
            }
            IngestError::SinkExhausted {
                seq,
                attempts,
                message,
            } => write!(
                f,
                "batch seq={seq} still failing after {attempts} attempts: {message}"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl IngestError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        IngestError::Io {
            path: Some(path.into()),
            source,
        }
    }
}
