//! Error type for the storage layer.

use std::fmt;
use std::io;

use sqlsem_core::{EvalError, SchemaError};

/// Errors raised while persisting or recovering a database.
///
/// A truncated or checksum-corrupt *WAL tail* is deliberately **not** an
/// error — that is the expected shape of a crash, and recovery stops at
/// the first bad record. `Corrupt` is reserved for the checkpoint file,
/// whose write is atomic (temp file + rename): damage there means the
/// file was tampered with or the medium failed, not that we crashed.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The checkpoint file is malformed (bad magic, impossible page
    /// references, undecodable catalog or row bytes).
    Corrupt(String),
    /// A recovered WAL record did not apply cleanly to the database it
    /// was replayed against — the log and checkpoint disagree.
    Replay(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            StorageError::Replay(what) => write!(f, "WAL replay failed: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Why a [`crate::WalOp`] did not apply to a database: the typed verdict
/// the database itself raised. A live statement reports it to its
/// writer; recovery, where a committed record must never fail to
/// apply, folds it into [`StorageError::Replay`].
#[derive(Debug)]
pub enum ApplyError {
    /// DDL violated schema well-formedness.
    Schema(SchemaError),
    /// DML failed validation (unknown table, arity mismatch…).
    Eval(EvalError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Schema(e) => e.fmt(f),
            ApplyError::Eval(e) => e.fmt(f),
        }
    }
}

impl From<SchemaError> for ApplyError {
    fn from(e: SchemaError) -> Self {
        ApplyError::Schema(e)
    }
}

impl From<EvalError> for ApplyError {
    fn from(e: EvalError) -> Self {
        ApplyError::Eval(e)
    }
}

impl From<ApplyError> for StorageError {
    fn from(e: ApplyError) -> Self {
        StorageError::Replay(e.to_string())
    }
}
