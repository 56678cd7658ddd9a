//! Error types for the storage engine.

use std::fmt;

/// Errors produced by the storage engine and its SQL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    UnknownTable(String),
    /// No column with this name in the referenced table.
    UnknownColumn(String),
    /// No index with this name.
    UnknownIndex(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// Row arity or value type does not match the table schema.
    SchemaMismatch(String),
    /// A tuple was too large to fit in a page.
    TupleTooLarge(usize),
    /// SQL lexing error at a byte offset.
    LexError { offset: usize, message: String },
    /// SQL parsing error.
    ParseError(String),
    /// Query planning error (e.g. unsupported construct).
    PlanError(String),
    /// Runtime execution error.
    ExecError(String),
    /// A query parameter `$n` was referenced but not bound.
    MissingParam(usize),
    /// Value decoding failed (corrupt page or schema drift).
    DecodeError(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(n) => write!(f, "table `{n}` already exists"),
            StorageError::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            StorageError::UnknownColumn(n) => write!(f, "unknown column `{n}`"),
            StorageError::UnknownIndex(n) => write!(f, "unknown index `{n}`"),
            StorageError::IndexExists(n) => write!(f, "index `{n}` already exists"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::TupleTooLarge(n) => write!(f, "tuple of {n} bytes exceeds page capacity"),
            StorageError::LexError { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            StorageError::ParseError(m) => write!(f, "parse error: {m}"),
            StorageError::PlanError(m) => write!(f, "plan error: {m}"),
            StorageError::ExecError(m) => write!(f, "execution error: {m}"),
            StorageError::MissingParam(i) => write!(f, "missing query parameter ${i}"),
            StorageError::DecodeError(m) => write!(f, "decode error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
