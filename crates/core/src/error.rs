//! Errors for the declarative layer.

use std::fmt;

/// A compile-time diagnostic with a location inside the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Where in the spec, e.g. `canvas `statemap` / layer 1 / placement.x`.
    pub location: String,
    pub message: String,
}

impl CompileError {
    pub fn new(location: impl Into<String>, message: impl Into<String>) -> Self {
        CompileError {
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// Errors surfaced by `kyrix-core` APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Spec validation failed; all diagnostics are included.
    Compile(Vec<CompileError>),
    /// Storage-layer failure.
    Storage(kyrix_storage::StorageError),
    /// Expression failure outside compilation (e.g. runtime eval).
    Expr(kyrix_expr::ExprError),
    /// JSON syntax or shape error.
    Json(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Compile(errs) => {
                writeln!(f, "spec compilation failed with {} error(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Expr(e) => write!(f, "expression error: {e}"),
            CoreError::Json(m) => write!(f, "json error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<kyrix_storage::StorageError> for CoreError {
    fn from(e: kyrix_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<kyrix_expr::ExprError> for CoreError {
    fn from(e: kyrix_expr::ExprError) -> Self {
        CoreError::Expr(e)
    }
}

pub type Result<T> = std::result::Result<T, CoreError>;
