//! Server-side errors.

use std::fmt;

/// Errors from the Kyrix backend.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Propagated storage-engine error.
    Storage(kyrix_storage::StorageError),
    /// Propagated app-compilation error.
    Core(kyrix_core::CoreError),
    /// Misconfiguration (e.g. a box request on a static-tile layer).
    Config(String),
    /// Unknown canvas/layer in a request.
    BadRequest(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Storage(e) => write!(f, "storage: {e}"),
            ServerError::Core(e) => write!(f, "core: {e}"),
            ServerError::Config(m) => write!(f, "config: {m}"),
            ServerError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<kyrix_storage::StorageError> for ServerError {
    fn from(e: kyrix_storage::StorageError) -> Self {
        ServerError::Storage(e)
    }
}

impl From<kyrix_core::CoreError> for ServerError {
    fn from(e: kyrix_core::CoreError) -> Self {
        ServerError::Core(e)
    }
}

/// Result alias for server operations.
pub type Result<T> = std::result::Result<T, ServerError>;
