//! The workspace-wide error type.
//!
//! `dbat-workload` sits at the bottom of the crate DAG, so every layer
//! (sim, analytic, core, bench, the `deepbat` facade) can speak
//! [`DbatError`] without introducing a cycle. Public constructors and
//! loaders that used to panic on bad input now return
//! `Result<_, DbatError>`; the panicking convenience constructors remain
//! as thin `expect` wrappers for infallible call sites.

use crate::map::MapError;
use std::fmt;

/// Unified error for fallible public APIs across the workspace.
#[derive(Debug)]
pub enum DbatError {
    /// A serverless/simulation configuration failed validation
    /// (`LambdaConfig`, `SimConfig`, `FaultPlan`, …).
    InvalidConfig(String),
    /// A model/generator parameter is out of its mathematical domain
    /// (MMPP rates, trace generator settings, …).
    InvalidParameter(String),
    /// An underlying I/O operation failed (model save/load, trace files).
    Io(std::io::Error),
    /// Stored data could not be decoded (surrogate weights, JSON traces).
    Parse(String),
}

impl DbatError {
    /// Shorthand used by validators.
    pub fn config(msg: impl Into<String>) -> Self {
        DbatError::InvalidConfig(msg.into())
    }

    /// Shorthand used by parameter checks.
    pub(crate) fn parameter(msg: impl Into<String>) -> Self {
        DbatError::InvalidParameter(msg.into())
    }
}

impl fmt::Display for DbatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbatError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            DbatError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            DbatError::Io(e) => write!(f, "io error: {e}"),
            DbatError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for DbatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DbatError {
    fn from(e: std::io::Error) -> Self {
        DbatError::Io(e)
    }
}

impl From<MapError> for DbatError {
    fn from(e: MapError) -> Self {
        DbatError::InvalidParameter(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbatError::config("batch size must be >= 1");
        assert!(e.to_string().contains("batch size"));
        let e = DbatError::parameter("idc must exceed 1");
        assert!(e.to_string().contains("idc"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: DbatError = io.into();
        assert!(matches!(e, DbatError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn map_errors_convert() {
        let e: DbatError = MapError::Reducible.into();
        assert!(matches!(e, DbatError::InvalidParameter(_)));
        assert!(e.to_string().contains("reducible"));
    }
}
