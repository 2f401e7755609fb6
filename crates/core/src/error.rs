//! The unified error type of the assembly pipeline.
//!
//! Everything fallible on the way to a [`Study`](crate::Study) — reading
//! files, parsing persisted datasets, validating configuration, resolving
//! user-facing names — funnels into one [`Error`], so binaries report
//! failures instead of unwinding.

use mobilenet_netsim::IngestError;
use mobilenet_traffic::DatasetError;

/// Everything that can go wrong assembling or loading a study.
#[derive(Debug)]
pub enum Error {
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// A persisted dataset CSV failed to parse.
    Dataset(DatasetError),
    /// A configuration failed validation.
    Config(String),
    /// A scale name that is not `small`, `medium`, `france` or `national`.
    UnknownScale(String),
    /// A service name missing from the catalog.
    UnknownService(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Dataset(e) => write!(f, "{e}"),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::UnknownScale(s) => {
                write!(f, "unknown scale {s:?}; use small|medium|france|national")
            }
            Error::UnknownService(s) => write!(f, "unknown service {s:?}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<DatasetError> for Error {
    fn from(e: DatasetError) -> Self {
        Error::Dataset(e)
    }
}

impl From<IngestError> for Error {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Config(msg) => Error::Config(msg),
            IngestError::Shape(e) => Error::Dataset(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = Error::from(DatasetError {
            line: 7,
            message: "bad float".into(),
        });
        assert_eq!(e.to_string(), "dataset line 7: bad float");
        assert!(Error::UnknownScale("big".into())
            .to_string()
            .contains("small|medium|france|national"));
        assert!(Error::Config("negative radius".into())
            .to_string()
            .contains("negative radius"));
    }

    #[test]
    fn ingest_errors_map_onto_existing_variants() {
        let e = Error::from(IngestError::Config(
            "chunk_size must be at least 1 record".into(),
        ));
        assert!(matches!(e, Error::Config(_)));
        let e = Error::from(IngestError::Shape(DatasetError {
            line: 0,
            message: "y".into(),
        }));
        assert!(matches!(e, Error::Dataset(_)));
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(Error::Config("x".into()).source().is_none());
    }
}
