//! The unified PHOcus error type.
//!
//! Every fallible system-level operation — dataset parsing, representation,
//! planning, solving — returns [`PhocusError`], which wraps the per-layer
//! error enums (`par_core::ModelError`, `par_datasets::DatasetError`,
//! `par_lsh::LshError`, `par_algo::SolveError`) via `From`, so `?` composes
//! across crate boundaries and the CLI can print one diagnostic per failure
//! instead of panicking.

use par_algo::SolveError;
use par_core::{ModelError, PackError};
use par_datasets::DatasetError;
use par_lsh::LshError;
use std::fmt;

/// Convenience result alias for PHOcus operations.
pub type Result<T> = std::result::Result<T, PhocusError>;

/// Any error a PHOcus pipeline stage can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum PhocusError {
    /// A model-layer violation (unknown photo, infeasible budget, cost
    /// overflow, …).
    Model(ModelError),
    /// A dataset-layer failure (parse error, invalid universe, …).
    Dataset(DatasetError),
    /// An LSH planning failure (bad threshold or recall target).
    Lsh(LshError),
    /// A solver-layer failure (bad cardinality or ε).
    Solve(SolveError),
    /// A `phocus-pack` file failed to load (truncation, checksum mismatch,
    /// version skew, malformed section, …).
    Pack(PackError),
    /// A catalog index is unusable: malformed line, missing pack file, or a
    /// content checksum that no longer matches the pack on disk.
    Catalog {
        /// The catalog path (or entry) that failed.
        entry: String,
        /// What was wrong with it.
        message: String,
    },
    /// A [`RepresentationConfig`](crate::RepresentationConfig) field that
    /// LSH sparsification cannot honour: it hashes contextual embeddings and
    /// never evaluates a pair distance, so there is nothing to mix EXIF into
    /// or to normalize per context.
    UnsupportedWithLsh {
        /// The configuration field.
        field: &'static str,
    },
    /// The budget-planner quality target is outside `(0, 1]` (or NaN).
    InvalidTarget(f64),
    /// A compression [`ActionLadder`](crate::ActionLadder) level is unusable:
    /// a `size_fraction`/`quality` outside `(0, 1)` (or non-finite), or a
    /// `--ladder` spec entry that does not parse as `quality:size_fraction`.
    InvalidLadder {
        /// The 0-based ladder level (or spec entry) that failed.
        level: usize,
        /// What was wrong with it.
        message: String,
    },
    /// An I/O failure while reading an input file (CLI layer).
    Io {
        /// The path that failed.
        path: String,
        /// The underlying OS error message.
        message: String,
    },
}

impl fmt::Display for PhocusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhocusError::Model(e) => write!(f, "{e}"),
            PhocusError::Dataset(e) => write!(f, "{e}"),
            PhocusError::Lsh(e) => write!(f, "{e}"),
            PhocusError::Solve(e) => write!(f, "{e}"),
            PhocusError::Pack(e) => write!(f, "{e}"),
            PhocusError::Catalog { entry, message } => {
                write!(f, "catalog {entry}: {message}")
            }
            PhocusError::UnsupportedWithLsh { field } => {
                write!(f, "representation field `{field}` is not supported with LSH sparsification")
            }
            PhocusError::InvalidTarget(t) => {
                write!(f, "quality target {t} is not in (0, 1]")
            }
            PhocusError::InvalidLadder { level, message } => {
                write!(f, "ladder level {level}: {message}")
            }
            PhocusError::Io { path, message } => {
                write!(f, "cannot read {path}: {message}")
            }
        }
    }
}

impl std::error::Error for PhocusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhocusError::Model(e) => Some(e),
            PhocusError::Dataset(e) => Some(e),
            PhocusError::Lsh(e) => Some(e),
            PhocusError::Solve(e) => Some(e),
            PhocusError::Pack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for PhocusError {
    fn from(e: ModelError) -> Self {
        PhocusError::Model(e)
    }
}

impl From<DatasetError> for PhocusError {
    fn from(e: DatasetError) -> Self {
        PhocusError::Dataset(e)
    }
}

impl From<LshError> for PhocusError {
    fn from(e: LshError) -> Self {
        PhocusError::Lsh(e)
    }
}

impl From<SolveError> for PhocusError {
    fn from(e: SolveError) -> Self {
        PhocusError::Solve(e)
    }
}

impl From<PackError> for PhocusError {
    fn from(e: PackError) -> Self {
        PhocusError::Pack(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer() {
        let m: PhocusError = ModelError::CostOverflow.into();
        assert!(m.to_string().contains("overflow"));
        let d: PhocusError = DatasetError::CostOverflow.into();
        assert!(matches!(d, PhocusError::Dataset(_)));
        let l: PhocusError = LshError::InvalidTau(2.0).into();
        assert!(l.to_string().contains("τ"));
        let s: PhocusError = SolveError::InvalidCardinality(0).into();
        assert!(matches!(s, PhocusError::Solve(_)));
    }

    #[test]
    fn sources_chain_to_the_wrapped_error() {
        let e: PhocusError = ModelError::CostOverflow.into();
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_some());
        let io = PhocusError::Io {
            path: "x.tsv".into(),
            message: "no such file".into(),
        };
        assert!(io.to_string().contains("x.tsv"));
        let dyn_io: &dyn std::error::Error = &io;
        assert!(dyn_io.source().is_none());
    }

    #[test]
    fn invalid_ladder_names_the_level() {
        let e = PhocusError::InvalidLadder {
            level: 2,
            message: "quality 1.5 is not in (0, 1)".into(),
        };
        assert!(e.to_string().contains("ladder level 2"));
        assert!(e.to_string().contains("1.5"));
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_none());
    }
}
