//! Error type for sparse assembly and solves.

use std::fmt;

/// Errors produced by the sparse storage types and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Operand shapes are inconsistent.
    DimensionMismatch {
        /// Human-readable description of the expected/actual shapes.
        detail: String,
    },
    /// A (nearly) zero pivot was hit during a factorization.
    ZeroPivot {
        /// Row/column index of the offending pivot.
        index: usize,
    },
    /// The structural pattern lacks an entry that the algorithm requires
    /// (e.g. a missing diagonal for ILU(0)).
    MissingDiagonal {
        /// Row index with no diagonal entry.
        row: usize,
    },
    /// An iterative solver did not reach the requested tolerance.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual at the final iteration.
        residual: f64,
    },
    /// A numerical breakdown occurred in a Krylov recurrence (e.g. rho = 0).
    Breakdown {
        /// Description of the quantity that vanished.
        detail: String,
    },
    /// A value was assembled at a position that is structurally absent from
    /// a fixed sparsity pattern.
    PatternMismatch {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            SparseError::ZeroPivot { index } => write!(f, "zero pivot at index {index}"),
            SparseError::MissingDiagonal { row } => {
                write!(f, "missing structural diagonal in row {row}")
            }
            SparseError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SparseError::Breakdown { detail } => write!(f, "numerical breakdown: {detail}"),
            SparseError::PatternMismatch { row, col } => write!(
                f,
                "entry ({row}, {col}) is not part of the fixed sparsity pattern"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_reasonably() {
        let e = SparseError::NotConverged {
            iterations: 100,
            residual: 1e-3,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("1.000e-3"));
    }

    #[test]
    fn error_is_send_sync_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SparseError>();
    }
}
