//! Error type shared by all matrix kernels.

use std::fmt;

/// Errors produced by matrix kernels and decompositions.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// The operation that failed.
        op: &'static str,
        /// Left operand shape.
        lhs: (usize, usize),
        /// Right operand shape.
        rhs: (usize, usize),
    },
    /// Operation requires a square matrix.
    NotSquare {
        /// The operation that failed.
        op: &'static str,
        /// The offending shape.
        shape: (usize, usize),
    },
    /// Matrix is singular (or numerically singular) where invertibility is required.
    Singular {
        /// The operation that failed.
        op: &'static str,
    },
    /// Matrix is not symmetric positive definite where SPD is required.
    NotPositiveDefinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(f, "{op} requires a square matrix, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular { op } => write!(f, "singular matrix in {op}"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
