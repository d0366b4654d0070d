use std::error::Error;
use std::fmt;

/// Errors produced by the linear algebra routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Name of the operation that was attempted (e.g. `"mul"`).
        operation: &'static str,
        /// Dimensions of the left-hand operand as `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right-hand operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Dimensions of the offending matrix as `(rows, cols)`.
        dims: (usize, usize),
    },
    /// The matrix is singular (or numerically indistinguishable from singular).
    Singular,
    /// The requested construction had inconsistent row lengths or was empty.
    InvalidShape {
        /// Human readable description of what was wrong with the shape.
        reason: String,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    ConvergenceFailure {
        /// Name of the algorithm that failed (e.g. `"qr eigenvalues"`).
        algorithm: &'static str,
        /// Number of iterations that were performed before giving up.
        iterations: usize,
    },
    /// The matrix was expected to be symmetric but is not.
    NotSymmetric,
    /// The matrix is not positive definite (Cholesky factorization failed).
    NotPositiveDefinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "dimension mismatch in `{operation}`: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "expected a square matrix, got {}x{}", dims.0, dims.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular or nearly singular"),
            LinalgError::InvalidShape { reason } => write!(f, "invalid matrix shape: {reason}"),
            LinalgError::ConvergenceFailure {
                algorithm,
                iterations,
            } => write!(
                f,
                "`{algorithm}` failed to converge after {iterations} iterations"
            ),
            LinalgError::NotSymmetric => write!(f, "matrix is not symmetric"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            operation: "mul",
            left: (2, 3),
            right: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("mul"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn display_singular() {
        assert_eq!(
            LinalgError::Singular.to_string(),
            "matrix is singular or nearly singular"
        );
    }

    #[test]
    fn display_convergence_failure_mentions_algorithm() {
        let err = LinalgError::ConvergenceFailure {
            algorithm: "qr eigenvalues",
            iterations: 500,
        };
        assert!(err.to_string().contains("qr eigenvalues"));
        assert!(err.to_string().contains("500"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error>() {}
        assert_error::<LinalgError>();
    }
}
