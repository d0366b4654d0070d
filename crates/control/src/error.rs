use std::error::Error;
use std::fmt;

use cps_linalg::LinalgError;

/// Errors produced by the control-system routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// The plant or controller matrices have inconsistent dimensions.
    InconsistentDimensions {
        /// Human readable description of the inconsistency.
        reason: String,
    },
    /// A single-input plant was required (the delay augmentation of the
    /// paper assumes a scalar control input).
    NotSingleInput {
        /// The number of inputs that was found.
        inputs: usize,
    },
    /// An underlying linear algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::InconsistentDimensions { reason } => {
                write!(f, "inconsistent system dimensions: {reason}")
            }
            ControlError::NotSingleInput { inputs } => {
                write!(f, "expected a single-input plant, got {inputs} inputs")
            }
            ControlError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ControlError {
    fn from(e: LinalgError) -> Self {
        ControlError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ControlError::NotSingleInput { inputs: 2 };
        assert!(e.to_string().contains("2 inputs"));
        let e = ControlError::InconsistentDimensions {
            reason: "gain has 3 entries".to_string(),
        };
        assert!(e.to_string().contains("gain has 3 entries"));
    }

    #[test]
    fn linalg_errors_convert_and_expose_source() {
        let inner = LinalgError::Singular;
        let e: ControlError = inner.clone().into();
        assert_eq!(e, ControlError::Linalg(inner));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&ControlError::NotSingleInput { inputs: 2 }).is_none());
    }
}
