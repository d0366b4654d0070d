use std::error::Error;
use std::fmt;

use cps_core::CoreError;

/// Errors produced by the slot-sharing verifier.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The model was built without any applications.
    EmptyModel,
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Human readable description of the problem.
        reason: String,
    },
    /// The exploration exceeded its state budget without a verdict.
    StateBudgetExhausted {
        /// The number of states that was allowed.
        budget: usize,
    },
    /// A counterexample witness failed its replay validation.
    InvalidWitness {
        /// Human readable description of the disagreement.
        reason: String,
    },
    /// An underlying profile/dwell-table operation failed.
    Core(CoreError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyModel => {
                write!(f, "slot-sharing model needs at least one application")
            }
            VerifyError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            VerifyError::StateBudgetExhausted { budget } => {
                write!(f, "verification exceeded the state budget of {budget}")
            }
            VerifyError::InvalidWitness { reason } => {
                write!(f, "witness failed replay validation: {reason}")
            }
            VerifyError::Core(e) => write!(f, "profile error: {e}"),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for VerifyError {
    fn from(e: CoreError) -> Self {
        VerifyError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(VerifyError::EmptyModel.to_string().contains("at least one"));
        assert!(VerifyError::InvalidConfig {
            reason: "zero budget".to_string()
        }
        .to_string()
        .contains("zero budget"));
        assert!(VerifyError::StateBudgetExhausted { budget: 5 }
            .to_string()
            .contains("5"));
    }

    #[test]
    fn core_errors_convert() {
        let e: VerifyError = CoreError::MissingField { field: "plant" }.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&VerifyError::EmptyModel).is_none());
    }
}
