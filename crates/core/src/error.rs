use std::error::Error;
use std::fmt;

use cps_control::ControlError;
use cps_linalg::LinalgError;

/// Errors produced by the switching-strategy and dimensioning routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A required builder field was not supplied.
    MissingField {
        /// Name of the missing builder field.
        field: &'static str,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Human readable description of the problem.
        reason: String,
    },
    /// The application cannot meet its requirement even with a dedicated TT
    /// slot (`J_T > J*`), so the switching strategy is not applicable.
    RequirementInfeasible {
        /// Settling samples with a dedicated TT slot.
        jt: usize,
        /// The requirement in samples.
        jstar: usize,
    },
    /// The closed loop never settled within the simulation horizon.
    DidNotSettle {
        /// The horizon, in samples, that was simulated.
        horizon: usize,
    },
    /// An underlying control-layer operation failed.
    Control(ControlError),
    /// An underlying linear algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingField { field } => {
                write!(f, "missing builder field `{field}`")
            }
            CoreError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            CoreError::RequirementInfeasible { jt, jstar } => write!(
                f,
                "requirement infeasible: dedicated TT settling takes {jt} samples but J* is {jstar}"
            ),
            CoreError::DidNotSettle { horizon } => {
                write!(f, "closed loop did not settle within {horizon} samples")
            }
            CoreError::Control(e) => write!(f, "control error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Control(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ControlError> for CoreError {
    fn from(e: ControlError) -> Self {
        CoreError::Control(e)
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::MissingField { field: "plant" }
            .to_string()
            .contains("plant"));
        assert!(CoreError::RequirementInfeasible { jt: 20, jstar: 10 }
            .to_string()
            .contains("20"));
        assert!(CoreError::DidNotSettle { horizon: 500 }
            .to_string()
            .contains("500"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let e: CoreError = ControlError::NotSingleInput { inputs: 2 }.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = LinalgError::Singular.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::MissingField { field: "x" }).is_none());
    }
}
