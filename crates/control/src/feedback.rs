//! State-feedback controllers and closed-loop dynamics.

use cps_linalg::{Matrix, Vector};

use crate::{ControlError, StateSpace};

/// A static state-feedback controller `u[k] = −K·x[k]`.
///
/// The gain is stored as a row vector (single-input plants, as in the paper).
/// Applying the controller to a [`StateSpace`] yields the closed-loop state
/// matrix `Φ − Γ·K` whose eigenvalues determine the control performance.
///
/// # Example
///
/// ```
/// use cps_control::{StateFeedback, StateSpace};
/// use cps_linalg::Matrix;
///
/// # fn main() -> Result<(), cps_control::ControlError> {
/// let plant = StateSpace::new(
///     Matrix::from_rows(&[&[1.0]]).unwrap(),
///     Matrix::from_rows(&[&[1.0]]).unwrap(),
///     Matrix::from_rows(&[&[1.0]]).unwrap(),
/// )?;
/// let k = StateFeedback::from_slice(&[0.8]);
/// let a_cl = k.closed_loop(&plant)?;
/// assert!((a_cl[(0, 0)] - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateFeedback {
    gain: Vector,
}

impl StateFeedback {
    /// Creates a controller from a slice of gain entries.
    pub fn from_slice(gain: &[f64]) -> Self {
        StateFeedback {
            gain: Vector::from_slice(gain),
        }
    }

    /// The feedback gain as a row vector.
    pub fn gain(&self) -> &Vector {
        &self.gain
    }

    /// Number of states the controller expects.
    pub fn state_dim(&self) -> usize {
        self.gain.len()
    }

    /// Computes the closed-loop state matrix `Φ − Γ·K` for a single-input
    /// plant.
    ///
    /// # Errors
    ///
    /// * [`ControlError::NotSingleInput`] when the plant has more than one
    ///   input.
    /// * [`ControlError::InconsistentDimensions`] when the gain length does
    ///   not match the plant order.
    pub fn closed_loop(&self, plant: &StateSpace) -> Result<Matrix, ControlError> {
        if plant.input_dim() != 1 {
            return Err(ControlError::NotSingleInput {
                inputs: plant.input_dim(),
            });
        }
        if self.gain.len() != plant.state_dim() {
            return Err(ControlError::InconsistentDimensions {
                reason: format!(
                    "gain has {} entries but the plant has {} states",
                    self.gain.len(),
                    plant.state_dim()
                ),
            });
        }
        let k_row = Matrix::row_from_vector(&self.gain);
        let gk = plant.input_matrix().mul(&k_row)?;
        Ok(plant.state_matrix().sub(&gk)?)
    }
}

/// Computes the closed-loop matrix `A − B·K` for an arbitrary (already
/// augmented) system matrix pair, used by the delay-augmented mode.
///
/// # Errors
///
/// Returns a dimension error when `a`, `b` and `k` are inconsistent.
pub fn closed_loop_matrix(a: &Matrix, b: &Matrix, k: &Vector) -> Result<Matrix, ControlError> {
    if b.cols() != 1 {
        return Err(ControlError::NotSingleInput { inputs: b.cols() });
    }
    if k.len() != a.rows() {
        return Err(ControlError::InconsistentDimensions {
            reason: format!("gain has {} entries, system order is {}", k.len(), a.rows()),
        });
    }
    let bk = b.mul(&Matrix::row_from_vector(k))?;
    Ok(a.sub(&bk)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant() -> StateSpace {
        StateSpace::from_slices(&[&[1.0, 0.1], &[0.0, 1.0]], &[0.005, 0.1], &[1.0, 0.0]).unwrap()
    }

    #[test]
    fn closed_loop_matrix_matches_hand_computation() {
        let k = StateFeedback::from_slice(&[10.0, 5.0]);
        let a_cl = k.closed_loop(&plant()).unwrap();
        // Φ − Γ·K with Γ = [0.005, 0.1]ᵀ and K = [10, 5].
        let expected =
            Matrix::from_rows(&[&[1.0 - 0.05, 0.1 - 0.025], &[-1.0, 1.0 - 0.5]]).unwrap();
        assert!(a_cl.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn closed_loop_rejects_wrong_gain_length() {
        let k = StateFeedback::from_slice(&[1.0]);
        assert!(matches!(
            k.closed_loop(&plant()),
            Err(ControlError::InconsistentDimensions { .. })
        ));
    }

    #[test]
    fn closed_loop_rejects_multi_input_plants() {
        let multi = StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 2),
            Matrix::zeros(1, 2),
        )
        .unwrap();
        let k = StateFeedback::from_slice(&[1.0, 1.0]);
        assert!(matches!(
            k.closed_loop(&multi),
            Err(ControlError::NotSingleInput { inputs: 2 })
        ));
    }

    #[test]
    fn generic_closed_loop_matrix() {
        let a = Matrix::identity(2);
        let b = Matrix::column_from_vector(&Vector::from_slice(&[1.0, 0.0]));
        let k = Vector::from_slice(&[0.5, 0.25]);
        let cl = closed_loop_matrix(&a, &b, &k).unwrap();
        let expected = Matrix::from_rows(&[&[0.5, -0.25], &[0.0, 1.0]]).unwrap();
        assert!(cl.approx_eq(&expected, 1e-12));
        assert!(closed_loop_matrix(&a, &Matrix::zeros(2, 2), &k).is_err());
        assert!(closed_loop_matrix(&a, &b, &Vector::from_slice(&[1.0])).is_err());
    }
}
