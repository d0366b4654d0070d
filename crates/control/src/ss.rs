//! Discrete-time linear time-invariant state-space models.

use cps_linalg::{Matrix, Vector};

use crate::ControlError;

/// A discrete-time LTI plant
/// `x[k+1] = Φ·x[k] + Γ·u[k]`, `y[k] = C·x[k]`.
///
/// The matrices use the paper's notation: `Φ` (phi) is the state transition
/// matrix, `Γ` (gamma) the input matrix and `C` the output matrix. The type is
/// immutable after construction; every accessor borrows the stored matrices.
///
/// # Example
///
/// ```
/// use cps_control::StateSpace;
/// use cps_linalg::Matrix;
///
/// # fn main() -> Result<(), cps_control::ControlError> {
/// let plant = StateSpace::new(
///     Matrix::from_rows(&[&[0.9, 0.1], &[0.0, 0.8]]).unwrap(),
///     Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap(),
///     Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
/// )?;
/// assert_eq!(plant.state_dim(), 2);
/// assert_eq!(plant.input_dim(), 1);
/// assert_eq!(plant.output_dim(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    phi: Matrix,
    gamma: Matrix,
    c: Matrix,
}

impl StateSpace {
    /// Creates a new state-space model, validating dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InconsistentDimensions`] when `Φ` is not
    /// square, `Γ` has a different number of rows than `Φ`, or `C` has a
    /// different number of columns than `Φ`.
    pub fn new(phi: Matrix, gamma: Matrix, c: Matrix) -> Result<Self, ControlError> {
        if !phi.is_square() {
            return Err(ControlError::InconsistentDimensions {
                reason: format!("state matrix must be square, got {:?}", phi.dims()),
            });
        }
        if gamma.rows() != phi.rows() {
            return Err(ControlError::InconsistentDimensions {
                reason: format!(
                    "input matrix has {} rows but the state dimension is {}",
                    gamma.rows(),
                    phi.rows()
                ),
            });
        }
        if c.cols() != phi.rows() {
            return Err(ControlError::InconsistentDimensions {
                reason: format!(
                    "output matrix has {} columns but the state dimension is {}",
                    c.cols(),
                    phi.rows()
                ),
            });
        }
        Ok(StateSpace { phi, gamma, c })
    }

    /// Convenience constructor for single-input single-output plants given as
    /// row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InconsistentDimensions`] when the slices do not
    /// form a consistent system.
    pub fn from_slices(
        phi_rows: &[&[f64]],
        gamma_column: &[f64],
        c_row: &[f64],
    ) -> Result<Self, ControlError> {
        let phi = Matrix::from_rows(phi_rows).map_err(ControlError::from)?;
        let gamma = Matrix::column_from_vector(&Vector::from_slice(gamma_column));
        let c = Matrix::row_from_vector(&Vector::from_slice(c_row));
        StateSpace::new(phi, gamma, c)
    }

    /// Number of plant states.
    pub fn state_dim(&self) -> usize {
        self.phi.rows()
    }

    /// Number of control inputs.
    pub fn input_dim(&self) -> usize {
        self.gamma.cols()
    }

    /// Number of measured outputs.
    pub fn output_dim(&self) -> usize {
        self.c.rows()
    }

    /// The state transition matrix `Φ`.
    pub fn state_matrix(&self) -> &Matrix {
        &self.phi
    }

    /// The input matrix `Γ`.
    pub fn input_matrix(&self) -> &Matrix {
        &self.gamma
    }

    /// The output matrix `C`.
    pub fn output_matrix(&self) -> &Matrix {
        &self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_integrator_like() -> StateSpace {
        StateSpace::from_slices(&[&[1.0, 0.1], &[0.0, 1.0]], &[0.005, 0.1], &[1.0, 0.0]).unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(StateSpace::new(
            Matrix::zeros(2, 3),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(3, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 3)
        )
        .is_err());
        assert!(StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_ok());
    }

    #[test]
    fn dimensions_are_reported() {
        let sys = double_integrator_like();
        assert_eq!(sys.state_dim(), 2);
        assert_eq!(sys.input_dim(), 1);
        assert_eq!(sys.output_dim(), 1);
    }

    #[test]
    fn from_slices_builds_column_and_row_shapes() {
        let sys = double_integrator_like();
        assert_eq!(sys.input_matrix().dims(), (2, 1));
        assert_eq!(sys.output_matrix().dims(), (1, 2));
    }
}
