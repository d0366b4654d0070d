//! One-sample-delay augmentation for event-triggered communication.
//!
//! When a control message travels over the FlexRay dynamic segment, the paper
//! provisions for the worst case by assuming a full sample of
//! sensing-to-actuation delay: at instant `t[k]` the plant receives `u[k−1]`
//! (Eq. 4 of the paper). The standard treatment augments the state with the
//! previously applied input, `z[k] = [x[k]; u[k−1]]`, which turns the delayed
//! plant back into a delay-free LTI system (Eq. 5), so the event-triggered
//! gain `K_E` is an ordinary state feedback over the augmented state.

use cps_linalg::{Matrix, Vector};

use crate::{feedback, ControlError, StateSpace};

/// The delay-augmented model of a single-input plant.
///
/// For a plant `x[k+1] = Φ·x[k] + Γ·u[k−1]` the augmented state
/// `z[k] = [x[k]; u[k−1]]` evolves as
///
/// ```text
/// z[k+1] = A·z[k] + B·u[k],   A = [Φ  Γ]   B = [0]
///                                 [0  0]       [1]
/// ```
///
/// and an event-triggered controller is a gain over the augmented state,
/// `u[k] = −K_E·z[k]`.
///
/// # Example
///
/// ```
/// use cps_control::{DelayAugmented, StateSpace};
/// use cps_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), cps_control::ControlError> {
/// let plant = StateSpace::new(
///     Matrix::from_rows(&[&[0.9]]).unwrap(),
///     Matrix::from_rows(&[&[0.5]]).unwrap(),
///     Matrix::from_rows(&[&[1.0]]).unwrap(),
/// )?;
/// let augmented = DelayAugmented::new(&plant)?;
/// // A − B·K_E = [0.9 0.5; −1.0 −0.4] for K_E = [1.0, 0.4].
/// let a_cl = augmented.closed_loop(&Vector::from_slice(&[1.0, 0.4]))?;
/// assert_eq!(a_cl.dims(), (2, 2));
/// assert_eq!(a_cl[(1, 0)], -1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayAugmented {
    a: Matrix,
    b: Matrix,
}

impl DelayAugmented {
    /// Builds the delay-augmented model of a single-input plant.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::NotSingleInput`] when the plant has more than
    /// one control input.
    pub fn new(plant: &StateSpace) -> Result<Self, ControlError> {
        if plant.input_dim() != 1 {
            return Err(ControlError::NotSingleInput {
                inputs: plant.input_dim(),
            });
        }
        let n = plant.state_dim();
        // A = [Φ Γ; 0 0]
        let top = plant.state_matrix().hstack(plant.input_matrix())?;
        let bottom = Matrix::zeros(1, n + 1);
        let a = top.vstack(&bottom)?;
        // B = [0; …; 0; 1]
        let mut b = Matrix::zeros(n + 1, 1);
        b[(n, 0)] = 1.0;
        Ok(DelayAugmented { a, b })
    }

    /// Closed-loop matrix `A − B·K_E` for an event-triggered gain over the
    /// augmented state.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when the gain length does not equal the
    /// augmented dimension (the plant order plus one).
    pub fn closed_loop(&self, gain: &Vector) -> Result<Matrix, ControlError> {
        feedback::closed_loop_matrix(&self.a, &self.b, gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_plant() -> StateSpace {
        StateSpace::from_slices(&[&[0.9]], &[0.5], &[1.0]).unwrap()
    }

    #[test]
    fn augmented_matrices_have_expected_structure() {
        let aug = DelayAugmented::new(&scalar_plant()).unwrap();
        let a = &aug.a;
        assert_eq!(a.dims(), (2, 2));
        assert_eq!(a[(0, 0)], 0.9);
        assert_eq!(a[(0, 1)], 0.5);
        assert_eq!(a[(1, 0)], 0.0);
        assert_eq!(a[(1, 1)], 0.0);
        assert_eq!(aug.b[(1, 0)], 1.0);
        assert_eq!(aug.b[(0, 0)], 0.0);
    }

    #[test]
    fn augmented_dimension_accounts_for_delayed_input() {
        let plant = StateSpace::from_slices(
            &[&[1.0, 0.1, 0.0], &[0.0, 0.9, 0.1], &[0.0, 0.0, 0.8]],
            &[0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0],
        )
        .unwrap();
        let aug = DelayAugmented::new(&plant).unwrap();
        assert_eq!(aug.a.dims(), (4, 4));
        assert_eq!(aug.b.dims(), (4, 1));
    }

    #[test]
    fn multi_input_plants_are_rejected() {
        let multi = StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 2),
            Matrix::zeros(1, 2),
        )
        .unwrap();
        assert!(matches!(
            DelayAugmented::new(&multi),
            Err(ControlError::NotSingleInput { inputs: 2 })
        ));
    }

    #[test]
    fn augmented_step_reproduces_delayed_plant() {
        // Simulate the delayed recursion directly and through the augmentation.
        let aug = DelayAugmented::new(&scalar_plant()).unwrap();

        let u_sequence = [1.0, -0.5, 0.25, 0.0];
        // Direct: x[k+1] = 0.9 x[k] + 0.5 u[k-1], x[0] = 1, u[-1] = 0.
        let mut x_direct = 1.0;
        let mut u_prev = 0.0;
        // Augmented: z = [x; u_prev], z⁺ = A·z + B·u.
        let mut z = Vector::from_slice(&[1.0, 0.0]);

        for &u in &u_sequence {
            x_direct = 0.9 * x_direct + 0.5 * u_prev;
            u_prev = u;
            let forced = aug.b.mul_vector(&Vector::from_slice(&[u])).unwrap();
            z = &aug.a.mul_vector(&z).unwrap() + &forced;
            assert!((z[0] - x_direct).abs() < 1e-12);
            assert!((z[1] - u_prev).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_loop_of_an_augmented_gain() {
        let aug = DelayAugmented::new(&scalar_plant()).unwrap();
        // A − B·K_E = [0.9 0.5; −K_E].
        let a_cl = aug.closed_loop(&Vector::from_slice(&[1.0, 0.4])).unwrap();
        let expected = Matrix::from_rows(&[&[0.9, 0.5], &[-1.0, -0.4]]).unwrap();
        assert!(a_cl.approx_eq(&expected, 1e-12));
        assert!(aug.closed_loop(&Vector::from_slice(&[1.0])).is_err());
    }
}
