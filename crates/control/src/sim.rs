//! Closed-loop trajectory simulation.

use cps_linalg::{Matrix, Vector};

use crate::{ControlError, StateFeedback, StateSpace};

/// A simulated closed-loop trajectory: the state sequence and the associated
/// scalar output sequence.
///
/// The first entry of both sequences is the initial condition (sample `k = 0`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    states: Vec<Vector>,
    outputs: Vec<f64>,
}

impl Trajectory {
    /// Creates a trajectory from pre-computed states and outputs.
    ///
    /// # Panics
    ///
    /// Panics if the two sequences have different lengths.
    pub fn new(states: Vec<Vector>, outputs: Vec<f64>) -> Self {
        assert_eq!(
            states.len(),
            outputs.len(),
            "states and outputs must have the same length"
        );
        Trajectory { states, outputs }
    }

    /// The state at each sample.
    pub fn states(&self) -> &[Vector] {
        &self.states
    }

    /// The scalar output at each sample.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// Number of samples in the trajectory (including the initial condition).
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Returns `true` when the trajectory holds no samples.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Largest absolute output over the whole trajectory.
    pub fn peak_output(&self) -> f64 {
        self.outputs.iter().fold(0.0_f64, |acc, y| acc.max(y.abs()))
    }
}

/// Extracts the scalar output `C·x` from a (possibly augmented) state.
///
/// `c` may have fewer columns than `x` has entries; the extra entries (e.g.
/// the stored previous input of a delay augmentation) are ignored. This
/// mirrors the paper where the performance output is always the physical
/// plant output.
fn scalar_output(c: &Matrix, x: &Vector) -> Result<f64, ControlError> {
    if c.rows() != 1 {
        return Err(ControlError::InconsistentDimensions {
            reason: format!("expected a single-output plant, C has {} rows", c.rows()),
        });
    }
    if c.cols() > x.len() {
        return Err(ControlError::InconsistentDimensions {
            reason: format!(
                "output matrix expects {} states, state has {}",
                c.cols(),
                x.len()
            ),
        });
    }
    let mut y = 0.0;
    for j in 0..c.cols() {
        y += c[(0, j)] * x[j];
    }
    Ok(y)
}

/// Simulates the autonomous system `x[k+1] = A·x[k]` for `samples` steps and
/// records the scalar output `y = C·x` (ignoring augmented entries beyond the
/// columns of `C`).
///
/// The returned trajectory has `samples + 1` entries: the initial condition
/// plus one entry per step.
///
/// # Errors
///
/// Returns [`ControlError::InvalidParameter`] for a zero-length horizon and
/// dimension errors when `a`, `c` and `x0` are inconsistent.
///
/// # Example
///
/// ```
/// use cps_control::sim::simulate_autonomous;
/// use cps_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), cps_control::ControlError> {
/// let a = Matrix::from_rows(&[&[0.5]]).unwrap();
/// let c = Matrix::from_rows(&[&[1.0]]).unwrap();
/// let trajectory = simulate_autonomous(&a, &c, &Vector::from_slice(&[1.0]), 3)?;
/// assert_eq!(trajectory.outputs(), &[1.0, 0.5, 0.25, 0.125]);
/// # Ok(())
/// # }
/// ```
pub fn simulate_autonomous(
    a: &Matrix,
    c: &Matrix,
    x0: &Vector,
    samples: usize,
) -> Result<Trajectory, ControlError> {
    let y0 = scalar_output(c, x0)?;
    if samples == 0 {
        return Err(ControlError::InvalidParameter {
            reason: "simulation horizon must be at least one sample".to_string(),
        });
    }
    if !a.is_square() || a.cols() != x0.len() {
        return Err(ControlError::InconsistentDimensions {
            reason: format!(
                "transition matrix is {}x{}, state has {} entries",
                a.rows(),
                a.cols(),
                x0.len()
            ),
        });
    }
    let mut states = Vec::with_capacity(samples + 1);
    let mut outputs = Vec::with_capacity(samples + 1);
    let mut cursor = x0.clone();
    let mut scratch = x0.clone();
    states.push(x0.clone());
    outputs.push(y0);
    for _ in 0..samples {
        a.gemv_into(&cursor, &mut scratch)?;
        std::mem::swap(&mut cursor, &mut scratch);
        outputs.push(scalar_output(c, &cursor)?);
        states.push(cursor.clone());
    }
    Ok(Trajectory { states, outputs })
}

/// Simulates the plant in closed loop with a delay-free state-feedback
/// controller (`u[k] = −K·x[k]` applied within the same sample), the paper's
/// time-triggered mode `M_T`.
///
/// # Errors
///
/// Returns dimension errors when the controller does not match the plant and
/// [`ControlError::InvalidParameter`] for a zero-length horizon.
pub fn simulate_closed_loop(
    plant: &StateSpace,
    controller: &StateFeedback,
    x0: &Vector,
    samples: usize,
) -> Result<Trajectory, ControlError> {
    let a_cl = controller.closed_loop(plant)?;
    simulate_autonomous(&a_cl, plant.output_matrix(), x0, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant() -> StateSpace {
        StateSpace::from_slices(&[&[1.0, 0.1], &[0.0, 1.0]], &[0.005, 0.1], &[1.0, 0.0]).unwrap()
    }

    #[test]
    fn trajectory_accessors() {
        let t = Trajectory::new(
            vec![Vector::from_slice(&[1.0]), Vector::from_slice(&[0.5])],
            vec![1.0, 0.5],
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.peak_output(), 1.0);
        assert_eq!(t.states().len(), 2);
        assert!(Trajectory::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn trajectory_rejects_mismatched_lengths() {
        let _ = Trajectory::new(vec![Vector::from_slice(&[1.0])], vec![1.0, 0.5]);
    }

    #[test]
    fn autonomous_simulation_of_scalar_decay() {
        let a = Matrix::from_rows(&[&[0.5]]).unwrap();
        let c = Matrix::identity(1);
        let t = simulate_autonomous(&a, &c, &Vector::from_slice(&[8.0]), 3).unwrap();
        assert_eq!(t.outputs(), &[8.0, 4.0, 2.0, 1.0]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn autonomous_simulation_rejects_zero_horizon() {
        let a = Matrix::identity(1);
        assert!(matches!(
            simulate_autonomous(&a, &a, &Vector::from_slice(&[1.0]), 0),
            Err(ControlError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn output_ignores_augmented_entries() {
        // C has 1 column but the state has 2 entries (augmented input).
        let a = Matrix::from_rows(&[&[0.5, 0.1], &[0.0, 0.0]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0]]).unwrap();
        let t = simulate_autonomous(&a, &c, &Vector::from_slice(&[1.0, 3.0]), 1).unwrap();
        assert_eq!(t.outputs()[0], 1.0);
        assert!((t.outputs()[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn output_validates_dimensions() {
        let a = Matrix::identity(1);
        let c_two_rows = Matrix::zeros(2, 1);
        assert!(simulate_autonomous(&a, &c_two_rows, &Vector::from_slice(&[1.0]), 1).is_err());
        let c_wide = Matrix::zeros(1, 3);
        assert!(simulate_autonomous(&a, &c_wide, &Vector::from_slice(&[1.0]), 1).is_err());
    }

    #[test]
    fn autonomous_simulation_rejects_a_mismatched_transition_matrix() {
        let c = Matrix::identity(1);
        let x0 = Vector::from_slice(&[1.0]);
        let wide = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let too_big = Matrix::identity(2);
        for a in [wide, too_big] {
            assert!(matches!(
                simulate_autonomous(&a, &c, &x0, 5),
                Err(ControlError::InconsistentDimensions { .. })
            ));
        }
    }

    #[test]
    fn closed_loop_simulation_converges_for_stabilizing_gain() {
        let controller = StateFeedback::from_slice(&[60.0, 15.0]);
        let t = simulate_closed_loop(&plant(), &controller, &Vector::from_slice(&[1.0, 0.0]), 200)
            .unwrap();
        assert!(t.outputs().last().unwrap().abs() < 1e-3);
        assert_eq!(t.len(), 201);
    }

    #[test]
    fn closed_loop_simulation_diverges_without_control() {
        // The double integrator with a ramp initial velocity grows unbounded.
        let controller = StateFeedback::from_slice(&[0.0, 0.0]);
        let t = simulate_closed_loop(&plant(), &controller, &Vector::from_slice(&[0.0, 1.0]), 100)
            .unwrap();
        assert!(t.outputs().last().unwrap().abs() > 1.0);
    }
}
