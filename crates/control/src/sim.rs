//! The trajectory a switched-loop simulation returns.

use cps_linalg::Vector;

/// A simulated closed-loop trajectory: the state sequence and the associated
/// scalar output sequence.
///
/// The first entry of both sequences is the initial condition (sample `k = 0`).
#[derive(Debug, Clone, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "same length")]
    fn trajectory_rejects_mismatched_lengths() {
        let _ = Trajectory::new(vec![Vector::from_slice(&[1.0])], vec![1.0, 0.5]);
    }
}
