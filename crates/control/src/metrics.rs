//! Control-performance metrics.
//!
//! The paper uses a single performance metric: the settling time `J`, defined
//! as the time after which the output stays inside a band around the steady
//! state (`‖y[k]‖ ≤ 0.02` for all `k ≥ J` in the motivational example).

use crate::ControlError;

/// Outcome of a settling-time measurement over a finite trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlingOutcome {
    /// The output entered the band at the contained sample index and never
    /// left it for the remainder of the trajectory.
    Settled {
        /// First sample index from which the output remains inside the band.
        sample: usize,
    },
    /// The output was still outside the band at the end of the trajectory.
    NotSettled,
}

impl SettlingOutcome {
    /// The settling sample if the trajectory settled.
    pub fn sample(&self) -> Option<usize> {
        match self {
            SettlingOutcome::Settled { sample } => Some(*sample),
            SettlingOutcome::NotSettled => None,
        }
    }
}

/// Settling-time evaluator with a fixed absolute output band.
///
/// # Example
///
/// ```
/// use cps_control::Settling;
///
/// let settling = Settling::new(0.02);
/// let outputs = [1.0, 0.5, 0.01, 0.005, 0.001];
/// assert_eq!(settling.settling_samples(&outputs), Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settling {
    threshold: f64,
}

impl Settling {
    /// Creates an evaluator for the band `|y| ≤ threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "settling threshold must be positive");
        Settling { threshold }
    }

    /// The absolute output band.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Evaluates the settling behaviour of an output sequence.
    ///
    /// Returns [`SettlingOutcome::Settled`] with the first index `J` such that
    /// `|y[k]| ≤ threshold` for every `k ≥ J`, or
    /// [`SettlingOutcome::NotSettled`] when the last sample is still outside
    /// the band (or the sequence is empty).
    pub fn evaluate(&self, outputs: &[f64]) -> SettlingOutcome {
        if outputs.is_empty() {
            return SettlingOutcome::NotSettled;
        }
        // Walk backwards: find the last sample that violates the band. A NaN
        // output (a diverged loop) violates it.
        let mut settled_from = outputs.len();
        for (k, y) in outputs.iter().enumerate().rev() {
            if y.is_nan() || y.abs() > self.threshold {
                break;
            }
            settled_from = k;
        }
        if settled_from == outputs.len() {
            SettlingOutcome::NotSettled
        } else {
            SettlingOutcome::Settled {
                sample: settled_from,
            }
        }
    }

    /// Convenience accessor returning the settling sample directly.
    pub fn settling_samples(&self, outputs: &[f64]) -> Option<usize> {
        self.evaluate(outputs).sample()
    }

    /// Settling time in seconds for a given sampling period `h`.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] when `h` is not positive.
    pub fn settling_seconds(&self, outputs: &[f64], h: f64) -> Result<Option<f64>, ControlError> {
        if h <= 0.0 {
            return Err(ControlError::InvalidParameter {
                reason: "sampling period must be positive".to_string(),
            });
        }
        Ok(self.settling_samples(outputs).map(|k| k as f64 * h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_of_monotone_decay() {
        let settling = Settling::new(0.02);
        let outputs: Vec<f64> = (0..20).map(|k| 0.5_f64.powi(k)).collect();
        // 0.5^6 = 0.015625 is the first value ≤ 0.02.
        assert_eq!(settling.settling_samples(&outputs), Some(6));
    }

    #[test]
    fn settling_accounts_for_later_excursions() {
        let settling = Settling::new(0.1);
        // Dips inside the band, leaves again, then settles for good.
        let outputs = [1.0, 0.05, 0.5, 0.04, 0.03, 0.02];
        assert_eq!(settling.settling_samples(&outputs), Some(3));
    }

    #[test]
    fn not_settled_when_final_sample_is_outside() {
        let settling = Settling::new(0.02);
        assert_eq!(
            settling.evaluate(&[1.0, 0.5, 0.2]),
            SettlingOutcome::NotSettled
        );
        assert_eq!(settling.evaluate(&[]), SettlingOutcome::NotSettled);
        assert_eq!(SettlingOutcome::NotSettled.sample(), None);
    }

    #[test]
    fn already_settled_trajectory_settles_at_zero() {
        let settling = Settling::new(0.02);
        assert_eq!(settling.settling_samples(&[0.0, 0.01, 0.001]), Some(0));
    }

    #[test]
    fn settling_seconds_scales_by_sampling_period() {
        let settling = Settling::new(0.02);
        let outputs = [1.0, 0.5, 0.01, 0.001];
        assert_eq!(
            settling.settling_seconds(&outputs, 0.02).unwrap(),
            Some(0.04)
        );
        assert!(settling.settling_seconds(&outputs, 0.0).is_err());
        assert_eq!(settling.settling_seconds(&[1.0], 0.02).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_is_rejected() {
        let _ = Settling::new(0.0);
    }

    #[test]
    fn boundary_values_count_as_inside_the_band() {
        let settling = Settling::new(0.02);
        assert_eq!(settling.settling_samples(&[1.0, 0.02, 0.02]), Some(1));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn settling_index_is_consistent(
                outputs in proptest::collection::vec(-2.0..2.0f64, 1..60),
                threshold in 0.01..1.0f64,
            ) {
                let settling = Settling::new(threshold);
                match settling.evaluate(&outputs) {
                    SettlingOutcome::Settled { sample } => {
                        // Every sample from `sample` on is inside the band…
                        prop_assert!(outputs[sample..].iter().all(|y| y.abs() <= threshold));
                        // …and the sample right before it (if any) is outside.
                        if sample > 0 {
                            prop_assert!(outputs[sample - 1].abs() > threshold);
                        }
                    }
                    SettlingOutcome::NotSettled => {
                        prop_assert!(outputs.last().unwrap().abs() > threshold);
                    }
                }
            }
        }
    }
}
