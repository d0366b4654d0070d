//! The bi-modal switched application and its closed-loop simulator.

use cps_control::{sim::Trajectory, DelayAugmented, Settling, StateFeedback, StateSpace};
use cps_linalg::{Matrix, Vector};

use crate::{CoreError, Mode};

/// A control application that can switch between a time-triggered mode
/// (`K_T`, delay-free) and an event-triggered mode (`K_E`, one-sample delay).
///
/// The struct owns everything needed to simulate the switched closed loop:
/// the plant, both closed-loop matrices, the sampling period, the settling
/// band and the canonical post-disturbance state. Construct it with
/// [`SwitchedApplication::builder`].
///
/// # Example
///
/// ```
/// use cps_core::{Mode, SwitchedApplication};
/// use cps_control::{StateFeedback, StateSpace};
/// use cps_linalg::Vector;
///
/// # fn main() -> Result<(), cps_core::CoreError> {
/// let plant = StateSpace::from_slices(&[&[0.9]], &[0.1], &[1.0])?;
/// let app = SwitchedApplication::builder("demo")
///     .plant(plant)
///     .fast_gain(StateFeedback::from_slice(&[6.0]))
///     .slow_gain(Vector::from_slice(&[2.0, 0.4]))
///     .sampling_period(0.02)
///     .settling_threshold(0.02)
///     .disturbance_state(Vector::from_slice(&[1.0]))
///     .build()?;
/// // Pure TT rejection is faster than pure ET rejection.
/// let jt = app.settling_in_mode(Mode::TimeTriggered, 500)?;
/// let je = app.settling_in_mode(Mode::EventTriggered, 500)?;
/// assert!(jt <= je);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchedApplication {
    name: String,
    plant: StateSpace,
    a_tt: Matrix,
    a_et: Matrix,
    a_tt_aug: Matrix,
    c_aug: Vector,
    sampling_period: f64,
    settling: Settling,
    disturbance_state: Vector,
}

impl SwitchedApplication {
    /// Starts building an application with the given display name.
    pub fn builder(name: impl Into<String>) -> SwitchedApplicationBuilder {
        SwitchedApplicationBuilder::new(name)
    }

    /// The application's display name (e.g. `"C1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sampling period `h` in seconds.
    pub fn sampling_period(&self) -> f64 {
        self.sampling_period
    }

    /// The settling-band evaluator.
    pub fn settling(&self) -> &Settling {
        &self.settling
    }

    /// Closed-loop state matrix of the time-triggered mode, `Φ − Γ·K_T`.
    pub fn tt_closed_loop(&self) -> &Matrix {
        &self.a_tt
    }

    /// Closed-loop state matrix of the event-triggered mode on the augmented
    /// state `[x; u_prev]`.
    pub fn et_closed_loop(&self) -> &Matrix {
        &self.a_et
    }

    /// The closed-loop matrix of `mode` on the augmented state `[x; u_prev]`,
    /// precomputed at build time so one simulation step is a single in-place
    /// matrix-vector product.
    pub fn mode_matrix(&self, mode: Mode) -> &Matrix {
        match mode {
            Mode::TimeTriggered => &self.a_tt_aug,
            Mode::EventTriggered => &self.a_et,
        }
    }

    /// The output row `[C 0]` over the augmented state, so `y = c_aug · z`.
    pub fn augmented_output_row(&self) -> &Vector {
        &self.c_aug
    }

    /// The canonical initial augmented state `[x_dist; 0]` used by every
    /// disturbance-rejection simulation.
    pub fn initial_augmented_state(&self) -> Vector {
        let mut z = Vector::zeros(self.plant.state_dim() + 1);
        z.as_mut_slice()[..self.plant.state_dim()]
            .copy_from_slice(self.disturbance_state.as_slice());
        z
    }

    /// Converts a number of samples into seconds using the sampling period.
    pub fn samples_to_seconds(&self, samples: usize) -> f64 {
        samples as f64 * self.sampling_period
    }

    /// Simulates the switched closed loop for an explicit per-sample mode
    /// sequence, starting from the canonical disturbance state with the
    /// previous input at its steady-state value of zero.
    ///
    /// The returned trajectory holds `modes.len() + 1` samples of the plant
    /// output; its states are the augmented states `[x; u_prev]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty mode sequence and
    /// propagates dimension errors from the control layer.
    pub fn simulate_modes(&self, modes: &[Mode]) -> Result<Trajectory, CoreError> {
        self.simulate_modes_from(modes, &self.disturbance_state, 0.0)
    }

    /// Simulates the switched closed loop from an arbitrary initial plant
    /// state and previously applied input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty mode sequence or a
    /// state of the wrong dimension.
    pub fn simulate_modes_from(
        &self,
        modes: &[Mode],
        x0: &Vector,
        u_prev0: f64,
    ) -> Result<Trajectory, CoreError> {
        if x0.len() != self.plant.state_dim() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "initial state has {} entries, plant has {} states",
                    x0.len(),
                    self.plant.state_dim()
                ),
            });
        }
        let n = self.plant.state_dim();
        let mut z = Vector::zeros(n + 1);
        z.as_mut_slice()[..n].copy_from_slice(x0.as_slice());
        z.as_mut_slice()[n] = u_prev0;
        self.resume_modes(modes, &z)
    }

    /// Restarts the switched closed-loop simulation from a checkpointed
    /// augmented state `z0 = [x; u_prev]` (e.g. a state taken from a previous
    /// trajectory).
    ///
    /// The samples produced are bitwise identical to the corresponding
    /// suffix of an uncheckpointed run: both paths advance the state with the
    /// same precomputed [`SwitchedApplication::mode_matrix`] gemv in the same
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty mode sequence or a
    /// checkpoint of the wrong dimension.
    pub fn resume_modes(&self, modes: &[Mode], z0: &Vector) -> Result<Trajectory, CoreError> {
        if modes.is_empty() {
            return Err(CoreError::InvalidParameter {
                reason: "mode sequence must contain at least one sample".to_string(),
            });
        }
        let n = self.plant.state_dim();
        if z0.len() != n + 1 {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "checkpoint has {} entries, augmented state has {}",
                    z0.len(),
                    n + 1
                ),
            });
        }
        // Both modes are a single precomputed matrix on z = [x; u_prev], so
        // each step is one gemv into the state the trajectory stores anyway —
        // no concat/from_slice churn.
        let mut states = Vec::with_capacity(modes.len() + 1);
        let mut outputs = Vec::with_capacity(modes.len() + 1);
        outputs.push(self.c_aug.dot(z0));
        states.push(z0.clone());
        for mode in modes {
            let mut next = Vector::zeros(n + 1);
            self.mode_matrix(*mode)
                .gemv_into(states.last().expect("seeded above"), &mut next)
                .expect("augmented dimensions validated above");
            outputs.push(self.c_aug.dot(&next));
            states.push(next);
        }
        Ok(Trajectory::new(states, outputs))
    }

    /// Settling time, in samples, when the application stays in a single mode
    /// for the whole disturbance rejection.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DidNotSettle`] when the output is still outside
    /// the settling band at the end of the horizon.
    pub fn settling_in_mode(&self, mode: Mode, horizon: usize) -> Result<usize, CoreError> {
        let trajectory = self.simulate_modes(&vec![mode; horizon])?;
        self.settling
            .settling_samples(trajectory.outputs())
            .ok_or(CoreError::DidNotSettle { horizon })
    }

    /// Settling time, in samples, of an arbitrary mode schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DidNotSettle`] when the schedule does not settle
    /// the loop within its own length.
    pub fn settling_of_schedule(&self, modes: &[Mode]) -> Result<usize, CoreError> {
        let trajectory = self.simulate_modes(modes)?;
        self.settling
            .settling_samples(trajectory.outputs())
            .ok_or(CoreError::DidNotSettle {
                horizon: modes.len(),
            })
    }
}

/// Builder for [`SwitchedApplication`].
///
/// All fields except the disturbance state are mandatory; the disturbance
/// state defaults to a unit deflection of the first plant state, matching the
/// paper's experiments.
#[derive(Debug, Clone, Default)]
pub struct SwitchedApplicationBuilder {
    name: String,
    plant: Option<StateSpace>,
    fast_gain: Option<StateFeedback>,
    slow_gain: Option<Vector>,
    sampling_period: Option<f64>,
    settling_threshold: Option<f64>,
    disturbance_state: Option<Vector>,
}

impl SwitchedApplicationBuilder {
    /// Starts a builder with the given application name.
    pub fn new(name: impl Into<String>) -> Self {
        SwitchedApplicationBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Sets the plant model.
    pub fn plant(mut self, plant: StateSpace) -> Self {
        self.plant = Some(plant);
        self
    }

    /// Sets the time-triggered gain `K_T` (over the plant state).
    pub fn fast_gain(mut self, gain: StateFeedback) -> Self {
        self.fast_gain = Some(gain);
        self
    }

    /// Sets the event-triggered gain `K_E` (over the augmented state
    /// `[x; u_prev]`).
    pub fn slow_gain(mut self, gain: Vector) -> Self {
        self.slow_gain = Some(gain);
        self
    }

    /// Sets the sampling period `h` in seconds.
    pub fn sampling_period(mut self, h: f64) -> Self {
        self.sampling_period = Some(h);
        self
    }

    /// Sets the absolute settling band on the output.
    pub fn settling_threshold(mut self, threshold: f64) -> Self {
        self.settling_threshold = Some(threshold);
        self
    }

    /// Sets the canonical post-disturbance plant state.
    pub fn disturbance_state(mut self, x0: Vector) -> Self {
        self.disturbance_state = Some(x0);
        self
    }

    /// Finalizes the application, validating dimensional consistency.
    ///
    /// # Errors
    ///
    /// * [`CoreError::MissingField`] when a mandatory field was not set.
    /// * [`CoreError::InvalidParameter`] when the gains or the disturbance
    ///   state do not match the plant dimensions, or the sampling period /
    ///   settling threshold are not positive.
    pub fn build(self) -> Result<SwitchedApplication, CoreError> {
        let plant = self
            .plant
            .ok_or(CoreError::MissingField { field: "plant" })?;
        let fast_gain = self
            .fast_gain
            .ok_or(CoreError::MissingField { field: "fast_gain" })?;
        let slow_gain = self
            .slow_gain
            .ok_or(CoreError::MissingField { field: "slow_gain" })?;
        let sampling_period = self.sampling_period.ok_or(CoreError::MissingField {
            field: "sampling_period",
        })?;
        let settling_threshold = self.settling_threshold.ok_or(CoreError::MissingField {
            field: "settling_threshold",
        })?;

        if sampling_period <= 0.0 {
            return Err(CoreError::InvalidParameter {
                reason: "sampling period must be positive".to_string(),
            });
        }
        if settling_threshold <= 0.0 {
            return Err(CoreError::InvalidParameter {
                reason: "settling threshold must be positive".to_string(),
            });
        }
        let n = plant.state_dim();
        if plant.input_dim() != 1 || plant.output_dim() != 1 {
            return Err(CoreError::InvalidParameter {
                reason: "the switching strategy assumes single-input single-output plants"
                    .to_string(),
            });
        }
        if fast_gain.state_dim() != n {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "fast gain has {} entries, plant has {} states",
                    fast_gain.state_dim(),
                    n
                ),
            });
        }
        if slow_gain.len() != n + 1 {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "slow gain has {} entries, augmented state has {}",
                    slow_gain.len(),
                    n + 1
                ),
            });
        }
        let disturbance_state = self.disturbance_state.unwrap_or_else(|| Vector::unit(n, 0));
        if disturbance_state.len() != n {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "disturbance state has {} entries, plant has {} states",
                    disturbance_state.len(),
                    n
                ),
            });
        }

        let a_tt = fast_gain.closed_loop(&plant)?;
        let a_et = DelayAugmented::new(&plant)?.closed_loop(&slow_gain)?;
        // Lift the TT closed loop to z = [x; u_prev] once, so the simulator
        // and the dwell engine advance either mode with a single gemv:
        //   x⁺ = (Φ − Γ·K_T)·x,  u_prev⁺ = −K_T·x.
        let mut a_tt_aug = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                a_tt_aug[(i, j)] = a_tt[(i, j)];
            }
        }
        for j in 0..n {
            a_tt_aug[(n, j)] = -fast_gain.gain()[j];
        }
        // Output row over the augmented state: y = [C 0]·z.
        let mut c_aug = Vector::zeros(n + 1);
        for j in 0..n {
            c_aug[j] = plant.output_matrix()[(0, j)];
        }

        Ok(SwitchedApplication {
            name: self.name,
            plant,
            a_tt,
            a_et,
            a_tt_aug,
            c_aug,
            sampling_period,
            settling: Settling::new(settling_threshold),
            disturbance_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_app() -> SwitchedApplication {
        // Scalar plant with a clearly faster TT gain than ET gain.
        let plant = StateSpace::from_slices(&[&[0.9]], &[0.1], &[1.0]).unwrap();
        SwitchedApplication::builder("demo")
            .plant(plant)
            .fast_gain(StateFeedback::from_slice(&[8.0]))
            .slow_gain(Vector::from_slice(&[2.0, 0.4]))
            .sampling_period(0.02)
            .settling_threshold(0.02)
            .disturbance_state(Vector::from_slice(&[1.0]))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_all_mandatory_fields() {
        let plant = StateSpace::from_slices(&[&[0.9]], &[0.1], &[1.0]).unwrap();
        let err = SwitchedApplication::builder("x").build().unwrap_err();
        assert!(matches!(err, CoreError::MissingField { field: "plant" }));
        let err = SwitchedApplication::builder("x")
            .plant(plant.clone())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::MissingField { field: "fast_gain" }
        ));
        let err = SwitchedApplication::builder("x")
            .plant(plant.clone())
            .fast_gain(StateFeedback::from_slice(&[1.0]))
            .slow_gain(Vector::from_slice(&[1.0, 0.0]))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::MissingField {
                field: "sampling_period"
            }
        ));
    }

    #[test]
    fn builder_validates_dimensions_and_ranges() {
        let plant = StateSpace::from_slices(&[&[0.9]], &[0.1], &[1.0]).unwrap();
        let base = || {
            SwitchedApplication::builder("x")
                .plant(plant.clone())
                .fast_gain(StateFeedback::from_slice(&[1.0]))
                .slow_gain(Vector::from_slice(&[1.0, 0.0]))
                .sampling_period(0.02)
                .settling_threshold(0.02)
        };
        assert!(base().build().is_ok());
        assert!(base().sampling_period(0.0).build().is_err());
        assert!(base().settling_threshold(-1.0).build().is_err());
        assert!(base()
            .fast_gain(StateFeedback::from_slice(&[1.0, 2.0]))
            .build()
            .is_err());
        assert!(base()
            .slow_gain(Vector::from_slice(&[1.0]))
            .build()
            .is_err());
        assert!(base()
            .disturbance_state(Vector::from_slice(&[1.0, 0.0]))
            .build()
            .is_err());
    }

    #[test]
    fn default_disturbance_state_is_unit_first_state() {
        let plant =
            StateSpace::from_slices(&[&[0.9, 0.0], &[0.1, 0.8]], &[0.1, 0.0], &[1.0, 0.0]).unwrap();
        let app = SwitchedApplication::builder("x")
            .plant(plant)
            .fast_gain(StateFeedback::from_slice(&[1.0, 0.0]))
            .slow_gain(Vector::from_slice(&[1.0, 0.0, 0.0]))
            .sampling_period(0.02)
            .settling_threshold(0.02)
            .build()
            .unwrap();
        assert_eq!(app.disturbance_state.as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn tt_mode_settles_faster_than_et_mode() {
        let app = demo_app();
        let jt = app.settling_in_mode(Mode::TimeTriggered, 300).unwrap();
        let je = app.settling_in_mode(Mode::EventTriggered, 300).unwrap();
        assert!(jt < je, "TT ({jt}) should settle faster than ET ({je})");
    }

    #[test]
    fn simulate_modes_matches_closed_loop_matrices() {
        let app = demo_app();
        // Pure TT simulation must follow x⁺ = (Φ − Γ·K_T)·x exactly.
        let a_tt = app.tt_closed_loop();
        let trajectory = app.simulate_modes(&[Mode::TimeTriggered; 5]).unwrap();
        let mut x = 1.0;
        for k in 0..=5 {
            assert!((trajectory.outputs()[k] - x).abs() < 1e-12);
            x *= a_tt[(0, 0)];
        }
        // Pure ET simulation must follow the augmented closed loop.
        let a_et = app.et_closed_loop();
        let trajectory = app.simulate_modes(&[Mode::EventTriggered; 5]).unwrap();
        let mut z = Vector::from_slice(&[1.0, 0.0]);
        for k in 0..=5 {
            assert!((trajectory.outputs()[k] - z[0]).abs() < 1e-12);
            z = a_et.mul_vector(&z).unwrap();
        }
    }

    #[test]
    fn mixed_schedule_interleaves_correctly() {
        let app = demo_app();
        // One ET sample then one TT sample, tracked by hand.
        let trajectory = app
            .simulate_modes(&[Mode::EventTriggered, Mode::TimeTriggered])
            .unwrap();
        // ET step from x=1, u_prev=0: x1 = 0.9*1 + 0.1*0 = 0.9,
        // u_prev becomes -K_E·[1;0] = -2.0.
        // TT step: u = -8*0.9 = -7.2, x2 = 0.9*0.9 + 0.1*(-7.2) = 0.09.
        assert!((trajectory.outputs()[1] - 0.9).abs() < 1e-12);
        assert!((trajectory.outputs()[2] - 0.09).abs() < 1e-12);
    }

    #[test]
    fn settling_of_schedule_errors_when_not_settled() {
        let app = demo_app();
        let err = app
            .settling_of_schedule(&[Mode::EventTriggered; 2])
            .unwrap_err();
        assert!(matches!(err, CoreError::DidNotSettle { horizon: 2 }));
    }

    #[test]
    fn empty_mode_sequence_is_rejected() {
        let app = demo_app();
        assert!(matches!(
            app.simulate_modes(&[]),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn simulate_from_custom_state_validates_dimension() {
        let app = demo_app();
        assert!(app
            .simulate_modes_from(
                &[Mode::TimeTriggered],
                &Vector::from_slice(&[1.0, 2.0]),
                0.0
            )
            .is_err());
    }

    #[test]
    fn resume_from_checkpoint_matches_full_run_bitwise() {
        let app = demo_app();
        let modes = [
            Mode::EventTriggered,
            Mode::TimeTriggered,
            Mode::TimeTriggered,
            Mode::EventTriggered,
            Mode::EventTriggered,
        ];
        let full = app.simulate_modes(&modes).unwrap();
        // Restart from every intermediate checkpoint: the suffix must be
        // bitwise identical to the corresponding tail of the full run.
        for split in 1..modes.len() {
            let resumed = app
                .resume_modes(&modes[split..], &full.states()[split])
                .unwrap();
            for (offset, state) in resumed.states().iter().enumerate() {
                assert_eq!(
                    state.as_slice(),
                    full.states()[split + offset].as_slice(),
                    "state diverges at split {split}, offset {offset}"
                );
            }
            for (offset, y) in resumed.outputs().iter().enumerate() {
                assert!(
                    y.to_bits() == full.outputs()[split + offset].to_bits(),
                    "output diverges at split {split}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn resume_validates_checkpoint_dimension() {
        let app = demo_app();
        assert!(app
            .resume_modes(&[Mode::TimeTriggered], &Vector::zeros(3))
            .is_err());
        assert!(app
            .resume_modes(&[], &app.initial_augmented_state())
            .is_err());
    }

    #[test]
    fn samples_convert_to_seconds() {
        let app = demo_app();
        assert_eq!(app.samples_to_seconds(9), 0.18);
    }

    #[test]
    fn augmented_tt_closed_loop_has_gain_in_last_row() {
        let app = demo_app();
        let a = app.mode_matrix(Mode::TimeTriggered);
        assert_eq!(a.dims(), (2, 2));
        assert!((a[(1, 0)] + 8.0).abs() < 1e-12);
        assert_eq!(a[(1, 1)], 0.0);
    }
}
