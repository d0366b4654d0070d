//! Discrete-time LTI control substrate.
//!
//! This crate models the control side of the reproduced paper:
//!
//! * [`StateSpace`] — discrete-time linear time-invariant plant models
//!   `x[k+1] = Φ·x[k] + Γ·u[k]`, `y[k] = C·x[k]` ([`ss`]).
//! * [`StateFeedback`] — state-feedback controllers `u[k] = −K·x[k]` and the
//!   resulting closed-loop dynamics ([`feedback`]).
//! * [`delay`] — the one-sample-delay augmentation used when control messages
//!   travel over the event-triggered (dynamic) FlexRay segment.
//! * [`sim`] — the [`Trajectory`] a switched-loop simulation returns.
//! * [`metrics`] — settling-time measurement (the paper's performance metric
//!   `J`).
//!
//! The gains themselves are inputs: the case study uses the `K_T` and `K_E`
//! that the paper's Table 1 gives.
//!
//! # Example
//!
//! ```
//! use cps_control::{Settling, StateFeedback, StateSpace};
//! use cps_linalg::Vector;
//!
//! # fn main() -> Result<(), cps_control::ControlError> {
//! // A lightly damped scalar plant controlled to the origin.
//! let plant = StateSpace::from_slices(&[&[0.9]], &[1.0], &[1.0])?;
//! let closed_loop = StateFeedback::from_slice(&[0.5]).closed_loop(&plant)?;
//! // x[k+1] = (Φ − Γ·K)·x[k] = 0.4·x[k] from x[0] = 1.
//! let mut x = Vector::from_slice(&[1.0]);
//! let mut outputs = vec![x[0]];
//! for _ in 0..10 {
//!     x = closed_loop.mul_vector(&x)?;
//!     outputs.push(x[0]);
//! }
//! assert_eq!(Settling::new(0.02).settling_samples(&outputs), Some(5));
//! # Ok(())
//! # }
//! ```

pub mod delay;
mod error;
pub mod feedback;
pub mod metrics;
pub mod sim;
pub mod ss;

pub use delay::DelayAugmented;
pub use error::ControlError;
pub use feedback::StateFeedback;
pub use metrics::{Settling, SettlingOutcome};
pub use sim::Trajectory;
pub use ss::StateSpace;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateSpace>();
        assert_send_sync::<StateFeedback>();
        assert_send_sync::<ControlError>();
        assert_send_sync::<Trajectory>();
        assert_send_sync::<Settling>();
    }
}
