//! Bi-modal switching control and dwell-time dimensioning — the primary
//! contribution of the reproduced paper.
//!
//! A safety-critical control application on a heterogeneous bus can close its
//! loop over either a **time-triggered** (TT) slot with negligible delay
//! (mode `M_T`, fast gain `K_T`) or the **event-triggered** (ET) dynamic
//! segment with a one-sample worst-case delay (mode `M_E`, slower gain
//! `K_E`). The paper's strategy (its Fig. 1) gives each application the
//! *minimum* amount of TT time needed to meet its settling-time requirement
//! `J*` after a disturbance:
//!
//! 1. the application waits `T_w` samples in `M_E` for the shared TT slot;
//! 2. once granted, it holds the slot non-preemptively for the minimum dwell
//!    time `T_dw^-(T_w)`;
//! 3. if nobody contests the slot it may keep it up to `T_dw^+(T_w)`, beyond
//!    which more TT time no longer improves the settling time;
//! 4. waits longer than `T_w^*` can never meet `J*`, so the arbiter must
//!    grant the slot before that deadline.
//!
//! This crate computes all of those quantities exactly by exhaustive
//! simulation of the switched closed loop:
//!
//! * [`SwitchedApplication`] — a plant with its `K_T`/`K_E` pair and
//!   switched-mode simulator ([`strategy`]).
//! * [`DwellTimeTable`] — `T_dw^-`, `T_dw^+` and `T_w^*` for every wait time
//!   ([`dwell`]).
//! * [`AppTimingProfile`] — the per-application timing abstraction handed to
//!   the scheduler, the verifier and the mapping heuristic ([`profile`]).
//! * [`sequence`] — mode-schedule construction helpers.
//! * [`kernel`] — linalg backend dispatch ([`BackendChoice`]) for the
//!   dwell engine's stepping loops; applications whose augmented dimension
//!   fits the 2–5 menu run on stack-allocated const-generic matrices instead
//!   of the heap-backed fallback.
//!
//! # Example
//!
//! ```
//! use cps_core::{Mode, SwitchedApplication};
//! use cps_control::{StateFeedback, StateSpace};
//! use cps_linalg::Vector;
//!
//! # fn main() -> Result<(), cps_core::CoreError> {
//! // First-order thermal-like plant, h-discretized.
//! let plant = StateSpace::from_slices(&[&[0.9]], &[0.1], &[1.0])?;
//! let app = SwitchedApplication::builder("demo")
//!     .plant(plant)
//!     .fast_gain(StateFeedback::from_slice(&[6.0]))
//!     .slow_gain(Vector::from_slice(&[2.0, 0.4]))
//!     .sampling_period(0.02)
//!     .settling_threshold(0.02)
//!     .disturbance_state(Vector::from_slice(&[1.0]))
//!     .build()?;
//! let trajectory = app.simulate_modes(&[Mode::EventTriggered; 40])?;
//! assert_eq!(trajectory.len(), 41);
//! # Ok(())
//! # }
//! ```

pub mod dwell;
pub mod engine;
mod error;
pub mod kernel;
mod mode;
pub mod profile;
pub mod sequence;
pub mod strategy;

pub use dwell::{DwellTimeTable, SettlingSurface};
pub use error::CoreError;
pub use kernel::BackendChoice;
pub use mode::Mode;
pub use profile::AppTimingProfile;
pub use sequence::ModeSchedule;
pub use strategy::{SwitchedApplication, SwitchedApplicationBuilder};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mode>();
        assert_send_sync::<CoreError>();
        assert_send_sync::<DwellTimeTable>();
        assert_send_sync::<AppTimingProfile>();
        assert_send_sync::<SwitchedApplication>();
        assert_send_sync::<BackendChoice>();
        assert_send_sync::<engine::DwellEngine>();
    }
}
