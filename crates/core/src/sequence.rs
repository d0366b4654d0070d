//! Mode-schedule construction helpers.
//!
//! The switching strategy only produces schedules of a very specific shape:
//! a number of event-triggered *wait* samples, followed by a contiguous block
//! of time-triggered *dwell* samples, followed by event-triggered samples for
//! the rest of the horizon. [`ModeSchedule`] captures that shape and converts
//! it to the per-sample [`Mode`] sequence consumed by the simulator.

use crate::{CoreError, Mode};

/// A wait/dwell/tail mode schedule over a fixed horizon.
///
/// # Example
///
/// ```
/// use cps_core::{Mode, ModeSchedule};
///
/// # fn main() -> Result<(), cps_core::CoreError> {
/// let schedule = ModeSchedule::new(2, 3, 8)?;
/// let modes = schedule.to_modes();
/// assert_eq!(modes.len(), 8);
/// assert_eq!(modes[0], Mode::EventTriggered);
/// assert_eq!(modes[2], Mode::TimeTriggered);
/// assert_eq!(modes[5], Mode::EventTriggered);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModeSchedule {
    wait: usize,
    dwell: usize,
    horizon: usize,
}

impl ModeSchedule {
    /// Creates a schedule with `wait` ET samples, then `dwell` TT samples,
    /// then ET samples up to `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `wait + dwell > horizon`
    /// or the horizon is zero.
    pub fn new(wait: usize, dwell: usize, horizon: usize) -> Result<Self, CoreError> {
        if horizon == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "schedule horizon must be at least one sample".to_string(),
            });
        }
        if wait + dwell > horizon {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "wait ({wait}) plus dwell ({dwell}) exceeds the horizon ({horizon})"
                ),
            });
        }
        Ok(ModeSchedule {
            wait,
            dwell,
            horizon,
        })
    }

    /// The mode at a given sample index.
    ///
    /// Samples at or beyond the horizon are event-triggered (the steady-state
    /// mode).
    pub fn mode_at(&self, sample: usize) -> Mode {
        if sample >= self.wait && sample < self.wait + self.dwell {
            Mode::TimeTriggered
        } else {
            Mode::EventTriggered
        }
    }

    /// Expands the schedule into the per-sample mode sequence of length
    /// `horizon`.
    pub fn to_modes(&self) -> Vec<Mode> {
        (0..self.horizon).map(|k| self.mode_at(k)).collect()
    }
}

/// Builds the per-sample mode sequence for an explicit list of TT sample
/// indices (used when replaying scheduler traces where an application may be
/// granted the slot in non-contiguous bursts).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when the horizon is zero or an
/// index is outside the horizon.
pub fn modes_from_tt_samples(horizon: usize, tt_samples: &[usize]) -> Result<Vec<Mode>, CoreError> {
    if horizon == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "horizon must be at least one sample".to_string(),
        });
    }
    let mut modes = vec![Mode::EventTriggered; horizon];
    for &k in tt_samples {
        if k >= horizon {
            return Err(CoreError::InvalidParameter {
                reason: format!("TT sample index {k} is outside the horizon {horizon}"),
            });
        }
        modes[k] = Mode::TimeTriggered;
    }
    Ok(modes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_shape() {
        let s = ModeSchedule::new(4, 4, 20).unwrap();
        let modes = s.to_modes();
        assert_eq!(modes.len(), 20);
        assert!(modes[..4].iter().all(|&m| m == Mode::EventTriggered));
        assert!(modes[4..8].iter().all(|&m| m == Mode::TimeTriggered));
        assert!(modes[8..].iter().all(|&m| m == Mode::EventTriggered));
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        assert!(ModeSchedule::new(5, 6, 10).is_err());
        assert!(ModeSchedule::new(0, 0, 0).is_err());
        assert!(ModeSchedule::new(5, 5, 10).is_ok());
    }

    #[test]
    fn mode_at_beyond_horizon_is_event_triggered() {
        let s = ModeSchedule::new(1, 2, 5).unwrap();
        assert_eq!(s.mode_at(100), Mode::EventTriggered);
        assert_eq!(s.mode_at(1), Mode::TimeTriggered);
        assert_eq!(s.mode_at(2), Mode::TimeTriggered);
        assert_eq!(s.mode_at(3), Mode::EventTriggered);
    }

    #[test]
    fn modes_from_explicit_tt_samples() {
        let modes = modes_from_tt_samples(6, &[1, 3]).unwrap();
        assert_eq!(modes[0], Mode::EventTriggered);
        assert_eq!(modes[1], Mode::TimeTriggered);
        assert_eq!(modes[2], Mode::EventTriggered);
        assert_eq!(modes[3], Mode::TimeTriggered);
        assert!(modes_from_tt_samples(6, &[6]).is_err());
        assert!(modes_from_tt_samples(0, &[]).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn schedule_modes_match_mode_at(
                wait in 0usize..20,
                dwell in 0usize..20,
                extra in 0usize..20,
            ) {
                let horizon = wait + dwell + extra + 1;
                let s = ModeSchedule::new(wait, dwell, horizon).unwrap();
                let modes = s.to_modes();
                prop_assert_eq!(modes.len(), horizon);
                for (k, &m) in modes.iter().enumerate() {
                    prop_assert_eq!(m, s.mode_at(k));
                }
                let tt_count = modes.iter().filter(|&&m| m == Mode::TimeTriggered).count();
                prop_assert_eq!(tt_count, dwell);
            }
        }
    }
}
