//! Admission oracles deciding whether a set of applications may share a slot.

use std::sync::Mutex;

use cps_core::AppTimingProfile;
use cps_verify::{SlotVerifyEngine, VerificationConfig, VerifyError};

/// An admission test for one TT slot.
///
/// Implementations decide whether the given applications can all meet their
/// settling requirements when sharing a single slot.
pub trait SlotOracle {
    /// Decides admission for the applications selected by `members` (indices
    /// into `profiles`), in that order. This is **the** oracle entry point:
    /// the first-fit heuristic and the exact slot minimizer probe through it
    /// so candidate sets are described by indices instead of a freshly
    /// cloned `Vec<AppTimingProfile>` per oracle call.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. a model checker running out of budget);
    /// the mapping heuristic treats a failure as an error, not as a rejection.
    ///
    /// # Panics
    ///
    /// May panic if a member index is out of bounds for `profiles`.
    fn admits_indices(
        &self,
        profiles: &[AppTimingProfile],
        members: &[usize],
    ) -> Result<bool, VerifyError>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// The paper's oracle: exact discrete-time model checking of the switching
/// strategy, run on the interned-state `cps-verify` engine.
///
/// The oracle owns one [`SlotVerifyEngine`] and reuses it across
/// [`SlotOracle::admits_indices`] calls, so the repeated first-fit probes
/// amortise the exploration buffers.
#[derive(Debug, Default)]
pub struct ModelCheckingOracle {
    engine: Mutex<SlotVerifyEngine>,
}

impl Clone for ModelCheckingOracle {
    fn clone(&self) -> Self {
        // Exploration buffers are per-run scratch; a clone starts fresh.
        ModelCheckingOracle::new()
    }
}

impl ModelCheckingOracle {
    /// Creates the oracle; it verifies with the exact default configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotOracle for ModelCheckingOracle {
    fn admits_indices(
        &self,
        profiles: &[AppTimingProfile],
        members: &[usize],
    ) -> Result<bool, VerifyError> {
        // Borrow the selected profiles straight through the engine's
        // index-based hook — no clone, no model construction.
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        Ok(engine
            .verify_selected(profiles, members, &VerificationConfig::default())?
            .schedulable())
    }

    fn name(&self) -> &str {
        "model-checking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineOracle;
    use cps_core::DwellTimeTable;

    fn profile(name: &str, max_wait: usize, dwell: usize) -> AppTimingProfile {
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell; max_wait + 1],
            vec![dwell; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, dwell, jstar + 5, jstar, jstar + 10, table).unwrap()
    }

    /// Whole-set admission through the index path.
    fn admits_all(oracle: &dyn SlotOracle, profiles: &[AppTimingProfile]) -> bool {
        let members: Vec<usize> = (0..profiles.len()).collect();
        oracle.admits_indices(profiles, &members).unwrap()
    }

    #[test]
    fn model_checking_oracle_accepts_and_rejects() {
        let oracle = ModelCheckingOracle::new();
        assert_eq!(oracle.name(), "model-checking");
        let generous = [profile("A", 10, 3), profile("B", 10, 3)];
        assert!(admits_all(&oracle, &generous));
        let impossible = [profile("A", 0, 5), profile("B", 0, 5)];
        assert!(!admits_all(&oracle, &impossible));
    }

    #[test]
    fn baseline_oracle_is_more_conservative_than_model_checking() {
        // Both applications can wait 10 samples; the exact analysis exploits
        // minimum-dwell preemption, while the baseline charges the full
        // dedicated-slot hold time and rejects earlier.
        let apps = [profile("A", 10, 9), profile("B", 10, 9)];
        let exact = admits_all(&ModelCheckingOracle::new(), &apps);
        let conservative = admits_all(&BaselineOracle::default(), &apps);
        assert!(
            exact || !conservative,
            "baseline must never accept more than the exact oracle"
        );
    }

    #[test]
    fn index_path_agrees_with_the_cloning_path_for_both_oracles() {
        let fleet = [profile("A", 10, 3), profile("B", 0, 5), profile("C", 10, 3)];
        let selections: &[&[usize]] = &[&[0], &[0, 2], &[1, 2], &[2, 1, 0]];
        let mc = ModelCheckingOracle::new();
        let bl = BaselineOracle::default();
        for oracle in [&mc as &dyn SlotOracle, &bl as &dyn SlotOracle] {
            for members in selections {
                let cloned: Vec<AppTimingProfile> =
                    members.iter().map(|&i| fleet[i].clone()).collect();
                assert_eq!(
                    oracle.admits_indices(&fleet, members).unwrap(),
                    admits_all(oracle, &cloned),
                    "{} on {members:?}",
                    oracle.name()
                );
            }
        }
    }

    #[test]
    fn full_range_selection_answers_the_whole_set_question() {
        // What the removed `admits` shim used to do for external callers:
        // selecting the full index range asks about the whole set.
        let fleet = [profile("A", 10, 3), profile("B", 10, 3)];
        let impossible = [profile("A", 0, 5), profile("B", 0, 5)];
        for oracle in [
            &ModelCheckingOracle::new() as &dyn SlotOracle,
            &BaselineOracle::default(),
        ] {
            assert!(admits_all(oracle, &fleet));
            assert!(!admits_all(oracle, &impossible));
        }
    }
}
