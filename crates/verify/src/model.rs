//! The slot-sharing model: a set of applications mapped onto one TT slot.

use cps_core::AppTimingProfile;

use crate::VerifyError;

/// A set of applications sharing a single time-triggered slot, each described
/// by its timing profile (`T_w^*`, dwell-time table, minimum disturbance
/// inter-arrival time).
///
/// The model is purely a timing abstraction — exactly the information the
/// paper feeds into its timed-automata network — and is consumed by the
/// [`crate::checker`] exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSharingModel {
    profiles: Vec<AppTimingProfile>,
}

impl SlotSharingModel {
    /// Creates a model from the profiles of the applications mapped onto the
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::EmptyModel`] when no profiles are given.
    pub fn new(profiles: Vec<AppTimingProfile>) -> Result<Self, VerifyError> {
        if profiles.is_empty() {
            return Err(VerifyError::EmptyModel);
        }
        Ok(SlotSharingModel { profiles })
    }

    /// The application profiles in mapping order.
    pub fn profiles(&self) -> &[AppTimingProfile] {
        &self.profiles
    }

    /// Number of applications sharing the slot.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when the model holds no applications (never the case
    /// for a successfully constructed model).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Verifies the model with the given configuration on the interned-state
    /// [`crate::engine::SlotVerifyEngine`] (the production path).
    ///
    /// Callers that verify many models in a row should hold their own engine
    /// and call [`crate::engine::SlotVerifyEngine::verify`] to amortise the
    /// exploration buffers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (invalid configuration or exhausted budget).
    pub fn verify(
        &self,
        config: &crate::VerificationConfig,
    ) -> Result<crate::VerificationOutcome, VerifyError> {
        crate::engine::SlotVerifyEngine::new().verify(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::DwellTimeTable;

    fn profile(name: &str) -> AppTimingProfile {
        let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12]).unwrap();
        AppTimingProfile::new(name, 9, 35, 18, 25, table).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let model = SlotSharingModel::new(vec![profile("A"), profile("B")]).unwrap();
        assert_eq!(model.len(), 2);
        assert!(!model.is_empty());
        assert_eq!(model.profiles()[0].name(), "A");
    }

    #[test]
    fn empty_model_is_rejected() {
        assert!(matches!(
            SlotSharingModel::new(vec![]),
            Err(VerifyError::EmptyModel)
        ));
    }
}
