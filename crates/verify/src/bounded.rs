//! The paper's verification acceleration: bounding coincident disturbances.
//!
//! The fully sporadic model lets every application be disturbed again and
//! again (separated by at least `r` samples), which in the paper's timed
//! automata makes the state space grow with the product of the inter-arrival
//! clocks. The paper observes that, for each application, only a bounded
//! number of disturbance instances of the *other* applications can interfere
//! with one of its own disturbances — so the model can be verified with a
//! per-application instance bound without changing the verdict, at a
//! fraction of the cost (the paper reports a ~20× speed-up on its hardest
//! slot mapping).
//!
//! This crate's exact search does not pay that product: it prunes every
//! state whose cooldowns a visited state dominates (see [`crate::checker`]).
//! The bounded model cannot prune, because its instance counters differ, so
//! here it is the *costlier* of the two: on `{C1,C5,C4,C3}` one instance per
//! application explores 1,413,516 states and the exact model 10,852.
//!
//! [`sufficient_instance_bound`] computes such a bound from the profiles;
//! [`verify_accelerated`] runs the checker with it.

use crate::checker::{VerificationConfig, VerificationOutcome};
use crate::engine::SlotVerifyEngine;
use crate::{SlotSharingModel, VerifyError};

/// Computes a per-application disturbance-instance bound that is sufficient
/// for the slot-sharing verification to be exact.
///
/// The interference window of any single disturbance is at most
/// `max_i(T_w^*(i)) + max_i(T_dw^+*(i))` samples (the longest time between a
/// disturbance being sensed and the corresponding occupation of the slot
/// ending). Within a window of that length an application with minimum
/// inter-arrival `r` can start at most `window / r + 1` disturbances, so the
/// returned bound is that count evaluated for the smallest `r` in the model,
/// plus one instance of slack.
pub fn sufficient_instance_bound(model: &SlotSharingModel) -> usize {
    let max_wait = model
        .profiles()
        .iter()
        .map(|p| p.max_wait())
        .max()
        .unwrap_or(0);
    let max_dwell = model
        .profiles()
        .iter()
        .map(|p| p.dwell_table().max_t_dw_plus())
        .max()
        .unwrap_or(0);
    let min_r = model
        .profiles()
        .iter()
        .map(|p| p.min_inter_arrival())
        .min()
        .unwrap_or(1)
        .max(1);
    let window = max_wait + max_dwell;
    window / min_r + 2
}

/// Verifies the model with the accelerated (bounded-instance) configuration
/// derived by [`sufficient_instance_bound`], on the interned-state engine.
///
/// Note that in this discrete formulation the instance bound is kept for
/// fidelity to the paper rather than for speed: the counters stop recurrent
/// disturbances from merging into visited states and from being pruned as
/// dominated, so the bounded model is far *larger* than the exact one (see
/// [`VerificationConfig::default`]).
///
/// # Errors
///
/// Propagates engine errors.
pub fn verify_accelerated(model: &SlotSharingModel) -> Result<VerificationOutcome, VerifyError> {
    let bound = sufficient_instance_bound(model);
    SlotVerifyEngine::new().verify(model, &VerificationConfig::bounded(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::{AppTimingProfile, DwellTimeTable};

    fn profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell; max_wait + 1],
            vec![dwell; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    #[test]
    fn bound_is_small_when_interarrival_dominates_the_window() {
        // Window = 10 + 4 = 14 ≪ r = 40 → bound of 2.
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 4, 40), profile("B", 8, 4, 40)]).unwrap();
        assert_eq!(sufficient_instance_bound(&model), 2);
    }

    #[test]
    fn bound_is_two_whenever_interarrival_exceeds_the_requirement() {
        // Consistent profiles always have r > J* > T_w^* + T_dw^+, so the
        // interference window never spans more than one extra instance.
        let model = SlotSharingModel::new(vec![profile("A", 30, 10, 20)]).unwrap();
        assert_eq!(sufficient_instance_bound(&model), 2);
    }

    #[test]
    fn accelerated_verdict_matches_the_exact_one() {
        let schedulable =
            SlotSharingModel::new(vec![profile("A", 10, 3, 30), profile("B", 10, 3, 30)]).unwrap();
        let unschedulable = SlotSharingModel::new(vec![
            profile("A", 2, 4, 30),
            profile("B", 2, 4, 30),
            profile("C", 2, 4, 30),
        ])
        .unwrap();
        for (model, expected) in [(schedulable, true), (unschedulable, false)] {
            let accelerated = verify_accelerated(&model).unwrap();
            let exact = crate::checker::verify(&model, &VerificationConfig::unbounded()).unwrap();
            assert_eq!(accelerated.schedulable(), expected);
            assert_eq!(accelerated.schedulable(), exact.schedulable());
        }
    }
}
