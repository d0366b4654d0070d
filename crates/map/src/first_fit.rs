//! The paper's first-fit slot-dimensioning heuristic.

use cps_core::AppTimingProfile;
use cps_verify::VerifyError;

use crate::oracle::SlotOracle;
use crate::report::MappingReport;

/// The paper's first-fit sort key of one application: ascending maximum wait
/// `T_w^*`, ties broken by the smaller largest minimum dwell `T_dw^{-*}`.
/// Applications with equal keys keep their index order. The batch sort and
/// the order `AdmissionState` keeps across requests both rank by this key.
pub(crate) fn first_fit_key(profile: &AppTimingProfile) -> (usize, usize) {
    (profile.max_wait(), profile.max_t_dw_min())
}

/// Sorts application indices the way the paper's first-fit heuristic expects:
/// ascending maximum wait `T_w^*`, ties broken by the smaller largest minimum
/// dwell `T_dw^{-*}`, further ties by the original order. Each profile's key
/// is evaluated once (finding `T_dw^{-*}` scans its dwell array), not once
/// per comparison.
pub fn sort_for_first_fit(profiles: &[AppTimingProfile]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    // A stable sort: equal keys keep their index order.
    order.sort_by_cached_key(|&i| first_fit_key(&profiles[i]));
    order
}

/// `true` when `order` is exactly [`sort_for_first_fit`] of `profiles`:
/// strictly ascending in (key, index), which makes it a permutation of the
/// indices once its length and range match. A linear check for the order
/// `AdmissionState` keeps incrementally.
pub(crate) fn is_first_fit_order(profiles: &[AppTimingProfile], order: &[usize]) -> bool {
    order.len() == profiles.len()
        && order.iter().all(|&i| i < profiles.len())
        && order.windows(2).all(|w| {
            (first_fit_key(&profiles[w[0]]), w[0]) < (first_fit_key(&profiles[w[1]]), w[1])
        })
}

/// The first-fit placement loop over an arbitrary admission test, shared by
/// every front end: the plain oracle driver ([`first_fit()`]), the cascade
/// engine's batch runs (`MapExplorerEngine`), and the incremental repair of
/// the online admission service (`AdmissionState`). Each application of
/// `order` goes into the first slot of `slots` that `admit` accepts (the
/// probe is the slot's members plus the candidate, in order), or into a
/// newly opened slot — opening never calls `admit`, since a singleton is
/// admissible by construction.
///
/// `slots` may be non-empty on entry: first-fit is an online algorithm, so
/// continuing from the state reached after placing a sorted prefix is
/// exactly equivalent to a from-scratch run over prefix-plus-`order` — the
/// invariant the service's incremental repair rests on.
pub(crate) fn place_suffix<E>(
    slots: &mut Vec<Vec<usize>>,
    order: &[usize],
    mut admit: impl FnMut(&[usize]) -> Result<bool, E>,
) -> Result<(), E> {
    // The probe buffer is reused across all admission calls.
    let mut probe: Vec<usize> = Vec::new();
    for &app in order {
        let mut placed = false;
        for slot in &mut *slots {
            probe.clear();
            probe.extend_from_slice(slot);
            probe.push(app);
            if admit(&probe)? {
                slot.push(app);
                placed = true;
                break;
            }
        }
        if !placed {
            slots.push(vec![app]);
        }
    }
    Ok(())
}

/// Runs the first-fit mapping: applications are considered in
/// [`sort_for_first_fit`] order and placed into the first slot the oracle
/// admits, or into a newly opened slot.
///
/// Returns a [`MappingReport`] containing the slot partition (as indices into
/// `profiles`) and the number of oracle calls made.
///
/// # Errors
///
/// Propagates oracle failures (e.g. an exhausted verification budget).
pub fn first_fit(
    profiles: &[AppTimingProfile],
    oracle: &dyn SlotOracle,
) -> Result<MappingReport, VerifyError> {
    let order = sort_for_first_fit(profiles);
    let mut slots: Vec<Vec<usize>> = Vec::new();
    let mut oracle_calls = 0usize;
    place_suffix(&mut slots, &order, |probe| {
        oracle_calls += 1;
        oracle.admits_indices(profiles, probe)
    })?;

    Ok(MappingReport::new(
        oracle.name().to_string(),
        slots,
        oracle_calls,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ModelCheckingOracle, SlotOracle};
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

    /// An oracle that admits at most `capacity` applications per slot,
    /// regardless of their profiles (deterministic and cheap for tests).
    struct CapacityOracle {
        capacity: usize,
    }

    impl SlotOracle for CapacityOracle {
        fn admits_indices(
            &self,
            _profiles: &[AppTimingProfile],
            members: &[usize],
        ) -> Result<bool, VerifyError> {
            Ok(members.len() <= self.capacity)
        }
        fn name(&self) -> &str {
            "capacity"
        }
    }

    #[test]
    fn sort_orders_by_max_wait_then_dwell() {
        let profiles = vec![
            profile("slow", 20, 3),
            profile("urgent", 5, 3),
            profile("urgent-long-dwell", 5, 6),
        ];
        let order = sort_for_first_fit(&profiles);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn capacity_two_packs_pairs() {
        let profiles = vec![
            profile("A", 5, 3),
            profile("B", 6, 3),
            profile("C", 7, 3),
            profile("D", 8, 3),
            profile("E", 9, 3),
        ];
        let report = first_fit(&profiles, &CapacityOracle { capacity: 2 }).unwrap();
        assert_eq!(report.slot_count(), 3);
        assert_eq!(report.slots()[0].len(), 2);
        assert_eq!(report.slots()[2].len(), 1);
        assert!(report.oracle_calls() > 0);
    }

    #[test]
    fn capacity_one_gives_every_application_its_own_slot() {
        let profiles = vec![profile("A", 5, 3), profile("B", 6, 3)];
        let report = first_fit(&profiles, &CapacityOracle { capacity: 1 }).unwrap();
        assert_eq!(report.slot_count(), 2);
    }

    #[test]
    fn model_checking_oracle_packs_compatible_applications() {
        let profiles = vec![profile("A", 10, 3), profile("B", 10, 3), profile("C", 0, 5)];
        let report = first_fit(&profiles, &ModelCheckingOracle::new()).unwrap();
        // C cannot wait at all, so it needs its own slot; A and B share one.
        assert_eq!(report.slot_count(), 2);
        let c_index = 2;
        assert!(report.slots().iter().any(|slot| slot == &vec![c_index]));
    }

    #[test]
    fn empty_input_maps_to_no_slots() {
        let report = first_fit(&[], &CapacityOracle { capacity: 2 }).unwrap();
        assert_eq!(report.slot_count(), 0);
        assert_eq!(report.oracle_calls(), 0);
    }
}
