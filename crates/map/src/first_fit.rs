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

/// How one slot being rebuilt by a repair compares with the same slot of the
/// first-fit run that built the partition under repair, both restricted to
/// the applications processed so far: equal (neither flag), a superset
/// (`gained` only), a subset (`lost` only), or neither (both). Each flag
/// only ever turns on, since every application is placed once.
#[derive(Debug, Clone, Copy, Default)]
struct Drift {
    /// The rebuilt slot holds an application the old slot did not.
    gained: bool,
    /// The old slot held an application the rebuilt slot does not.
    lost: bool,
}

/// A record of the first-fit run that built the partition a repair starts
/// from, which lets [`place_suffix`] skip every probe that run already
/// decided. [`PriorRun::prune`] writes it while pruning that partition to
/// the invariant prefix; its buffers are reused across repairs.
///
/// Two rules answer a probe of application `a` at slot `i` without the
/// admission test, and both are exact:
///
/// - *Prior run.* Let `j` be `a`'s slot in the old partition. The old run
///   rejected `a` at every slot below `j` and accepted it at `j`, each time
///   against the old slot as it stood before `a`. If `i < j` and the rebuilt
///   slot is equal to or a superset of that old slot, `a` is rejected; if
///   `i == j` and it is equal or a subset, `a` is accepted. A probe that
///   contains a rejected probe is rejected and one contained in an accepted
///   probe is accepted (anti-monotonicity under order-preserving embedding;
///   both probes list members in rank order with `a` last).
/// - *Twin.* If the application placed just before `a` has `a`'s
///   fingerprint id, every slot below the twin's slot rejects `a`: those
///   slots have not changed since they rejected the twin, and the probes are
///   identical up to names.
#[derive(Debug, Default)]
pub(crate) struct PriorRun {
    /// Slot per fleet index (numbered after the request) in the old
    /// partition; `None` for the arrival.
    old_slot: Vec<Option<usize>>,
    /// Per slot index, how the rebuilt slot compares with the old one.
    drift: Vec<Drift>,
    /// Fingerprint id and slot of the application placed last.
    last: Option<(u32, usize)>,
}

impl PriorRun {
    /// Prunes `old`, the first-fit partition before a request, to the
    /// members ranked below `cut`, writing the surviving slots into `pruned`
    /// (reusing its vectors), and records `old` for the repair. `ranks`
    /// gives each fleet index of `old` its rank in the order the prefix is
    /// taken from, and `ids` its fingerprint id. `departing` is the fleet
    /// index a departure removes (ranked `cut`); survivors above it are
    /// renumbered down by one. Slots opened by suffix members become empty
    /// and are dropped; they always form a tail of the slot list (slots are
    /// opened in rank order of their first member), so dropping them
    /// reconstructs the exact mid-algorithm slot list.
    pub(crate) fn prune(
        &mut self,
        old: &[Vec<usize>],
        ranks: &[usize],
        ids: &[u32],
        cut: usize,
        departing: Option<usize>,
        pruned: &mut Vec<Vec<usize>>,
    ) {
        let renumber = |m: usize| m - usize::from(departing.is_some_and(|d| m > d));
        self.old_slot.clear();
        self.old_slot.resize(ranks.len(), None);
        self.drift.clear();
        self.drift.resize(old.len(), Drift::default());
        self.last = None;
        pruned.resize_with(old.len(), Vec::new);
        for (s, (kept, slot)) in pruned.iter_mut().zip(old).enumerate() {
            kept.clear();
            for &m in slot {
                if departing == Some(m) {
                    // The old run placed the departure before every
                    // re-placed application, so its old slot starts with a
                    // member the rebuilt slot lacks.
                    self.drift[s].lost = true;
                    continue;
                }
                self.old_slot[renumber(m)] = Some(s);
                if ranks[m] < cut {
                    kept.push(renumber(m));
                    if ranks[m] + 1 == cut {
                        self.last = Some((ids[m], s));
                    }
                }
            }
        }
        let len = pruned.iter().take_while(|slot| !slot.is_empty()).count();
        debug_assert!(
            pruned[len..].iter().all(Vec::is_empty),
            "emptied slots must form a tail of the slot list"
        );
        pruned.truncate(len);
    }

    /// The verdict on `app` at `slot` that the old run or the twin already
    /// decided, if any. `ids` maps fleet indices to fingerprint ids.
    fn known(&self, ids: &[u32], app: usize, slot: usize) -> Option<bool> {
        if self
            .last
            .is_some_and(|(id, twin_slot)| id == ids[app] && slot < twin_slot)
        {
            return Some(false);
        }
        let drift = self.drift[slot];
        match self.old_slot[app] {
            Some(old) if slot < old && !drift.lost => Some(false),
            Some(old) if slot == old && !drift.gained => Some(true),
            _ => None,
        }
    }

    /// Notes that `app` went into `slot`.
    fn placed(&mut self, ids: &[u32], app: usize, slot: usize) {
        if slot >= self.drift.len() {
            // A slot the old partition never had: both sides were empty.
            self.drift.resize(slot + 1, Drift::default());
        }
        let old = self.old_slot[app];
        if old != Some(slot) {
            self.drift[slot].gained = true;
            if let Some(old) = old {
                self.drift[old].lost = true;
            }
        }
        self.last = Some((ids[app], slot));
    }
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
///
/// A repair passes `prior`: the [`PriorRun`] its pruning recorded and the
/// fleet's fingerprint ids. Every probe whose verdict the record decides is
/// then answered without calling `admit`, which gives the same slots. Batch
/// runs pass `None` and call `admit` for every probe.
pub(crate) fn place_suffix<E>(
    slots: &mut Vec<Vec<usize>>,
    order: &[usize],
    mut prior: Option<(&mut PriorRun, &[u32])>,
    mut admit: impl FnMut(&[usize]) -> Result<bool, E>,
) -> Result<(), E> {
    // The probe buffer is reused across all admission calls.
    let mut probe: Vec<usize> = Vec::new();
    for &app in order {
        let mut placed = slots.len();
        for (i, slot) in slots.iter().enumerate() {
            let known = prior.as_ref().and_then(|(run, ids)| run.known(ids, app, i));
            let admits = match known {
                Some(verdict) => verdict,
                None => {
                    probe.clear();
                    probe.extend_from_slice(slot);
                    probe.push(app);
                    admit(&probe)?
                }
            };
            if admits {
                placed = i;
                break;
            }
        }
        if placed == slots.len() {
            slots.push(Vec::new());
        }
        slots[placed].push(app);
        if let Some((run, ids)) = prior.as_mut() {
            run.placed(ids, app, placed);
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
    place_suffix(&mut slots, &order, None, |probe| {
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

    /// A synthetic admission test over contents (the fingerprint ids): a
    /// probe is refused when it is longer than some member content's
    /// capacity, or when a forbidden ordered pair of contents embeds into
    /// it. Like the exact check, it is deterministic, reads contents only,
    /// and is anti-monotone under order-preserving embedding.
    struct ContentOracle {
        capacity: Vec<usize>,
        forbidden: Vec<(u32, u32)>,
    }

    impl ContentOracle {
        fn admits(&self, ids: &[u32], probe: &[usize]) -> bool {
            let contents = || probe.iter().map(|&m| ids[m]);
            contents().all(|c| probe.len() <= self.capacity[c as usize])
                && !self.forbidden.iter().any(|&(first, then)| {
                    let mut it = contents();
                    it.any(|c| c == first) && it.any(|c| c == then)
                })
        }
    }

    /// First-fit order of a fleet of contents: contents `2k` and `2k + 1`
    /// share the key `k`, so ties between distinct contents resolve by
    /// index, as in [`sort_for_first_fit`].
    fn content_order(fleet: &[u32]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..fleet.len()).collect();
        order.sort_by_key(|&i| (fleet[i] / 2, i));
        order
    }

    fn ranks_of(order: &[usize]) -> Vec<usize> {
        let mut ranks = vec![0; order.len()];
        for (r, &i) in order.iter().enumerate() {
            ranks[i] = r;
        }
        ranks
    }

    proptest::proptest! {
        #[test]
        fn repairs_with_the_prior_run_place_identically_with_fewer_probes(
            seed in 0u64..1_000_000,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let contents = 6;
            let oracle = ContentOracle {
                capacity: (0..contents).map(|_| 1 + rng.next_below(4) as usize).collect(),
                forbidden: (0..rng.next_below(4))
                    .map(|_| (rng.next_below(contents) as u32, rng.next_below(contents) as u32))
                    .collect(),
            };
            let place = |fleet: &[u32],
                         slots: &mut Vec<Vec<usize>>,
                         order: &[usize],
                         prior: Option<&mut PriorRun>| {
                let mut calls = 0usize;
                place_suffix(slots, order, prior.map(|run| (run, fleet)), |probe| {
                    calls += 1;
                    Ok::<_, ()>(oracle.admits(fleet, probe))
                })
                .unwrap();
                calls
            };
            let (mut fleet, mut slots) = (Vec::<u32>::new(), Vec::<Vec<usize>>::new());
            let mut run = PriorRun::default();
            let (mut plain_calls, mut known_calls) = (0, 0);
            for _ in 0..40 {
                let departing = (!fleet.is_empty() && (fleet.len() >= 10 || rng.next_below(3) == 0))
                    .then(|| rng.next_below(fleet.len() as u64) as usize);
                // Rank the prefix in the order that holds both the old
                // partition's members and the arrival, if any.
                if departing.is_none() {
                    fleet.push(rng.next_below(contents) as u32);
                }
                let ranks = ranks_of(&content_order(&fleet));
                let cut = ranks[departing.unwrap_or(fleet.len() - 1)];
                let mut pruned = Vec::new();
                run.prune(&slots, &ranks, &fleet, cut, departing, &mut pruned);
                if let Some(d) = departing {
                    fleet.remove(d);
                }
                let order = content_order(&fleet);
                let mut plain = pruned.clone();
                let plain_edit = place(&fleet, &mut plain, &order[cut..], None);
                let mut known = pruned;
                let known_edit = place(&fleet, &mut known, &order[cut..], Some(&mut run));
                let mut rebuilt = Vec::new();
                place(&fleet, &mut rebuilt, &order, None);
                proptest::prop_assert_eq!(&plain, &rebuilt, "suffix repair is exact first-fit");
                proptest::prop_assert_eq!(&known, &plain, "fleet {:?}", fleet);
                proptest::prop_assert!(known_edit <= plain_edit);
                (plain_calls, known_calls) = (plain_calls + plain_edit, known_calls + known_edit);
                slots = known;
            }
            proptest::prop_assert!(known_calls < plain_calls, "{} vs {}", known_calls, plain_calls);
        }
    }
}
