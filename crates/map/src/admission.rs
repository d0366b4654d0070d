//! Incremental online admission: a long-lived fleet, repaired in place.
//!
//! The batch engine ([`crate::MapExplorerEngine`]) answers "map this fleet"
//! by replaying first-fit over all applications. A long-running admission
//! service faces a different shape of traffic: applications *arrive* and
//! *depart* one at a time, and the partition must stay current after every
//! change without re-running the whole heuristic. [`AdmissionState`] is that
//! incremental front end over the same persistent `CascadeCore`: it owns
//! the resident fleet, the current [`MappingReport`], and repairs the
//! partition after each [`AdmissionState::add_app`] /
//! [`AdmissionState::remove_app`] by re-placing only the *suffix* of the
//! first-fit order the change can affect.
//!
//! # Why suffix repair is exact
//!
//! First-fit is an online algorithm over the sorted order: the placement of
//! the application at rank `k` depends only on the placements of ranks
//! `0..k`. An arriving application enters the order at some rank `cut`
//! (after all ties — its dense index is the largest); every placement at a
//! rank below `cut` is therefore *unchanged*, and pruning the current
//! partition to those members reconstructs the exact mid-algorithm state
//! from which a from-scratch run would proceed. Re-placing `order[cut..]`
//! from that state yields the partition a full
//! [`MapExplorerEngine::first_fit`](crate::MapExplorerEngine::first_fit)
//! over the updated fleet would produce — *bit-identical*, which the
//! property tests pin by comparing against a from-scratch rebuild after
//! arbitrary add/remove sequences. Departures work the same way: the removed
//! application held some rank `cut`; lower ranks keep their placements
//! (their relative order and profiles are untouched — removal renumbers
//! dense indices but preserves their relative order, so every sort
//! tie-break agrees with a rebuild), and the suffix is re-placed.
//!
//! # What a repair costs
//!
//! The state keeps the fleet's first-fit order, and each resident's
//! first-fit key, across requests instead of recomputing them: an arrival
//! is inserted by binary search on its key, a departure is deleted and the
//! survivors above it are renumbered, and a refused, deferred or failed
//! request restores the order it found. No request sorts the fleet. Pruning
//! reuses a rank buffer the state owns and the slot vectors of the
//! partition the last repair replaced.
//!
//! Most probes of a re-placed suffix were decided before, by the run that
//! built the current partition. While pruning, the state records each
//! survivor's old slot and the slot a departure leaves, and the placement
//! loop tracks, per slot, whether the slot being rebuilt equals the old
//! one, contains it, is contained in it, or neither (both restricted to the
//! applications placed so far; the slot a departure leaves starts out
//! contained in the old one).
//! For an application whose old slot is `j`, at slot `i`:
//!
//! - `i < j` and the rebuilt slot equals or contains the old one: rejected
//!   without a probe, since the old run rejected the application there;
//! - `i == j` and the rebuilt slot equals or is contained in the old one:
//!   accepted without a probe, since the old run accepted it there;
//! - an application with the fingerprint of the one placed just before it
//!   (its twin; for the first re-placed one, the last of the prefix) is
//!   rejected without a probe at every slot below the twin's slot, which
//!   has not changed since it rejected the twin;
//! - otherwise the probe goes to the cascade, as does every probe of the
//!   arriving application, which has no old slot.
//!
//! These answers are exact. The committed partition is exact first-fit
//! (degraded accepts are exact accepts), so the old run's verdicts are
//! exact, and they transfer because admission is anti-monotone under
//! order-preserving embedding: a probe containing a rejected probe is
//! rejected, one contained in an accepted probe is accepted. Containment by
//! fleet index is such an embedding, since slots list members in rank order
//! and the candidate comes last. The cascade's anti-monotone tier relies on
//! the same property, and
//! `crates/map/tests/engine_oracle.rs::admission_is_anti_monotone` checks it
//! against the exact oracle.
//!
//! Which probes are skipped depends on the partitions alone, never on the
//! caches, so a warm replay sends the cold one's probes, and a
//! deadline-bounded repair spends its budget only on probes whose verdict
//! is unknown. Those mostly hit the cascade's memo (verdicts are keyed
//! canonically), so a repair costs one memo lookup per unknown probe plus
//! the genuinely new queries the exact verifier answers.
//!
//! # Warm starts
//!
//! [`AdmissionState::snapshot`] persists the cascade caches (configuration,
//! interned fingerprints, verdict memo, anti-monotone index) in the
//! versioned `cps-intern` snapshot format; [`AdmissionState::from_snapshot`]
//! restores them layout-identically. The resident fleet is deliberately
//! *not* part of the snapshot — it is the service's request state, not a
//! cache; on restart the service re-admits its fleet and the warm caches
//! answer those queries without touching the exact verifier.

use std::error::Error;
use std::fmt;

use cps_core::AppTimingProfile;
use cps_intern::SnapshotError;
use cps_verify::{VerificationConfig, VerifyError};

use crate::cascade::{CascadeCore, TierVerdict};
use crate::first_fit::{first_fit_key, is_first_fit_order, place_suffix, PriorRun};
use crate::report::{MappingReport, TierStats};

/// Name under which the service's reports identify their oracle.
const ORACLE_NAME: &str = "online-admission-cascade";

/// Errors of the incremental admission front end.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// A fleet index was out of bounds for the resident fleet.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The resident fleet's size at the time of the call.
        fleet_len: usize,
    },
    /// The underlying verification failed.
    Verify(VerifyError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::OutOfRange { index, fleet_len } => {
                write!(
                    f,
                    "fleet index {index} is out of range for a fleet of {fleet_len}"
                )
            }
            AdmissionError::Verify(e) => write!(f, "admission verification failed: {e}"),
        }
    }
}

impl Error for AdmissionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdmissionError::Verify(e) => Some(e),
            AdmissionError::OutOfRange { .. } => None,
        }
    }
}

impl From<VerifyError> for AdmissionError {
    fn from(e: VerifyError) -> Self {
        AdmissionError::Verify(e)
    }
}

/// How a deadline-bounded placement was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitQuality {
    /// Every probe was decided with exact-tier fidelity.
    Exact,
    /// At least one probe fell back to the sound conservative screen after
    /// the exact tier ran out of its squeezed budget. The placement is still
    /// bit-identical to the exact first-fit partition (a conservative accept
    /// implies an exact accept).
    Degraded,
}

/// The verdict of a deadline-bounded arrival
/// ([`AdmissionState::add_app_within`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineAdmit {
    /// The application was admitted at fleet index `index`.
    Placed {
        /// The new application's fleet index.
        index: usize,
        /// Whether the degraded ladder was needed anywhere in the repair.
        quality: AdmitQuality,
    },
    /// No sound verdict was reachable within the budget for some probe; the
    /// fleet and partition are unchanged. The caller may retry with a larger
    /// budget (or no budget) at leisure.
    Deferred,
}

/// A long-lived incremental admission state: resident fleet, current
/// partition, and the persistent cascade caches behind both. See the module
/// docs for the repair invariant and the snapshot contract.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_map::AdmissionState;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = |name: &str| -> AppTimingProfile {
///     let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12]).unwrap();
///     AppTimingProfile::new(name, 9, 35, 18, 25, table).unwrap()
/// };
/// let mut state = AdmissionState::new();
/// let a = state.add_app(profile("A"))?;
/// let _b = state.add_app(profile("B"))?;
/// assert_eq!(state.fleet().len(), 2);
/// state.remove_app(a)?;
/// assert_eq!(state.fleet().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionState {
    core: CascadeCore,
    fleet: Vec<AppTimingProfile>,
    /// Interned fingerprint id per fleet index, parallel to `fleet`.
    fleet_ids: Vec<u32>,
    /// First-fit key per fleet index, parallel to `fleet`.
    fleet_keys: Vec<(usize, usize)>,
    /// The fleet's first-fit order (fleet indices ascending by first-fit
    /// key, ties by index), kept across requests.
    order: Vec<usize>,
    /// Rank in `order` per fleet index; refilled before each pruning.
    ranks: Vec<usize>,
    /// The slot vectors of the partition the last repair replaced, reused by
    /// the next pruning.
    spare_slots: Vec<Vec<usize>>,
    /// The record of the run that built `report`'s partition, written by
    /// each pruning and read by the repair that follows it.
    prior: PriorRun,
    report: MappingReport,
}

impl Default for AdmissionState {
    fn default() -> Self {
        Self::with_core(CascadeCore::default())
    }
}

impl AdmissionState {
    fn with_core(core: CascadeCore) -> Self {
        AdmissionState {
            core,
            fleet: Vec::new(),
            fleet_ids: Vec::new(),
            fleet_keys: Vec::new(),
            order: Vec::new(),
            ranks: Vec::new(),
            spare_slots: Vec::new(),
            prior: PriorRun::default(),
            report: MappingReport::with_tier_stats(
                ORACLE_NAME.to_string(),
                Vec::new(),
                0,
                TierStats::default(),
            ),
        }
    }

    /// Creates an empty state with the default (exact, unbounded)
    /// verification configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty state with an explicit verification configuration
    /// for the cascade's exact tier.
    pub fn with_config(config: VerificationConfig) -> Self {
        Self::with_core(CascadeCore::with_config(config))
    }

    /// Switches the verdict memo to the unbounded hash map (see
    /// [`crate::MapExplorerEngine::with_unbounded_memo`]).
    pub fn with_unbounded_memo(mut self) -> Self {
        self.core.set_unbounded_memo();
        self
    }

    /// Bounds the verdict memo to `buckets` two-way buckets (see
    /// [`crate::MapExplorerEngine::with_memo_capacity`]).
    pub fn with_memo_capacity(mut self, buckets: usize) -> Self {
        self.core.set_memo_capacity(buckets);
        self
    }

    /// The verification configuration of the cascade's exact tier.
    pub fn config(&self) -> &VerificationConfig {
        self.core.config()
    }

    /// The resident fleet, in arrival order (indices are the ids returned by
    /// [`AdmissionState::add_app`], renumbered downwards on removals).
    pub fn fleet(&self) -> &[AppTimingProfile] {
        &self.fleet
    }

    /// The current mapping of the resident fleet. Slots list fleet indices;
    /// the accumulated tier statistics cover every repair since the state
    /// was created.
    pub fn report(&self) -> &MappingReport {
        &self.report
    }

    /// Cumulative cascade statistics over the state's whole lifetime
    /// (including the work of deferred and failed requests, which the
    /// report's per-repair accounting excludes).
    pub fn stats(&self) -> &TierStats {
        self.core.stats()
    }

    /// Admits an arriving application into the resident fleet, repairing the
    /// partition incrementally, and returns its fleet index. The resulting
    /// partition is bit-identical to a from-scratch first-fit over the
    /// updated fleet.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures; the fleet, its first-fit order and
    /// the partition are left unchanged on error.
    pub fn add_app(&mut self, profile: AppTimingProfile) -> Result<usize, VerifyError> {
        let app = self.fleet.len();
        let (slots, cut) = self.arrive(profile);
        let repaired = self.repair(slots, cut);
        if repaired.is_err() {
            self.undo_arrival(cut);
        }
        self.debug_assert_order();
        repaired.map(|()| app)
    }

    /// Admits an arriving application like [`AdmissionState::add_app`], but
    /// caps every exact verification at `state_budget` explored states — the
    /// cooperative deadline of the admission service. Probes the exact tier
    /// cannot decide in budget fall back to the sound conservative screen
    /// (a [`AdmitQuality::Degraded`] accept); if even that cannot accept,
    /// the *whole* placement is abandoned, the fleet rolls back, and the
    /// verdict is [`DeadlineAdmit::Deferred`] — never an unsound reject.
    ///
    /// Every successful placement (exact or degraded) is bit-identical to
    /// the unbounded first-fit partition over the updated fleet, because the
    /// degraded ladder only ever *accepts* where the exact tier would.
    ///
    /// # Errors
    ///
    /// Propagates verification failures other than budget exhaustion; the
    /// fleet and partition are left unchanged on error.
    pub fn add_app_within(
        &mut self,
        profile: AppTimingProfile,
        state_budget: usize,
    ) -> Result<DeadlineAdmit, AdmissionError> {
        let app = self.fleet.len();
        let (slots, cut) = self.arrive(profile);
        let repaired = self.repair_within(slots, cut, state_budget);
        if !matches!(repaired, Ok(Some(_))) {
            self.undo_arrival(cut);
        }
        self.debug_assert_order();
        match repaired {
            Ok(Some(quality)) => Ok(DeadlineAdmit::Placed {
                index: app,
                quality,
            }),
            Ok(None) => Ok(DeadlineAdmit::Deferred),
            Err(e) => Err(AdmissionError::Verify(e)),
        }
    }

    /// Appends an arriving application to the fleet and inserts it into the
    /// kept first-fit order after every equal key (its index is the
    /// largest). Returns the partition pruned to the placements below the
    /// arrival's rank, and that rank `cut`: placements below it are
    /// invariant (see the module docs), `order[cut..]` is re-placed.
    fn arrive(&mut self, profile: AppTimingProfile) -> (Vec<Vec<usize>>, usize) {
        let id = self.core.intern_profile(&profile);
        let key = first_fit_key(&profile);
        let keys = &self.fleet_keys;
        let cut = self.order.partition_point(|&i| keys[i] <= key);
        self.order.insert(cut, self.fleet.len());
        self.fleet.push(profile);
        self.fleet_ids.push(id);
        self.fleet_keys.push(key);
        self.fill_ranks();
        (self.prune_to_prefix(cut, None), cut)
    }

    /// Reverts [`AdmissionState::arrive`]: the arrival at rank `cut` leaves
    /// the order and the fleet.
    fn undo_arrival(&mut self, cut: usize) {
        self.order.remove(cut);
        self.fleet.pop();
        self.fleet_ids.pop();
        self.fleet_keys.pop();
    }

    /// Evicts the application at `index` from the resident fleet, repairing
    /// the partition incrementally, and returns its profile. Applications
    /// after `index` are renumbered down by one (arrival order is
    /// preserved, which keeps every first-fit tie-break identical to a
    /// from-scratch rebuild).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::OutOfRange`] when `index` is out of bounds for the
    /// resident fleet; otherwise propagates exact-verifier failures. The
    /// fleet and partition are left unchanged on error.
    pub fn remove_app(&mut self, index: usize) -> Result<AppTimingProfile, AdmissionError> {
        if index >= self.fleet.len() {
            return Err(AdmissionError::OutOfRange {
                index,
                fleet_len: self.fleet.len(),
            });
        }
        // The departing application's rank in the current order: lower ranks
        // keep their placements, everything after it is re-placed. Prune to
        // the invariant prefix, renumbering surviving indices past the
        // departure down by one.
        self.fill_ranks();
        let cut = self.ranks[index];
        let slots = self.prune_to_prefix(cut, Some(index));
        let profile = self.fleet.remove(index);
        let id = self.fleet_ids.remove(index);
        let key = self.fleet_keys.remove(index);
        // The remaining applications keep their relative order, so the new
        // order is the old one minus the departure, renumbered — its first
        // `cut` entries are exactly the pruned prefix.
        self.order.remove(cut);
        for i in &mut self.order {
            *i -= usize::from(*i > index);
        }
        let result = match self.repair(slots, cut) {
            Ok(()) => Ok(profile),
            Err(e) => {
                for i in &mut self.order {
                    *i += usize::from(*i >= index);
                }
                self.order.insert(cut, index);
                self.fleet.insert(index, profile);
                self.fleet_ids.insert(index, id);
                self.fleet_keys.insert(index, key);
                Err(AdmissionError::Verify(e))
            }
        };
        self.debug_assert_order();
        result
    }

    /// A count that moves whenever the caches [`AdmissionState::snapshot`]
    /// persists change. While it stands still the state snapshots the same
    /// bytes, so a caller that keeps a recent snapshot can skip re-encoding.
    /// A state restored from a snapshot counts from zero again.
    pub fn cache_generation(&self) -> u64 {
        self.core.generation()
    }

    /// Serializes the cascade caches (configuration, interned fingerprints,
    /// verdict memo, anti-monotone index) as a versioned binary snapshot.
    /// The resident fleet is not included — see the module docs.
    pub fn snapshot(&self) -> Vec<u8> {
        self.core.to_snapshot_bytes()
    }

    /// Restores a warm, *empty* state from [`AdmissionState::snapshot`]
    /// output: the caches (and the verification configuration they were
    /// built under) are layout-identical to the saved ones, the fleet starts
    /// empty. Re-admitting the saved fleet reproduces its partition with
    /// every verdict answered from the warm caches.
    ///
    /// # Errors
    ///
    /// Propagates framing and payload violations as [`SnapshotError`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::with_core(CascadeCore::from_snapshot_bytes(bytes)?))
    }

    /// Refills `ranks` from the kept order: `ranks[order[r]] = r`.
    fn fill_ranks(&mut self) {
        self.ranks.resize(self.order.len(), 0);
        for (r, &i) in self.order.iter().enumerate() {
            self.ranks[i] = r;
        }
    }

    /// Prunes the current partition to the members whose rank (per the
    /// freshly filled `ranks`) is below `cut`, renumbering survivors past
    /// the `departing` index, and records the partition in `prior` for the
    /// repair (see [`PriorRun::prune`]). The pruned slots are written into
    /// the vectors the last repair replaced, so a repair allocates only for
    /// the slots it opens beyond those.
    fn prune_to_prefix(&mut self, cut: usize, departing: Option<usize>) -> Vec<Vec<usize>> {
        let mut pruned = std::mem::take(&mut self.spare_slots);
        self.prior.prune(
            self.report.slots(),
            &self.ranks,
            &self.fleet_ids,
            cut,
            departing,
            &mut pruned,
        );
        pruned
    }

    /// Checks, in debug builds, that the kept order is the batch first-fit
    /// order of the resident fleet.
    fn debug_assert_order(&self) {
        debug_assert!(
            is_first_fit_order(&self.fleet, &self.order),
            "the kept first-fit order diverged from the fleet's"
        );
    }

    /// Re-places the suffix `order[cut..]` of the kept first-fit order onto
    /// the pruned mid-algorithm `slots`, committing the repaired partition
    /// and its work delta into the report on success. On error the report is
    /// untouched (the caller reverts the fleet and the order).
    fn repair(&mut self, mut slots: Vec<Vec<usize>>, cut: usize) -> Result<(), VerifyError> {
        let before = *self.core.stats();
        let core = &mut self.core;
        let fleet = &self.fleet;
        let fleet_ids = &self.fleet_ids;
        let prior = Some((&mut self.prior, fleet_ids.as_slice()));
        place_suffix(&mut slots, &self.order[cut..], prior, |members| {
            core.admit_query(fleet, fleet_ids, members)
        })?;
        let delta = self.core.stats().since(&before);
        self.spare_slots = self.report.apply_repair(slots, &delta);
        Ok(())
    }

    /// Deadline-bounded variant of [`AdmissionState::repair`]: every probe
    /// runs through the cascade with a squeezed exact-tier budget.
    /// `Ok(Some(quality))` commits the repaired partition; `Ok(None)` means
    /// some probe was undecided — the placement is abandoned, the deferral
    /// is counted, and the report stays untouched (the caller reverts the
    /// fleet and the order).
    fn repair_within(
        &mut self,
        mut slots: Vec<Vec<usize>>,
        cut: usize,
        state_budget: usize,
    ) -> Result<Option<AdmitQuality>, VerifyError> {
        let before = *self.core.stats();
        let core = &mut self.core;
        let fleet = &self.fleet;
        let fleet_ids = &self.fleet_ids;
        let prior = Some((&mut self.prior, fleet_ids.as_slice()));
        let mut degraded = false;
        // A probe fails with `None` when it is undecided: answering `false`
        // could diverge from the exact first-fit partition, so the whole
        // placement is abandoned instead and answered as deferred below.
        let placed = place_suffix(&mut slots, &self.order[cut..], prior, |members| {
            let verdict = core.admit_query_bounded(fleet, fleet_ids, members, Some(state_budget));
            match verdict.map_err(Some)? {
                TierVerdict::Exact(verdict) => Ok(verdict),
                TierVerdict::DegradedAccept => {
                    degraded = true;
                    Ok(true)
                }
                TierVerdict::Undecided => Err(None),
            }
        });
        match placed {
            Ok(()) => {
                let delta = self.core.stats().since(&before);
                self.spare_slots = self.report.apply_repair(slots, &delta);
                Ok(Some(if degraded {
                    AdmitQuality::Degraded
                } else {
                    AdmitQuality::Exact
                }))
            }
            Err(None) => {
                self.core.record_deferred();
                Ok(None)
            }
            Err(Some(e)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapExplorerEngine;
    use cps_core::DwellTimeTable;

    fn profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
        r: usize,
    ) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell_plus + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len])
            .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    /// The incremental partition after each operation must equal a
    /// from-scratch batch run over the same fleet.
    fn assert_matches_batch(state: &AdmissionState) {
        let mut batch = MapExplorerEngine::new();
        let expected = batch.first_fit(state.fleet()).unwrap();
        assert_eq!(
            state.report().slots(),
            expected.slots(),
            "incremental partition diverged from the batch rebuild on fleet {:?}",
            state.fleet().iter().map(|p| p.name()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_repair_incrementally_and_match_batch() {
        let mut state = AdmissionState::new();
        assert_eq!(state.report().slot_count(), 0);
        let fleet = [
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
            profile("D", 4, 2, 3, 20),
            profile("E", 10, 3, 5, 30),
        ];
        for (i, p) in fleet.iter().enumerate() {
            let id = state.add_app(p.clone()).unwrap();
            assert_eq!(id, i);
            assert_matches_batch(&state);
        }
        assert_eq!(state.fleet().len(), 5);
        assert_eq!(state.report().oracle(), "online-admission-cascade");
        assert!(state.report().oracle_calls() > 0);
    }

    #[test]
    fn departures_renumber_and_match_batch() {
        let mut state = AdmissionState::new();
        let names = ["A", "B", "C", "D", "E"];
        let specs = [
            (10, 3, 5, 30),
            (10, 3, 5, 30),
            (0, 5, 5, 30),
            (4, 2, 3, 20),
            (10, 3, 5, 30),
        ];
        for (name, &(w, dm, dp, r)) in names.iter().zip(&specs) {
            state.add_app(profile(name, w, dm, dp, r)).unwrap();
        }
        // Evict from the middle, the front, and the back.
        let removed = state.remove_app(2).unwrap();
        assert_eq!(removed.name(), "C");
        assert_eq!(state.fleet().len(), 4);
        assert_eq!(state.fleet()[2].name(), "D", "indices renumber down");
        assert_matches_batch(&state);
        state.remove_app(0).unwrap();
        assert_matches_batch(&state);
        state.remove_app(state.fleet().len() - 1).unwrap();
        assert_matches_batch(&state);
        state.remove_app(0).unwrap();
        state.remove_app(0).unwrap();
        assert_eq!(state.fleet().len(), 0);
        assert_eq!(state.report().slot_count(), 0);
    }

    #[test]
    fn repair_reuses_the_memo_across_operations() {
        let mut state = AdmissionState::new();
        for name in ["A", "B", "C", "D"] {
            state.add_app(profile(name, 10, 3, 5, 30)).unwrap();
        }
        let verifies_after_adds = state.stats().exact_verifies;
        // Departure + identical re-arrival: every repair probe was answered
        // before, so the exact verifier must stay cold.
        state.remove_app(1).unwrap();
        state.add_app(profile("B2", 10, 3, 5, 30)).unwrap();
        assert_matches_batch(&state);
        assert_eq!(
            state.stats().exact_verifies,
            verifies_after_adds,
            "churn over known profiles must be answered from the caches"
        );
        assert!(state.stats().memo_hits > 0);
    }

    #[test]
    fn snapshot_warm_start_replays_without_exact_verification() {
        let mut state = AdmissionState::new();
        let fleet = [
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
            profile("D", 4, 2, 3, 20),
        ];
        for p in &fleet {
            state.add_app(p.clone()).unwrap();
        }
        assert!(state.stats().exact_verifies > 0, "cold run does real work");
        let bytes = state.snapshot();

        let mut warm = AdmissionState::from_snapshot(&bytes).unwrap();
        assert_eq!(warm.config(), state.config());
        assert!(
            warm.fleet().is_empty(),
            "the fleet is not part of a snapshot"
        );
        for p in &fleet {
            warm.add_app(p.clone()).unwrap();
        }
        assert_eq!(warm.report().slots(), state.report().slots());
        assert_eq!(
            warm.stats().exact_verifies,
            0,
            "every warm-start verdict must come from the restored caches"
        );
        assert!(warm.stats().memo_hits > 0);
    }

    #[test]
    fn snapshot_rejects_corrupt_bytes() {
        let state = AdmissionState::new();
        let mut bytes = state.snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(AdmissionState::from_snapshot(&bytes).is_err());
        assert!(AdmissionState::from_snapshot(&[]).is_err());
    }

    #[test]
    fn out_of_range_removal_is_a_typed_error() {
        let mut state = AdmissionState::new();
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let err = state.remove_app(3).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::OutOfRange {
                index: 3,
                fleet_len: 1
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert_eq!(state.fleet().len(), 1, "the fleet must be untouched");
    }

    #[test]
    fn bounded_arrivals_place_exactly_or_defer_cleanly() {
        // A generous budget behaves exactly like the unbounded path.
        let mut state = AdmissionState::new();
        let verdict = state
            .add_app_within(profile("A", 10, 3, 5, 30), 1_000_000)
            .unwrap();
        assert_eq!(
            verdict,
            DeadlineAdmit::Placed {
                index: 0,
                quality: AdmitQuality::Exact
            }
        );
        let verdict = state
            .add_app_within(profile("B", 10, 3, 5, 30), 1_000_000)
            .unwrap();
        assert!(matches!(verdict, DeadlineAdmit::Placed { index: 1, .. }));
        assert_matches_batch(&state);
    }

    #[test]
    fn starved_arrivals_defer_and_roll_back() {
        // Budget 1: the exact tier decides no pair probe that takes more
        // than one popped state. "C" waits at most two samples next to A's
        // three-sample minimum dwell, which the exact tier cannot decide
        // from the first state and the conservative screen cannot accept in
        // a shared slot — the arrival must come back deferred with the
        // fleet untouched.
        let mut state = AdmissionState::new();
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let slots_before = state.report().slots().to_vec();
        let deferred_before = state.stats().deferred;
        let verdict = state.add_app_within(profile("C", 2, 5, 5, 30), 1).unwrap();
        assert_eq!(verdict, DeadlineAdmit::Deferred);
        assert_eq!(state.fleet().len(), 1, "deferred arrival must roll back");
        assert_eq!(state.report().slots(), slots_before.as_slice());
        assert_eq!(state.stats().deferred, deferred_before + 1);
        // Retried without a deadline, the same arrival lands.
        state.add_app(profile("C", 2, 5, 5, 30)).unwrap();
        assert_matches_batch(&state);
    }

    #[test]
    fn degraded_accepts_stay_bit_identical_to_batch() {
        // Budget 1 starves the exact tier, but A and B are far apart enough
        // for the conservative worst-case-blocking screen to accept — the
        // arrival lands as a degraded placement on the same slot the exact
        // engine would pick.
        let mut state = AdmissionState::new();
        state.add_app_within(profile("A", 10, 3, 5, 30), 1).unwrap();
        let verdict = state.add_app_within(profile("B", 10, 3, 5, 30), 1).unwrap();
        assert_eq!(
            verdict,
            DeadlineAdmit::Placed {
                index: 1,
                quality: AdmitQuality::Degraded
            }
        );
        assert!(state.stats().degraded_accepts > 0);
        assert_matches_batch(&state);
    }

    #[test]
    fn errors_leave_the_state_unchanged() {
        use cps_verify::VerificationConfig;
        // A tiny state budget: singleton placements succeed (tier 1 decides
        // them without the verifier), but a pair probe must error out.
        let mut state = AdmissionState::with_config(VerificationConfig {
            state_budget: 1,
            ..VerificationConfig::default()
        });
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let slots_before = state.report().slots().to_vec();
        let err = state.add_app(profile("B", 10, 3, 5, 30)).unwrap_err();
        assert!(matches!(err, VerifyError::StateBudgetExhausted { .. }));
        assert_eq!(state.fleet().len(), 1, "failed arrival must roll back");
        assert_eq!(state.report().slots(), slots_before.as_slice());
        // The state keeps working after the failure.
        assert_eq!(state.fleet()[0].name(), "A");
    }
}
