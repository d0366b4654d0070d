//! The mapping design-space exploration engine: a tiered admission cascade
//! with canonical memoization in front of the exact verifier, and an optimal
//! branch-and-bound slot minimizer on top of it.
//!
//! [`MapExplorerEngine`] answers the same admission question as
//! [`crate::ModelCheckingOracle`] — "may these applications share one TT
//! slot?" — but is built for *many* queries: first-fit probes, parameter
//! sweeps and partition-lattice searches ask about thousands of overlapping
//! candidate sets, and the naive driver re-runs the exact verifier from
//! scratch for each. The engine pushes every query through a cascade of
//! tiers, cheapest first; each tier either decides the query or passes it
//! down, and only the residue reaches the interned-state
//! [`SlotVerifyEngine`](cps_verify::SlotVerifyEngine):
//!
//! 1. **Singleton accept** — one application per slot is admissible by
//!    construction (its dwell table guarantees the requirement with a
//!    dedicated slot; pinned by a property test), so singleton queries never
//!    touch any analysis.
//! 2. **Canonical memo table** — candidate sets are keyed by the sequence of
//!    interned profile *fingerprints* (`T_w^*`, `r`, both dwell arrays —
//!    exactly the fields of the checker semantics, mirroring
//!    [`cps_verify::profiles_interchangeable`]). Keys are name-insensitive
//!    and invariant under permutations of identical profiles — PR 4's
//!    symmetry reduction at the mapping layer — so probes over renamed,
//!    permuted or re-generated fleets hit the cache instead of the verifier.
//!    The memo is *bounded* by default: a two-way transposition table
//!    ([`cps_intern::TwoWayTranspositionTable`]) keyed by the incremental
//!    Zobrist fingerprint of the canonical key, with a depth-preferred way
//!    (member count — expensive deep verdicts survive) and an always-replace
//!    way. Entries carry the full key and only answer on an exact match, so
//!    bounding memory never changes a verdict; sweeps of unbounded duration
//!    run in constant memo memory.
//!    Keys deliberately remain *sequences* across distinct fingerprints: the
//!    scheduler breaks laxity ties by application index, so the exact verdict
//!    is only invariant under permutations of interchangeable applications
//!    (see the arrangement tests of `cps-verify`); a full multiset key could
//!    return the verdict of a differently ordered — semantically different —
//!    model. First-fit probes are always sorted by the first-fit key, so this
//!    loses no hits in practice.
//! 3. **Quick necessary-condition screen** — two sound rejections: the
//!    all-disturbed-at-once scenario (every application hit at sample zero,
//!    no further disturbances) is run through `cps-sched`'s concrete
//!    scheduler ([`cps_sched::first_miss`]) in `O(Σ T_dw^+)` — if it misses
//!    a deadline the exact verifier is guaranteed to reject, since that
//!    scenario is one of the branches it explores; and, in the unbounded
//!    sporadic model, a minimum-demand utilisation bound
//!    (`Σ max(1, min_w T_dw^-) / r > 1` means backlog grows without bound,
//!    so some deadline is eventually missed).
//! 4. **Anti-monotone index** — admission is anti-monotone: a candidate set
//!    into which a known-inadmissible set embeds (same fingerprints, order
//!    preserved) is inadmissible, because the witness scenario extends with
//!    the extra applications never disturbed (validated against the exact
//!    oracle by property test; only this direction is used for pruning).
//! 5. **Baseline accept** — the conservative blocking analysis
//!    ([`crate::baseline`]) accepts early, *gated* to the regime where it is
//!    provably sound w.r.t. the exact semantics: pairs whose hold time `J_T`
//!    bounds every useful dwell (`J_T ≥ max_w T_dw^+(w)`, so the analysis
//!    never under-charges an occupation) and whose inter-arrival times rule
//!    out a second interference per wait window
//!    (`r_j > T_w^*_i + T_w^*_j + J_T_j`). Outside the gate the analysis can
//!    over-admit (e.g. profiles with `J_T < T_dw^+`), so it is skipped; the
//!    gated accept is pinned against the exact oracle by property test.
//! 6. **Exact verification** — the residue runs on one persistent
//!    [`SlotVerifyEngine`](cps_verify::SlotVerifyEngine) through its
//!    index-based `falsify_selected` hook: no profile clones, no model
//!    construction, exploration buffers shared across every query the
//!    engine ever makes. The hook runs the exhaustive search; once that
//!    search has popped its first 2,048 states, seeded random disturbance
//!    walks through the same compiled transitions try to reach a miss and
//!    end it early with a concrete witness (about a tenth of the search's
//!    time). A walk is one branch of the exhaustive search, so it only
//!    ever proves a reject. Verdicts are those of `verify_selected`, the
//!    walks are seeded from the model's content, and
//!    [`TierStats::falsified_rejects`] and [`TierStats::walk_samples`]
//!    count their work. Verdicts are memoized; inadmissible sets feed the
//!    anti-monotone index.
//!
//! Every tier is exact — sound rejections above, sound accepts below — so
//! cascade-equipped first-fit produces *bit-identical* partitions to plain
//! first-fit over [`crate::ModelCheckingOracle`] (asserted by property tests
//! and on every `bench_map` run).
//!
//! The tiers themselves live in the crate-internal `cascade` module as a
//! persistent `CascadeCore` operating on borrowed state; this engine is the *batch*
//! front end over it (whole-fleet runs), and [`crate::AdmissionState`] is
//! the *incremental* one (the online admission service). Both share the same
//! caches-and-verdicts machinery, so their verdicts are bit-identical by
//! construction.
//!
//! On top of the cascade, [`MapExplorerEngine::minimize_slots`] searches the
//! partition lattice exhaustively with branch and bound — first-fit as the
//! incumbent upper bound, memoized admission, and identical-profile symmetry
//! breaking — yielding *provably minimal* slot counts where first-fit is
//! only a heuristic. The naive exhaustive partition search is retained as
//! the semantic oracle ([`crate::reference`]) and slot-count equivalence is
//! asserted on every test and bench run.
//!
//! Each question runs through one serial loop on the engine's own core:
//! first-fit through the placement loop every front end shares, the
//! minimizer through one depth-first search. The only worker pool is the
//! exact verifier's ([`MapExplorerEngine::with_pool`]), which is where the
//! time goes; results and counts do not depend on its width.

use cps_core::AppTimingProfile;
use cps_verify::{VerificationConfig, VerifyError};

use crate::cascade::CascadeCore;
use crate::first_fit::{place_suffix, sort_for_first_fit};
use crate::report::{MappingReport, MinimizeReport, TierStats};

/// The mapping design-space exploration engine: tiered admission cascade,
/// canonical memoization, and an optimal branch-and-bound slot minimizer.
///
/// Construction is cheap. All state — the fingerprint intern table, the memo
/// table, the anti-monotone index and the exact verifier's exploration
/// buffers — persists across every query, [`MapExplorerEngine::first_fit`]
/// run and [`MapExplorerEngine::minimize_slots`] search the engine ever
/// performs, so sweeps over many fleets amortise all of it.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_map::MapExplorerEngine;
///
/// # fn main() -> Result<(), cps_verify::VerifyError> {
/// let profile = |name: &str| -> AppTimingProfile {
///     let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12]).unwrap();
///     AppTimingProfile::new(name, 9, 35, 18, 25, table).unwrap()
/// };
/// let fleet = vec![profile("A"), profile("B"), profile("C")];
/// let mut engine = MapExplorerEngine::new();
/// let mapping = engine.first_fit(&fleet)?;
/// let optimal = engine.minimize_slots(&fleet)?;
/// assert!(optimal.slot_count() <= mapping.slot_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct MapExplorerEngine {
    core: CascadeCore,
}

impl MapExplorerEngine {
    /// Creates the engine with the default (exact, unbounded) verification
    /// configuration and the non-preemptive deadline-monotonic baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the engine with an explicit verification configuration for
    /// the exact tier (the screen's utilisation bound only fires for
    /// unbounded configurations, where its unbounded-demand argument holds).
    pub fn with_config(config: VerificationConfig) -> Self {
        MapExplorerEngine {
            core: CascadeCore::with_config(config),
        }
    }

    /// Moves the exact verifier onto `pool` (builder style) — the tier where
    /// the time goes. Verdicts and every work count are identical for every
    /// pool, and the verifier keeps its buffers and statistics, so the
    /// builder may also follow queries the engine already answered.
    #[must_use]
    pub fn with_pool(mut self, pool: cps_par::Pool) -> Self {
        self.core.set_pool(pool);
        self
    }

    /// Switches the verdict memo to the historical unbounded hash map:
    /// nothing is ever evicted, memory grows with the number of distinct
    /// queries. Verdicts are identical to the default bounded memo (pinned
    /// by the TT-on/TT-off equivalence tests).
    pub fn with_unbounded_memo(mut self) -> Self {
        self.core.set_unbounded_memo();
        self
    }

    /// Bounds the verdict memo to `buckets` two-way buckets (capacity
    /// `2 × buckets` verdicts, rounded up to a power of two). Small
    /// capacities force evictions — useful for testing; the default is
    /// ample for every sweep in the repo.
    pub fn with_memo_capacity(mut self, buckets: usize) -> Self {
        self.core.set_memo_capacity(buckets);
        self
    }

    /// Cumulative per-tier statistics over the engine's whole lifetime.
    pub fn stats(&self) -> &TierStats {
        self.core.stats()
    }

    /// Decides whether the applications selected by `members` (indices into
    /// `profiles`, in that order) may share one TT slot, running the
    /// admission cascade.
    ///
    /// The verdict is identical to
    /// [`crate::ModelCheckingOracle`]`::admits_indices` on the same
    /// selection; an empty selection is trivially admissible.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures (invalid configuration, exhausted
    /// state budget).
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of bounds for `profiles`.
    pub fn admits(
        &mut self,
        profiles: &[AppTimingProfile],
        members: &[usize],
    ) -> Result<bool, VerifyError> {
        let fleet_ids = self.core.intern_fleet(profiles);
        self.core.admit_query(profiles, &fleet_ids, members)
    }

    /// Runs the paper's first-fit heuristic with the admission cascade:
    /// identical iteration order and probes as [`crate::first_fit()`] over
    /// [`crate::ModelCheckingOracle`], identical resulting partition, but
    /// with most probes decided without touching the exact verifier.
    ///
    /// The returned report carries the per-tier statistics of this run.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures.
    pub fn first_fit(
        &mut self,
        profiles: &[AppTimingProfile],
    ) -> Result<MappingReport, VerifyError> {
        let fleet_ids = self.core.intern_fleet(profiles);
        self.first_fit_inner(profiles, &fleet_ids, &sort_for_first_fit(profiles))
    }

    /// Finds a partition with the *provably minimal* number of TT slots by
    /// branch and bound over the partition lattice: applications are placed
    /// in first-fit order, the first-fit partition is the incumbent upper
    /// bound, every placement probe runs through the memoized cascade, and
    /// identical profiles (equal fingerprints) only open slots in
    /// non-decreasing order — the symmetry breaking that collapses permuted
    /// placements of interchangeable applications.
    ///
    /// Slot members and slot order follow the same canonical (first-fit)
    /// order as [`MapExplorerEngine::first_fit`] and [`crate::reference`],
    /// so engine and reference verdicts are directly comparable; slot-count
    /// equivalence against [`crate::reference::minimize_slots`] is asserted
    /// in tests and on every `bench_map` run.
    ///
    /// The search runs on the engine's own core. A wider pool (see
    /// [`MapExplorerEngine::with_pool`]) only shards the exact verifier's
    /// successor generation, so the partition, `nodes_explored` and every
    /// tier and verifier count are identical at every pool width.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures.
    pub fn minimize_slots(
        &mut self,
        profiles: &[AppTimingProfile],
    ) -> Result<MinimizeReport, VerifyError> {
        let before = *self.core.stats();
        let fleet_ids = self.core.intern_fleet(profiles);
        let order = sort_for_first_fit(profiles);
        let incumbent = self.first_fit_inner(profiles, &fleet_ids, &order)?;
        let first_fit_slots = incumbent.slot_count();
        let mut best: Vec<Vec<usize>> = incumbent.slots().to_vec();
        let mut nodes = 0usize;
        self.search(
            profiles,
            &fleet_ids,
            &order,
            0,
            &mut Vec::new(),
            &mut best,
            &mut nodes,
        )?;
        Ok(MinimizeReport::new(
            best,
            nodes,
            first_fit_slots,
            self.core.stats().since(&before),
        ))
    }

    fn first_fit_inner(
        &mut self,
        profiles: &[AppTimingProfile],
        fleet_ids: &[u32],
        order: &[usize],
    ) -> Result<MappingReport, VerifyError> {
        let before = *self.core.stats();
        let mut slots: Vec<Vec<usize>> = Vec::new();
        let core = &mut self.core;
        place_suffix(&mut slots, order, None, |members| {
            core.admit_query(profiles, fleet_ids, members)
        })?;
        let delta = self.core.stats().since(&before);
        Ok(MappingReport::with_tier_stats(
            "map-explorer-cascade".to_string(),
            slots,
            delta.queries,
            delta,
        ))
    }

    /// Branch-and-bound node: place `order[pos..]` into `slots`, improving
    /// `best` (strictly fewer slots) whenever a full feasible placement is
    /// found.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        profiles: &[AppTimingProfile],
        fleet_ids: &[u32],
        order: &[usize],
        pos: usize,
        slots: &mut Vec<Vec<usize>>,
        best: &mut Vec<Vec<usize>>,
        nodes: &mut usize,
    ) -> Result<(), VerifyError> {
        // Bound: completing needs at least `slots.len()` slots, and only a
        // strict improvement over the incumbent is worth finding.
        if slots.len() >= best.len() {
            return Ok(());
        }
        if pos == order.len() {
            *best = slots.clone();
            return Ok(());
        }
        *nodes += 1;
        let app = order[pos];
        // Symmetry breaking: an application interchangeable with its
        // predecessor (equal fingerprint) never opens an earlier slot.
        let first_slot = if pos > 0 && fleet_ids[app] == fleet_ids[order[pos - 1]] {
            slots
                .iter()
                .position(|slot| slot.contains(&order[pos - 1]))
                .unwrap_or(0)
        } else {
            0
        };
        for s in first_slot..slots.len() {
            slots[s].push(app);
            if self.core.admit_query(profiles, fleet_ids, &slots[s])? {
                self.search(profiles, fleet_ids, order, pos + 1, slots, best, nodes)?;
            }
            slots[s].pop();
        }
        // Open a new slot: a singleton is admissible by construction.
        slots.push(vec![app]);
        self.search(profiles, fleet_ids, order, pos + 1, slots, best, nodes)?;
        slots.pop();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ModelCheckingOracle, SlotOracle};
    use crate::{first_fit, reference};
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

    /// A profile whose hold time `J_T` dominates the dwell arrays, so the
    /// baseline gate can open.
    fn holdy_profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell; len], vec![dwell; len]).unwrap();
        AppTimingProfile::new(name, dwell, jstar + 10, jstar, r, table).unwrap()
    }

    #[test]
    fn cascade_first_fit_matches_plain_first_fit() {
        let fleet = vec![
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
            profile("D", 4, 2, 3, 20),
            profile("E", 10, 3, 5, 30),
        ];
        let plain = first_fit(&fleet, &ModelCheckingOracle::new()).unwrap();
        let mut engine = MapExplorerEngine::new();
        let cascade = engine.first_fit(&fleet).unwrap();
        assert_eq!(cascade.slots(), plain.slots());
        let stats = cascade.tier_stats().expect("cascade carries stats");
        assert_eq!(stats.queries, plain.oracle_calls());
        assert!(stats.exact_verifies <= stats.queries);
    }

    #[test]
    fn repeated_runs_hit_the_memo() {
        let fleet = vec![
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
        ];
        let mut engine = MapExplorerEngine::new();
        let first = engine.first_fit(&fleet).unwrap();
        let second = engine.first_fit(&fleet).unwrap();
        assert_eq!(first.slots(), second.slots());
        let stats = second.tier_stats().unwrap();
        assert_eq!(stats.exact_verifies, 0, "second run must be fully memoized");
        assert_eq!(stats.memo_hits + stats.singleton_accepts, stats.queries);
        // Renaming the applications must not disturb the memo (fingerprints
        // are name-insensitive).
        let renamed = vec![
            profile("X", 10, 3, 5, 30),
            profile("Y", 10, 3, 5, 30),
            profile("Z", 0, 5, 5, 30),
        ];
        let third = engine.first_fit(&renamed).unwrap();
        assert_eq!(third.slots(), first.slots());
        assert_eq!(third.tier_stats().unwrap().exact_verifies, 0);
    }

    #[test]
    fn screen_rejects_are_sound_and_fire() {
        // Two zero-wait applications cannot share: the screen alone decides.
        let fleet = vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)];
        let mut engine = MapExplorerEngine::new();
        assert!(!engine.admits(&fleet, &[0, 1]).unwrap());
        assert_eq!(engine.stats().quick_rejects, 1);
        assert_eq!(engine.stats().exact_verifies, 0);
        // And the exact oracle agrees.
        assert!(!ModelCheckingOracle::new()
            .admits_indices(&fleet, &[0, 1])
            .unwrap());
    }

    #[test]
    fn baseline_gate_accepts_pairs_without_exact_verification() {
        // Constant dwell equal to J_T, huge inter-arrival: the gate opens
        // and the blocking analysis decides the pair.
        let fleet = vec![
            holdy_profile("A", 10, 3, 100),
            holdy_profile("B", 12, 3, 100),
        ];
        let mut engine = MapExplorerEngine::new();
        assert!(engine.admits(&fleet, &[0, 1]).unwrap());
        assert_eq!(engine.stats().baseline_accepts, 1);
        assert_eq!(engine.stats().exact_verifies, 0);
        assert!(ModelCheckingOracle::new()
            .admits_indices(&fleet, &[0, 1])
            .unwrap());
    }

    #[test]
    fn anti_monotone_index_rejects_supersets() {
        // {A, B} passes the all-disturbed-at-once screen (B has the smaller
        // laxity and is served first) but a staggered scenario kills it: A
        // disturbed alone is granted and cannot be preempted before
        // T_dw^- = 5 samples, more than B can wait. The exact verifier finds
        // that, records the pair in the anti-monotone index, and the
        // screen-passing superset {A, C, B} is then rejected by embedding.
        let fleet = vec![
            profile("A", 10, 5, 5, 40),
            profile("B", 3, 2, 2, 40),
            profile("C", 10, 5, 5, 40),
        ];
        let mut engine = MapExplorerEngine::new();
        assert!(!engine.admits(&fleet, &[0, 1]).unwrap());
        assert_eq!(
            engine.stats().exact_verifies,
            1,
            "screen must pass the pair"
        );
        // The superset {A, C, B} embeds {A, B} in order.
        assert!(!engine.admits(&fleet, &[0, 2, 1]).unwrap());
        assert_eq!(engine.stats().anti_monotone_rejects, 1);
        assert_eq!(engine.stats().exact_verifies, 1);
        // The exact oracle agrees on the superset.
        assert!(!ModelCheckingOracle::new()
            .admits_indices(&fleet, &[0, 2, 1])
            .unwrap());
    }

    #[test]
    fn minimize_slots_matches_reference_and_first_fit_bound() {
        let fleets = vec![
            vec![
                profile("A", 10, 3, 5, 30),
                profile("B", 10, 3, 5, 30),
                profile("C", 0, 5, 5, 30),
            ],
            vec![
                profile("A", 4, 2, 3, 20),
                profile("B", 10, 3, 5, 30),
                profile("C", 4, 2, 3, 20),
                profile("D", 10, 3, 5, 30),
            ],
            vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)],
        ];
        let mut engine = MapExplorerEngine::new();
        for fleet in &fleets {
            let optimal = engine.minimize_slots(fleet).unwrap();
            let oracle = ModelCheckingOracle::new();
            let expected = reference::minimize_slots(fleet, &oracle).unwrap();
            assert_eq!(optimal.slot_count(), expected.len(), "fleet {fleet:?}");
            assert!(optimal.slot_count() <= optimal.first_fit_slots());
            // The engine's partition is feasible slot by slot.
            for slot in optimal.slots() {
                if slot.len() > 1 {
                    assert!(oracle.admits_indices(fleet, slot).unwrap());
                }
            }
        }
    }

    #[test]
    fn minimize_beats_first_fit_when_the_heuristic_is_suboptimal() {
        // First-fit is a heuristic: the minimizer must never be worse, and
        // the empty fleet degrades gracefully.
        let mut engine = MapExplorerEngine::new();
        let empty = engine.minimize_slots(&[]).unwrap();
        assert_eq!(empty.slot_count(), 0);
        let single = engine.minimize_slots(&[profile("A", 5, 2, 3, 20)]).unwrap();
        assert_eq!(single.slot_count(), 1);
        assert_eq!(single.slots(), &[vec![0]]);
    }

    #[test]
    fn minimize_is_identical_at_every_pool_width() {
        let counts = |report: &MinimizeReport| TierStats {
            exact_verify_time: std::time::Duration::ZERO,
            ..*report.tier_stats()
        };
        // The pool drives the exact verifier under the search. Fleets chosen
        // to exercise real branching: mixed fleets where the minimizer beats
        // first-fit, interchangeable-profile fleets that lean on symmetry
        // breaking, and zero-wait fleets where every pair is rejected and
        // the first-fit incumbent wins outright.
        let fleets = vec![
            vec![
                profile("A", 10, 3, 5, 30),
                profile("B", 10, 3, 5, 30),
                profile("C", 0, 5, 5, 30),
                profile("D", 4, 2, 3, 20),
            ],
            vec![
                profile("A", 4, 2, 3, 20),
                profile("B", 10, 3, 5, 30),
                profile("C", 4, 2, 3, 20),
                profile("D", 10, 3, 5, 30),
                profile("E", 10, 3, 5, 30),
            ],
            vec![
                profile("A", 0, 5, 5, 30),
                profile("B", 0, 5, 5, 30),
                profile("C", 0, 5, 5, 30),
            ],
            vec![
                holdy_profile("A", 10, 3, 16),
                holdy_profile("B", 12, 3, 18),
                profile("C", 10, 3, 5, 30),
                profile("D", 4, 2, 3, 20),
            ],
        ];
        for fleet in &fleets {
            let mut serial = MapExplorerEngine::new().with_pool(cps_par::Pool::serial());
            let reference = serial.minimize_slots(fleet).unwrap();
            for threads in [2, 4] {
                let pool = cps_par::Pool::with_threads(threads);
                let mut engine = MapExplorerEngine::new().with_pool(pool);
                let report = engine.minimize_slots(fleet).unwrap();
                assert_eq!(report.slots(), reference.slots(), "threads={threads}");
                assert_eq!(report.nodes_explored(), reference.nodes_explored());
                assert_eq!(report.first_fit_slots(), reference.first_fit_slots());
                assert_eq!(counts(&report), counts(&reference), "threads={threads}");
            }
        }
    }

    #[test]
    fn invalid_configs_error_before_any_tier_decides() {
        // The cascade must error exactly where the plain oracle does — even
        // on queries a cheap tier could otherwise answer (singletons, memo
        // hits, screen rejects).
        let fleet = vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)];
        for config in [
            VerificationConfig {
                state_budget: 0,
                ..VerificationConfig::default()
            },
            VerificationConfig::bounded(0),
        ] {
            let mut engine = MapExplorerEngine::with_config(config);
            assert!(matches!(
                engine.admits(&fleet, &[0]),
                Err(VerifyError::InvalidConfig { .. })
            ));
            assert!(matches!(
                engine.admits(&fleet, &[0, 1]),
                Err(VerifyError::InvalidConfig { .. })
            ));
        }
    }
}
