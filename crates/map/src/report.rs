//! Mapping results.

use std::fmt;
use std::time::Duration;

use cps_verify::VerifyStats;

/// Per-tier accounting of the admission cascade
/// ([`crate::MapExplorerEngine`]): how many admission queries each tier
/// decided, and how much time the residue spent in the exact verifier.
///
/// The tiers are listed in query order: singletons are admissible by
/// construction, the memo table answers repeated (canonically keyed)
/// queries, the necessary-condition screen rejects early, the
/// anti-monotonicity index rejects supersets of known-inadmissible sets, the
/// conservative blocking analysis accepts early, and only the residue
/// reaches the exact interned-state verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Total admission queries answered.
    pub queries: usize,
    /// Queries for a single application (admissible by construction).
    pub singleton_accepts: usize,
    /// Queries answered by the canonical memo table.
    pub memo_hits: usize,
    /// Queries rejected by the cheap necessary-condition screen.
    pub quick_rejects: usize,
    /// Queries rejected because a known-inadmissible set embeds into them.
    pub anti_monotone_rejects: usize,
    /// Queries accepted by the conservative blocking analysis.
    pub baseline_accepts: usize,
    /// Queries that reached the exact model-checking verifier.
    pub exact_verifies: usize,
    /// Exact verifications a seeded falsifying walk decided as rejects
    /// before the search reached its own miss (see
    /// [`cps_verify::SlotVerifyEngine::falsify_selected`]); counted in
    /// `exact_verifies` too. Only searches that outlive their first chunk
    /// of popped states run walks.
    pub falsified_rejects: usize,
    /// Samples the falsifying walks stepped, over every exact verification;
    /// their time is part of `exact_verify_time`.
    pub walk_samples: usize,
    /// Deadline-bounded queries whose exact verification ran out of budget
    /// and that the sound conservative worst-case-blocking screen then
    /// *accepted* — a degraded but sound accept.
    pub degraded_accepts: usize,
    /// Deadline-bounded queries left undecided: the exact verification ran
    /// out of budget and the conservative screen could not accept either.
    /// The admission front end answers these as deferred.
    pub deferred: usize,
    /// Wall-clock time spent inside the exact verifier.
    pub exact_verify_time: Duration,
    /// Verdicts evicted from the bounded memo transposition table, summed
    /// over every bounded memo the engine has used (an unbounded memo never
    /// adds to it). An eviction bounds memory, never changes a verdict — the
    /// evicted query is simply recomputed on its next miss.
    pub tt_evictions: usize,
    /// Hash/probe work counters of the exact verifier behind tier 6.
    pub verify: VerifyStats,
}

impl TierStats {
    /// Component-wise accumulation of a per-operation delta into a running
    /// total — how the online admission service folds each incremental
    /// repair's work into its lifetime report.
    ///
    /// Both this and [`TierStats::since`] destructure every field, so a
    /// counter added to the struct and left out of them fails to compile.
    pub fn accumulate(&mut self, delta: &TierStats) {
        let TierStats {
            queries,
            singleton_accepts,
            memo_hits,
            quick_rejects,
            anti_monotone_rejects,
            baseline_accepts,
            exact_verifies,
            falsified_rejects,
            walk_samples,
            degraded_accepts,
            deferred,
            exact_verify_time,
            tt_evictions,
            verify,
        } = *delta;
        self.queries += queries;
        self.singleton_accepts += singleton_accepts;
        self.memo_hits += memo_hits;
        self.quick_rejects += quick_rejects;
        self.anti_monotone_rejects += anti_monotone_rejects;
        self.baseline_accepts += baseline_accepts;
        self.exact_verifies += exact_verifies;
        self.falsified_rejects += falsified_rejects;
        self.walk_samples += walk_samples;
        self.degraded_accepts += degraded_accepts;
        self.deferred += deferred;
        self.exact_verify_time += exact_verify_time;
        self.tt_evictions += tt_evictions;
        self.verify = self.verify.plus(&verify);
    }

    /// Per-query difference `self − earlier`: the statistics of the queries
    /// made between two snapshots of a long-lived engine.
    pub fn since(&self, earlier: &TierStats) -> TierStats {
        let TierStats {
            queries,
            singleton_accepts,
            memo_hits,
            quick_rejects,
            anti_monotone_rejects,
            baseline_accepts,
            exact_verifies,
            falsified_rejects,
            walk_samples,
            degraded_accepts,
            deferred,
            exact_verify_time,
            tt_evictions,
            verify,
        } = *earlier;
        TierStats {
            queries: self.queries - queries,
            singleton_accepts: self.singleton_accepts - singleton_accepts,
            memo_hits: self.memo_hits - memo_hits,
            quick_rejects: self.quick_rejects - quick_rejects,
            anti_monotone_rejects: self.anti_monotone_rejects - anti_monotone_rejects,
            baseline_accepts: self.baseline_accepts - baseline_accepts,
            exact_verifies: self.exact_verifies - exact_verifies,
            falsified_rejects: self.falsified_rejects - falsified_rejects,
            walk_samples: self.walk_samples - walk_samples,
            degraded_accepts: self.degraded_accepts - degraded_accepts,
            deferred: self.deferred - deferred,
            exact_verify_time: self.exact_verify_time - exact_verify_time,
            tt_evictions: self.tt_evictions - tt_evictions,
            verify: self.verify.since(&verify),
        }
    }
}

/// Renders the counts only: `exact_verify_time` is left out, so the same
/// work renders the same text on every run.
impl fmt::Display for TierStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries: {} singleton, {} memo-hit, {} quick-reject, \
             {} anti-monotone, {} baseline-accept, {} exact-verify \
             ({} falsified by {} walk samples), {} degraded-accept, {} deferred; \
             {} tt-evictions; verifier: {} probes, {} hash-hits, {} rehashes",
            self.queries,
            self.singleton_accepts,
            self.memo_hits,
            self.quick_rejects,
            self.anti_monotone_rejects,
            self.baseline_accepts,
            self.exact_verifies,
            self.falsified_rejects,
            self.walk_samples,
            self.degraded_accepts,
            self.deferred,
            self.tt_evictions,
            self.verify.intern_probes,
            self.verify.hash_hits,
            self.verify.rehashes,
        )
    }
}

/// Renders a slot partition with application names substituted in.
pub(crate) fn format_partition(slots: &[Vec<usize>], names: &[&str]) -> String {
    let slots: Vec<String> = slots
        .iter()
        .map(|slot| {
            let members: Vec<&str> = slot
                .iter()
                .map(|&i| names.get(i).copied().unwrap_or("?"))
                .collect();
            format!("{{{}}}", members.join(", "))
        })
        .collect();
    slots.join("  ")
}

/// The result of a first-fit mapping run: which applications share which TT
/// slot, and how much work the admission oracle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingReport {
    oracle: String,
    slots: Vec<Vec<usize>>,
    oracle_calls: usize,
    tier_stats: Option<TierStats>,
}

impl MappingReport {
    /// Creates a report (no cascade statistics — a plain oracle run).
    pub fn new(oracle: String, slots: Vec<Vec<usize>>, oracle_calls: usize) -> Self {
        MappingReport {
            oracle,
            slots,
            oracle_calls,
            tier_stats: None,
        }
    }

    /// Creates a report carrying the admission cascade's per-tier statistics.
    pub fn with_tier_stats(
        oracle: String,
        slots: Vec<Vec<usize>>,
        oracle_calls: usize,
        tier_stats: TierStats,
    ) -> Self {
        MappingReport {
            oracle,
            slots,
            oracle_calls,
            tier_stats: Some(tier_stats),
        }
    }

    /// The slot partition: each inner vector lists application indices.
    pub fn slots(&self) -> &[Vec<usize>] {
        &self.slots
    }

    /// Number of TT slots required.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of admission checks performed.
    pub fn oracle_calls(&self) -> usize {
        self.oracle_calls
    }

    /// Per-tier cascade statistics, when the mapping ran through
    /// [`crate::MapExplorerEngine`] (plain oracle runs carry none).
    pub fn tier_stats(&self) -> Option<&TierStats> {
        self.tier_stats.as_ref()
    }

    /// Replaces the slot partition and folds an incremental repair's work
    /// into the report: `delta.queries` admission checks are added to the
    /// call count and the per-tier statistics accumulate. This is how the
    /// online admission service keeps *one* report current across
    /// `add_app`/`remove_app` operations instead of minting a new one per
    /// batch run.
    ///
    /// Returns the replaced slot list, so the caller can reuse its vectors.
    pub(crate) fn apply_repair(
        &mut self,
        slots: Vec<Vec<usize>>,
        delta: &TierStats,
    ) -> Vec<Vec<usize>> {
        self.oracle_calls += delta.queries;
        match &mut self.tier_stats {
            Some(stats) => stats.accumulate(delta),
            None => self.tier_stats = Some(*delta),
        }
        std::mem::replace(&mut self.slots, slots)
    }

    /// The slot index an application was mapped to, if any.
    pub fn slot_of(&self, app: usize) -> Option<usize> {
        self.slots.iter().position(|slot| slot.contains(&app))
    }

    /// Relative saving in slots compared to another mapping of the same
    /// applications (e.g. the conservative baseline): `1 − self/other`.
    pub fn saving_versus(&self, other: &MappingReport) -> f64 {
        if other.slot_count() == 0 {
            0.0
        } else {
            1.0 - self.slot_count() as f64 / other.slot_count() as f64
        }
    }

    /// Renders the partition with application names substituted in.
    pub fn format_with_names(&self, names: &[&str]) -> String {
        format_partition(&self.slots, names)
    }
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} oracle: {} slots after {} admission checks: {:?}",
            self.oracle,
            self.slot_count(),
            self.oracle_calls,
            self.slots
        )?;
        if let Some(stats) = &self.tier_stats {
            write!(f, " [{stats}]")?;
        }
        Ok(())
    }
}

/// The result of an optimal slot minimisation
/// ([`crate::MapExplorerEngine::minimize_slots`]): a partition with the
/// provably minimal number of slots, plus how much search it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeReport {
    slots: Vec<Vec<usize>>,
    nodes_explored: usize,
    first_fit_slots: usize,
    tier_stats: TierStats,
}

impl MinimizeReport {
    pub(crate) fn new(
        slots: Vec<Vec<usize>>,
        nodes_explored: usize,
        first_fit_slots: usize,
        tier_stats: TierStats,
    ) -> Self {
        MinimizeReport {
            slots,
            nodes_explored,
            first_fit_slots,
            tier_stats,
        }
    }

    /// The optimal slot partition: each inner vector lists application
    /// indices (members in canonical first-fit order, slots by first member).
    pub fn slots(&self) -> &[Vec<usize>] {
        &self.slots
    }

    /// The provably minimal number of TT slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Branch-and-bound nodes expanded during the lattice search.
    pub fn nodes_explored(&self) -> usize {
        self.nodes_explored
    }

    /// Slot count of the first-fit incumbent the search started from.
    pub fn first_fit_slots(&self) -> usize {
        self.first_fit_slots
    }

    /// Admission-cascade statistics for the queries made by this search
    /// (including the first-fit incumbent).
    pub fn tier_stats(&self) -> &TierStats {
        &self.tier_stats
    }

    /// Renders the partition with application names substituted in.
    pub fn format_with_names(&self, names: &[&str]) -> String {
        format_partition(&self.slots, names)
    }
}

impl fmt::Display for MinimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "minimal partition: {} slots (first-fit incumbent {}) after {} search nodes: {:?} [{}]",
            self.slot_count(),
            self.first_fit_slots,
            self.nodes_explored,
            self.slots,
            self.tier_stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MappingReport {
        MappingReport::new("model-checking".to_string(), vec![vec![0, 2], vec![1]], 5)
    }

    #[test]
    fn accessors() {
        let r = report();
        assert_eq!(r.oracle, "model-checking");
        assert_eq!(r.slot_count(), 2);
        assert_eq!(r.oracle_calls(), 5);
        assert_eq!(r.slot_of(2), Some(0));
        assert_eq!(r.slot_of(1), Some(1));
        assert_eq!(r.slot_of(9), None);
        assert!(r.tier_stats().is_none());
    }

    #[test]
    fn saving_computation() {
        let proposed = report();
        let baseline = MappingReport::new("baseline".to_string(), vec![vec![0]; 4], 4);
        assert!((proposed.saving_versus(&baseline) - 0.5).abs() < 1e-12);
        let empty = MappingReport::new("baseline".to_string(), vec![], 0);
        assert_eq!(proposed.saving_versus(&empty), 0.0);
    }

    #[test]
    fn formatting() {
        let r = report();
        assert_eq!(r.format_with_names(&["C1", "C2", "C3"]), "{C1, C3}  {C2}");
        assert!(r.to_string().contains("2 slots"));
        // Unknown indices degrade gracefully.
        assert_eq!(r.format_with_names(&["C1"]), "{C1, ?}  {?}");
    }

    #[test]
    fn tier_stats_accounting_and_rendering() {
        let stats = TierStats {
            queries: 10,
            singleton_accepts: 1,
            memo_hits: 3,
            quick_rejects: 2,
            anti_monotone_rejects: 1,
            baseline_accepts: 1,
            exact_verifies: 2,
            falsified_rejects: 1,
            walk_samples: 300,
            degraded_accepts: 2,
            deferred: 1,
            exact_verify_time: Duration::from_millis(8),
            tt_evictions: 4,
            verify: VerifyStats {
                intern_probes: 100,
                hash_hits: 40,
                ..VerifyStats::default()
            },
        };
        let earlier = TierStats {
            queries: 4,
            singleton_accepts: 1,
            memo_hits: 1,
            quick_rejects: 1,
            anti_monotone_rejects: 0,
            baseline_accepts: 0,
            exact_verifies: 1,
            falsified_rejects: 0,
            walk_samples: 120,
            degraded_accepts: 1,
            deferred: 0,
            exact_verify_time: Duration::from_millis(3),
            tt_evictions: 1,
            verify: VerifyStats {
                intern_probes: 30,
                hash_hits: 10,
                ..VerifyStats::default()
            },
        };
        let delta = stats.since(&earlier);
        assert_eq!(delta.queries, 6);
        assert_eq!(delta.memo_hits, 2);
        assert_eq!(delta.degraded_accepts, 1);
        assert_eq!(delta.deferred, 1);
        assert_eq!(delta.falsified_rejects, 1);
        assert_eq!(delta.walk_samples, 180);
        assert_eq!(delta.exact_verify_time, Duration::from_millis(5));
        assert_eq!(delta.tt_evictions, 3);
        assert_eq!(delta.verify.intern_probes, 70);
        assert_eq!(delta.verify.hash_hits, 30);

        let r = MappingReport::with_tier_stats(
            "map-explorer".to_string(),
            vec![vec![0], vec![1]],
            4,
            stats,
        );
        assert_eq!(r.tier_stats(), Some(&stats));
        let rendered = r.to_string();
        assert!(rendered.contains("memo-hit"), "{rendered}");
        assert!(rendered.contains("exact-verify"), "{rendered}");
        assert!(rendered.contains("degraded-accept"), "{rendered}");
        assert!(rendered.contains("deferred"), "{rendered}");
        assert!(
            rendered.contains("2 exact-verify (1 falsified by 300 walk samples)"),
            "{rendered}"
        );

        // Accumulating the delta onto the earlier snapshot restores it.
        let mut total = earlier;
        total.accumulate(&delta);
        assert_eq!(total, stats);
    }

    #[test]
    fn tier_stats_render_the_same_text_at_any_verify_time() {
        let fast = TierStats {
            exact_verifies: 6,
            exact_verify_time: Duration::from_micros(3_210),
            ..TierStats::default()
        };
        let slow = TierStats {
            exact_verify_time: Duration::from_micros(3_080),
            ..fast
        };
        assert_eq!(fast.to_string(), slow.to_string());
    }

    #[test]
    fn minimize_report_accessors() {
        let stats = TierStats::default();
        let m = MinimizeReport::new(vec![vec![0, 1], vec![2]], 7, 3, stats);
        assert_eq!(m.slot_count(), 2);
        assert_eq!(m.nodes_explored(), 7);
        assert_eq!(m.first_fit_slots(), 3);
        assert_eq!(m.format_with_names(&["A", "B", "C"]), "{A, B}  {C}");
        assert!(m.to_string().contains("first-fit incumbent 3"));
    }
}
