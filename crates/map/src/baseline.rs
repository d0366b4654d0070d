//! The prior-work slot-sharing analysis the paper compares against
//! (Masrur et al., DATE 2012 — the paper's reference \[9\]).
//!
//! In that scheme an application that is hit by a disturbance requests the
//! TT slot and, once granted, **holds it until the disturbance is completely
//! rejected** — for its dedicated-slot settling time `J_T` — instead of the
//! minimum dwell of the switching strategy. Whether several applications can
//! share a slot is then decided by a worst-case blocking analysis rather than
//! by exact model checking, which is what makes the provisioning
//! conservative. Each application's deadline is its maximum admissible wait
//! `T_w^*`, its hold time is `J_T`.
//!
//! Two analysis variants mirror the two scheduling strategies of the prior
//! work:
//!
//! * [`Strategy::NonPreemptiveDeadlineMonotonic`] — the request of every
//!   application competes under non-preemptive deadline-monotonic
//!   arbitration; a request can be blocked by one lower-priority occupation
//!   and by one occupation of every higher-priority application.
//! * [`Strategy::DelayedRequests`] — lower-priority applications delay their
//!   requests so that they never block a higher-priority one (an optimistic
//!   abstraction of the prior work's second strategy: the blocking term is
//!   dropped, the interference term is kept).
//!
//! [`BaselineOracle`] plugs the analysis into [`crate::first_fit()`]. On the
//! paper's case study it needs three slots, `{C1,C5}{C4,C6}{C2,C3}`, where
//! the exact oracle needs two. The paper reports four slots for its
//! baseline; this reconstruction of the analysis is slightly more
//! permissive. The admission cascade also reuses the analysis as a gated
//! early accept (see [`crate::MapExplorerEngine`]).

use cps_core::AppTimingProfile;
use cps_verify::VerifyError;

use crate::oracle::SlotOracle;

/// The scheduling strategy assumed by the baseline analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Non-preemptive deadline-monotonic arbitration: a request may be blocked
    /// by one already-started lower-priority occupation plus one occupation of
    /// every higher-priority application.
    #[default]
    NonPreemptiveDeadlineMonotonic,
    /// Lower-priority applications delay their requests so they never block
    /// higher-priority ones; only higher-priority interference remains. This
    /// is an optimistic abstraction of the prior work's second strategy.
    DelayedRequests,
}

/// Checks whether the applications selected by `members` (indices into
/// `profiles`) can share one TT slot according to the conservative blocking
/// analysis, reading each deadline (`T_w^*`) and hold time (`J_T`) straight
/// from the timing profiles.
///
/// Priorities are deadline monotonic (smaller deadline = higher priority,
/// ties broken by member order). For application `i` the worst-case wait is
///
/// * blocking `max(hold_j − 1)` over lower-priority `j` (only for
///   [`Strategy::NonPreemptiveDeadlineMonotonic`]), plus
/// * interference `Σ hold_j` over higher-priority `j` (each higher-priority
///   application can occupy the slot once, because the minimum disturbance
///   inter-arrival time exceeds the settling requirement),
///
/// and the slot is schedulable when every application's worst-case wait is at
/// most its deadline. An empty selection is schedulable.
///
/// # Panics
///
/// Panics if a member index is out of bounds for `profiles`.
pub fn slot_schedulable_profiles(
    profiles: &[AppTimingProfile],
    members: &[usize],
    strategy: Strategy,
) -> bool {
    // Deadline-monotonic priority order; the stable sort keeps member order
    // among equal deadlines.
    let mut order: Vec<&AppTimingProfile> = members.iter().map(|&m| &profiles[m]).collect();
    order.sort_by_key(|p| p.max_wait());
    order.iter().enumerate().all(|(rank, p)| {
        let interference: usize = order[..rank].iter().map(|q| q.jt()).sum();
        let blocking = match strategy {
            Strategy::NonPreemptiveDeadlineMonotonic => order[rank + 1..]
                .iter()
                .map(|q| q.jt().saturating_sub(1))
                .max()
                .unwrap_or(0),
            Strategy::DelayedRequests => 0,
        };
        blocking + interference <= p.max_wait()
    })
}

/// The conservative oracle: [`slot_schedulable_profiles`] behind the
/// [`SlotOracle`] interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineOracle {
    strategy: Strategy,
}

impl BaselineOracle {
    /// Creates the oracle with an explicit baseline strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        BaselineOracle { strategy }
    }
}

impl SlotOracle for BaselineOracle {
    fn admits_indices(
        &self,
        profiles: &[AppTimingProfile],
        members: &[usize],
    ) -> Result<bool, VerifyError> {
        Ok(slot_schedulable_profiles(profiles, members, self.strategy))
    }

    fn name(&self) -> &str {
        "baseline-blocking-analysis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::DwellTimeTable;

    /// A profile whose baseline view is (`deadline` = `T_w^*`, `hold` =
    /// `J_T`); the dwell arrays play no part in the analysis.
    fn app(name: &str, deadline: usize, hold: usize) -> AppTimingProfile {
        let jstar = deadline + hold + 1;
        let table =
            DwellTimeTable::from_arrays(jstar, vec![1; deadline + 1], vec![1; deadline + 1])
                .unwrap();
        AppTimingProfile::new(name, hold, jstar + 5, jstar, jstar + 1, table).unwrap()
    }

    /// The analysis over the whole list, in list order.
    fn schedulable(apps: &[AppTimingProfile], strategy: Strategy) -> bool {
        let members: Vec<usize> = (0..apps.len()).collect();
        slot_schedulable_profiles(apps, &members, strategy)
    }

    /// The paper's Table 1 as (name, `T_w^*`, `J_T`).
    const PAPER: [(&str, usize, usize); 6] = [
        ("C1", 11, 9),
        ("C2", 13, 15),
        ("C3", 15, 10),
        ("C4", 12, 10),
        ("C5", 12, 10),
        ("C6", 12, 11),
    ];

    fn paper(names: &[&str]) -> Vec<AppTimingProfile> {
        names
            .iter()
            .map(|name| {
                let &(_, deadline, hold) = PAPER.iter().find(|row| row.0 == *name).unwrap();
                app(name, deadline, hold)
            })
            .collect()
    }

    #[test]
    fn single_application_is_always_schedulable() {
        for strategy in [
            Strategy::NonPreemptiveDeadlineMonotonic,
            Strategy::DelayedRequests,
        ] {
            assert!(schedulable(&[app("A", 0, 10)], strategy));
            assert!(schedulable(&[], strategy));
        }
    }

    #[test]
    fn blocking_by_a_lower_priority_hold_can_break_schedulability() {
        // The high-priority app tolerates 5 samples but the low-priority hold
        // is 8: non-preemptive blocking of 7 exceeds the deadline.
        let apps = [app("urgent", 5, 3), app("slow", 20, 8)];
        assert!(!schedulable(
            &apps,
            Strategy::NonPreemptiveDeadlineMonotonic
        ));
        // Delaying the low-priority request removes the blocking.
        assert!(schedulable(&apps, Strategy::DelayedRequests));
    }

    #[test]
    fn interference_accumulates_over_higher_priorities() {
        // C sees 8 samples of higher-priority interference ≤ 9 → fine; a
        // lower-priority app whose deadline cannot absorb the higher-priority
        // hold fails even without blocking.
        let apps = [app("A", 5, 4), app("B", 8, 4), app("C", 9, 4)];
        assert!(schedulable(&apps, Strategy::DelayedRequests));
        let tight = [app("A", 5, 8), app("B", 7, 4)];
        assert!(!schedulable(&tight, Strategy::DelayedRequests));
        // Priorities follow deadlines, not member order.
        let reversed = [app("B", 7, 4), app("A", 5, 8)];
        assert!(!schedulable(&reversed, Strategy::DelayedRequests));
    }

    #[test]
    fn published_baseline_slots_pass_and_a_third_member_fails() {
        // The paper's 4-slot baseline {C1,C5}{C4,C3}{C6}{C2}: every published
        // slot passes the blocking analysis…
        for slot in [&["C1", "C5"][..], &["C4", "C3"], &["C6"], &["C2"]] {
            assert!(
                schedulable(&paper(slot), Strategy::NonPreemptiveDeadlineMonotonic),
                "{slot:?}"
            );
        }
        // …but a third application in the first slot does not.
        assert!(!schedulable(
            &paper(&["C1", "C5", "C6"]),
            Strategy::NonPreemptiveDeadlineMonotonic
        ));
    }

    #[test]
    fn selections_read_their_members_in_member_order() {
        // Indices select and arrange: the same profiles reached through a
        // fleet equal the analysis over the materialised list.
        let fleet = paper(&["C1", "C2", "C3", "C4", "C5", "C6"]);
        let selections: &[&[usize]] = &[&[], &[0], &[0, 4], &[4, 0], &[3, 2], &[0, 4, 5], &[1, 2]];
        for strategy in [
            Strategy::NonPreemptiveDeadlineMonotonic,
            Strategy::DelayedRequests,
        ] {
            for members in selections {
                let listed: Vec<AppTimingProfile> =
                    members.iter().map(|&i| fleet[i].clone()).collect();
                assert_eq!(
                    slot_schedulable_profiles(&fleet, members, strategy),
                    schedulable(&listed, strategy),
                    "{members:?} under {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn baseline_oracle_strategies() {
        let oracle = BaselineOracle::with_strategy(Strategy::DelayedRequests);
        assert_eq!(oracle.name(), "baseline-blocking-analysis");
        let apps = [app("A", 10, 3), app("B", 10, 3)];
        assert!(oracle.admits_indices(&apps, &[0, 1]).unwrap());
        // Applications that cannot wait at all never share, even without
        // blocking: first-fit gives each its own slot.
        let rigid = [app("A", 0, 5), app("B", 0, 5), app("C", 0, 5)];
        assert_eq!(crate::first_fit(&rigid, &oracle).unwrap().slot_count(), 3);
    }
}
