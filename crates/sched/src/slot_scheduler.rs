//! The discrete-time slot scheduler for concrete disturbance scenarios.
//!
//! This is the executable counterpart of the scheduler automaton in the
//! paper's Fig. 7: at every sample it sees the disturbances that arrived, lets
//! go of occupants that reached their maximum useful dwell `T_dw^+`, preempts
//! occupants that have served their minimum dwell `T_dw^-` when someone is
//! waiting, and grants the slot to the waiting application with the smallest
//! laxity.
//!
//! One stepping loop serves two entries. [`SlotScheduler::schedule`] records
//! who owns the slot at every sample, for the co-simulation.
//! [`first_miss`] only reports the first deadline miss, over borrowed
//! profiles: `cps-verify` validates its counterexample witnesses with it, and
//! the `cps-map` admission cascade screens candidates with it.

use cps_core::AppTimingProfile;

use crate::arbiter::select_by_laxity;
use crate::trace::{AppScheduleTrace, GrantRecord};
use crate::SchedError;

/// The outcome of scheduling one concrete disturbance scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    traces: Vec<AppScheduleTrace>,
    grants: Vec<GrantRecord>,
}

impl ScheduleOutcome {
    /// Per-application schedule traces, in the scheduler's application order.
    pub fn traces(&self) -> &[AppScheduleTrace] {
        &self.traces
    }

    /// All slot occupations in chronological order.
    pub fn grants(&self) -> &[GrantRecord] {
        &self.grants
    }

    /// `true` when no application missed its maximum wait `T_w^*`.
    pub fn all_deadlines_met(&self) -> bool {
        self.traces.iter().all(|t| !t.missed_deadline)
    }

    /// Accounts the occupation `state` of `app`, which ends at this sample;
    /// any other state holds no occupation.
    fn close(&mut self, app: usize, state: AppState, preempted: bool) {
        if let AppState::Using {
            waited,
            received,
            start,
        } = state
        {
            self.grants.push(GrantRecord {
                app,
                start_sample: start,
                tt_samples: received,
                waited,
                preempted,
            });
        }
    }
}

/// Internal per-application scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppState {
    Idle,
    Waiting {
        waited: usize,
    },
    Using {
        waited: usize,
        received: usize,
        start: usize,
    },
}

/// The discrete-time scheduler for one shared TT slot.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_sched::SlotScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12])?;
/// let a = AppTimingProfile::new("A", 9, 35, 18, 25, table.clone())?;
/// let b = AppTimingProfile::new("B", 9, 35, 18, 25, table)?;
/// let scheduler = SlotScheduler::new(vec![a, b])?;
/// // Both applications disturbed at sample 0.
/// let outcome = scheduler.schedule(&[vec![0], vec![0]], 60)?;
/// assert!(outcome.all_deadlines_met());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotScheduler {
    profiles: Vec<AppTimingProfile>,
}

impl SlotScheduler {
    /// Creates a scheduler for the applications sharing the slot.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidScenario`] when no profiles are given.
    pub fn new(profiles: Vec<AppTimingProfile>) -> Result<Self, SchedError> {
        if profiles.is_empty() {
            return Err(SchedError::InvalidScenario {
                reason: "at least one application is required".to_string(),
            });
        }
        Ok(SlotScheduler { profiles })
    }

    /// Schedules the slot for the given disturbance pattern.
    ///
    /// `disturbances[i]` lists the samples at which application `i` is
    /// disturbed (sorted ascending). A disturbance always supersedes
    /// whatever its application was doing, because the response window (and
    /// hence the laxity clock) is measured from the *latest* disturbance: an
    /// occupant leaves the slot, its occupation is closed and accounted in
    /// [`ScheduleOutcome::grants`], and a waiter's clock restarts at zero. A
    /// missed request is abandoned, and the schedule goes on.
    ///
    /// # Errors
    ///
    /// * [`SchedError::InvalidScenario`] when the pattern has the wrong number
    ///   of applications, unsorted times, or times beyond the horizon.
    /// * [`SchedError::InterArrivalViolation`] when two disturbances of the
    ///   same application are closer than its minimum inter-arrival time.
    pub fn schedule(
        &self,
        disturbances: &[Vec<usize>],
        horizon: usize,
    ) -> Result<ScheduleOutcome, SchedError> {
        let profile = move |i: usize| &self.profiles[i];
        check_schedule(profile, self.profiles.len(), disturbances)?;
        if horizon == 0 {
            return Err(SchedError::InvalidScenario {
                reason: "horizon must be at least one sample".to_string(),
            });
        }
        for (app, times) in disturbances.iter().enumerate() {
            if let Some(&last) = times.last().filter(|&&last| last >= horizon) {
                return Err(SchedError::InvalidScenario {
                    reason: format!(
                        "application {app}: disturbance at sample {last} is beyond the horizon {horizon}"
                    ),
                });
            }
        }
        let mut outcome = ScheduleOutcome {
            traces: disturbances
                .iter()
                .map(|times| AppScheduleTrace {
                    disturbance_samples: times.clone(),
                    ..Default::default()
                })
                .collect(),
            grants: Vec::new(),
        };
        run(profile, disturbances, horizon, Some(&mut outcome))?;
        Ok(outcome)
    }
}

/// Runs the scheduler over the line-up `members` (indices into `profiles`,
/// in that order) until every application is idle and no disturbance is
/// pending, and returns the applications missing their maximum wait at the
/// first miss sample (positions in `members`), with that sample; `None`
/// when every request is granted in time. `disturbances[i]` schedules the
/// application at `members[i]`, as for [`SlotScheduler::schedule`].
///
/// It borrows the profiles and records no trace. Unlike
/// [`SlotScheduler::schedule`], it follows the sporadic model of the
/// verifier: an application is disturbed again only once it is idle, so a
/// disturbance that finds it still waiting or using the slot is refused.
///
/// # Errors
///
/// * [`SchedError::InvalidScenario`] when the pattern has the wrong number
///   of applications or unsorted times, or disturbs an application that is
///   not idle.
/// * [`SchedError::InterArrivalViolation`] when two disturbances of the
///   same application are closer than its minimum inter-arrival time.
///
/// # Panics
///
/// Panics if a member index is out of bounds for `profiles`.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_sched::first_miss;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Waits of at most one sample, and six-sample dwells.
/// let table = DwellTimeTable::from_arrays(8, vec![6; 2], vec![6; 2])?;
/// let a = AppTimingProfile::new("A", 6, 18, 8, 20, table.clone())?;
/// let b = AppTimingProfile::new("B", 6, 18, 8, 20, table)?;
/// let fleet = [a, b];
/// // Disturbed together, B cannot wait out A's six-sample dwell.
/// assert_eq!(first_miss(&fleet, &[0, 1], &[vec![0], vec![0]])?, Some((vec![1], 2)));
/// // Far enough apart, both are served in time.
/// assert_eq!(first_miss(&fleet, &[0, 1], &[vec![0], vec![6]])?, None);
/// # Ok(())
/// # }
/// ```
pub fn first_miss(
    profiles: &[AppTimingProfile],
    members: &[usize],
    disturbances: &[Vec<usize>],
) -> Result<Option<(Vec<usize>, usize)>, SchedError> {
    let profile = move |i: usize| &profiles[members[i]];
    check_schedule(profile, members.len(), disturbances)?;
    run(profile, disturbances, usize::MAX, None)
}

/// Checks what both entries require of a disturbance pattern: one list per
/// application, each strictly increasing and spaced by at least the
/// application's minimum inter-arrival time. `profile(i)` resolves
/// application `i` of the line-up.
fn check_schedule<'p>(
    profile: impl Fn(usize) -> &'p AppTimingProfile,
    apps: usize,
    disturbances: &[Vec<usize>],
) -> Result<(), SchedError> {
    if disturbances.len() != apps {
        return Err(SchedError::InvalidScenario {
            reason: format!(
                "expected disturbance times for {apps} applications, got {}",
                disturbances.len()
            ),
        });
    }
    for (app, times) in disturbances.iter().enumerate() {
        let min_inter_arrival = profile(app).min_inter_arrival();
        for window in times.windows(2) {
            if window[1] <= window[0] {
                return Err(SchedError::InvalidScenario {
                    reason: format!("application {app}: disturbance times must be increasing"),
                });
            }
            if window[1] - window[0] < min_inter_arrival {
                return Err(SchedError::InterArrivalViolation {
                    app,
                    samples: (window[0], window[1]),
                    min_inter_arrival,
                });
            }
        }
    }
    Ok(())
}

/// The one per-sample stepping loop behind [`SlotScheduler::schedule`] and
/// [`first_miss`], over a checked pattern; `profile(i)` resolves
/// application `i` of the line-up. While every application is idle it
/// skips to the next disturbance, and with none left it stops.
///
/// With a `record`, it records every trace and grant there until `horizon`,
/// lets a disturbance supersede a busy application, abandons a missed
/// request and returns `None`. Without one, it refuses a disturbance of a
/// busy application and returns the first miss.
fn run<'p>(
    profile: impl Fn(usize) -> &'p AppTimingProfile,
    disturbances: &[Vec<usize>],
    horizon: usize,
    mut record: Option<&mut ScheduleOutcome>,
) -> Result<Option<(Vec<usize>, usize)>, SchedError> {
    let n = disturbances.len();
    let mut states = vec![AppState::Idle; n];
    // The slot has at most one occupant; tracking its index avoids an
    // O(n) scan per step.
    let mut occupant: Option<usize> = None;
    // Cursor into each application's (sorted, checked) disturbance list:
    // O(1) arrival sensing per sample.
    let mut next_disturbance = vec![0usize; n];
    // Number of non-Idle applications. While it is zero nothing can happen
    // until the next disturbance, so the loop fast-forwards — the cost is
    // bounded by the *active* span, not the horizon.
    let mut active = 0usize;
    let mut missing = Vec::new();

    let mut sample = 0;
    while sample < horizon {
        if active == 0 {
            match disturbances
                .iter()
                .zip(next_disturbance.iter())
                .filter_map(|(times, &cursor)| times.get(cursor))
                .min()
            {
                // Idle forever: every remaining sample is a no-op.
                None => break,
                Some(&next) => sample = next,
            }
        }
        // 1. Newly sensed disturbances.
        for (app, times) in disturbances.iter().enumerate() {
            let cursor = &mut next_disturbance[app];
            if times.get(*cursor) != Some(&sample) {
                continue;
            }
            *cursor += 1;
            match (states[app], record.as_deref_mut()) {
                (AppState::Idle, _) => active += 1,
                (_, None) => {
                    return Err(SchedError::InvalidScenario {
                        reason: format!(
                            "application {app} is disturbed at sample {sample} while not idle"
                        ),
                    })
                }
                (busy, Some(record)) => {
                    record.close(app, busy, false);
                    if occupant == Some(app) {
                        occupant = None;
                    }
                }
            }
            states[app] = AppState::Waiting { waited: 0 };
        }

        // 2. Deadline misses: the request is abandoned (the application can
        //    no longer meet its requirement).
        for (app, state) in states.iter_mut().enumerate() {
            if matches!(*state, AppState::Waiting { waited } if waited > profile(app).max_wait()) {
                missing.push(app);
                *state = AppState::Idle;
                active -= 1;
            }
        }
        if !missing.is_empty() {
            let Some(record) = record.as_deref_mut() else {
                return Ok(Some((missing, sample)));
            };
            for app in missing.drain(..) {
                record.traces[app].missed_deadline = true;
            }
        }

        // 3. Release the occupant that reached its maximum useful dwell.
        if let Some(app) = occupant {
            if let AppState::Using {
                waited, received, ..
            } = states[app]
            {
                if received >= profile(app).t_dw_plus(waited).unwrap_or(0) {
                    if let Some(record) = record.as_deref_mut() {
                        record.close(app, states[app], false);
                    }
                    states[app] = AppState::Idle;
                    occupant = None;
                    active -= 1;
                }
            }
        }

        // 4. Grant by smallest laxity, preempting an occupant that has
        //    served its minimum dwell.
        let best = select_by_laxity(states.iter().enumerate().filter_map(|(i, s)| match s {
            AppState::Waiting { waited } => Some((i, *waited, profile(i).max_wait())),
            _ => None,
        }));
        if let Some(winner) = best {
            let free = match occupant {
                None => true,
                Some(app) => match states[app] {
                    AppState::Using {
                        waited, received, ..
                    } if received >= profile(app).t_dw_min(waited).unwrap_or(0) => {
                        if let Some(record) = record.as_deref_mut() {
                            record.close(app, states[app], true);
                        }
                        states[app] = AppState::Idle;
                        active -= 1;
                        true
                    }
                    _ => false,
                },
            };
            if free {
                if let AppState::Waiting { waited } = states[winner] {
                    if let Some(record) = record.as_deref_mut() {
                        record.traces[winner].waits.push(waited);
                    }
                    states[winner] = AppState::Using {
                        waited,
                        received: 0,
                        start: sample,
                    };
                    occupant = Some(winner);
                }
            }
        }

        // 5. The current occupant uses this sample; waiting times advance.
        for (app, state) in states.iter_mut().enumerate() {
            match state {
                AppState::Using { received, .. } => {
                    if let Some(record) = record.as_deref_mut() {
                        record.traces[app].tt_samples.push(sample);
                    }
                    *received += 1;
                }
                AppState::Waiting { waited } => *waited += 1,
                AppState::Idle => {}
            }
        }

        sample += 1;
    }

    // Close the final occupation, if any.
    if let (Some(app), Some(record)) = (occupant, record) {
        record.close(app, states[app], false);
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::DwellTimeTable;

    fn profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
    ) -> AppTimingProfile {
        let jstar = max_wait + dwell_plus + 1;
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell_min; max_wait + 1],
            vec![dwell_plus; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, 1, jstar + 5, jstar, jstar + 10, table).unwrap()
    }

    fn scheduler() -> SlotScheduler {
        SlotScheduler::new(vec![profile("A", 10, 3, 5), profile("B", 4, 3, 5)]).unwrap()
    }

    #[test]
    fn lone_application_runs_to_its_maximum_dwell() {
        let s = SlotScheduler::new(vec![profile("A", 10, 3, 5)]).unwrap();
        let outcome = s.schedule(&[vec![0]], 30).unwrap();
        assert!(outcome.all_deadlines_met());
        assert_eq!(outcome.traces()[0].tt_samples, vec![0, 1, 2, 3, 4]);
        assert_eq!(outcome.grants().len(), 1);
        assert_eq!(outcome.grants()[0].tt_samples, 5);
        assert!(!outcome.grants()[0].preempted);
    }

    #[test]
    fn simultaneous_disturbances_grant_the_tighter_deadline_first() {
        let outcome = scheduler().schedule(&[vec![0], vec![0]], 40).unwrap();
        assert!(outcome.all_deadlines_met());
        // B (max wait 4) is more urgent than A (max wait 10) and goes first.
        assert_eq!(outcome.traces()[1].waits, vec![0]);
        assert_eq!(outcome.traces()[1].tt_samples[0], 0);
        // A is granted afterwards; B is preempted at its minimum dwell because
        // A is waiting.
        assert_eq!(outcome.traces()[0].waits, vec![3]);
        assert_eq!(outcome.traces()[0].tt_samples[0], 3);
        let first_grant = outcome.grants()[0];
        assert_eq!(first_grant.app, 1);
        assert_eq!(first_grant.tt_samples, 3);
        assert!(first_grant.preempted);
    }

    #[test]
    fn occupant_keeps_the_slot_to_its_maximum_dwell_when_uncontested() {
        let outcome = scheduler().schedule(&[vec![0], vec![20]], 60).unwrap();
        // A is alone at first and keeps the slot for T_dw^+ = 5 samples.
        assert_eq!(outcome.traces()[0].tt_samples, vec![0, 1, 2, 3, 4]);
        // B arrives later and is served immediately.
        assert_eq!(outcome.traces()[1].waits, vec![0]);
    }

    #[test]
    fn deadline_miss_is_recorded_but_schedule_continues() {
        // Three urgent applications with long non-preemptible dwells: the last
        // one in line must miss.
        let s = SlotScheduler::new(vec![
            profile("A", 7, 6, 6),
            profile("B", 7, 6, 6),
            profile("C", 7, 6, 6),
        ])
        .unwrap();
        let outcome = s.schedule(&[vec![0], vec![0], vec![0]], 40).unwrap();
        assert!(!outcome.all_deadlines_met());
        let missed: Vec<bool> = outcome.traces().iter().map(|t| t.missed_deadline).collect();
        assert_eq!(missed.iter().filter(|m| **m).count(), 1);
        // The two others still got served.
        assert!(outcome.grants().len() >= 2);
    }

    #[test]
    fn recurrent_disturbances_are_served_again() {
        let s = SlotScheduler::new(vec![profile("A", 10, 3, 5)]).unwrap();
        let outcome = s.schedule(&[vec![0, 30]], 60).unwrap();
        assert!(outcome.all_deadlines_met());
        assert_eq!(outcome.grants().len(), 2);
        assert_eq!(outcome.traces()[0].waits, vec![0, 0]);
        assert_eq!(
            outcome.traces()[0].tt_samples_relative_to(30),
            vec![0, 1, 2, 3, 4]
        );
    }

    /// A profile with explicit dwell arrays and inter-arrival, for scenarios
    /// where the standard helper's conservative `r` would forbid overlap.
    fn tight_profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
        jstar: usize,
        r: usize,
    ) -> AppTimingProfile {
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell_min; max_wait + 1],
            vec![dwell_plus; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, 1, jstar + 5, jstar, r, table).unwrap()
    }

    #[test]
    fn redisturbed_occupant_closes_its_grant() {
        // A (tight deadline) runs first with a 5-sample dwell; B then holds
        // the slot with an 8-sample dwell and is re-disturbed mid-occupation
        // at sample 10. The open occupation must be closed and accounted.
        let s = SlotScheduler::new(vec![
            tight_profile("A", 2, 5, 5, 9, 10),
            tight_profile("B", 8, 8, 8, 9, 10),
        ])
        .unwrap();
        let outcome = s.schedule(&[vec![0], vec![0, 10]], 30).unwrap();
        assert!(outcome.all_deadlines_met());
        // Three occupations: A[0..5), B[5..10) cut short by its own
        // re-disturbance, then B[10..18) for the second response.
        let grants = outcome.grants();
        assert_eq!(grants.len(), 3);
        assert_eq!(
            (grants[1].app, grants[1].start_sample, grants[1].tt_samples),
            (1, 5, 5)
        );
        assert!(!grants[1].preempted);
        // Every TT sample handed out appears in exactly one grant.
        for (app, trace) in outcome.traces().iter().enumerate() {
            let granted: usize = grants
                .iter()
                .filter(|g| g.app == app)
                .map(|g| g.tt_samples)
                .sum();
            assert_eq!(granted, trace.total_tt_samples(), "app {app}");
        }
        // The windows split at the second disturbance.
        assert_eq!(
            outcome.traces()[1].tt_samples_relative_to(0),
            vec![5, 6, 7, 8, 9]
        );
        assert_eq!(
            outcome.traces()[1].tt_samples_relative_to(10),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
        assert_eq!(outcome.traces()[1].waits, vec![5, 0]);
    }

    #[test]
    fn redisturbed_waiter_restarts_its_wait_clock() {
        // A holds the slot non-preemptively for 12 samples; B waits from 0
        // and is re-disturbed at sample 10. The new disturbance supersedes
        // the pending request, so B is granted 2 samples after its *second*
        // disturbance — not 12 after its first.
        let s = SlotScheduler::new(vec![
            tight_profile("A", 0, 12, 12, 13, 14),
            tight_profile("B", 20, 3, 3, 9, 10),
        ])
        .unwrap();
        let outcome = s.schedule(&[vec![0], vec![0, 10]], 30).unwrap();
        assert!(outcome.all_deadlines_met());
        // One grant for A, one for B: B's first request never produced a
        // grant because the second disturbance replaced it while waiting.
        assert_eq!(outcome.traces()[1].waits, vec![2]);
        let b_grants: Vec<_> = outcome.grants().iter().filter(|g| g.app == 1).collect();
        assert_eq!(b_grants.len(), 1);
        assert_eq!(b_grants[0].start_sample, 12);
        assert_eq!(b_grants[0].waited, 2);
    }

    #[test]
    fn scenario_validation() {
        let s = scheduler();
        assert!(s.schedule(&[vec![0]], 40).is_err());
        assert!(s.schedule(&[vec![0], vec![50]], 40).is_err());
        assert!(s.schedule(&[vec![5, 3], vec![]], 40).is_err());
        assert!(s.schedule(&[vec![0], vec![0]], 0).is_err());
        assert!(matches!(
            s.schedule(&[vec![0, 2], vec![]], 40),
            Err(SchedError::InterArrivalViolation { .. })
        ));
        assert!(SlotScheduler::new(vec![]).is_err());
        // `first_miss` checks the same pattern rules, with no horizon.
        assert!(first_miss(&s.profiles, &[0, 1], &[vec![0]]).is_err());
        assert!(first_miss(&s.profiles, &[0, 1], &[vec![5, 3], vec![]]).is_err());
        assert_eq!(
            first_miss(&s.profiles, &[0, 1], &[vec![0], vec![50]]),
            Ok(None)
        );
    }

    #[test]
    fn first_miss_stops_at_the_first_miss() {
        let fleet = [
            profile("A", 7, 6, 6),
            profile("B", 7, 6, 6),
            profile("C", 7, 6, 6),
        ];
        let schedule = [vec![0], vec![0], vec![0]];
        // A holds the slot for samples 0-5 and B for 6-11, so C, waiting
        // since sample 0, misses at sample 8.
        assert_eq!(
            first_miss(&fleet, &[0, 1, 2], &schedule),
            Ok(Some((vec![2], 8)))
        );
        let outcome = SlotScheduler::new(fleet.to_vec())
            .unwrap()
            .schedule(&schedule, 40)
            .unwrap();
        let missed: Vec<bool> = outcome.traces().iter().map(|t| t.missed_deadline).collect();
        assert_eq!(missed, [false, false, true]);
        // Idle stretches cost nothing, however long.
        assert_eq!(
            first_miss(&fleet, &[0, 1, 2], &[vec![0], vec![1_000_000], vec![]]),
            Ok(None)
        );
    }

    #[test]
    fn selected_first_miss_matches_the_cloned_submodel() {
        let fleet = [
            profile("A", 0, 5, 5),
            profile("B", 10, 3, 3),
            profile("C", 0, 5, 5),
        ];
        let selections: &[&[usize]] = &[&[0, 2], &[1, 0], &[2, 1, 0]];
        for members in selections {
            let schedule: Vec<Vec<usize>> = members.iter().map(|_| vec![0]).collect();
            let selected = first_miss(&fleet, members, &schedule).unwrap();
            let cloned: Vec<AppTimingProfile> = members.iter().map(|&i| fleet[i].clone()).collect();
            let identity: Vec<usize> = (0..members.len()).collect();
            let direct = first_miss(&cloned, &identity, &schedule).unwrap();
            assert_eq!(selected, direct, "selection {members:?}");
            // The recording entry marks every application that misses first.
            let outcome = SlotScheduler::new(cloned)
                .unwrap()
                .schedule(&schedule, 40)
                .unwrap();
            assert_eq!(selected.is_some(), !outcome.all_deadlines_met());
            for app in selected.map_or(Vec::new(), |(apps, _)| apps) {
                assert!(outcome.traces()[app].missed_deadline, "{members:?}");
            }
        }
    }

    #[test]
    fn non_steady_disturbances_are_rejected() {
        // Re-disturbing A one sample after its first arrival violates the
        // sporadic model's minimum inter-arrival time.
        let lone = [profile("A", 5, 3, 3)];
        assert!(matches!(
            first_miss(&lone, &[0], &[vec![0, 1]]),
            Err(SchedError::InterArrivalViolation { .. })
        ));
        // With waits and dwells longer than `r`, a pattern spaced by `r` can
        // still find B busy: using the slot (granted at 5, as in
        // `redisturbed_occupant_closes_its_grant`), or waiting (as in
        // `redisturbed_waiter_restarts_its_wait_clock`). `first_miss`
        // refuses both; `schedule` lets the new disturbance supersede.
        let using = [
            tight_profile("A", 2, 5, 5, 9, 10),
            tight_profile("B", 8, 8, 8, 9, 10),
        ];
        let waiting = [
            tight_profile("A", 0, 12, 12, 13, 14),
            tight_profile("B", 20, 3, 3, 9, 10),
        ];
        for fleet in [using, waiting] {
            assert!(matches!(
                first_miss(&fleet, &[0, 1], &[vec![0], vec![0, 10]]),
                Err(SchedError::InvalidScenario { .. })
            ));
        }
    }
}
