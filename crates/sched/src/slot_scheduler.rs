//! The discrete-time slot scheduler for concrete disturbance scenarios.
//!
//! This is the executable counterpart of the scheduler automaton in the
//! paper's Fig. 7: at every sample it sees the disturbances that arrived, lets
//! go of occupants that reached their maximum useful dwell `T_dw^+`, preempts
//! occupants that have served their minimum dwell `T_dw^-` when someone is
//! waiting, and grants the slot to the waiting application with the smallest
//! laxity.

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

    /// Total number of TT samples handed out across all applications.
    pub fn total_tt_samples(&self) -> usize {
        self.traces.iter().map(|t| t.total_tt_samples()).sum()
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

    /// The application profiles in scheduler order.
    pub fn profiles(&self) -> &[AppTimingProfile] {
        &self.profiles
    }

    /// Schedules the slot for the given disturbance pattern.
    ///
    /// `disturbances[i]` lists the samples at which application `i` is
    /// disturbed (sorted ascending).
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
        self.validate(disturbances, horizon)?;
        let n = self.profiles.len();
        let mut states = vec![AppState::Idle; n];
        let mut traces: Vec<AppScheduleTrace> = disturbances
            .iter()
            .map(|times| AppScheduleTrace {
                disturbance_samples: times.clone(),
                ..Default::default()
            })
            .collect();
        let mut grants: Vec<GrantRecord> = Vec::new();
        // The slot has at most one occupant; tracking its index avoids an
        // O(n) scan per step.
        let mut occupant: Option<usize> = None;
        // Cursor into each application's (sorted, validated) disturbance
        // list: O(1) arrival sensing per sample.
        let mut next_disturbance = vec![0usize; n];
        // Number of non-Idle applications. While it is zero nothing can
        // happen until the next disturbance, so the loop fast-forwards —
        // the cost is bounded by the *active* span, not the horizon.
        let mut active = 0usize;

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
            // 1. Newly sensed disturbances. Re-disturbance semantics: a new
            //    disturbance always supersedes whatever the application was
            //    doing, because the response window (and hence the laxity
            //    clock) is measured from the *latest* disturbance.
            //    * `Using`: the occupation ends here — the occupant leaves
            //      the slot to wait for a fresh grant, and the open
            //      occupation is closed and accounted in `grants()` (it was
            //      previously dropped on the floor, making `grants()`
            //      disagree with `traces()`).
            //    * `Waiting`: the pending request is replaced and the wait
            //      clock restarts at zero.
            for (app, times) in disturbances.iter().enumerate() {
                let cursor = &mut next_disturbance[app];
                if *cursor < times.len() && times[*cursor] == sample {
                    *cursor += 1;
                    match states[app] {
                        AppState::Using {
                            waited,
                            received,
                            start,
                        } => {
                            grants.push(GrantRecord {
                                app,
                                start_sample: start,
                                tt_samples: received,
                                waited,
                                preempted: false,
                            });
                            occupant = None;
                        }
                        AppState::Waiting { .. } => {}
                        AppState::Idle => active += 1,
                    }
                    states[app] = AppState::Waiting { waited: 0 };
                }
            }

            // 2. Deadline misses: the request is abandoned (the application
            //    can no longer meet its requirement) but the rest of the
            //    schedule continues.
            for (app, state) in states.iter_mut().enumerate() {
                if let AppState::Waiting { waited } = state {
                    if *waited > self.profiles[app].max_wait() {
                        traces[app].missed_deadline = true;
                        *state = AppState::Idle;
                        active -= 1;
                    }
                }
            }

            // 3. Release occupants that reached their maximum useful dwell.
            if let Some(app) = occupant {
                if let AppState::Using {
                    waited,
                    received,
                    start,
                } = states[app]
                {
                    let t_plus = self.profiles[app].t_dw_plus(waited).unwrap_or(0);
                    if received >= t_plus {
                        grants.push(GrantRecord {
                            app,
                            start_sample: start,
                            tt_samples: received,
                            waited,
                            preempted: false,
                        });
                        states[app] = AppState::Idle;
                        occupant = None;
                        active -= 1;
                    }
                }
            }

            // 4. Grant (possibly preempting) by smallest laxity.
            let best = select_by_laxity(states.iter().enumerate().filter_map(|(i, s)| match s {
                AppState::Waiting { waited } => Some((i, *waited, self.profiles[i].max_wait())),
                _ => None,
            }));
            if let Some(winner) = best {
                match occupant {
                    None => {
                        if let AppState::Waiting { waited } = states[winner] {
                            traces[winner].waits.push(waited);
                            states[winner] = AppState::Using {
                                waited,
                                received: 0,
                                start: sample,
                            };
                            occupant = Some(winner);
                        }
                    }
                    Some(app) => {
                        if let AppState::Using {
                            waited,
                            received,
                            start,
                        } = states[app]
                        {
                            let t_min = self.profiles[app].t_dw_min(waited).unwrap_or(0);
                            if received >= t_min {
                                grants.push(GrantRecord {
                                    app,
                                    start_sample: start,
                                    tt_samples: received,
                                    waited,
                                    preempted: true,
                                });
                                states[app] = AppState::Idle;
                                active -= 1;
                                if let AppState::Waiting { waited } = states[winner] {
                                    traces[winner].waits.push(waited);
                                    states[winner] = AppState::Using {
                                        waited,
                                        received: 0,
                                        start: sample,
                                    };
                                    occupant = Some(winner);
                                }
                            }
                        }
                    }
                }
            }

            // 5. The current occupant uses this sample; waiting times advance.
            for (app, state) in states.iter_mut().enumerate() {
                match state {
                    AppState::Using { received, .. } => {
                        traces[app].tt_samples.push(sample);
                        *received += 1;
                    }
                    AppState::Waiting { waited } => *waited += 1,
                    AppState::Idle => {}
                }
            }

            sample += 1;
        }

        // Close the final occupation, if any.
        if let Some(app) = occupant {
            if let AppState::Using {
                waited,
                received,
                start,
            } = states[app]
            {
                grants.push(GrantRecord {
                    app,
                    start_sample: start,
                    tt_samples: received,
                    waited,
                    preempted: false,
                });
            }
        }

        Ok(ScheduleOutcome { traces, grants })
    }

    fn validate(&self, disturbances: &[Vec<usize>], horizon: usize) -> Result<(), SchedError> {
        if disturbances.len() != self.profiles.len() {
            return Err(SchedError::InvalidScenario {
                reason: format!(
                    "expected disturbance times for {} applications, got {}",
                    self.profiles.len(),
                    disturbances.len()
                ),
            });
        }
        if horizon == 0 {
            return Err(SchedError::InvalidScenario {
                reason: "horizon must be at least one sample".to_string(),
            });
        }
        for (app, times) in disturbances.iter().enumerate() {
            for window in times.windows(2) {
                if window[1] <= window[0] {
                    return Err(SchedError::InvalidScenario {
                        reason: format!("application {app}: disturbance times must be increasing"),
                    });
                }
                if window[1] - window[0] < self.profiles[app].min_inter_arrival() {
                    return Err(SchedError::InterArrivalViolation {
                        app,
                        samples: (window[0], window[1]),
                        min_inter_arrival: self.profiles[app].min_inter_arrival(),
                    });
                }
            }
            if let Some(&last) = times.last() {
                if last >= horizon {
                    return Err(SchedError::InvalidScenario {
                        reason: format!(
                            "application {app}: disturbance at sample {last} is beyond the horizon {horizon}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
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
        assert_eq!(outcome.total_tt_samples(), 5);
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
    }
}
