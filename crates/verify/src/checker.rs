//! Exhaustive exploration of all sporadic disturbance scenarios.
//!
//! The transition system explored here is the discrete-time semantics of the
//! paper's timed-automata network:
//!
//! * time advances in samples;
//! * at every sample each application in its steady state may or may not be
//!   hit by a disturbance (subject to the minimum inter-arrival time `r`) —
//!   this is the **only** source of nondeterminism;
//! * the scheduler then acts deterministically: it releases occupants that
//!   have exhausted their useful dwell `T_dw^+`, preempts occupants that have
//!   served their minimum dwell `T_dw^-` when someone is waiting, and grants
//!   the slot to the waiting application with the smallest laxity
//!   `D = T_w^* − T_w` (the paper's EDF-like policy);
//! * an application that is still waiting after `T_w^*` samples can no longer
//!   meet its settling requirement — the error the verification must exclude.

use std::collections::{HashMap, VecDeque};

use crate::witness::{TraceEvent, Witness};
use crate::{SlotSharingModel, VerifyError};

/// Configuration of the exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationConfig {
    /// Restrict every application to at most this many disturbance instances
    /// per analysis (the paper's acceleration). `None` explores the full
    /// sporadic model.
    pub max_disturbances_per_app: Option<usize>,
    /// Maximum number of states to pop and expand before giving up.
    pub state_budget: usize,
}

impl Default for VerificationConfig {
    fn default() -> Self {
        // The exact sporadic model: in this discrete formulation the full
        // model is usually *cheaper* than the instance-bounded one because
        // recurrent disturbances merge into already-visited states.
        VerificationConfig {
            max_disturbances_per_app: None,
            state_budget: 10_000_000,
        }
    }
}

impl VerificationConfig {
    /// The fully exact sporadic-disturbance model (no instance bound); this
    /// is also the default configuration.
    pub fn unbounded() -> Self {
        VerificationConfig::default()
    }

    /// The accelerated model with at most `instances` disturbances per
    /// application.
    pub fn bounded(instances: usize) -> Self {
        VerificationConfig {
            max_disturbances_per_app: Some(instances),
            ..Default::default()
        }
    }
}

/// The verdict of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationOutcome {
    schedulable: bool,
    states_explored: usize,
    witness: Option<Witness>,
}

impl VerificationOutcome {
    pub(crate) fn new(schedulable: bool, states_explored: usize, witness: Option<Witness>) -> Self {
        VerificationOutcome {
            schedulable,
            states_explored,
            witness,
        }
    }

    /// `true` when every application meets its deadline in every explored
    /// scenario.
    pub fn schedulable(&self) -> bool {
        self.schedulable
    }

    /// Number of system states that were popped and expanded (matching the
    /// budget accounting of [`VerificationConfig::state_budget`]).
    pub fn states_explored(&self) -> usize {
        self.states_explored
    }

    /// The counterexample scenario when the model is not schedulable.
    pub fn witness(&self) -> Option<&Witness> {
        self.witness.as_ref()
    }
}

/// The per-application location in the discrete transition system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    /// No active disturbance; a new one may arrive at any sample.
    Steady,
    /// Disturbed and waiting for the slot for `waited` samples so far.
    Waiting { waited: u32 },
    /// Occupying the slot: granted after `wait_at_grant` samples, having
    /// already received `received` TT samples.
    Using { wait_at_grant: u32, received: u32 },
    /// Disturbance handled; `since` samples have elapsed since it was sensed
    /// (a new disturbance becomes possible once `since ≥ r`).
    Cooldown { since: u32 },
    /// Bounded mode only: the application has used up its disturbance budget
    /// and can no longer interfere.
    Exhausted,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SystemState {
    cells: Vec<Cell>,
    instances_used: Vec<u32>,
}

/// Per-application scheduling parameters extracted from the profiles.
struct AppParams {
    max_wait: u32,
    min_inter_arrival: u32,
    t_dw_min: Vec<u32>,
    t_dw_plus: Vec<u32>,
}

impl AppParams {
    fn t_dw_min(&self, wait: u32) -> u32 {
        self.t_dw_min[wait as usize]
    }

    fn t_dw_plus(&self, wait: u32) -> u32 {
        self.t_dw_plus[wait as usize]
    }
}

struct Explorer {
    params: Vec<AppParams>,
    bound: Option<usize>,
}

/// Result of applying the deterministic scheduler + time advance to a state.
enum StepResult {
    Ok(SystemState),
    DeadlineMiss { app: usize },
}

impl Explorer {
    fn new(model: &SlotSharingModel, config: &VerificationConfig) -> Self {
        let params = model
            .profiles()
            .iter()
            .map(|p| AppParams {
                max_wait: p.max_wait() as u32,
                min_inter_arrival: p.min_inter_arrival() as u32,
                t_dw_min: (0..=p.max_wait())
                    .map(|w| p.t_dw_min(w).expect("wait within range") as u32)
                    .collect(),
                t_dw_plus: (0..=p.max_wait())
                    .map(|w| p.t_dw_plus(w).expect("wait within range") as u32)
                    .collect(),
            })
            .collect();
        Explorer {
            params,
            bound: config.max_disturbances_per_app,
        }
    }

    fn initial_state(&self) -> SystemState {
        SystemState {
            cells: vec![Cell::Steady; self.params.len()],
            instances_used: vec![0; self.params.len()],
        }
    }

    /// Applications that may receive a disturbance in the current state.
    fn eligible(&self, state: &SystemState) -> Vec<usize> {
        state
            .cells
            .iter()
            .enumerate()
            .filter(|(i, cell)| {
                matches!(cell, Cell::Steady)
                    && self
                        .bound
                        .map(|b| (state.instances_used[*i] as usize) < b)
                        .unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies one sample step: the chosen disturbances arrive, the scheduler
    /// decides, and time advances by one sample.
    fn step(&self, state: &SystemState, disturbed: &[usize]) -> StepResult {
        let mut cells = state.cells.clone();
        let mut used = state.instances_used.clone();

        // 1. Disturbances sensed at this sample. The instance counter is only
        //    tracked in bounded mode; in the exact sporadic model it would
        //    needlessly distinguish otherwise identical states.
        for &app in disturbed {
            debug_assert!(matches!(cells[app], Cell::Steady));
            cells[app] = Cell::Waiting { waited: 0 };
            if self.bound.is_some() {
                used[app] = used[app].saturating_add(1);
            }
        }

        // 2. Deadline check: a waiter beyond its maximum wait can no longer
        //    meet its requirement even if granted right now.
        for (app, cell) in cells.iter().enumerate() {
            if let Cell::Waiting { waited } = cell {
                if *waited > self.params[app].max_wait {
                    return StepResult::DeadlineMiss { app };
                }
            }
        }

        // 3. Scheduler decision for this sample.
        let mut occupant: Option<usize> =
            cells.iter().position(|c| matches!(c, Cell::Using { .. }));

        // Release occupants that have exhausted their useful dwell.
        if let Some(app) = occupant {
            if let Cell::Using {
                wait_at_grant,
                received,
            } = cells[app]
            {
                if received >= self.params[app].t_dw_plus(wait_at_grant) {
                    cells[app] = Cell::Cooldown {
                        since: wait_at_grant + received,
                    };
                    occupant = None;
                }
            }
        }

        // Laxity-EDF choice among the waiters.
        let best_waiter = cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                Cell::Waiting { waited } => Some((self.params[i].max_wait - waited, i)),
                _ => None,
            })
            .min();

        if let Some((_, waiter)) = best_waiter {
            match occupant {
                None => {
                    if let Cell::Waiting { waited } = cells[waiter] {
                        cells[waiter] = Cell::Using {
                            wait_at_grant: waited,
                            received: 0,
                        };
                    }
                }
                Some(app) => {
                    if let Cell::Using {
                        wait_at_grant,
                        received,
                    } = cells[app]
                    {
                        if received >= self.params[app].t_dw_min(wait_at_grant) {
                            // Preempt the occupant and grant the slot.
                            cells[app] = Cell::Cooldown {
                                since: wait_at_grant + received,
                            };
                            if let Cell::Waiting { waited } = cells[waiter] {
                                cells[waiter] = Cell::Using {
                                    wait_at_grant: waited,
                                    received: 0,
                                };
                            }
                        }
                    }
                }
            }
        }

        // 4. One sample of time passes.
        for (app, cell) in cells.iter_mut().enumerate() {
            *cell = match *cell {
                Cell::Steady => Cell::Steady,
                Cell::Exhausted => Cell::Exhausted,
                Cell::Waiting { waited } => Cell::Waiting { waited: waited + 1 },
                Cell::Using {
                    wait_at_grant,
                    received,
                } => Cell::Using {
                    wait_at_grant,
                    received: received + 1,
                },
                Cell::Cooldown { since } => {
                    let since = since + 1;
                    if since >= self.params[app].min_inter_arrival {
                        match self.bound {
                            Some(b) if (used[app] as usize) >= b => Cell::Exhausted,
                            _ => Cell::Steady,
                        }
                    } else {
                        Cell::Cooldown { since }
                    }
                }
            };
        }

        StepResult::Ok(SystemState {
            cells,
            instances_used: used,
        })
    }
}

/// All subsets of a small index list (the disturbance choices of one sample).
fn subsets(items: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(1 << items.len());
    for mask in 0u32..(1 << items.len()) {
        let subset = items
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &item)| item)
            .collect();
        out.push(subset);
    }
    out
}

/// Verifies that every application mapped to the slot meets its deadline in
/// every admissible disturbance scenario.
///
/// `state_budget` bounds the number of states *popped and expanded* (not
/// merely discovered), matching the accounting of
/// [`VerificationOutcome::states_explored`] and of the interned-state
/// [`crate::engine::SlotVerifyEngine`].
///
/// # Errors
///
/// * [`VerifyError::InvalidConfig`] for a zero state budget or a zero
///   disturbance bound.
/// * [`VerifyError::StateBudgetExhausted`] when the exploration pops more
///   states than the budget allows (no verdict is implied in that case).
pub fn verify(
    model: &SlotSharingModel,
    config: &VerificationConfig,
) -> Result<VerificationOutcome, VerifyError> {
    if config.state_budget == 0 {
        return Err(VerifyError::InvalidConfig {
            reason: "state budget must be positive".to_string(),
        });
    }
    if config.max_disturbances_per_app == Some(0) {
        return Err(VerifyError::InvalidConfig {
            reason: "the disturbance bound must allow at least one instance".to_string(),
        });
    }
    let explorer = Explorer::new(model, config);
    let initial = explorer.initial_state();

    let mut nodes: Vec<Node> = vec![Node {
        state: initial.clone(),
        parent: None,
        disturbed: Vec::new(),
        sample: 0,
    }];
    let mut visited: HashMap<SystemState, usize> = HashMap::new();
    visited.insert(initial, 0);
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);

    // The budget gates (and `states_explored` reports) states that are
    // actually popped and expanded, not merely discovered and queued.
    let mut explored = 0usize;
    while let Some(index) = queue.pop_front() {
        explored += 1;
        if explored > config.state_budget {
            return Err(VerifyError::StateBudgetExhausted {
                budget: config.state_budget,
            });
        }
        let eligible = explorer.eligible(&nodes[index].state);
        let sample = nodes[index].sample;
        for subset in subsets(&eligible) {
            let current = nodes[index].state.clone();
            match explorer.step(&current, &subset) {
                StepResult::DeadlineMiss { app } => {
                    let witness = build_witness(&nodes, index, &subset, sample, app);
                    return Ok(VerificationOutcome {
                        schedulable: false,
                        states_explored: explored,
                        witness: Some(witness),
                    });
                }
                StepResult::Ok(next) => {
                    if visited.contains_key(&next) {
                        continue;
                    }
                    visited.insert(next.clone(), nodes.len());
                    nodes.push(Node {
                        state: next,
                        parent: Some(index),
                        disturbed: subset.clone(),
                        sample: sample + 1,
                    });
                    queue.push_back(nodes.len() - 1);
                }
            }
        }
    }

    Ok(VerificationOutcome {
        schedulable: true,
        states_explored: explored,
        witness: None,
    })
}

/// One node of the exploration graph, kept for witness reconstruction.
struct Node {
    state: SystemState,
    parent: Option<usize>,
    disturbed: Vec<usize>,
    sample: usize,
}

fn build_witness(
    nodes: &[Node],
    failing_parent: usize,
    final_disturbed: &[usize],
    final_sample: usize,
    failing_app: usize,
) -> Witness {
    let mut events = Vec::new();
    // Walk back up the parent chain collecting the disturbance choices.
    let mut chain = Vec::new();
    let mut index = Some(failing_parent);
    while let Some(i) = index {
        chain.push(i);
        index = nodes[i].parent;
    }
    chain.reverse();
    for &i in &chain {
        for &app in &nodes[i].disturbed {
            events.push(TraceEvent::Disturbance {
                app,
                sample: nodes[i].sample.saturating_sub(1),
            });
        }
    }
    for &app in final_disturbed {
        events.push(TraceEvent::Disturbance {
            app,
            sample: final_sample,
        });
    }
    events.push(TraceEvent::DeadlineMissed {
        app: failing_app,
        sample: final_sample,
    });
    Witness::new(events, failing_app, final_sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::{AppTimingProfile, DwellTimeTable};

    /// A profile with constant dwell times and a configurable deadline.
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

    #[test]
    fn single_application_is_always_schedulable() {
        let model = SlotSharingModel::new(vec![profile("A", 10, 3, 5, 25)]).unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert!(outcome.schedulable());
        assert!(outcome.witness().is_none());
        assert!(outcome.states_explored() > 1);
    }

    #[test]
    fn two_applications_with_generous_deadlines_are_schedulable() {
        // Each needs at most 5 TT samples and can wait 10: even when both are
        // disturbed simultaneously the second one waits at most ~5 samples.
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)])
                .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert!(outcome.schedulable());
    }

    #[test]
    fn zero_wait_tolerance_with_a_competitor_is_unschedulable() {
        // An application that cannot wait at all (max_wait = 0) shares the
        // slot with another one that needs 5 samples once granted: if the
        // competitor is granted first the zero-laxity app must miss.
        let model =
            SlotSharingModel::new(vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)])
                .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert!(!outcome.schedulable());
        let witness = outcome.witness().unwrap();
        assert!(!witness.events().is_empty());
        assert!(witness
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::DeadlineMissed { .. })));
    }

    #[test]
    fn tight_deadlines_with_long_dwells_are_unschedulable() {
        // Three applications, each requiring 6 non-preemptible samples, but
        // only tolerating a 7-sample wait: the third one in line must wait at
        // least 12 samples when all are disturbed together.
        let model = SlotSharingModel::new(vec![
            profile("A", 7, 6, 6, 40),
            profile("B", 7, 6, 6, 40),
            profile("C", 7, 6, 6, 40),
        ])
        .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert!(!outcome.schedulable());
    }

    #[test]
    fn bounded_and_unbounded_agree_on_small_models() {
        for (a_wait, b_wait, expect) in [(10, 10, true), (0, 0, false), (4, 2, true)] {
            let model = SlotSharingModel::new(vec![
                profile("A", a_wait, 3, 4, 20),
                profile("B", b_wait, 3, 4, 20),
            ])
            .unwrap();
            let bounded = verify(&model, &VerificationConfig::bounded(2)).unwrap();
            let unbounded = verify(&model, &VerificationConfig::unbounded()).unwrap();
            assert_eq!(bounded.schedulable(), expect);
            assert_eq!(bounded.schedulable(), unbounded.schedulable());
        }
    }

    #[test]
    fn witness_scenario_contains_the_failing_application() {
        let model =
            SlotSharingModel::new(vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)])
                .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        let witness = outcome.witness().unwrap();
        let times = witness.disturbance_times(2);
        // Both applications are disturbed in the failing scenario.
        assert!(times.iter().filter(|t| !t.is_empty()).count() >= 2);
    }

    #[test]
    fn configuration_validation() {
        let model = SlotSharingModel::new(vec![profile("A", 5, 2, 3, 20)]).unwrap();
        assert!(verify(
            &model,
            &VerificationConfig {
                max_disturbances_per_app: Some(0),
                state_budget: 100,
            }
        )
        .is_err());
        assert!(verify(
            &model,
            &VerificationConfig {
                max_disturbances_per_app: Some(1),
                state_budget: 0,
            }
        )
        .is_err());
    }

    #[test]
    fn state_budget_exhaustion_is_reported() {
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 60), profile("B", 10, 3, 5, 60)])
                .unwrap();
        let result = verify(
            &model,
            &VerificationConfig {
                max_disturbances_per_app: None,
                state_budget: 5,
            },
        );
        assert!(matches!(
            result,
            Err(VerifyError::StateBudgetExhausted { budget: 5 })
        ));
    }

    #[test]
    fn preemption_after_minimum_dwell_lets_tighter_apps_in() {
        // A holds the slot for at least 3 samples but up to 8; B can only wait
        // 4. If preemption at the minimum dwell works, B always makes it.
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 8, 40), profile("B", 4, 3, 8, 40)])
                .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert!(outcome.schedulable());
    }
}
