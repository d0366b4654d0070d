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
//!
//! # Dominance pruning
//!
//! An application that is `Steady` or in `Cooldown { since }` is *idle*: the
//! scheduler never reads its cell, which only decides when the next
//! disturbance may arrive. Idle cells are ranked by `since`, with `Steady`
//! above every cooldown. A state *dominates* another when their busy
//! (`Waiting`/`Using`) cells are equal and each idle rank is at least the
//! other's: it can copy every disturbance choice of the dominated state,
//! step for step, and so reaches every deadline miss the dominated state
//! reaches, no later. The search therefore skips every successor an
//! already-visited state dominates (the zone-inclusion subsumption of
//! timed-automata model checkers, restricted to the one clock that never
//! meets the scheduler). Equality is the degenerate case, so the rule
//! replaces plain duplicate detection, and the verdict and the sample of the
//! first miss are those of the unpruned search. Bounded mode has no idle
//! cells — the instance counters still differ — and keeps exact duplicate
//! detection.
//!
//! # Superseded states
//!
//! A visited state that a state visited later on its own BFS level
//! dominates is *superseded*: it stays visited, so it still prunes what it
//! dominates, but the search never expands it and does not count it as
//! popped. UPPAAL's unified passed/waiting list drops the waiting states a
//! newly stored state covers the same way (Behrmann et al., "UPPAAL
//! Implementation Secrets", FTRTFT 2002). Keeping the rule to one level
//! keeps every miss at its sample. By induction on the depth, every state
//! reachable at depth `k` is dominated by a visited state of depth at most
//! `k` that is not superseded: a successor of the dominating state copies
//! each step, a state that skips it was visited no deeper, and a chain of
//! superseding states stays on its level and ends at one that is expanded.
//! So the first state with a miss one sample ahead is as shallow as in the
//! unpruned search. A rule that let any later state supersede would let a
//! deeper state stand in for a shallower one and could push a miss later.
//! Bounded mode supersedes nothing, since no state dominates another.
//!
//! # Lookahead
//!
//! The search steps every disturbance choice of each newly visited state at
//! once, and stops at the first state with a choice that leaves an
//! application past its maximum wait one sample later. A visited state that
//! dominates such a state has such a choice itself, so the first one is
//! never skipped, and it is the parent of the first expired state a search
//! without lookahead would pop, reached through its first expiring choice.
//! Verdict and witness are that search's; only the pops before a miss fall.

use std::collections::HashMap;

use crate::witness::{TraceEvent, Witness};
use crate::{SlotSharingModel, VerifyError};

/// Configuration of the exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationConfig {
    /// Restrict every application to at most this many disturbance instances
    /// per analysis (the paper's acceleration). `None` explores the full
    /// sporadic model.
    pub max_disturbances_per_app: Option<usize>,
    /// Maximum number of states to pop and expand before giving up. A miss
    /// seen one sample ahead is decided within the budget: it takes only the
    /// pops up to the parent of the doomed state, none when the initial
    /// state is doomed.
    pub state_budget: usize,
}

impl Default for VerificationConfig {
    fn default() -> Self {
        // The exact sporadic model: in this discrete formulation the full
        // model is far *cheaper* than the instance-bounded one, because
        // recurrent disturbances merge into already-visited states and
        // dominance pruning applies only without instance counters.
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
    /// budget accounting of [`VerificationConfig::state_budget`]). A miss is
    /// decided when the state that leads to it is visited, so its count
    /// ends at that state's parent, and a doomed initial state reports 0.
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

    /// Splits a state into its busy projection — every idle cell blanked to
    /// `Steady` — and the ranks of its idle cells in application order
    /// (`Steady` ranks above every `Cooldown { since }`). Bounded mode has no
    /// idle cells, so the projection is the state itself.
    fn split(&self, state: &SystemState) -> (SystemState, Vec<u32>) {
        let mut busy = state.clone();
        let mut ranks = Vec::new();
        if self.bound.is_none() {
            for cell in &mut busy.cells {
                match *cell {
                    Cell::Steady => ranks.push(u32::MAX),
                    Cell::Cooldown { since } => ranks.push(since),
                    _ => continue,
                }
                *cell = Cell::Steady;
            }
        }
        (busy, ranks)
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

    /// The first application waiting beyond its maximum wait: it can no
    /// longer meet its requirement even if granted right now.
    fn expired(&self, state: &SystemState) -> Option<usize> {
        state.cells.iter().enumerate().position(
            |(app, cell)| matches!(cell, Cell::Waiting { waited } if *waited > self.params[app].max_wait),
        )
    }

    /// Applies one sample step: the chosen disturbances arrive, the scheduler
    /// decides, and time advances by one sample. The search stops at the
    /// parent of every state with an expired waiter, so it never steps one.
    fn step(&self, state: &SystemState, disturbed: &[usize]) -> SystemState {
        assert!(
            self.expired(state).is_none(),
            "the search never steps past a deadline miss"
        );
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

        // 2. Scheduler decision for this sample.
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

        // 3. One sample of time passes.
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

        SystemState {
            cells,
            instances_used: used,
        }
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
/// The breadth-first search skips every successor that an already-visited
/// state equals or dominates, never expands a state that a later state of
/// its own level dominates, and stops at the first visited state with a
/// deadline miss one sample ahead (see the module docs), so
/// `states_explored` counts the states of the pruned search.
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
    explore(model, config, prune())
}

/// The visit rule of [`verify`]: records a state reached as node `id`.
/// Returns `None` when an already-visited state equals or dominates it,
/// else the nodes it dominates, which leave their antichain.
fn prune() -> impl FnMut(&Explorer, &SystemState, usize) -> Option<Vec<usize>> {
    // Busy projection → the idle-rank vectors, with their node ids, of its
    // visited states that no other visited state dominates (an antichain).
    let mut visited: HashMap<SystemState, Vec<(Vec<u32>, usize)>> = HashMap::new();
    move |explorer, state, id| {
        let (busy, ranks) = explorer.split(state);
        let kept = visited.entry(busy).or_default();
        if kept.iter().any(|(other, _)| dominates(other, &ranks)) {
            return None;
        }
        let dominated = kept
            .extract_if(.., |(other, _)| dominates(&ranks, other))
            .map(|(_, node)| node)
            .collect();
        kept.push((ranks, id));
        Some(dominated)
    }
}

/// `true` when every idle rank of `a` is at least the matching rank of `b`.
fn dominates(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// The breadth-first search shared by [`verify`] and the unpruned search of
/// the tests: `visit` records a state reached as a new node and returns the
/// nodes it dominates when it must be queued, `None` when the search skips
/// it. Every queued state is stepped under each disturbance choice at once,
/// and the search stops at the first one with a choice that leaves an
/// application past its maximum wait.
fn explore(
    model: &SlotSharingModel,
    config: &VerificationConfig,
    mut visit: impl FnMut(&Explorer, &SystemState, usize) -> Option<Vec<usize>>,
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
    let mut nodes = vec![Node::initial(&explorer)];
    visit(&explorer, &nodes[0].state, 0);
    if let Some(witness) = first_miss(&explorer, &nodes, 0) {
        return Ok(VerificationOutcome::new(false, 0, Some(witness)));
    }

    // Every visited state is queued, so `nodes` doubles as the queue. The
    // budget gates (and `states_explored` reports) states that are actually
    // popped and expanded, not merely discovered and queued, nor skipped as
    // superseded.
    let mut explored = 0usize;
    for index in 0.. {
        let Some(node) = nodes.get(index) else { break };
        if node.superseded {
            continue;
        }
        explored += 1;
        if explored > config.state_budget {
            return Err(VerifyError::StateBudgetExhausted {
                budget: config.state_budget,
            });
        }
        for subset in subsets(&explorer.eligible(&nodes[index].state)) {
            let next = explorer.step(&nodes[index].state, &subset);
            if !queue(&mut nodes, &mut visit, &explorer, next, index, subset) {
                continue;
            }
            if let Some(witness) = first_miss(&explorer, &nodes, nodes.len() - 1) {
                return Ok(VerificationOutcome::new(false, explored, Some(witness)));
            }
        }
    }

    Ok(VerificationOutcome::new(true, explored, None))
}

/// Visits `state`, reached from `nodes[parent]` under `disturbed`, and
/// queues it unless `visit` skips it. Every queued node of its own level
/// that it dominates is superseded: the search never expands it. Returns
/// `true` when the state was queued.
fn queue(
    nodes: &mut Vec<Node>,
    visit: &mut impl FnMut(&Explorer, &SystemState, usize) -> Option<Vec<usize>>,
    explorer: &Explorer,
    state: SystemState,
    parent: usize,
    disturbed: Vec<usize>,
) -> bool {
    let Some(dominated) = visit(explorer, &state, nodes.len()) else {
        return false;
    };
    let sample = nodes[parent].sample + 1;
    for id in dominated {
        if nodes[id].sample == sample {
            nodes[id].superseded = true;
        }
    }
    nodes.push(Node {
        state,
        parent: Some(parent),
        disturbed,
        sample,
        superseded: false,
    });
    true
}

/// Steps every disturbance choice of the visited state `nodes[index]` and
/// returns the witness through the first that leaves an application past
/// its maximum wait, if any.
fn first_miss(explorer: &Explorer, nodes: &[Node], index: usize) -> Option<Witness> {
    let state = &nodes[index].state;
    subsets(&explorer.eligible(state))
        .into_iter()
        .find_map(|subset| {
            let app = explorer.expired(&explorer.step(state, &subset))?;
            Some(build_witness(nodes, index, &subset, app))
        })
}

/// One node of the exploration graph, kept for witness reconstruction.
struct Node {
    state: SystemState,
    parent: Option<usize>,
    disturbed: Vec<usize>,
    /// The node's BFS level: the sample it is reached at.
    sample: usize,
    /// A node of the same level visited later dominates this one.
    superseded: bool,
}

impl Node {
    fn initial(explorer: &Explorer) -> Self {
        Node {
            state: explorer.initial_state(),
            parent: None,
            disturbed: Vec::new(),
            sample: 0,
            superseded: false,
        }
    }
}

/// The counterexample through the parent chain of `nodes[doomed]` and its
/// choice `final_disturbed`, after which `failing_app` waits past its
/// maximum wait one sample later.
fn build_witness(
    nodes: &[Node],
    doomed: usize,
    final_disturbed: &[usize],
    failing_app: usize,
) -> Witness {
    let mut events = Vec::new();
    // Walk back up the parent chain collecting the disturbance choices.
    let mut chain = Vec::new();
    let mut index = Some(doomed);
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
    let sample = nodes[doomed].sample;
    for &app in final_disturbed {
        events.push(TraceEvent::Disturbance { app, sample });
    }
    events.push(TraceEvent::DeadlineMissed {
        app: failing_app,
        sample: sample + 1,
    });
    Witness::new(events, failing_app, sample + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::validate_witness;
    use cps_core::{AppTimingProfile, DwellTimeTable};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::HashSet;

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

    /// The same search without dominance pruning: plain duplicate detection
    /// over the same `Explorer::step`.
    fn verify_unpruned(
        model: &SlotSharingModel,
        config: &VerificationConfig,
    ) -> Result<VerificationOutcome, VerifyError> {
        let mut visited = HashSet::new();
        explore(model, config, |_, state, _| {
            visited.insert(state.clone()).then(Vec::new)
        })
    }

    /// The pruned search without lookahead: it reports a miss only when it
    /// pops a state with an expired waiter, as the search did before it
    /// stopped at that state's parent.
    fn verify_plain(model: &SlotSharingModel, config: &VerificationConfig) -> VerificationOutcome {
        let explorer = Explorer::new(model, config);
        let mut visit = prune();
        let mut nodes = vec![Node::initial(&explorer)];
        visit(&explorer, &nodes[0].state, 0);
        let mut explored = 0;
        for index in 0.. {
            let Some(node) = nodes.get(index) else { break };
            if node.superseded {
                continue;
            }
            explored += 1;
            if let Some(app) = explorer.expired(&node.state) {
                let witness = build_witness(&nodes, node.parent.unwrap(), &node.disturbed, app);
                return VerificationOutcome::new(false, explored, Some(witness));
            }
            for subset in subsets(&explorer.eligible(&nodes[index].state)) {
                let next = explorer.step(&nodes[index].state, &subset);
                queue(&mut nodes, &mut visit, &explorer, next, index, subset);
            }
        }
        VerificationOutcome::new(true, explored, None)
    }

    /// A profile with random dwell arrays: waits up to 4 samples, dwells up
    /// to 5, inter-arrival at most 10 beyond the requirement.
    fn random_profile(rng: &mut TestRng, tag: usize) -> AppTimingProfile {
        let max_wait = rng.next_below(5) as usize;
        let dwell_min: Vec<usize> = (0..=max_wait)
            .map(|_| 1 + rng.next_below(3) as usize)
            .collect();
        let dwell_plus: Vec<usize> = dwell_min
            .iter()
            .map(|&min| min + rng.next_below(3) as usize)
            .collect();
        let jstar = max_wait + dwell_plus.iter().max().unwrap() + 1;
        let r = jstar + 1 + rng.next_below(10) as usize;
        let table = DwellTimeTable::from_arrays(jstar, dwell_min, dwell_plus).unwrap();
        AppTimingProfile::new(format!("P{tag}"), 1, jstar + 10, jstar, r, table).unwrap()
    }

    /// 1–3 applications drawn from 1–2 random profiles, so duplicates
    /// appear adjacent, interleaved and not at all.
    fn random_model(seed: u64) -> SlotSharingModel {
        let mut rng = TestRng::new(seed);
        let distinct = 1 + rng.next_below(2) as usize;
        let pool: Vec<AppTimingProfile> =
            (0..distinct).map(|i| random_profile(&mut rng, i)).collect();
        let apps = 1 + rng.next_below(3) as usize;
        SlotSharingModel::new(
            (0..apps)
                .map(|_| pool[rng.next_below(distinct as u64) as usize].clone())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn a_doomed_initial_state_misses_before_any_pop() {
        // Two zero-wait applications: disturbing both leaves one waiting.
        let model =
            SlotSharingModel::new(vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)])
                .unwrap();
        let outcome = verify(&model, &VerificationConfig::default()).unwrap();
        assert_eq!(outcome.states_explored(), 0);
        let witness = outcome.witness().unwrap();
        assert_eq!((witness.failing_app(), witness.missed_at_sample()), (1, 1));
        validate_witness(&model, witness).unwrap();
        assert_eq!(
            verify_plain(&model, &VerificationConfig::default()).witness(),
            Some(witness)
        );
    }

    proptest! {
        #[test]
        fn lookahead_keeps_every_verdict_and_witness(seed in 0u64..1_000_000) {
            let model = random_model(seed);
            for config in [VerificationConfig::unbounded(), VerificationConfig::bounded(2)] {
                let ahead = verify(&model, &config).unwrap();
                let plain = verify_plain(&model, &config);
                prop_assert_eq!(ahead.schedulable(), plain.schedulable());
                prop_assert_eq!(ahead.witness(), plain.witness());
                prop_assert!(ahead.states_explored() <= plain.states_explored());
                if ahead.schedulable() {
                    prop_assert_eq!(ahead.states_explored(), plain.states_explored());
                }
            }
        }

        #[test]
        fn pruning_keeps_every_verdict_and_miss_sample(seed in 0u64..1_000_000) {
            let model = random_model(seed);
            for config in [VerificationConfig::unbounded(), VerificationConfig::bounded(2)] {
                let pruned = verify(&model, &config).unwrap();
                let unpruned = verify_unpruned(&model, &config).unwrap();
                prop_assert_eq!(pruned.schedulable(), unpruned.schedulable());
                prop_assert_eq!(
                    pruned.witness().map(Witness::missed_at_sample),
                    unpruned.witness().map(Witness::missed_at_sample)
                );
                for witness in [pruned.witness(), unpruned.witness()].into_iter().flatten() {
                    validate_witness(&model, witness).unwrap();
                }
                if pruned.schedulable() {
                    // The pruned search pops distinct reachable states.
                    prop_assert!(pruned.states_explored() <= unpruned.states_explored());
                }
                if config.max_disturbances_per_app.is_some() {
                    // Bounded mode has no idle cells: nothing is pruned.
                    prop_assert_eq!(&pruned, &unpruned);
                }
            }
        }
    }
}
