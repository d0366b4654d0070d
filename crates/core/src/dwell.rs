//! Dwell-time dimensioning by exhaustive switched-loop simulation.
//!
//! For every wait time `T_w` (samples spent in `M_E` before the TT slot is
//! granted) the paper pre-computes:
//!
//! * `T_dw^-(T_w)` — the minimum dwell time in `M_T` that still meets the
//!   settling requirement `J ≤ J*`;
//! * `T_dw^+(T_w)` — the dwell time beyond which additional TT samples no
//!   longer improve the settling time;
//! * `T_w^*` — the largest wait for which the requirement is achievable at
//!   all.
//!
//! [`compute_dwell_table`] derives all three by evaluating every admissible
//! wait/dwell schedule; [`settling_surface`] exposes the full `J(T_w, T_dw)`
//! surface used in the paper's Fig. 3.
//!
//! # Search engine
//!
//! Both entry points are backed by the prefix-sharing engine in
//! [`crate::engine`] rather than by re-simulating each schedule end-to-end.
//! The engine exploits the `E^{T_w} T^{T_dw} E^…` structure of every
//! schedule with two levels of checkpointing:
//!
//! * all waits share **one** event-triggered prefix chain (`W` simulated
//!   samples for the whole search instead of `O(W²)`), and
//! * within a wait, the state at the end of the TT block is checkpointed, so
//!   dwell `d+1` costs one TT step plus its own event-triggered tail — and
//!   the tail stops early once a discrete-Lyapunov certificate proves the
//!   output can never leave the settling band again.
//!
//! Together with the allocation-free `gemv` kernels this drops the search
//! from `O(W·D·H)` heap-allocating samples to roughly `O(W·(D+H))`
//! allocation-free ones, while producing **bitwise-identical** tables: the
//! naive search is kept in [`mod@reference`] as the oracle, and equivalence is
//! asserted cell-for-cell by the engine tests and `tests/engine_oracle.rs`.

use std::sync::Arc;

use crate::{engine::DwellEngine, kernel::BackendChoice, CoreError, Mode, SwitchedApplication};

/// Options controlling the exhaustive dwell-time search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwellSearchOptions {
    /// Simulation horizon in samples. Must comfortably exceed the slowest
    /// (pure event-triggered) settling time.
    pub horizon: usize,
    /// Upper bound on the dwell times that are explored.
    pub max_dwell: usize,
    /// Upper bound on the wait times that are explored (safety stop for the
    /// `T_w^*` search).
    pub max_wait: usize,
}

impl Default for DwellSearchOptions {
    fn default() -> Self {
        DwellSearchOptions {
            horizon: 600,
            max_dwell: 60,
            max_wait: 200,
        }
    }
}

/// The settling-time surface `J(T_w, T_dw)` in samples.
///
/// `None` entries mean the schedule did not settle within the simulation
/// horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlingSurface {
    max_wait: usize,
    max_dwell: usize,
    /// Row-major: `settling[wait][dwell]`.
    settling: Vec<Vec<Option<usize>>>,
}

impl SettlingSurface {
    /// Largest wait time covered by the surface.
    pub fn max_wait(&self) -> usize {
        self.max_wait
    }

    /// Largest dwell time covered by the surface.
    pub fn max_dwell(&self) -> usize {
        self.max_dwell
    }

    /// Settling time in samples for the given wait/dwell pair, or `None` when
    /// the pair is out of range or did not settle.
    pub fn settling_samples(&self, wait: usize, dwell: usize) -> Option<usize> {
        self.settling.get(wait)?.get(dwell).copied().flatten()
    }

    /// Iterates over `(wait, dwell, settling)` triples for settled entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.settling.iter().enumerate().flat_map(|(w, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(d, j)| j.map(|j| (w, d, j)))
        })
    }
}

fn validate_surface_bounds(
    max_wait: usize,
    max_dwell: usize,
    horizon: usize,
) -> Result<(), CoreError> {
    if max_wait + max_dwell >= horizon {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "horizon {horizon} too short for wait {max_wait} plus dwell {max_dwell}"
            ),
        });
    }
    Ok(())
}

/// Computes the settling-time surface `J(T_w, T_dw)` for all wait times
/// `0..=max_wait` and dwell times `0..=max_dwell`.
///
/// Uses the prefix-sharing engine; see [`reference::settling_surface`] for
/// the naive oracle.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when the horizon cannot accommodate
/// the largest wait/dwell combination.
pub fn settling_surface(
    app: &SwitchedApplication,
    max_wait: usize,
    max_dwell: usize,
    horizon: usize,
) -> Result<SettlingSurface, CoreError> {
    settling_surface_with_backend(app, max_wait, max_dwell, horizon, BackendChoice::Auto)
}

/// [`settling_surface`] on an explicitly chosen linalg backend (used by the
/// bench harness to compare the dynamic and static kernels on the same
/// workload).
///
/// # Errors
///
/// As for [`settling_surface`], plus
/// [`CoreError::InvalidParameter`] when [`BackendChoice::ForceStatic`] is
/// requested for an augmented dimension outside the static menu.
pub fn settling_surface_with_backend(
    app: &SwitchedApplication,
    max_wait: usize,
    max_dwell: usize,
    horizon: usize,
    backend: BackendChoice,
) -> Result<SettlingSurface, CoreError> {
    validate_surface_bounds(max_wait, max_dwell, horizon)?;
    let engine = DwellEngine::with_backend(app, backend)?;
    let prefix = engine.prefix_chain(max_wait);
    let settling = engine.settling_rows(&prefix, 0..max_wait + 1, max_dwell, horizon);
    Ok(SettlingSurface {
        max_wait,
        max_dwell,
        settling,
    })
}

/// The pre-computed dwell-time table of one application: `T_dw^-`, `T_dw^+`
/// and the associated settling times for every admissible wait time
/// `0..=T_w^*`.
///
/// # Example
///
/// ```
/// use cps_core::{dwell, SwitchedApplication};
/// use cps_control::{StateFeedback, StateSpace};
/// use cps_linalg::Vector;
///
/// # fn main() -> Result<(), cps_core::CoreError> {
/// let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0])?;
/// let app = SwitchedApplication::builder("demo")
///     .plant(plant)
///     .fast_gain(StateFeedback::from_slice(&[8.0]))
///     .slow_gain(Vector::from_slice(&[1.0, 0.2]))
///     .sampling_period(0.02)
///     .settling_threshold(0.02)
///     .disturbance_state(Vector::from_slice(&[1.0]))
///     .build()?;
/// let jstar = 15; // samples
/// let table = dwell::compute_dwell_table(&app, jstar, dwell::DwellSearchOptions::default())?;
/// assert!(table.max_wait() > 0);
/// assert!(table.t_dw_min(0).unwrap() <= table.t_dw_plus(0).unwrap());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DwellTimeTable {
    max_wait: usize,
    /// The per-wait arrays. A table never changes once built, and every
    /// fleet, request and report that holds a profile holds a clone of its
    /// table, so the clones share one copy.
    rows: Arc<DwellRows>,
}

/// The per-wait arrays of a [`DwellTimeTable`], indexed by wait
/// `0..=T_w^*`.
#[derive(Debug, PartialEq, Eq)]
struct DwellRows {
    t_dw_min: Vec<usize>,
    t_dw_plus: Vec<usize>,
    j_at_min: Vec<usize>,
    j_at_plus: Vec<usize>,
}

impl DwellTimeTable {
    /// The table of non-empty, equally long `rows`.
    fn from_rows(rows: DwellRows) -> Self {
        DwellTimeTable {
            max_wait: rows.t_dw_min.len() - 1,
            rows: Arc::new(rows),
        }
    }

    /// Builds a table directly from published `T_dw^-` / `T_dw^+` arrays
    /// (e.g. the paper's Table 1) instead of recomputing them by simulation.
    ///
    /// The per-wait settling times are not part of the published data, so the
    /// [`DwellTimeTable::settling_at_min`] and
    /// [`DwellTimeTable::settling_at_plus`] accessors of a table built this
    /// way report the requirement `jstar` itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the arrays are empty, have
    /// different lengths, or violate `T_dw^-(w) ≤ T_dw^+(w)` for some wait.
    pub fn from_arrays(
        jstar: usize,
        t_dw_min: Vec<usize>,
        t_dw_plus: Vec<usize>,
    ) -> Result<Self, CoreError> {
        if t_dw_min.is_empty() || t_dw_min.len() != t_dw_plus.len() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "dwell arrays must be non-empty and equally long, got {} and {}",
                    t_dw_min.len(),
                    t_dw_plus.len()
                ),
            });
        }
        if t_dw_min
            .iter()
            .zip(t_dw_plus.iter())
            .any(|(min, plus)| min > plus)
        {
            return Err(CoreError::InvalidParameter {
                reason: "T_dw^- must not exceed T_dw^+ for any wait time".to_string(),
            });
        }
        let len = t_dw_min.len();
        let rows = DwellRows {
            t_dw_min,
            t_dw_plus,
            j_at_min: vec![jstar; len],
            j_at_plus: vec![jstar; len],
        };
        Ok(DwellTimeTable::from_rows(rows))
    }

    /// The maximum admissible wait time `T_w^*` in samples.
    pub fn max_wait(&self) -> usize {
        self.max_wait
    }

    /// Minimum dwell time `T_dw^-(T_w)` for a wait of `wait` samples, or
    /// `None` when `wait > T_w^*`.
    pub fn t_dw_min(&self, wait: usize) -> Option<usize> {
        self.rows.t_dw_min.get(wait).copied()
    }

    /// Maximum useful dwell time `T_dw^+(T_w)` for a wait of `wait` samples,
    /// or `None` when `wait > T_w^*`.
    pub fn t_dw_plus(&self, wait: usize) -> Option<usize> {
        self.rows.t_dw_plus.get(wait).copied()
    }

    /// Settling time (samples) achieved when dwelling exactly
    /// `T_dw^-(T_w)` samples.
    pub fn settling_at_min(&self, wait: usize) -> Option<usize> {
        self.rows.j_at_min.get(wait).copied()
    }

    /// Best achievable settling time (samples) for the given wait, reached at
    /// `T_dw^+(T_w)`.
    pub fn settling_at_plus(&self, wait: usize) -> Option<usize> {
        self.rows.j_at_plus.get(wait).copied()
    }

    /// The full `T_dw^-` array indexed by wait time (`0..=T_w^*`), as printed
    /// in the paper's Table 1.
    pub fn t_dw_min_array(&self) -> &[usize] {
        &self.rows.t_dw_min
    }

    /// The full `T_dw^+` array indexed by wait time (`0..=T_w^*`).
    pub fn t_dw_plus_array(&self) -> &[usize] {
        &self.rows.t_dw_plus
    }

    /// The largest minimum dwell time over all admissible waits
    /// (`T_dw^{-*}`), used by the paper's mapping heuristic as a tie-breaker.
    pub fn max_t_dw_min(&self) -> usize {
        self.rows.t_dw_min.iter().copied().max().unwrap_or(0)
    }

    /// The largest useful dwell time over all admissible waits.
    pub fn max_t_dw_plus(&self) -> usize {
        self.rows.t_dw_plus.iter().copied().max().unwrap_or(0)
    }
}

/// Derives one dwell-table row (`T_dw^-`, `T_dw^+` and their settling times)
/// from the settling-per-dwell values of a wait; `None` when no dwell meets
/// the requirement. Shared by the engine-backed and the naive search so both
/// apply the same selection logic.
fn table_row(settling_per_dwell: &[Option<usize>], jstar: usize) -> Option<TableRow> {
    let min_dwell = settling_per_dwell
        .iter()
        .position(|j| j.map(|j| j <= jstar).unwrap_or(false))?;
    // Best achievable settling time over all dwell times and the first dwell
    // that achieves it (T_dw^+).
    let best = settling_per_dwell
        .iter()
        .filter_map(|j| *j)
        .min()
        .expect("at least one dwell settled");
    let plus_dwell = settling_per_dwell
        .iter()
        .position(|j| *j == Some(best))
        .expect("best value exists");
    Some(TableRow {
        min_dwell,
        plus_dwell: plus_dwell.max(min_dwell),
        j_at_min: settling_per_dwell[min_dwell].expect("settled at minimum dwell"),
        j_at_plus: best,
    })
}

struct TableRow {
    min_dwell: usize,
    plus_dwell: usize,
    j_at_min: usize,
    j_at_plus: usize,
}

/// Computes the dwell-time table of an application for a settling requirement
/// of `jstar` samples.
///
/// The search evaluates every wait/dwell schedule allowed by
/// [`DwellSearchOptions`] through the prefix-sharing engine; the wait scan
/// stops at the first wait time for which no dwell meets the requirement,
/// which defines `T_w^*`. The result is identical to the naive
/// [`reference::compute_dwell_table`] oracle.
///
/// # Errors
///
/// * [`CoreError::RequirementInfeasible`] when even a dedicated TT slot
///   (wait 0, unlimited dwell) cannot meet `jstar`.
/// * [`CoreError::DidNotSettle`] when the pure event-triggered loop does not
///   settle within the horizon (the horizon is too short or `K_E` does not
///   stabilize the delayed plant).
/// * [`CoreError::InvalidParameter`] for inconsistent options.
pub fn compute_dwell_table(
    app: &SwitchedApplication,
    jstar: usize,
    options: DwellSearchOptions,
) -> Result<DwellTimeTable, CoreError> {
    compute_dwell_table_with_backend(app, jstar, options, BackendChoice::Auto)
}

/// [`compute_dwell_table`] on an explicitly chosen linalg backend (used by
/// the bench harness to compare the dynamic and static kernels on the same
/// workload).
///
/// # Errors
///
/// As for [`compute_dwell_table`], plus [`CoreError::InvalidParameter`] when
/// [`BackendChoice::ForceStatic`] is requested for an augmented dimension
/// outside the static menu.
pub fn compute_dwell_table_with_backend(
    app: &SwitchedApplication,
    jstar: usize,
    options: DwellSearchOptions,
    backend: BackendChoice,
) -> Result<DwellTimeTable, CoreError> {
    compute_dwell_table_detailed(app, jstar, options, backend).map(|detail| detail.table)
}

/// A computed dwell table together with the pure-mode settling times the
/// sanity checks already measured, so profile construction does not have to
/// re-simulate them.
pub(crate) struct TableComputation {
    pub table: DwellTimeTable,
    /// Settling time of the dedicated TT slot (`J_T`).
    pub jt: usize,
    /// Settling time of the pure event-triggered loop (`J_E`).
    pub je: usize,
}

pub(crate) fn compute_dwell_table_detailed(
    app: &SwitchedApplication,
    jstar: usize,
    options: DwellSearchOptions,
    backend: BackendChoice,
) -> Result<TableComputation, CoreError> {
    if options.horizon <= options.max_wait + options.max_dwell {
        return Err(CoreError::InvalidParameter {
            reason: "horizon must exceed max_wait + max_dwell".to_string(),
        });
    }
    let engine = DwellEngine::with_backend(app, backend)?;
    // Sanity: the event-triggered loop must settle eventually (stability), and
    // the dedicated TT loop must meet the requirement, otherwise the strategy
    // does not apply to this application.
    let je = engine
        .pure_mode_settling(Mode::EventTriggered, options.horizon)
        .ok_or(CoreError::DidNotSettle {
            horizon: options.horizon,
        })?;
    let jt = engine
        .pure_mode_settling(Mode::TimeTriggered, options.horizon)
        .ok_or(CoreError::DidNotSettle {
            horizon: options.horizon,
        })?;
    if jt > jstar {
        return Err(CoreError::RequirementInfeasible { jt, jstar });
    }

    let mut t_dw_min = Vec::new();
    let mut t_dw_plus = Vec::new();
    let mut j_at_min = Vec::new();
    let mut j_at_plus = Vec::new();

    let prefix = engine.prefix_chain(options.max_wait);
    engine.scan_rows(
        &prefix,
        0..options.max_wait + 1,
        options.max_dwell,
        options.horizon,
        |settling_per_dwell| {
            // A wait that cannot meet the requirement (and by monotonicity of
            // the problem every larger wait) ends the scan: the previous wait
            // was T_w^*.
            let Some(row) = table_row(settling_per_dwell, jstar) else {
                return false;
            };
            t_dw_min.push(row.min_dwell);
            t_dw_plus.push(row.plus_dwell);
            j_at_min.push(row.j_at_min);
            j_at_plus.push(row.j_at_plus);
            true
        },
    );

    if t_dw_min.is_empty() {
        return Err(CoreError::RequirementInfeasible { jt, jstar });
    }

    let rows = DwellRows {
        t_dw_min,
        t_dw_plus,
        j_at_min,
        j_at_plus,
    };
    Ok(TableComputation {
        table: DwellTimeTable::from_rows(rows),
        jt,
        je,
    })
}

/// The naive dwell search: every wait/dwell schedule is re-simulated
/// end-to-end through [`SwitchedApplication::simulate_modes`].
///
/// This is the **oracle** the fast engine is verified against (it is also
/// what the engine's complexity is benchmarked against in
/// `BENCH_dwell.json`). It is kept simple on purpose: no checkpointing, no
/// early exit, no parallelism.
pub mod reference {
    use super::{
        table_row, validate_surface_bounds, DwellRows, DwellSearchOptions, DwellTimeTable,
        SettlingSurface,
    };
    use crate::{CoreError, Mode, ModeSchedule, SwitchedApplication};

    /// Naive counterpart of [`super::settling_surface`].
    ///
    /// # Errors
    ///
    /// As for [`super::settling_surface`], plus propagated simulation errors.
    pub fn settling_surface(
        app: &SwitchedApplication,
        max_wait: usize,
        max_dwell: usize,
        horizon: usize,
    ) -> Result<SettlingSurface, CoreError> {
        validate_surface_bounds(max_wait, max_dwell, horizon)?;
        let mut settling = Vec::with_capacity(max_wait + 1);
        for wait in 0..=max_wait {
            let mut row = Vec::with_capacity(max_dwell + 1);
            for dwell in 0..=max_dwell {
                let schedule = ModeSchedule::new(wait, dwell, horizon)?;
                let trajectory = app.simulate_modes(&schedule.to_modes())?;
                row.push(app.settling().settling_samples(trajectory.outputs()));
            }
            settling.push(row);
        }
        Ok(SettlingSurface {
            max_wait,
            max_dwell,
            settling,
        })
    }

    /// Naive counterpart of [`super::compute_dwell_table`].
    ///
    /// # Errors
    ///
    /// As for [`super::compute_dwell_table`].
    pub fn compute_dwell_table(
        app: &SwitchedApplication,
        jstar: usize,
        options: DwellSearchOptions,
    ) -> Result<DwellTimeTable, CoreError> {
        if options.horizon <= options.max_wait + options.max_dwell {
            return Err(CoreError::InvalidParameter {
                reason: "horizon must exceed max_wait + max_dwell".to_string(),
            });
        }
        app.settling_in_mode(Mode::EventTriggered, options.horizon)?;
        let jt = app.settling_in_mode(Mode::TimeTriggered, options.horizon)?;
        if jt > jstar {
            return Err(CoreError::RequirementInfeasible { jt, jstar });
        }

        let mut t_dw_min = Vec::new();
        let mut t_dw_plus = Vec::new();
        let mut j_at_min = Vec::new();
        let mut j_at_plus = Vec::new();

        for wait in 0..=options.max_wait {
            let max_dwell = options.max_dwell.min(options.horizon - wait - 1);
            let mut settling_per_dwell = Vec::with_capacity(max_dwell + 1);
            for dwell in 0..=max_dwell {
                let schedule = ModeSchedule::new(wait, dwell, options.horizon)?;
                let trajectory = app.simulate_modes(&schedule.to_modes())?;
                settling_per_dwell.push(app.settling().settling_samples(trajectory.outputs()));
            }
            let Some(row) = table_row(&settling_per_dwell, jstar) else {
                break;
            };
            t_dw_min.push(row.min_dwell);
            t_dw_plus.push(row.plus_dwell);
            j_at_min.push(row.j_at_min);
            j_at_plus.push(row.j_at_plus);
        }

        if t_dw_min.is_empty() {
            return Err(CoreError::RequirementInfeasible { jt, jstar });
        }

        let rows = DwellRows {
            t_dw_min,
            t_dw_plus,
            j_at_min,
            j_at_plus,
        };
        Ok(DwellTimeTable::from_rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModeSchedule;
    use cps_control::{StateFeedback, StateSpace};
    use cps_linalg::Vector;

    fn demo_app() -> SwitchedApplication {
        let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0]).unwrap();
        SwitchedApplication::builder("demo")
            .plant(plant)
            .fast_gain(StateFeedback::from_slice(&[8.0]))
            .slow_gain(Vector::from_slice(&[1.0, 0.2]))
            .sampling_period(0.02)
            .settling_threshold(0.02)
            .disturbance_state(Vector::from_slice(&[1.0]))
            .build()
            .unwrap()
    }

    const DEMO_JSTAR: usize = 15;

    fn demo_table() -> DwellTimeTable {
        compute_dwell_table(&demo_app(), DEMO_JSTAR, DwellSearchOptions::default()).unwrap()
    }

    #[test]
    fn surface_dimensions_and_monotonicity() {
        let app = demo_app();
        let surface = settling_surface(&app, 5, 10, 400).unwrap();
        assert_eq!(surface.max_wait(), 5);
        assert_eq!(surface.max_dwell(), 10);
        // More dwell never hurts the settling time for a fixed wait (the
        // switching-stable pair of this demo app).
        for wait in 0..=5 {
            let mut previous = usize::MAX;
            for dwell in 0..=10 {
                if let Some(j) = surface.settling_samples(wait, dwell) {
                    assert!(
                        j <= previous.saturating_add(1),
                        "settling must not degrade materially with more dwell"
                    );
                    previous = j;
                }
            }
        }
        assert_eq!(surface.settling_samples(99, 0), None);
    }

    #[test]
    fn surface_rejects_too_short_horizon() {
        let app = demo_app();
        assert!(settling_surface(&app, 10, 10, 15).is_err());
        assert!(reference::settling_surface(&app, 10, 10, 15).is_err());
    }

    #[test]
    fn surface_iterator_yields_settled_entries() {
        let app = demo_app();
        let surface = settling_surface(&app, 2, 3, 300).unwrap();
        let count = surface.iter().count();
        assert!(count > 0);
        for (w, d, j) in surface.iter() {
            assert_eq!(surface.settling_samples(w, d), Some(j));
        }
    }

    #[test]
    fn from_arrays_builds_published_tables() {
        let table = DwellTimeTable::from_arrays(18, vec![3, 4, 3], vec![6, 6, 5]).unwrap();
        assert_eq!(table.max_wait(), 2);
        assert_eq!(table.t_dw_min(1), Some(4));
        assert_eq!(table.t_dw_plus(2), Some(5));
        assert_eq!(table.settling_at_min(0), Some(18));
        assert_eq!(table.max_t_dw_min(), 4);
        // Validation failures.
        assert!(DwellTimeTable::from_arrays(18, vec![], vec![]).is_err());
        assert!(DwellTimeTable::from_arrays(18, vec![3], vec![6, 6]).is_err());
        assert!(DwellTimeTable::from_arrays(18, vec![7], vec![6]).is_err());
    }

    #[test]
    fn dwell_table_basic_invariants() {
        let table = demo_table();
        assert!(table.max_wait() >= 1);
        assert_eq!(table.t_dw_min_array().len(), table.max_wait() + 1);
        assert_eq!(table.t_dw_plus_array().len(), table.max_wait() + 1);
        for wait in 0..=table.max_wait() {
            let min = table.t_dw_min(wait).unwrap();
            let plus = table.t_dw_plus(wait).unwrap();
            assert!(min <= plus, "T_dw^- must not exceed T_dw^+");
            assert!(table.settling_at_min(wait).unwrap() <= DEMO_JSTAR);
            assert!(table.settling_at_plus(wait).unwrap() <= table.settling_at_min(wait).unwrap());
        }
        assert!(table.max_t_dw_min() >= 1);
        assert!(table.max_t_dw_plus() >= table.max_t_dw_min());
        assert_eq!(table.t_dw_min(table.max_wait() + 1), None);
    }

    #[test]
    fn best_achievable_settling_is_nondecreasing_in_wait() {
        // The paper observes that the minimum achievable settling time
        // (corresponding to T_dw^+) is non-decreasing with the wait time.
        let table = demo_table();
        let mut previous = 0;
        for wait in 0..=table.max_wait() {
            let best = table.settling_at_plus(wait).unwrap();
            assert!(best >= previous);
            previous = best;
        }
    }

    #[test]
    fn requirement_tighter_than_dedicated_slot_is_infeasible() {
        let app = demo_app();
        let jt = app.settling_in_mode(Mode::TimeTriggered, 500).unwrap();
        let err = compute_dwell_table(&app, jt.saturating_sub(1), DwellSearchOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::RequirementInfeasible { .. }));
        let err = reference::compute_dwell_table(
            &app,
            jt.saturating_sub(1),
            DwellSearchOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::RequirementInfeasible { .. }));
    }

    #[test]
    fn loose_requirement_allows_longer_waits() {
        let app = demo_app();
        let tight = compute_dwell_table(&app, 12, DwellSearchOptions::default()).unwrap();
        let loose = compute_dwell_table(&app, 18, DwellSearchOptions::default()).unwrap();
        assert!(loose.max_wait() >= tight.max_wait());
    }

    #[test]
    fn options_are_validated() {
        let app = demo_app();
        let options = DwellSearchOptions {
            horizon: 50,
            max_dwell: 40,
            max_wait: 40,
        };
        assert!(compute_dwell_table(&app, 15, options).is_err());
        assert!(reference::compute_dwell_table(&app, 15, options).is_err());
    }

    #[test]
    fn requirement_met_when_simulating_the_prescribed_schedule() {
        // Cross-check: simulating wait = T_w, dwell = T_dw^-(T_w) must meet J*.
        let app = demo_app();
        let table = demo_table();
        for wait in 0..=table.max_wait() {
            let dwell = table.t_dw_min(wait).unwrap();
            let schedule = ModeSchedule::new(wait, dwell, 600).unwrap();
            let j = app.settling_of_schedule(&schedule.to_modes()).unwrap();
            assert!(j <= DEMO_JSTAR);
            // One fewer dwell sample must violate the requirement (minimality),
            // unless the minimum dwell is already zero.
            if dwell > 0 {
                let shorter = ModeSchedule::new(wait, dwell - 1, 600).unwrap();
                let j_short = app
                    .settling()
                    .settling_samples(app.simulate_modes(&shorter.to_modes()).unwrap().outputs());
                assert!(j_short.map(|j| j > DEMO_JSTAR).unwrap_or(true));
            }
        }
    }
}
