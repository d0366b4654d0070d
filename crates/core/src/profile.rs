//! The per-application timing abstraction handed to the scheduler, the
//! verifier and the mapping heuristic.

use crate::{dwell, CoreError, DwellTimeTable, SwitchedApplication};

/// Everything the slot arbiter and the model checker need to know about an
/// application, expressed purely in sample counts (the paper's Table 1 row):
///
/// * `J_T` / `J_E` — settling time with a dedicated TT slot / pure ET,
/// * `J*` — the settling requirement,
/// * `r` — minimum disturbance inter-arrival time,
/// * `T_w^*`, `T_dw^-(·)`, `T_dw^+(·)` — the dwell-time table.
///
/// Profiles deliberately contain **no plant dynamics**: they are the timing
/// abstraction the paper feeds into its timed-automata model.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, SwitchedApplication, dwell::DwellSearchOptions};
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
/// let profile = AppTimingProfile::from_application(&app, 15, 60, DwellSearchOptions::default())?;
/// assert!(profile.jt() <= profile.jstar());
/// assert!(profile.jstar() < profile.je());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppTimingProfile {
    name: String,
    jt: usize,
    je: usize,
    jstar: usize,
    min_inter_arrival: usize,
    table: DwellTimeTable,
}

impl AppTimingProfile {
    /// Builds a profile directly from its constituent quantities.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the quantities are
    /// mutually inconsistent (`J_T > J*`, `r ≤ J*`, or an empty dwell table).
    pub fn new(
        name: impl Into<String>,
        jt: usize,
        je: usize,
        jstar: usize,
        min_inter_arrival: usize,
        table: DwellTimeTable,
    ) -> Result<Self, CoreError> {
        if jt > jstar {
            return Err(CoreError::InvalidParameter {
                reason: format!("J_T ({jt}) exceeds the requirement J* ({jstar})"),
            });
        }
        if min_inter_arrival <= jstar {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "minimum inter-arrival r ({min_inter_arrival}) must exceed J* ({jstar})"
                ),
            });
        }
        Ok(AppTimingProfile {
            name: name.into(),
            jt,
            je,
            jstar,
            min_inter_arrival,
            table,
        })
    }

    /// Computes the full profile of a [`SwitchedApplication`] by simulating
    /// its pure-mode settling times and its dwell-time table.
    ///
    /// `jstar` and `min_inter_arrival` are given in samples.
    ///
    /// # Errors
    ///
    /// Propagates the error conditions of
    /// [`dwell::compute_dwell_table`] and the profile consistency checks of
    /// [`AppTimingProfile::new`].
    pub fn from_application(
        app: &SwitchedApplication,
        jstar: usize,
        min_inter_arrival: usize,
        options: dwell::DwellSearchOptions,
    ) -> Result<Self, CoreError> {
        Self::from_application_with_threads(
            app,
            jstar,
            min_inter_arrival,
            options,
            crate::engine::DwellEngine::default_threads(),
        )
    }

    /// [`AppTimingProfile::from_application`] with an explicit worker-thread
    /// count for the dwell search — pass `1` when the caller already fans
    /// applications out across threads, to avoid nested oversubscription.
    ///
    /// # Errors
    ///
    /// As for [`AppTimingProfile::from_application`].
    pub fn from_application_with_threads(
        app: &SwitchedApplication,
        jstar: usize,
        min_inter_arrival: usize,
        options: dwell::DwellSearchOptions,
        threads: usize,
    ) -> Result<Self, CoreError> {
        // The table computation's sanity checks already measure J_T and J_E
        // through the engine; reuse them instead of re-simulating.
        let detail = dwell::compute_dwell_table_detailed(
            app,
            jstar,
            options,
            threads,
            crate::kernel::BackendChoice::Auto,
        )?;
        AppTimingProfile::new(
            app.name(),
            detail.jt,
            detail.je,
            jstar,
            min_inter_arrival,
            detail.table,
        )
    }

    /// The application's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Settling time (samples) with a dedicated TT slot.
    pub fn jt(&self) -> usize {
        self.jt
    }

    /// Settling time (samples) over the event-triggered segment only.
    pub fn je(&self) -> usize {
        self.je
    }

    /// The settling requirement `J*` in samples.
    pub fn jstar(&self) -> usize {
        self.jstar
    }

    /// Minimum disturbance inter-arrival time `r` in samples.
    pub fn min_inter_arrival(&self) -> usize {
        self.min_inter_arrival
    }

    /// The dwell-time table.
    pub fn dwell_table(&self) -> &DwellTimeTable {
        &self.table
    }

    /// The maximum admissible wait `T_w^*` in samples.
    pub fn max_wait(&self) -> usize {
        self.table.max_wait()
    }

    /// Minimum dwell `T_dw^-(wait)`, or `None` when `wait > T_w^*`.
    pub fn t_dw_min(&self, wait: usize) -> Option<usize> {
        self.table.t_dw_min(wait)
    }

    /// Maximum useful dwell `T_dw^+(wait)`, or `None` when `wait > T_w^*`.
    pub fn t_dw_plus(&self, wait: usize) -> Option<usize> {
        self.table.t_dw_plus(wait)
    }

    /// The largest minimum dwell over all waits, `T_dw^{-*}` — the paper's
    /// tie-breaker when sorting applications for first-fit mapping.
    pub fn max_t_dw_min(&self) -> usize {
        self.table.max_t_dw_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwell::DwellSearchOptions;
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

    fn demo_profile() -> AppTimingProfile {
        AppTimingProfile::from_application(&demo_app(), 15, 60, DwellSearchOptions::default())
            .unwrap()
    }

    #[test]
    fn profile_orders_settling_times_correctly() {
        let profile = demo_profile();
        assert!(profile.jt() <= profile.jstar());
        assert!(profile.jstar() < profile.je());
        assert_eq!(profile.name(), "demo");
        assert_eq!(profile.min_inter_arrival(), 60);
    }

    #[test]
    fn profile_validates_consistency() {
        let table = demo_profile().dwell_table().clone();
        // J_T larger than J* is rejected.
        assert!(AppTimingProfile::new("x", 40, 50, 30, 60, table.clone()).is_err());
        // r not exceeding J* is rejected.
        assert!(AppTimingProfile::new("x", 10, 50, 30, 30, table.clone()).is_err());
        assert!(AppTimingProfile::new("x", 10, 50, 30, 60, table).is_ok());
    }

    #[test]
    fn dwell_lookups_delegate_to_table() {
        let profile = demo_profile();
        for wait in 0..=profile.max_wait() {
            assert_eq!(profile.t_dw_min(wait), profile.dwell_table().t_dw_min(wait));
            assert_eq!(
                profile.t_dw_plus(wait),
                profile.dwell_table().t_dw_plus(wait)
            );
        }
        assert_eq!(profile.t_dw_min(profile.max_wait() + 1), None);
    }

    #[test]
    fn max_t_dw_min_is_the_array_maximum() {
        let profile = demo_profile();
        let expected = (0..=profile.max_wait())
            .map(|w| profile.t_dw_min(w).unwrap())
            .max()
            .unwrap();
        assert_eq!(profile.max_t_dw_min(), expected);
    }
}
