//! Scheduler/plant co-simulation.
//!
//! Reproduces the paper's Figs. 8 and 9: a set of applications shares one TT
//! slot, a concrete disturbance scenario is scheduled with the switching
//! strategy, and the resulting per-application mode schedules drive the
//! switched closed-loop simulations. The result is the achieved settling
//! time of each application, next to the schedule that produced it.

use cps_core::{sequence, AppTimingProfile, SwitchedApplication};

use crate::{SchedError, ScheduleOutcome, SlotScheduler};

/// One application of a co-simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimApp {
    /// The switched-control application (plant, gains, settling band).
    pub application: SwitchedApplication,
    /// Its timing profile (dwell table, `T_w^*`, `r`).
    pub profile: AppTimingProfile,
    /// The sample at which its disturbance is sensed.
    pub disturbance_sample: usize,
}

/// A co-simulation scenario: several applications sharing one slot, each
/// disturbed once at a known sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimScenario {
    apps: Vec<CosimApp>,
    horizon: usize,
}

/// The result of a co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimResult {
    settling_samples: Vec<Option<usize>>,
    schedule: ScheduleOutcome,
    /// Per-application sampling periods: heterogeneous-period scenarios must
    /// convert each application's settling time with its *own* period (a
    /// single scenario-wide period silently mis-reported every application
    /// after the first).
    sampling_periods: Vec<f64>,
    /// Per-application settling requirements `J*` in samples, captured from
    /// the scenario's own profiles so requirement checks can never be fed a
    /// mismatched profile slice.
    requirements: Vec<usize>,
}

impl CosimResult {
    /// The settling time of each application in samples, measured from its
    /// disturbance; `None` when it did not settle within the horizon.
    pub fn settling_samples(&self) -> &[Option<usize>] {
        &self.settling_samples
    }

    /// The settling time of each application in seconds, converted with that
    /// application's own sampling period.
    pub fn settling_seconds(&self) -> Vec<Option<f64>> {
        self.settling_samples
            .iter()
            .zip(self.sampling_periods.iter())
            .map(|(s, h)| s.map(|s| s as f64 * h))
            .collect()
    }

    /// The underlying schedule (slot ownership, waits, grants).
    pub fn schedule(&self) -> &ScheduleOutcome {
        &self.schedule
    }

    /// Per-application settling requirements `J*` in samples, as captured
    /// from the scenario that produced this result.
    pub fn requirements(&self) -> &[usize] {
        &self.requirements
    }

    /// `true` when every application settled within its requirement `J*`.
    ///
    /// The requirements are the scenario's own profiles, captured when the
    /// result was produced — there is no caller-supplied profile slice to
    /// get out of sync (the old signature zipped against one and silently
    /// truncated on length mismatch).
    pub fn all_meet_requirements(&self) -> bool {
        self.settling_samples
            .iter()
            .zip(self.requirements.iter())
            .all(|(settling, jstar)| settling.map(|j| j <= *jstar).unwrap_or(false))
    }
}

impl CosimScenario {
    /// Creates a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidScenario`] when the scenario is empty, the
    /// horizon is zero, or a disturbance lies beyond the horizon.
    pub fn new(apps: Vec<CosimApp>, horizon: usize) -> Result<Self, SchedError> {
        if apps.is_empty() {
            return Err(SchedError::InvalidScenario {
                reason: "a co-simulation needs at least one application".to_string(),
            });
        }
        if horizon == 0 {
            return Err(SchedError::InvalidScenario {
                reason: "horizon must be at least one sample".to_string(),
            });
        }
        if let Some(app) = apps.iter().find(|a| a.disturbance_sample >= horizon) {
            return Err(SchedError::InvalidScenario {
                reason: format!(
                    "disturbance of `{}` at sample {} is beyond the horizon {horizon}",
                    app.application.name(),
                    app.disturbance_sample
                ),
            });
        }
        Ok(CosimScenario { apps, horizon })
    }

    /// The scenario's applications.
    pub fn apps(&self) -> &[CosimApp] {
        &self.apps
    }

    /// Runs the scheduler and the switched closed-loop simulations.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and simulation failures.
    pub fn run(&self) -> Result<CosimResult, SchedError> {
        let profiles: Vec<AppTimingProfile> = self.apps.iter().map(|a| a.profile.clone()).collect();
        let scheduler = SlotScheduler::new(profiles)?;
        let disturbances: Vec<Vec<usize>> = self
            .apps
            .iter()
            .map(|a| vec![a.disturbance_sample])
            .collect();
        let schedule = scheduler.schedule(&disturbances, self.horizon)?;

        let mut settling_samples = Vec::with_capacity(self.apps.len());
        for (index, app) in self.apps.iter().enumerate() {
            let t0 = app.disturbance_sample;
            let relative_horizon = self.horizon - t0;
            let tt_relative = schedule.traces()[index].tt_samples_relative_to(t0);
            let modes = sequence::modes_from_tt_samples(relative_horizon.max(1), &tt_relative)?;
            let trajectory = app.application.simulate_modes(&modes)?;
            let settling = app
                .application
                .settling()
                .settling_samples(trajectory.outputs());
            settling_samples.push(settling);
        }

        Ok(CosimResult {
            settling_samples,
            schedule,
            sampling_periods: self
                .apps
                .iter()
                .map(|a| a.application.sampling_period())
                .collect(),
            requirements: self.apps.iter().map(|a| a.profile.jstar()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::{StateFeedback, StateSpace};
    use cps_core::dwell::DwellSearchOptions;
    use cps_linalg::Vector;

    fn demo_application(name: &str) -> (SwitchedApplication, AppTimingProfile) {
        demo_application_with_period(name, 0.02)
    }

    fn demo_application_with_period(
        name: &str,
        period: f64,
    ) -> (SwitchedApplication, AppTimingProfile) {
        let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0]).unwrap();
        let app = SwitchedApplication::builder(name)
            .plant(plant)
            .fast_gain(StateFeedback::from_slice(&[8.0]))
            .slow_gain(Vector::from_slice(&[1.0, 0.2]))
            .sampling_period(period)
            .settling_threshold(0.02)
            .disturbance_state(Vector::from_slice(&[1.0]))
            .build()
            .unwrap();
        let profile = AppTimingProfile::from_application(
            &app,
            15,
            40,
            DwellSearchOptions {
                horizon: 200,
                max_dwell: 20,
                max_wait: 40,
            },
        )
        .unwrap();
        (app, profile)
    }

    fn scenario(disturbances: &[usize]) -> CosimScenario {
        let apps = disturbances
            .iter()
            .enumerate()
            .map(|(i, &t0)| {
                let (application, profile) = demo_application(&format!("app{i}"));
                CosimApp {
                    application,
                    profile,
                    disturbance_sample: t0,
                }
            })
            .collect();
        CosimScenario::new(apps, 120).unwrap()
    }

    #[test]
    fn single_application_meets_its_requirement() {
        let scenario = scenario(&[0]);
        let result = scenario.run().unwrap();
        assert!(result.all_meet_requirements());
        assert_eq!(result.requirements(), &[scenario.apps()[0].profile.jstar()]);
        assert!(result.settling_seconds()[0].unwrap() > 0.0);
    }

    #[test]
    fn heterogeneous_periods_convert_each_app_with_its_own_period() {
        // Same plant and schedule, but the second application samples 5x
        // slower; its settling seconds must scale with *its* period, not the
        // first application's.
        let apps = [0.02, 0.1]
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let (application, profile) = demo_application_with_period(&format!("app{i}"), h);
                CosimApp {
                    application,
                    profile,
                    disturbance_sample: 0,
                }
            })
            .collect();
        let result = CosimScenario::new(apps, 120).unwrap().run().unwrap();
        let samples = result.settling_samples();
        let seconds = result.settling_seconds();
        assert_eq!(seconds[0].unwrap(), samples[0].unwrap() as f64 * 0.02);
        assert_eq!(seconds[1].unwrap(), samples[1].unwrap() as f64 * 0.1);
    }

    #[test]
    fn simultaneous_disturbances_still_meet_requirements() {
        let scenario = scenario(&[0, 0]);
        let result = scenario.run().unwrap();
        assert!(result.all_meet_requirements());
        assert!(result.schedule().all_deadlines_met());
        // The slot is never double-booked: the TT sample sets are disjoint.
        let a = &result.schedule().traces()[0].tt_samples;
        let b = &result.schedule().traces()[1].tt_samples;
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn sharing_the_slot_costs_settling_time_but_stays_within_the_requirement() {
        let alone = scenario(&[0]).run().unwrap().settling_samples()[0].unwrap();
        let shared = scenario(&[0, 0]).run().unwrap();
        let slower = shared.settling_samples().iter().flatten().max().unwrap();
        assert!(*slower >= alone);
    }

    #[test]
    fn scenario_validation() {
        let (application, profile) = demo_application("a");
        assert!(CosimScenario::new(vec![], 100).is_err());
        let app = CosimApp {
            application,
            profile,
            disturbance_sample: 200,
        };
        assert!(CosimScenario::new(vec![app.clone()], 100).is_err());
        assert!(CosimScenario::new(vec![app], 0).is_err());
    }
}
