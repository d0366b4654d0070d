//! The six distributed control applications `C1`–`C6` of the paper's Table 1.
//!
//! For every application the module records both the **inputs** (plant model,
//! `K_T`, `K_E`, requirement `J*`, minimum inter-arrival `r`) and the
//! **published results** (`J_T`, `J_E`, `T_w^*` and the dwell-time arrays) so
//! that the reproduction can be regression-checked against the paper.

use cps_control::{StateFeedback, StateSpace};
use cps_core::{dwell::DwellSearchOptions, AppTimingProfile, CoreError, SwitchedApplication};
use cps_linalg::Vector;

use crate::{SAMPLING_PERIOD, SETTLING_THRESHOLD};

/// The row of the paper's Table 1 for one application: the published timing
/// results, all in samples of `h = 0.02 s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperRow {
    /// Minimum disturbance inter-arrival time `r`.
    pub r: usize,
    /// Settling requirement `J*`.
    pub jstar: usize,
    /// Settling time with a dedicated TT slot.
    pub jt: usize,
    /// Settling time over the dynamic segment only.
    pub je: usize,
    /// Maximum admissible wait `T_w^*`.
    pub t_w_max: usize,
    /// Published `T_dw^-` array, indexed by the wait time.
    pub t_dw_min: Vec<usize>,
    /// Published `T_dw^+` array, indexed by the wait time.
    pub t_dw_plus: Vec<usize>,
}

impl PaperRow {
    /// Builds a timing profile directly from the published numbers (no
    /// simulation), useful when only the scheduling/verification layers are
    /// exercised.
    ///
    /// # Errors
    ///
    /// Propagates profile consistency failures (cannot occur for the
    /// published rows).
    pub fn to_profile(&self, name: &str) -> Result<AppTimingProfile, CoreError> {
        let table = cps_core::DwellTimeTable::from_arrays(
            self.jstar,
            self.t_dw_min.clone(),
            self.t_dw_plus.clone(),
        )?;
        AppTimingProfile::new(name, self.jt, self.je, self.jstar, self.r, table)
    }
}

/// One case-study application: the switched-control model plus the published
/// Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyApp {
    application: SwitchedApplication,
    paper_row: PaperRow,
}

impl CaseStudyApp {
    /// The switched-control application (plant, gains, settling band).
    pub fn application(&self) -> &SwitchedApplication {
        &self.application
    }

    /// The published Table 1 row for regression checking.
    pub fn paper_row(&self) -> &PaperRow {
        &self.paper_row
    }

    /// The settling requirement `J*` in samples.
    pub fn jstar(&self) -> usize {
        self.paper_row.jstar
    }

    /// Computes the application's timing profile (its own Table 1 row) from
    /// scratch by simulation, with explicit search options.
    ///
    /// # Errors
    ///
    /// Propagates dwell-table computation failures.
    pub fn profile_with(&self, options: DwellSearchOptions) -> Result<AppTimingProfile, CoreError> {
        AppTimingProfile::from_application(
            &self.application,
            self.paper_row.jstar,
            self.paper_row.r,
            options,
        )
    }

    /// Computes the timing profile with a single-threaded dwell search, for
    /// callers that already parallelize across applications.
    ///
    /// # Errors
    ///
    /// Propagates dwell-table computation failures.
    pub fn profile_single_threaded(
        &self,
        options: DwellSearchOptions,
    ) -> Result<AppTimingProfile, CoreError> {
        AppTimingProfile::from_application_with_threads(
            &self.application,
            self.paper_row.jstar,
            self.paper_row.r,
            options,
            1,
        )
    }

    /// Search options that comfortably cover the paper's case study while
    /// keeping the exhaustive dwell search fast (the published dwell times
    /// never exceed 11 samples and the slowest `J_E` is 50 samples).
    pub fn fast_search_options() -> DwellSearchOptions {
        DwellSearchOptions {
            horizon: 250,
            max_dwell: 25,
            max_wait: 60,
        }
    }
}

fn build_app(
    name: &str,
    phi: &[&[f64]],
    gamma: &[f64],
    c: &[f64],
    kt: &[f64],
    ke: &[f64],
) -> Result<SwitchedApplication, CoreError> {
    let plant = StateSpace::from_slices(phi, gamma, c)?;
    let n = plant.state_dim();
    SwitchedApplication::builder(name)
        .plant(plant)
        .fast_gain(StateFeedback::from_slice(kt))
        .slow_gain(Vector::from_slice(ke))
        .sampling_period(SAMPLING_PERIOD)
        .settling_threshold(SETTLING_THRESHOLD)
        .disturbance_state(Vector::unit(n, 0))
        .build()
}

/// `C1`: DC-motor position control (the motivational plant of Eq. 6 with the
/// switching-stable gain pair).
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c1() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C1",
            &[
                &[1.0, 0.0182, 0.0068],
                &[0.0, 0.7664, 0.5186],
                &[0.0, -0.3260, 0.1011],
            ],
            &[0.0015, 0.1944, 0.2717],
            &[1.0, 0.0, 0.0],
            &[30.0, 1.2626, 1.1071],
            &[13.8921, 0.5773, 0.8672, 1.0866],
        )?,
        paper_row: PaperRow {
            r: 25,
            jstar: 18,
            jt: 9,
            je: 35,
            t_w_max: 11,
            t_dw_min: vec![3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5],
            t_dw_plus: vec![6, 6, 5, 5, 5, 6, 5, 5, 4, 4, 5, 5],
        },
    })
}

/// `C2`: DC-motor position control (Messner & Tilbury tutorial model).
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c2() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C2",
            &[
                &[1.0, 0.0117, 0.0001],
                &[0.0, 0.3059, 0.0018],
                &[0.0, -0.0021, -1.2228e-5],
            ],
            &[0.2966, 24.8672, 0.0797],
            &[1.0, 0.0, 0.0],
            &[0.1198, -0.0130, -2.9588],
            &[0.0864, -0.0128, -1.6833, 0.4059],
        )?,
        paper_row: PaperRow {
            r: 100,
            jstar: 25,
            jt: 15,
            je: 50,
            t_w_max: 13,
            t_dw_min: vec![7, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 7, 8],
            t_dw_plus: vec![10, 10, 9, 10, 8, 9, 9, 10, 8, 8, 9, 8, 8, 8],
        },
    })
}

/// `C3`: DC-motor speed control (battery/aging-aware EV case study).
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c3() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C3",
            &[&[0.9900, 0.0065], &[-0.0974, 0.0177]],
            &[2.8097, 319.7919],
            &[1.0, 0.0],
            &[0.0500, -0.0002],
            &[0.0336, 0.0004, 0.4453],
        )?,
        paper_row: PaperRow {
            r: 50,
            jstar: 20,
            jt: 10,
            je: 31,
            t_w_max: 15,
            t_dw_min: vec![4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            t_dw_plus: vec![8, 8, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 4, 4, 4],
        },
    })
}

/// `C4`: DC-motor speed control (Messner & Tilbury tutorial model).
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c4() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C4",
            &[&[0.8187, 0.0178], &[-0.0004, 0.9608]],
            &[0.0004, 0.0392],
            &[1.0, 0.0],
            &[100.0, 15.6226],
            &[-77.8275, 24.3161, 1.0265],
        )?,
        paper_row: PaperRow {
            r: 40,
            jstar: 19,
            jt: 10,
            je: 31,
            t_w_max: 12,
            t_dw_min: vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
            t_dw_plus: vec![9, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 5],
        },
    })
}

/// `C5`: DC-motor speed control (FlexRay constraint-driven synthesis case
/// study).
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c5() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C5",
            &[&[0.8187, 0.0156], &[-0.0031, 0.7408]],
            &[0.0034, 0.3456],
            &[1.0, 0.0],
            &[10.0, 1.0524],
            &[-2.4223, 0.7014, 0.2950],
        )?,
        paper_row: PaperRow {
            r: 25,
            jstar: 18,
            jt: 10,
            je: 25,
            t_w_max: 12,
            t_dw_min: vec![4, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4],
            t_dw_plus: vec![9, 8, 7, 8, 7, 6, 7, 6, 5, 5, 4, 4, 4],
        },
    })
}

/// `C6`: cruise control (first-order plant).
///
/// The paper's Table 1 prints the state matrix as `−0.999`; the published
/// `J_T = 11` and `J_E = 41` are only consistent with `+0.999` (with `−0.999`
/// the printed `K_T` would destabilize the loop), so the sign is treated as a
/// typesetting artifact and `+0.999` is used here.
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn c6() -> Result<CaseStudyApp, CoreError> {
    Ok(CaseStudyApp {
        application: build_app(
            "C6",
            &[&[0.999]],
            &[1.999e-5],
            &[1.0],
            &[15000.0],
            &[8125.6, 0.8659],
        )?,
        paper_row: PaperRow {
            r: 100,
            jstar: 20,
            jt: 11,
            je: 41,
            t_w_max: 12,
            t_dw_min: vec![7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8],
            t_dw_plus: vec![11, 11, 10, 10, 10, 10, 9, 9, 9, 8, 8, 8, 8],
        },
    })
}

/// The published slot-S1 membership of the case study (§5, Fig. 8): the four
/// applications co-simulated on the first shared TT slot, in the paper's
/// grant order.
pub const SLOT1_MEMBERS: [&str; 4] = ["C1", "C5", "C4", "C3"];

/// The published slot-S2 membership of the case study (§5, Fig. 9).
pub const SLOT2_MEMBERS: [&str; 2] = ["C2", "C6"];

/// All six case-study applications, in the paper's order `C1..C6`.
///
/// # Errors
///
/// Propagates builder validation failures (cannot occur for the published
/// data).
pub fn all_applications() -> Result<Vec<CaseStudyApp>, CoreError> {
    Ok(vec![c1()?, c2()?, c3()?, c4()?, c5()?, c6()?])
}

/// Recomputes the timing profile of every case-study application (the
/// reproduction of the paper's Table 1), fanning the applications out across
/// the worker threads of [`cps_par::Pool::from_env`].
///
/// The profiles are returned in the paper's order `C1..C6` regardless of
/// which worker finishes first.
///
/// # Errors
///
/// Propagates dwell-table computation failures of any application.
pub fn all_profiles(options: DwellSearchOptions) -> Result<Vec<AppTimingProfile>, CoreError> {
    let apps = all_applications()?;
    let pool = cps_par::Pool::from_env();
    // Parallelism lives at the application level here; when the pool fans
    // the apps out, each worker runs the dwell search single-threaded to
    // avoid nested oversubscription. On a serial pool the dwell search
    // keeps its own thread policy instead.
    let fan_out = pool.is_parallel_for(apps.len());
    let results: Vec<Result<AppTimingProfile, CoreError>> = pool.map_indexed(apps.len(), |i| {
        if fan_out {
            apps[i].profile_single_threaded(options)
        } else {
            apps[i].profile_with(options)
        }
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::Mode;

    #[test]
    fn all_profiles_matches_per_app_computation() {
        let options = CaseStudyApp::fast_search_options();
        let fanned_out = all_profiles(options).unwrap();
        let apps = all_applications().unwrap();
        assert_eq!(fanned_out.len(), apps.len());
        for (profile, app) in fanned_out.iter().zip(apps.iter()) {
            assert_eq!(profile, &app.profile_with(options).unwrap());
            assert_eq!(profile.name(), app.application().name());
        }
    }

    #[test]
    fn slot_memberships_cover_all_applications_once() {
        let mut names: Vec<&str> = SLOT1_MEMBERS
            .iter()
            .chain(SLOT2_MEMBERS.iter())
            .copied()
            .collect();
        names.sort_unstable();
        assert_eq!(names, ["C1", "C2", "C3", "C4", "C5", "C6"]);
    }

    #[test]
    fn all_six_applications_build() {
        let apps = all_applications().unwrap();
        assert_eq!(apps.len(), 6);
        let names: Vec<&str> = apps.iter().map(|a| a.application().name()).collect();
        assert_eq!(names, ["C1", "C2", "C3", "C4", "C5", "C6"]);
    }

    #[test]
    fn paper_rows_are_internally_consistent() {
        for app in all_applications().unwrap() {
            let row = app.paper_row();
            assert!(row.jt < row.jstar, "{}", app.application().name());
            assert!(row.jstar < row.je, "{}", app.application().name());
            assert!(row.jstar < row.r, "{}", app.application().name());
            assert_eq!(row.t_dw_min.len(), row.t_w_max + 1);
            assert_eq!(row.t_dw_plus.len(), row.t_w_max + 1);
            for (min, plus) in row.t_dw_min.iter().zip(row.t_dw_plus.iter()) {
                assert!(min <= plus);
            }
        }
    }

    #[test]
    fn tt_gains_stabilize_and_et_gains_stabilize() {
        for app in all_applications().unwrap() {
            let a = app.application();
            assert!(
                cps_linalg::eigen::eigenvalues(a.tt_closed_loop())
                    .unwrap()
                    .is_schur_stable(),
                "{} TT loop unstable",
                a.name()
            );
            assert!(
                cps_linalg::eigen::eigenvalues(a.et_closed_loop())
                    .unwrap()
                    .is_schur_stable(),
                "{} ET loop unstable",
                a.name()
            );
        }
    }

    #[test]
    fn dedicated_slot_settling_matches_the_paper() {
        // J_T is reproduced exactly for C1, C2, C4, C5 and C6; C3 is one
        // sample off (the published C3 model appears to be rounded more
        // aggressively), so a one-sample tolerance is used there.
        for app in all_applications().unwrap() {
            let name = app.application().name().to_string();
            let jt = app
                .application()
                .settling_in_mode(Mode::TimeTriggered, 600)
                .unwrap();
            let paper = app.paper_row().jt;
            if name == "C3" {
                assert!(
                    (jt as i64 - paper as i64).abs() <= 1,
                    "{name}: computed J_T = {jt}, paper says {paper}"
                );
            } else {
                assert_eq!(jt, paper, "{name}: computed J_T = {jt}");
            }
        }
    }

    #[test]
    fn event_triggered_settling_is_close_to_the_paper() {
        // J_E is reproduced exactly except for C3 (two samples off); allow a
        // two-sample tolerance across the board.
        for app in all_applications().unwrap() {
            let je = app
                .application()
                .settling_in_mode(Mode::EventTriggered, 600)
                .unwrap();
            let paper = app.paper_row().je as i64;
            assert!(
                (je as i64 - paper).abs() <= 2,
                "{}: computed J_E = {je}, paper says {paper}",
                app.application().name()
            );
        }
    }

    #[test]
    fn exact_je_and_jt_for_the_majority_of_applications() {
        // At least five of the six applications reproduce both J_T and J_E
        // exactly — a stronger aggregate statement than the per-app tolerance.
        let mut exact = 0;
        for app in all_applications().unwrap() {
            let a = app.application();
            let jt = a.settling_in_mode(Mode::TimeTriggered, 600).unwrap();
            let je = a.settling_in_mode(Mode::EventTriggered, 600).unwrap();
            if jt == app.paper_row().jt && je == app.paper_row().je {
                exact += 1;
            }
        }
        assert!(exact >= 5, "only {exact} applications matched exactly");
    }

    #[test]
    fn maximum_wait_times_match_the_paper_exactly() {
        for app in all_applications().unwrap() {
            let profile = app
                .profile_with(CaseStudyApp::fast_search_options())
                .unwrap();
            assert_eq!(
                profile.max_wait(),
                app.paper_row().t_w_max,
                "{}: computed T_w^* = {}",
                app.application().name(),
                profile.max_wait()
            );
        }
    }

    #[test]
    fn dwell_time_arrays_match_the_paper_within_one_sample() {
        for app in all_applications().unwrap() {
            let profile = app
                .profile_with(CaseStudyApp::fast_search_options())
                .unwrap();
            let row = app.paper_row();
            let table = profile.dwell_table();
            for wait in 0..=row.t_w_max.min(table.max_wait()) {
                let min = table.t_dw_min(wait).unwrap() as i64;
                let plus = table.t_dw_plus(wait).unwrap() as i64;
                assert!(
                    (min - row.t_dw_min[wait] as i64).abs() <= 1,
                    "{} wait {wait}: T_dw^- {min} vs paper {}",
                    app.application().name(),
                    row.t_dw_min[wait]
                );
                assert!(
                    (plus - row.t_dw_plus[wait] as i64).abs() <= 1,
                    "{} wait {wait}: T_dw^+ {plus} vs paper {}",
                    app.application().name(),
                    row.t_dw_plus[wait]
                );
            }
        }
    }

    #[test]
    fn c1_and_c6_dwell_tables_match_the_paper_exactly() {
        for app in [c1().unwrap(), c6().unwrap()] {
            let profile = app
                .profile_with(CaseStudyApp::fast_search_options())
                .unwrap();
            let row = app.paper_row();
            assert_eq!(profile.dwell_table().t_dw_min_array(), &row.t_dw_min[..]);
            assert_eq!(profile.dwell_table().t_dw_plus_array(), &row.t_dw_plus[..]);
        }
    }
}
