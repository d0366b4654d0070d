//! Oracle-equivalence tests: the prefix-sharing dwell engine must reproduce
//! the naive exhaustive search **exactly** — the same `Option<usize>` in
//! every settling cell — on the paper's case study and on randomized plants.

use cps_apps::case_study;
use cps_control::{Settling, StateFeedback, StateSpace};
use cps_core::dwell::{self, reference, DwellSearchOptions};
use cps_core::engine::DwellEngine;
use cps_core::{BackendChoice, CoreError, Mode, SwitchedApplication};
use cps_linalg::{eigen, Matrix, Vector};

#[test]
fn case_study_dwell_tables_match_reference_exactly() {
    let options = DwellSearchOptions {
        horizon: 200,
        max_dwell: 15,
        max_wait: 30,
    };
    for app in case_study::all_applications().unwrap() {
        let a = app.application();
        let fast = dwell::compute_dwell_table(a, app.jstar(), options).unwrap();
        let naive = reference::compute_dwell_table(a, app.jstar(), options).unwrap();
        assert_eq!(
            fast,
            naive,
            "{}: dwell table diverges from oracle",
            a.name()
        );
        // Both linalg backends, pinned: the dyn and static kernels must give
        // the oracle's table bit for bit on every paper plant.
        for backend in [BackendChoice::ForceDyn, BackendChoice::ForceStatic] {
            let forced =
                dwell::compute_dwell_table_with_backend(a, app.jstar(), options, backend).unwrap();
            assert_eq!(
                forced,
                naive,
                "{}: {backend:?} dwell table diverges from oracle",
                a.name()
            );
        }
    }
}

#[test]
fn a_loop_that_diverges_to_nan_never_counts_as_settled() {
    assert_eq!(Settling::new(0.02).settling_samples(&[1.0, f64::NAN]), None);
    // The event-triggered loop applies no feedback to an unstable plant
    // (x ← 4x), so its output overflows to infinity and then turns NaN
    // (0 · ∞) around sample 512. The time-triggered loop is stable.
    let plant = StateSpace::from_slices(&[&[4.0]], &[0.1], &[1.0]).unwrap();
    let app = SwitchedApplication::builder("diverging")
        .plant(plant)
        .fast_gain(StateFeedback::from_slice(&[39.0]))
        .slow_gain(Vector::from_slice(&[0.0, 0.0]))
        .sampling_period(0.02)
        .settling_threshold(0.02)
        .disturbance_state(Vector::from_slice(&[1.0]))
        .build()
        .unwrap();
    let options = DwellSearchOptions::default();
    let horizon = options.horizon;
    let trajectory = app
        .simulate_modes(&vec![Mode::EventTriggered; horizon])
        .unwrap();
    assert!(trajectory.outputs().last().unwrap().is_nan());
    assert!(matches!(
        app.settling_in_mode(Mode::EventTriggered, horizon),
        Err(CoreError::DidNotSettle { .. })
    ));
    let engine = DwellEngine::new(&app);
    assert_eq!(
        engine.pure_mode_settling(Mode::EventTriggered, horizon),
        None
    );
    let did_not_settle = CoreError::DidNotSettle { horizon };
    assert_eq!(
        dwell::compute_dwell_table(&app, 20, options).unwrap_err(),
        did_not_settle
    );
    assert_eq!(
        reference::compute_dwell_table(&app, 20, options).unwrap_err(),
        did_not_settle
    );
}

#[test]
fn case_study_engines_auto_dispatch_to_static_kernels() {
    // Every case-study plant's augmented dimension is inside the static
    // menu, so the default dispatch must never fall back to the heap kernels.
    for app in case_study::all_applications().unwrap() {
        let a = app.application();
        let dim = a.mode_matrix(Mode::EventTriggered).rows();
        assert_eq!(
            DwellEngine::new(a).backend_name(),
            format!("static<{dim}>"),
            "{}: automatic dispatch missed the static kernel",
            a.name()
        );
    }
}

#[test]
fn case_study_settling_surfaces_match_reference_exactly() {
    for app in case_study::all_applications().unwrap() {
        let a = app.application();
        let fast = dwell::settling_surface(a, 15, 10, 150).unwrap();
        let naive = reference::settling_surface(a, 15, 10, 150).unwrap();
        assert_eq!(fast, naive, "{}: surface diverges from oracle", a.name());
    }
}

#[test]
fn c1_table_and_surface_agree_with_the_oracle() {
    let app = case_study::c1().unwrap();
    let a = app.application();
    let options = DwellSearchOptions {
        horizon: 180,
        max_dwell: 12,
        max_wait: 24,
    };
    let naive = reference::compute_dwell_table(a, app.jstar(), options).unwrap();
    let fast = dwell::compute_dwell_table(a, app.jstar(), options).unwrap();
    assert_eq!(fast, naive, "table diverges from oracle");
    let fast_surface = dwell::settling_surface(a, 20, 10, 180).unwrap();
    let naive_surface = reference::settling_surface(a, 20, 10, 180).unwrap();
    assert_eq!(fast_surface, naive_surface, "surface diverges from oracle");
}

/// Deterministic xorshift generator for the randomized-plant sweep.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    fn symmetric(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// Draws a random stable 2-state SISO plant with a random gain pair, or
/// `None` when the draw does not yield Schur-stable closed loops.
fn random_application(rng: &mut Lcg, index: usize) -> Option<SwitchedApplication> {
    // Random 2x2 state matrix scaled to spectral radius <= 0.9.
    let mut phi = Matrix::from_vec(
        2,
        2,
        vec![
            rng.symmetric(),
            rng.symmetric(),
            rng.symmetric(),
            rng.symmetric(),
        ],
    )
    .unwrap();
    let rho = eigen::spectral_radius(&phi).ok()?;
    if rho >= 0.9 {
        phi = phi.scale(0.85 / (rho + 1e-9));
    }
    // Input vector bounded away from zero so the gains act on the plant.
    let gamma: Vec<f64> = (0..2)
        .map(|_| {
            let g = rng.symmetric();
            g + 0.2 * g.signum()
        })
        .collect();
    let phi_rows: Vec<Vec<f64>> = (0..2).map(|i| vec![phi[(i, 0)], phi[(i, 1)]]).collect();
    let plant =
        StateSpace::from_slices(&[&phi_rows[0][..], &phi_rows[1][..]], &gamma, &[1.0, 0.0]).ok()?;
    let kt = [0.4 * rng.symmetric(), 0.4 * rng.symmetric()];
    let ke = [
        0.3 * rng.symmetric(),
        0.3 * rng.symmetric(),
        0.3 * rng.symmetric(),
    ];
    let app = SwitchedApplication::builder(format!("rand{index}"))
        .plant(plant)
        .fast_gain(StateFeedback::from_slice(&kt))
        .slow_gain(Vector::from_slice(&ke))
        .sampling_period(0.02)
        .settling_threshold(0.02)
        .disturbance_state(Vector::from_slice(&[1.0, 0.0]))
        .build()
        .ok()?;
    // Both closed loops must be Schur stable for the search to be meaningful.
    let tt_stable = eigen::eigenvalues(app.tt_closed_loop())
        .ok()?
        .is_schur_stable();
    let et_stable = eigen::eigenvalues(app.et_closed_loop())
        .ok()?
        .is_schur_stable();
    (tt_stable && et_stable).then_some(app)
}

#[test]
fn randomized_stable_plants_match_reference_exactly() {
    let mut rng = Lcg(0x5EED_CAFE_F00D_D00D);
    let mut accepted = 0;
    let mut settled_cells = 0;
    let mut draws = 0;
    while accepted < 15 {
        draws += 1;
        assert!(draws < 500, "random plant generation failed to converge");
        let Some(app) = random_application(&mut rng, draws) else {
            continue;
        };
        accepted += 1;
        let fast = dwell::settling_surface(&app, 8, 8, 120).unwrap();
        let naive = reference::settling_surface(&app, 8, 8, 120).unwrap();
        assert_eq!(fast, naive, "{}: surface diverges from oracle", draws);
        settled_cells += fast.iter().count();
    }
    // The sweep must actually exercise settled schedules, not just
    // all-`None` surfaces.
    assert!(
        settled_cells > 100,
        "only {settled_cells} settled cells across the sweep"
    );
}
