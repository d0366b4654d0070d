//! Cross-thread-count equivalence for the parallel co-simulation engine.
//!
//! [`BatchCosimEngine`] fans independent per-application checkpoint chains
//! across the pool and reduces in application order, so every pool width
//! must produce [`cps_sched::CosimResult`]s bitwise identical (IEEE-754
//! bits included) to the serial run — cold caches and warm.

use cps_control::{StateFeedback, StateSpace};
use cps_core::{AppTimingProfile, DwellTimeTable, SwitchedApplication};
use cps_sched::cosim::CosimApp;
use cps_sched::engine::assert_bitwise_equal;
use cps_sched::{scenarios, BatchCosimEngine};
use proptest::prelude::*;
use proptest::TestRng;

#[allow(clippy::too_many_arguments)]
fn make_app(
    name: &str,
    pole: f64,
    fast_gain: f64,
    period: f64,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    jstar: usize,
    r: usize,
) -> CosimApp {
    let plant = StateSpace::from_slices(&[&[pole]], &[0.1], &[1.0]).unwrap();
    let application = SwitchedApplication::builder(name)
        .plant(plant)
        .fast_gain(StateFeedback::from_slice(&[fast_gain]))
        .slow_gain(cps_linalg::Vector::from_slice(&[1.0, 0.2]))
        .sampling_period(period)
        .settling_threshold(0.02)
        .disturbance_state(cps_linalg::Vector::from_slice(&[1.0]))
        .build()
        .unwrap();
    let table = DwellTimeTable::from_arrays(
        jstar,
        vec![dwell_min; max_wait + 1],
        vec![dwell_plus; max_wait + 1],
    )
    .unwrap();
    let profile = AppTimingProfile::new(name, 1, jstar + 10, jstar, r, table).unwrap();
    CosimApp {
        application,
        profile,
        disturbance_sample: 0,
    }
}

fn random_apps(rng: &mut TestRng) -> Vec<CosimApp> {
    let app_count = 2 + rng.next_below(3) as usize;
    (0..app_count)
        .map(|i| {
            let pole = 0.6 + 0.35 * rng.next_f64();
            let fast_gain = 4.0 + 5.0 * rng.next_f64();
            let period = if rng.next_below(2) == 0 { 0.02 } else { 0.05 };
            let max_wait = rng.next_below(8) as usize;
            let dwell_min = 1 + rng.next_below(4) as usize;
            let dwell_plus = dwell_min + rng.next_below(4) as usize;
            let jstar = 5 + rng.next_below(12) as usize;
            let r = jstar + 1 + rng.next_below(20) as usize;
            make_app(
                &format!("r{i}"),
                pole,
                fast_gain,
                period,
                max_wait,
                dwell_min,
                dwell_plus,
                jstar,
                r,
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn parallel_cosim_is_bitwise_identical_across_thread_counts(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed.wrapping_add(71));
        let horizon = 50 + rng.next_below(60) as usize;
        let apps = random_apps(&mut rng);
        let profiles: Vec<AppTimingProfile> = apps.iter().map(|a| a.profile.clone()).collect();
        // A staggered scenario plus a recurrent storm through every engine:
        // both the single-window and the multi-window chains must reduce
        // identically.
        let t0s: Vec<usize> = apps
            .iter()
            .map(|_| rng.next_below(horizon as u64) as usize)
            .collect();
        let storm = scenarios::recurrent_storm(&profiles, horizon, 0..2)
            .into_iter()
            .next()
            .unwrap();
        let mut serial =
            BatchCosimEngine::new(apps.clone(), horizon).unwrap().with_pool(cps_par::Pool::serial());
        let serial_staggered = serial.run_staggered(&t0s).unwrap();
        let serial_storm = serial.run(&storm).unwrap();
        for threads in [2, 4, 8] {
            let pool = cps_par::Pool::with_threads(threads);
            if !pool.is_parallel_for(2) {
                continue; // feature "parallel" disabled
            }
            let mut engine = BatchCosimEngine::new(apps.clone(), horizon).unwrap().with_pool(pool);
            let cold = engine.run_staggered(&t0s).unwrap();
            assert_bitwise_equal(&format!("seed {seed} t={threads} cold"), &cold, &serial_staggered);
            let warm = engine.run_staggered(&t0s).unwrap();
            assert_bitwise_equal(&format!("seed {seed} t={threads} warm"), &warm, &serial_staggered);
            let storm_run = engine.run(&storm).unwrap();
            assert_bitwise_equal(&format!("seed {seed} t={threads} storm"), &storm_run, &serial_storm);
        }
    }
}
