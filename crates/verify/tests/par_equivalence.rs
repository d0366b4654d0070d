//! Cross-thread-count equivalence for the parallel verification engine.
//!
//! The sharded BFS behind [`SlotVerifyEngine`] promises results **bitwise
//! identical** to the serial exploration for every pool width: verdicts,
//! explored-state counts, witnesses (including the exact trace events), and
//! the engine's [`cps_verify::VerifyStats`] counters. Models are drawn
//! pseudo-randomly (via the offline proptest stub's deterministic RNG) and
//! include budget-bounded configurations so the parallel path reproduces
//! budget exhaustion at the same popped state as the serial path. The random
//! models stage every span on one thread; one fixed bounded model queues
//! more than a staging chunk at a time, so wider pools split its spans
//! across workers.

use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_verify::{validate_witness, SlotSharingModel, SlotVerifyEngine, VerificationConfig};
use proptest::prelude::*;
use proptest::TestRng;

fn profile(
    name: &str,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    r: usize,
) -> AppTimingProfile {
    let len = max_wait + 1;
    let jstar = max_wait + dwell_plus + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len]).unwrap();
    AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
}

fn random_profile(rng: &mut TestRng, tag: usize) -> AppTimingProfile {
    let max_wait = rng.next_below(5) as usize;
    let dwell_min = 1 + rng.next_below(3) as usize;
    let dwell_plus = dwell_min + rng.next_below(3) as usize;
    let jstar = max_wait + dwell_plus + 1;
    let r = jstar + 1 + rng.next_below(10) as usize;
    profile(&format!("P{tag}"), max_wait, dwell_min, dwell_plus, r)
}

/// 1–3 applications from a pool of 1–2 distinct profiles: duplicates in
/// every adjacency pattern, plus fully asymmetric line-ups.
fn random_model(seed: u64) -> SlotSharingModel {
    let mut rng = TestRng::new(seed.wrapping_add(43));
    let distinct = 1 + rng.next_below(2) as usize;
    let pool: Vec<AppTimingProfile> = (0..distinct).map(|i| random_profile(&mut rng, i)).collect();
    let n = 1 + rng.next_below(3) as usize;
    let profiles: Vec<AppTimingProfile> = (0..n)
        .map(|_| pool[rng.next_below(distinct as u64) as usize].clone())
        .collect();
    SlotSharingModel::new(profiles).unwrap()
}

/// Verifies `model` under each config on the serial pool and at widths 2, 4
/// and 8, and asserts equal outcomes, valid witnesses and equal stats.
fn assert_width_independent(model: &SlotSharingModel, configs: &[VerificationConfig]) {
    for config in configs {
        let mut serial = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
        let reference = serial.verify(model, config);
        for threads in [2, 4, 8] {
            let pool = cps_par::Pool::with_threads(threads);
            let mut engine = SlotVerifyEngine::with_pool(pool);
            let outcome = engine.verify(model, config);
            match (&reference, &outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "threads={threads}");
                    if let Some(witness) = b.witness() {
                        validate_witness(model, witness).unwrap();
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "threads={threads}");
                }
                _ => panic!(
                    "threads={threads}: serial {:?} vs parallel {:?}",
                    reference.is_ok(),
                    outcome.is_ok()
                ),
            }
            assert_eq!(serial.stats(), engine.stats(), "stats, threads={threads}");
        }
    }
}

proptest! {
    #[test]
    fn parallel_verify_is_bitwise_identical_across_thread_counts(seed in 0u64..1_000_000) {
        let model = random_model(seed);
        // A tight budget derived from the serial explored count exercises
        // the budget-exhaustion path on roughly half the cases.
        let mut probe = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
        let explored = probe
            .verify(&model, &VerificationConfig::unbounded())
            .unwrap()
            .states_explored();
        let configs = [
            VerificationConfig::unbounded(),
            VerificationConfig::bounded(2),
            VerificationConfig {
                state_budget: (explored / 2).max(1),
                ..VerificationConfig::default()
            },
        ];
        assert_width_independent(&model, &configs);
    }
}

/// The random models above are small enough that every span of queued
/// states fits in one staging chunk, so the engine stages them on the
/// calling thread at every width. This bounded model queues more than a
/// chunk at a time, so wider pools split those spans across workers; the
/// second run exhausts its budget halfway through.
#[test]
fn spans_wider_than_a_chunk_stage_on_workers_with_serial_results() {
    let model = SlotSharingModel::new(vec![
        profile("A", 4, 2, 4, 20),
        profile("B", 3, 1, 3, 18),
        profile("C", 2, 2, 3, 16),
    ])
    .unwrap();
    let bounded = VerificationConfig::bounded(2);
    let explored = SlotVerifyEngine::with_pool(cps_par::Pool::serial())
        .verify(&model, &bounded)
        .unwrap()
        .states_explored();
    assert_eq!(explored, 50_061, "the model must stay wider than a chunk");
    let budgeted = VerificationConfig {
        state_budget: explored / 2,
        ..bounded
    };
    assert_width_independent(&model, &[bounded, budgeted]);
}
