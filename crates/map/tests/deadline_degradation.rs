//! Soundness of deadline-bounded admission under budget starvation.
//!
//! [`AdmissionState::add_app_within`] caps every exact verification at a
//! caller-chosen state budget and degrades onto the conservative
//! worst-case-blocking screen when the budget runs out. The properties
//! pinned here are the ones the whole degradation ladder rests on:
//!
//! 1. **Placed ⇒ bit-identical**: any placement the bounded path commits —
//!    exact or degraded — equals the from-scratch batch first-fit over the
//!    updated fleet. The degraded ladder never admits an application onto a
//!    slot the exact engine would refuse, because a conservative accept
//!    implies an exact accept.
//! 2. **Deferred ⇒ untouched**: a deferred arrival leaves the fleet and the
//!    partition exactly as they were, and the same arrival retried without a
//!    deadline lands in the batch-identical position.

mod common;

use common::random_pool;
use cps_map::{AdmissionState, DeadlineAdmit, MapExplorerEngine};
use proptest::prelude::*;
use proptest::TestRng;

/// Asserts the incremental partition equals a from-scratch batch rebuild of
/// the resident fleet.
fn assert_matches_batch(state: &AdmissionState) {
    let mut batch = MapExplorerEngine::new();
    let expected = batch.first_fit(state.fleet()).unwrap();
    prop_assert_eq!(
        state.report().slots(),
        expected.slots(),
        "bounded placement diverged from the batch rebuild"
    );
}

proptest! {
    #[test]
    fn bounded_placements_are_batch_identical_or_cleanly_deferred(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed.wrapping_add(307));
        let pool = random_pool(&mut rng);
        let distinct = pool.len();

        let mut state = AdmissionState::new();
        let ops = 6 + rng.next_below(5) as usize;
        let mut saw_deferral = false;
        for _ in 0..ops {
            let arriving = state.fleet().is_empty() || rng.next_below(3) != 0;
            if arriving {
                let p = pool[rng.next_below(distinct as u64) as usize].clone();
                // A starved budget most of the time, occasionally a
                // comfortable one, so both paths of the ladder are hit.
                let budget = match rng.next_below(3) {
                    0 => 1,
                    1 => 1 + rng.next_below(32) as usize,
                    _ => 1_000_000,
                };
                let fleet_before = state.fleet().len();
                let slots_before = state.report().slots().to_vec();
                match state.add_app_within(p.clone(), budget).unwrap() {
                    DeadlineAdmit::Placed { index, .. } => {
                        prop_assert_eq!(index, fleet_before);
                        assert_matches_batch(&state);
                    }
                    DeadlineAdmit::Deferred => {
                        saw_deferral = true;
                        prop_assert_eq!(state.fleet().len(), fleet_before);
                        prop_assert_eq!(state.report().slots(), slots_before.as_slice());
                        // The retry at leisure (no deadline) must land in the
                        // batch-identical position.
                        state.add_app(p).unwrap();
                        assert_matches_batch(&state);
                    }
                }
            } else {
                let victim = rng.next_below(state.fleet().len() as u64) as usize;
                state.remove_app(victim).unwrap();
                assert_matches_batch(&state);
            }
        }
        // Deferrals observed by the caller and counted by the cascade agree.
        prop_assert_eq!(saw_deferral, state.stats().deferred > 0);
    }
}
