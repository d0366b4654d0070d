//! Incremental-vs-batch equivalence for the online admission state.
//!
//! [`AdmissionState`] repairs its partition in place after every arrival and
//! departure; the property pinned here is that the repaired partition is
//! *bit-identical* to a from-scratch [`MapExplorerEngine`] first-fit rebuild
//! over the same resident fleet, after **every** operation of an arbitrary
//! add/remove sequence — the invariant the whole incremental design rests
//! on. The snapshot property additionally pins warm starts: saving the
//! caches mid-sequence, restoring into a fresh state, re-admitting the fleet
//! and continuing the sequence must reproduce the original run partition for
//! partition, without the restored state ever touching the exact verifier
//! for a query the saved state had already answered.

mod common;

use common::random_pool;
use cps_core::AppTimingProfile;
use cps_map::{AdmissionState, MapExplorerEngine};
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
        "incremental partition diverged from the batch rebuild"
    );
}

proptest! {
    #[test]
    fn arbitrary_add_remove_sequences_match_batch_rebuilds(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed.wrapping_add(101));
        let pool = random_pool(&mut rng);
        let distinct = pool.len();

        let mut state = AdmissionState::new();
        let ops = 6 + rng.next_below(5) as usize;
        for _ in 0..ops {
            let arriving = state.fleet().is_empty() || rng.next_below(3) != 0;
            if arriving {
                let p = pool[rng.next_below(distinct as u64) as usize].clone();
                state.add_app(p).unwrap();
            } else {
                let victim = rng.next_below(state.fleet().len() as u64) as usize;
                state.remove_app(victim).unwrap();
            }
            assert_matches_batch(&state);
        }
        // The final partition covers the resident fleet exactly once.
        let mut placed: Vec<usize> = state.report().slots().iter().flatten().copied().collect();
        placed.sort_unstable();
        let everyone: Vec<usize> = (0..state.fleet().len()).collect();
        prop_assert_eq!(placed, everyone);
    }

    #[test]
    fn snapshot_mid_sequence_warm_starts_bit_identically(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed.wrapping_add(211));
        let pool = random_pool(&mut rng);
        let distinct = pool.len();

        // Phase 1: build up a fleet.
        let mut state = AdmissionState::new();
        let initial = 2 + rng.next_below(4) as usize;
        for _ in 0..initial {
            let p = pool[rng.next_below(distinct as u64) as usize].clone();
            state.add_app(p).unwrap();
        }

        // Snapshot, restore, re-admit the same fleet: the warm caches must
        // answer everything — zero exact verifications — and reproduce the
        // partition exactly.
        let fleet: Vec<AppTimingProfile> = state.fleet().to_vec();
        let mut warm = AdmissionState::from_snapshot(&state.snapshot()).unwrap();
        for p in &fleet {
            warm.add_app(p.clone()).unwrap();
        }
        prop_assert_eq!(warm.report().slots(), state.report().slots());
        prop_assert_eq!(
            warm.stats().exact_verifies,
            0,
            "warm-start replay must be answered from the restored caches"
        );

        // Phase 2: continue the same operation sequence on both states; they
        // must stay in lockstep (and with the batch rebuild) throughout.
        let ops = 3 + rng.next_below(4) as usize;
        for _ in 0..ops {
            let arriving = state.fleet().is_empty() || rng.next_below(3) != 0;
            if arriving {
                let p = pool[rng.next_below(distinct as u64) as usize].clone();
                state.add_app(p.clone()).unwrap();
                warm.add_app(p).unwrap();
            } else {
                let victim = rng.next_below(state.fleet().len() as u64) as usize;
                state.remove_app(victim).unwrap();
                warm.remove_app(victim).unwrap();
            }
            prop_assert_eq!(warm.report().slots(), state.report().slots());
            assert_matches_batch(&state);
        }
    }
}
