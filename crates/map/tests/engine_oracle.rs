//! Engine-vs-oracle equivalence for the mapping explorer.
//!
//! The cascade-equipped [`MapExplorerEngine`] must be *exact*: every
//! admission verdict, first-fit partition and minimal slot count must match
//! what the plain [`ModelCheckingOracle`] / naive reference search produce.
//! The properties below also pin the two lemmas the cascade's pruning rests
//! on — admission anti-monotonicity and the (gated) soundness of the
//! baseline accept tier — directly against the exact oracle, plus the
//! "single application per slot is admissible by construction" claim the
//! first-fit heuristic and the minimizer both rely on. Models are drawn
//! pseudo-randomly with small state footprints (via the offline proptest
//! stub's deterministic RNG) with duplicated profiles, so memoization and
//! symmetry breaking are exercised on every run.

mod common;

use common::{random_fleet, random_profile};
use cps_map::{first_fit, reference, MapExplorerEngine, ModelCheckingOracle, SlotOracle};
use proptest::prelude::*;
use proptest::TestRng;

/// This file's seed offset into the shared fleet generator.
const SEED_OFFSET: u64 = 17;

proptest! {
    #[test]
    fn cascade_first_fit_matches_plain_first_fit(seed in 0u64..1_000_000) {
        let fleet = random_fleet(seed, SEED_OFFSET, 1, 6);
        let plain = first_fit(&fleet, &ModelCheckingOracle::new()).unwrap();
        let mut engine = MapExplorerEngine::new();
        let cascade = engine.first_fit(&fleet).unwrap();
        prop_assert_eq!(cascade.slots(), plain.slots());
        let stats = cascade.tier_stats().unwrap();
        prop_assert_eq!(stats.queries, plain.oracle_calls());
        // A second pass over the same fleet must be answered entirely from
        // the memo (sweep reuse).
        let again = engine.first_fit(&fleet).unwrap();
        prop_assert_eq!(again.slots(), plain.slots());
        prop_assert_eq!(again.tier_stats().unwrap().exact_verifies, 0);
    }

    #[test]
    fn cascade_admission_matches_the_exact_oracle(seed in 0u64..1_000_000) {
        // Random member selections (including permuted arrangements): the
        // cascade's verdict must equal the exact oracle's on the identical
        // arrangement, and a baseline-tier accept must be sound.
        let fleet = random_fleet(seed.wrapping_mul(5), SEED_OFFSET, 2, 5);
        let mut rng = TestRng::new(seed.wrapping_add(41));
        let mut members: Vec<usize> = (0..fleet.len()).collect();
        // Fisher-Yates with the deterministic stub RNG.
        for i in (1..members.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            members.swap(i, j);
        }
        let k = 1 + rng.next_below(members.len() as u64) as usize;
        let members = &members[..k];

        let mut engine = MapExplorerEngine::new();
        let before = *engine.stats();
        let cascade_verdict = engine.admits(&fleet, members).unwrap();
        let delta = engine.stats().since(&before);

        let exact_verdict = ModelCheckingOracle::new().admits_indices(&fleet, members).unwrap();
        prop_assert_eq!(cascade_verdict, exact_verdict);
        if delta.baseline_accepts == 1 {
            // Baseline-accept soundness: the gated conservative accept never
            // admits more than the exact oracle.
            prop_assert!(exact_verdict);
        }
        if delta.quick_rejects == 1 {
            // Screen soundness: a quick reject is always an exact reject.
            prop_assert!(!exact_verdict);
        }
    }

    #[test]
    fn admission_is_anti_monotone(seed in 0u64..1_000_000) {
        // The lemma behind the cascade's pruning, validated against the
        // exact oracle itself: embedding an inadmissible selection into a
        // larger one (order preserved) keeps it inadmissible — equivalently,
        // every order-preserving sub-selection of an admissible selection is
        // admissible.
        let fleet = random_fleet(seed.wrapping_mul(7), SEED_OFFSET, 2, 4);
        let mut rng = TestRng::new(seed.wrapping_add(59));
        let full: Vec<usize> = (0..fleet.len()).collect();
        // A random order-preserving sub-selection.
        let sub: Vec<usize> = full
            .iter()
            .copied()
            .filter(|_| rng.next_below(2) == 0)
            .collect();
        if !sub.is_empty() && sub.len() < full.len() {
            let oracle = ModelCheckingOracle::new();
            let sub_admitted = oracle.admits_indices(&fleet, &sub).unwrap();
            let full_admitted = oracle.admits_indices(&fleet, &full).unwrap();
            prop_assert!(
                sub_admitted || !full_admitted,
                "sub-selection {:?} inadmissible but superset {:?} admissible",
                sub,
                full
            );
        }
    }

    #[test]
    fn minimize_slots_equals_reference_on_small_fleets(seed in 0u64..1_000_000) {
        let fleet = random_fleet(seed.wrapping_mul(11), SEED_OFFSET, 1, 5);
        let mut engine = MapExplorerEngine::new();
        let optimal = engine.minimize_slots(&fleet).unwrap();
        let oracle = ModelCheckingOracle::new();
        let expected = reference::minimize_slots(&fleet, &oracle).unwrap();
        prop_assert_eq!(optimal.slot_count(), expected.len());
        prop_assert!(optimal.slot_count() <= optimal.first_fit_slots());
        // Every multi-member slot of the engine's partition is feasible per
        // the exact oracle, and the partition covers the fleet exactly once.
        let mut seen: Vec<usize> = Vec::new();
        for slot in optimal.slots() {
            if slot.len() > 1 {
                prop_assert!(oracle.admits_indices(&fleet, slot).unwrap());
            }
            seen.extend_from_slice(slot);
        }
        seen.sort_unstable();
        let everyone: Vec<usize> = (0..fleet.len()).collect();
        prop_assert_eq!(seen, everyone);
    }

    #[test]
    fn bounded_memo_minimize_matches_unbounded_memo(seed in 0u64..1_000_000) {
        // (b) of the hash-soundness checklist: the bounded transposition
        // table behind tier 2 may evict verdicts, never change them. A
        // pathologically tiny table (one bucket, two entries — evicting on
        // nearly every insert) must still produce the exact partition the
        // unbounded hash-map memo produces, on the same fleet.
        let fleet = random_fleet(seed.wrapping_mul(13), SEED_OFFSET, 1, 5);
        let mut tiny = MapExplorerEngine::new().with_memo_capacity(1);
        let mut unbounded = MapExplorerEngine::new().with_unbounded_memo();
        let from_tiny = tiny.minimize_slots(&fleet).unwrap();
        let from_unbounded = unbounded.minimize_slots(&fleet).unwrap();
        prop_assert_eq!(from_tiny.slots(), from_unbounded.slots());
        prop_assert_eq!(from_tiny.slot_count(), from_unbounded.slot_count());
        prop_assert_eq!(unbounded.stats().tt_evictions, 0);
        // First-fit through both memos agrees too.
        let ff_tiny = tiny.first_fit(&fleet).unwrap();
        let ff_unbounded = unbounded.first_fit(&fleet).unwrap();
        prop_assert_eq!(ff_tiny.slots(), ff_unbounded.slots());
    }

    #[test]
    fn single_application_per_slot_is_admissible_by_construction(seed in 0u64..1_000_000) {
        // The claim `first_fit` relies on when opening a new slot without an
        // oracle call: alone in a slot, an application is granted in the
        // same sample it is disturbed, so it can never miss.
        let mut rng = TestRng::new(seed.wrapping_add(83));
        let profile = random_profile(&mut rng, 0);
        let oracle = ModelCheckingOracle::new();
        prop_assert!(oracle
            .admits_indices(std::slice::from_ref(&profile), &[0])
            .unwrap());
    }
}
