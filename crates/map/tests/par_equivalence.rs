//! Cross-thread-count equivalence of the slot minimizer.
//!
//! [`MapExplorerEngine::minimize_slots`] searches serially on the engine's
//! own core; [`MapExplorerEngine::with_pool`] moves only the exact verifier
//! underneath onto a wider pool. The search must therefore be the same at
//! every width: the same partition — member for member, in canonical
//! first-fit order — after the same number of search nodes, with the same
//! tier and verifier counts. Fleets are drawn pseudo-randomly with
//! duplicated profiles, so the symmetry-broken branching is exercised too.

mod common;

use std::time::Duration;

use common::random_fleet;
use cps_map::{MapExplorerEngine, MinimizeReport, TierStats};
use proptest::prelude::*;

/// The deterministic counts of a report: its tier statistics without the
/// wall-clock time spent in the exact verifier.
fn counts(report: &MinimizeReport) -> TierStats {
    TierStats {
        exact_verify_time: Duration::ZERO,
        ..*report.tier_stats()
    }
}

proptest! {
    #[test]
    fn parallel_minimize_matches_serial_partition(seed in 0u64..1_000_000) {
        let fleet = random_fleet(seed, 53, 3, 6);
        let mut serial = MapExplorerEngine::new().with_pool(cps_par::Pool::serial());
        let reference = serial.minimize_slots(&fleet).unwrap();
        for threads in [2, 4, 8] {
            let pool = cps_par::Pool::with_threads(threads);
            if !pool.is_parallel_for(2) {
                continue; // feature "parallel" disabled
            }
            let mut engine = MapExplorerEngine::new().with_pool(pool);
            let report = engine.minimize_slots(&fleet).unwrap();
            prop_assert_eq!(report.slots(), reference.slots(), "threads={}", threads);
            prop_assert_eq!(report.nodes_explored(), reference.nodes_explored());
            prop_assert_eq!(report.first_fit_slots(), reference.first_fit_slots());
            prop_assert_eq!(counts(&report), counts(&reference), "threads={}", threads);
        }
    }
}
