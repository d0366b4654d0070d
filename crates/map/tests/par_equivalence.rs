//! Cross-thread-count equivalence for the parallel slot minimizer.
//!
//! [`MapExplorerEngine::minimize_slots`] promises the *same partition* —
//! member for member, in canonical first-fit order — for every pool width:
//! the parallel branch and bound expands DFS-ranked subtrees on private
//! cores, prunes through a rank-guarded shared incumbent, and reduces in
//! rank order, which reproduces the serial DFS-first minimum exactly.
//! Fleets are drawn pseudo-randomly with duplicated profiles so the
//! symmetry-broken branching is exercised in the subtree expansion too.

use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::MapExplorerEngine;
use proptest::prelude::*;
use proptest::TestRng;

fn random_profile(rng: &mut TestRng, tag: usize) -> AppTimingProfile {
    let max_wait = rng.next_below(5) as usize;
    let len = max_wait + 1;
    let base = 1 + rng.next_below(3) as usize;
    let t_dw_min: Vec<usize> = (0..len)
        .map(|_| base + rng.next_below(2) as usize)
        .collect();
    let t_dw_plus: Vec<usize> = t_dw_min
        .iter()
        .map(|&m| m + rng.next_below(2) as usize)
        .collect();
    let max_plus = t_dw_plus.iter().copied().max().unwrap();
    let jstar = max_wait + max_plus + 1;
    let jt = if rng.next_below(2) == 0 {
        max_plus.min(jstar)
    } else {
        1
    };
    let r = jstar + 1 + rng.next_below(12) as usize;
    let table = DwellTimeTable::from_arrays(jstar, t_dw_min, t_dw_plus).unwrap();
    AppTimingProfile::new(format!("P{tag}"), jt, jstar + 10, jstar, r, table).unwrap()
}

fn random_fleet(seed: u64, min_len: usize, max_len: usize) -> Vec<AppTimingProfile> {
    let mut rng = TestRng::new(seed.wrapping_add(53));
    let distinct = 1 + rng.next_below(3) as usize;
    let pool: Vec<AppTimingProfile> = (0..distinct).map(|i| random_profile(&mut rng, i)).collect();
    let n = min_len + rng.next_below((max_len - min_len + 1) as u64) as usize;
    (0..n)
        .map(|_| pool[rng.next_below(distinct as u64) as usize].clone())
        .collect()
}

proptest! {
    #[test]
    fn parallel_minimize_matches_serial_partition(seed in 0u64..1_000_000) {
        let fleet = random_fleet(seed, 3, 6);
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
            prop_assert_eq!(report.slot_count(), reference.slot_count());
            prop_assert_eq!(report.first_fit_slots(), reference.first_fit_slots());
        }
    }
}
