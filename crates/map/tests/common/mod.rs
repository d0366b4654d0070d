//! Proptest fixtures shared by the `cps-map` integration tests.
//!
//! Every test file draws its models from the same generator, but from its
//! own seed offset, so each property keeps the models it always drew.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use cps_core::{AppTimingProfile, DwellTimeTable};
use proptest::TestRng;

/// A random-but-deterministic profile with a small state footprint: waits up
/// to 4 samples, per-wait varying dwells up to 5, inter-arrival up to ~25.
/// `J_T` is drawn to sometimes dominate the dwell arrays (opening the
/// baseline gate) and sometimes not (exercising the gate's rejection).
pub fn random_profile(rng: &mut TestRng, tag: usize) -> AppTimingProfile {
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

/// A pool of 1–3 distinct profile contents, so duplicates (and the memo and
/// symmetry machinery behind them) are always exercised.
pub fn random_pool(rng: &mut TestRng) -> Vec<AppTimingProfile> {
    let distinct = 1 + rng.next_below(3) as usize;
    (0..distinct).map(|i| random_profile(rng, i)).collect()
}

/// A fleet of `min_len..=max_len` applications drawn from a
/// [`random_pool`], covering duplicates in every adjacency pattern. The
/// generator starts at `seed + offset`.
pub fn random_fleet(
    seed: u64,
    offset: u64,
    min_len: usize,
    max_len: usize,
) -> Vec<AppTimingProfile> {
    let mut rng = TestRng::new(seed.wrapping_add(offset));
    let pool = random_pool(&mut rng);
    let n = min_len + rng.next_below((max_len - min_len + 1) as u64) as usize;
    (0..n)
        .map(|_| pool[rng.next_below(pool.len() as u64) as usize].clone())
        .collect()
}
