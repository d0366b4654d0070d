//! Integration tests: the exact verifier's work on the published case-study
//! rows, pinned to the last state and probe.
//!
//! The counts below are `SlotVerifyEngine`'s outcome and every `VerifyStats`
//! field for three published-row models. Any change to the exploration order,
//! the symmetry canonicalisation, the dominance pruning, the incremental
//! hashing or the intern index moves at least one of them, so an optimisation
//! of the verifier that claims to cut only the cost per state must leave this
//! file untouched. Every model runs on the serial pool and on a two-thread
//! pool, which must agree bit for bit.
//!
//! The two unbounded pins count the dominance-pruned search: a successor is
//! skipped when an interned state with the same busy cells has every idle
//! cell at least as far along, and a queued state that a later state of
//! its own BFS level dominates is never expanded. An unpruned search
//! explores all 1,250,000 = 25·25·40·50 cooldown phase combinations of
//! `{C1,C5,C4,C3}` and pops 28,091 states of `{C1,C5,C4,C6}` before its
//! miss. The bounded pin prunes nothing: its instance counters differ, so
//! it has no idle cells.
//!
//! The rejected pin counts the lookahead search: it stops when it interns
//! the first state with a deadline miss one sample ahead, instead of
//! popping up to the expired state. The witness is the same either way.

use cps_apps::case_study;
use cps_core::AppTimingProfile;
use cps_verify::{
    validate_witness, SlotSharingModel, SlotVerifyEngine, VerificationConfig, VerifyStats,
};

fn published(names: &[&str]) -> SlotSharingModel {
    let apps = case_study::all_applications().unwrap();
    let profiles: Vec<AppTimingProfile> = names
        .iter()
        .map(|name| {
            let app = apps
                .iter()
                .find(|a| a.application().name() == *name)
                .unwrap();
            app.paper_row().to_profile(name).unwrap()
        })
        .collect();
    SlotSharingModel::new(profiles).unwrap()
}

/// Verifies `names` on a fresh engine at widths 1 and 2 and checks the
/// verdict, the explored count, the witness — its miss sample and failing
/// application, `None` for a schedulable model — and every work counter.
fn assert_work(
    names: &[&str],
    config: VerificationConfig,
    schedulable: bool,
    explored: usize,
    miss: Option<(usize, usize)>,
    expected: VerifyStats,
) {
    let model = published(names);
    for pool in [cps_par::Pool::serial(), cps_par::Pool::with_threads(2)] {
        let mut engine = SlotVerifyEngine::with_pool(pool);
        let outcome = engine.verify(&model, &config).unwrap();
        let width = pool.threads();
        assert_eq!(
            outcome.schedulable(),
            schedulable,
            "{names:?} width {width}"
        );
        assert_eq!(
            outcome.states_explored(),
            explored,
            "{names:?} width {width}"
        );
        assert_eq!(
            outcome
                .witness()
                .map(|w| (w.missed_at_sample(), w.failing_app())),
            miss,
            "{names:?} width {width}"
        );
        if let Some(witness) = outcome.witness() {
            validate_witness(&model, witness).unwrap();
        }
        assert_eq!(engine.stats(), expected, "{names:?} width {width}");
    }
}

#[test]
fn hardest_published_slot_explores_the_recorded_states() {
    assert_work(
        &["C1", "C5", "C4", "C3"],
        VerificationConfig::unbounded(),
        true,
        10_852,
        None,
        VerifyStats {
            intern_probes: 14_924,
            hash_hits: 1_698,
            hash_skips: 21_187,
            deep_compares: 9_075,
            rehashes: 3,
            rehashed_entries: 5_376,
            hash_slot_updates: 34_200,
            full_hash_words: 81_200,
        },
    );
}

#[test]
fn rejected_published_slot_misses_at_the_recorded_state() {
    assert_work(
        &["C1", "C5", "C4", "C6"],
        VerificationConfig::unbounded(),
        false,
        14_049,
        Some((14, 2)),
        VerifyStats {
            intern_probes: 19_042,
            hash_hits: 721,
            hash_skips: 32_344,
            deep_compares: 7_727,
            rehashes: 4,
            rehashed_entries: 11_520,
            hash_slot_updates: 50_360,
            full_hash_words: 122_248,
        },
    );
}

#[test]
fn bounded_second_slot_explores_the_recorded_states() {
    assert_work(
        &["C6", "C2"],
        VerificationConfig::bounded(2),
        true,
        40_401,
        None,
        VerifyStats {
            intern_probes: 41_210,
            hash_hits: 809,
            hash_skips: 91_294,
            deep_compares: 809,
            rehashes: 6,
            rehashed_entries: 48_384,
            hash_slot_updates: 81_202,
            full_hash_words: 179_188,
        },
    );
}
