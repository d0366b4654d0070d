//! Integration test: the exact verifier's falsifying entry point.
//!
//! `SlotVerifyEngine::falsify_selected` runs the exhaustive search of
//! `verify_selected`, and once that search has popped its first 2,048
//! states it also runs seeded random disturbance walks that may end it
//! early as a reject. The cases below all include searches that outlive
//! that first chunk, so walks run: the four-member case-study slots and
//! seeded fleets of five and six applications, unbounded and with one
//! disturbance per application. Each case checks that:
//!
//! - the verdict is `verify_selected`'s, and an outcome no walk decided
//!   is `verify_selected`'s whole outcome;
//! - every reject carries a witness that `validate_witness` replays, and
//!   in bounded mode that witness disturbs no application more than the
//!   bound;
//! - a reused engine at width 1 and a fresh engine at width 2 return the
//!   identical outcome after the identical walk work.
//!
//! A walk checkpoint runs once its pop's successors are merged, so when a
//! walk and the search would decide on the same pop, the search's reject
//! wins and the outcome is `verify_selected`'s: a walk-decided reject must
//! end strictly earlier. The pinned pops and walk samples move only when
//! the search, the walks, their seed or their constants do.

use cps_apps::case_study;
use cps_core::dwell::DwellSearchOptions;
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::MapExplorerEngine;
use cps_verify::{
    validate_witness, SlotSharingModel, SlotVerifyEngine, VerificationConfig, VerificationOutcome,
    VerifyError,
};

/// What one falsifying search returned, and the walk work it did.
#[derive(Debug, PartialEq)]
struct Falsified {
    result: Result<VerificationOutcome, VerifyError>,
    walk_samples: usize,
    /// `true` when a walk decided the reject.
    walked: bool,
}

fn falsify(
    engine: &mut SlotVerifyEngine,
    profiles: &[AppTimingProfile],
    members: &[usize],
    config: &VerificationConfig,
) -> Falsified {
    let (samples, falsified) = (engine.walk_samples(), engine.falsified_rejects());
    let result = engine.falsify_selected(profiles, members, config);
    Falsified {
        result,
        walk_samples: engine.walk_samples() - samples,
        walked: engine.falsified_rejects() > falsified,
    }
}

/// Checks the contract of one falsifying search against `verify_selected`
/// (see the module docs) and returns it, with `true` when
/// `verify_selected` reached a verdict within the budget. `shared` is the
/// engine reused across every case.
fn check(
    shared: &mut SlotVerifyEngine,
    profiles: &[AppTimingProfile],
    members: &[usize],
    config: &VerificationConfig,
    label: &str,
) -> (Falsified, bool) {
    let exhaustive = shared.verify_selected(profiles, members, config);
    let falsified = falsify(shared, profiles, members, config);
    let mut wide = SlotVerifyEngine::with_pool(cps_par::Pool::with_threads(2));
    assert_eq!(
        falsify(&mut wide, profiles, members, config),
        falsified,
        "{label}: a fresh engine at width 2"
    );

    match (&exhaustive, &falsified.result) {
        (Ok(exact), Ok(outcome)) if !falsified.walked => {
            assert_eq!(outcome, exact, "{label}: no walk decided it");
        }
        (Ok(exact), Ok(outcome)) => {
            assert!(!exact.schedulable(), "{label}: a walk rejected an accept");
            assert!(
                outcome.states_explored() < exact.states_explored(),
                "{label}: the walk decided later than the search"
            );
        }
        // The walks may decide a reject the exhaustive search cannot reach
        // within its budget, and never anything else.
        (Err(VerifyError::StateBudgetExhausted { .. }), Ok(_)) => {
            assert!(falsified.walked, "{label}: only a walk outruns the budget");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}"),
        (a, b) => panic!("{label}: verify_selected {a:?}, falsify_selected {b:?}"),
    }
    if let Ok(outcome) = &falsified.result {
        assert!(!falsified.walked || !outcome.schedulable(), "{label}");
        if let Some(witness) = outcome.witness() {
            let model =
                SlotSharingModel::new(members.iter().map(|&i| profiles[i].clone()).collect())
                    .unwrap();
            validate_witness(&model, witness).unwrap_or_else(|e| panic!("{label}: {e}"));
            if let Some(bound) = config.max_disturbances_per_app {
                let times = witness.disturbance_times(members.len());
                assert!(times.iter().all(|t| t.len() <= bound), "{label}: {times:?}");
            }
        }
    }
    (falsified, exhaustive.is_ok())
}

/// The six case-study profiles as the dwell engine computes them, in the
/// paper's order C1–C6.
fn computed_case_study() -> Vec<AppTimingProfile> {
    case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.profile_with(DwellSearchOptions::default()).unwrap())
        .collect()
}

fn members_of(profiles: &[AppTimingProfile], names: &[&str]) -> Vec<usize> {
    names
        .iter()
        .map(|name| profiles.iter().position(|p| p.name() == *name).unwrap())
        .collect()
}

#[test]
fn case_study_slots_keep_their_verdicts_and_big_rejects_end_early() {
    let profiles = computed_case_study();
    let mut shared = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
    let config = VerificationConfig::unbounded();
    // (slot, schedulable, pops, walk samples, miss sample): without the
    // walks the two rejects take 14,648 and 13,579 pops.
    let pinned = [
        (&["C1", "C5", "C4", "C6"], false, 2_240, 14, Some(15)),
        (&["C1", "C5", "C4", "C2"], false, 4_160, 713, Some(14)),
        (&["C1", "C5", "C4", "C3"], true, 13_897, 3_950, None),
    ];
    for (names, schedulable, pops, samples, miss) in pinned {
        let members = members_of(&profiles, names);
        let (falsified, _) = check(&mut shared, &profiles, &members, &config, &names.join(","));
        let outcome = falsified.result.unwrap();
        assert_eq!(
            (
                outcome.schedulable(),
                outcome.states_explored(),
                falsified.walk_samples,
                outcome.witness().map(|w| w.missed_at_sample()),
                falsified.walked,
            ),
            (schedulable, pops, samples, miss, !schedulable),
            "{names:?}"
        );
    }
}

#[test]
fn minimizer_reproduces_the_published_partition_with_pinned_walk_work() {
    let profiles = computed_case_study();
    let report = MapExplorerEngine::new().minimize_slots(&profiles).unwrap();
    let expected = [
        members_of(&profiles, &["C1", "C5", "C4", "C3"]),
        members_of(&profiles, &["C6", "C2"]),
    ];
    assert_eq!(report.slots(), expected);
    let stats = report.tier_stats();
    assert_eq!(
        (
            stats.exact_verifies,
            stats.falsified_rejects,
            stats.walk_samples
        ),
        (6, 2, 4_677)
    );
}

/// One step of splitmix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded fleet of five or six constant-dwell applications: maximum
/// waits of 1–6 samples, dwells of 1–3 and minimum inter-arrival times of
/// 8–27 samples (raised past `J*` where needed).
fn seeded_fleet(seed: u64) -> Vec<AppTimingProfile> {
    let mut state = seed;
    let mut below = |bound: u64| (next(&mut state) % bound) as usize;
    let apps = 5 + below(2);
    (0..apps)
        .map(|i| {
            let max_wait = 1 + below(6);
            let dwell_min = 1 + below(2);
            let dwell_plus = dwell_min + below(2);
            let r = 8 + below(20);
            let jstar = max_wait + dwell_plus + 1;
            let table = DwellTimeTable::from_arrays(
                jstar,
                vec![dwell_min; max_wait + 1],
                vec![dwell_plus; max_wait + 1],
            )
            .unwrap();
            AppTimingProfile::new(
                format!("F{i}"),
                1,
                jstar + 10,
                jstar,
                r.max(jstar + 1),
                table,
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn seeded_fleets_agree_with_the_exhaustive_search() {
    let mut shared = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
    let unbounded = VerificationConfig {
        state_budget: 30_000,
        ..VerificationConfig::unbounded()
    };
    let bounded = VerificationConfig {
        state_budget: 30_000,
        ..VerificationConfig::bounded(1)
    };
    // Per mode: searches that walked, rejects a walk decided, those of
    // them the exhaustive search cannot reach within the budget, and walk
    // samples in total.
    let mut work = [(0, 0, 0, 0); 2];
    for seed in 0..40 {
        let fleet = seeded_fleet(seed);
        let members: Vec<usize> = (0..fleet.len()).collect();
        for (mode, config) in [unbounded, bounded].iter().enumerate() {
            let label = format!("seed {seed}, {config:?}");
            let (falsified, exhaustive) = check(&mut shared, &fleet, &members, config, &label);
            let (walked, decided, outran, samples) = &mut work[mode];
            *walked += usize::from(falsified.walk_samples > 0);
            *decided += usize::from(falsified.walked);
            *outran += usize::from(falsified.walked && !exhaustive);
            *samples += falsified.walk_samples;
        }
    }
    // Six unbounded and seventeen bounded searches outlive their first
    // chunk, and walks decide five and seven rejects.
    assert_eq!(work, [(6, 5, 0, 688), (17, 7, 2, 75_047)]);
}
