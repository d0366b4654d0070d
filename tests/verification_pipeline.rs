//! Integration tests: verification verdicts are consistent with concrete
//! scheduling and co-simulation.

use cps_apps::case_study;
use cps_core::AppTimingProfile;
use cps_sched::SlotScheduler;
use cps_verify::{
    verify_conservative_selected, SlotSharingModel, SlotVerifyEngine, VerificationConfig,
};

fn published(names: &[&str]) -> Vec<AppTimingProfile> {
    case_study::all_applications()
        .unwrap()
        .iter()
        .filter(|a| names.contains(&a.application().name()))
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect()
}

#[test]
fn slot2_partition_is_verified_and_schedules_concretely() {
    // {C6, C2} is the paper's second slot: the model checker accepts it and a
    // concrete worst-case scenario (simultaneous disturbances) meets every
    // deadline under the laxity scheduler.
    let profiles = published(&["C2", "C6"]);
    let model = SlotSharingModel::new(profiles.clone()).unwrap();
    let outcome = model.verify(&VerificationConfig::default()).unwrap();
    assert!(outcome.schedulable());

    let scheduler = SlotScheduler::new(profiles).unwrap();
    let schedule = scheduler.schedule(&[vec![0], vec![0]], 80).unwrap();
    assert!(schedule.all_deadlines_met());
}

#[test]
fn unschedulable_verdicts_come_with_replayable_witnesses() {
    // Adding C6 to {C1, C5, C4} breaks the slot (this is why the paper opens
    // a second slot). The witness scenario, replayed through the concrete
    // scheduler, indeed misses a deadline.
    let profiles = published(&["C1", "C5", "C4", "C6"]);
    let model = SlotSharingModel::new(profiles.clone()).unwrap();
    let outcome = model.verify(&VerificationConfig::default()).unwrap();
    assert!(!outcome.schedulable());

    let witness = outcome.witness().expect("counterexample available");
    let disturbances = witness.disturbance_times(profiles.len());
    let horizon = 1
        + witness.missed_at_sample()
        + profiles
            .iter()
            .map(|p| p.min_inter_arrival())
            .max()
            .unwrap();
    let scheduler = SlotScheduler::new(profiles).unwrap();
    let schedule = scheduler.schedule(&disturbances, horizon).unwrap();
    assert!(!schedule.all_deadlines_met());
}

#[test]
fn three_applications_on_one_slot_verify_quickly() {
    let profiles = published(&["C1", "C5", "C4"]);
    let model = SlotSharingModel::new(profiles).unwrap();
    let outcome = model.verify(&VerificationConfig::default()).unwrap();
    assert!(outcome.schedulable());
    assert!(outcome.states_explored() < 100_000);
}

#[test]
fn degraded_screen_pins_the_published_slots_and_only_accepts_exact_accepts() {
    // The admission cascade's degraded screen decides `B_i ≤ D_i` per
    // occupant: `B_i` sums the other occupants' longest minimum dwells and
    // `D_i = T_w^*`. On the published partition it rejects the first slot,
    // which the exact checker accepts (the paper's coarseness gap), and
    // accepts the second.
    let profiles = published(&["C1", "C2", "C3", "C4", "C5", "C6"]);
    // (name, blocking B, deadline D, safe) per occupant, in slot order.
    type Verdict = (&'static str, i64, i64, bool);
    let published_slots: [(&[usize], &[Verdict]); 2] = [
        (
            &[0, 4, 3, 2],
            &[
                ("C1", 13, 11, false),
                ("C5", 14, 12, false),
                ("C4", 13, 12, false),
                ("C3", 14, 15, true),
            ],
        ),
        (&[5, 1], &[("C6", 8, 12, true), ("C2", 8, 13, true)]),
    ];
    for (members, expected) in published_slots {
        let outcome = verify_conservative_selected(&profiles, members).unwrap();
        let verdicts: Vec<_> = outcome
            .verdicts()
            .iter()
            .map(|v| (v.name(), v.blocking(), v.deadline(), v.safe()))
            .collect();
        assert_eq!(verdicts, expected, "{members:?}");
    }

    // Soundness: every subset of C1–C6 the screen accepts, the exact checker
    // accepts too — a degraded accept never admits an unschedulable slot.
    let mut engine = SlotVerifyEngine::new();
    let mut accepted = 0;
    for mask in 1u32..64 {
        let members: Vec<usize> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
        if verify_conservative_selected(&profiles, &members)
            .unwrap()
            .schedulable()
        {
            accepted += 1;
            let exact = engine
                .verify_selected(&profiles, &members, &VerificationConfig::default())
                .unwrap();
            assert!(exact.schedulable(), "{members:?}");
        }
    }
    // 29 of the 63 subsets pass; a strict `B < D` would pass only 25.
    assert_eq!(accepted, 29);
}
