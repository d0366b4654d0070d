//! Integration test: the one concrete scheduler.
//!
//! `cps_sched::SlotScheduler::schedule` (the co-simulation's scheduler) and
//! `cps_sched::first_miss` (behind `cps_verify::validate_witness` and the
//! admission cascade's all-disturbed-at-once screen) share one stepping
//! loop. These cases pin that the two entries agree with each other and
//! with the exact verifier:
//!
//! - every witness of the 63 subsets of the published C1–C6 rows validates
//!   and misses under `schedule` too;
//! - on seeded random fleets and patterns that disturb only idle
//!   applications, `first_miss` finds a miss exactly when `schedule` does,
//!   a concrete miss only happens in a fleet the exact verifier rejects,
//!   and every exact witness validates;
//! - where the two entries differ by design, on a disturbance of a busy
//!   application, `first_miss` refuses it and `schedule` lets it supersede.

use cps_apps::case_study;
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_sched::{first_miss, SchedError, SlotScheduler};
use cps_verify::{
    validate_witness, SlotSharingModel, SlotVerifyEngine, TraceEvent, VerificationConfig,
    VerifyError, Witness,
};

/// Checks a reject's witness over `fleet` two ways: `validate_witness`
/// accepts it, and `schedule`, fed its disturbance pattern, marks the
/// failing application as missed.
fn check_witness(fleet: &[AppTimingProfile], witness: &Witness, label: &str) {
    let model = SlotSharingModel::new(fleet.to_vec()).unwrap();
    validate_witness(&model, witness).unwrap_or_else(|e| panic!("{label}: {e}"));
    let outcome = SlotScheduler::new(fleet.to_vec())
        .unwrap()
        .schedule(
            &witness.disturbance_times(fleet.len()),
            witness.missed_at_sample() + 1,
        )
        .unwrap();
    assert!(
        outcome.traces()[witness.failing_app()].missed_deadline,
        "{label}: {witness}"
    );
}

#[test]
fn every_published_subset_witness_misses_under_both_entries() {
    let profiles: Vec<AppTimingProfile> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let mut engine = SlotVerifyEngine::new();
    let mut rejects = 0;
    for mask in 1u32..64 {
        let members: Vec<usize> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
        let outcome = engine
            .falsify_selected(&profiles, &members, &VerificationConfig::unbounded())
            .unwrap();
        if let Some(witness) = outcome.witness() {
            rejects += 1;
            let subset: Vec<AppTimingProfile> =
                members.iter().map(|&i| profiles[i].clone()).collect();
            check_witness(&subset, witness, &format!("{members:?}"));
        }
    }
    assert_eq!(rejects, 23);
}

/// xorshift64*: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
    }
}

/// A random small profile shaped like the benches' `random_profile`:
/// maximum waits of 3–6 samples, dwells of 1–4, and a minimum
/// inter-arrival time `r` past `J* = T_w^* + max T_dw^+ + 1`, so an
/// application is idle again before a pattern spaced by `r` disturbs it.
fn random_profile(rng: &mut Rng, tag: usize) -> AppTimingProfile {
    let max_wait = 3 + rng.below(4);
    let base = 1 + rng.below(2);
    let t_dw_min: Vec<usize> = (0..=max_wait).map(|_| base + rng.below(2)).collect();
    let t_dw_plus: Vec<usize> = t_dw_min.iter().map(|&m| m + rng.below(2)).collect();
    let max_plus = *t_dw_plus.iter().max().unwrap();
    let jstar = max_wait + max_plus + 1;
    let jt = if rng.below(2) == 0 { max_plus } else { 1 };
    let r = jstar + 1 + rng.below(8);
    let table = DwellTimeTable::from_arrays(jstar, t_dw_min, t_dw_plus).unwrap();
    AppTimingProfile::new(format!("R{tag}"), jt, jstar + 10, jstar, r, table).unwrap()
}

/// A random pattern that disturbs every application one to three times:
/// first within the first four samples, so the applications contend for
/// the slot, then spaced by `r` plus up to three samples.
fn random_schedule(rng: &mut Rng, fleet: &[AppTimingProfile]) -> Vec<Vec<usize>> {
    fleet
        .iter()
        .map(|p| {
            let mut at = rng.below(4);
            (0..1 + rng.below(3))
                .map(|_| {
                    let sample = at;
                    at += p.min_inter_arrival() + rng.below(4);
                    sample
                })
                .collect()
        })
        .collect()
}

#[test]
fn seeded_schedules_agree_with_the_scheduler_and_the_exact_verifier() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut engine = SlotVerifyEngine::new();
    // Fleets, exact rejects, patterns and concrete misses.
    let mut counts = (0, 0, 0, 0);
    for fleet_no in 0..300 {
        let size = 2 + rng.below(5);
        let fleet: Vec<AppTimingProfile> = (0..size).map(|i| random_profile(&mut rng, i)).collect();
        let members: Vec<usize> = (0..size).collect();
        let exact = engine
            .falsify_selected(&fleet, &members, &VerificationConfig::unbounded())
            .unwrap();
        counts.0 += 1;
        if let Some(witness) = exact.witness() {
            counts.1 += 1;
            check_witness(&fleet, witness, &format!("fleet {fleet_no}"));
        }
        let scheduler = SlotScheduler::new(fleet.clone()).unwrap();
        let longest = fleet.iter().map(|p| p.jstar()).max().unwrap();
        for _ in 0..5 {
            let schedule = random_schedule(&mut rng, &fleet);
            let label = format!("fleet {fleet_no}, {schedule:?}");
            let last = schedule.iter().flatten().max().unwrap();
            let outcome = scheduler.schedule(&schedule, last + longest + 1).unwrap();
            let miss = first_miss(&fleet, &members, &schedule).unwrap();
            counts.2 += 1;
            assert_eq!(miss.is_some(), !outcome.all_deadlines_met(), "{label}");
            if let Some((missing, _)) = miss {
                counts.3 += 1;
                for app in missing {
                    assert!(outcome.traces()[app].missed_deadline, "{label}");
                }
                assert!(!exact.schedulable(), "{label}: the exact verifier accepts");
            }
        }
    }
    assert_eq!(counts, (300, 173, 1_500, 423));
}

#[test]
fn a_busy_application_disturbed_again_is_refused_or_superseded() {
    let profile = |name: &str, max_wait: usize, dwell: usize| {
        let table =
            DwellTimeTable::from_arrays(9, vec![dwell; max_wait + 1], vec![dwell; max_wait + 1])
                .unwrap();
        AppTimingProfile::new(name, 1, 14, 9, 10, table).unwrap()
    };
    // B waits 5 samples behind A, then holds the slot for 8: with
    // `T_w^* + T_dw^+ = 16 ≥ r = 10`, a pattern spaced by `r` finds it
    // still using the slot at sample 10.
    let fleet = [profile("A", 2, 5), profile("B", 8, 8)];
    let schedule = [vec![0], vec![0, 10]];
    assert!(matches!(
        first_miss(&fleet, &[0, 1], &schedule),
        Err(SchedError::InvalidScenario { .. })
    ));
    // The co-simulation's entry closes B's first occupation at the new
    // disturbance and serves the second at once.
    let outcome = SlotScheduler::new(fleet.to_vec())
        .unwrap()
        .schedule(&schedule, 30)
        .unwrap();
    assert!(outcome.all_deadlines_met());
    assert_eq!(outcome.traces()[1].waits, vec![5, 0]);
    let b_grants: Vec<(usize, usize)> = outcome
        .grants()
        .iter()
        .filter(|g| g.app == 1)
        .map(|g| (g.start_sample, g.tt_samples))
        .collect();
    assert_eq!(b_grants, [(5, 5), (10, 8)]);
    // A witness over that pattern breaks the sporadic model: refused.
    let model = SlotSharingModel::new(fleet.to_vec()).unwrap();
    let witness = Witness::new(
        vec![
            TraceEvent::Disturbance { app: 0, sample: 0 },
            TraceEvent::Disturbance { app: 1, sample: 0 },
            TraceEvent::Disturbance { app: 1, sample: 10 },
            TraceEvent::DeadlineMissed { app: 1, sample: 19 },
        ],
        1,
        19,
    );
    let err = validate_witness(&model, &witness).unwrap_err();
    assert!(
        matches!(&err, VerifyError::InvalidWitness { reason } if reason.contains("not idle")),
        "{err}"
    );
}
