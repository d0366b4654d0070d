//! The paper's co-simulation scenarios (Figs. 8 and 9), run end to end
//! through [`CosimScenario::run`]: the slot scheduler decides who owns the
//! TT slot, and the switched closed loops are simulated under that
//! ownership. Profiles are computed from the case-study plants the way the
//! figure binaries compute them.

use cps_apps::case_study::{self, CaseStudyApp, SLOT1_MEMBERS, SLOT2_MEMBERS};
use cps_sched::{CosimApp, CosimResult, CosimScenario};

/// Runs the named applications over 60 samples, each disturbed once at the
/// given sample.
fn co_simulate(members: &[(&str, usize)]) -> CosimResult {
    let apps = case_study::all_applications().unwrap();
    let cosim_apps = members
        .iter()
        .map(|&(name, disturbance_sample)| {
            let app = apps
                .iter()
                .find(|a| a.application().name() == name)
                .unwrap();
            CosimApp {
                application: app.application().clone(),
                profile: app
                    .profile_with(CaseStudyApp::fast_search_options())
                    .unwrap(),
                disturbance_sample,
            }
        })
        .collect();
    CosimScenario::new(cosim_apps, 60).unwrap().run().unwrap()
}

#[test]
fn fig8_slot1_shares_the_slot_and_meets_every_requirement() {
    let members: Vec<(&str, usize)> = SLOT1_MEMBERS.iter().map(|&name| (name, 0)).collect();
    let result = co_simulate(&members);
    let traces = result.schedule().traces();
    // (TT samples, waits, settling samples) of C1, C5, C4, C3.
    let expected: [(Vec<usize>, Vec<usize>, usize); 4] = [
        (vec![0, 1, 2], vec![0], 18),
        (vec![3, 4, 5], vec![3], 18),
        ((6..=10).collect(), vec![6], 19),
        ((11..=15).collect(), vec![11], 18),
    ];
    for (i, (tt, waits, settling)) in expected.into_iter().enumerate() {
        let name = members[i].0;
        assert_eq!(traces[i].tt_samples, tt, "{name} TT samples");
        assert_eq!(traces[i].waits, waits, "{name} waits");
        assert_eq!(
            result.settling_samples()[i],
            Some(settling),
            "{name} settling"
        );
    }
    assert_eq!(result.requirements(), &[18, 18, 19, 20]);
    assert!(result.schedule().all_deadlines_met());
    assert!(result.all_meet_requirements());
}

#[test]
fn fig9_slot2_serves_c2_then_c6_and_meets_every_requirement() {
    let members: Vec<(&str, usize)> = SLOT2_MEMBERS.iter().copied().zip([0, 10]).collect();
    let result = co_simulate(&members);
    let traces = result.schedule().traces();
    // Deviation: the paper reports that C2 uses 10 TT samples. The computed
    // C2 profile has T_dw^+(0) = 9 where the published Table 1 row has 10,
    // so the uncontested C2 releases the slot after 9.
    assert_eq!(traces[0].tt_samples, (0..=8).collect::<Vec<_>>());
    assert_eq!(traces[0].total_tt_samples(), 9);
    assert_eq!(traces[0].waits, vec![0]);
    // C6 is disturbed after C2 released the slot, so it never waits.
    assert_eq!(traces[1].tt_samples, (10..=20).collect::<Vec<_>>());
    assert_eq!(traces[1].waits, vec![0]);
    assert_eq!(result.settling_samples(), &[Some(15), Some(11)]);
    assert!(result.schedule().all_deadlines_met());
    assert!(result.all_meet_requirements());
}
