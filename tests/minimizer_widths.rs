//! The slot minimizer does the same work at every worker-pool width.
//!
//! `MapExplorerEngine::with_pool` moves the exact verifier under the branch
//! and bound onto a wider pool; the search itself stays on the engine's own
//! core. So the partition, the search nodes and every tier and verifier
//! count must equal the one-thread run's.

use std::time::Duration;

use cps_apps::case_study;
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::{MapExplorerEngine, MinimizeReport, TierStats};
use cps_par::Pool;

/// The paper's Table 1 rows, C1–C6.
fn case_study_profiles() -> Vec<AppTimingProfile> {
    case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect()
}

/// Five copies of one constant-dwell profile (`T_w^* = 2`, dwell and `J_T`
/// 2, `J* = 5`, `r = 13`): pairs share a slot, so the search branches over
/// interchangeable applications.
fn five_interchangeable() -> Vec<AppTimingProfile> {
    (0..5)
        .map(|i| {
            let table = DwellTimeTable::from_arrays(5, vec![2; 3], vec![2; 3]).unwrap();
            AppTimingProfile::new(format!("P{i}"), 2, 15, 5, 13, table).unwrap()
        })
        .collect()
}

/// Everything a run decides and counts, without its wall-clock time.
fn work(report: &MinimizeReport) -> (Vec<Vec<usize>>, usize, usize, TierStats) {
    let counts = TierStats {
        exact_verify_time: Duration::ZERO,
        ..*report.tier_stats()
    };
    (
        report.slots().to_vec(),
        report.nodes_explored(),
        report.first_fit_slots(),
        counts,
    )
}

#[test]
fn minimizer_does_the_same_work_at_every_width() {
    for (name, fleet) in [
        ("case study", case_study_profiles()),
        ("five interchangeable", five_interchangeable()),
    ] {
        let serial = MapExplorerEngine::new()
            .with_pool(Pool::serial())
            .minimize_slots(&fleet)
            .unwrap();
        for threads in [2, 4, 8] {
            let report = MapExplorerEngine::new()
                .with_pool(Pool::with_threads(threads))
                .minimize_slots(&fleet)
                .unwrap();
            assert_eq!(work(&report), work(&serial), "{name}, threads={threads}");
        }
    }
}

#[test]
fn a_used_engine_moves_onto_a_wider_pool_in_place() {
    // Both engines first verify the published slot {C1,C5,C4,C3}, the
    // largest exact query of the case study; one of them then moves onto a
    // wider pool. The moved verifier must keep the counters the tier deltas
    // subtract from: a rebuilt one would restart them, and the minimizer's
    // delta would underflow or come out short.
    let profiles = case_study_profiles();
    let published: &[Vec<usize>] = &[vec![0, 4, 3, 2], vec![5, 1]];
    let used_engine = || {
        let mut engine = MapExplorerEngine::new().with_pool(Pool::serial());
        assert!(engine.admits(&profiles, &published[0]).unwrap());
        engine
    };
    let expected = used_engine().minimize_slots(&profiles).unwrap();
    let report = used_engine()
        .with_pool(Pool::with_threads(4))
        .minimize_slots(&profiles)
        .unwrap();
    assert_eq!(report.slots(), published);
    assert!(report.tier_stats().exact_verifies > 0);
    assert_eq!(work(&report), work(&expected));
}
