//! Integration tests: the case-study reproduction end to end, from plant
//! models to dwell tables to slot dimensioning.

use cps_apps::case_study::{self, CaseStudyApp};
use cps_baseline::Strategy;
use cps_core::dwell::DwellSearchOptions;
use cps_core::Mode;
use cps_map::{first_fit, BaselineOracle, MapExplorerEngine};

#[test]
fn table1_settling_times_match_for_c1_and_c6() {
    for (name, expected_jt, expected_je) in [("C1", 9, 35), ("C6", 11, 41)] {
        let app = case_study::all_applications()
            .unwrap()
            .into_iter()
            .find(|a| a.application().name() == name)
            .unwrap();
        let jt = app
            .application()
            .settling_in_mode(Mode::TimeTriggered, 600)
            .unwrap();
        let je = app
            .application()
            .settling_in_mode(Mode::EventTriggered, 600)
            .unwrap();
        assert_eq!(jt, expected_jt, "{name} J_T");
        assert_eq!(je, expected_je, "{name} J_E");
    }
}

#[test]
fn c1_dwell_table_reproduces_the_published_arrays() {
    let c1 = case_study::c1().unwrap();
    let profile = c1
        .profile_with(CaseStudyApp::fast_search_options())
        .unwrap();
    assert_eq!(profile.max_wait(), c1.paper_row().t_w_max);
    assert_eq!(
        profile.dwell_table().t_dw_min_array(),
        &c1.paper_row().t_dw_min[..]
    );
    assert_eq!(
        profile.dwell_table().t_dw_plus_array(),
        &c1.paper_row().t_dw_plus[..]
    );
}

#[test]
fn baseline_mapping_needs_more_slots_than_the_paper_result() {
    // The published Table 1 rows feed the conservative baseline mapping; it
    // needs at least 3 slots where the paper's strategy needs 2.
    let profiles: Vec<_> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let baseline = first_fit(
        &profiles,
        &BaselineOracle::with_strategy(Strategy::NonPreemptiveDeadlineMonotonic),
    )
    .unwrap();
    assert!(baseline.slot_count() >= 3);
}

#[test]
fn parallel_minimize_reproduces_the_published_partition() {
    // The paper's two-slot partition {C1,C5,C4,C3} {C6,C2} must come out of
    // the parallel branch and bound exactly as it does serially, at every
    // pool width.
    let profiles: Vec<_> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let published: &[Vec<usize>] = &[vec![0, 4, 3, 2], vec![5, 1]];
    for threads in [1, 2, 4, 8] {
        let mut engine = MapExplorerEngine::new().with_pool(cps_par::Pool::with_threads(threads));
        let report = engine.minimize_slots(&profiles).unwrap();
        assert_eq!(report.slots(), published, "threads={threads}");
        assert_eq!(report.slot_count(), 2);
    }
}

#[test]
fn computed_profiles_reproduce_the_published_partition() {
    // Not only the printed Table 1 rows: the profiles the dwell engine
    // computes from the plant models at the default search options must
    // minimize to the paper's partition {C1,C5,C4,C3} {C6,C2} too.
    let profiles = case_study::all_profiles(DwellSearchOptions::default()).unwrap();
    let report = MapExplorerEngine::new().minimize_slots(&profiles).unwrap();
    let published: &[Vec<usize>] = &[vec![0, 4, 3, 2], vec![5, 1]];
    assert_eq!(report.slots(), published);
}

#[test]
fn bounded_memo_reproduces_the_published_partition_bit_identically() {
    // The slot minimizer must reproduce the paper's two-slot partition
    // {C1,C5,C4,C3} {C6,C2} — slot members in placement order — whatever the
    // verdict memo behind the admission cascade is: the default bounded
    // transposition table, a pathologically tiny one that is forced to evict
    // verdicts mid-search, and the unbounded hash map. Evictions may cost
    // recomputation, never a different verdict.
    let profiles: Vec<_> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let published: &[Vec<usize>] = &[vec![0, 4, 3, 2], vec![5, 1]];

    let mut bounded = MapExplorerEngine::new();
    let mut tiny = MapExplorerEngine::new().with_memo_capacity(1);
    let mut unbounded = MapExplorerEngine::new().with_unbounded_memo();

    let from_bounded = bounded.minimize_slots(&profiles).unwrap();
    let from_tiny = tiny.minimize_slots(&profiles).unwrap();
    let from_unbounded = unbounded.minimize_slots(&profiles).unwrap();

    assert_eq!(from_bounded.slots(), published);
    assert_eq!(from_tiny.slots(), published);
    assert_eq!(from_unbounded.slots(), published);
    assert_eq!(
        unbounded.stats().tt_evictions,
        0,
        "the unbounded memo never evicts"
    );
    assert!(
        tiny.stats().tt_evictions > 0,
        "a two-entry memo must evict during the lattice search"
    );
}
