//! Integration tests: the case-study reproduction end to end, from plant
//! models to dwell tables to slot dimensioning.

use cps_apps::case_study::{self, CaseStudyApp};
use cps_core::dwell::DwellSearchOptions;
use cps_core::Mode;
use cps_map::baseline::Strategy;
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

/// Every row of Table 1 as computed from the printed plant models and gains
/// at [`CaseStudyApp::fast_search_options`], pinned exactly: J_T, J_E,
/// T_w^*, T_dw^- and T_dw^+ (the values `table1_case_study` prints).
///
/// C1 and C6 equal the paper in every entry. The known deviations from the
/// published table are:
/// - C2: 3 entries of T_dw^+;
/// - C3: J_T 11 vs 10, J_E 29 vs 31, 1 entry of T_dw^- and 7 of T_dw^+;
/// - C4 and C5: 1 entry of T_dw^- each.
#[test]
fn table1_rows_are_pinned_with_their_known_deviations() {
    type Row = (
        &'static str,
        usize,
        usize,
        usize,
        &'static [usize],
        &'static [usize],
    );
    let expected: [Row; 6] = [
        (
            "C1",
            9,
            35,
            11,
            &[3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5],
            &[6, 6, 5, 5, 5, 6, 5, 5, 4, 4, 5, 5],
        ),
        (
            "C2",
            15,
            50,
            13,
            &[7, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 7, 8],
            &[9, 9, 9, 10, 8, 9, 9, 10, 8, 8, 9, 8, 7, 8],
        ),
        (
            "C3",
            11,
            29,
            15,
            &[4, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            &[9, 9, 8, 8, 7, 7, 7, 6, 6, 6, 5, 5, 5, 4, 4, 4],
        ),
        (
            "C4",
            10,
            31,
            12,
            &[5, 5, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
            &[9, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 5],
        ),
        (
            "C5",
            10,
            25,
            12,
            &[4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4],
            &[9, 8, 7, 8, 7, 6, 7, 6, 5, 5, 4, 4, 4],
        ),
        (
            "C6",
            11,
            41,
            12,
            &[7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8],
            &[11, 11, 10, 10, 10, 10, 9, 9, 9, 8, 8, 8, 8],
        ),
    ];
    let apps = case_study::all_applications().unwrap();
    assert_eq!(apps.len(), expected.len());
    for (app, (name, jt, je, t_w_max, t_dw_min, t_dw_plus)) in apps.iter().zip(expected) {
        let a = app.application();
        assert_eq!(a.name(), name);
        assert_eq!(
            a.settling_in_mode(Mode::TimeTriggered, 600).unwrap(),
            jt,
            "{name} J_T"
        );
        assert_eq!(
            a.settling_in_mode(Mode::EventTriggered, 600).unwrap(),
            je,
            "{name} J_E"
        );
        let profile = app
            .profile_with(CaseStudyApp::fast_search_options())
            .unwrap();
        assert_eq!(profile.max_wait(), t_w_max, "{name} T_w^*");
        assert_eq!(
            profile.dwell_table().t_dw_min_array(),
            t_dw_min,
            "{name} T_dw^-"
        );
        assert_eq!(
            profile.dwell_table().t_dw_plus_array(),
            t_dw_plus,
            "{name} T_dw^+"
        );
    }
}

#[test]
fn baseline_mapping_needs_more_slots_than_the_paper_result() {
    // The published Table 1 rows feed the conservative baseline mapping.
    // Under either strategy it needs exactly three slots where the paper's
    // strategy needs two. Its first slot {C1,C5} is the paper's; the paper's
    // 4-slot baseline keeps {C4,C3}, {C6} and {C2} apart, where this
    // reconstruction of the analysis merges {C4,C6} and {C2,C3}.
    let profiles: Vec<_> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();
    for strategy in [
        Strategy::NonPreemptiveDeadlineMonotonic,
        Strategy::DelayedRequests,
    ] {
        let baseline = first_fit(&profiles, &BaselineOracle::with_strategy(strategy)).unwrap();
        assert_eq!(
            baseline.format_with_names(&names),
            "{C1, C5}  {C4, C6}  {C2, C3}",
            "{strategy:?}"
        );
    }
}

#[test]
fn parallel_minimize_reproduces_the_published_partition() {
    // The paper's two-slot partition {C1,C5,C4,C3} {C6,C2} must come out of
    // the branch and bound at every pool width; the pool drives the exact
    // verifier under the search.
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
