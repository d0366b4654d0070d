//! Integration test: on the paper's own rows, the exact verifier explores
//! exactly the search of its oracle.
//!
//! `SlotVerifyEngine` (packed states, compiled transitions, staged merge with
//! dominance pruning and lookahead) and the naive `cps_verify::reference`
//! checker answer the same question. On models without interchangeable
//! applications, such as every subset of the published C1–C6 rows, they pop
//! the same states in the same order and stop at the same doomed state, so
//! verdicts, explored-state counts and whole witnesses — every disturbance,
//! the failing application and the miss sample — are equal. The test covers
//! the 56 subsets with at most four members, which include every
//! schedulable subset. The five- and six-member subsets pop 0.2–3.0 million
//! states even pruned, too many for the naive oracle in a debug build.
//!
//! `PUBLISHED` pins each of those subsets' verdict and, for a reject, the
//! sample of its witness's miss, as the search found them before it
//! skipped superseded states. A change to the search's pruning must leave
//! the table as it is.

use cps_apps::case_study;
use cps_core::AppTimingProfile;
use cps_verify::{
    has_interchangeable_neighbors, reference, validate_witness, SlotSharingModel, SlotVerifyEngine,
    VerificationConfig,
};

/// Per subset, in mask order (bit `i` selects `C{i+1}`): `None` when it
/// is schedulable, else the sample at which its witness misses.
const PUBLISHED: [(&[&str], Option<usize>); 56] = [
    (&["C1"], None),
    (&["C2"], None),
    (&["C1", "C2"], None),
    (&["C3"], None),
    (&["C1", "C3"], None),
    (&["C2", "C3"], None),
    (&["C1", "C2", "C3"], None),
    (&["C4"], None),
    (&["C1", "C4"], None),
    (&["C2", "C4"], None),
    (&["C1", "C2", "C4"], None),
    (&["C3", "C4"], None),
    (&["C1", "C3", "C4"], None),
    (&["C2", "C3", "C4"], None),
    (&["C1", "C2", "C3", "C4"], Some(15)),
    (&["C5"], None),
    (&["C1", "C5"], None),
    (&["C2", "C5"], None),
    (&["C1", "C2", "C5"], None),
    (&["C3", "C5"], None),
    (&["C1", "C3", "C5"], None),
    (&["C2", "C3", "C5"], None),
    (&["C1", "C2", "C3", "C5"], Some(15)),
    (&["C4", "C5"], None),
    (&["C1", "C4", "C5"], None),
    (&["C2", "C4", "C5"], None),
    (&["C1", "C2", "C4", "C5"], Some(14)),
    (&["C3", "C4", "C5"], None),
    (&["C1", "C3", "C4", "C5"], None),
    (&["C2", "C3", "C4", "C5"], Some(15)),
    (&["C6"], None),
    (&["C1", "C6"], None),
    (&["C2", "C6"], None),
    (&["C1", "C2", "C6"], None),
    (&["C3", "C6"], None),
    (&["C1", "C3", "C6"], None),
    (&["C2", "C3", "C6"], None),
    (&["C1", "C2", "C3", "C6"], Some(15)),
    (&["C4", "C6"], None),
    (&["C1", "C4", "C6"], None),
    (&["C2", "C4", "C6"], Some(14)),
    (&["C1", "C2", "C4", "C6"], Some(14)),
    (&["C3", "C4", "C6"], None),
    (&["C1", "C3", "C4", "C6"], Some(15)),
    (&["C2", "C3", "C4", "C6"], Some(14)),
    (&["C5", "C6"], None),
    (&["C1", "C5", "C6"], None),
    (&["C2", "C5", "C6"], Some(14)),
    (&["C1", "C2", "C5", "C6"], Some(14)),
    (&["C3", "C5", "C6"], None),
    (&["C1", "C3", "C5", "C6"], Some(15)),
    (&["C2", "C3", "C5", "C6"], Some(14)),
    (&["C4", "C5", "C6"], None),
    (&["C1", "C4", "C5", "C6"], Some(14)),
    (&["C2", "C4", "C5", "C6"], Some(14)),
    (&["C3", "C4", "C5", "C6"], Some(15)),
];

#[test]
fn engine_matches_the_pruned_oracle_on_every_small_published_subset() {
    let profiles: Vec<AppTimingProfile> = case_study::all_applications()
        .unwrap()
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()).unwrap())
        .collect();
    let config = VerificationConfig::unbounded();
    let mut engine = SlotVerifyEngine::new();
    let (mut subsets, mut schedulable) = (0, 0);
    let masks = (1u32..64).filter(|mask| mask.count_ones() <= 4);
    for (mask, (pinned, miss)) in masks.zip(PUBLISHED) {
        let members: Vec<AppTimingProfile> = (0..6)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| profiles[i].clone())
            .collect();
        let names: Vec<&str> = members.iter().map(AppTimingProfile::name).collect();
        assert_eq!(names, pinned);
        let model = SlotSharingModel::new(members.clone()).unwrap();
        assert!(!has_interchangeable_neighbors(&model), "{names:?}");

        let fast = engine.verify(&model, &config).unwrap();
        let oracle = reference::verify(&model, &config).unwrap();
        assert_eq!(fast.schedulable(), oracle.schedulable(), "{names:?}");
        assert_eq!(
            fast.states_explored(),
            oracle.states_explored(),
            "{names:?}"
        );
        assert_eq!(fast.witness(), oracle.witness(), "{names:?}");
        assert_eq!(
            fast.witness().map(|w| w.missed_at_sample()),
            miss,
            "{names:?}"
        );
        for witness in [fast.witness(), oracle.witness()].into_iter().flatten() {
            validate_witness(&model, witness).unwrap_or_else(|e| panic!("{names:?}: {e}"));
        }
        subsets += 1;
        schedulable += usize::from(fast.schedulable());
    }
    // Of the 63 subsets of C1–C6, 40 are schedulable and none of those has
    // more than four members.
    assert_eq!((subsets, schedulable), (56, 40));
}
