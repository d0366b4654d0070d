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

use cps_apps::case_study;
use cps_core::AppTimingProfile;
use cps_verify::{
    has_interchangeable_neighbors, reference, validate_witness, SlotSharingModel, SlotVerifyEngine,
    VerificationConfig,
};

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
    for mask in (1u32..64).filter(|mask| mask.count_ones() <= 4) {
        let members: Vec<AppTimingProfile> = (0..6)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| profiles[i].clone())
            .collect();
        let names: Vec<&str> = members.iter().map(AppTimingProfile::name).collect();
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
