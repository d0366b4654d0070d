//! Reproduces the resource-mapping comparison of Sec. 5: first-fit with the
//! exact model-checking oracle (the paper's strategy) versus the conservative
//! baseline analysis, including the headline slot saving.

use cps_bench::published_profiles;
use cps_map::baseline::Strategy;
use cps_map::{first_fit, BaselineOracle, MapExplorerEngine, ModelCheckingOracle};

fn main() {
    let profiles = published_profiles();
    let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();

    // The cascade engine drives the production mapping; the plain oracle
    // cross-checks that the partition is bit-identical.
    let mut engine = MapExplorerEngine::new();
    let proposed = engine.first_fit(&profiles).expect("verification runs");
    let plain = first_fit(&profiles, &ModelCheckingOracle::new()).expect("verification runs");
    assert_eq!(
        proposed.slots(),
        plain.slots(),
        "cascade partition must match plain first-fit"
    );
    let baseline_dm = first_fit(
        &profiles,
        &BaselineOracle::with_strategy(Strategy::NonPreemptiveDeadlineMonotonic),
    )
    .expect("analysis runs");
    let baseline_delayed = first_fit(
        &profiles,
        &BaselineOracle::with_strategy(Strategy::DelayedRequests),
    )
    .expect("analysis runs");

    println!("Resource mapping (Sec. 5)");
    println!(
        "  proposed (model checking) : {} slots  {}",
        proposed.slot_count(),
        proposed.format_with_names(&names)
    );
    println!(
        "  baseline (non-preemptive DM): {} slots  {}",
        baseline_dm.slot_count(),
        baseline_dm.format_with_names(&names)
    );
    println!(
        "  baseline (delayed requests) : {} slots  {}",
        baseline_delayed.slot_count(),
        baseline_delayed.format_with_names(&names)
    );
    println!(
        "  slot saving vs DM baseline  : {:.0}%  (paper: 50% against a 4-slot baseline)",
        100.0 * proposed.saving_versus(&baseline_dm)
    );
    println!(
        "  paper's partitions: proposed {{C1,C5,C4,C3}} {{C6,C2}}, baseline {{C1,C5}} {{C4,C3}} {{C6}} {{C2}}"
    );
    if let Some(stats) = proposed.tier_stats() {
        println!("  admission cascade           : {stats}");
    }
}
