//! Full slot dimensioning of the paper's six-application case study:
//! first-fit mapping with the exact model-checking oracle versus the
//! conservative baseline analysis.
//!
//! Run with `cargo run --release --example slot_dimensioning`
//! (release recommended: the exact verification of four applications sharing
//! one slot explores about a million states).

use cps_apps::case_study;
use cps_map::baseline::Strategy;
use cps_map::{first_fit, BaselineOracle, MapExplorerEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Use the published Table 1 timing data directly (no recomputation).
    let apps = case_study::all_applications()?;
    let profiles: Vec<_> = apps
        .iter()
        .map(|a| a.paper_row().to_profile(a.application().name()))
        .collect::<Result<_, _>>()?;
    let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();

    // The mapping explorer runs the exact model checking behind a tiered
    // admission cascade; the partition is identical to plain first-fit over
    // `ModelCheckingOracle`, and the tier statistics show what each probe
    // actually cost.
    let mut engine = MapExplorerEngine::new();
    let proposed = engine.first_fit(&profiles)?;
    println!(
        "switching strategy + model checking: {} slots  {}",
        proposed.slot_count(),
        proposed.format_with_names(&names)
    );
    if let Some(stats) = proposed.tier_stats() {
        println!("  admission cascade: {stats}");
    }

    // The branch-and-bound minimizer proves the first-fit partition is
    // optimal: no single-slot packing of the case study exists. After the
    // first-fit run every search probe is answered from the memo table.
    let optimal = engine.minimize_slots(&profiles)?;
    println!(
        "provably minimal dimensioning      : {} slots  {}  ({} search nodes)",
        optimal.slot_count(),
        optimal.format_with_names(&names),
        optimal.nodes_explored()
    );

    let baseline = first_fit(
        &profiles,
        &BaselineOracle::with_strategy(Strategy::NonPreemptiveDeadlineMonotonic),
    )?;
    println!(
        "conservative baseline analysis     : {} slots  {}",
        baseline.slot_count(),
        baseline.format_with_names(&names)
    );
    println!(
        "slot saving: {:.0}% (paper reports 50% against its 4-slot baseline)",
        100.0 * proposed.saving_versus(&baseline)
    );
    Ok(())
}
