use cps_apps::case_study;
use cps_verify::{
    reference, verify_conservative, SlotSharingModel, SlotVerifyEngine, VerificationConfig,
};
use std::time::Instant;

fn profiles(names: &[&str]) -> Vec<cps_core::AppTimingProfile> {
    let apps = case_study::all_applications().unwrap();
    names
        .iter()
        .map(|n| {
            let a = apps.iter().find(|a| a.application().name() == *n).unwrap();
            a.paper_row().to_profile(n).unwrap()
        })
        .collect()
}

fn run(engine: &mut SlotVerifyEngine, names: &[&str], cfg: &VerificationConfig, label: &str) {
    let model = SlotSharingModel::new(profiles(names)).unwrap();
    let before = engine.stats();
    let t = Instant::now();
    let fast = engine.verify(&model, cfg);
    let engine_time = t.elapsed();
    let t = Instant::now();
    let oracle = reference::verify(&model, cfg);
    let oracle_time = t.elapsed();
    let hashing = engine.stats().since(&before);
    match (fast, oracle) {
        (Ok(f), Ok(o)) => {
            assert_eq!(f.schedulable(), o.schedulable(), "{names:?}: verdict mismatch");
            println!(
                "{label} {:?}: schedulable={} | engine {} states {:.2?} | oracle {} states {:.2?}",
                names,
                f.schedulable(),
                f.states_explored(),
                engine_time,
                o.states_explored(),
                oracle_time
            );
            println!(
                "  hashing: {} probes ({} hash-hits, {} hash-skips, {} deep-compares, {} rehashes) | \
                 {} incremental slot updates vs {} full-rehash words ({:.1}x collapse)",
                hashing.intern_probes,
                hashing.hash_hits,
                hashing.hash_skips,
                hashing.deep_compares,
                hashing.rehashes,
                hashing.hash_slot_updates,
                hashing.full_hash_words,
                hashing.hash_work_collapse()
            );
        }
        (f, o) => println!(
            "{label} {:?}: engine {f:?} after {engine_time:.2?}, oracle {o:?} after {oracle_time:.2?}",
            names
        ),
    }
}

fn run_conservative(names: &[&str]) {
    let model = SlotSharingModel::new(profiles(names)).unwrap();
    let t = Instant::now();
    let o = verify_conservative(&model);
    println!(
        "conservative {:?}: schedulable={} time={:.2?}",
        names,
        o.schedulable(),
        t.elapsed()
    );
    for v in o.verdicts() {
        println!(
            "  {}: blocking={} deadline={} safe={}",
            v.name(),
            v.blocking(),
            v.deadline(),
            v.safe()
        );
    }
}

fn main() {
    let exact = VerificationConfig::unbounded();
    let mut engine = SlotVerifyEngine::new();
    run(&mut engine, &["C1", "C5"], &exact, "exact");
    run(&mut engine, &["C1", "C5", "C4"], &exact, "exact");
    run(&mut engine, &["C1", "C5", "C4", "C6"], &exact, "exact");
    run(&mut engine, &["C1", "C5", "C4", "C2"], &exact, "exact");
    run(&mut engine, &["C1", "C5", "C4", "C3"], &exact, "exact");
    run(&mut engine, &["C6", "C2"], &exact, "exact");
    run(&mut engine, &["C6"], &exact, "exact");
    run(
        &mut engine,
        &["C1", "C5", "C4", "C3"],
        &VerificationConfig::bounded(1),
        "bounded1",
    );
    // The prior-work-style worst-case-blocking analysis, `B ≤ D` per
    // application. It agrees with the exact checker on the paper's
    // slot mappings, but rejects the four-application mapping C1/C5/C4/C3
    // (C1's worst-case blocking 13 exceeds its deadline 11) that the exact,
    // dwell-table-aware checker proves schedulable — the coarseness gap the
    // paper closes.
    run_conservative(&["C6", "C2"]);
    run_conservative(&["C1", "C5", "C4"]);
    run_conservative(&["C1", "C5", "C4", "C3"]);
}
