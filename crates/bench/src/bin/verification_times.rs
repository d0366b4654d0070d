//! Reproduces the verification-time discussion of Sec. 5: the cost of
//! verifying each slot mapping, exact versus instance-bounded.
//!
//! Every mapping is verified twice — on the interned-state
//! [`SlotVerifyEngine`] (the production path) and on the retained naive
//! checker ([`cps_verify::reference`]) — and the times are printed side by
//! side; a verdict disagreement aborts. Append `--quick` to skip the two
//! four-application rows (the CI smoke size).

use std::time::Instant;

use cps_bench::published_profiles;
use cps_verify::{reference, SlotSharingModel, SlotVerifyEngine, VerificationConfig};

fn time_verification(engine: &mut SlotVerifyEngine, names: &[&str], config: &VerificationConfig) {
    let profiles = published_profiles();
    let selected: Vec<_> = profiles
        .iter()
        .filter(|p| names.contains(&p.name()))
        .cloned()
        .collect();
    let model = SlotSharingModel::new(selected).expect("non-empty model");
    let label = if config.max_disturbances_per_app.is_some() {
        "bounded"
    } else {
        "exact"
    };

    let start = Instant::now();
    let fast = engine.verify(&model, config);
    let engine_time = start.elapsed();
    let start = Instant::now();
    let oracle = reference::verify(&model, config);
    let oracle_time = start.elapsed();

    match (fast, oracle) {
        (Ok(fast), Ok(oracle)) => {
            assert_eq!(
                fast.schedulable(),
                oracle.schedulable(),
                "{names:?}: engine verdict diverges from the oracle"
            );
            println!(
                "  {:?} ({}): schedulable={} | engine {:>6} states {:>9.2?} | oracle {:>7} states {:>9.2?}",
                names,
                label,
                fast.schedulable(),
                fast.states_explored(),
                engine_time,
                oracle.states_explored(),
                oracle_time,
            );
        }
        (fast, oracle) => println!(
            "  {:?} ({}): engine {:?} after {:.2?}, oracle {:?} after {:.2?}",
            names,
            label,
            fast.map(|o| o.schedulable()),
            engine_time,
            oracle.map(|o| o.schedulable()),
            oracle_time,
        ),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("Verification times (Sec. 5 discussion), engine vs naive oracle");
    let exact = VerificationConfig::default();
    let bounded = VerificationConfig::bounded(1);
    let mut engine = SlotVerifyEngine::new();
    time_verification(&mut engine, &["C1", "C5"], &exact);
    time_verification(&mut engine, &["C1", "C5", "C4"], &exact);
    if !quick {
        time_verification(&mut engine, &["C1", "C5", "C4", "C3"], &exact);
        time_verification(&mut engine, &["C1", "C5", "C4", "C3"], &bounded);
    }
    time_verification(&mut engine, &["C6", "C2"], &exact);
    println!("  paper: the hardest mapping took ~5 h unbounded and ~15 min with bounded disturbance instances in UPPAAL;");
    println!("  here the exact model is the cheaper one: dominance pruning skips every state whose cooldowns a visited");
    println!("  state dominates, which the bounded model's instance counters rule out, so it explores far more states.");
}
