//! Two traced runs of one workload at one seed must do exactly the same
//! work: every deterministic per-layer count (`MetricSpec::exact`) repeats,
//! on the main seed and on the holdout seed, and every correctness check
//! passes on both. Later changes can then cite exact count changes, not only
//! timings.

use std::time::Duration;

use cps_e2ebench::{run, RunConfig, Workload, PER_LAYER};

/// The seed the counts in `README.md` were recorded at.
const MAIN_SEED: u64 = 1;
/// A seed not used while the benchmark was tuned.
const HOLDOUT_SEED: u64 = 7;

/// The deterministic counts of one traced run, which must pass every check.
fn exact_counts(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let config = RunConfig {
        workload,
        seed,
        seconds: Duration::ZERO,
        trace: true,
    };
    let outcome = run(&config).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    assert!(
        outcome.correct && outcome.failed == 0,
        "{} seed {seed}: {:?}",
        workload.name(),
        outcome.notes
    );
    PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, outcome.metrics[m.name]))
        .collect()
}

#[test]
fn traced_counts_repeat_on_the_main_and_the_holdout_seed() {
    // The width `run.py` sets: `run` refuses any other.
    std::env::set_var(cps_par::THREADS_ENV, "1");
    for workload in Workload::ALL {
        for seed in [MAIN_SEED, HOLDOUT_SEED] {
            let first = exact_counts(workload, seed);
            assert_eq!(
                first,
                exact_counts(workload, seed),
                "{} seed {seed}",
                workload.name()
            );
            let count = |name| first.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let verifies = count("map.exact_verifies").expect("a declared count");
            match workload {
                Workload::AdmitChurnWarm => assert_eq!(verifies, 0.0, "seed {seed}"),
                _ => assert!(verifies > 0.0, "{} seed {seed}", workload.name()),
            }
        }
    }
}
