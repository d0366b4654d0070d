//! Slot-sharing verification performance report: the interned-state
//! [`SlotVerifyEngine`] vs. the retained naive checker
//! ([`cps_verify::reference`]) across four model families — the paper's
//! exact case-study mappings, the instance-bounded acceleration, symmetric
//! fleets where the engine's symmetry reduction collapses permutation
//! orbits, and random fleets the exact verifier rejects, where the
//! lookahead decides each miss.
//!
//! Every timed model is also checked for engine/oracle equivalence: verdicts
//! must match, the engine must never pop more states than the oracle (and
//! must pop *exactly* as many, and return the identical witness, on models
//! without interchangeable applications), and every counterexample witness
//! must replay through the scheduler semantics via
//! [`cps_verify::validate_witness`]. Any mismatch aborts with a non-zero
//! exit code, which the CI bench-smoke job turns into a failure. Writes
//! `BENCH_verify.json` at the repository root; its top-level
//! `engine_states` sums the popped states of every family. Each family
//! reports its engine time per popped state (`engine_ns_per_state`) and
//! per intern probe (`engine_ns_per_probe`): a miss probes about three
//! times per pop, so the second compares the families by the engine's
//! work.
//!
//! Run with `cargo run --release -p cps-bench --bin bench_verify`. The
//! bench has one size, the one the CI bench-smoke job runs. The engine's
//! pool width (`CPS_THREADS`, else the machine's parallelism) is recorded as
//! `pool_threads`; the committed report is recorded at width 1, so its
//! speedups are single-thread.

use std::fmt::Write as _;

use cps_bench::fleet::random_fleet;
use cps_bench::published_profiles;
use cps_bench::report::{timed, write_report};
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_verify::bounded::sufficient_instance_bound;
use cps_verify::{
    has_interchangeable_neighbors, reference, validate_witness, SlotSharingModel, SlotVerifyEngine,
    VerificationConfig, VerificationOutcome, VerifyStats,
};

struct ModelCase {
    label: String,
    model: SlotSharingModel,
    config: VerificationConfig,
}

fn case_study_model(names: &[&str]) -> SlotSharingModel {
    let profiles = published_profiles();
    let selected: Vec<AppTimingProfile> = profiles
        .iter()
        .filter(|p| names.contains(&p.name()))
        .cloned()
        .collect();
    SlotSharingModel::new(selected).expect("non-empty case-study model")
}

/// A constant-dwell synthetic profile for the symmetric-fleet family.
fn fleet_profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
    let jstar = max_wait + dwell + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell; max_wait + 1], vec![dwell; max_wait + 1])
            .expect("consistent dwell table");
    AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table)
        .expect("consistent profile")
}

struct FamilyReport {
    name: String,
    models: usize,
    engine_ms: f64,
    oracle_ms: f64,
    engine_states: usize,
    oracle_states: usize,
    /// Hash/probe work of one engine pass over the family (identical across
    /// passes — asserted).
    verify: VerifyStats,
}

impl FamilyReport {
    fn speedup(&self) -> f64 {
        self.oracle_ms / self.engine_ms
    }

    /// Engine wall time per explored state: the cost per state, apart from
    /// how many states the family has.
    fn engine_ns_per_state(&self) -> f64 {
        self.engine_ms * 1e6 / self.engine_states.max(1) as f64
    }

    /// Engine wall time per intern probe. A popped state probes once per
    /// successor, and a search that misses generates more successors per
    /// pop, so this compares families by the work the engine did.
    fn engine_ns_per_probe(&self) -> f64 {
        self.engine_ms * 1e6 / self.verify.intern_probes.max(1) as f64
    }
}

/// Asserts the equivalence contract between one engine and one oracle run.
fn assert_equivalent(
    label: &str,
    model: &SlotSharingModel,
    fast: &VerificationOutcome,
    oracle: &VerificationOutcome,
) {
    assert_eq!(
        fast.schedulable(),
        oracle.schedulable(),
        "{label}: engine verdict diverges from the oracle"
    );
    assert!(
        fast.states_explored() <= oracle.states_explored(),
        "{label}: engine popped {} states, oracle {}",
        fast.states_explored(),
        oracle.states_explored()
    );
    if !has_interchangeable_neighbors(model) {
        assert_eq!(
            fast.states_explored(),
            oracle.states_explored(),
            "{label}: popped-state counts must match without interchangeable applications"
        );
        assert_eq!(
            fast.witness(),
            oracle.witness(),
            "{label}: witnesses must match without interchangeable applications"
        );
    }
    assert_eq!(
        fast.witness().is_some(),
        oracle.witness().is_some(),
        "{label}: witness presence diverges"
    );
    for (side, outcome) in [("engine", fast), ("oracle", oracle)] {
        if let Some(witness) = outcome.witness() {
            validate_witness(model, witness)
                .unwrap_or_else(|e| panic!("{label}: {side} witness fails replay: {e}"));
        }
    }
}

/// Benches one family: the oracle runs every model through the retained
/// naive checker, the engine runs the same models through one reused
/// [`SlotVerifyEngine`] (fresh per timed pass, so the measurement starts
/// from cold buffers); both sides take the better of two passes and every
/// model's outcomes are checked for equivalence.
fn bench_family(name: &str, cases: &[ModelCase]) -> FamilyReport {
    let oracle_once = || -> Vec<VerificationOutcome> {
        cases
            .iter()
            .map(|c| reference::verify(&c.model, &c.config).expect("oracle verifies"))
            .collect()
    };
    let (oracle_results, first_oracle_ms) = timed(oracle_once);
    let (_, second_oracle_ms) = timed(oracle_once);
    let oracle_ms = first_oracle_ms.min(second_oracle_ms);

    let engine_once = || -> (Vec<VerificationOutcome>, VerifyStats) {
        let mut engine = SlotVerifyEngine::new();
        let outcomes = cases
            .iter()
            .map(|c| engine.verify(&c.model, &c.config).expect("engine verifies"))
            .collect();
        (outcomes, engine.stats())
    };
    let ((engine_results, verify_stats), first_engine_ms) = timed(engine_once);
    let ((second_results, second_stats), second_engine_ms) = timed(engine_once);
    assert_eq!(
        engine_results.len(),
        second_results.len(),
        "{name}: engine re-run is not deterministic"
    );
    assert_eq!(
        verify_stats, second_stats,
        "{name}: engine hash/probe work is not deterministic"
    );
    for (a, b) in engine_results.iter().zip(second_results.iter()) {
        assert_eq!(
            (a.schedulable(), a.states_explored()),
            (b.schedulable(), b.states_explored()),
            "{name}: engine re-run is not deterministic"
        );
    }
    let engine_ms = first_engine_ms.min(second_engine_ms);

    for (case, (fast, oracle)) in cases
        .iter()
        .zip(engine_results.iter().zip(oracle_results.iter()))
    {
        assert_equivalent(&format!("{name}/{}", case.label), &case.model, fast, oracle);
        println!(
            "  {:<24} schedulable={} | {:>7} vs {:>8} states",
            case.label,
            fast.schedulable(),
            fast.states_explored(),
            oracle.states_explored(),
        );
    }

    let report = FamilyReport {
        name: name.to_string(),
        models: cases.len(),
        engine_ms,
        oracle_ms,
        engine_states: engine_results.iter().map(|o| o.states_explored()).sum(),
        oracle_states: oracle_results.iter().map(|o| o.states_explored()).sum(),
        verify: verify_stats,
    };
    println!(
        "{:<22} {:>2} models | {:>9.2} ms vs {:>9.2} ms | {:>7} vs {:>8} states | {:>6.1}x | {:>6.1} ns/state, {:>6.1} ns/probe",
        report.name,
        report.models,
        report.engine_ms,
        report.oracle_ms,
        report.engine_states,
        report.oracle_states,
        report.speedup(),
        report.engine_ns_per_state(),
        report.engine_ns_per_probe(),
    );
    println!(
        "  hashing: {} probes ({:.1}% hash-hit, {} skips, {} deep-compares), \
         {} rehashes ({} entries re-bucketed), {} slot updates vs {} full-width words ({:.1}x less hash work)",
        report.verify.intern_probes,
        100.0 * report.verify.hash_hits as f64 / report.verify.intern_probes.max(1) as f64,
        report.verify.hash_skips,
        report.verify.deep_compares,
        report.verify.rehashes,
        report.verify.rehashed_entries,
        report.verify.hash_slot_updates,
        report.verify.full_hash_words,
        report.verify.hash_work_collapse(),
    );
    report
}

fn main() {
    let mut reports = Vec::new();

    // The paper's exact (unbounded sporadic) slot mappings, hardest last:
    // verifying {C1,C5,C4,C3} is the check that took UPPAAL ~5 h unbounded
    // and unlocks the two-slot partition.
    let exact_names: &[&[&str]] = &[
        &["C6", "C2"],
        &["C1", "C5", "C4"],
        &["C1", "C5", "C4", "C6"],
        &["C1", "C5", "C4", "C3"],
    ];
    let exact_cases: Vec<ModelCase> = exact_names
        .iter()
        .map(|names| ModelCase {
            label: names.join("_"),
            model: case_study_model(names),
            config: VerificationConfig::unbounded(),
        })
        .collect();
    reports.push(bench_family("case_study_exact", &exact_cases));

    // The paper's acceleration: the case-study mappings under the
    // sufficient per-application disturbance-instance bound. In this
    // discrete formulation the bounded model is far *larger* than the exact
    // one: the instance counters stop recurrent disturbances from merging
    // into visited states and leave no idle cell for dominance pruning (see
    // `VerificationConfig::default`). The family therefore stops at the
    // unschedulable four-application mapping: the schedulable
    // {C1,C5,C4,C3} bounded model exceeds the naive oracle's memory, while
    // the exact family above already covers it.
    let bounded_names: &[&[&str]] = &[
        &["C6", "C2"],
        &["C1", "C5", "C4"],
        &["C1", "C5", "C4", "C6"],
    ];
    let bounded_cases: Vec<ModelCase> = bounded_names
        .iter()
        .map(|names| {
            let model = case_study_model(names);
            let bound = sufficient_instance_bound(&model);
            ModelCase {
                label: format!("{}_b{bound}", names.join("_")),
                model,
                config: VerificationConfig::bounded(bound),
            }
        })
        .collect();
    reports.push(bench_family("case_study_bounded", &bounded_cases));

    // Symmetric fleets: k interchangeable applications contending for one
    // slot (each needs `dwell` samples and can wait exactly long enough for
    // the fleet to be schedulable). The engine's symmetry reduction
    // collapses the permutation orbits, so the gap to the oracle grows with
    // the fleet size.
    // Dominance pruning removes most of the product of the inter-arrival
    // phases (~ r^k), but not the permutations, so the oracle's count still
    // grows fastest with k; r shrinks with the fleet size to keep the naive
    // side short.
    let fleet_sizes: &[(usize, usize, usize)] = &[(3, 3, 40), (4, 3, 40), (5, 2, 20)];
    let fleet_cases: Vec<ModelCase> = fleet_sizes
        .iter()
        .map(|&(k, dwell, r)| {
            let profiles: Vec<AppTimingProfile> = (0..k)
                .map(|i| fleet_profile(&format!("S{i}"), dwell * (k - 1), dwell, r))
                .collect();
            ModelCase {
                label: format!("fleet_{k}x{dwell}"),
                model: SlotSharingModel::new(profiles).expect("non-empty fleet"),
                config: VerificationConfig::unbounded(),
            }
        })
        .collect();
    reports.push(bench_family("symmetric_fleet", &fleet_cases));

    // Random fleets of 3–5 applications that the exact verifier rejects:
    // misses dominate the verify layer of the admission churn, and the
    // lookahead decides each one when it interns the state that leads to
    // it. Fleets with interchangeable neighbours are skipped, so the engine
    // must pop exactly the oracle's states and return its witness.
    let mut rng = 0x05EE_D0FF_1EE7_u64;
    let mut miss_cases: Vec<ModelCase> = Vec::new();
    let mut screen = SlotVerifyEngine::new();
    for draw in 0.. {
        if miss_cases.len() == 9 {
            break;
        }
        let size = 3 + miss_cases.len() % 3;
        let model = SlotSharingModel::new(random_fleet(&mut rng, draw, size, size))
            .expect("non-empty fleet");
        let config = VerificationConfig::unbounded();
        if has_interchangeable_neighbors(&model)
            || screen
                .verify(&model, &config)
                .expect("engine verifies")
                .schedulable()
        {
            continue;
        }
        miss_cases.push(ModelCase {
            label: format!("random_{size}_draw{draw}"),
            model,
            config,
        });
    }
    reports.push(bench_family("random_fleet_miss", &miss_cases));

    let json = render_json(&reports);
    write_report("verify", &json);

    let total_oracle: f64 = reports.iter().map(|r| r.oracle_ms).sum();
    let total_engine: f64 = reports.iter().map(|r| r.engine_ms).sum();
    println!(
        "verification total: {total_engine:.2} ms engine vs {total_oracle:.2} ms oracle ({:.1}x)",
        total_oracle / total_engine
    );
    let worst = reports
        .iter()
        .map(FamilyReport::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("worst speedup across families: {worst:.1}x");
}

fn render_json(reports: &[FamilyReport]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let total_oracle: f64 = reports.iter().map(|r| r.oracle_ms).sum();
    let total_engine: f64 = reports.iter().map(|r| r.engine_ms).sum();
    let _ = writeln!(
        json,
        "  \"pool_threads\": {},",
        cps_par::Pool::from_env().threads()
    );
    let _ = writeln!(
        json,
        "  \"overall_speedup\": {:.1},",
        total_oracle / total_engine
    );
    let states: usize = reports.iter().map(|r| r.engine_states).sum();
    let _ = writeln!(json, "  \"engine_states\": {states},");
    let probes: usize = reports.iter().map(|r| r.verify.intern_probes).sum();
    let hits: usize = reports.iter().map(|r| r.verify.hash_hits).sum();
    let incremental: usize = reports.iter().map(|r| r.verify.hash_slot_updates).sum();
    let full_equiv: usize = reports.iter().map(|r| r.verify.full_hash_words).sum();
    let _ = writeln!(json, "  \"intern_probes\": {probes},");
    let _ = writeln!(json, "  \"hash_hits\": {hits},");
    let _ = writeln!(
        json,
        "  \"hash_hit_share\": {:.3},",
        hits as f64 / probes.max(1) as f64
    );
    let _ = writeln!(json, "  \"hash_words_incremental\": {incremental},");
    let _ = writeln!(json, "  \"hash_words_full_equiv\": {full_equiv},");
    let _ = writeln!(
        json,
        "  \"hash_work_collapse\": {:.1},",
        full_equiv as f64 / incremental.max(1) as f64
    );
    json.push_str("  \"families\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"models\": {}, \"engine_ms\": {:.3}, \
             \"oracle_ms\": {:.3}, \"engine_states\": {}, \"oracle_states\": {}, \
             \"engine_ns_per_state\": {:.1}, \"engine_ns_per_probe\": {:.1}, \
             \"speedup\": {:.1}, \
             \"intern_probes\": {}, \"hash_hits\": {}, \"hash_skips\": {}, \
             \"deep_compares\": {}, \"rehashes\": {}, \"rehashed_entries\": {}, \
             \"hash_words_incremental\": {}, \"hash_words_full_equiv\": {}, \
             \"hash_work_collapse\": {:.1}}}{}",
            r.name,
            r.models,
            r.engine_ms,
            r.oracle_ms,
            r.engine_states,
            r.oracle_states,
            r.engine_ns_per_state(),
            r.engine_ns_per_probe(),
            r.speedup(),
            r.verify.intern_probes,
            r.verify.hash_hits,
            r.verify.hash_skips,
            r.verify.deep_compares,
            r.verify.rehashes,
            r.verify.rehashed_entries,
            r.verify.hash_slot_updates,
            r.verify.full_hash_words,
            r.verify.hash_work_collapse(),
            if i + 1 == reports.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    json
}
