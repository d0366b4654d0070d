//! Mapping-exploration performance report: the tiered-cascade
//! [`MapExplorerEngine`] vs. the plain first-fit driver over
//! [`ModelCheckingOracle`], and the branch-and-bound slot minimizer vs. the
//! retained naive partition search ([`cps_map::reference`]), across three
//! mapping families — repeated sweeps over the paper's case study, symmetric
//! fleets, and heterogeneous random fleets.
//!
//! Every timed model is also checked for engine/oracle equivalence: the
//! cascade's first-fit partition must be **bit-identical** to the plain
//! oracle's (the case study must reproduce the published
//! `{C1,C5,C4,C3} {C6,C2}` partition exactly), and the minimizer's slot
//! count must equal the naive reference search's, with every multi-member
//! slot re-validated by the exact oracle. Any mismatch aborts with a
//! non-zero exit code, which the CI bench-smoke job turns into a failure.
//! Writes `BENCH_map.json` at the repository root. Each family, and the
//! total, reports the cascade's `falsified_rejects` and `walk_samples`: the
//! exact rejects that the verifier's seeded walks decided, and the walk
//! samples that took.
//!
//! Run with `cargo run --release -p cps-bench --bin bench_map` (append
//! `-- --quick` for the reduced CI smoke sizes).

use std::fmt::Write as _;

use cps_bench::fleet::{fleet_profile, random_fleet};
use cps_bench::published_profiles;
use cps_bench::report::{quick_flag, timed, write_report};
use cps_core::AppTimingProfile;
use cps_map::{
    first_fit, reference, MapExplorerEngine, ModelCheckingOracle, SlotOracle, TierStats,
};

/// A fleet plus the label it is reported under.
struct FleetCase {
    label: String,
    fleet: Vec<AppTimingProfile>,
}

struct FirstFitReport {
    name: String,
    models: usize,
    cascade_ms: f64,
    plain_ms: f64,
    cascade_exact_calls: usize,
    plain_exact_calls: usize,
    /// Cascade tier + verifier hash counters of one engine pass.
    tiers: TierStats,
}

impl FirstFitReport {
    fn speedup(&self) -> f64 {
        self.plain_ms / self.cascade_ms
    }

    fn exact_call_ratio(&self) -> f64 {
        self.plain_exact_calls as f64 / (self.cascade_exact_calls.max(1)) as f64
    }
}

/// Benches one first-fit family: the plain side maps every fleet through
/// `first_fit` over one `ModelCheckingOracle` (today's production path), the
/// cascade side maps the same fleets through one `MapExplorerEngine` (fresh
/// per timed pass, so the measurement starts from cold memo tables); both
/// take the better of two passes and every fleet's partitions are asserted
/// bit-identical.
fn bench_first_fit_family(name: &str, cases: &[FleetCase]) -> FirstFitReport {
    let plain_once = || -> (Vec<Vec<Vec<usize>>>, usize) {
        let oracle = ModelCheckingOracle::new();
        let mut exact_calls = 0usize;
        let partitions = cases
            .iter()
            .map(|c| {
                let report = first_fit(&c.fleet, &oracle).expect("plain first-fit runs");
                exact_calls += report.oracle_calls();
                report.slots().to_vec()
            })
            .collect();
        (partitions, exact_calls)
    };
    let ((plain_partitions, plain_exact_calls), first_plain_ms) = timed(plain_once);
    let (_, second_plain_ms) = timed(plain_once);
    let plain_ms = first_plain_ms.min(second_plain_ms);

    let cascade_once = || -> (Vec<Vec<Vec<usize>>>, usize, TierStats) {
        let mut engine = MapExplorerEngine::new();
        let mut exact_calls = 0usize;
        let partitions = cases
            .iter()
            .map(|c| {
                let report = engine.first_fit(&c.fleet).expect("cascade first-fit runs");
                exact_calls += report.tier_stats().expect("cascade stats").exact_verifies;
                report.slots().to_vec()
            })
            .collect();
        (partitions, exact_calls, *engine.stats())
    };
    let ((cascade_partitions, cascade_exact_calls, tiers), first_cascade_ms) = timed(cascade_once);
    let ((second_partitions, _, _), second_cascade_ms) = timed(cascade_once);
    let cascade_ms = first_cascade_ms.min(second_cascade_ms);

    assert_eq!(
        cascade_partitions, second_partitions,
        "{name}: cascade re-run is not deterministic"
    );
    for (case, (cascade, plain)) in cases
        .iter()
        .zip(cascade_partitions.iter().zip(plain_partitions.iter()))
    {
        assert_eq!(
            cascade, plain,
            "{name}/{}: cascade partition diverges from plain first-fit",
            case.label
        );
        println!(
            "  {:<26} {} slots | partition {:?}",
            case.label,
            cascade.len(),
            cascade
        );
    }

    let report = FirstFitReport {
        name: name.to_string(),
        models: cases.len(),
        cascade_ms,
        plain_ms,
        cascade_exact_calls,
        plain_exact_calls,
        tiers,
    };
    println!(
        "{:<22} {:>2} fleets | {:>8.2} ms vs {:>8.2} ms | {:>4} vs {:>4} exact calls | {:>5.1}x wall, {:>5.1}x calls",
        report.name,
        report.models,
        report.cascade_ms,
        report.plain_ms,
        report.cascade_exact_calls,
        report.plain_exact_calls,
        report.speedup(),
        report.exact_call_ratio(),
    );
    println!("  cascade pass: {}", report.tiers);
    report
}

struct MinimizeReportRow {
    name: String,
    models: usize,
    engine_ms: f64,
    reference_ms: f64,
    /// Cascade tier + verifier hash counters of one engine pass.
    tiers: TierStats,
}

impl MinimizeReportRow {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.engine_ms
    }
}

/// Benches one minimizer family: the reference side runs the naive
/// exhaustive partition search over a plain `ModelCheckingOracle`, the
/// engine side runs `minimize_slots` on one fresh `MapExplorerEngine` per
/// pass; slot counts are asserted equal and the engine's partition is
/// re-validated slot by slot through the exact oracle.
fn bench_minimize_family(name: &str, cases: &[FleetCase]) -> MinimizeReportRow {
    let reference_once = || -> Vec<Vec<Vec<usize>>> {
        let oracle = ModelCheckingOracle::new();
        cases
            .iter()
            .map(|c| reference::minimize_slots(&c.fleet, &oracle).expect("reference search runs"))
            .collect()
    };
    let (reference_partitions, first_reference_ms) = timed(reference_once);
    let (_, second_reference_ms) = timed(reference_once);
    let reference_ms = first_reference_ms.min(second_reference_ms);

    // (first-fit incumbent slots, optimal partition) per fleet, plus the
    // engine's cumulative cascade/hashing counters for the pass.
    type MinimizePass = (Vec<(usize, Vec<Vec<usize>>)>, TierStats);
    let engine_once = || -> MinimizePass {
        let mut engine = MapExplorerEngine::new();
        let results = cases
            .iter()
            .map(|c| {
                let report = engine.minimize_slots(&c.fleet).expect("minimizer runs");
                (report.first_fit_slots(), report.slots().to_vec())
            })
            .collect();
        (results, *engine.stats())
    };
    let ((engine_results, tiers), first_engine_ms) = timed(engine_once);
    let (_, second_engine_ms) = timed(engine_once);
    let engine_ms = first_engine_ms.min(second_engine_ms);

    let oracle = ModelCheckingOracle::new();
    for (case, ((first_fit_slots, engine_partition), reference_partition)) in cases
        .iter()
        .zip(engine_results.iter().zip(reference_partitions.iter()))
    {
        assert_eq!(
            engine_partition.len(),
            reference_partition.len(),
            "{name}/{}: minimizer slot count diverges from the reference search",
            case.label
        );
        for slot in engine_partition {
            if slot.len() > 1 {
                assert!(
                    oracle
                        .admits_indices(&case.fleet, slot)
                        .expect("validation verifies"),
                    "{name}/{}: engine emitted an inadmissible slot {slot:?}",
                    case.label
                );
            }
        }
        println!(
            "  {:<26} optimal {} slots (first-fit {first_fit_slots}) | {:?}",
            case.label,
            engine_partition.len(),
            engine_partition
        );
    }

    let report = MinimizeReportRow {
        name: name.to_string(),
        models: cases.len(),
        engine_ms,
        reference_ms,
        tiers,
    };
    println!(
        "{:<22} {:>2} fleets | {:>8.2} ms vs {:>8.2} ms | {:>5.1}x",
        report.name,
        report.models,
        report.engine_ms,
        report.reference_ms,
        report.speedup(),
    );
    println!("  engine pass: {}", report.tiers);
    report
}

fn main() {
    let quick = quick_flag();

    // Repeated sweep over the paper's case study: identical and
    // order-permuted copies of the published fleet — the shape of a
    // design-space sweep, where the plain driver re-verifies every probe and
    // the cascade answers repeats from the memo. Each repetition must
    // reproduce the published partition {C1,C5,C4,C3} {C6,C2} bit-identically.
    let base = published_profiles();
    let reps = if quick { 3 } else { 6 };
    let case_study_cases: Vec<FleetCase> = (0..reps)
        .map(|rep| {
            let mut fleet = base.clone();
            // Rotate the fleet order: first-fit sorts internally, so the
            // probes — and the partition, up to the index relabeling being
            // undone here — stay invariant, and the memo must carry over.
            let shift = rep % fleet.len();
            fleet.rotate_left(shift);
            FleetCase {
                label: format!("case_study_rot{rep}"),
                fleet,
            }
        })
        .collect();
    let case_study_report = bench_first_fit_family("case_study_sweep", &case_study_cases);

    // The unrotated case study must reproduce the published partition
    // exactly: slot members in placement order, C1,C5,C4,C3 then C6,C2.
    {
        let mut engine = MapExplorerEngine::new();
        let mapping = engine.first_fit(&base).expect("case-study mapping runs");
        let names: Vec<&str> = base.iter().map(|p| p.name()).collect();
        let expected: &[Vec<usize>] = &[vec![0, 4, 3, 2], vec![5, 1]];
        assert_eq!(
            mapping.slots(),
            expected,
            "case study must reproduce the published partition bit-identically"
        );
        println!(
            "case-study partition: {}  [{}]",
            mapping.format_with_names(&names),
            mapping.tier_stats().expect("cascade stats"),
        );
    }

    // Symmetric fleets: n interchangeable applications, dimensioned so that
    // exactly `cap` share a slot. The plain driver verifies every probe of
    // every slot; the cascade answers all but one multiset per size from the
    // screen, the gated baseline or the memo.
    let symmetric_sizes: &[(usize, usize)] = if quick {
        &[(6, 2), (9, 3)]
    } else {
        &[(8, 2), (12, 3), (16, 4)]
    };
    let dwell = 3usize;
    let symmetric_cases: Vec<FleetCase> = symmetric_sizes
        .iter()
        .map(|&(n, cap)| {
            let fleet: Vec<AppTimingProfile> = (0..n)
                .map(|i| fleet_profile(&format!("S{i}"), dwell * (cap - 1), dwell, 60))
                .collect();
            FleetCase {
                label: format!("fleet_{n}_cap{cap}"),
                fleet,
            }
        })
        .collect();
    let symmetric_report = bench_first_fit_family("symmetric_fleet", &symmetric_cases);

    // Heterogeneous random fleets drawn from small per-fleet pools:
    // duplicated profiles appear in every adjacency pattern, asymmetric ones
    // keep the exact tier honest.
    let (fleets, size) = if quick { (2, 7) } else { (4, 9) };
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let hetero_cases: Vec<FleetCase> = (0..fleets)
        .map(|f| FleetCase {
            label: format!("random_{f}_n{size}"),
            fleet: random_fleet(&mut state, f, 3, size),
        })
        .collect();
    let hetero_report = bench_first_fit_family("heterogeneous_random", &hetero_cases);

    // Minimizer: branch-and-bound vs. the naive exhaustive partition search
    // on small fleets (the reference enumerates every partition, so fleet
    // sizes stay in Bell-number territory).
    let minimize_cases: Vec<FleetCase> = {
        // Small inter-arrival keeps every exact model tiny: the comparison
        // isolates the search redundancy (the reference re-verifies every
        // block of every enumerated partition), not verifier size.
        let p = |name: &str, max_wait: usize, dwell: usize| {
            let jstar = max_wait + dwell + 1;
            fleet_profile(name, max_wait, dwell, jstar + 8)
        };
        let mut cases = vec![
            FleetCase {
                label: "pairs_5".to_string(),
                fleet: vec![
                    p("A", 2, 2),
                    p("B", 2, 2),
                    p("C", 2, 2),
                    p("D", 2, 2),
                    p("E", 2, 2),
                ],
            },
            FleetCase {
                label: "mixed_5".to_string(),
                fleet: vec![
                    p("A", 0, 3),
                    p("B", 6, 2),
                    p("C", 6, 2),
                    p("D", 3, 1),
                    p("E", 3, 1),
                ],
            },
        ];
        if !quick {
            cases.push(FleetCase {
                label: "dup_6".to_string(),
                fleet: vec![
                    p("A", 4, 2),
                    p("B", 4, 2),
                    p("C", 4, 2),
                    p("D", 1, 1),
                    p("E", 1, 1),
                    p("F", 4, 2),
                ],
            });
            cases.push(FleetCase {
                label: "mixed_7".to_string(),
                fleet: vec![
                    p("A", 4, 2),
                    p("B", 4, 2),
                    p("C", 6, 2),
                    p("D", 6, 2),
                    p("E", 2, 1),
                    p("F", 2, 1),
                    p("G", 4, 2),
                ],
            });
        }
        cases
    };
    let minimize_report = bench_minimize_family("minimize_small", &minimize_cases);

    let first_fit_reports = [case_study_report, symmetric_report, hetero_report];
    let json = render_json(quick, &first_fit_reports, &minimize_report);
    write_report("map", &json);

    let total_plain: f64 = first_fit_reports.iter().map(|r| r.plain_ms).sum();
    let total_cascade: f64 = first_fit_reports.iter().map(|r| r.cascade_ms).sum();
    println!(
        "first-fit total: {total_cascade:.2} ms cascade vs {total_plain:.2} ms plain ({:.1}x); \
         minimizer: {:.2} ms engine vs {:.2} ms reference ({:.1}x)",
        total_plain / total_cascade,
        minimize_report.engine_ms,
        minimize_report.reference_ms,
        minimize_report.speedup(),
    );
}

fn render_json(
    quick: bool,
    first_fit_reports: &[FirstFitReport],
    minimize_report: &MinimizeReportRow,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let total_plain: f64 = first_fit_reports.iter().map(|r| r.plain_ms).sum();
    let total_cascade: f64 = first_fit_reports.iter().map(|r| r.cascade_ms).sum();
    let _ = writeln!(
        json,
        "  \"overall_first_fit_speedup\": {:.1},",
        total_plain / total_cascade
    );
    // Aggregated interning/hashing counters across all first-fit families
    // plus the minimizer pass — the fields the CI bench-smoke job sanity
    // checks for presence and non-zero values.
    let all_tiers: Vec<&TierStats> = first_fit_reports
        .iter()
        .map(|r| &r.tiers)
        .chain(std::iter::once(&minimize_report.tiers))
        .collect();
    let sum = |f: &dyn Fn(&TierStats) -> usize| -> usize { all_tiers.iter().map(|t| f(t)).sum() };
    let _ = writeln!(json, "  \"memo_hits\": {},", sum(&|t| t.memo_hits));
    let _ = writeln!(json, "  \"tt_evictions\": {},", sum(&|t| t.tt_evictions));
    let _ = writeln!(
        json,
        "  \"falsified_rejects\": {},",
        sum(&|t| t.falsified_rejects)
    );
    let _ = writeln!(json, "  \"walk_samples\": {},", sum(&|t| t.walk_samples));
    let _ = writeln!(
        json,
        "  \"verify_intern_probes\": {},",
        sum(&|t| t.verify.intern_probes)
    );
    let _ = writeln!(
        json,
        "  \"verify_hash_hits\": {},",
        sum(&|t| t.verify.hash_hits)
    );
    let _ = writeln!(
        json,
        "  \"verify_hash_slot_updates\": {},",
        sum(&|t| t.verify.hash_slot_updates)
    );
    json.push_str("  \"first_fit_families\": [\n");
    for (i, r) in first_fit_reports.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"fleets\": {}, \"cascade_ms\": {:.3}, \
             \"plain_ms\": {:.3}, \"cascade_exact_calls\": {}, \"plain_exact_calls\": {}, \
             \"speedup\": {:.1}, \"exact_call_ratio\": {:.1}, \
             \"memo_hits\": {}, \"tt_evictions\": {}, \"falsified_rejects\": {}, \
             \"walk_samples\": {}, \"verify_intern_probes\": {}, \
             \"verify_hash_hits\": {}, \"verify_rehashes\": {}}}{}",
            r.name,
            r.models,
            r.cascade_ms,
            r.plain_ms,
            r.cascade_exact_calls,
            r.plain_exact_calls,
            r.speedup(),
            r.exact_call_ratio(),
            r.tiers.memo_hits,
            r.tiers.tt_evictions,
            r.tiers.falsified_rejects,
            r.tiers.walk_samples,
            r.tiers.verify.intern_probes,
            r.tiers.verify.hash_hits,
            r.tiers.verify.rehashes,
            if i + 1 == first_fit_reports.len() {
                ""
            } else {
                ","
            }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"minimize\": {{\"name\": \"{}\", \"fleets\": {}, \"engine_ms\": {:.3}, \
         \"reference_ms\": {:.3}, \"speedup\": {:.1}, \"memo_hits\": {}, \
         \"tt_evictions\": {}, \"falsified_rejects\": {}, \"walk_samples\": {}, \
         \"verify_intern_probes\": {}, \"verify_hash_hits\": {}, \"verify_rehashes\": {}}},",
        minimize_report.name,
        minimize_report.models,
        minimize_report.engine_ms,
        minimize_report.reference_ms,
        minimize_report.speedup(),
        minimize_report.tiers.memo_hits,
        minimize_report.tiers.tt_evictions,
        minimize_report.tiers.falsified_rejects,
        minimize_report.tiers.walk_samples,
        minimize_report.tiers.verify.intern_probes,
        minimize_report.tiers.verify.hash_hits,
        minimize_report.tiers.verify.rehashes,
    );
    let _ = writeln!(
        json,
        "  \"case_study_partition\": \"{{C1, C5, C4, C3}}  {{C6, C2}}\""
    );
    json.push_str("}\n");
    json
}
