//! Online-admission soak report: a seeded arrival/departure trace replayed
//! through the `cps-admit` service, cold and warm.
//!
//! The trace drives one [`AdmissionService`] per run: applications drawn
//! from a small synthetic pool arrive and depart under a resident-fleet
//! cap, and every admission is timed end to end through the message queue
//! (client send → worker repair → reply). The cold run starts from empty
//! caches; the warm run restarts from the cold run's snapshot and replays
//! the *same* trace, so every repair probe is answerable from the restored
//! memo — the cold-vs-warm deltas in p50/p99 latency and memo hit rate are
//! the quantities this bench exists to measure.
//!
//! Correctness rides along: at sampled checkpoints (and at the end) the
//! service's partition is asserted **bit-identical** to a from-scratch
//! batch [`MapExplorerEngine::first_fit`] over a mirrored fleet, the warm
//! run must reproduce the cold run's checkpoint partitions exactly, send
//! the same number of probes to the cascade, finish with zero exact
//! verifications, a strictly higher memo hit rate, and a lower p99 than the
//! cold run. Any violation aborts with a non-zero exit
//! code, which the CI admit-soak-smoke job turns into a failure. Writes
//! `BENCH_admit.json` at the repository root.
//!
//! Run with `cargo run --release -p cps-bench --bin bench_admit` (append
//! `-- --quick` for the reduced CI smoke sizes).

use std::time::Instant;

use cps_admit::AdmissionService;
use cps_bench::fleet::{next_below, random_profile};
use cps_bench::report::{quick_flag, write_report, JsonReport};
use cps_core::AppTimingProfile;
use cps_map::MapExplorerEngine;

/// One step of the soak trace.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// Admit a renamed copy of this pool profile.
    Arrive(usize),
    /// Evict this resident fleet index.
    Depart(usize),
}

/// Builds the seeded trace: arrivals dominate until the resident cap, every
/// departure picks a uniformly random resident. The same seed always yields
/// the same trace, so cold and warm runs replay identical operations.
fn build_trace(state: &mut u64, ops: usize, pool_len: usize, max_resident: usize) -> Vec<TraceOp> {
    let mut resident = 0usize;
    (0..ops)
        .map(|_| {
            let arrive = resident == 0 || (resident < max_resident && next_below(state, 4) != 0);
            if arrive {
                resident += 1;
                TraceOp::Arrive(next_below(state, pool_len as u64) as usize)
            } else {
                let victim = next_below(state, resident as u64) as usize;
                resident -= 1;
                TraceOp::Depart(victim)
            }
        })
        .collect()
}

/// Everything one replay produces: latencies, lifetime cascade counters, and
/// the checkpoint partitions for cross-run identity checks.
struct RunMetrics {
    admit_latencies_us: Vec<f64>,
    queries: usize,
    memo_hits: usize,
    anti_monotone_rejects: usize,
    exact_verifies: usize,
    checkpoints: Vec<Vec<Vec<usize>>>,
    snapshot: Vec<u8>,
}

impl RunMetrics {
    fn memo_hit_rate(&self) -> f64 {
        self.memo_hits as f64 / self.queries.max(1) as f64
    }

    fn index_reject_rate(&self) -> f64 {
        self.anti_monotone_rejects as f64 / self.queries.max(1) as f64
    }
}

/// Percentile over a latency population (nearest-rank).
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Replays the trace through one service. `snapshot` warm-starts the worker
/// when given. Checkpoints every `check_every` operations assert the service
/// partition bit-identical to a from-scratch batch rebuild of the mirrored
/// fleet.
fn replay(
    label: &str,
    snapshot: Option<&[u8]>,
    pool: &[AppTimingProfile],
    trace: &[TraceOp],
    check_every: usize,
) -> RunMetrics {
    let service = match snapshot {
        Some(bytes) => AdmissionService::spawn_warm(bytes).expect("cold snapshot restores"),
        None => AdmissionService::spawn(),
    };
    let client = service.client();
    let mut mirror: Vec<AppTimingProfile> = Vec::new();
    let mut admit_latencies_us = Vec::new();
    let mut checkpoints = Vec::new();
    let mut arrivals = 0usize;
    for (step, op) in trace.iter().enumerate() {
        match *op {
            TraceOp::Arrive(pool_idx) => {
                // Renamed per arrival (fingerprints ignore names), mirroring
                // how distinct applications share timing contents.
                let p = &pool[pool_idx];
                let profile = AppTimingProfile::new(
                    format!("T{arrivals}"),
                    p.jt(),
                    p.je(),
                    p.jstar(),
                    p.min_inter_arrival(),
                    p.dwell_table().clone(),
                )
                .expect("renamed profile stays consistent");
                arrivals += 1;
                mirror.push(profile.clone());
                let start = Instant::now();
                client.admit(profile).expect("admission succeeds");
                admit_latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            TraceOp::Depart(index) => {
                mirror.remove(index);
                client.evict(index).expect("eviction succeeds");
            }
        }
        if (step + 1) % check_every == 0 || step + 1 == trace.len() {
            let stats = client.stats().expect("stats answered");
            let mut batch = MapExplorerEngine::new();
            let expected = batch.first_fit(&mirror).expect("batch rebuild runs");
            assert_eq!(
                stats.slots,
                expected.slots(),
                "{label}: service partition diverged from the batch oracle at step {}",
                step + 1
            );
            checkpoints.push(stats.slots);
        }
    }
    let stats = client.stats().expect("stats answered");
    let snapshot = client.snapshot().expect("snapshot answered");
    drop(client);
    service
        .shutdown()
        .expect("admission service drains at shutdown");
    RunMetrics {
        admit_latencies_us,
        queries: stats.tier.queries,
        memo_hits: stats.tier.memo_hits,
        anti_monotone_rejects: stats.tier.anti_monotone_rejects,
        exact_verifies: stats.tier.exact_verifies,
        checkpoints,
        snapshot,
    }
}

fn main() {
    let quick = quick_flag();
    let (ops, max_resident) = if quick { (120, 10) } else { (480, 14) };
    let mut state = 0xA076_1D64_78BD_642Fu64;
    let pool: Vec<AppTimingProfile> = (0..4).map(|i| random_profile(&mut state, i)).collect();
    let trace = build_trace(&mut state, ops, pool.len(), max_resident);
    let arrivals = trace
        .iter()
        .filter(|op| matches!(op, TraceOp::Arrive(_)))
        .count();
    let check_every = if quick { 8 } else { 16 };

    let cold = replay("cold", None, &pool, &trace, check_every);
    let warm = replay("warm", Some(&cold.snapshot), &pool, &trace, check_every);

    assert_eq!(
        cold.checkpoints, warm.checkpoints,
        "warm replay must reproduce the cold run's partitions bit-identically"
    );
    assert_eq!(
        warm.exact_verifies, 0,
        "a warm replay of the same trace must be answered entirely from the caches"
    );
    assert_eq!(
        cold.queries, warm.queries,
        "which probes a repair skips must depend on the partitions alone, not on the caches"
    );
    assert!(
        warm.memo_hit_rate() > cold.memo_hit_rate(),
        "warm memo hit rate {:.3} must exceed cold {:.3}",
        warm.memo_hit_rate(),
        cold.memo_hit_rate()
    );

    let mut cold_sorted = cold.admit_latencies_us.clone();
    cold_sorted.sort_by(f64::total_cmp);
    let mut warm_sorted = warm.admit_latencies_us.clone();
    warm_sorted.sort_by(f64::total_cmp);
    let cold_p50 = percentile(&cold_sorted, 50.0);
    let cold_p99 = percentile(&cold_sorted, 99.0);
    let warm_p50 = percentile(&warm_sorted, 50.0);
    let warm_p99 = percentile(&warm_sorted, 99.0);
    assert!(
        warm_p99 < cold_p99,
        "warm p99 {warm_p99:.3} us must beat cold p99 {cold_p99:.3} us \
         (cold tails include exact verification, warm tails must not)"
    );

    println!(
        "soak: {ops} ops ({arrivals} arrivals), resident cap {max_resident}, pool {}",
        pool.len()
    );
    println!(
        "cold: p50 {cold_p50:.3} us, p99 {cold_p99:.3} us | {} queries, \
         {:.1}% memo-hit, {:.1}% index-reject, {} exact verifies",
        cold.queries,
        100.0 * cold.memo_hit_rate(),
        100.0 * cold.index_reject_rate(),
        cold.exact_verifies,
    );
    println!(
        "warm: p50 {warm_p50:.3} us, p99 {warm_p99:.3} us | {} queries, \
         {:.1}% memo-hit, {:.1}% index-reject, {} exact verifies",
        warm.queries,
        100.0 * warm.memo_hit_rate(),
        100.0 * warm.index_reject_rate(),
        warm.exact_verifies,
    );

    let mut report = JsonReport::new();
    report
        .field("quick", quick)
        .field("trace_ops", ops)
        .field("arrivals", arrivals)
        .field("resident_cap", max_resident)
        .field_f64("cold_p50_us", cold_p50)
        .field_f64("cold_p99_us", cold_p99)
        .field_f64("warm_p50_us", warm_p50)
        .field_f64("warm_p99_us", warm_p99)
        .field_f64("warm_p99_speedup", cold_p99 / warm_p99)
        .field_f64("cold_memo_hit_rate", cold.memo_hit_rate())
        .field_f64("warm_memo_hit_rate", warm.memo_hit_rate())
        .field_f64("cold_index_reject_rate", cold.index_reject_rate())
        .field_f64("warm_index_reject_rate", warm.index_reject_rate())
        .field("cold_exact_verifies", cold.exact_verifies)
        .field("warm_exact_verifies", warm.exact_verifies)
        .field("cold_queries", cold.queries)
        .field("warm_queries", warm.queries)
        .field("snapshot_bytes", cold.snapshot.len());
    write_report("admit", &report.render());
}
