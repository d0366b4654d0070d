//! Fault-tolerance soak: a seeded fault storm against the admission
//! service, with the snapshot store's recovery ladder riding along.
//!
//! One supervised [`AdmissionService`] replays a deterministic
//! arrival/departure trace while three seeded [`FaultPlan`]s inject faults
//! at every layer: worker panics before and after handlers plus deadline
//! budget squeezes (inside the service), queue-full rejections (inside the
//! [`RetryingClient`]), and torn writes / bit flips on the snapshot
//! generations a [`SnapshotStore`] persists along the way. A client-side
//! ledger records the *intent* of every operation.
//!
//! The soak's correctness gates are the fault-tolerance contract itself,
//! and any violation aborts with a non-zero exit code:
//!
//! * **zero lost or duplicated admissions** — every arrival lands exactly
//!   once at the ledger-predicted index despite restarts and retries;
//! * **bit-identical partition** — the surviving partition equals a
//!   fault-free batch [`MapExplorerEngine::first_fit`] over the surviving
//!   fleet;
//! * **lossless recovery** — `recovery_losses == 0` and the storm really
//!   fired (`restarts > 0`, injected faults and retries non-zero);
//! * **honest degradation** — squeezed deadlines produce degraded accepts
//!   and deferrals, never a divergent placement.
//!
//! Writes `BENCH_faults.json` at the repository root. Run with
//! `cargo run --release -p cps-bench --bin bench_faults` (append
//! `-- --quick` for the CI smoke sizes, `-- --seed N` to re-seed the
//! storm).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use cps_admit::{
    AdmissionService, AdmitOutcome, AdmitVerdict, RetryPolicy, RetryingClient, ServiceOptions,
};
use cps_bench::fleet::{next_below, random_profile};
use cps_bench::report::{quick_flag, write_report, JsonReport};
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_fault::{FaultPlan, FaultSite};
use cps_intern::{Recovery, SnapshotStore};
use cps_map::{AdmissionState, MapExplorerEngine};

/// `--seed N` from the command line, defaulting to the storm's canonical
/// seed.
fn seed_flag() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// A profile with distinct dwell bounds, used by the deterministic warm-up
/// that pins one degraded accept and one deferral regardless of the seed.
fn wide(
    name: &str,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    r: usize,
) -> AppTimingProfile {
    let len = max_wait + 1;
    let jstar = max_wait + dwell_plus + 1;
    let table = DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len])
        .expect("consistent dwell table");
    AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table)
        .expect("consistent profile")
}

/// One step of the soak trace.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// Admit a renamed copy of this pool profile.
    Arrive(usize),
    /// Evict this resident fleet index.
    Depart(usize),
}

/// The seeded trace: arrivals dominate until the resident cap, departures
/// pick a uniformly random resident.
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

/// Rolling soak counters.
#[derive(Default)]
struct Metrics {
    bounded_requests: usize,
    degraded_count: usize,
    deferred_requests: usize,
    retried_requests: usize,
    recovery_max_us: f64,
    store_saves: usize,
}

impl Metrics {
    /// Tracks the worst latency of any request that needed at least one
    /// retry — those are the requests that rode through a worker restart
    /// (or a queue-full rejection), so their tail is the observable cost of
    /// recovery.
    fn note_latency(&mut self, client: &RetryingClient, retries_before: usize, start: Instant) {
        let us = start.elapsed().as_secs_f64() * 1e6;
        if client.retries() > retries_before {
            self.retried_requests += 1;
            self.recovery_max_us = self.recovery_max_us.max(us);
        }
    }
}

/// One deadline-bounded admission through the retrying client, with the
/// documented deferral escalation: a deferral changed nothing, so the
/// arrival is retried without a deadline for the exact answer.
fn admit_bounded(
    client: &mut RetryingClient,
    metrics: &mut Metrics,
    profile: AppTimingProfile,
    budget: usize,
) -> AdmitOutcome {
    metrics.bounded_requests += 1;
    match client
        .admit_within(profile.clone(), budget)
        .expect("bounded admission is answered")
    {
        AdmitVerdict::Admitted(o) => o,
        AdmitVerdict::AdmittedDegraded(o) => {
            metrics.degraded_count += 1;
            o
        }
        AdmitVerdict::Deferred => {
            metrics.deferred_requests += 1;
            client.admit(profile).expect("unbounded admission succeeds")
        }
    }
}

fn main() {
    // Injected worker panics are the point of this soak; keep their
    // backtraces out of the report. Genuine panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected fault"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let quick = quick_flag();
    let seed = seed_flag();
    let (ops, max_resident) = if quick { (80, 8) } else { (320, 12) };

    let service_plan = FaultPlan::seeded(seed)
        .with_rate(FaultSite::WorkerPanicPre, 150)
        .with_rate(FaultSite::WorkerPanicPost, 100)
        .with_rate(FaultSite::BudgetSqueeze, 250)
        .with_squeezed_budget(1);
    let client_plan = FaultPlan::seeded(seed ^ 0x9E37_79B9).with_rate(FaultSite::QueueFull, 200);
    let mut store_plan = FaultPlan::seeded(seed ^ 0x85EB_CA6B)
        .with_rate(FaultSite::SnapshotTornWrite, 300)
        .with_rate(FaultSite::SnapshotBitFlip, 300);

    // The generation store lives under target/ so the soak never writes
    // outside the repository.
    let store_dir = PathBuf::from(format!("target/tmp/bench-faults-store-{seed}"));
    let _ = fs::remove_dir_all(&store_dir);
    fs::create_dir_all(&store_dir).expect("store directory is creatable");
    let mut store = SnapshotStore::open(&store_dir)
        .expect("store opens on an empty directory")
        .with_retention(4);

    let service = AdmissionService::spawn_with_options(
        AdmissionState::new(),
        ServiceOptions {
            snapshot_interval: 4,
            faults: service_plan,
        },
    );
    let mut client = RetryingClient::with_policy(
        service.client(),
        RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        },
    )
    .with_faults(client_plan);
    let mut metrics = Metrics::default();
    let mut ledger: Vec<String> = Vec::new();

    // Deterministic warm-up: a co-residency the conservative screen accepts
    // (degraded under a one-state budget) and an arrival it cannot vouch
    // for and the exact tier cannot decide from one popped state
    // (deferred), so the degradation counters are non-zero for every seed.
    // The warm-up fleet is evicted again before the storm.
    let a = admit_bounded(
        &mut client,
        &mut metrics,
        wide("W0", 10, 3, 5, 30),
        1_000_000,
    );
    assert_eq!(a.index, 0);
    let b = admit_bounded(&mut client, &mut metrics, wide("W1", 10, 3, 5, 30), 1);
    assert_eq!(b.index, 1);
    assert!(
        metrics.degraded_count > 0,
        "the warm-up pair must exercise the degraded ladder"
    );
    client.evict(1).expect("warm-up eviction succeeds");
    let before_deferral = metrics.deferred_requests;
    admit_bounded(&mut client, &mut metrics, wide("W2", 2, 5, 5, 30), 1);
    assert!(
        metrics.deferred_requests > before_deferral,
        "the warm-up loner must defer under a one-state budget"
    );
    for _ in 0..2 {
        client.evict(0).expect("warm-up eviction succeeds");
    }

    // The storm proper.
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let pool: Vec<AppTimingProfile> = (0..4).map(|i| random_profile(&mut rng, i)).collect();
    let trace = build_trace(&mut rng, ops, pool.len(), max_resident);
    let arrivals = trace
        .iter()
        .filter(|op| matches!(op, TraceOp::Arrive(_)))
        .count();
    let mut arrived = 0usize;
    for (step, op) in trace.iter().enumerate() {
        match *op {
            TraceOp::Arrive(pool_idx) => {
                let p = &pool[pool_idx];
                let name = format!("T{arrived}");
                let profile = AppTimingProfile::new(
                    name.clone(),
                    p.jt(),
                    p.je(),
                    p.jstar(),
                    p.min_inter_arrival(),
                    p.dwell_table().clone(),
                )
                .expect("renamed profile stays consistent");
                arrived += 1;
                let expected_index = ledger.len();
                let retries_before = client.retries();
                let start = Instant::now();
                let outcome = admit_bounded(&mut client, &mut metrics, profile, 1_000_000);
                assert_eq!(
                    outcome.index, expected_index,
                    "an admission was lost or applied twice at step {step}"
                );
                metrics.note_latency(&client, retries_before, start);
                ledger.push(name);
            }
            TraceOp::Depart(index) => {
                let expected_name = ledger.remove(index);
                let retries_before = client.retries();
                let start = Instant::now();
                let evicted = client.evict(index).expect("eviction succeeds");
                assert_eq!(
                    evicted.name, expected_name,
                    "an eviction removed the wrong application at step {step}"
                );
                metrics.note_latency(&client, retries_before, start);
            }
        }
        if (step + 1) % 8 == 0 {
            let bytes = client.snapshot().expect("snapshot answered");
            store
                .save(&store_plan.damage(bytes))
                .expect("generation save publishes");
            metrics.store_saves += 1;
        }
    }

    let stats = client.stats().expect("stats answered");
    assert_eq!(
        stats.fleet_len,
        ledger.len(),
        "resident fleet diverged from the client-side ledger"
    );
    assert_eq!(stats.recovery_losses, 0, "recovery must replay losslessly");
    assert!(
        stats.restarts > 0,
        "the storm must actually trip the worker"
    );
    assert!(
        client.retries() > 0,
        "injected queue-full faults must retry"
    );
    let faults_injected =
        stats.faults_injected + client.injected_faults() + store_plan.stats().total_injected();
    let retries = client.retries();
    drop(client);

    // Surviving partition: bit-identical to a fault-free batch rebuild.
    let state = service
        .shutdown()
        .expect("admission service drains at shutdown");
    let names: Vec<&str> = state.fleet().iter().map(|p| p.name()).collect();
    let expected_names: Vec<&str> = ledger.iter().map(String::as_str).collect();
    assert_eq!(
        names, expected_names,
        "final fleet diverged from the ledger"
    );
    let mut batch = MapExplorerEngine::new();
    let expected = batch.first_fit(state.fleet()).expect("batch rebuild runs");
    assert_eq!(
        state.report().slots(),
        expected.slots(),
        "faulted partition diverged from the fault-free batch rebuild"
    );

    // Recovery ladder over the damaged generation store: corrupt
    // generations must be skipped, never trusted.
    let recovery = store
        .recover(AdmissionState::from_snapshot)
        .expect("store directory is listable");
    let (store_recovered, store_skipped) = match &recovery {
        Recovery::Loaded { skipped, .. } => (true, skipped.len()),
        Recovery::ColdRebuild { skipped } => (false, skipped.len()),
    };
    let _ = fs::remove_dir_all(&store_dir);

    println!(
        "fault soak: seed {seed}, {ops} ops ({arrivals} arrivals), resident cap {max_resident}"
    );
    println!(
        "recovery: {} restarts, 0 losses, worst retried-request latency {:.1} us",
        stats.restarts, metrics.recovery_max_us
    );
    println!(
        "degradation: {} degraded accepts, {} deferrals over {} bounded requests",
        metrics.degraded_count, metrics.deferred_requests, metrics.bounded_requests
    );
    println!(
        "injection: {faults_injected} faults, {retries} retries; store: {} saves, {} skipped, warm recovery {}",
        metrics.store_saves, store_skipped, store_recovered
    );

    let mut report = JsonReport::new();
    report
        .field("quick", quick)
        .field("seed", seed)
        .field("trace_ops", ops)
        .field("arrivals", arrivals)
        .field("recovery_count", stats.restarts)
        .field("recovery_losses", stats.recovery_losses)
        .field_f64("recovery_max_us", metrics.recovery_max_us)
        .field("retried_requests", metrics.retried_requests)
        .field("retries", retries)
        .field("faults_injected", faults_injected)
        .field("degraded_count", metrics.degraded_count)
        .field_f64(
            "degraded_rate",
            metrics.degraded_count as f64 / metrics.bounded_requests.max(1) as f64,
        )
        .field("deferred_requests", metrics.deferred_requests)
        .field("bounded_requests", metrics.bounded_requests)
        .field("store_saves", metrics.store_saves)
        .field("store_skipped", store_skipped)
        .field("store_recovered", store_recovered)
        .field("fleet_final", stats.fleet_len);
    write_report("faults", &report.render());
}
