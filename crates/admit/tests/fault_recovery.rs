//! End-to-end crash recovery under a seeded fault storm.
//!
//! A supervised service is hammered with a small synthetic fleet while a
//! deterministic [`FaultPlan`] injects worker panics (before *and* after
//! handlers run), budget squeezes on deadline admissions, and client-side
//! queue-full rejections. The properties pinned here are the service's
//! whole fault-tolerance contract:
//!
//! * no admission is lost or applied twice — a [`RetryingClient`] retries
//!   transparently and the final fleet matches the intent exactly;
//! * the surviving partition is bit-identical to a fault-free batch
//!   rebuild of the same fleet;
//! * recovery replays the supervisor's mirror without losing anything
//!   (`recovery_losses == 0`), and the storm genuinely fired
//!   (`restarts > 0`, `faults_injected > 0`);
//! * the lifetime counters of the `Stats` reply never go backwards, even
//!   when a restart replaces the worker's state.

use cps_admit::{
    AdmissionService, AdmitVerdict, RetryPolicy, RetryingClient, ServiceError, ServiceOptions,
    ServiceStats,
};
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_fault::{FaultPlan, FaultSite};
use cps_map::{AdmissionState, MapExplorerEngine};
use std::time::Duration;

/// A compact profile: small enough that every exact verification is cheap
/// (the storm re-verifies constantly — recovery replays, rounds under new
/// names), varied enough that pairs genuinely reach the exact tier.
fn tiny(
    name: &str,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    r: usize,
) -> AppTimingProfile {
    let len = max_wait + 1;
    let jstar = max_wait + dwell_plus + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len]).unwrap();
    AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
}

/// Six synthetic applications with mixed co-residency behaviour: some pairs
/// pack, some force fresh slots, so the partition under repair is
/// non-trivial.
fn storm_fleet(round: usize) -> Vec<AppTimingProfile> {
    let shapes = [
        (4, 2, 3, 20),
        (4, 2, 3, 20),
        (3, 1, 2, 12),
        (2, 2, 2, 14),
        (1, 1, 2, 10),
        (0, 3, 3, 16),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(w, dmin, dplus, r))| tiny(&format!("S{i}r{round}"), w, dmin, dplus, r))
        .collect()
}

/// A patient policy: the storm can trip several times in a row, and the
/// test must outlast every streak the seed produces.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
    }
}

#[test]
fn fault_storm_loses_nothing_and_matches_the_batch_rebuild() {
    let service_plan = FaultPlan::seeded(42)
        .with_rate(FaultSite::WorkerPanicPre, 250)
        .with_rate(FaultSite::WorkerPanicPost, 200)
        .with_rate(FaultSite::BudgetSqueeze, 300);
    let client_plan = FaultPlan::seeded(43).with_rate(FaultSite::QueueFull, 250);
    let service = AdmissionService::spawn_with_options(
        AdmissionState::new(),
        ServiceOptions {
            snapshot_interval: 2,
            faults: service_plan,
        },
    );
    let mut client =
        RetryingClient::with_policy(service.client(), patient()).with_faults(client_plan);

    // Admit the fleet three times over with interleaved evictions, so the
    // storm hits arrivals, departures, and recoveries of non-empty fleets.
    let mut ledger: Vec<String> = Vec::new();
    for round in 0..3 {
        for p in storm_fleet(round) {
            let name = p.name().to_string();
            // Bounded first. A deferral (injected squeeze, or a probe the
            // budget genuinely cannot decide) changed nothing, so the
            // documented operator response applies: retry without a
            // deadline for the exact answer.
            let outcome = match client.admit_within(p.clone(), 1_000_000).unwrap() {
                AdmitVerdict::Admitted(o) | AdmitVerdict::AdmittedDegraded(o) => o,
                AdmitVerdict::Deferred => client.admit(p.clone()).unwrap(),
            };
            assert_eq!(
                outcome.index,
                ledger.len(),
                "retries must never double-apply"
            );
            ledger.push(name);
        }
        // Evict the oldest two survivors of this round.
        for _ in 0..2 {
            let evicted = client.evict(0).unwrap();
            assert_eq!(evicted.name, ledger.remove(0));
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.fleet_len,
        ledger.len(),
        "no admission lost or doubled"
    );
    assert!(stats.restarts > 0, "the seeded storm must trip the worker");
    assert_eq!(stats.recovery_losses, 0, "recovery replays the whole fleet");
    assert!(stats.faults_injected > 0);
    assert!(
        client.retries() > 0,
        "queue-full injections must be retried"
    );

    // The surviving partition is bit-identical to a fault-free batch
    // rebuild of the surviving fleet.
    drop(client);
    let state = service.shutdown().unwrap();
    let names: Vec<&str> = state.fleet().iter().map(|p| p.name()).collect();
    assert_eq!(names, ledger.iter().map(String::as_str).collect::<Vec<_>>());
    let mut batch = MapExplorerEngine::new();
    let expected = batch.first_fit(state.fleet()).unwrap();
    assert_eq!(
        state.report().slots(),
        expected.slots(),
        "faulted partition diverged from the fault-free batch rebuild"
    );
}

/// Every lifetime counter of a `Stats` reply, by name.
fn lifetime_counters(stats: &ServiceStats) -> [(&'static str, usize); 20] {
    let t = &stats.tier;
    let v = &t.verify;
    [
        ("oracle_calls", stats.oracle_calls),
        ("queries", t.queries),
        ("singleton_accepts", t.singleton_accepts),
        ("memo_hits", t.memo_hits),
        ("quick_rejects", t.quick_rejects),
        ("anti_monotone_rejects", t.anti_monotone_rejects),
        ("baseline_accepts", t.baseline_accepts),
        ("exact_verifies", t.exact_verifies),
        ("degraded_accepts", t.degraded_accepts),
        ("deferred", t.deferred),
        ("tt_evictions", t.tt_evictions),
        ("intern_probes", v.intern_probes),
        ("hash_hits", v.hash_hits),
        ("hash_skips", v.hash_skips),
        ("deep_compares", v.deep_compares),
        ("rehashes", v.rehashes),
        ("rehashed_entries", v.rehashed_entries),
        ("hash_slot_updates", v.hash_slot_updates),
        ("full_hash_words", v.full_hash_words),
        ("restarts", stats.restarts),
    ]
}

#[test]
fn lifetime_counters_survive_worker_restarts() {
    // Panics after a handler ran discard state that did real work; the
    // restarted worker starts from a snapshot whose counters are zero.
    let service = AdmissionService::spawn_with_options(
        AdmissionState::new(),
        ServiceOptions {
            snapshot_interval: 2,
            faults: FaultPlan::seeded(42).with_rate(FaultSite::WorkerPanicPost, 300),
        },
    );
    let mut client = RetryingClient::with_policy(service.client(), patient());
    let mut previous = client.stats().unwrap();
    for round in 0..3 {
        for p in storm_fleet(round) {
            client.admit(p).unwrap();
            let stats = client.stats().unwrap();
            for ((name, before), (_, after)) in lifetime_counters(&previous)
                .into_iter()
                .zip(lifetime_counters(&stats))
            {
                assert!(
                    after >= before,
                    "{name} went backwards: {before} -> {after} (restarts {})",
                    stats.restarts
                );
            }
            assert!(stats.tier.exact_verify_time >= previous.tier.exact_verify_time);
            previous = stats;
        }
    }
    assert!(
        previous.restarts > 0,
        "the seeded storm must trip the worker"
    );
    drop(client);
    service.shutdown().unwrap();
}

#[test]
fn transient_errors_exhaust_into_the_typed_error() {
    // A plan that always reports queue-full never lets a request through.
    let client_plan = FaultPlan::seeded(7).with_rate(FaultSite::QueueFull, 1000);
    let service = AdmissionService::spawn();
    let mut client = RetryingClient::with_policy(
        service.client(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(10),
        },
    )
    .with_faults(client_plan);
    let err = client.stats().unwrap_err();
    assert!(matches!(err, ServiceError::QueueFull));
    assert_eq!(client.retries(), 2, "attempts beyond the first are counted");
    drop(client);
    service.shutdown().unwrap();
}
