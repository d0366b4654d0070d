//! Integration test: the admission service's exact fault schedule.
//!
//! A seeded storm drives one supervised service through a retrying client.
//! The service's own plan injects worker panics before and after a call
//! and squeezes deadline budgets to one state; the client's plan refuses
//! calls as queue-full before they reach the service. Every fault site is
//! consulted at a fixed point of every call, so the schedule is a function
//! of the seeds and the call sequence alone. This test pins it exactly:
//! the restarts, the injected faults, the client's retries, the verdict
//! counts of the bounded admissions, the final partition, and every work
//! counter of the cascade (restart replays included), all but the time
//! spent verifying. Recovery must lose nothing, and the final partition
//! must equal batch first-fit over the surviving fleet.

use std::time::Duration;

use cps_admit::{
    AdmissionService, AdmitOutcome, AdmitVerdict, RetryPolicy, RetryingClient, ServiceOptions,
};
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_fault::{FaultPlan, FaultSite};
use cps_map::{AdmissionState, MapExplorerEngine, TierStats};
use cps_verify::VerifyStats;

/// Calls in the storm, snapshots included.
const CALLS: usize = 60;
/// Resident-fleet cap: at the cap the next call is an eviction.
const RESIDENT_CAP: usize = 8;
/// A snapshot is taken every this many calls.
const SNAPSHOT_EVERY: usize = 10;

/// A profile with constant dwell arrays: `max_wait` is `T_w^*`, the first
/// dwell array `T_dw^-` and the second `T_dw^+`.
fn profile(
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

/// Contents small enough that every exact verification is cheap, varied
/// enough that some pairs pack and some force fresh slots.
fn content(name: &str, kind: usize) -> AppTimingProfile {
    let (max_wait, dwell_min, dwell_plus, r) = [
        (4, 2, 3, 20),
        (3, 1, 2, 12),
        (2, 2, 2, 14),
        (1, 1, 2, 10),
        (0, 3, 3, 16),
        (10, 3, 5, 30),
    ][kind];
    profile(name, max_wait, dwell_min, dwell_plus, r)
}

/// xorshift64*: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
    }
}

/// Verdict counts of the bounded admissions.
#[derive(Debug, Default, PartialEq, Eq)]
struct Verdicts {
    admitted: usize,
    degraded: usize,
    deferred: usize,
}

#[test]
fn a_seeded_fault_storm_replays_its_exact_schedule() {
    let service_plan = FaultPlan::seeded(42)
        .with_rate(FaultSite::WorkerPanicPre, 150)
        .with_rate(FaultSite::WorkerPanicPost, 100)
        .with_rate(FaultSite::BudgetSqueeze, 250)
        .with_squeezed_budget(1);
    let client_plan = FaultPlan::seeded(43).with_rate(FaultSite::QueueFull, 200);
    let service = AdmissionService::spawn_with_options(
        AdmissionState::new(),
        ServiceOptions {
            snapshot_interval: 4,
            faults: service_plan,
        },
    );
    let policy = RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let mut client = RetryingClient::with_policy(service.client(), policy).with_faults(client_plan);

    let mut rng = Rng(0x5EED_F417);
    let mut ledger: Vec<String> = Vec::new();
    let mut verdicts = Verdicts::default();
    for call in 0..CALLS {
        if call % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            assert!(!client.snapshot().unwrap().is_empty());
            continue;
        }
        let resident = ledger.len();
        if resident > 0 && (resident == RESIDENT_CAP || rng.below(4) == 0) {
            let index = rng.below(resident);
            let evicted = client.evict(index).unwrap();
            assert_eq!(evicted.name, ledger.remove(index), "call {call}");
            continue;
        }
        let name = format!("F{call}");
        let arrival = content(&name, rng.below(6));
        let placed: Option<AdmitOutcome> = match rng.below(3) {
            0 => Some(client.admit(arrival).unwrap()),
            draw => {
                let budget = if draw == 1 { 1 } else { 1_000_000 };
                match client.admit_within(arrival, budget).unwrap() {
                    AdmitVerdict::Admitted(outcome) => {
                        verdicts.admitted += 1;
                        Some(outcome)
                    }
                    AdmitVerdict::AdmittedDegraded(outcome) => {
                        verdicts.degraded += 1;
                        Some(outcome)
                    }
                    AdmitVerdict::Deferred => {
                        verdicts.deferred += 1;
                        None
                    }
                }
            }
        };
        if let Some(outcome) = placed {
            assert_eq!(outcome.index, ledger.len(), "call {call} applied twice");
            ledger.push(name);
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.restarts, 19);
    assert_eq!(stats.recovery_losses, 0, "recovery must replay the fleet");
    assert_eq!(stats.faults_injected, 26);
    assert_eq!((client.retries(), client.injected_faults()), (37, 18));
    assert_eq!(
        verdicts,
        Verdicts {
            admitted: 20,
            degraded: 3,
            deferred: 1,
        }
    );
    assert_eq!(ledger, ["F12", "F42", "F47", "F48", "F56", "F57", "F58"]);
    assert_eq!(stats.fleet_len, ledger.len());
    assert_eq!(
        stats.slots,
        [vec![4, 6], vec![5], vec![0, 1], vec![2], vec![3]]
    );
    assert_eq!(stats.oracle_calls, 475);
    assert_eq!(
        TierStats {
            exact_verify_time: Duration::ZERO,
            ..stats.tier
        },
        TierStats {
            queries: 478,
            singleton_accepts: 0,
            memo_hits: 434,
            quick_rejects: 9,
            anti_monotone_rejects: 6,
            baseline_accepts: 0,
            exact_verifies: 25,
            falsified_rejects: 0,
            walk_samples: 0,
            degraded_accepts: 3,
            deferred: 1,
            exact_verify_time: Duration::ZERO,
            tt_evictions: 0,
            verify: VerifyStats {
                intern_probes: 1_746,
                hash_hits: 441,
                hash_skips: 35,
                deep_compares: 747,
                rehashes: 0,
                rehashed_entries: 0,
                hash_slot_updates: 2_989,
                full_hash_words: 4_908,
            },
        }
    );
    drop(client);
    let state = service.shutdown().unwrap();
    let names: Vec<&str> = state.fleet().iter().map(AppTimingProfile::name).collect();
    assert_eq!(names, ledger);
    let batch = MapExplorerEngine::new().first_fit(state.fleet()).unwrap();
    assert_eq!(stats.slots, batch.slots());
}
