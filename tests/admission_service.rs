//! Integration tests: the admission service front end over
//! `AdmissionState`.
//!
//! Each client serves its requests on its own thread under the service's
//! lock. A seeded churn through the service must end in batch first-fit's
//! partition and do exactly the cascade work of the same requests replayed
//! directly on an `AdmissionState`. Four client threads sharing one service
//! must each get every answer once and leave the batch partition of their
//! fleet. Shutdown waits for live clients up to its deadline, and the
//! timed-out shutdown completes once the last one drops.

use std::sync::{mpsc, Mutex, RwLock};
use std::thread;
use std::time::Duration;

use cps_admit::{AdmissionService, ShutdownError};
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::{AdmissionState, MapExplorerEngine, TierStats};

/// Requests in one churn stream.
const REQUESTS: usize = 300;
/// Resident-fleet cap: at the cap the next request is a departure.
const RESIDENT_CAP: usize = 12;

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

/// Contents that pack in some pairs and force fresh slots in others, so
/// probes reach every cascade tier, the exact verifier included.
fn content(name: &str, kind: usize) -> AppTimingProfile {
    let (max_wait, dwell_min, dwell_plus, r) = [
        (1, 1, 1, 8),
        (3, 2, 2, 12),
        (3, 2, 3, 16),
        (4, 1, 2, 10),
        (2, 2, 2, 9),
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

/// One request of a stream.
enum Request {
    Arrive(AppTimingProfile),
    Depart(usize),
}

/// A seeded arrival/departure stream: arrivals take three draws in four
/// until the cap, every departure picks a uniformly random resident.
fn stream(seed: u64) -> Vec<Request> {
    let mut rng = Rng(seed | 1);
    let mut resident = 0;
    (0..REQUESTS)
        .map(|k| {
            if resident == 0 || (resident < RESIDENT_CAP && rng.below(4) != 0) {
                resident += 1;
                Request::Arrive(content(&format!("T{k}"), rng.below(5)))
            } else {
                resident -= 1;
                Request::Depart(rng.below(resident + 1))
            }
        })
        .collect()
}

/// The work counts of `stats`: everything but the time spent verifying.
fn counts(stats: TierStats) -> TierStats {
    TierStats {
        exact_verify_time: Duration::ZERO,
        ..stats
    }
}

/// Batch first-fit's partition of `fleet`.
fn batch_slots(fleet: &[AppTimingProfile]) -> Vec<Vec<usize>> {
    MapExplorerEngine::new()
        .first_fit(fleet)
        .unwrap()
        .slots()
        .to_vec()
}

#[test]
fn a_seeded_churn_through_the_service_matches_batch_and_direct_work() {
    for seed in [1, 7] {
        let service = AdmissionService::spawn();
        let client = service.client();
        let mut direct = AdmissionState::new();
        let mut fleet = Vec::new();
        for (k, request) in stream(seed).into_iter().enumerate() {
            match request {
                Request::Arrive(p) => {
                    let outcome = client.admit(p.clone()).unwrap();
                    assert_eq!(outcome.index, fleet.len(), "seed {seed} request {k}");
                    assert_eq!(direct.add_app(p.clone()).unwrap(), outcome.index);
                    assert_eq!(
                        Some(outcome.slot),
                        direct.report().slot_of(outcome.index),
                        "seed {seed} request {k}"
                    );
                    fleet.push(p);
                }
                Request::Depart(index) => {
                    let outcome = client.evict(index).unwrap();
                    assert_eq!(outcome.name, fleet.remove(index).name());
                    direct.remove_app(index).unwrap();
                }
            }
            let slots = client.stats().unwrap().slots;
            assert_eq!(slots, direct.report().slots(), "seed {seed} request {k}");
        }
        let stats = client.stats().unwrap();
        assert!(stats.tier.exact_verifies > 0, "seed {seed}");
        assert_eq!(counts(stats.tier), counts(*direct.stats()), "seed {seed}");
        assert_eq!(stats.oracle_calls, direct.report().oracle_calls());
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.fleet_len, fleet.len());
        assert_eq!(stats.slots, batch_slots(&fleet), "seed {seed}");
        drop(client);
        let state = service.shutdown().unwrap();
        assert_eq!(state.fleet(), &fleet[..]);
        assert_eq!(state.report().slots(), batch_slots(&fleet));
    }
}

#[test]
fn four_client_threads_share_one_service() {
    const THREADS: usize = 4;
    let service = AdmissionService::spawn();
    // The resident fleet by name, in fleet order. Admissions append, so
    // they run side by side under the gate's read side, each recording its
    // name at the index it was answered with. An eviction names its index
    // from the ledger and so runs alone, under the write side.
    let gate = RwLock::new(());
    let ledger: Mutex<Vec<Option<String>>> = Mutex::default();
    let answered: Vec<usize> = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.client();
                let (gate, ledger) = (&gate, &ledger);
                scope.spawn(move || {
                    let mut answers = 0;
                    let mut own = Vec::new();
                    for k in 0..12 {
                        if k % 4 == 3 {
                            let name: String = own.remove(0);
                            let _alone = gate.write().unwrap();
                            let mut names = ledger.lock().unwrap();
                            let index = names
                                .iter()
                                .position(|n| n.as_deref() == Some(name.as_str()))
                                .unwrap();
                            let outcome = client.evict(index).unwrap();
                            assert_eq!(outcome.name, name, "evicted another thread's application");
                            names.remove(index);
                        } else {
                            let name = format!("W{t}k{k}");
                            let _side_by_side = gate.read().unwrap();
                            let outcome = client.admit(content(&name, (t + k) % 5)).unwrap();
                            let mut names = ledger.lock().unwrap();
                            if names.len() <= outcome.index {
                                names.resize(outcome.index + 1, None);
                            }
                            assert!(names[outcome.index].is_none(), "index answered twice");
                            names[outcome.index] = Some(name.clone());
                            own.push(name);
                        }
                        answers += 1;
                    }
                    answers
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(answered, [12; THREADS], "every request is answered once");
    let state = service.shutdown().unwrap();
    let names: Vec<String> = ledger
        .into_inner()
        .unwrap()
        .into_iter()
        .map(Option::unwrap)
        .collect();
    let fleet: Vec<&str> = state.fleet().iter().map(AppTimingProfile::name).collect();
    assert_eq!(fleet, names);
    assert_eq!(fleet.len(), THREADS * 6);
    assert_eq!(state.report().slots(), batch_slots(state.fleet()));
}

#[test]
fn a_live_straggler_times_shutdown_out_until_it_drops() {
    let service = AdmissionService::spawn();
    let straggler = service.client();
    let (go, wait_for_go) = mpsc::channel::<()>();
    let worker = thread::spawn(move || {
        wait_for_go.recv().unwrap();
        let outcome = straggler.admit(content("late", 1)).unwrap();
        assert_eq!(outcome.index, 0);
    });
    let timeout = match service.shutdown_timeout(Duration::from_millis(20)) {
        Err(ShutdownError::TimedOut(timeout)) => timeout,
        other => panic!("expected a timed-out shutdown, got {other:?}"),
    };
    assert!(!timeout.is_finished(), "the straggler is still alive");
    go.send(()).unwrap();
    let state = timeout.wait().unwrap();
    assert_eq!(state.fleet().len(), 1);
    assert_eq!(state.fleet()[0].name(), "late");
    worker.join().unwrap();
}
