//! `admit_churn_cold` and `admit_churn_warm`: seeded arrival/departure
//! rounds served by the admission service.
//!
//! A round is one service lifetime: [`ROUND_OPS`] requests over a pool of
//! [`POOL_SIZE`] `random_profile` contents under a resident cap of
//! [`RESIDENT_CAP`]. One client sends each request once the previous reply
//! is back, a closed loop: every admission depends on the partition the
//! previous one left, and the single worker serializes requests anyway. One
//! op is one `admit` or `evict` round trip.
//!
//! A service's caches saturate within roughly its first 2 000 requests, so
//! coldness comes from rounds, not from long traces: every cold play spawns
//! a fresh service. Both workloads cycle through the same [`ROUNDS`]
//! distinct rounds of a seed. Set-up generates them and the batch first-fit
//! partition each must end in. The warm workload's set-up also serves each
//! round cold, snapshots the caches and restarts the service with
//! `spawn_warm`; every timed play then serves the same requests on a service
//! restarted from that snapshot, and must need no exact verification.
//!
//! A traced run also replays every round directly on an `AdmissionState`,
//! with spans around `add_app`, `remove_app` and the recovery snapshots the
//! service's supervisor takes, so that each round trip splits into map,
//! intern and the rest (queue hand-off, supervisor bookkeeping, reply). Its
//! counted pass is the first play of each round: counts and time totals
//! cover that pass, percentiles pool every play.

use std::time::{Duration, Instant};

use cps_admit::{AdmissionService, ServiceOptions};
use cps_bench::fleet::{next_below, random_profile};
use cps_core::AppTimingProfile;
use cps_map::{AdmissionState, MapExplorerEngine, TierStats};
use cps_par::Pool;

use crate::stats::{self, median, ms, percentile, ratio, us};
use crate::trace::Tracer;
use crate::{counts_of, insert_end_to_end, insert_tier_counts, seed_state, Outcome, RunConfig};

/// Requests per round.
pub const ROUND_OPS: usize = 2_000;
/// Timing contents in the catalog every arrival is drawn from.
pub const POOL_SIZE: usize = 8;
/// Resident-fleet cap: at the cap the next request is a departure.
pub const RESIDENT_CAP: usize = 32;
/// Distinct rounds per run, the same for both workloads. A run plays whole
/// cycles of them, so every run serves the same mix of requests.
pub const ROUNDS: usize = 16;
/// Complete set-ups an untraced run makes; `setup_s` is their median. A
/// traced run reports no `setup_s` and sets up once.
pub const SETUP_REPEATS: usize = 5;
/// The percentile `latency_tail_ms` reports. One cycle of rounds is
/// 32 000 ops, which leaves 320 beyond it. It lies among the requests that
/// pay a recovery snapshot (1 in 8) or, cold, an exact verification; p99.9
/// lay among rare host stalls instead and spread 27 % over ten warm runs.
pub const TAIL_P: f64 = 99.0;
/// Generator state of the catalog. The catalog is fixed and only the
/// request stream follows the seed: with a pool drawn per seed, one round
/// cost 0.05 s or 12 s depending on the contents drawn, a spread no run
/// length averages away. This catalog costs about 215 exact verifications
/// and 0.15–0.27 s per cold round.
const CATALOG_STATE: u64 = 0xA076_1D64_78BD_642F;

/// The catalog of timing contents.
fn catalog() -> Vec<AppTimingProfile> {
    let mut state = CATALOG_STATE;
    (0..POOL_SIZE)
        .map(|i| random_profile(&mut state, i))
        .collect()
}

/// The state a cold service starts from: empty, with the unbounded verdict
/// memo. The default bounded memo evicts a few verdicts in some rounds (69
/// over the 16 rounds of seed 21), and a warm restart then re-verifies them,
/// so the warm workload could not assert zero exact verifications. The
/// snapshot carries the memo's kind, so warm restarts keep it.
fn empty_state() -> AdmissionState {
    AdmissionState::new().with_unbounded_memo()
}

/// A fresh service over [`empty_state`], with default service options.
fn spawn_cold() -> AdmissionService {
    AdmissionService::spawn_with_options(empty_state(), ServiceOptions::default())
}

/// One request of a round.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    /// Admit this application.
    Arrive(AppTimingProfile),
    /// Evict the application at this fleet index.
    Depart(usize),
}

impl Request {
    fn span_names(&self) -> (&'static str, &'static str) {
        match self {
            Request::Arrive(_) => ("admit.admit", "map.add_app"),
            Request::Depart(_) => ("admit.evict", "map.remove_app"),
        }
    }
}

/// Round `round` of `seed` over `pool`: arrivals take three draws in four
/// until the cap, every departure picks a uniformly random resident.
/// Arrivals are renamed copies of the pool contents (fingerprints ignore
/// names).
fn build_round(pool: &[AppTimingProfile], seed: u64, round: usize) -> Vec<Request> {
    let mut state = seed_state(seed, round as u64);
    let mut resident = 0usize;
    (0..ROUND_OPS)
        .map(|k| {
            if resident == 0 || (resident < RESIDENT_CAP && next_below(&mut state, 4) != 0) {
                resident += 1;
                let p = &pool[next_below(&mut state, pool.len() as u64) as usize];
                Request::Arrive(
                    AppTimingProfile::new(
                        format!("T{k}"),
                        p.jt(),
                        p.je(),
                        p.jstar(),
                        p.min_inter_arrival(),
                        p.dwell_table().clone(),
                    )
                    .expect("a renamed pool profile stays consistent"),
                )
            } else {
                let victim = next_below(&mut state, resident as u64) as usize;
                resident -= 1;
                Request::Depart(victim)
            }
        })
        .collect()
}

/// The fleet resident after a round's last request.
fn final_fleet(requests: &[Request]) -> Vec<AppTimingProfile> {
    let mut fleet = Vec::new();
    for request in requests {
        match request {
            Request::Arrive(p) => fleet.push(p.clone()),
            Request::Depart(index) => {
                fleet.remove(*index);
            }
        }
    }
    fleet
}

/// The id shared by every span of request `index` of play `play`.
fn request_id(play: usize, index: usize) -> u64 {
    (play * ROUND_OPS + index) as u64
}

/// What one service lifetime produced.
struct ServicePlay {
    /// Round-trip time per request, in request order.
    round_trips: Vec<Duration>,
    /// From the first request's send to the last reply.
    active: Duration,
    failed: u64,
    /// Cascade work of this play's requests.
    tier: TierStats,
    /// The partition after the last request.
    slots: Vec<Vec<usize>>,
}

/// Serves one round on `service`, then shuts it down. Returns the caches'
/// snapshot as well when `keep_snapshot`.
fn serve(
    service: AdmissionService,
    requests: &[Request],
    tracer: &mut Tracer,
    play: usize,
    keep_snapshot: bool,
) -> Result<(ServicePlay, Option<Vec<u8>>), String> {
    let client = service.client();
    let before = client.stats().map_err(|e| e.to_string())?.tier;
    let mut round_trips = Vec::with_capacity(requests.len());
    let mut failed = 0;
    let start = Instant::now();
    for (index, request) in requests.iter().enumerate() {
        let call = request.clone();
        let span = tracer.open(call.span_names().0, None, request_id(play, index));
        let sent = Instant::now();
        let ok = match call {
            Request::Arrive(profile) => client.admit(profile).is_ok(),
            Request::Depart(index) => client.evict(index).is_ok(),
        };
        round_trips.push(sent.elapsed());
        tracer.close(span);
        failed += u64::from(!ok);
    }
    let active = start.elapsed();
    let after = client.stats().map_err(|e| e.to_string())?;
    let snapshot = if keep_snapshot {
        Some(client.snapshot().map_err(|e| e.to_string())?)
    } else {
        None
    };
    drop(client);
    service.shutdown().map_err(|e| e.to_string())?;
    let played = ServicePlay {
        round_trips,
        active,
        failed,
        tier: after.tier.since(&before),
        slots: after.slots,
    };
    Ok((played, snapshot))
}

/// A traced replay of one round directly on an `AdmissionState`, taking
/// recovery snapshots at the service supervisor's cadence.
struct DirectPlay {
    /// `add_app` or `remove_app` time per request.
    map: Vec<Duration>,
    /// Recovery-snapshot time per request (zero where none was due).
    intern: Vec<Duration>,
    /// Every snapshot encode, the one taken at start-up included.
    encodes: Vec<Duration>,
    /// Largest snapshot encoded.
    max_snapshot_bytes: usize,
    /// `from_snapshot` time of a warm start.
    decode: Option<Duration>,
    /// Cascade work of this play's requests.
    tier: TierStats,
    /// The partition after the last request.
    slots: Vec<Vec<usize>>,
}

/// Encodes a recovery snapshot inside an `intern.snapshot_encode` span.
fn encode(state: &AdmissionState, tracer: &mut Tracer, request: u64) -> (Duration, usize) {
    let span = tracer.open("intern.snapshot_encode", None, request);
    let start = Instant::now();
    let bytes = state.snapshot().len();
    let elapsed = start.elapsed();
    tracer.close(span);
    (elapsed, bytes)
}

/// Replays `requests` on a fresh state, or on one restored from `snapshot`.
fn replay_direct(
    snapshot: Option<&[u8]>,
    requests: &[Request],
    tracer: &mut Tracer,
    play: usize,
) -> Result<DirectPlay, String> {
    let interval = ServiceOptions::default().snapshot_interval.max(1);
    let (mut state, decode) = match snapshot {
        Some(bytes) => {
            let span = tracer.open("intern.snapshot_decode", None, request_id(play, 0));
            let start = Instant::now();
            let state = AdmissionState::from_snapshot(bytes).map_err(|e| e.to_string())?;
            let elapsed = start.elapsed();
            tracer.close(span);
            (state, Some(elapsed))
        }
        None => (empty_state(), None),
    };
    let before = *state.stats();
    // The supervisor snapshots the state it starts from, then every
    // `interval`-th successful mutation.
    let (startup, bytes) = encode(&state, tracer, request_id(play, 0));
    let mut direct = DirectPlay {
        map: Vec::with_capacity(requests.len()),
        intern: Vec::with_capacity(requests.len()),
        encodes: vec![startup],
        max_snapshot_bytes: bytes,
        decode,
        tier: TierStats::default(),
        slots: Vec::new(),
    };
    for (index, request) in requests.iter().enumerate() {
        let id = request_id(play, index);
        let call = request.clone();
        let span = tracer.open(call.span_names().1, None, id);
        let start = Instant::now();
        let ok = match call {
            Request::Arrive(profile) => state.add_app(profile).is_ok(),
            Request::Depart(index) => state.remove_app(index).is_ok(),
        };
        direct.map.push(start.elapsed());
        tracer.close(span);
        if !ok {
            return Err(format!(
                "direct replay: request {index} of play {play} failed"
            ));
        }
        let snapshot_time = if (index + 1) % interval == 0 {
            let (elapsed, bytes) = encode(&state, tracer, id);
            direct.encodes.push(elapsed);
            direct.max_snapshot_bytes = direct.max_snapshot_bytes.max(bytes);
            elapsed
        } else {
            Duration::ZERO
        };
        direct.intern.push(snapshot_time);
    }
    direct.tier = state.stats().since(&before);
    direct.slots = state.report().slots().to_vec();
    Ok(direct)
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    /// Cascade work of the counted pass.
    tier: TierStats,
    /// Requests of the counted pass.
    requests: usize,
    /// Recovery snapshots of the counted pass.
    encodes: usize,
    /// `add_app`/`remove_app` time of the counted pass.
    map_busy: Duration,
    max_snapshot_bytes: usize,
    add_app_us: Vec<f64>,
    remove_app_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_ms: Vec<f64>,
    round_trip_us: Vec<f64>,
    /// Round trip minus the same request's map and intern time.
    self_us: Vec<f64>,
    round_trip_total: Duration,
    accounted_total: Duration,
}

impl Layers {
    fn add(
        &mut self,
        counted: bool,
        requests: &[Request],
        served: &ServicePlay,
        direct: &DirectPlay,
    ) {
        for (i, request) in requests.iter().enumerate() {
            let (map, intern, rt) = (direct.map[i], direct.intern[i], served.round_trips[i]);
            match request {
                Request::Arrive(_) => self.add_app_us.push(us(map)),
                Request::Depart(_) => self.remove_app_us.push(us(map)),
            }
            self.round_trip_us.push(us(rt));
            self.self_us.push(us(rt) - us(map) - us(intern));
            self.round_trip_total += rt;
            self.accounted_total += map + intern;
        }
        self.encode_us
            .extend(direct.encodes.iter().copied().map(us));
        self.decode_ms.extend(direct.decode.map(ms));
        if counted {
            self.tier.accumulate(&direct.tier);
            self.requests += requests.len();
            self.encodes += direct.encodes.len();
            self.map_busy += direct.map.iter().sum::<Duration>();
            self.max_snapshot_bytes = self.max_snapshot_bytes.max(direct.max_snapshot_bytes);
        }
    }

    fn report(self, outcome: &mut Outcome) {
        let p = |values: Vec<f64>, q: f64| percentile(&stats::sorted(values), q);
        let m = &mut outcome.metrics;
        insert_tier_counts(m, &self.tier, self.requests);
        let exact = ms(self.tier.exact_verify_time);
        m.insert("verify.exact_ms", exact);
        m.insert(
            "verify.exact_ms_per_call",
            ratio(exact, self.tier.exact_verifies as f64),
        );
        m.insert("map.add_app_p50_us", p(self.add_app_us.clone(), 50.0));
        m.insert("map.add_app_p99_us", p(self.add_app_us, 99.0));
        m.insert("map.remove_app_p50_us", p(self.remove_app_us.clone(), 50.0));
        m.insert("map.remove_app_p99_us", p(self.remove_app_us, 99.0));
        m.insert(
            "map.self_ms",
            ms(self.map_busy.saturating_sub(self.tier.exact_verify_time)),
        );
        m.insert("intern.snapshot_encode_p50_us", p(self.encode_us, 50.0));
        m.insert("intern.snapshot_bytes", self.max_snapshot_bytes as f64);
        m.insert("intern.snapshot_decode_ms", median(&self.decode_ms));
        m.insert(
            "admit.round_trip_p50_us",
            p(self.round_trip_us.clone(), 50.0),
        );
        m.insert(
            "admit.round_trip_p99_us",
            p(self.round_trip_us.clone(), 99.0),
        );
        m.insert("admit.self_p50_us", p(self.self_us, 50.0));
        m.insert(
            "admit.unaccounted_share",
            ratio(
                self.round_trip_total.as_secs_f64() - self.accounted_total.as_secs_f64(),
                self.round_trip_total.as_secs_f64(),
            ),
        );
        m.insert("admit.recovery_snapshots", self.encodes as f64);
        m.insert("trace.latency_p50_ms", p(self.round_trip_us, 50.0) / 1e3);
    }
}

/// Everything a run's first timed play needs.
struct Setup {
    /// The requests of each round.
    rounds: Vec<Vec<Request>>,
    /// Batch first-fit partition of the fleet each round leaves resident.
    expected: Vec<Vec<Vec<usize>>>,
    /// Warm only: each round's snapshot after its cold serving.
    snapshots: Vec<Vec<u8>>,
    /// Warm only: a service restarted from each snapshot, taken by the
    /// round's first timed play.
    restarted: Vec<Option<AdmissionService>>,
}

impl Setup {
    /// Generates the rounds of `seed` and their expected partitions; for
    /// the warm workload also serves each round cold, checks its partition,
    /// and restarts a service from its snapshot.
    fn new(seed: u64, warm: bool, outcome: &mut Outcome) -> Result<Self, String> {
        let pool = catalog();
        let rounds: Vec<Vec<Request>> = (0..ROUNDS).map(|r| build_round(&pool, seed, r)).collect();
        let expected = rounds
            .iter()
            .map(|requests| {
                MapExplorerEngine::new()
                    .with_pool(Pool::serial())
                    .first_fit(&final_fleet(requests))
                    .map(|report| report.slots().to_vec())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut setup = Setup {
            rounds,
            expected,
            snapshots: Vec::new(),
            restarted: Vec::new(),
        };
        if warm {
            let mut off = Tracer::new(false);
            for (r, requests) in setup.rounds.iter().enumerate() {
                let (cold, snapshot) = serve(spawn_cold(), requests, &mut off, r, true)?;
                if cold.failed > 0 {
                    outcome.fail_check(format!(
                        "{} requests failed serving round {r} cold",
                        cold.failed
                    ));
                }
                if cold.slots != setup.expected[r] {
                    outcome.fail_check(format!("round {r} served cold ended off batch first-fit"));
                }
                let snapshot = snapshot.unwrap_or_default();
                setup.restarted.push(Some(
                    AdmissionService::spawn_warm(&snapshot).map_err(|e| e.to_string())?,
                ));
                setup.snapshots.push(snapshot);
            }
        }
        Ok(setup)
    }

    /// Shuts down every restarted service no play took.
    fn shut_down(self) -> Result<(), String> {
        for service in self.restarted.into_iter().flatten() {
            service.shutdown().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs the cold workload, or the warm one when `warm`.
///
/// # Errors
///
/// A service that cannot be queried, snapshotted, restored or shut down.
pub fn run(config: &RunConfig, warm: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup: Option<Setup> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let next = Setup::new(config.seed, warm, &mut outcome)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = setup.replace(next) {
            // Snapshots are not compared: the unbounded memo encodes its
            // entries in hash-map order, which differs between processes
            // and between maps.
            let next = setup.as_ref().expect("just replaced");
            if (&previous.rounds, &previous.expected) != (&next.rounds, &next.expected) {
                outcome.fail_check("two set-ups of one seed differ".into());
            }
            previous.shut_down()?;
        }
    }
    let mut setup = setup.expect("at least one set-up");

    let mut tracer = Tracer::new(config.trace);
    let mut layers = Layers::default();
    let mut latencies_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let loop_start = Instant::now();
    let mut play = 0;
    loop {
        let r = play % ROUNDS;
        let requests = &setup.rounds[r];
        let service = match (warm, setup.restarted.get_mut(r).and_then(Option::take)) {
            (true, Some(service)) => service,
            (true, None) => {
                AdmissionService::spawn_warm(&setup.snapshots[r]).map_err(|e| e.to_string())?
            }
            (false, _) => spawn_cold(),
        };
        let (served, _) = serve(service, requests, &mut tracer, play, false)?;
        outcome.attempted += requests.len() as u64;
        outcome.failed += served.failed;
        busy += served.active;
        latencies_ms.extend(served.round_trips.iter().copied().map(ms));
        if served.slots != setup.expected[r] {
            outcome.fail_check(format!(
                "play {play} of round {r} ended off batch first-fit"
            ));
        }
        if warm && served.tier.exact_verifies != 0 {
            outcome.fail_check(format!(
                "warm play {play} ran {} exact verifications",
                served.tier.exact_verifies
            ));
        }
        if config.trace {
            let snapshot = warm.then(|| setup.snapshots[r].as_slice());
            let direct = replay_direct(snapshot, requests, &mut tracer, play)?;
            if direct.slots != served.slots || counts_of(&direct.tier) != counts_of(&served.tier) {
                outcome.fail_check(format!(
                    "the direct replay of play {play} diverged from the service"
                ));
            }
            layers.add(play < ROUNDS, requests, &served, &direct);
        }
        play += 1;
        if play % ROUNDS == 0 && loop_start.elapsed() >= config.seconds {
            break;
        }
    }
    setup.shut_down()?;

    outcome.notes.push(format!(
        "{play} plays: {} cycles of {ROUNDS} distinct rounds of {ROUND_OPS} requests",
        play / ROUNDS
    ));
    if config.trace {
        outcome.notes.push(format!(
            "counted pass: the first play of each of the {ROUNDS} rounds"
        ));
        layers.report(&mut outcome);
    } else {
        insert_end_to_end(&mut outcome, median(&setup_s), latencies_ms, TAIL_P, busy);
        outcome.notes.push(format!(
            "setup_s: median of {repeats} set-ups, each generating {ROUNDS} rounds and their batch first-fit partitions{}",
            if warm { ", then serving each round cold, snapshotting it and restarting warm" } else { "" }
        ));
    }
    outcome.spans = tracer.into_spans();
    Ok(outcome)
}
