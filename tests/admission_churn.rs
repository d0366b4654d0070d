//! Integration tests: the online admission service's incremental repair,
//! pinned against batch first-fit over a long seeded churn stream.
//!
//! `AdmissionState` keeps the fleet's first-fit order across requests and
//! re-places only the suffix a request can affect. After every arrival and
//! departure its partition must equal `MapExplorerEngine::first_fit` over
//! the resident fleet, on the default bounded memo and on the unbounded
//! one. The catalog holds two different contents with equal first-fit keys,
//! so ties resolve by fleet index, and the stream draws duplicates. Refused,
//! deferred and failed requests must leave the fleet and the partition as
//! they found them, and later requests must still match the batch rebuild.
//! Switching an engine between memo kinds keeps its eviction count.
//!
//! A repair skips every probe whose verdict the run that built the current
//! partition, or the identical application placed just before (its twin),
//! already decided. The stream's probe and verification counts are pinned,
//! and named cases pin the probes single requests send.

use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::{
    sort_for_first_fit, AdmissionError, AdmissionState, AdmitQuality, DeadlineAdmit,
    MapExplorerEngine,
};
use cps_verify::{VerificationConfig, VerifyError};

/// Requests in one churn stream.
const REQUESTS: usize = 320;
/// Resident-fleet cap: at the cap the next request is a departure.
const RESIDENT_CAP: usize = 12;
/// A deadline-bounded arrival is tried every this many requests.
const DEFERRAL_EVERY: usize = 40;
/// Per seed: the stream's probes that reached the cascade and its exact
/// verifications, deferred arrivals included, under either memo kind.
const STREAM_WORK: [(u64, usize, usize); 2] = [(1, 1_571, 45), (7, 1_618, 36)];

/// Catalog indices of the named cases.
const URGENT: usize = 0;
const TIE_A: usize = 1;
const TIE_B: usize = 2;
const RELAXED: usize = 3;
const LONG: usize = 4;

/// A profile with constant dwell arrays: `max_wait` is `T_w^*`, the first
/// dwell array `T_dw^-` and the second `T_dw^+`. `full_hold` sets `J_T` to
/// the largest dwell, which opens the cascade's baseline gate; otherwise
/// `J_T` is one sample.
fn profile(
    name: &str,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    r: usize,
    full_hold: bool,
) -> AppTimingProfile {
    let len = max_wait + 1;
    let jstar = max_wait + dwell_plus + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len]).unwrap();
    let jt = if full_hold { dwell_plus } else { 1 };
    AppTimingProfile::new(name, jt, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
}

/// The contents every arrival is drawn from. `tie_a` and `tie_b` differ but
/// share the first-fit key `(3, 2)`.
fn catalog() -> Vec<AppTimingProfile> {
    let catalog = vec![
        profile("urgent", 1, 1, 1, 8, true),
        profile("tie_a", 3, 2, 2, 12, true),
        profile("tie_b", 3, 2, 3, 16, false),
        profile("relaxed", 4, 1, 2, 10, false),
        profile("long", 2, 2, 2, 9, false),
    ];
    // Equal keys: first-fit orders the pair by index, whichever comes first.
    let (a, b) = (catalog[1].clone(), catalog[2].clone());
    assert_ne!(a, b);
    assert_eq!(sort_for_first_fit(&[a.clone(), b.clone()]), [0, 1]);
    assert_eq!(sort_for_first_fit(&[b, a]), [0, 1]);
    catalog
}

/// A profile whose every shared-slot probe is new to the memo, which the
/// conservative screen can never accept and which the exact tier cannot
/// decide from one popped state: a two-sample wait.
fn deferring() -> AppTimingProfile {
    profile("short_wait", 2, 1, 1, 30, false)
}

/// One request of a stream.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// Admit a copy of this catalog entry.
    Arrive(usize),
    /// Evict the application at this fleet index.
    Depart(usize),
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

/// A seeded arrival/departure stream: arrivals take three draws in four
/// until the cap, every departure picks a uniformly random resident.
fn stream(seed: u64, catalog_len: usize) -> Vec<Request> {
    let mut rng = Rng(seed | 1);
    let mut resident = 0;
    (0..REQUESTS)
        .map(|_| {
            if resident == 0 || (resident < RESIDENT_CAP && rng.below(4) != 0) {
                resident += 1;
                Request::Arrive(rng.below(catalog_len))
            } else {
                resident -= 1;
                Request::Depart(rng.below(resident + 1))
            }
        })
        .collect()
}

/// Applies one request, which must succeed.
fn apply(state: &mut AdmissionState, catalog: &[AppTimingProfile], request: Request, k: usize) {
    match request {
        Request::Arrive(c) => {
            // A renamed copy: fingerprints ignore names.
            let p = &catalog[c];
            let copy = AppTimingProfile::new(
                format!("{}#{k}", p.name()),
                p.jt(),
                p.je(),
                p.jstar(),
                p.min_inter_arrival(),
                p.dwell_table().clone(),
            )
            .unwrap();
            state.add_app(copy).unwrap();
        }
        Request::Depart(index) => {
            state.remove_app(index).unwrap();
        }
    }
}

/// The partition must equal a batch first-fit rebuild of the resident
/// fleet. `batch` keeps its caches across calls; its verdicts are exact, so
/// they never depend on what it answered before.
fn assert_matches_batch(state: &AdmissionState, batch: &mut MapExplorerEngine, context: &str) {
    let expected = batch.first_fit(state.fleet()).unwrap();
    assert_eq!(
        state.report().slots(),
        expected.slots(),
        "{context}: incremental partition diverged from the batch rebuild"
    );
}

/// What a refused request must leave untouched.
fn observe(state: &AdmissionState) -> (Vec<AppTimingProfile>, Vec<Vec<usize>>) {
    (state.fleet().to_vec(), state.report().slots().to_vec())
}

/// The two memo kinds every contract runs on.
fn fresh_states(config: VerificationConfig) -> [(&'static str, AdmissionState); 2] {
    [
        ("bounded memo", AdmissionState::with_config(config)),
        (
            "unbounded memo",
            AdmissionState::with_config(config).with_unbounded_memo(),
        ),
    ]
}

#[test]
fn churn_stream_matches_batch_first_fit_after_every_request() {
    let catalog = catalog();
    for seed in [1, 7] {
        let requests = stream(seed, catalog.len());
        let departures = requests
            .iter()
            .filter(|r| matches!(r, Request::Depart(_)))
            .count();
        assert!(departures >= REQUESTS / 5, "seed {seed}: {departures}");
        for (label, mut state) in fresh_states(VerificationConfig::default()) {
            let mut batch = MapExplorerEngine::new();
            let mut deferrals = 0;
            // What the stream must have exercised: several slots, shared
            // slots, and both tie-keyed contents resident at once.
            let (mut most_slots, mut most_sharing, mut ties_resident) = (0, 0, false);
            for (k, &request) in requests.iter().enumerate() {
                let context = format!("seed {seed}, {label}, request {k} ({request:?})");
                apply(&mut state, &catalog, request, k);
                assert_matches_batch(&state, &mut batch, &context);
                let slots = state.report().slots();
                most_slots = most_slots.max(slots.len());
                most_sharing = most_sharing.max(slots.iter().map(Vec::len).max().unwrap_or(0));
                let resident = |name: &str| {
                    state
                        .fleet()
                        .iter()
                        .any(|p| p.name().starts_with(&format!("{name}#")))
                };
                ties_resident |= resident("tie_a") && resident("tie_b");
                // A starved deadline arrival mid-stream: deferred, and rolled
                // back without a trace.
                if k % DEFERRAL_EVERY == DEFERRAL_EVERY - 1 && !state.fleet().is_empty() {
                    let before = observe(&state);
                    let verdict = state.add_app_within(deferring(), 1).unwrap();
                    assert_eq!(verdict, DeadlineAdmit::Deferred, "{context}");
                    assert_eq!(observe(&state), before, "{context}: deferral rolled back");
                    deferrals += 1;
                }
            }
            assert!(deferrals >= REQUESTS / DEFERRAL_EVERY - 1, "{label}");
            assert_eq!(state.stats().deferred, deferrals, "{label}");
            assert!(most_slots >= 3 && most_sharing >= 3, "{label}");
            assert!(ties_resident, "seed {seed}, {label}");
            assert!(state.stats().exact_verifies > 0, "{label}");
            assert!(state.stats().memo_hits > 0, "{label}");
            let work = (state.stats().queries, state.stats().exact_verifies);
            let pinned = STREAM_WORK.iter().find(|w| w.0 == seed).unwrap();
            assert_eq!(work, (pinned.1, pinned.2), "seed {seed}, {label}");
        }
    }
}

/// Applies `request` and returns how many probes reached the cascade,
/// after checking the partition against a batch rebuild.
fn probes_of(
    state: &mut AdmissionState,
    request: impl FnOnce(&mut AdmissionState),
    context: &str,
) -> usize {
    let before = state.stats().queries;
    request(state);
    assert_matches_batch(state, &mut MapExplorerEngine::new(), context);
    state.stats().queries - before
}

/// Admits a copy of each listed catalog entry, in order.
fn admit_all(state: &mut AdmissionState, catalog: &[AppTimingProfile], entries: &[usize]) {
    for (k, &c) in entries.iter().enumerate() {
        apply(state, catalog, Request::Arrive(c), k);
    }
}

#[test]
fn departure_of_a_slots_first_member_reuses_the_prior_run() {
    // `urgent long relaxed` share slot 0; the second `long` opens slot 1
    // and the third joins it. Evicting the second `long` re-places the
    // third and `relaxed`. The third `long` was rejected at slot 0 and
    // slot 0 is unchanged, so it is rejected again and opens slot 1;
    // `relaxed` was accepted at slot 0, unchanged, so it is accepted again.
    // Neither needs a probe.
    let catalog = catalog();
    for (label, mut state) in fresh_states(VerificationConfig::default()) {
        admit_all(&mut state, &catalog, &[URGENT, LONG, LONG, LONG, RELAXED]);
        assert_eq!(
            state.report().slots(),
            [vec![0, 1, 4], vec![2, 3]],
            "{label}"
        );
        let probes = probes_of(&mut state, |s| drop(s.remove_app(2).unwrap()), label);
        assert_eq!(state.report().slots(), [vec![0, 1, 3], vec![2]], "{label}");
        assert_eq!(probes, 0, "{label}");
    }
}

#[test]
fn an_arrival_that_pushes_a_later_application_out_repairs_exactly() {
    // A second `urgent` ranks right after the first and joins slot 0, so
    // the first `long` no longer fits there and moves to slot 1. Slot 0 has
    // gained a member, so `long` and `relaxed` probe it; slot 1 has lost
    // its old members, so the second `long` probes it. Below slot 1 the
    // second `long` is rejected without a probe: its twin, the first
    // `long`, was just rejected there. Four probes, one fewer than a plain
    // re-placement.
    let catalog = catalog();
    for (label, mut state) in fresh_states(VerificationConfig::default()) {
        admit_all(&mut state, &catalog, &[URGENT, LONG, RELAXED, LONG]);
        assert_eq!(state.report().slots(), [vec![0, 1, 2], vec![3]], "{label}");
        let probes = probes_of(
            &mut state,
            |s| apply(s, &catalog, Request::Arrive(URGENT), 4),
            label,
        );
        assert_eq!(
            state.report().slots(),
            [vec![0, 4, 2], vec![1, 3]],
            "{label}"
        );
        assert_eq!(probes, 4, "{label}");
    }
}

#[test]
fn a_twin_run_stops_at_the_tie_keyed_pair() {
    // Arrivals at the end of the first-fit order: only the twin rule can
    // skip a probe. `tie_a` and `tie_b` share a key, so the run below is
    // ordered by arrival, but only equal contents are twins: each `tie_a`
    // right after a `tie_a` skips the slots below its twin's slot (third
    // `tie_a`: one probe, not two; the last but one: one, not three), while
    // the `tie_b` after a `tie_a`, and the `tie_a` after it, probe every
    // slot.
    let catalog = catalog();
    let run = [TIE_A, TIE_A, TIE_A, TIE_A, TIE_B, TIE_A, TIE_A, TIE_B];
    for (label, mut state) in fresh_states(VerificationConfig::default()) {
        let probes: Vec<usize> = run
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let context = format!("{label}, arrival {k}");
                probes_of(
                    &mut state,
                    |s| apply(s, &catalog, Request::Arrive(c), k),
                    &context,
                )
            })
            .collect();
        assert_eq!(probes, [0, 1, 1, 1, 2, 3, 1, 4], "{label}");
        assert_eq!(
            state.report().slots(),
            [vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]],
            "{label}"
        );
    }
}

#[test]
fn deadline_arrivals_place_exactly_on_known_verdicts() {
    // A one-entry memo forgets almost every verdict, and a one-state budget
    // starves the exact tier. The arriving `tie_a` ranks after the resident
    // `tie_a` pair and before `relaxed`. Its twin, the second resident
    // `tie_a`, was rejected at slot 0, so slot 0 rejects it without a
    // probe; that probe's verdict is long evicted, and the screen cannot
    // reject. Slot 1 takes it through the baseline gate, and `relaxed` goes
    // back to slot 0, unchanged, without a probe. The placement is exact.
    let catalog = catalog();
    let mut state = AdmissionState::new().with_memo_capacity(1);
    admit_all(&mut state, &catalog, &[LONG, RELAXED, TIE_A, TIE_A]);
    assert_eq!(state.report().slots(), [vec![0, 2, 1], vec![3]]);
    let mut verdict = None;
    let probes = probes_of(
        &mut state,
        |s| verdict = Some(s.add_app_within(catalog[TIE_A].clone(), 1).unwrap()),
        "deadline arrival",
    );
    assert_eq!(
        verdict,
        Some(DeadlineAdmit::Placed {
            index: 4,
            quality: AdmitQuality::Exact
        })
    );
    assert_eq!(state.report().slots(), [vec![0, 2, 1], vec![3, 4]]);
    assert_eq!(probes, 1);
}

#[test]
fn budget_failures_roll_back_arrivals_and_departures() {
    // Under a one-state budget every exact verification fails, so only the
    // cheap tiers may decide: `early` and `mid` share a slot through the
    // baseline gate, and the triple with `late` fails the quick screen. The
    // pair `mid`+`late` needs the exact verifier.
    let early = profile("early", 1, 1, 1, 8, true);
    let mid = profile("mid", 1, 2, 2, 8, true);
    let late = profile("late", 2, 1, 2, 8, false);
    let tight = VerificationConfig {
        state_budget: 1,
        ..VerificationConfig::default()
    };
    let is_budget = |e: &VerifyError| matches!(e, VerifyError::StateBudgetExhausted { .. });
    for (label, mut state) in fresh_states(tight) {
        let mut batch = MapExplorerEngine::new();
        state.add_app(mid.clone()).unwrap();

        // An arrival whose first probe needs the exact verifier is refused.
        let before = observe(&state);
        let err = state.add_app(late.clone()).unwrap_err();
        assert!(is_budget(&err), "{label}: {err}");
        assert_eq!(observe(&state), before, "{label}: refused arrival");

        // `early` sorts first and joins `mid`; `late` then only probes the
        // triple, which the screen rejects, and opens its own slot.
        state.add_app(early.clone()).unwrap();
        state.add_app(late.clone()).unwrap();
        assert_eq!(state.report().slots(), [vec![1, 0], vec![2]], "{label}");
        assert_matches_batch(&state, &mut batch, label);

        // Evicting `early` would re-place `late` against `mid` alone: a new
        // pair, beyond the budget. The departure fails and changes nothing.
        let before = observe(&state);
        match state.remove_app(1).unwrap_err() {
            AdmissionError::Verify(e) => assert!(is_budget(&e), "{label}: {e}"),
            other => panic!("{label}: {other}"),
        }
        assert_eq!(observe(&state), before, "{label}: failed departure");

        // Later requests still repair exactly.
        state.remove_app(2).unwrap();
        assert_matches_batch(&state, &mut batch, label);
        state.remove_app(0).unwrap();
        assert_matches_batch(&state, &mut batch, label);
        state.add_app(mid.clone()).unwrap();
        assert_matches_batch(&state, &mut batch, label);
        state.add_app(early.clone()).unwrap();
        assert_matches_batch(&state, &mut batch, label);
        assert_eq!(state.fleet().len(), 3, "{label}");
    }
}

#[test]
fn states_fed_the_same_requests_snapshot_identical_bytes() {
    // The snapshot of the unbounded memo lists the map in iteration order,
    // so equal bytes need a hasher that is a function of the keys alone.
    let catalog = catalog();
    let requests = stream(3, catalog.len());
    for (label, memo) in [
        (
            "bounded memo",
            AdmissionState::new as fn() -> AdmissionState,
        ),
        ("unbounded memo", || {
            AdmissionState::new().with_unbounded_memo()
        }),
    ] {
        let (mut first, mut second) = (memo(), memo());
        for (k, &request) in requests.iter().enumerate() {
            apply(&mut first, &catalog, request, k);
            apply(&mut second, &catalog, request, k);
            if k % DEFERRAL_EVERY == 0 {
                assert_eq!(first.snapshot(), second.snapshot(), "{label}, request {k}");
            }
        }
        let bytes = first.snapshot();
        assert_eq!(bytes, second.snapshot(), "{label}");
        // Restoring keeps the warm caches: replaying the stream on the
        // restored state needs no exact verification.
        let mut warm = AdmissionState::from_snapshot(&bytes).unwrap();
        for (k, &request) in requests.iter().enumerate() {
            apply(&mut warm, &catalog, request, k);
        }
        assert_eq!(warm.report().slots(), first.report().slots(), "{label}");
        assert_eq!(warm.stats().exact_verifies, 0, "{label}");
    }
}

#[test]
fn memo_switches_keep_the_eviction_count() {
    // A switch replaces the memo table, not the lifetime statistics: the
    // count only grows while a bounded memo evicts, so a later run's
    // per-call difference never underflows.
    let mut fleet = catalog();
    fleet.push(deferring());
    let mut engine = MapExplorerEngine::new().with_memo_capacity(1);
    let tiny = engine.first_fit(&fleet).unwrap();
    let evicted = engine.stats().tt_evictions;
    assert!(evicted > 0, "a one-bucket memo must evict");
    assert_eq!(tiny.tier_stats().unwrap().tt_evictions, evicted);

    let mut engine = engine.with_unbounded_memo();
    let unbounded = engine.first_fit(&fleet).unwrap();
    let mut engine = engine.with_memo_capacity(1024);
    let roomy = engine.first_fit(&fleet).unwrap();
    for report in [&unbounded, &roomy] {
        assert_eq!(report.tier_stats().unwrap().tt_evictions, 0);
        assert_eq!(report.slots(), tiny.slots());
    }
    assert_eq!(engine.stats().tt_evictions, evicted);
}
