//! The admission service and its client handle.
//!
//! One [`AdmissionState`] — and with it the persistent memo, anti-monotone
//! index, interned fingerprints, and the exact [`cps_verify`] engine behind
//! the cascade — sits behind a lock that the service and every
//! [`AdmissionClient`] share. A client serves its [`Request`] on its own
//! thread under that lock, so a round trip costs one uncontended lock and
//! no thread switch. Concurrent callers are served in lock order, not
//! FIFO. [`ServiceOptions::queue_capacity`] bounds the callers in flight: a
//! blocking call waits on the lock, and the retrying client's non-blocking
//! call is refused with [`ServiceError::QueueFull`], without touching the
//! state, when that many are already in flight.
//!
//! [`AdmissionService::shutdown`] waits, up to a deadline, until every
//! client has dropped, then hands back the final [`AdmissionState`] so a
//! caller can snapshot it at rest.
//!
//! # Supervision
//!
//! The state is *supervised*: every request is handled under
//! [`std::panic::catch_unwind`], and a panic — whether a genuine bug or one
//! injected through the [`cps_fault::FaultPlan`] of [`ServiceOptions`] —
//! discards the possibly half-mutated state and rebuilds it from the last
//! good snapshot plus a fleet mirror the supervisor keeps outside the
//! blast radius. The interrupted request is answered with
//! [`ServiceError::WorkerRestarted`] and was **not** applied (the mirror
//! only records mutations after their reply-worthy success), so clients can
//! retry it safely — [`crate::RetryingClient`] automates exactly that.
//! Recovery replays the mirror against the restored warm caches, so it
//! costs memo lookups, not exact verification. A panic that escapes the
//! supervisor itself poisons the lock: that call and every later one are
//! answered [`ServiceError::Disconnected`], and shutdown reports
//! [`ShutdownError::WorkerPanicked`].
//!
//! The last good snapshot rolls forward every
//! [`ServiceOptions::snapshot_interval`] successful mutations, but is
//! re-encoded only when the caches changed since its last encode, as
//! [`AdmissionState::cache_generation`] tells. A restart encodes the caches
//! it rebuilt, so a second restart before the next cadence point restores
//! what the first one's replay verified.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cps_core::AppTimingProfile;
use cps_fault::{FaultPlan, FaultSite};
use cps_intern::SnapshotError;
use cps_map::{AdmissionState, AdmitQuality, DeadlineAdmit, TierStats};
use cps_verify::VerificationConfig;

use crate::protocol::{
    AdmitOutcome, AdmitVerdict, EvictOutcome, Request, Response, ServiceError, ServiceStats,
};

/// What the service and its clients share: the supervised state behind its
/// lock, and the callers in flight.
struct Shared {
    supervisor: Mutex<Supervisor>,
    in_flight: AtomicUsize,
    /// [`ServiceOptions::queue_capacity`], at least one.
    capacity: usize,
}

impl Shared {
    /// Runs `serve` under the lock for a caller counted in flight, then counts
    /// it out. A panic escaping `serve` poisons the lock for good.
    fn serve(
        &self,
        serve: impl FnOnce(&mut Supervisor) -> Result<Response, ServiceError>,
    ) -> Result<Response, ServiceError> {
        let answer = panic::catch_unwind(AssertUnwindSafe(|| {
            self.supervisor
                .lock()
                .map_or(Err(ServiceError::Disconnected), |mut s| serve(&mut s))
        }))
        .unwrap_or(Err(ServiceError::Disconnected));
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        answer
    }
}

/// A cloneable, blocking handle to a running [`AdmissionService`].
///
/// Every live handle (clones included) holds up
/// [`AdmissionService::shutdown`] until it drops, so a handle bound in the
/// same scope as the shutdown must be `drop`ped explicitly first.
#[derive(Clone)]
pub struct AdmissionClient {
    shared: Arc<Shared>,
}

impl AdmissionClient {
    /// Answers one request on the calling thread, waiting for the lock
    /// while other callers hold it.
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        self.shared.serve(|supervisor| supervisor.serve(request))
    }

    /// Like [`AdmissionClient::call`], but fails fast with
    /// [`ServiceError::QueueFull`] when [`ServiceOptions::queue_capacity`]
    /// callers are already in flight. The retrying client is built on this.
    pub(crate) fn try_call(&self, request: Request) -> Result<Response, ServiceError> {
        if self.shared.in_flight.fetch_add(1, Ordering::Relaxed) >= self.shared.capacity {
            self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull);
        }
        self.shared.serve(|supervisor| supervisor.serve(request))
    }

    /// Admits an arriving application; returns once the partition is
    /// repaired.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Verify`] if the cascade's exact tier fails (the
    /// service rolls the fleet back and keeps serving), or
    /// [`ServiceError::Disconnected`] if a panic escaped the supervisor.
    pub fn admit(&self, profile: cps_core::AppTimingProfile) -> Result<AdmitOutcome, ServiceError> {
        match self.call(Request::Admit(profile))? {
            Response::Admitted(outcome) => Ok(outcome),
            _ => Err(ServiceError::Protocol {
                expected: "Admitted",
            }),
        }
    }

    /// Admits an arriving application under a per-request deadline: every
    /// exact verification is capped at `state_budget` explored states, with
    /// graceful degradation onto the sound conservative screen. See
    /// [`AdmitVerdict`] for the three possible sound answers.
    ///
    /// # Errors
    ///
    /// The errors of [`AdmissionClient::admit`].
    pub fn admit_within(
        &self,
        profile: cps_core::AppTimingProfile,
        state_budget: usize,
    ) -> Result<AdmitVerdict, ServiceError> {
        match self.call(Request::AdmitWithin {
            profile,
            state_budget,
        })? {
            Response::AdmittedWithin(verdict) => Ok(verdict),
            _ => Err(ServiceError::Protocol {
                expected: "AdmittedWithin",
            }),
        }
    }

    /// Evicts the application at `index` from the resident fleet.
    ///
    /// # Errors
    ///
    /// [`ServiceError::EvictOutOfRange`] for a bad index (checked by the
    /// service — it never panics on malformed requests), plus the errors of
    /// [`AdmissionClient::admit`].
    pub fn evict(&self, index: usize) -> Result<EvictOutcome, ServiceError> {
        match self.call(Request::Evict(index))? {
            Response::Evicted(outcome) => Ok(outcome),
            _ => Err(ServiceError::Protocol {
                expected: "Evicted",
            }),
        }
    }

    /// Serializes the service's cascade caches as a warm-start snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if a panic escaped the supervisor.
    pub fn snapshot(&self) -> Result<Vec<u8>, ServiceError> {
        match self.call(Request::Snapshot)? {
            Response::Snapshot(bytes) => Ok(bytes),
            _ => Err(ServiceError::Protocol {
                expected: "Snapshot",
            }),
        }
    }

    /// Reports the current fleet, partition, and lifetime cascade work.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if a panic escaped the supervisor.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        match self.call(Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ServiceError::Protocol { expected: "Stats" }),
        }
    }
}

/// A running admission service: one supervised [`AdmissionState`] that its
/// clients serve requests on. See the module docs for the in-flight bound
/// and the shutdown contract.
///
/// # Example
///
/// ```
/// use cps_admit::AdmissionService;
/// use cps_core::{AppTimingProfile, DwellTimeTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = |name: &str| -> AppTimingProfile {
///     let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12]).unwrap();
///     AppTimingProfile::new(name, 9, 35, 18, 25, table).unwrap()
/// };
/// let service = AdmissionService::spawn();
/// let client = service.client();
/// let a = client.admit(profile("A"))?;
/// let b = client.admit(profile("B"))?;
/// assert_eq!((a.index, b.index), (0, 1));
/// drop(client); // shutdown waits for every outstanding client
/// let state = service.shutdown()?;
/// assert_eq!(state.fleet().len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct AdmissionService {
    client: AdmissionClient,
}

/// Construction-time knobs of an [`AdmissionService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Bound on the callers in flight (the service's backpressure); the
    /// retrying client's calls beyond it fail fast. Zero counts as one.
    pub queue_capacity: usize,
    /// Take a recovery snapshot of the cascade caches after this many
    /// successful mutating requests; caches unchanged since the last
    /// snapshot are not re-encoded, as the last one already holds their
    /// bytes. Staleness only costs recovery *warmth*, never correctness:
    /// the fleet is always rebuilt from the supervisor's mirror, and the
    /// caches merely decide how much re-verification the rebuild needs.
    pub snapshot_interval: usize,
    /// Deterministic fault injection for the service (panic sites and
    /// budget squeezes). [`FaultPlan::none`] — the default — is entirely
    /// inert.
    pub faults: FaultPlan,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            queue_capacity: AdmissionService::DEFAULT_QUEUE_CAPACITY,
            snapshot_interval: 8,
            faults: FaultPlan::none(),
        }
    }
}

impl AdmissionService {
    /// In-flight bound used by [`AdmissionService::spawn`] and
    /// [`AdmissionService::spawn_warm`].
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// Deadline of [`AdmissionService::shutdown`]: long enough for any client
    /// to finish, finite so a forgotten handle surfaces as an error.
    pub const DEFAULT_SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(30);

    /// Starts a cold service: empty fleet, empty caches, default (exact,
    /// unbounded) verification configuration.
    pub fn spawn() -> Self {
        Self::spawn_with_options(AdmissionState::new(), ServiceOptions::default())
    }

    /// Starts a warm service from [`AdmissionClient::snapshot`] bytes: the
    /// fleet starts empty (snapshots carry caches, not request state) but
    /// re-admissions of the saved fleet are answered without touching the
    /// exact verifier.
    ///
    /// # Errors
    ///
    /// Propagates snapshot framing/payload violations.
    pub fn spawn_warm(snapshot: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::spawn_with_options(
            AdmissionState::from_snapshot(snapshot)?,
            ServiceOptions::default(),
        ))
    }

    /// Starts a service over an explicit state (e.g. a custom verification
    /// configuration or bounded memo) and in-flight bound.
    pub fn spawn_with(state: AdmissionState, queue_capacity: usize) -> Self {
        Self::spawn_with_options(
            state,
            ServiceOptions {
                queue_capacity,
                ..ServiceOptions::default()
            },
        )
    }

    /// Starts a service with explicit [`ServiceOptions`] — in-flight bound,
    /// recovery snapshot cadence, and (for tests and the fault soak) a
    /// deterministic fault plan.
    pub fn spawn_with_options(state: AdmissionState, options: ServiceOptions) -> Self {
        let shared = Arc::new(Shared {
            capacity: options.queue_capacity.max(1),
            in_flight: AtomicUsize::new(0),
            supervisor: Mutex::new(Supervisor::new(state, options)),
        });
        AdmissionService {
            client: AdmissionClient { shared },
        }
    }

    /// A new client handle. Handles are cheap to clone and may be moved to
    /// other threads; requests from concurrent clients take the state's
    /// lock in turn.
    pub fn client(&self) -> AdmissionClient {
        self.client.clone()
    }

    /// Gracefully shuts down: waits until every client handle has dropped
    /// (each finishes its requests first) and returns the final state.
    /// Equivalent to [`AdmissionService::shutdown_timeout`] with
    /// [`AdmissionService::DEFAULT_SHUTDOWN_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// As [`AdmissionService::shutdown_timeout`].
    pub fn shutdown(self) -> Result<AdmissionState, ShutdownError> {
        self.shutdown_timeout(Self::DEFAULT_SHUTDOWN_TIMEOUT)
    }

    /// Like [`AdmissionService::shutdown`], with an explicit deadline: the
    /// other handles are polled for (with a short exponential backoff)
    /// until they have all dropped or the deadline passes. Rust drops
    /// locals at the end of their scope, not at last use, so the deadline
    /// turns a forgotten handle into an error instead of a hang.
    ///
    /// # Errors
    ///
    /// [`ShutdownError::TimedOut`] when live [`AdmissionClient`] handles
    /// remain at the deadline; its [`ShutdownTimeout::wait`] completes the
    /// shutdown once they are gone. [`ShutdownError::WorkerPanicked`] if a
    /// panic escaped the supervisor (a bug in the supervisor).
    pub fn shutdown_timeout(self, timeout: Duration) -> Result<AdmissionState, ShutdownError> {
        let pending = ShutdownTimeout {
            timeout,
            shared: self.client.shared,
        };
        pending.finish(Some(Instant::now() + timeout))
    }
}

/// Why a shutdown did not hand the final state back.
#[derive(Debug)]
pub enum ShutdownError {
    /// Outstanding clients were still alive at the deadline; the carried
    /// [`ShutdownTimeout`] keeps the service and can finish the shutdown
    /// once they drop.
    TimedOut(ShutdownTimeout),
    /// A panic escaped the supervisor — per-request panics are caught and
    /// recovered by the supervisor, so this means a bug outside any request
    /// handler.
    WorkerPanicked,
}

impl ShutdownError {
    /// The carried [`ShutdownTimeout`], if this was a timeout.
    pub fn into_timeout(self) -> Option<ShutdownTimeout> {
        match self {
            ShutdownError::TimedOut(t) => Some(t),
            ShutdownError::WorkerPanicked => None,
        }
    }
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShutdownError::TimedOut(t) => t.fmt(f),
            ShutdownError::WorkerPanicked => {
                write!(f, "admission service panicked outside any request")
            }
        }
    }
}

impl std::error::Error for ShutdownError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShutdownError::TimedOut(t) => Some(t),
            ShutdownError::WorkerPanicked => None,
        }
    }
}

/// Typed shutdown failure: clients were still alive when
/// [`AdmissionService::shutdown_timeout`]'s deadline passed.
///
/// The service is *not* lost — it keeps serving the surviving clients, and
/// this error keeps it, so dropping the stragglers and calling
/// [`ShutdownTimeout::wait`] completes the shutdown.
pub struct ShutdownTimeout {
    timeout: Duration,
    shared: Arc<Shared>,
}

impl ShutdownTimeout {
    /// The deadline that passed.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Whether every client has dropped in the meantime, making
    /// [`ShutdownTimeout::wait`] immediate.
    pub fn is_finished(&self) -> bool {
        Arc::strong_count(&self.shared) == 1
    }

    /// Blocks until every client has dropped, completing the shutdown that
    /// timed out.
    ///
    /// # Errors
    ///
    /// [`ShutdownError::WorkerPanicked`] if a panic escaped the supervisor.
    pub fn wait(self) -> Result<AdmissionState, ShutdownError> {
        self.finish(None)
    }

    /// Takes the final state out once every other handle has dropped,
    /// polling with a short exponential backoff; at `deadline`, if any,
    /// hands `self` back as the error.
    fn finish(mut self, deadline: Option<Instant>) -> Result<AdmissionState, ShutdownError> {
        let mut backoff = Duration::from_micros(50);
        let alone = loop {
            self.shared = match Arc::try_unwrap(self.shared) {
                Ok(alone) => break alone,
                Err(shared) => shared,
            };
            let now = Instant::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                return Err(ShutdownError::TimedOut(self));
            }
            thread::sleep(deadline.map_or(backoff, |deadline| backoff.min(deadline - now)));
            backoff = (backoff * 2).min(Duration::from_millis(10));
        };
        let state = alone.supervisor.into_inner().map(|s| s.state);
        state.map_err(|_| ShutdownError::WorkerPanicked)
    }
}

impl std::fmt::Debug for ShutdownTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShutdownTimeout({:?})", self.timeout)
    }
}

impl std::fmt::Display for ShutdownTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission service shutdown timed out after {:?}: outstanding clients remain",
            self.timeout
        )
    }
}

impl std::error::Error for ShutdownTimeout {}

/// Supervisor-owned counters surfaced through [`ServiceStats`].
#[derive(Default)]
struct ServiceMeta {
    restarts: usize,
    recovery_losses: usize,
    faults_injected: usize,
    /// Cascade work of the states that restarts replaced, so the lifetime
    /// counters of [`ServiceStats`] never go backwards.
    retired_tier: TierStats,
    retired_oracle_calls: usize,
}

/// The service's crash containment: the live state, the last good snapshot
/// of its caches, and a mirror of the resident fleet kept outside the
/// panic blast radius. See the module docs.
struct Supervisor {
    state: AdmissionState,
    plan: FaultPlan,
    snapshot_interval: usize,
    ops_since_snapshot: usize,
    last_snapshot: Vec<u8>,
    /// The state's cache generation when `last_snapshot` was encoded.
    snapshot_generation: u64,
    /// The resident fleet as of the last *successful* mutation — the ground
    /// truth recovery rebuilds from. Updated only after a request fully
    /// succeeded, so a panic anywhere in a handler leaves it describing the
    /// pre-request fleet.
    mirror: Vec<AppTimingProfile>,
    meta: ServiceMeta,
    /// Cold-rebuild fallback configuration, should even the last good
    /// snapshot fail to parse.
    config: VerificationConfig,
}

impl Supervisor {
    fn new(state: AdmissionState, options: ServiceOptions) -> Self {
        Supervisor {
            last_snapshot: state.snapshot(),
            snapshot_generation: state.cache_generation(),
            mirror: state.fleet().to_vec(),
            config: *state.config(),
            state,
            plan: options.faults,
            snapshot_interval: options.snapshot_interval.max(1),
            ops_since_snapshot: 0,
            meta: ServiceMeta::default(),
        }
    }

    /// Answers one request under panic supervision.
    fn serve(&mut self, request: Request) -> Result<Response, ServiceError> {
        // Squeeze the deadline budget first so the fault is part of the
        // request the handler (and a retry) actually sees.
        let request = match request {
            Request::AdmitWithin {
                profile,
                state_budget,
            } => {
                let state_budget = self
                    .plan
                    .squeeze_budget()
                    .map_or(state_budget, |b| b.min(state_budget));
                Request::AdmitWithin {
                    profile,
                    state_budget,
                }
            }
            other => other,
        };
        // Bookkeeping the mirror needs after `handle` consumed the request.
        let arriving = match &request {
            Request::Admit(p) => Some(p.clone()),
            Request::AdmitWithin { profile, .. } => Some(profile.clone()),
            _ => None,
        };
        let evicting = match &request {
            Request::Evict(i) => Some(*i),
            _ => None,
        };
        self.meta.faults_injected = self.plan.stats().total_injected();
        let meta = &self.meta;
        let state = &mut self.state;
        let plan = &mut self.plan;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if plan.trip(FaultSite::WorkerPanicPre) {
                panic!("injected fault: admission service panic before handling");
            }
            let answer = handle(state, request, meta);
            if answer.is_ok() && plan.trip(FaultSite::WorkerPanicPost) {
                panic!("injected fault: admission service panic after handling");
            }
            answer
        }));
        match outcome {
            Ok(answer) => {
                if let Ok(response) = &answer {
                    self.note_success(response, arriving, evicting);
                }
                answer
            }
            Err(_) => {
                self.restart();
                Err(ServiceError::WorkerRestarted)
            }
        }
    }

    /// Mirrors a successful mutation and rolls the recovery snapshot
    /// forward on cadence, re-encoding only when the caches changed since
    /// the last encode.
    fn note_success(
        &mut self,
        response: &Response,
        arriving: Option<AppTimingProfile>,
        evicting: Option<usize>,
    ) {
        let mutated = match response {
            Response::Admitted(_)
            | Response::AdmittedWithin(
                AdmitVerdict::Admitted(_) | AdmitVerdict::AdmittedDegraded(_),
            ) => {
                if let Some(p) = arriving {
                    self.mirror.push(p);
                }
                true
            }
            Response::Evicted(_) => {
                if let Some(i) = evicting {
                    if i < self.mirror.len() {
                        self.mirror.remove(i);
                    }
                }
                true
            }
            Response::AdmittedWithin(AdmitVerdict::Deferred)
            | Response::Snapshot(_)
            | Response::Stats(_) => false,
        };
        if mutated {
            self.ops_since_snapshot += 1;
            if self.ops_since_snapshot >= self.snapshot_interval {
                let generation = self.state.cache_generation();
                if self.snapshot_generation != generation {
                    self.last_snapshot = self.state.snapshot();
                    self.snapshot_generation = generation;
                }
                self.ops_since_snapshot = 0;
            }
        }
    }

    /// Rebuilds the state after a panic: restore the cache snapshot (cold
    /// caches if even that fails), replay the fleet mirror against the
    /// warm caches, then encode the rebuilt caches as the new recovery
    /// snapshot. Applications that fail to re-admit are counted as
    /// recovery losses and dropped from the mirror so fleet indices stay
    /// consistent; a correct run never loses any.
    fn restart(&mut self) {
        self.meta.restarts += 1;
        self.meta.retired_tier.accumulate(self.state.stats());
        self.meta.retired_oracle_calls += self.state.report().oracle_calls();
        let mut fresh = AdmissionState::from_snapshot(&self.last_snapshot)
            .unwrap_or_else(|_| AdmissionState::with_config(self.config));
        let mut survivors = Vec::with_capacity(self.mirror.len());
        for p in self.mirror.drain(..) {
            if fresh.add_app(p.clone()).is_ok() {
                survivors.push(p);
            } else {
                self.meta.recovery_losses += 1;
            }
        }
        self.mirror = survivors;
        self.state = fresh;
        self.ops_since_snapshot = 0;
        self.last_snapshot = self.state.snapshot();
        self.snapshot_generation = self.state.cache_generation();
    }
}

/// Builds the [`AdmitOutcome`] for a placed application.
fn placed_outcome(state: &AdmissionState, index: usize) -> Result<AdmitOutcome, ServiceError> {
    let slot = state
        .report()
        .slot_of(index)
        .ok_or(ServiceError::Internal {
            reason: "an admitted application has no slot in the repaired partition",
        })?;
    Ok(AdmitOutcome {
        index,
        slot,
        slots: state.report().slots().to_vec(),
    })
}

/// Answers one request against the persistent state.
fn handle(
    state: &mut AdmissionState,
    request: Request,
    meta: &ServiceMeta,
) -> Result<Response, ServiceError> {
    match request {
        Request::Admit(profile) => {
            let index = state.add_app(profile)?;
            Ok(Response::Admitted(placed_outcome(state, index)?))
        }
        Request::AdmitWithin {
            profile,
            state_budget,
        } => match state.add_app_within(profile, state_budget)? {
            DeadlineAdmit::Placed { index, quality } => {
                let outcome = placed_outcome(state, index)?;
                Ok(Response::AdmittedWithin(match quality {
                    AdmitQuality::Exact => AdmitVerdict::Admitted(outcome),
                    AdmitQuality::Degraded => AdmitVerdict::AdmittedDegraded(outcome),
                }))
            }
            DeadlineAdmit::Deferred => Ok(Response::AdmittedWithin(AdmitVerdict::Deferred)),
        },
        Request::Evict(index) => {
            let profile = state.remove_app(index)?;
            Ok(Response::Evicted(EvictOutcome {
                name: profile.name().to_string(),
                slots: state.report().slots().to_vec(),
            }))
        }
        Request::Snapshot => Ok(Response::Snapshot(state.snapshot())),
        Request::Stats => {
            let mut tier = meta.retired_tier;
            tier.accumulate(state.stats());
            Ok(Response::Stats(ServiceStats {
                fleet_len: state.fleet().len(),
                slots: state.report().slots().to_vec(),
                oracle_calls: meta.retired_oracle_calls + state.report().oracle_calls(),
                tier,
                restarts: meta.restarts,
                recovery_losses: meta.recovery_losses,
                faults_injected: meta.faults_injected,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::{AppTimingProfile, DwellTimeTable};
    use cps_verify::{VerificationConfig, VerifyError};
    use std::sync::mpsc;

    fn profile(name: &str, max_wait: usize, dwell: usize) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell; len], vec![dwell; len]).unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, jstar + 10, table).unwrap()
    }

    #[test]
    fn admit_evict_roundtrip_through_a_client() {
        let service = AdmissionService::spawn();
        let client = service.client();
        let a = client.admit(profile("A", 10, 3)).unwrap();
        assert_eq!((a.index, a.slot), (0, 0));
        let b = client.admit(profile("B", 10, 3)).unwrap();
        assert_eq!(b.index, 1);
        let evicted = client.evict(0).unwrap();
        assert_eq!(evicted.name, "A");
        let stats = client.stats().unwrap();
        assert_eq!(stats.fleet_len, 1);
        assert_eq!(stats.slots, vec![vec![0]]);
        assert!(stats.tier.queries > 0);
        drop(client);
        let state = service.shutdown().unwrap();
        assert_eq!(state.fleet()[0].name(), "B");
    }

    #[test]
    fn malformed_evictions_are_answered_not_panicked() {
        let service = AdmissionService::spawn();
        let client = service.client();
        let err = client.evict(0).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::EvictOutOfRange {
                index: 0,
                fleet_len: 0
            }
        ));
        // The service survived and keeps serving.
        client.admit(profile("A", 10, 3)).unwrap();
        drop(client);
        assert_eq!(service.shutdown().unwrap().fleet().len(), 1);
    }

    #[test]
    fn verification_failures_roll_back_and_keep_serving() {
        let state = AdmissionState::with_config(VerificationConfig {
            state_budget: 1,
            ..VerificationConfig::default()
        });
        let service = AdmissionService::spawn_with(state, 4);
        let client = service.client();
        client.admit(profile("A", 10, 3)).unwrap();
        let err = client.admit(profile("B", 10, 3)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Verify(VerifyError::StateBudgetExhausted { .. })
        ));
        let stats = client.stats().unwrap();
        assert_eq!(stats.fleet_len, 1, "failed admission must roll back");
        drop(client);
        service.shutdown().unwrap();
    }

    #[test]
    fn every_request_of_a_dropped_client_lands_before_shutdown() {
        let service = AdmissionService::spawn_with(AdmissionState::new(), 16);
        // Admissions from a second thread that ignores the answers and
        // drops its handle: shutdown returns the state they all changed.
        let client = service.client();
        let producer = thread::spawn(move || {
            for i in 0..8 {
                let name = format!("P{i}");
                let _ = client.call(Request::Admit(profile(&name, 10, 3)));
            }
        });
        producer.join().unwrap();
        let state = service.shutdown().unwrap();
        assert_eq!(state.fleet().len(), 8, "every admission lands");
    }

    #[test]
    fn shutdown_timeout_reports_live_clients_and_can_still_finish() {
        let service = AdmissionService::spawn();
        let straggler = service.client();
        let err = service
            .shutdown_timeout(Duration::from_millis(20))
            .unwrap_err();
        assert!(err.to_string().contains("outstanding clients"));
        let timeout = err.into_timeout().unwrap();
        assert_eq!(timeout.timeout(), Duration::from_millis(20));
        assert!(
            !timeout.is_finished(),
            "a live client keeps the service alive"
        );
        // The service still serves the straggler...
        straggler.admit(profile("A", 10, 3)).unwrap();
        // ...and once it hangs up, the shutdown completes.
        drop(straggler);
        let state = timeout.wait().unwrap();
        assert_eq!(state.fleet().len(), 1);
    }

    #[test]
    fn shutdown_timeout_succeeds_when_no_clients_are_left() {
        let service = AdmissionService::spawn();
        let client = service.client();
        client.admit(profile("A", 10, 3)).unwrap();
        drop(client);
        let state = service.shutdown_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(state.fleet().len(), 1);
    }

    /// Varied dwell bounds and a tight residency requirement, so pairs
    /// reach the exact tier instead of being decided by the cheap screens.
    fn wide_profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
        r: usize,
    ) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell_plus + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len])
            .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    #[test]
    fn deadline_admissions_degrade_and_defer_soundly() {
        let service = AdmissionService::spawn();
        let client = service.client();
        // A comfortable budget: exact-fidelity answer.
        match client
            .admit_within(wide_profile("A", 10, 3, 5, 30), 1_000_000)
            .unwrap()
        {
            AdmitVerdict::Admitted(outcome) => assert_eq!(outcome.index, 0),
            other => panic!("expected an exact admission, got {other:?}"),
        }
        // A starved budget on an arrival the conservative screen cannot
        // vouch for: deferred, nothing changes.
        assert_eq!(
            client
                .admit_within(wide_profile("C", 0, 5, 5, 30), 1)
                .unwrap(),
            AdmitVerdict::Deferred
        );
        // A starved budget on a co-residency the screen does accept: a
        // degraded (still sound, still bit-identical) placement.
        match client
            .admit_within(wide_profile("B", 10, 3, 5, 30), 1)
            .unwrap()
        {
            AdmitVerdict::AdmittedDegraded(outcome) => assert_eq!(outcome.index, 1),
            other => panic!("expected a degraded admission, got {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.fleet_len, 2);
        assert_eq!(stats.tier.deferred, 1);
        assert!(stats.tier.degraded_accepts > 0);
        drop(client);
        service.shutdown().unwrap();
    }

    #[test]
    fn injected_panics_restart_the_worker_and_lose_nothing() {
        let plan = FaultPlan::seeded(11)
            .with_rate(FaultSite::WorkerPanicPre, 200)
            .with_rate(FaultSite::WorkerPanicPost, 150);
        let service = AdmissionService::spawn_with_options(
            AdmissionState::new(),
            ServiceOptions {
                snapshot_interval: 2,
                faults: plan,
                ..ServiceOptions::default()
            },
        );
        let client = service.client();
        for i in 0..12 {
            let p = profile(&format!("P{i}"), 10, 3);
            loop {
                match client.admit(p.clone()) {
                    Ok(outcome) => {
                        // A restarted request was never applied, so the
                        // retry lands at the index the original would have.
                        assert_eq!(outcome.index, i);
                        break;
                    }
                    Err(ServiceError::WorkerRestarted) => continue,
                    Err(e) => panic!("unexpected admission failure: {e}"),
                }
            }
        }
        let stats = client.stats().unwrap();
        assert!(stats.restarts > 0, "the seeded storm must actually trip");
        assert_eq!(stats.recovery_losses, 0, "recovery must replay the fleet");
        assert_eq!(stats.fleet_len, 12);
        assert!(stats.faults_injected >= stats.restarts);
        drop(client);
        let state = service.shutdown().unwrap();
        assert_eq!(state.fleet().len(), 12);
    }

    #[test]
    fn recovery_snapshots_match_the_state_at_every_cadence_point() {
        // Served in-thread, so the supervisor's fields can be read between
        // requests. Panics after handling force restarts.
        let plan = FaultPlan::seeded(5).with_rate(FaultSite::WorkerPanicPost, 100);
        let options = ServiceOptions {
            snapshot_interval: 2,
            faults: plan,
            ..ServiceOptions::default()
        };
        let mut supervisor = Supervisor::new(AdmissionState::new(), options);
        let (mut cadence_points, mut skipped, mut restarts) = (0, 0, 0);
        let mut encoded_at = supervisor.snapshot_generation;
        for i in 0..80 {
            let resident = supervisor.state.fleet().len();
            let request = if resident < 4 || (resident < 8 && i % 3 != 0) {
                Request::Admit(profile(&format!("P{i}"), 4 + i % 2 * 3, 2))
            } else {
                Request::Evict(i % resident)
            };
            match supervisor.serve(request) {
                Ok(_) if supervisor.ops_since_snapshot == 0 => {
                    cadence_points += 1;
                    let generation = supervisor.state.cache_generation();
                    assert_eq!(supervisor.snapshot_generation, generation);
                    assert_eq!(
                        supervisor.last_snapshot,
                        supervisor.state.snapshot(),
                        "request {i}: the recovery snapshot is stale"
                    );
                    skipped += usize::from(encoded_at == generation);
                    encoded_at = generation;
                }
                Ok(_) => {}
                Err(ServiceError::WorkerRestarted) => {
                    restarts += 1;
                    // A restart encodes the caches it rebuilt.
                    assert_eq!(
                        supervisor.snapshot_generation,
                        supervisor.state.cache_generation(),
                        "request {i}"
                    );
                    assert_eq!(
                        supervisor.last_snapshot,
                        supervisor.state.snapshot(),
                        "request {i}: the restart left a stale recovery snapshot"
                    );
                    encoded_at = supervisor.snapshot_generation;
                }
                Err(e) => panic!("request {i}: {e}"),
            }
        }
        assert!(restarts > 0, "the seeded plan must trip");
        assert!(
            skipped > 0 && skipped < cadence_points,
            "{skipped} of {cadence_points} cadence points skipped the encode"
        );
    }

    #[test]
    fn back_to_back_restarts_replay_from_the_rebuilt_caches() {
        // No request reaches the cadence, so until a restart the recovery
        // snapshot holds the empty start-up caches.
        let options = ServiceOptions {
            snapshot_interval: usize::MAX,
            ..ServiceOptions::default()
        };
        let mut supervisor = Supervisor::new(AdmissionState::new(), options);
        for (i, &(wait, dwell_min, dwell_plus, r)) in
            [(10, 3, 5, 30), (10, 3, 5, 30), (4, 2, 3, 20), (3, 1, 2, 12)]
                .iter()
                .enumerate()
        {
            let p = wide_profile(&format!("P{i}"), wait, dwell_min, dwell_plus, r);
            supervisor.serve(Request::Admit(p)).unwrap();
        }
        assert!(supervisor.state.stats().exact_verifies > 0);
        supervisor.plan = FaultPlan::seeded(1).with_rate(FaultSite::WorkerPanicPre, 1000);
        let mut replays = Vec::new();
        for _ in 0..2 {
            let answer = supervisor.serve(Request::Stats);
            assert!(matches!(answer, Err(ServiceError::WorkerRestarted)));
            assert_eq!(supervisor.state.fleet().len(), 4);
            replays.push(supervisor.state.stats().exact_verifies);
        }
        assert!(replays[0] > 0, "the first replay starts from empty caches");
        assert_eq!(
            replays[1], 0,
            "the second replay restores what the first one verified"
        );
    }

    #[test]
    fn try_calls_beyond_the_in_flight_bound_are_refused_untouched() {
        let service = AdmissionService::spawn_with(AdmissionState::new(), 1);
        let client = service.client();
        // Hold the state as a caller mid-request would.
        let held = service.client.shared.supervisor.lock().unwrap();
        let blocked = {
            let client = client.clone();
            thread::spawn(move || client.admit(profile("A", 10, 3)))
        };
        while service.client.shared.in_flight.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        // Answered at once, from another thread so that a call that waited
        // instead fails the test rather than hanging it.
        let (answer, refused) = mpsc::channel();
        let eager = client.clone();
        thread::spawn(move || {
            answer
                .send(eager.try_call(Request::Admit(profile("B", 10, 3))))
                .ok()
        });
        assert!(matches!(
            refused.recv_timeout(Duration::from_secs(10)),
            Ok(Err(ServiceError::QueueFull))
        ));
        // The blocking caller waited on the lock and is served once freed.
        drop(held);
        assert_eq!(blocked.join().unwrap().unwrap().index, 0);
        assert_eq!(service.client.shared.in_flight.load(Ordering::Relaxed), 0);
        let stats = client.try_call(Request::Stats).unwrap();
        assert!(matches!(
            stats,
            Response::Stats(ServiceStats { fleet_len: 1, .. })
        ));
        drop(client);
        let state = service.shutdown().unwrap();
        assert_eq!(
            state.fleet()[0].name(),
            "A",
            "the refused call changed nothing"
        );
    }

    #[test]
    fn a_panic_escaping_the_supervisor_leaves_the_service_dead() {
        let service = AdmissionService::spawn();
        let client = service.client();
        client.admit(profile("A", 10, 3)).unwrap();
        client.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let escaped = client
            .shared
            .serve(|_| panic!("a bug outside any request handler"));
        assert!(matches!(escaped, Err(ServiceError::Disconnected)));
        assert!(matches!(
            client.admit(profile("B", 10, 3)),
            Err(ServiceError::Disconnected)
        ));
        assert!(matches!(client.stats(), Err(ServiceError::Disconnected)));
        assert_eq!(service.client.shared.in_flight.load(Ordering::Relaxed), 0);
        drop(client);
        assert!(matches!(
            service.shutdown(),
            Err(ShutdownError::WorkerPanicked)
        ));
    }

    #[test]
    fn clients_are_disconnected_after_shutdown() {
        let service = AdmissionService::spawn();
        let survivor = service.client();
        // `shutdown` waits for outstanding clients, which the service keeps
        // serving. Drop the survivor while a helper thread waits in
        // shutdown.
        let joiner = thread::spawn(move || service.shutdown());
        survivor.admit(profile("A", 10, 3)).unwrap();
        drop(survivor);
        let state = joiner.join().unwrap().unwrap();
        assert_eq!(state.fleet().len(), 1);
    }
}
