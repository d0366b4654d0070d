//! Message types of the admission service.
//!
//! The service speaks a small request/response protocol: every [`Request`]
//! a client sends is answered with exactly one `Result<Response,
//! ServiceError>`, and requests and responses pair up by kind (an
//! [`Request::Admit`] is answered by [`Response::Admitted`], and so on).
//! Keeping the message types separate from the locking and supervision
//! mechanics mirrors the usual protocol/transport layering of a networked
//! service front end, even though this in-process service serves each
//! request on its caller's thread.

use std::error::Error;
use std::fmt;

use cps_core::AppTimingProfile;
use cps_map::{AdmissionError, TierStats};
use cps_verify::VerifyError;

/// A client request to the admission service.
#[derive(Debug, Clone)]
pub enum Request {
    /// Admit an arriving application into the resident fleet.
    Admit(AppTimingProfile),
    /// Admit an arriving application under a per-request deadline: every
    /// exact verification is capped at `state_budget` explored states, and
    /// probes the exact tier cannot decide in budget degrade onto the sound
    /// conservative screen (see
    /// [`cps_map::AdmissionState::add_app_within`]).
    AdmitWithin {
        /// The arriving application.
        profile: AppTimingProfile,
        /// Exact-verification state budget per probe (the cooperative
        /// deadline).
        state_budget: usize,
    },
    /// Evict the application at this fleet index (later indices renumber
    /// down by one, as in [`cps_map::AdmissionState::remove_app`]).
    Evict(usize),
    /// Serialize the cascade caches as a versioned warm-start snapshot.
    Snapshot,
    /// Report the current fleet, partition, and cascade statistics.
    Stats,
}

/// The service's answer to one [`Request`], paired by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Admit`].
    Admitted(AdmitOutcome),
    /// Answer to [`Request::AdmitWithin`].
    AdmittedWithin(AdmitVerdict),
    /// Answer to [`Request::Evict`].
    Evicted(EvictOutcome),
    /// Answer to [`Request::Snapshot`]: the snapshot bytes.
    Snapshot(Vec<u8>),
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
}

/// The verdict of one deadline-bounded admission. Both accept variants are
/// *sound*: the placement is bit-identical to the one unbounded exact
/// admission would produce. `Deferred` is the honest "not decidable in
/// budget" answer — the fleet is unchanged and the caller may retry with a
/// larger budget or none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitVerdict {
    /// Every probe was decided with exact-tier fidelity.
    Admitted(AdmitOutcome),
    /// At least one probe fell back to the sound conservative screen after
    /// the exact tier ran out of budget; the placement is still exact.
    AdmittedDegraded(AdmitOutcome),
    /// No sound verdict was reachable within the budget; nothing changed.
    Deferred,
}

/// A successful admission: where the application landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Fleet index assigned to the arrival (stable until an eviction below
    /// it renumbers the fleet).
    pub index: usize,
    /// Slot the arrival was placed in.
    pub slot: usize,
    /// The repaired partition (slots list fleet indices).
    pub slots: Vec<Vec<usize>>,
}

/// A successful eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictOutcome {
    /// Name of the departed application.
    pub name: String,
    /// The repaired partition over the renumbered fleet.
    pub slots: Vec<Vec<usize>>,
}

/// A point-in-time view of the service's state and lifetime cascade work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Resident fleet size.
    pub fleet_len: usize,
    /// Current partition (slots list fleet indices).
    pub slots: Vec<Vec<usize>>,
    /// Admission checks performed by every repair so far, across
    /// restarts.
    pub oracle_calls: usize,
    /// Lifetime cascade statistics (memo hits, exact verifies, ...), across
    /// restarts.
    pub tier: TierStats,
    /// Worker restarts the supervisor performed after panics.
    pub restarts: usize,
    /// Applications the supervisor failed to re-admit while rebuilding the
    /// fleet after a restart (zero in every correct run: recovery replays
    /// the mirror against warm caches).
    pub recovery_losses: usize,
    /// Faults the service's own [`cps_fault::FaultPlan`] injected so far
    /// (zero when no plan was armed).
    pub faults_injected: usize,
}

/// Why a request failed. The service survives every error — a failed
/// admission rolls the fleet back and the service keeps answering.
#[derive(Debug)]
pub enum ServiceError {
    /// The cascade's exact tier failed (budget exhaustion, invalid config).
    Verify(VerifyError),
    /// An eviction named an index outside the resident fleet.
    EvictOutOfRange {
        /// The requested fleet index.
        index: usize,
        /// Resident fleet size at the time of the request.
        fleet_len: usize,
    },
    /// A panic escaped the supervisor, on this call or an earlier one, and
    /// left the service dead.
    Disconnected,
    /// A panic interrupted this request, and the supervisor rebuilt the
    /// state from its last good snapshot. The request was **not** applied
    /// (the rebuilt state never contains a half-applied mutation), so
    /// retrying it is safe — [`crate::RetryingClient`] does exactly that.
    WorkerRestarted,
    /// A non-blocking call found the service's bound of callers in flight
    /// reached (see [`crate::ServiceOptions::queue_capacity`]).
    QueueFull,
    /// An internal invariant did not hold while answering; the service
    /// survives and keeps serving. Never expected in practice.
    Internal {
        /// What was violated.
        reason: &'static str,
    },
    /// The service answered with a response of the wrong kind — a protocol
    /// bug, never expected in practice.
    Protocol {
        /// The response kind the client was waiting for.
        expected: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Verify(e) => write!(f, "admission verification failed: {e}"),
            ServiceError::EvictOutOfRange { index, fleet_len } => write!(
                f,
                "evict index {index} out of range for a fleet of {fleet_len}"
            ),
            ServiceError::Disconnected => write!(f, "admission service disconnected"),
            ServiceError::WorkerRestarted => write!(
                f,
                "admission service was restarted while serving this request; \
                 the request was not applied and may be retried"
            ),
            ServiceError::QueueFull => {
                write!(f, "admission service has too many callers in flight")
            }
            ServiceError::Internal { reason } => {
                write!(f, "admission service internal invariant violated: {reason}")
            }
            ServiceError::Protocol { expected } => {
                write!(f, "protocol violation: expected a {expected} response")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerifyError> for ServiceError {
    fn from(e: VerifyError) -> Self {
        ServiceError::Verify(e)
    }
}

impl From<AdmissionError> for ServiceError {
    fn from(e: AdmissionError) -> Self {
        match e {
            AdmissionError::OutOfRange { index, fleet_len } => {
                ServiceError::EvictOutOfRange { index, fleet_len }
            }
            AdmissionError::Verify(e) => ServiceError::Verify(e),
        }
    }
}
