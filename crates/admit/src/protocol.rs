//! What the admission service's calls answer and how they fail.
//!
//! Each call of [`crate::AdmissionClient`] is a typed method: an admission
//! answers an [`AdmitOutcome`] (or, under a deadline, an [`AdmitVerdict`]),
//! an eviction an [`EvictOutcome`], a stats call a [`ServiceStats`], and
//! every call fails with a [`ServiceError`]. A reply carries the placement
//! it made, not the partition; [`ServiceStats::slots`] reports that.

use std::error::Error;
use std::fmt;

use cps_map::{AdmissionError, TierStats};
use cps_verify::VerifyError;

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
}

/// A successful eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictOutcome {
    /// Name of the departed application.
    pub name: String,
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
    /// Lifetime cascade statistics (memo hits, exact verifies, falsified
    /// rejects and walk samples, ...), across restarts.
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
    /// The call was refused before it touched the state. Only the retrying
    /// client's injected faults raise it ([`cps_fault::FaultSite::QueueFull`],
    /// see [`crate::RetryingClient::with_faults`]); the service itself lets
    /// every caller wait on its lock.
    QueueFull,
    /// An internal invariant did not hold while answering; the service
    /// survives and keeps serving. Never expected in practice.
    Internal {
        /// What was violated.
        reason: &'static str,
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
                write!(f, "admission call refused before it reached the service")
            }
            ServiceError::Internal { reason } => {
                write!(f, "admission service internal invariant violated: {reason}")
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
