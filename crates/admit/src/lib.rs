//! An online admission-control service over the incremental mapping
//! cascade.
//!
//! `cps-map` answers mapping questions in two shapes: the batch
//! [`cps_map::MapExplorerEngine`] (re-run first-fit over a whole fleet) and
//! the incremental [`cps_map::AdmissionState`] (repair the partition as
//! applications arrive and depart). This crate turns the latter into a
//! *service*: one long-lived `AdmissionState` — and through it the
//! persistent verdict memo, anti-monotone index, interned fingerprints, and
//! the exact verifier — sits behind a lock shared by any number of client
//! handles. Each client serves its own requests on its own thread, one
//! lock holder at a time, so a request costs no thread switch.
//!
//! The crate splits along the usual lines of a service front end:
//!
//! * [`protocol`] — the message types ([`Request`], [`Response`],
//!   [`ServiceError`]) and nothing else;
//! * [`service`] — the shared state, its supervisor, and the
//!   [`AdmissionClient`] / [`AdmissionService`] handles.
//!
//! Warm starts close the loop with `cps-intern`'s snapshot format:
//! [`AdmissionClient::snapshot`] serializes the service's caches, and
//! [`AdmissionService::spawn_warm`] restores them so a restarted service
//! answers re-admissions of its old fleet without ever touching the exact
//! verifier — bit-identical verdicts, memo-hit latency.
//!
//! The service is *fault tolerant*: its state is supervised (a panic
//! rebuilds the state from the last good snapshot and the supervisor's
//! fleet mirror, and the interrupted request is answered with the retryable
//! [`ServiceError::WorkerRestarted`]), deadline-bounded admissions degrade
//! onto a sound conservative screen instead of missing their budget (see
//! [`AdmitVerdict`]), and [`retry`] wraps a client with bounded
//! deterministic backoff over the transient errors. Faults are injected —
//! never random — through the [`cps_fault::FaultPlan`] carried by
//! [`ServiceOptions`], so every crash/recovery scenario replays bit-exactly
//! from its seed.

pub mod protocol;
pub mod retry;
pub mod service;

pub use protocol::{
    AdmitOutcome, AdmitVerdict, EvictOutcome, Request, Response, ServiceError, ServiceStats,
};
pub use retry::{RetryPolicy, RetryingClient};
pub use service::{
    AdmissionClient, AdmissionService, ServiceOptions, ShutdownError, ShutdownTimeout,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AdmissionClient>();
        assert_send::<AdmissionService>();
        assert_send::<Request>();
        assert_send::<Response>();
        assert_send::<ServiceError>();
        assert_send::<RetryingClient>();
        assert_send::<ShutdownError>();
    }
}
