//! A client wrapper that retries transient service failures.
//!
//! Two [`ServiceError`]s are *transient by contract*: [`ServiceError::QueueFull`]
//! (the call was refused before it touched the state) and
//! [`ServiceError::WorkerRestarted`] (the supervisor rebuilt the state from
//! its last good snapshot and the request was **not** applied). Both leave
//! the service's state exactly as if the call had never been made, so
//! repeating the identical call is always safe — no admission can be
//! applied twice. [`RetryingClient`] automates that repeat with a bounded,
//! deterministic exponential backoff; every other error (verification
//! failures, out-of-range evictions, disconnection) is permanent and
//! surfaces immediately.
//!
//! The service itself never refuses a call: a caller waits on the state's
//! lock. [`ServiceError::QueueFull`] comes from the wrapper's own
//! [`cps_fault::FaultPlan`], which, for the fault soak, injects it on the
//! client side before a call, exercising the retry path deterministically.

use std::thread;
use std::time::Duration;

use cps_core::AppTimingProfile;
use cps_fault::{FaultPlan, FaultSite};

use crate::protocol::{AdmitOutcome, AdmitVerdict, EvictOutcome, ServiceError, ServiceStats};
use crate::service::AdmissionClient;

/// How often and how patiently [`RetryingClient`] repeats a transient
/// failure.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (the first try included). The transient
    /// error of the final attempt is returned to the caller.
    pub max_attempts: usize,
    /// Sleep before the first retry; doubles every further retry.
    pub base_backoff: Duration,
    /// Cap on the doubled backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `retry` (0-based):
    /// `base * 2^retry`, capped at `max_backoff`.
    pub fn backoff(&self, retry: usize) -> Duration {
        let factor = 1u32 << retry.min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

/// An [`AdmissionClient`] wrapper that transparently retries transient
/// failures. See the module docs for which errors qualify and why the
/// retries are safe.
///
/// Methods take `&mut self` because the wrapper counts its retries (and,
/// when armed, advances its fault plan); wrap one per producer thread.
pub struct RetryingClient {
    client: AdmissionClient,
    policy: RetryPolicy,
    faults: FaultPlan,
    retries: usize,
}

impl RetryingClient {
    /// Wraps a client with the default [`RetryPolicy`] and no fault
    /// injection.
    pub fn new(client: AdmissionClient) -> Self {
        Self::with_policy(client, RetryPolicy::default())
    }

    /// Wraps a client with an explicit policy.
    pub fn with_policy(client: AdmissionClient, policy: RetryPolicy) -> Self {
        RetryingClient {
            client,
            policy,
            faults: FaultPlan::none(),
            retries: 0,
        }
    }

    /// Arms client-side fault injection: [`cps_fault::FaultSite::QueueFull`]
    /// trips make a call fail fast as [`ServiceError::QueueFull`] without
    /// touching the service.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Retries performed so far (attempts beyond the first, summed over
    /// every request).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Queue-full faults the wrapper's own plan has injected so far.
    pub fn injected_faults(&self) -> usize {
        self.faults.stats().total_injected()
    }

    /// Makes one call, retrying transient failures per the policy. Each
    /// attempt that reaches the service runs `call` afresh.
    fn call<T>(
        &mut self,
        mut call: impl FnMut(&AdmissionClient) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut attempt = 0;
        loop {
            let outcome = if self.faults.trip(FaultSite::QueueFull) {
                Err(ServiceError::QueueFull)
            } else {
                call(&self.client)
            };
            match outcome {
                Err(e @ (ServiceError::QueueFull | ServiceError::WorkerRestarted)) => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    self.retries += 1;
                    thread::sleep(self.policy.backoff(attempt - 1));
                }
                other => return other,
            }
        }
    }

    /// [`AdmissionClient::admit`] with retries.
    ///
    /// # Errors
    ///
    /// The errors of [`AdmissionClient::admit`], plus a transient error that
    /// survived [`RetryPolicy::max_attempts`] attempts.
    pub fn admit(&mut self, profile: AppTimingProfile) -> Result<AdmitOutcome, ServiceError> {
        self.call(|client| client.admit(profile.clone()))
    }

    /// [`AdmissionClient::admit_within`] with retries.
    ///
    /// # Errors
    ///
    /// As [`RetryingClient::admit`].
    pub fn admit_within(
        &mut self,
        profile: AppTimingProfile,
        state_budget: usize,
    ) -> Result<AdmitVerdict, ServiceError> {
        self.call(|client| client.admit_within(profile.clone(), state_budget))
    }

    /// [`AdmissionClient::evict`] with retries.
    ///
    /// # Errors
    ///
    /// As [`RetryingClient::admit`].
    pub fn evict(&mut self, index: usize) -> Result<EvictOutcome, ServiceError> {
        self.call(|client| client.evict(index))
    }

    /// [`AdmissionClient::snapshot`] with retries.
    ///
    /// # Errors
    ///
    /// As [`RetryingClient::admit`].
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ServiceError> {
        self.call(AdmissionClient::snapshot)
    }

    /// [`AdmissionClient::stats`] with retries.
    ///
    /// # Errors
    ///
    /// As [`RetryingClient::admit`].
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        self.call(AdmissionClient::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(0), Duration::from_micros(100));
        assert_eq!(policy.backoff(1), Duration::from_micros(200));
        assert_eq!(policy.backoff(2), Duration::from_micros(400));
        assert_eq!(policy.backoff(20), Duration::from_millis(10));
    }
}
