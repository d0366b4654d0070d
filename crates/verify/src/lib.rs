//! Exact discrete-time model checking of TT-slot sharing.
//!
//! The central verification question of the reproduced paper is:
//!
//! > When several applications share one time-triggered slot under the
//! > proposed switching strategy and laxity-based arbitration, is every
//! > application guaranteed to be granted the slot before its maximum wait
//! > `T_w^*`, in **all** possible disturbance scenarios?
//!
//! The paper answers it with UPPAAL on a network of timed automata. Because
//! the system is sampled-data — disturbances are sensed, counters advance and
//! scheduling decisions are taken only at multiples of the sampling period —
//! the continuous-time model is exactly equivalent to a finite discrete-time
//! transition system. This crate explores that transition system exhaustively:
//!
//! * [`SlotSharingModel`] — the applications mapped to one slot, described by
//!   their [`cps_core::AppTimingProfile`]s.
//! * [`engine`] — the interned-state exploration engine
//!   ([`SlotVerifyEngine`]): packed state words in a flat arena, hash-index
//!   deduplication, bitmask disturbance enumeration and a symmetry reduction
//!   over interchangeable applications. This is the production path, used by
//!   [`SlotSharingModel::verify`] and the mapping oracle of `cps-map`.
//! * [`checker`] — the naive breadth-first exploration over all sporadic
//!   disturbance patterns (the only source of nondeterminism), with the
//!   scheduler and the dwell-time strategy applied deterministically in
//!   every state. Retained as the semantic oracle (re-exported as
//!   [`mod@reference`]); engine and oracle verdicts, budget semantics and
//!   witness validity are asserted equivalent in tests and on every
//!   `bench_verify` run.
//! * [`bounded`] — the paper's acceleration: restricting each application to
//!   a bounded number of disturbance instances per analysis, which collapses
//!   the post-rejection bookkeeping and speeds verification up by an order of
//!   magnitude without changing the verdict for the case study.
//! * [`conservative`] — the prior-work-style worst-case-blocking analysis,
//!   `B_i ≤ D_i` per application in closed form; a coarser verdict than
//!   [`checker`] whose accepts imply exact accepts, used as the admission
//!   cascade's degraded screen.
//! * [`witness`] — counterexample traces when a deadline can be missed, and
//!   the replay validator ([`witness::validate_witness`]) that re-runs the
//!   scheduler under a witness's disturbance schedule.
//!
//! # Example
//!
//! ```
//! use cps_core::{AppTimingProfile, DwellTimeTable};
//! use cps_verify::{SlotSharingModel, VerificationConfig};
//!
//! # fn main() -> Result<(), cps_verify::VerifyError> {
//! // Two artificial applications with generous deadlines share a slot.
//! let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12])?;
//! let a = AppTimingProfile::new("A", 9, 35, 18, 25, table.clone())?;
//! let b = AppTimingProfile::new("B", 9, 35, 18, 25, table)?;
//! let model = SlotSharingModel::new(vec![a, b])?;
//! let outcome = model.verify(&VerificationConfig::default())?;
//! assert!(outcome.schedulable());
//! # Ok(())
//! # }
//! ```

pub mod bounded;
mod cancel;
pub mod checker;
pub mod conservative;
pub mod engine;
mod error;
mod model;
pub mod witness;

/// The retained naive checker — the semantic oracle the engine is pinned to.
pub use checker as reference;

pub use cancel::CancelToken;
pub use checker::{VerificationConfig, VerificationOutcome};
pub use conservative::{verify_conservative, verify_conservative_selected, ConservativeOutcome};
pub use engine::{
    has_interchangeable_neighbors, profiles_interchangeable, SlotVerifyEngine, VerifyStats,
};
pub use error::VerifyError;
pub use model::SlotSharingModel;
pub use witness::{
    replay_first_miss, replay_first_miss_selected, validate_witness, TraceEvent, Witness,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SlotSharingModel>();
        assert_send_sync::<VerificationConfig>();
        assert_send_sync::<VerificationOutcome>();
        assert_send_sync::<VerifyError>();
        assert_send_sync::<Witness>();
        assert_send_sync::<CancelToken>();
    }
}
