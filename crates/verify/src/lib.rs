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
//!   deduplication with dominance pruning, a one-sample lookahead that
//!   decides a deadline miss when the state leading to it is interned,
//!   bitmask disturbance enumeration and a symmetry reduction over
//!   interchangeable applications. This is the
//!   production path, used by [`SlotSharingModel::verify`] and the mapping
//!   oracle of `cps-map`.
//! * [`checker`] — the naive breadth-first exploration over all sporadic
//!   disturbance patterns (the only source of nondeterminism), with the
//!   scheduler and the dwell-time strategy applied deterministically in
//!   every state. It skips every state that a visited state dominates: one
//!   whose scheduler-visible cells are equal and whose idle applications are
//!   each at least as close to their next possible disturbance. It steps
//!   each newly visited state's choices at once and stops at the first
//!   state with a deadline miss one sample ahead. Retained as
//!   the semantic oracle (re-exported as [`mod@reference`]); engine and
//!   oracle verdicts, budget semantics and witness validity are asserted
//!   equivalent in tests and on every `bench_verify` run.
//! * [`bounded`] — the paper's acceleration: restricting each application to
//!   a bounded number of disturbance instances per analysis. In UPPAAL it
//!   sped the paper's hardest mapping up about 20×; in this discrete
//!   formulation the instance counters keep otherwise equal states apart
//!   and leave nothing to prune, so the bounded model costs far more than
//!   the exact one (1,413,516 states at one instance per application
//!   against 10,852 exact states on `{C1,C5,C4,C3}`). It is kept for
//!   fidelity to the paper.
//! * [`conservative`] — the prior-work-style worst-case-blocking analysis,
//!   `B_i ≤ D_i` per application in closed form; a coarser verdict than
//!   [`checker`] whose accepts imply exact accepts, used as the admission
//!   cascade's degraded screen.
//! * [`witness`] — counterexample traces when a deadline can be missed, and
//!   the validator ([`witness::validate_witness`]) that runs a witness's
//!   disturbance schedule through `cps-sched`'s concrete scheduler
//!   ([`cps_sched::first_miss`]), independent of both explorations.
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
pub mod checker;
pub mod conservative;
pub mod engine;
mod error;
mod model;
pub mod witness;

/// The retained naive checker — the semantic oracle the engine is pinned to.
pub use checker as reference;

pub use checker::{VerificationConfig, VerificationOutcome};
pub use conservative::{verify_conservative, verify_conservative_selected, ConservativeOutcome};
pub use engine::{
    has_interchangeable_neighbors, profiles_interchangeable, SlotVerifyEngine, VerifyStats,
};
pub use error::VerifyError;
pub use model::SlotSharingModel;
pub use witness::{validate_witness, TraceEvent, Witness};

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
    }
}
