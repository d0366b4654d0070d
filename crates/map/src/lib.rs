//! First-fit application-to-slot mapping with pluggable admission oracles.
//!
//! The paper dimensions the static segment with a first-fit heuristic:
//! applications are sorted by ascending maximum wait `T_w^*` (ties broken by
//! the largest minimum dwell `T_dw^{-*}`), then each application is placed in
//! the first existing slot whose extended application set still passes the
//! admission test, or a new slot is opened. The admission test is
//! *pluggable*:
//!
//! * [`oracle::ModelCheckingOracle`] — the paper's approach: exact
//!   verification with `cps-verify`;
//! * [`baseline::BaselineOracle`] — the conservative blocking analysis of
//!   the prior work the paper compares against, in the [`baseline`] module;
//! * any user-supplied [`SlotOracle`] implementation.
//!
//! On the paper's case study the model-checking oracle yields the published
//! two-slot partition `{C1,C5,C4,C3}` + `{C6,C2}`, while the conservative
//! oracle needs three slots, `{C1,C5}{C4,C6}{C2,C3}` — the tighter
//! dimensioning the paper's title refers to.
//!
//! For design-space exploration — sweeps, large fleets, optimal (not just
//! first-fit) dimensioning — the [`engine`] module provides
//! [`MapExplorerEngine`]: a tiered admission cascade (necessary-condition
//! screen, canonical memo table, anti-monotone pruning, gated baseline
//! accept) in front of one persistent exact verifier, plus a serial
//! branch-and-bound [`MapExplorerEngine::minimize_slots`] whose minimal slot
//! counts are pinned to the naive exhaustive partition search retained in
//! [`mod@reference`].
//!
//! For *online* operation — applications arriving and departing one at a
//! time against a long-lived service — the [`admission`] module provides
//! [`AdmissionState`]: the same cascade (shared via the crate-internal
//! `cascade` core), but driven incrementally, repairing the current
//! partition after each change instead of re-running first-fit, and
//! persisting its caches as versioned binary snapshots for warm restarts.

pub mod admission;
pub mod baseline;
pub mod engine;
pub mod first_fit;
pub mod oracle;
pub mod reference;
pub mod report;

mod cascade;

pub use admission::{AdmissionError, AdmissionState, AdmitQuality, DeadlineAdmit};
pub use baseline::BaselineOracle;
pub use engine::MapExplorerEngine;
pub use first_fit::{first_fit, sort_for_first_fit};
pub use oracle::{ModelCheckingOracle, SlotOracle};
pub use report::{MappingReport, MinimizeReport, TierStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelCheckingOracle>();
        assert_send_sync::<BaselineOracle>();
        assert_send_sync::<baseline::Strategy>();
        assert_send_sync::<MappingReport>();
        assert_send_sync::<MapExplorerEngine>();
        assert_send_sync::<MinimizeReport>();
        assert_send_sync::<TierStats>();
        assert_send_sync::<AdmissionState>();
        assert_send_sync::<AdmissionError>();
        assert_send_sync::<AdmitQuality>();
        assert_send_sync::<DeadlineAdmit>();
    }
}
