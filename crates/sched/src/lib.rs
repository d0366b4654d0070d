//! Laxity-based slot arbitration and scheduler/plant co-simulation.
//!
//! The verification layer (`cps-verify`) explores *all* disturbance scenarios
//! symbolically; this crate executes *one concrete scenario* at a time, and
//! holds the repository's only concrete scheduler:
//!
//! * [`arbiter`] — the paper's EDF-like policy: among the waiting
//!   applications, the one with the smallest remaining laxity
//!   `D = T_w^* − T_w` gets the slot.
//! * [`slot_scheduler`] — the discrete-time scheduler that applies the
//!   switching strategy (grant, minimum-dwell preemption, maximum-dwell
//!   release) to a given pattern of disturbance arrivals. One stepping loop
//!   serves two entries: [`SlotScheduler::schedule`] records who owns the
//!   slot at every sample, and [`first_miss`] reports only the first
//!   deadline miss, over borrowed profiles. `cps-verify` validates its
//!   witnesses with [`first_miss`], and the `cps-map` admission cascade
//!   screens candidates with it.
//! * [`cosim`] — closes the loop: the scheduler's slot ownership is turned
//!   into per-application mode schedules and the switched closed loops are
//!   simulated, producing the response curves of the paper's Figs. 8 and 9
//!   and checking every settling requirement. [`CosimScenario::run`] runs
//!   one scenario in which each application is disturbed once.
//!
//! # Example
//!
//! ```
//! use cps_sched::arbiter::select_by_laxity;
//!
//! // (application index, waited samples, maximum wait T_w^*)
//! let waiting = [(0, 3, 11), (1, 5, 12), (2, 1, 25)];
//! // App 1 has laxity 7, app 0 has 8, app 2 has 24 → app 1 wins.
//! assert_eq!(select_by_laxity(waiting.iter().copied()), Some(1));
//! ```

pub mod arbiter;
pub mod cosim;
mod error;
pub mod slot_scheduler;
pub mod trace;

pub use arbiter::select_by_laxity;
pub use cosim::{CosimApp, CosimResult, CosimScenario};
pub use error::SchedError;
pub use slot_scheduler::{first_miss, ScheduleOutcome, SlotScheduler};
pub use trace::{AppScheduleTrace, GrantRecord};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
        assert_send_sync::<SlotScheduler>();
        assert_send_sync::<ScheduleOutcome>();
        assert_send_sync::<CosimScenario>();
        assert_send_sync::<CosimResult>();
    }
}
