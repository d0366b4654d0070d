//! Deterministic, seeded fault injection.
//!
//! Fault tolerance is only testable if every failure mode *reproduces*: a
//! worker panic that depends on wall-clock timing or OS scheduling makes the
//! recovery path a flake, not a test. This crate provides the one fault
//! source the whole workspace shares — a [`FaultPlan`] that decides, from a
//! seed and nothing else, exactly which operation fails:
//!
//! * every fault site draws from its **own** splitmix64 stream, keyed by
//!   `(seed, site, per-site counter)` — injecting snapshot corruption never
//!   shifts the worker-panic schedule, so tests can tune one failure mode
//!   without re-deriving the others;
//! * decisions depend only on how many times the site was consulted, never
//!   on time or thread interleaving — the same plan replayed over the same
//!   request sequence fires the same faults, bit-exactly;
//! * the plan counts what it injected ([`FaultStats`]) so soaks can report
//!   fault rates and assert the storm actually happened.
//!
//! The consumers thread a plan through their failure points: the bytes a
//! test or soak hands to the `cps-intern` snapshot store
//! ([`FaultPlan::damage`]: torn writes, bit flips), the `cps-admit` worker
//! loop (panics before and after a mutation), the verifier budgets of
//! deadline-bounded admissions (budget squeezes) and the retrying client
//! (injected queue-full). [`FaultPlan::none`] is the production
//! configuration: every site disabled, zero overhead beyond a counter
//! increment.

use std::fmt;

/// The failure points a [`FaultPlan`] can fire at. Each site has an
/// independent decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic the admission worker *before* it touches the state (the request
    /// is atomically not applied).
    WorkerPanicPre,
    /// Panic the admission worker *after* the mutation succeeded but before
    /// the reply is sent (recovery must roll the mutation back).
    WorkerPanicPost,
    /// Truncate a snapshot mid-payload before it is saved (a torn write
    /// that still gets published).
    SnapshotTornWrite,
    /// Flip one bit of a snapshot's payload before it is saved.
    SnapshotBitFlip,
    /// Squeeze the exact verifier's state budget for one admission request.
    BudgetSqueeze,
    /// Report the service queue as full to the retrying client.
    QueueFull,
}

/// All sites, in the order their counters are reported by [`FaultStats`].
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::WorkerPanicPre,
    FaultSite::WorkerPanicPost,
    FaultSite::SnapshotTornWrite,
    FaultSite::SnapshotBitFlip,
    FaultSite::BudgetSqueeze,
    FaultSite::QueueFull,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanicPre => 0,
            FaultSite::WorkerPanicPost => 1,
            FaultSite::SnapshotTornWrite => 2,
            FaultSite::SnapshotBitFlip => 3,
            FaultSite::BudgetSqueeze => 4,
            FaultSite::QueueFull => 5,
        }
    }

    /// A fixed per-site salt: keeps the decision streams of different sites
    /// statistically independent under one seed.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only their distinctness matters.
        [
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0xD6E8_FEB8_6659_FD93,
            0xA076_1D64_78BD_642F,
            0xE703_7ED1_A0B4_28DB,
        ][self.index()]
    }

    /// Short machine-readable name, used by bench reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanicPre => "worker_panic_pre",
            FaultSite::WorkerPanicPost => "worker_panic_post",
            FaultSite::SnapshotTornWrite => "snapshot_torn_write",
            FaultSite::SnapshotBitFlip => "snapshot_bit_flip",
            FaultSite::BudgetSqueeze => "budget_squeeze",
            FaultSite::QueueFull => "queue_full",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How many faults a plan injected, per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    injected: [usize; FAULT_SITES.len()],
    consulted: [usize; FAULT_SITES.len()],
}

impl FaultStats {
    /// Faults injected at `site`.
    pub fn injected(&self, site: FaultSite) -> usize {
        self.injected[site.index()]
    }

    /// Times `site` was consulted (fired or not).
    pub fn consulted(&self, site: FaultSite) -> usize {
        self.consulted[site.index()]
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> usize {
        self.injected.iter().sum()
    }
}

/// Per-mille injection rates, one per fault site (0 = never, 1000 = always).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Rates([u32; FAULT_SITES.len()]);

/// A deterministic, seeded fault schedule. See the module docs.
///
/// # Example
///
/// ```
/// use cps_fault::{FaultPlan, FaultSite};
///
/// let mut a = FaultPlan::seeded(7).with_rate(FaultSite::QueueFull, 500);
/// let mut b = FaultPlan::seeded(7).with_rate(FaultSite::QueueFull, 500);
/// let fires: Vec<bool> = (0..16).map(|_| a.trip(FaultSite::QueueFull)).collect();
/// assert_eq!(fires, (0..16).map(|_| b.trip(FaultSite::QueueFull)).collect::<Vec<_>>());
/// assert!(a.stats().injected(FaultSite::QueueFull) > 0);
/// assert_eq!(FaultPlan::none().trip(FaultSite::QueueFull), false);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rates: Rates,
    /// How many decisions each site has drawn so far — the only mutable
    /// input to the decision function.
    counters: [u64; FAULT_SITES.len()],
    /// States the exact verifier may pop for a squeezed admission.
    squeezed_budget: usize,
    stats: FaultStats,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// splitmix64 output function: a bijective 64-bit mix with good avalanche.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Default squeezed state budget for [`FaultSite::BudgetSqueeze`].
    pub const DEFAULT_SQUEEZED_BUDGET: usize = 64;

    /// The production plan: no site ever fires.
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// A plan with every rate at zero; arm sites with
    /// [`FaultPlan::with_rate`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: Rates::default(),
            counters: [0; FAULT_SITES.len()],
            squeezed_budget: Self::DEFAULT_SQUEEZED_BUDGET,
            stats: FaultStats::default(),
        }
    }

    /// Sets `site` to fire with probability `per_mille`/1000 per
    /// consultation (clamped to 1000).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, per_mille: u32) -> Self {
        self.rates.0[site.index()] = per_mille.min(1000);
        self
    }

    /// Sets the state budget used when [`FaultSite::BudgetSqueeze`] fires.
    #[must_use]
    pub fn with_squeezed_budget(mut self, budget: usize) -> Self {
        self.squeezed_budget = budget.max(1);
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when no site can ever fire.
    pub fn is_inert(&self) -> bool {
        self.rates.0.iter().all(|&r| r == 0)
    }

    /// Consults `site`: advances its decision stream and reports whether the
    /// fault fires now. Deterministic in (seed, site, consultation count).
    pub fn trip(&mut self, site: FaultSite) -> bool {
        let i = site.index();
        let n = self.counters[i];
        self.counters[i] += 1;
        self.stats.consulted[i] += 1;
        let rate = self.rates.0[i];
        if rate == 0 {
            return false;
        }
        let draw = splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let fired = draw % 1000 < u64::from(rate);
        if fired {
            self.stats.injected[i] += 1;
        }
        fired
    }

    /// Deterministic draw in `[0, bound)` from `site`'s stream — used by
    /// consumers that need *which* byte/bit to corrupt, not just whether to.
    /// Advances the same counter as [`FaultPlan::trip`], so the choice is
    /// reproducible too.
    pub fn draw(&mut self, site: FaultSite, bound: u64) -> u64 {
        let i = site.index();
        let n = self.counters[i];
        self.counters[i] += 1;
        if bound == 0 {
            return 0;
        }
        splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x9E6C_63D0_876A_46BB)) % bound
    }

    /// Consults the snapshot sites in write order and damages `bytes` as
    /// they fire: [`FaultSite::SnapshotTornWrite`] truncates them at a drawn
    /// length, then [`FaultSite::SnapshotBitFlip`] flips one drawn bit.
    /// Saving the result publishes a complete but corrupt generation, which
    /// is exactly what the store's recovery ladder must reject.
    pub fn damage(&mut self, mut bytes: Vec<u8>) -> Vec<u8> {
        if self.trip(FaultSite::SnapshotTornWrite) && !bytes.is_empty() {
            let keep = self.draw(FaultSite::SnapshotTornWrite, bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        if self.trip(FaultSite::SnapshotBitFlip) && !bytes.is_empty() {
            let bit = self.draw(FaultSite::SnapshotBitFlip, bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        bytes
    }

    /// Consults [`FaultSite::BudgetSqueeze`]: `Some(squeezed)` when this
    /// request's verifier budget should be cut, `None` to use the caller's.
    pub fn squeeze_budget(&mut self) -> Option<usize> {
        self.trip(FaultSite::BudgetSqueeze)
            .then_some(self.squeezed_budget)
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires_and_counts_consultations() {
        let mut plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(!plan.trip(FaultSite::WorkerPanicPre));
        }
        assert!(plan.is_inert());
        assert_eq!(plan.stats().injected(FaultSite::WorkerPanicPre), 0);
        assert_eq!(plan.stats().consulted(FaultSite::WorkerPanicPre), 100);
        assert_eq!(plan.stats().total_injected(), 0);
    }

    #[test]
    fn same_seed_reproduces_bit_exactly() {
        let build = || {
            FaultPlan::seeded(42)
                .with_rate(FaultSite::WorkerPanicPre, 200)
                .with_rate(FaultSite::SnapshotBitFlip, 700)
        };
        let (mut a, mut b) = (build(), build());
        for k in 0..500 {
            let site = FAULT_SITES[k % FAULT_SITES.len()];
            assert_eq!(a.trip(site), b.trip(site), "step {k}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected(FaultSite::WorkerPanicPre) > 0);
        // Unarmed sites never fire even under a hot seed.
        assert_eq!(a.stats().injected(FaultSite::QueueFull), 0);
    }

    #[test]
    fn sites_have_independent_streams() {
        // Interleaving consultations of another site must not change the
        // decisions of the first.
        let mut solo = FaultPlan::seeded(9).with_rate(FaultSite::QueueFull, 300);
        let mut mixed = FaultPlan::seeded(9)
            .with_rate(FaultSite::QueueFull, 300)
            .with_rate(FaultSite::WorkerPanicPost, 999);
        let solo_fires: Vec<bool> = (0..200).map(|_| solo.trip(FaultSite::QueueFull)).collect();
        let mixed_fires: Vec<bool> = (0..200)
            .map(|_| {
                mixed.trip(FaultSite::WorkerPanicPost);
                mixed.trip(FaultSite::QueueFull)
            })
            .collect();
        assert_eq!(solo_fires, mixed_fires);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut plan = FaultPlan::seeded(7).with_rate(FaultSite::BudgetSqueeze, 250);
        let fired = (0..4000)
            .filter(|_| plan.trip(FaultSite::BudgetSqueeze))
            .count();
        assert!(
            (700..1300).contains(&fired),
            "250/1000 over 4000 draws fired {fired} times"
        );
        // Always-on and never-on extremes.
        let mut always = FaultPlan::seeded(7).with_rate(FaultSite::QueueFull, 1000);
        assert!((0..50).all(|_| always.trip(FaultSite::QueueFull)));
    }

    #[test]
    fn draws_stay_in_bounds_and_reproduce() {
        let mut a = FaultPlan::seeded(3);
        let mut b = FaultPlan::seeded(3);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..50 {
                let x = a.draw(FaultSite::SnapshotBitFlip, bound);
                assert!(x < bound);
                assert_eq!(x, b.draw(FaultSite::SnapshotBitFlip, bound));
            }
        }
        assert_eq!(a.draw(FaultSite::SnapshotBitFlip, 0), 0);
    }

    #[test]
    fn damage_tears_then_flips_and_reproduces() {
        let bytes: Vec<u8> = (0..64).collect();
        let mut inert = FaultPlan::none();
        assert_eq!(inert.damage(bytes.clone()), bytes);
        assert_eq!(inert.stats().consulted(FaultSite::SnapshotTornWrite), 1);
        assert_eq!(inert.stats().consulted(FaultSite::SnapshotBitFlip), 1);

        let build = || {
            FaultPlan::seeded(5)
                .with_rate(FaultSite::SnapshotTornWrite, 1000)
                .with_rate(FaultSite::SnapshotBitFlip, 1000)
        };
        let (mut a, mut b) = (build(), build());
        let damaged: Vec<Vec<u8>> = (0..8).map(|_| a.damage(bytes.clone())).collect();
        assert_eq!(
            damaged,
            (0..8).map(|_| b.damage(bytes.clone())).collect::<Vec<_>>()
        );

        // The torn write is consulted first; the flip is then drawn over the
        // torn length, so it always lands inside the kept prefix.
        let mut streams = FaultPlan::seeded(5);
        streams.trip(FaultSite::SnapshotTornWrite);
        let keep = streams.draw(FaultSite::SnapshotTornWrite, bytes.len() as u64) as usize;
        streams.trip(FaultSite::SnapshotBitFlip);
        let bit = streams.draw(FaultSite::SnapshotBitFlip, keep as u64 * 8) as usize;
        let mut expected = bytes[..keep].to_vec();
        expected[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(damaged[0], expected);
    }

    #[test]
    fn budget_squeeze_returns_the_configured_budget() {
        let mut plan = FaultPlan::seeded(1)
            .with_rate(FaultSite::BudgetSqueeze, 1000)
            .with_squeezed_budget(17);
        assert_eq!(plan.squeeze_budget(), Some(17));
        let mut inert = FaultPlan::none();
        assert_eq!(inert.squeeze_budget(), None);
        // A zero squeeze is clamped to a positive budget (the verifier
        // rejects zero budgets as invalid configurations).
        let clamped = FaultPlan::seeded(1).with_squeezed_budget(0);
        assert_eq!(clamped.squeezed_budget, 1);
    }

    #[test]
    fn plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<FaultStats>();
        assert_send_sync::<FaultSite>();
    }
}
