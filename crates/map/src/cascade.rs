//! The persistent core of the admission cascade.
//!
//! [`CascadeCore`] owns everything that survives between admission queries —
//! the verification configuration, the exact verifier with its exploration
//! buffers, the fingerprint interner, the verdict memo and the anti-monotone
//! index — and answers one query at a time through
//! [`CascadeCore::admit_query`]. The cascade tiers operate on this borrowed
//! persistent state; the front ends differ only in how they drive it:
//! [`crate::MapExplorerEngine`] replays whole fleets (batch first-fit runs
//! and branch-and-bound searches), [`crate::AdmissionState`] mutates one
//! resident fleet incrementally (the online admission service).
//!
//! The tier semantics and their soundness arguments are documented on
//! [`crate::MapExplorerEngine`]; this module holds the state and the
//! mechanics, including the warm-start snapshot of the caches
//! ([`CascadeCore::to_snapshot_bytes`]): configuration, interned
//! fingerprints, verdict memo and anti-monotone index round-trip through the
//! `cps-intern` snapshot format, layout preserved, so a restored core
//! answers every query with the bit-identical verdict — and the bit-identical
//! tier — the saved core would have.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use cps_core::AppTimingProfile;
use cps_intern::snapshot::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use cps_intern::{seq_fingerprint, TwoWayTranspositionTable};
use cps_verify::{
    replay_first_miss_selected, verify_conservative_selected, SlotVerifyEngine, VerificationConfig,
    VerifyError,
};

use crate::baseline::{slot_schedulable_profiles, Strategy};
use crate::report::TierStats;

/// Default bucket count of the bounded verdict memo (capacity = 2× buckets).
const DEFAULT_MEMO_BUCKETS: usize = 1 << 14;

/// Snapshot kind tag of [`CascadeCore`].
const KIND: [u8; 4] = *b"MAPC";

/// Snapshot section holding the verification configuration and strategy.
const SECTION_CONFIG: [u8; 4] = *b"CONF";
/// Snapshot section holding the interned profile fingerprints.
const SECTION_FINGERPRINTS: [u8; 4] = *b"FPRT";
/// Snapshot section holding the anti-monotone inadmissible index.
const SECTION_INADMISSIBLE: [u8; 4] = *b"INAD";
/// Snapshot section holding the verdict memo.
const SECTION_MEMO: [u8; 4] = *b"MEMO";

/// The verdict of one deadline-bounded cascade query
/// ([`CascadeCore::admit_query_bounded`]).
///
/// The first two variants are *sound accepts/rejects* — they agree with what
/// the exact verifier would answer given unlimited budget. `Undecided` is the
/// honest third state: the exact tier ran out of (squeezed) budget or was
/// canceled, and the conservative worst-case-blocking screen could not accept
/// either. Callers must treat `Undecided` as "do not place" *without*
/// recording a reject anywhere, because the exact verdict is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TierVerdict {
    /// The cascade reached a verdict with exact-tier fidelity (tiers 1–6).
    Exact(bool),
    /// The exact tier ran out of budget, but the sound conservative screen
    /// proved the candidate schedulable. Accepting is safe: a conservative
    /// accept implies an exact accept, and the verdict is memoized as `true`
    /// exactly as an exact accept would be.
    DegradedAccept,
    /// No sound verdict was reachable within the budget. Nothing is memoized
    /// and nothing enters the anti-monotone index.
    Undecided,
}

/// The tier-2 verdict memo: bounded by default (a two-way transposition
/// table keyed by the incremental [`seq_fingerprint`] of the canonical
/// partial partition, depth-preferred on member count + always-replace), or
/// the historical unbounded hash map for callers that want it.
///
/// Both variants store the full canonical key and only answer on an exact
/// key match, so the choice changes memory footprint, never a verdict —
/// pinned by the TT-on/TT-off equivalence tests.
///
/// The two hash their keys differently on purpose. The bounded table keeps
/// `seq_fingerprint`: it picks each entry's bucket, so the table's snapshot
/// layout and its eviction counts depend on it. The unbounded map hashes
/// with [`MemoKeyHasher`].
#[derive(Debug)]
enum Memo {
    Unbounded(MemoMap),
    Bounded(TwoWayTranspositionTable<Vec<u32>, bool>),
}

/// The unbounded verdict memo: canonical key to verdict.
type MemoMap = HashMap<Vec<u32>, bool, BuildHasherDefault<MemoKeyHasher>>;

/// A small deterministic multiply-rotate hasher for the unbounded memo's
/// keys. A memo-answered repair is mostly memo lookups: with std's randomly
/// keyed SipHash-1-3 instead, a memo-only replay of the churn benchmark's
/// rounds takes about a third longer. Memo keys are fingerprint ids the core
/// mints, never client bytes, so SipHash's hardening against crafted
/// collisions protects nothing here. Being unkeyed, this hasher also makes
/// the map's iteration order — and so the `MEMO` snapshot section's bytes —
/// a function of the keys and the insertion history alone.
#[derive(Debug, Default)]
struct MemoKeyHasher(u64);

impl MemoKeyHasher {
    /// An odd multiplier with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for MemoKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Keys are `u32` sequences: whole words, then at most one half-word.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let mut halves = words.remainder().chunks_exact(4);
        for half in &mut halves {
            self.add(
                u32::from_le_bytes(half.try_into().expect("chunks_exact yields 4 bytes")).into(),
            );
        }
        for &byte in halves.remainder() {
            self.add(byte.into());
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the map indexes
        // buckets by the low bits.
        self.0.rotate_left(26)
    }
}

impl Default for Memo {
    fn default() -> Self {
        Memo::Bounded(TwoWayTranspositionTable::new(DEFAULT_MEMO_BUCKETS))
    }
}

/// Everything the exact checker semantics reads from a profile — the
/// canonical, name-insensitive identity of an application for memoization
/// (mirrors [`cps_verify::profiles_interchangeable`]). Interned once per
/// distinct profile; lookups compare borrowed dwell arrays, so warm calls
/// allocate nothing. Carries its own index bucket key (`T_w^*`, `r`) so a
/// snapshot can rebuild the bucket map without the original profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    max_wait: usize,
    min_inter_arrival: usize,
    t_dw_min: Vec<usize>,
    t_dw_plus: Vec<usize>,
}

/// `true` when `needle` embeds into `hay` preserving order (greedy matching
/// of fingerprint ids). The order-preserving embedding is what keeps the
/// anti-monotonicity argument sound: the extra applications never change an
/// index tie-break between embedded ones.
pub(crate) fn is_subsequence(needle: &[u32], hay: &[u32]) -> bool {
    if needle.len() > hay.len() {
        return false;
    }
    let mut it = hay.iter();
    needle.iter().all(|n| it.by_ref().any(|h| h == n))
}

/// Persistent state of the admission cascade, shared by the batch explorer
/// and the incremental admission service. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct CascadeCore {
    config: VerificationConfig,
    baseline_strategy: Strategy,
    verifier: SlotVerifyEngine,
    /// Interned profile fingerprints; ids are dense and core-global, so memo
    /// entries are shared across fleets and sweeps. The index buckets ids by
    /// `(T_w^*, r)`; the dwell arrays live once in the store.
    fingerprint_store: Vec<Fingerprint>,
    fingerprint_index: HashMap<(usize, usize), Vec<u32>>,
    /// Decided verdicts keyed by the canonical fingerprint sequence.
    memo: Memo,
    /// Known-inadmissible fingerprint sequences (kept free of mutual
    /// embeddings) backing the anti-monotone tier.
    inadmissible: Vec<Vec<u32>>,
    stats: TierStats,
    // Reused scratch buffers.
    key_scratch: Vec<u32>,
    /// All-disturbed-at-once schedule for the screen: `[0]` per position,
    /// grown on demand, never shrunk.
    screen_schedule: Vec<Vec<usize>>,
}

impl CascadeCore {
    /// Creates the core with an explicit verification configuration for the
    /// exact tier.
    pub(crate) fn with_config(config: VerificationConfig) -> Self {
        CascadeCore {
            config,
            ..Self::default()
        }
    }

    /// The verification configuration of the exact tier.
    pub(crate) fn config(&self) -> &VerificationConfig {
        &self.config
    }

    /// Cumulative per-tier statistics over the core's whole lifetime.
    pub(crate) fn stats(&self) -> &TierStats {
        &self.stats
    }

    /// Moves the exact verifier onto `pool`, keeping its buffers and
    /// statistics (a rebuilt verifier would restart the counters that
    /// [`TierStats::since`] subtracts).
    pub(crate) fn set_pool(&mut self, pool: cps_par::Pool) {
        self.verifier.set_pool(pool);
    }

    /// Switches the verdict memo to the unbounded hash map (nothing is ever
    /// evicted). Verdicts are identical to the bounded default.
    pub(crate) fn set_unbounded_memo(&mut self) {
        self.memo = Memo::Unbounded(MemoMap::default());
    }

    /// Bounds the verdict memo to `buckets` two-way buckets (capacity
    /// `2 × buckets`, rounded up to a power of two).
    pub(crate) fn set_memo_capacity(&mut self, buckets: usize) {
        self.memo = Memo::Bounded(TwoWayTranspositionTable::new(buckets));
    }

    /// Interns every profile of the fleet, returning one fingerprint id per
    /// profile index.
    pub(crate) fn intern_fleet(&mut self, profiles: &[AppTimingProfile]) -> Vec<u32> {
        profiles.iter().map(|p| self.intern_profile(p)).collect()
    }

    /// Interns one profile. Known contents are matched by borrowed
    /// comparison — the dwell arrays are cloned only the first time a
    /// profile content is ever seen.
    pub(crate) fn intern_profile(&mut self, p: &AppTimingProfile) -> u32 {
        let bucket = self
            .fingerprint_index
            .entry((p.max_wait(), p.min_inter_arrival()))
            .or_default();
        let t_dw_min = p.dwell_table().t_dw_min_array();
        let t_dw_plus = p.dwell_table().t_dw_plus_array();
        if let Some(&id) = bucket.iter().find(|&&id| {
            let f = &self.fingerprint_store[id as usize];
            f.t_dw_min == t_dw_min && f.t_dw_plus == t_dw_plus
        }) {
            return id;
        }
        let id = self.fingerprint_store.len() as u32;
        self.fingerprint_store.push(Fingerprint {
            max_wait: p.max_wait(),
            min_inter_arrival: p.min_inter_arrival(),
            t_dw_min: t_dw_min.to_vec(),
            t_dw_plus: t_dw_plus.to_vec(),
        });
        bucket.push(id);
        id
    }

    /// Looks the current canonical key up in the verdict memo. The bounded
    /// variant keys on the incremental [`seq_fingerprint`] of the key (a
    /// handful of mixes for a partial partition) and answers only on an
    /// exact key match.
    fn memo_get(&mut self) -> Option<bool> {
        match &mut self.memo {
            Memo::Unbounded(map) => map.get(self.key_scratch.as_slice()).copied(),
            Memo::Bounded(tt) => tt
                .get(seq_fingerprint(&self.key_scratch), &self.key_scratch)
                .copied(),
        }
    }

    /// Memoizes `verdict` for the current canonical key. In the bounded
    /// memo, depth is the member count — deeper (more expensive) verdicts
    /// survive floods of shallow ones in the depth-preferred way.
    fn memo_insert(&mut self, verdict: bool) {
        match &mut self.memo {
            Memo::Unbounded(map) => {
                map.insert(self.key_scratch.clone(), verdict);
            }
            Memo::Bounded(tt) => {
                // A memo switch replaces the table and restarts its count;
                // the lifetime stats add each insert's evictions instead.
                let evicted = tt.stats().evictions;
                tt.insert(
                    seq_fingerprint(&self.key_scratch),
                    self.key_scratch.len() as u32,
                    self.key_scratch.clone(),
                    verdict,
                );
                self.stats.tt_evictions += tt.stats().evictions - evicted;
            }
        }
    }

    /// One admission query through the cascade. `members` index `profiles`;
    /// the verdict applies to that arrangement (probes generated by the
    /// front ends are always in canonical first-fit order). The tiers and
    /// their soundness arguments are documented on
    /// [`crate::MapExplorerEngine`].
    pub(crate) fn admit_query(
        &mut self,
        profiles: &[AppTimingProfile],
        fleet_ids: &[u32],
        members: &[usize],
    ) -> Result<bool, VerifyError> {
        match self.admit_query_bounded(profiles, fleet_ids, members, None)? {
            TierVerdict::Exact(verdict) => Ok(verdict),
            // Unreachable without a squeeze (the degraded ladder only runs
            // when one is given), but mapped soundly rather than panicking:
            // a degraded accept is an accept, undecided is a budget failure.
            TierVerdict::DegradedAccept => Ok(true),
            TierVerdict::Undecided => Err(VerifyError::StateBudgetExhausted {
                budget: self.config.state_budget,
            }),
        }
    }

    /// Records one deadline-bounded placement the front end answered as
    /// deferred (some probe came back [`TierVerdict::Undecided`]).
    pub(crate) fn record_deferred(&mut self) {
        self.stats.deferred += 1;
    }

    /// [`CascadeCore::admit_query`] with an optional *budget squeeze* for
    /// deadline-bounded admission: `squeeze = Some(b)` caps the exact tier's
    /// state budget at `min(b, config.state_budget)` and arms the degraded
    /// ladder — when the exact verification runs out of that budget (or is
    /// canceled through the verifier's [`cps_verify::CancelToken`]), the
    /// sound conservative worst-case-blocking screen
    /// ([`verify_conservative_selected`]) gets the final word. Its accept is
    /// memoized like an exact accept; anything else is [`TierVerdict::Undecided`]
    /// and leaves every cache untouched.
    ///
    /// With `squeeze = None` the behaviour is bit-identical to the historical
    /// cascade: budget exhaustion and cancellation propagate as errors.
    pub(crate) fn admit_query_bounded(
        &mut self,
        profiles: &[AppTimingProfile],
        fleet_ids: &[u32],
        members: &[usize],
        squeeze: Option<usize>,
    ) -> Result<TierVerdict, VerifyError> {
        // Reject invalid configurations up front, before any tier can decide
        // the query — the cascade must error exactly where the plain oracle
        // does (same validation, shared with the verifier), and the screen's
        // scenario replay assumes the disturbance bound (if any) allows at
        // least one instance.
        SlotVerifyEngine::validate_config(&self.config)?;
        self.stats.queries += 1;
        // Tier 1: singletons (and the trivial empty set) are admissible by
        // construction — the dwell table guarantees the requirement with a
        // dedicated slot.
        if members.len() <= 1 {
            self.stats.singleton_accepts += 1;
            return Ok(TierVerdict::Exact(true));
        }

        // Tier 2: canonical memo table.
        self.key_scratch.clear();
        self.key_scratch
            .extend(members.iter().map(|&i| fleet_ids[i]));
        if let Some(verdict) = self.memo_get() {
            self.stats.memo_hits += 1;
            return Ok(TierVerdict::Exact(verdict));
        }

        // Tier 3: quick necessary-condition screen (sound reject).
        if self.screen_schedule.len() < members.len() {
            self.screen_schedule.resize_with(members.len(), || vec![0]);
        }
        if !Self::screen_admits(
            profiles,
            members,
            self.config.max_disturbances_per_app.is_none(),
            &self.screen_schedule[..members.len()],
        ) {
            self.stats.quick_rejects += 1;
            self.record_inadmissible(true);
            return Ok(TierVerdict::Exact(false));
        }

        // Tier 4: anti-monotone index (sound reject): a candidate into which
        // a known-inadmissible set embeds is inadmissible.
        if self
            .inadmissible
            .iter()
            .any(|s| is_subsequence(s, &self.key_scratch))
        {
            self.stats.anti_monotone_rejects += 1;
            self.memo_insert(false);
            return Ok(TierVerdict::Exact(false));
        }

        // Tier 5: gated baseline accept (sound accept).
        if Self::baseline_gate(profiles, members)
            && slot_schedulable_profiles(profiles, members, self.baseline_strategy)
        {
            self.stats.baseline_accepts += 1;
            self.memo_insert(true);
            return Ok(TierVerdict::Exact(true));
        }

        // Tier 6: the exact verifier, under the squeezed budget when one is
        // given. The exploration time is accounted whether or not the tier
        // reaches a verdict.
        let effective = VerificationConfig {
            state_budget: squeeze.map_or(self.config.state_budget, |b| {
                b.min(self.config.state_budget)
            }),
            ..self.config
        };
        let start = Instant::now();
        let outcome = self.verifier.verify_selected(profiles, members, &effective);
        self.stats.exact_verify_time += start.elapsed();
        self.stats.verify = self.verifier.stats();
        match outcome {
            Ok(outcome) => {
                self.stats.exact_verifies += 1;
                let verdict = outcome.schedulable();
                if verdict {
                    self.memo_insert(true);
                } else {
                    // Tier 4 already proved no stored set embeds into this
                    // key, and nothing has touched the index since — skip the
                    // re-scan.
                    self.record_inadmissible(false);
                }
                Ok(TierVerdict::Exact(verdict))
            }
            Err(VerifyError::StateBudgetExhausted { .. }) | Err(VerifyError::Canceled)
                if squeeze.is_some() =>
            {
                // Degraded ladder: the sound conservative screen. An accept
                // here implies an exact accept, so memoizing `true` keeps the
                // memo exact-faithful. A conservative reject proves nothing
                // about the exact verdict — answer undecided and record
                // nothing.
                let conservative = verify_conservative_selected(profiles, members)?;
                if conservative.schedulable() {
                    self.stats.degraded_accepts += 1;
                    self.memo_insert(true);
                    Ok(TierVerdict::DegradedAccept)
                } else {
                    Ok(TierVerdict::Undecided)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Memoizes the current key as inadmissible and adds it to the
    /// anti-monotone index, evicting stored supersets the new key embeds
    /// into (they decide nothing the new entry doesn't). `check_embedding`
    /// re-scans the index for an already-stored set embedding into the key
    /// (needed on the quick-reject path, which runs before tier 4); callers
    /// past tier 4 pass `false`.
    fn record_inadmissible(&mut self, check_embedding: bool) {
        self.memo_insert(false);
        if !check_embedding
            || !self
                .inadmissible
                .iter()
                .any(|s| is_subsequence(s, &self.key_scratch))
        {
            let key = &self.key_scratch;
            self.inadmissible.retain(|s| !is_subsequence(key, s));
            self.inadmissible.push(key.clone());
        }
    }

    /// The gate under which the conservative blocking analysis is provably
    /// sound w.r.t. the exact semantics (see the docs of
    /// [`crate::MapExplorerEngine`]): pairs whose hold time bounds every
    /// dwell and whose inter-arrival times exclude a second interference per
    /// wait window.
    fn baseline_gate(profiles: &[AppTimingProfile], members: &[usize]) -> bool {
        if members.len() != 2 {
            return false;
        }
        members.iter().all(|&m| {
            let p = &profiles[m];
            p.jt() >= p.dwell_table().max_t_dw_plus()
        }) && members.iter().all(|&i| {
            members.iter().all(|&j| {
                i == j
                    || profiles[j].min_inter_arrival()
                        > profiles[i].max_wait() + profiles[j].max_wait() + profiles[j].jt()
            })
        })
    }

    /// Sound necessary-condition screen: `false` only when the candidate is
    /// certainly inadmissible. `schedule` must be the all-disturbed-at-once
    /// schedule (`[0]` per member), prepared by the caller's scratch.
    fn screen_admits(
        profiles: &[AppTimingProfile],
        members: &[usize],
        unbounded: bool,
        schedule: &[Vec<usize>],
    ) -> bool {
        // Minimum-demand utilisation: every disturbance occupies the slot for
        // at least `max(1, min_w T_dw^-(w))` samples and recurs as often as
        // every `r` samples; demand above capacity means unbounded backlog
        // and an eventual miss. Only valid for the unbounded sporadic model.
        if unbounded {
            let utilisation: f64 = members
                .iter()
                .map(|&m| {
                    let p = &profiles[m];
                    let min_hold = p
                        .dwell_table()
                        .t_dw_min_array()
                        .iter()
                        .copied()
                        .min()
                        .unwrap_or(0)
                        .max(1);
                    min_hold as f64 / p.min_inter_arrival() as f64
                })
                .sum();
            if utilisation > 1.0 + 1e-9 {
                return false;
            }
        }

        // All-disturbed-at-once replay: every application is hit at sample
        // zero and never again — one concrete branch of the exact
        // exploration (admissible for any validated disturbance bound),
        // replayed through the deterministic scheduler semantics shared with
        // the witness validator. A miss is a sound rejection.
        replay_first_miss_selected(profiles, members, schedule)
            .expect("the all-disturbed-at-once schedule is always valid")
            .is_none()
    }

    /// Writes the cascade's persistent caches into a snapshot payload:
    /// configuration, baseline strategy, interned fingerprints, the
    /// anti-monotone index and the verdict memo (layout-preserving for the
    /// bounded table). Each cache lives in its own checksummed section
    /// (`CONF`/`FPRT`/`INAD`/`MEMO`), so corruption reports name the damaged
    /// cache rather than just "somewhere in the payload". The exact
    /// verifier's exploration buffers are per-query scratch and the tier
    /// counters restart from zero — neither affects verdicts.
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.begin_section(SECTION_CONFIG);
        w.put_bool(self.config.max_disturbances_per_app.is_some());
        w.put_usize(self.config.max_disturbances_per_app.unwrap_or(0));
        w.put_usize(self.config.state_budget);
        w.put_u8(match self.baseline_strategy {
            Strategy::NonPreemptiveDeadlineMonotonic => 0,
            Strategy::DelayedRequests => 1,
        });
        w.end_section();
        w.begin_section(SECTION_FINGERPRINTS);
        w.put_usize(self.fingerprint_store.len());
        for f in &self.fingerprint_store {
            w.put_usize(f.max_wait);
            w.put_usize(f.min_inter_arrival);
            f.t_dw_min.persist(w);
            f.t_dw_plus.persist(w);
        }
        w.end_section();
        w.begin_section(SECTION_INADMISSIBLE);
        self.inadmissible.persist(w);
        w.end_section();
        w.begin_section(SECTION_MEMO);
        match &self.memo {
            Memo::Unbounded(map) => {
                w.put_u8(0);
                w.put_usize(map.len());
                for (key, &verdict) in map {
                    key.persist(w);
                    w.put_bool(verdict);
                }
            }
            Memo::Bounded(tt) => {
                w.put_u8(1);
                tt.write_snapshot(w);
            }
        }
        w.end_section();
    }

    /// Reads a core previously written by [`CascadeCore::write_snapshot`].
    /// The fingerprint bucket index is rebuilt in id order, reproducing the
    /// saved probe order exactly.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation and invariant violations.
    pub(crate) fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.enter_section(SECTION_CONFIG)?;
        let has_bound = r.take_bool()?;
        let bound = r.take_usize()?;
        let config = VerificationConfig {
            max_disturbances_per_app: has_bound.then_some(bound),
            state_budget: r.take_usize()?,
        };
        let baseline_strategy = match r.take_u8()? {
            0 => Strategy::NonPreemptiveDeadlineMonotonic,
            1 => Strategy::DelayedRequests,
            other => {
                return Err(SnapshotError::Corrupt {
                    reason: format!("unknown baseline strategy tag {other}"),
                })
            }
        };
        r.exit_section()?;
        r.enter_section(SECTION_FINGERPRINTS)?;
        let count = r.take_usize()?;
        let mut fingerprint_store = Vec::with_capacity(count.min(1 << 20));
        let mut fingerprint_index: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        for id in 0..count {
            let f = Fingerprint {
                max_wait: r.take_usize()?,
                min_inter_arrival: r.take_usize()?,
                t_dw_min: Vec::restore(r)?,
                t_dw_plus: Vec::restore(r)?,
            };
            fingerprint_index
                .entry((f.max_wait, f.min_inter_arrival))
                .or_default()
                .push(id as u32);
            fingerprint_store.push(f);
        }
        r.exit_section()?;
        r.enter_section(SECTION_INADMISSIBLE)?;
        let inadmissible = Vec::restore(r)?;
        r.exit_section()?;
        r.enter_section(SECTION_MEMO)?;
        let memo = match r.take_u8()? {
            0 => {
                let len = r.take_usize()?;
                let mut map =
                    MemoMap::with_capacity_and_hasher(len.min(1 << 20), Default::default());
                for _ in 0..len {
                    let key: Vec<u32> = Vec::restore(r)?;
                    let verdict = r.take_bool()?;
                    map.insert(key, verdict);
                }
                Memo::Unbounded(map)
            }
            1 => Memo::Bounded(TwoWayTranspositionTable::read_snapshot(r)?),
            other => {
                return Err(SnapshotError::Corrupt {
                    reason: format!("unknown memo tag {other}"),
                })
            }
        };
        r.exit_section()?;
        Ok(CascadeCore {
            config,
            baseline_strategy,
            fingerprint_store,
            fingerprint_index,
            memo,
            inadmissible,
            ..Self::default()
        })
    }

    /// Serializes the persistent caches as a standalone snapshot.
    pub(crate) fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(KIND);
        self.write_snapshot(&mut w);
        w.finish()
    }

    /// Restores a core from [`CascadeCore::to_snapshot_bytes`] output.
    ///
    /// # Errors
    ///
    /// Propagates framing and payload violations as [`SnapshotError`].
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, KIND)?;
        let core = CascadeCore::read_snapshot(&mut r)?;
        r.finish()?;
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsequence_matching() {
        assert!(is_subsequence(&[], &[]));
        assert!(is_subsequence(&[1], &[0, 1, 2]));
        assert!(is_subsequence(&[1, 1], &[1, 0, 1]));
        assert!(!is_subsequence(&[1, 1], &[1, 0, 2]));
        assert!(!is_subsequence(&[2, 1], &[1, 2]));
        assert!(!is_subsequence(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn snapshot_rejects_unknown_tags() {
        let mut w = SnapshotWriter::new(KIND);
        // Valid config section + an out-of-range strategy tag.
        w.begin_section(SECTION_CONFIG);
        w.put_bool(false);
        w.put_usize(0);
        w.put_usize(1_000);
        w.put_u8(9);
        w.end_section();
        assert!(matches!(
            CascadeCore::from_snapshot_bytes(&w.finish()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn snapshot_rejects_misplaced_sections() {
        // A payload whose first section is not the config section must be
        // rejected by name, not misparsed.
        let mut w = SnapshotWriter::new(KIND);
        w.begin_section(*b"XXXX");
        w.put_bool(false);
        w.end_section();
        assert!(matches!(
            CascadeCore::from_snapshot_bytes(&w.finish()).unwrap_err(),
            SnapshotError::BadSectionTag { .. }
        ));
    }
}
