//! Interned-state exploration engine for the exact slot-sharing checker.
//!
//! [`SlotVerifyEngine`] answers the same question as [`crate::checker::verify`]
//! (retained as the semantic oracle, re-exported as [`crate::reference`]) but
//! is built for throughput, following the engine/oracle pattern of
//! `cps-core::engine` and `cps-sched::BatchCosimEngine`:
//!
//! * **Packed state encoding** — each application's location (`Steady`,
//!   `Waiting`, `Using`, `Cooldown`, `Exhausted`, plus the bounded-mode
//!   instance counter) is packed into one integer code; a system state is a
//!   fixed-width word vector stored in a flat arena (`u16` words when every
//!   application's code space fits, `u32` otherwise), instead of the oracle's
//!   two heap-allocated `Vec`s per state.
//! * **Compiled transition entries** — the step semantics are compiled once
//!   per model into one entry per `(application, packed code)`: the
//!   successor codes for time advance, grant, release and disturbance, the
//!   laxity, and the flags the scheduler tests (waiting, using, expired,
//!   release at `T_dw⁺`, release at `T_dw⁻`, eligible). Successors are built
//!   by stepping codes with table lookups — no decode, division or
//!   re-encode. Entries are cached per application up to a cap; codes above
//!   it (wide-word models) are compiled on every lookup by the same builder,
//!   so every model runs the same step code.
//! * **Incremental Zobrist hashing** — each application's packed code owns a
//!   Zobrist key per `(slot, code)` pair ([`cps_intern::ZobristKeys`]); a
//!   state's 64-bit fingerprint is the XOR of one key per slot. Successors
//!   are hashed by XOR-updating the parent's cached fingerprint over the
//!   slots that actually changed (stepping *and* the symmetry sort below),
//!   never by re-mixing the whole word vector.
//! * **Cached-hash interning** — states are deduplicated through a
//!   [`cps_intern::CachedHashIndex`] that stores each interned state's
//!   fingerprint next to its dense `u32` id. Probes compare the cached hash
//!   before any arena words, growth re-buckets from cached hashes instead of
//!   re-hashing the arena, and exact word equality stays the final probe
//!   test — hash collisions cost a compare, never a wrong verdict.
//! * **Bitmask disturbance enumeration** — the per-sample disturbance choices
//!   are enumerated as a mixed-radix counter over groups of interchangeable
//!   applications and recorded as a `u32` position bitmask; the oracle
//!   materialises a `Vec<Vec<usize>>` of subsets per popped state.
//! * **Compact parent links** — each stored state keeps only a `u32` parent
//!   id and the disturbance bitmask that produced it; counterexamples are
//!   reconstructed by replaying that chain through the same entries.
//! * **Symmetry reduction** — within every maximal run of *adjacent identical
//!   profiles* the per-application codes are kept sorted, so states that
//!   differ only by a permutation of interchangeable applications intern to
//!   the same id, and disturbance choices pick *how many* applications of an
//!   interchangeable group to disturb instead of *which*. Contention-heavy
//!   symmetric fleets — the models the paper's headline verification time is
//!   about — collapse their permutation orbits to single representatives.
//!
//! Restricting the reduction to runs of **adjacent** identical profiles keeps
//! it sound with respect to the scheduler's lowest-index tie-break: permuting
//! interchangeable applications inside one contiguous run never changes which
//! *run* wins a cross-run laxity tie (the tied codes inside a run are equal,
//! and every index of one run compares the same way against every index of
//! another), so the quotient transition system is bisimilar to the concrete
//! one and verdicts are preserved. Witnesses are mapped back to concrete
//! application indices by replaying the parent chain while tracking the
//! canonicalisation permutation, and are checked against
//! [`crate::witness::validate_witness`] in the test suite.
//!
//! `states_explored` counts states popped and expanded, with the same budget
//! semantics as the oracle; on models without adjacent identical profiles the
//! engine explores the oracle's graph in the oracle's order and reports the
//! identical count.
//!
//! # Exploration loop
//!
//! One loop serves every [`cps_par::Pool`] width (see
//! [`SlotVerifyEngine::with_pool`], [`SlotVerifyEngine::set_pool`] and the
//! `CPS_THREADS` environment variable). The arena is the BFS queue; the loop
//! takes the queued states in chunks of at most `CHUNK_STATES` per worker
//! and runs two phases on each:
//!
//! 1. **Stage.** Every state of the chunk is loaded once — its entries and
//!    the half of the step no disturbance choice changes — and each choice's
//!    successor is stepped, canonicalised and incrementally hashed into a
//!    staging buffer the engine owns and reuses. On a pool wider than one
//!    thread the chunk is split into contiguous state ranges, one buffer per
//!    worker. Staging reads only states interned before the chunk, so the
//!    workers share nothing mutable.
//! 2. **Merge.** The staged records are interned in serial order, buffer by
//!    buffer, replaying pop accounting, the state budget, cancellation and
//!    the first deadline miss exactly as a pop-one-state loop interleaves
//!    them. Each record's index bucket is prefetched
//!    ([`cps_intern::CachedHashIndex::prefetch`]) a fixed distance ahead, so
//!    the probes into a large index overlap their cache misses.
//!
//! Because ids, hashes, stats counters and the first-miss choice are all
//! decided by the in-order merge, verdicts, witnesses, interned ids and
//! [`VerifyStats`] are **bit-identical under any thread count** (asserted by
//! the cross-thread-count property tests at pool widths 2, 4 and 8).
//! Staging memory is bounded by the chunk, not by the BFS frontier.

use std::ops::Range;

use cps_core::AppTimingProfile;
use cps_intern::{CachedHashIndex, ZobristKeys};

use crate::cancel::CancelToken;
use crate::checker::{VerificationConfig, VerificationOutcome};
use crate::witness::{TraceEvent, Witness};
use crate::{SlotSharingModel, VerifyError};

const NO_PARENT: u32 = u32::MAX;
/// Disturbance choices are recorded as `u32` position bitmasks.
const MAX_APPS: usize = 32;
/// Compiled entries are cached per application up to this many codes, the
/// cap of the Zobrist key tables; larger codes are compiled on each lookup.
const ENTRY_CAP: usize = 1024;
/// Queued states one worker stages before the merge interns them. Bounds
/// the staging memory; the cost per state is flat over a wide range.
const CHUNK_STATES: usize = 2048;
/// Fewest queued states per worker before another worker spawns: small
/// chunks stage on fewer threads (same merged stream, less spawn overhead).
const MIN_WORKER_STATES: usize = 64;
/// Staged records between an index prefetch and the probe it prepares.
const PREFETCH_DISTANCE: usize = 8;

/// Hash/probe work counters of a [`SlotVerifyEngine`], cumulative over the
/// engine's lifetime (benches and the mapping cascade report deltas between
/// snapshots via [`VerifyStats::since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    /// Intern probes against the state index (one per generated successor
    /// plus one per initial state).
    pub intern_probes: usize,
    /// Probes that resolved to an already-interned state (dedup hits).
    pub hash_hits: usize,
    /// Occupied buckets skipped on a cached-hash mismatch alone, without
    /// comparing arena words.
    pub hash_skips: usize,
    /// Full word comparisons performed (cached hashes matched first).
    pub deep_compares: usize,
    /// Index growths; each re-buckets from cached hashes.
    pub rehashes: usize,
    /// Entries re-bucketed during growths without re-hashing their words.
    pub rehashed_entries: usize,
    /// Per-slot XOR updates performed by the incremental Zobrist hashing —
    /// the words the engine actually hashed.
    pub hash_slot_updates: usize,
    /// Words a non-incremental scheme would have hashed for the same runs:
    /// the full state width per probe plus the whole arena per growth.
    pub full_hash_words: usize,
}

impl VerifyStats {
    /// Component-wise difference `self − earlier` between two snapshots of a
    /// long-lived engine.
    pub fn since(&self, earlier: &VerifyStats) -> VerifyStats {
        VerifyStats {
            intern_probes: self.intern_probes - earlier.intern_probes,
            hash_hits: self.hash_hits - earlier.hash_hits,
            hash_skips: self.hash_skips - earlier.hash_skips,
            deep_compares: self.deep_compares - earlier.deep_compares,
            rehashes: self.rehashes - earlier.rehashes,
            rehashed_entries: self.rehashed_entries - earlier.rehashed_entries,
            hash_slot_updates: self.hash_slot_updates - earlier.hash_slot_updates,
            full_hash_words: self.full_hash_words - earlier.full_hash_words,
        }
    }

    /// Component-wise sum (the engine keeps one counter set per word width;
    /// incremental admission reports accumulate per-operation deltas).
    pub fn plus(&self, other: &VerifyStats) -> VerifyStats {
        VerifyStats {
            intern_probes: self.intern_probes + other.intern_probes,
            hash_hits: self.hash_hits + other.hash_hits,
            hash_skips: self.hash_skips + other.hash_skips,
            deep_compares: self.deep_compares + other.deep_compares,
            rehashes: self.rehashes + other.rehashes,
            rehashed_entries: self.rehashed_entries + other.rehashed_entries,
            hash_slot_updates: self.hash_slot_updates + other.hash_slot_updates,
            full_hash_words: self.full_hash_words + other.full_hash_words,
        }
    }

    /// How many times more hash work the previous full-rehash scheme would
    /// have done: `full_hash_words / hash_slot_updates`.
    pub fn hash_work_collapse(&self) -> f64 {
        self.full_hash_words as f64 / (self.hash_slot_updates.max(1)) as f64
    }
}

/// Fixed-width storage for one application's packed cell code. `Send + Sync`
/// lets staging workers read the arena and stage successor words.
trait StateWord: Copy + Eq + Ord + std::fmt::Debug + Default + Send + Sync {
    /// Exclusive upper bound on the code values the word can represent.
    const LIMIT: u64;

    fn pack(code: u32) -> Self;
    fn unpack(self) -> u32;
}

impl StateWord for u16 {
    const LIMIT: u64 = 1 << 16;

    fn pack(code: u32) -> Self {
        debug_assert!(u64::from(code) < Self::LIMIT);
        code as u16
    }

    fn unpack(self) -> u32 {
        u32::from(self)
    }
}

impl StateWord for u32 {
    const LIMIT: u64 = 1 << 32;

    fn pack(code: u32) -> Self {
        code
    }

    fn unpack(self) -> u32 {
        self
    }
}

/// The per-application location, decoded by the entry builder. Mirrors the
/// oracle's `Cell` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Steady,
    Waiting { waited: u32 },
    Using { wait_at_grant: u32, received: u32 },
    Cooldown { since: u32 },
    Exhausted,
}

/// Per-application scheduling parameters, extracted once per model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AppParams {
    max_wait: u32,
    min_inter_arrival: u32,
    t_dw_min: Vec<u32>,
    t_dw_plus: Vec<u32>,
}

/// The packed-code layout of one application.
///
/// Cell codes are laid out contiguously — `0` is `Steady`, then the waiting
/// counter, the `(wait_at_grant, received)` grid, the cooldown counter and
/// finally `Exhausted` — and the bounded-mode instance counter multiplies the
/// whole cell space. Every reachable field value fits its range by the step
/// semantics (waits are cut off by the deadline check, received by the useful
/// dwell, cooldowns by the inter-arrival time).
#[derive(Debug, Clone, Copy)]
struct Encoding {
    using_base: u32,
    cooldown_base: u32,
    exhausted_code: u32,
    cell_space: u32,
    recv_stride: u32,
}

impl Encoding {
    fn encode(&self, cell: Cell, used: u32) -> u32 {
        let cell_code = match cell {
            Cell::Steady => 0,
            Cell::Waiting { waited } => 1 + waited,
            Cell::Using {
                wait_at_grant,
                received,
            } => self.using_base + wait_at_grant * self.recv_stride + received,
            Cell::Cooldown { since } => self.cooldown_base + since,
            Cell::Exhausted => self.exhausted_code,
        };
        debug_assert!(cell_code < self.cell_space);
        used * self.cell_space + cell_code
    }

    fn decode(&self, code: u32) -> (Cell, u32) {
        let used = code / self.cell_space;
        let cell_code = code % self.cell_space;
        let cell = if cell_code == 0 {
            Cell::Steady
        } else if cell_code < self.using_base {
            Cell::Waiting {
                waited: cell_code - 1,
            }
        } else if cell_code < self.cooldown_base {
            let grid = cell_code - self.using_base;
            Cell::Using {
                wait_at_grant: grid / self.recv_stride,
                received: grid % self.recv_stride,
            }
        } else if cell_code < self.exhausted_code {
            Cell::Cooldown {
                since: cell_code - self.cooldown_base,
            }
        } else {
            Cell::Exhausted
        };
        (cell, used)
    }
}

/// [`Entry`] flag: waiting for the slot within the maximum wait.
const WAITING: u8 = 1;
/// [`Entry`] flag: holding the slot.
const USING: u8 = 1 << 1;
/// [`Entry`] flag: waiting past the maximum wait — the deadline check fails.
const EXPIRED: u8 = 1 << 2;
/// [`Entry`] flag: holding the slot with `T_dw⁺` served — released now.
const RELEASE_PLUS: u8 = 1 << 3;
/// [`Entry`] flag: holding the slot with `T_dw⁻` served — preemptable.
const RELEASE_MIN: u8 = 1 << 4;
/// [`Entry`] flag: steady with instances left — may be disturbed.
const ELIGIBLE: u8 = 1 << 5;

/// One application's sample step at one packed code. Successor codes
/// include the sample's time advance; fields the location has no use for
/// stay zero.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// The code after the sample when the scheduler leaves it alone.
    advance: u32,
    /// Waiting: the code after being granted the slot.
    grant: u32,
    /// Using: the code after leaving the slot, at `T_dw⁺` or preempted.
    release: u32,
    /// Eligible: the code a disturbance is sensed in (waiting from zero,
    /// one instance more), *before* the step — look up its own entry.
    disturb: u32,
    /// Waiting: `max_wait − waited`, the scheduler's EDF key.
    laxity: u32,
    flags: u8,
}

/// Everything the exploration needs about one model + configuration pair.
struct ModelCtx {
    params: Vec<AppParams>,
    enc: Vec<Encoding>,
    /// Compiled entries per application, indexed by packed code, cached up
    /// to [`ENTRY_CAP`] codes.
    entries: Vec<Box<[Entry]>>,
    /// Maximal runs of adjacent identical profiles, covering `0..n` in order;
    /// runs of length ≥ 2 are the symmetry classes the canonicalisation
    /// sorts within.
    runs: Vec<(usize, usize)>,
    bound: Option<u32>,
    budget: usize,
    n: usize,
    /// The widest per-application code space; selects the word width.
    max_code_space: u64,
    /// Zobrist key material, one key per `(application slot, packed code)`.
    keys: ZobristKeys,
    /// Cooperative cancellation, polled at every budget checkpoint.
    cancel: Option<CancelToken>,
}

impl ModelCtx {
    fn new(model: &SlotSharingModel, config: &VerificationConfig) -> Result<Self, VerifyError> {
        Self::from_profiles(model.profiles().iter(), config)
    }

    /// Builds the context straight from borrowed profiles — the hook behind
    /// [`SlotVerifyEngine::verify_selected`], which lets callers (the mapping
    /// cascade) probe sub-models without cloning any [`AppTimingProfile`].
    fn from_profiles<'a>(
        profiles: impl ExactSizeIterator<Item = &'a AppTimingProfile>,
        config: &VerificationConfig,
    ) -> Result<Self, VerifyError> {
        let n = profiles.len();
        if n > MAX_APPS {
            return Err(VerifyError::InvalidConfig {
                reason: format!("the engine encodes disturbance choices as 32-bit masks; {n} applications exceed the supported {MAX_APPS}"),
            });
        }
        let bound = match config.max_disturbances_per_app {
            None => None,
            Some(b) => Some(u32::try_from(b).map_err(|_| VerifyError::InvalidConfig {
                reason: format!("disturbance bound {b} is too large to encode"),
            })?),
        };

        let mut params = Vec::with_capacity(n);
        let mut enc = Vec::with_capacity(n);
        let mut code_spaces = Vec::with_capacity(n);
        let mut max_code_space = 0u64;
        for p in profiles {
            let max_wait = p.max_wait() as u64;
            let r = p.min_inter_arrival() as u64;
            let t_dw_plus: Vec<u32> = (0..=p.max_wait())
                .map(|w| p.t_dw_plus(w).expect("wait within range") as u32)
                .collect();
            let t_dw_min: Vec<u32> = (0..=p.max_wait())
                .map(|w| p.t_dw_min(w).expect("wait within range") as u32)
                .collect();
            let max_plus = u64::from(t_dw_plus.iter().copied().max().unwrap_or(0));

            let using_base = 1 + (max_wait + 2);
            let recv_stride = max_plus + 1;
            let cooldown_base = using_base + (max_wait + 1) * recv_stride;
            let exhausted_code = cooldown_base + r;
            let cell_space = exhausted_code + 1;
            // Strictly below the u32 limit: `cell_space` itself is stored as
            // a u32, so a code space of exactly 2^32 would truncate it.
            let code_space = cell_space
                .checked_mul(u64::from(bound.unwrap_or(0)) + 1)
                .filter(|&s| s < <u32 as StateWord>::LIMIT)
                .ok_or_else(|| VerifyError::InvalidConfig {
                    reason: format!("profile '{}' needs more than 2^32 packed codes", p.name()),
                })?;
            max_code_space = max_code_space.max(code_space);
            code_spaces.push(code_space);

            params.push(AppParams {
                max_wait: max_wait as u32,
                min_inter_arrival: r as u32,
                t_dw_min,
                t_dw_plus,
            });
            enc.push(Encoding {
                using_base: using_base as u32,
                cooldown_base: cooldown_base as u32,
                exhausted_code: exhausted_code as u32,
                cell_space: cell_space as u32,
                recv_stride: recv_stride as u32,
            });
        }

        // `AppParams` holds exactly the fields `profiles_interchangeable`
        // compares, so run detection on the extracted parameters matches the
        // profile-level predicate.
        let mut runs = Vec::new();
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || params[i] != params[start] {
                runs.push((start, i));
                start = i;
            }
        }

        let mut ctx = ModelCtx {
            params,
            enc,
            entries: Vec::new(),
            runs,
            bound,
            budget: config.state_budget,
            n,
            max_code_space,
            keys: ZobristKeys::new(code_spaces.iter().copied()),
            cancel: None,
        };
        ctx.entries = code_spaces
            .iter()
            .enumerate()
            .map(|(app, &space)| {
                (0..space.min(ENTRY_CAP as u64) as u32)
                    .map(|code| ctx.compile(app, code))
                    .collect()
            })
            .collect();
        Ok(ctx)
    }

    /// The entry of `code` at application `app`: cached, or compiled now.
    #[inline]
    fn entry(&self, app: usize, code: u32) -> Entry {
        match self.entries[app].get(code as usize) {
            Some(&entry) => entry,
            None => self.compile(app, code),
        }
    }

    /// The entry builder: decodes `code` and applies one sample of the
    /// oracle's `Explorer::step` to the location — the only place the
    /// engine interprets a packed code.
    #[cold]
    fn compile(&self, app: usize, code: u32) -> Entry {
        let p = &self.params[app];
        let enc = &self.enc[app];
        let (cell, used) = enc.decode(code);
        // A cooldown of `since` samples after one more sample.
        let cool = |since: u32| {
            let cell = if since + 1 < p.min_inter_arrival {
                Cell::Cooldown { since: since + 1 }
            } else if self.bound.is_some_and(|b| used >= b) {
                Cell::Exhausted
            } else {
                Cell::Steady
            };
            enc.encode(cell, used)
        };
        let mut entry = Entry {
            advance: code,
            ..Entry::default()
        };
        match cell {
            Cell::Steady if self.bound.is_none_or(|b| used < b) => {
                entry.flags = ELIGIBLE;
                // The instance counter only exists in bounded mode.
                let used = used + u32::from(self.bound.is_some());
                entry.disturb = enc.encode(Cell::Waiting { waited: 0 }, used);
            }
            Cell::Steady | Cell::Exhausted => {}
            Cell::Waiting { waited } if waited > p.max_wait => entry.flags = EXPIRED,
            Cell::Waiting { waited } => {
                entry.flags = WAITING;
                entry.laxity = p.max_wait - waited;
                entry.advance = enc.encode(Cell::Waiting { waited: waited + 1 }, used);
                let granted = Cell::Using {
                    wait_at_grant: waited,
                    received: 1,
                };
                entry.grant = enc.encode(granted, used);
            }
            Cell::Using {
                wait_at_grant,
                received,
            } => {
                entry.flags = USING;
                if received >= p.t_dw_min[wait_at_grant as usize] {
                    entry.flags |= RELEASE_MIN;
                }
                if received >= p.t_dw_plus[wait_at_grant as usize] {
                    entry.flags |= RELEASE_PLUS;
                } else {
                    let held = Cell::Using {
                        wait_at_grant,
                        received: received + 1,
                    };
                    entry.advance = enc.encode(held, used);
                }
                entry.release = cool(wait_at_grant + received);
            }
            Cell::Cooldown { since } => entry.advance = cool(since),
        }
        entry
    }

    /// Charges one popped state: the checkpoint where the state budget and
    /// cancellation are observed.
    fn charge_pop(&self, explored: &mut usize) -> Result<(), VerifyError> {
        *explored += 1;
        if *explored > self.budget {
            return Err(VerifyError::StateBudgetExhausted {
                budget: self.budget,
            });
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            return Err(VerifyError::Canceled);
        }
        Ok(())
    }
}

/// `true` when the engine treats the two profiles as interchangeable:
/// identical maximum wait, minimum inter-arrival time and dwell-time arrays
/// over `0..=max_wait` — exactly the equality the symmetry runs are built
/// from (the settling columns of the dwell table and the pure-mode settling
/// times play no role in the scheduling semantics).
pub fn profiles_interchangeable(a: &AppTimingProfile, b: &AppTimingProfile) -> bool {
    a.max_wait() == b.max_wait()
        && a.min_inter_arrival() == b.min_inter_arrival()
        && (0..=a.max_wait())
            .all(|w| a.t_dw_min(w) == b.t_dw_min(w) && a.t_dw_plus(w) == b.t_dw_plus(w))
}

/// `true` when two adjacent applications of the model are interchangeable —
/// the condition under which [`SlotVerifyEngine`]'s symmetry reduction can
/// merge states, making its popped-state count a lower bound on the
/// oracle's instead of an equality.
pub fn has_interchangeable_neighbors(model: &SlotSharingModel) -> bool {
    model
        .profiles()
        .windows(2)
        .any(|w| profiles_interchangeable(&w[0], &w[1]))
}

/// Compact per-state record: parent id and the disturbance bitmask (in the
/// parent's canonical coordinates) that produced the state.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    parent: u32,
    mask: u32,
}

/// Who may take the slot in a loaded state, before the choice's waiters bid.
#[derive(Debug, Clone, Copy, Default)]
enum Slot {
    /// Nobody holds the slot, or its holder leaves at `T_dw⁺` this sample.
    #[default]
    Free,
    /// The holder has served `T_dw⁻`: a waiter preempts it, and the holder
    /// moves to `release`.
    Preemptable { app: usize, release: u32 },
    /// The holder keeps the slot whoever waits.
    Held,
}

/// One state loaded for stepping: the entries of its codes and the half of
/// the sample step that no disturbance choice changes. Mirrors the oracle's
/// `Explorer::step`: deadline check, occupant release, laxity-EDF
/// grant/preemption, time advance.
#[derive(Debug, Default)]
struct Frame<W> {
    entries: Vec<Entry>,
    /// Successor codes when nobody is disturbed and nobody is granted (an
    /// occupant at `T_dw⁺` already released).
    base: Vec<W>,
    /// The lowest `(laxity, application)` among the state's waiters, with
    /// its grant code.
    waiter: Option<(u32, usize, u32)>,
    slot: Slot,
    /// The first application past its maximum wait: every choice misses.
    expired: Option<usize>,
}

impl<W: StateWord> Frame<W> {
    fn load(&mut self, ctx: &ModelCtx, codes: &[W]) {
        self.entries.clear();
        self.base.clear();
        self.waiter = None;
        self.expired = None;
        let mut occupant = None;
        for (app, code) in codes.iter().enumerate() {
            let e = ctx.entry(app, code.unpack());
            if e.flags & EXPIRED != 0 && self.expired.is_none() {
                self.expired = Some(app);
            }
            if e.flags & WAITING != 0 && self.waiter.is_none_or(|(laxity, ..)| e.laxity < laxity) {
                self.waiter = Some((e.laxity, app, e.grant));
            }
            if e.flags & USING != 0 && occupant.is_none() {
                occupant = Some((app, e));
            }
            self.entries.push(e);
            self.base.push(W::pack(e.advance));
        }
        self.slot = match occupant {
            None => Slot::Free,
            Some((app, e)) if e.flags & RELEASE_PLUS != 0 => {
                self.base[app] = W::pack(e.release);
                Slot::Free
            }
            Some((app, e)) if e.flags & RELEASE_MIN != 0 => Slot::Preemptable {
                app,
                release: e.release,
            },
            Some(_) => Slot::Held,
        };
    }

    /// Turns `succ`, a copy of `base`, into the successor under the
    /// disturbance choice `mask` (one bit per disturbed position). The
    /// loaded state must not have expired.
    fn apply_choice(&self, ctx: &ModelCtx, mask: u32, succ: &mut [W]) {
        debug_assert!(self.expired.is_none());
        let mut best = self.waiter;
        let mut rest = mask;
        while rest != 0 {
            let app = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            debug_assert!(self.entries[app].flags & ELIGIBLE != 0);
            let e = ctx.entry(app, self.entries[app].disturb);
            succ[app] = W::pack(e.advance);
            if best.is_none_or(|(laxity, waiter, _)| (e.laxity, app) < (laxity, waiter)) {
                best = Some((e.laxity, app, e.grant));
            }
        }
        if let Some((_, waiter, grant)) = best {
            match self.slot {
                Slot::Free => succ[waiter] = W::pack(grant),
                Slot::Preemptable { app, release } => {
                    succ[app] = W::pack(release);
                    succ[waiter] = W::pack(grant);
                }
                Slot::Held => {}
            }
        }
    }
}

/// Interns `words` under its incremental Zobrist fingerprint `hash`: returns
/// `true` (and appends arena + meta + cached hash) when the state is new,
/// `false` when an identical state is already stored. The cached-hash index
/// rejects almost every collision without touching the arena; exact word
/// equality remains the final test on every hash match.
#[allow(clippy::too_many_arguments)]
fn insert_if_new<W: StateWord>(
    index: &mut CachedHashIndex,
    arena: &mut Vec<W>,
    meta: &mut Vec<NodeMeta>,
    hashes: &mut Vec<u64>,
    words: &[W],
    hash: u64,
    parent: u32,
    mask: u32,
    n: usize,
) -> bool {
    let new_id = meta.len() as u32;
    let found = index.intern(
        hash,
        |id| {
            let start = id as usize * n;
            &arena[start..start + n] == words
        },
        new_id,
    );
    match found {
        Some(_) => false,
        None => {
            arena.extend_from_slice(words);
            meta.push(NodeMeta { parent, mask });
            hashes.push(hash);
            true
        }
    }
}

/// Sorts the packed codes of every symmetry run, mapping a state to its
/// orbit representative.
fn canonicalize<W: StateWord>(runs: &[(usize, usize)], words: &mut [W]) {
    for &(start, end) in runs {
        if end - start >= 2 {
            words[start..end].sort_unstable();
        }
    }
}

/// Interchangeable-group structure of the eligible positions of one loaded
/// canonical state (`row`, with its `entries`): within a symmetry run the
/// canonical form keeps equal codes adjacent, so one scan suffices.
/// Positions outside any run of length ≥ 2 always form singleton groups.
fn scan_groups<W: StateWord>(
    runs: &[(usize, usize)],
    row: &[W],
    entries: &[Entry],
    groups: &mut Vec<(u32, u32)>,
) {
    groups.clear();
    for &(run_start, run_end) in runs {
        let mut i = run_start;
        while i < run_end {
            if entries[i].flags & ELIGIBLE == 0 {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < run_end && row[j] == row[i] {
                j += 1;
            }
            groups.push((i as u32, (j - i) as u32));
            i = j;
        }
    }
}

/// One staged successor: everything [`insert_if_new`] needs except the
/// words themselves, which live at the matching offset of the stage's flat
/// word buffer.
#[derive(Debug, Clone, Copy)]
struct SuccRecord {
    parent: u32,
    mask: u32,
    hash: u64,
    /// Slots whose canonical code differs from the canonical parent's — the
    /// incremental hash work, folded into the stats when the merge consumes
    /// the record (discarded post-miss records never count).
    diffs: u32,
}

/// One worker's staging buffer, owned by the [`Core`] and reused across
/// chunks and runs.
#[derive(Debug, Default)]
struct Stage<W> {
    records: Vec<SuccRecord>,
    /// `records.len() * n` packed words, record-major.
    words: Vec<W>,
    /// The first deadline miss in the staged range: `(parent id, mask)`.
    /// Staging stops there — in serial order nothing after it is observed.
    miss: Option<(u32, u32)>,
    frame: Frame<W>,
    /// Groups of interchangeable eligible positions: `(start, len)`.
    groups: Vec<(u32, u32)>,
    /// Mixed-radix disturbance counter, one digit per group.
    counts: Vec<u32>,
}

impl<W: StateWord> Stage<W> {
    /// Stages the successors of the interned states `states`, in serial
    /// order. Reads only the arena and hashes of states interned before the
    /// chunk.
    fn fill(&mut self, ctx: &ModelCtx, arena: &[W], hashes: &[u64], states: Range<usize>) {
        let n = ctx.n;
        self.records.clear();
        self.words.clear();
        // Take the working size at the first fill, while the arena is still
        // small: buffers that doubled in between the arena's own growth
        // steps fragment the allocator's heap.
        self.records.reserve(2 * CHUNK_STATES);
        self.words.reserve(2 * CHUNK_STATES * n);
        self.miss = None;
        for id in states {
            let row = &arena[id * n..(id + 1) * n];
            self.frame.load(ctx, row);
            if self.frame.expired.is_some() {
                // The deadline check fails whatever is disturbed, so the
                // first choice — nobody disturbed — is the miss.
                self.miss = Some((id as u32, 0));
                return;
            }
            scan_groups(&ctx.runs, row, &self.frame.entries, &mut self.groups);
            self.counts.clear();
            self.counts.resize(self.groups.len(), 0);
            // Mixed-radix enumeration of disturbance choices (how many
            // applications of each interchangeable group are disturbed),
            // least significant group first — on all-singleton groups this
            // is exactly the oracle's subset-mask order.
            loop {
                let mask = self
                    .groups
                    .iter()
                    .zip(&self.counts)
                    .fold(0, |mask, (&(start, _), &k)| {
                        mask | (((1u64 << k) - 1) << start) as u32
                    });
                let at = self.words.len();
                self.words.extend_from_slice(&self.frame.base);
                let succ = &mut self.words[at..];
                self.frame.apply_choice(ctx, mask, succ);
                canonicalize(&ctx.runs, succ);
                // Incremental Zobrist update: XOR out/in exactly the slots
                // whose canonical code differs from the canonical parent's.
                // One diff pass covers both the stepping and the symmetry
                // sort — a slot the sort permuted back to its old code
                // contributes nothing, exactly as XOR algebra demands.
                let mut hash = hashes[id];
                let mut diffs = 0u32;
                for (i, (w, old)) in succ.iter().zip(row).enumerate() {
                    if w != old {
                        hash ^= ctx.keys.key(i, old.unpack()) ^ ctx.keys.key(i, w.unpack());
                        diffs += 1;
                    }
                }
                debug_assert_eq!(
                    hash,
                    ctx.keys.fingerprint(succ.iter().map(|w| w.unpack())),
                    "incremental fingerprint must equal the from-scratch hash"
                );
                self.records.push(SuccRecord {
                    parent: id as u32,
                    mask,
                    hash,
                    diffs,
                });

                let mut g = 0;
                while g < self.groups.len() && self.counts[g] == self.groups[g].1 {
                    self.counts[g] = 0;
                    g += 1;
                }
                if g == self.groups.len() {
                    break;
                }
                self.counts[g] += 1;
            }
        }
    }
}

/// Monomorphised exploration core; all buffers survive across runs.
#[derive(Debug, Default)]
struct Core<W> {
    /// All interned states, back to back; state `id` occupies
    /// `arena[id * n .. (id + 1) * n]`.
    arena: Vec<W>,
    /// Parent links and disturbance masks, indexed by state id. Discovery
    /// order is BFS order, so `meta` doubles as the work queue (the cursor
    /// walks it front to back).
    meta: Vec<NodeMeta>,
    /// Cached-hash intern index from state fingerprints to dense ids.
    index: CachedHashIndex,
    /// Each interned state's Zobrist fingerprint, indexed by id (parallel to
    /// `meta`) — the parent hash every incremental successor update starts
    /// from, at the cost of one u64 per state instead of a re-hash per pop.
    hashes: Vec<u64>,
    /// One staging buffer per worker.
    stages: Vec<Stage<W>>,
    /// Per-slot XOR updates performed by the current run's incremental
    /// hashing; folded into `stats` by [`Core::run`].
    slot_updates: usize,
    /// Cumulative hash/probe counters across runs of this core.
    stats: VerifyStats,
}

impl<W: StateWord> Core<W> {
    /// Runs the exploration, folding the index's work-counter deltas (plus
    /// the incremental-hashing work and its full-rehash equivalent) into the
    /// core's cumulative [`VerifyStats`] on every return path.
    fn run(
        &mut self,
        ctx: &ModelCtx,
        pool: &cps_par::Pool,
    ) -> Result<VerificationOutcome, VerifyError> {
        let before = *self.index.stats();
        self.slot_updates = 0;
        let result = self.explore(ctx, pool);
        let delta = self.index.stats().since(&before);
        self.stats.intern_probes += delta.probes;
        self.stats.hash_hits += delta.hits;
        self.stats.hash_skips += delta.hash_skips;
        self.stats.deep_compares += delta.deep_compares;
        self.stats.rehashes += delta.rehashes;
        self.stats.rehashed_entries += delta.rehashed_entries;
        self.stats.hash_slot_updates += self.slot_updates;
        // What the pre-incremental scheme would have hashed for the same run:
        // the full state width on every intern probe, plus the full width of
        // every entry re-bucketed during growth.
        self.stats.full_hash_words += (delta.probes + delta.rehashed_entries) * ctx.n;
        result
    }

    /// The exploration loop (see the module docs): stage a chunk of queued
    /// states, then intern its successors in serial order.
    fn explore(
        &mut self,
        ctx: &ModelCtx,
        pool: &cps_par::Pool,
    ) -> Result<VerificationOutcome, VerifyError> {
        let n = ctx.n;
        let Core {
            arena,
            meta,
            index,
            hashes,
            stages,
            slot_updates,
            ..
        } = self;
        arena.clear();
        meta.clear();
        hashes.clear();
        index.reset();

        // The initial state — every application steady — encodes to all-zero
        // words under every layout and is its own canonical representative.
        // Its fingerprint is the one from-scratch hash of the whole run.
        arena.resize(n, W::pack(0));
        let init_hash = ctx.keys.fingerprint(std::iter::repeat_n(0, n));
        *slot_updates += n;
        let fresh = index.intern(init_hash, |_| false, 0).is_none();
        debug_assert!(fresh, "a reset index holds no state");
        meta.push(NodeMeta {
            parent: NO_PARENT,
            mask: 0,
        });
        hashes.push(init_hash);

        // `head` is the next state to pop; the chunk `[head, end)` is staged
        // whole, and the merge pops its states as their records come up.
        let mut head = 0usize;
        let mut explored = 0usize;
        while head < meta.len() {
            let end = meta.len().min(head + CHUNK_STATES * pool.threads());
            let workers = pool.threads().min((end - head).div_ceil(MIN_WORKER_STATES));
            let per_worker = (end - head).div_ceil(workers);
            if stages.len() < workers {
                stages.resize_with(workers, Stage::default);
            }
            let (frozen, frozen_hashes) = (&*arena, &*hashes);
            pool.map_mut(&mut stages[..workers], |w, stage| {
                let start = (head + w * per_worker).min(end);
                let states = start..(start + per_worker).min(end);
                stage.fill(ctx, frozen, frozen_hashes, states);
            });

            for stage in &stages[..workers] {
                for rec in stage.records.iter().take(PREFETCH_DISTANCE) {
                    index.prefetch(rec.hash);
                }
                for (r, rec) in stage.records.iter().enumerate() {
                    if let Some(ahead) = stage.records.get(r + PREFETCH_DISTANCE) {
                        index.prefetch(ahead.hash);
                    }
                    // Every staged state has at least one record, so records
                    // arrive grouped by parent in pop order.
                    if rec.parent as usize == head {
                        ctx.charge_pop(&mut explored)?;
                        head += 1;
                    }
                    *slot_updates += rec.diffs as usize;
                    let words = &stage.words[r * n..(r + 1) * n];
                    insert_if_new(
                        index, arena, meta, hashes, words, rec.hash, rec.parent, rec.mask, n,
                    );
                }
                if let Some((parent, mask)) = stage.miss {
                    debug_assert_eq!(parent as usize, head, "a missing state stages no record");
                    ctx.charge_pop(&mut explored)?;
                    let witness = build_witness(ctx, arena, meta, parent, mask);
                    return Ok(VerificationOutcome::new(false, explored, Some(witness)));
                }
            }
            debug_assert_eq!(head, end, "every staged state is popped");
        }

        Ok(VerificationOutcome::new(true, explored, None))
    }
}

/// Reconstructs a concrete counterexample from the canonical parent chain.
///
/// The recorded masks are expressed in canonical coordinates, so the chain is
/// replayed from the initial state while tracking the permutation between
/// concrete application indices and canonical positions: each step's mask is
/// routed through the permutation, the concrete codes are stepped through the
/// same entries as the exploration, and the permutation is refreshed by
/// stably sorting each symmetry run's concrete codes.
fn build_witness<W: StateWord>(
    ctx: &ModelCtx,
    arena: &[W],
    meta: &[NodeMeta],
    failing_parent: u32,
    final_mask: u32,
) -> Witness {
    let n = ctx.n;
    let mut path = Vec::new();
    let mut cursor = failing_parent;
    loop {
        path.push(cursor);
        let parent = meta[cursor as usize].parent;
        if parent == NO_PARENT {
            break;
        }
        cursor = parent;
    }
    path.reverse();
    // masks[k] is applied when stepping away from depth k (= sample k).
    let masks: Vec<u32> = path[1..]
        .iter()
        .map(|&node| meta[node as usize].mask)
        .chain(std::iter::once(final_mask))
        .collect();

    // codes[app] is the concrete packed code of application `app`.
    let mut codes = vec![0u32; n];
    let mut frame = Frame::<u32>::default();
    // perm[canonical position] = concrete application index.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut order: Vec<(u32, usize)> = Vec::with_capacity(n);
    let mut events = Vec::new();

    for (sample, &mask) in masks.iter().enumerate() {
        let last = sample + 1 == masks.len();
        let mut concrete = 0u32;
        for (bit, &app) in perm.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                concrete |= 1 << app;
                events.push(TraceEvent::Disturbance { app, sample });
            }
        }
        frame.load(ctx, &codes);
        if let Some(app) = frame.expired {
            assert!(
                last,
                "engine witness: premature deadline miss while replaying the parent chain"
            );
            events.push(TraceEvent::DeadlineMissed { app, sample });
            return Witness::new(events, app, sample);
        }
        assert!(
            !last,
            "engine witness: the failing step replayed without a deadline miss"
        );
        codes.copy_from_slice(&frame.base);
        frame.apply_choice(ctx, concrete, &mut codes);
        for &(start, end) in &ctx.runs {
            if end - start < 2 {
                continue;
            }
            order.clear();
            order.extend((start..end).map(|app| (codes[app], app)));
            order.sort_unstable();
            for (offset, &(_, app)) in order.iter().enumerate() {
                perm[start + offset] = app;
            }
        }
        // The permuted concrete state must reproduce the stored canonical
        // successor — the soundness invariant of the symmetry reduction.
        debug_assert!({
            let node = path[sample + 1] as usize;
            let words = &arena[node * n..(node + 1) * n];
            (0..n).all(|j| words[j].unpack() == codes[perm[j]])
        });
    }
    unreachable!("the final mask always replays to the recorded deadline miss")
}

/// Reusable interned-state verification engine.
///
/// Construction is cheap; all exploration buffers (state arena, hash index,
/// scratch vectors — in both word widths) survive across
/// [`SlotVerifyEngine::verify`] calls, so verifying a batch of models (as the
/// first-fit mapping heuristic does) amortises every allocation.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_verify::{SlotSharingModel, SlotVerifyEngine, VerificationConfig};
///
/// # fn main() -> Result<(), cps_verify::VerifyError> {
/// let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12])?;
/// let a = AppTimingProfile::new("A", 9, 35, 18, 25, table.clone())?;
/// let b = AppTimingProfile::new("B", 9, 35, 18, 25, table)?;
/// let model = SlotSharingModel::new(vec![a, b])?;
/// let mut engine = SlotVerifyEngine::new();
/// let outcome = engine.verify(&model, &VerificationConfig::default())?;
/// assert!(outcome.schedulable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SlotVerifyEngine {
    narrow: Core<u16>,
    wide: Core<u32>,
    pool: cps_par::Pool,
    /// Cancellation observed by every verification until replaced; see
    /// [`SlotVerifyEngine::set_cancel_token`].
    cancel: Option<CancelToken>,
}

impl SlotVerifyEngine {
    /// Creates an engine with empty buffers on the environment-selected
    /// worker pool ([`cps_par::Pool::from_env`], i.e. `CPS_THREADS`).
    pub fn new() -> Self {
        SlotVerifyEngine::default()
    }

    /// Creates an engine exploring on an explicit worker pool. Results are
    /// bit-identical for every pool (see the module docs); the pool only
    /// decides how the successor generation is sharded.
    pub fn with_pool(pool: cps_par::Pool) -> Self {
        SlotVerifyEngine {
            pool,
            ..SlotVerifyEngine::default()
        }
    }

    /// Moves the engine onto another worker pool in place: buffers and
    /// [`SlotVerifyEngine::stats`] carry over, so deltas taken across the
    /// switch stay valid.
    pub fn set_pool(&mut self, pool: cps_par::Pool) {
        self.pool = pool;
    }

    /// Installs (or with `None` removes) the cancellation token every
    /// subsequent verification polls at its budget checkpoints. A canceled
    /// token makes the verification return [`VerifyError::Canceled`];
    /// [`CancelToken::reset`] re-arms it without re-installing.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Verifies that every application of the model meets its deadline in
    /// every admissible disturbance scenario.
    ///
    /// Verdict and witness validity match [`crate::checker::verify`] (the
    /// retained oracle); `states_explored` counts popped states under the
    /// same budget semantics, and is at most the oracle's count (strictly
    /// smaller whenever the symmetry reduction collapses permutation
    /// orbits).
    ///
    /// # Errors
    ///
    /// * [`VerifyError::InvalidConfig`] for a zero state budget, a zero
    ///   disturbance bound, more than 32 applications, or a profile whose
    ///   packed code space exceeds 32 bits.
    /// * [`VerifyError::StateBudgetExhausted`] when the exploration pops
    ///   more states than the budget allows.
    pub fn verify(
        &mut self,
        model: &SlotSharingModel,
        config: &VerificationConfig,
    ) -> Result<VerificationOutcome, VerifyError> {
        Self::validate_config(config)?;
        let mut ctx = ModelCtx::new(model, config)?;
        ctx.cancel = self.cancel.clone();
        self.run(&ctx)
    }

    /// Verifies the sub-model selecting `members` (indices into `profiles`)
    /// as the applications sharing the slot, in the given order, without
    /// cloning any profile — the reuse hook for callers that probe many
    /// candidate subsets of one fleet (the `cps-map` admission cascade).
    ///
    /// Equivalent to building a [`SlotSharingModel`] from clones of the
    /// selected profiles and calling [`SlotVerifyEngine::verify`]; witness
    /// trace events refer to positions within `members`.
    ///
    /// # Errors
    ///
    /// As for [`SlotVerifyEngine::verify`], plus [`VerifyError::EmptyModel`]
    /// when `members` is empty.
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of bounds for `profiles`.
    pub fn verify_selected(
        &mut self,
        profiles: &[AppTimingProfile],
        members: &[usize],
        config: &VerificationConfig,
    ) -> Result<VerificationOutcome, VerifyError> {
        if members.is_empty() {
            return Err(VerifyError::EmptyModel);
        }
        Self::validate_config(config)?;
        let mut ctx = ModelCtx::from_profiles(members.iter().map(|&i| &profiles[i]), config)?;
        ctx.cancel = self.cancel.clone();
        self.run(&ctx)
    }

    /// Checks a configuration the way every engine entry point does: the
    /// state budget must be positive and a disturbance bound, if any, must
    /// allow at least one instance. Exposed so cascaded front-ends (the
    /// `cps-map` explorer) can fail on exactly the configurations the
    /// verifier would reject, before any of their cheap tiers answers.
    ///
    /// # Errors
    ///
    /// [`VerifyError::InvalidConfig`] describing the violated rule.
    pub fn validate_config(config: &VerificationConfig) -> Result<(), VerifyError> {
        if config.state_budget == 0 {
            return Err(VerifyError::InvalidConfig {
                reason: "state budget must be positive".to_string(),
            });
        }
        if config.max_disturbances_per_app == Some(0) {
            return Err(VerifyError::InvalidConfig {
                reason: "the disturbance bound must allow at least one instance".to_string(),
            });
        }
        Ok(())
    }

    /// Cumulative hash/probe work counters over the engine's lifetime,
    /// summed across both word-width cores. Long-lived callers (benches, the
    /// mapping cascade) snapshot this and report deltas via
    /// [`VerifyStats::since`].
    pub fn stats(&self) -> VerifyStats {
        self.narrow.stats.plus(&self.wide.stats)
    }

    fn run(&mut self, ctx: &ModelCtx) -> Result<VerificationOutcome, VerifyError> {
        if ctx.max_code_space <= <u16 as StateWord>::LIMIT {
            self.narrow.run(ctx, &self.pool)
        } else {
            self.wide.run(ctx, &self.pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{self, VerificationConfig};
    use crate::witness::validate_witness;
    use cps_core::{AppTimingProfile, DwellTimeTable};

    fn profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
        r: usize,
    ) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell_plus + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len])
            .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    /// Engine and oracle on the same model: verdicts agree, the engine never
    /// explores more states, every witness replays, and on models without
    /// adjacent identical profiles the popped-state counts are identical.
    fn assert_equivalent(model: &SlotSharingModel, config: &VerificationConfig) {
        let oracle = checker::verify(model, config).expect("oracle verifies");
        let mut engine = SlotVerifyEngine::new();
        let fast = engine.verify(model, config).expect("engine verifies");
        assert_eq!(fast.schedulable(), oracle.schedulable());
        assert!(
            fast.states_explored() <= oracle.states_explored(),
            "engine explored {} states, oracle {}",
            fast.states_explored(),
            oracle.states_explored()
        );
        if !has_interchangeable_neighbors(model) {
            assert_eq!(fast.states_explored(), oracle.states_explored());
        }
        if let Some(w) = fast.witness() {
            validate_witness(model, w).expect("engine witness replays");
        }
        if let Some(w) = oracle.witness() {
            validate_witness(model, w).expect("oracle witness replays");
        }
        assert_eq!(fast.witness().is_some(), oracle.witness().is_some());
    }

    #[test]
    fn matches_oracle_on_the_checker_unit_models() {
        let models = [
            vec![profile("A", 10, 3, 5, 25)],
            vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)],
            vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)],
            vec![
                profile("A", 7, 6, 6, 40),
                profile("B", 7, 6, 6, 40),
                profile("C", 7, 6, 6, 40),
            ],
            vec![profile("A", 10, 3, 8, 40), profile("B", 4, 3, 8, 40)],
        ];
        for profiles in models {
            let model = SlotSharingModel::new(profiles).unwrap();
            assert_equivalent(&model, &VerificationConfig::unbounded());
            assert_equivalent(&model, &VerificationConfig::bounded(2));
        }
    }

    #[test]
    fn matches_oracle_on_asymmetric_models_with_identical_counts() {
        let model = SlotSharingModel::new(vec![
            profile("A", 9, 2, 4, 30),
            profile("B", 6, 3, 5, 35),
            profile("C", 4, 1, 3, 28),
        ])
        .unwrap();
        assert_equivalent(&model, &VerificationConfig::unbounded());
        assert_equivalent(&model, &VerificationConfig::bounded(2));
    }

    #[test]
    fn symmetric_fleets_collapse_permutation_orbits() {
        let fleet: Vec<_> = (0..4)
            .map(|i| profile(&format!("S{i}"), 8, 2, 3, 30))
            .collect();
        let model = SlotSharingModel::new(fleet).unwrap();
        let oracle = checker::verify(&model, &VerificationConfig::unbounded()).unwrap();
        let mut engine = SlotVerifyEngine::new();
        let fast = engine
            .verify(&model, &VerificationConfig::unbounded())
            .unwrap();
        assert_eq!(fast.schedulable(), oracle.schedulable());
        assert!(
            fast.states_explored() * 2 < oracle.states_explored(),
            "symmetry reduction should collapse the fleet: engine {}, oracle {}",
            fast.states_explored(),
            oracle.states_explored()
        );
    }

    #[test]
    fn interleaved_identical_profiles_stay_sound() {
        // A run of identical profiles separated by a different one: only the
        // adjacent pair forms a symmetry class; the verdict still matches.
        let model = SlotSharingModel::new(vec![
            profile("A1", 6, 2, 3, 30),
            profile("B", 4, 3, 4, 30),
            profile("A2", 6, 2, 3, 30),
            profile("A3", 6, 2, 3, 30),
        ])
        .unwrap();
        assert_equivalent(&model, &VerificationConfig::unbounded());
    }

    #[test]
    fn wide_words_handle_large_code_spaces() {
        // A minimum inter-arrival beyond 2^16 forces the u32 core; the state
        // space is a long cooldown chain, identical for engine and oracle.
        let model = SlotSharingModel::new(vec![profile("A", 3, 2, 3, 70_000)]).unwrap();
        assert_equivalent(&model, &VerificationConfig::unbounded());
    }

    #[test]
    fn contended_codes_above_the_entry_cap_match_the_oracle() {
        // A's cell space (1,075 codes) exceeds the entry cache, so its late
        // cooldowns — and, under the bound, every code after its first
        // disturbance — are compiled on each lookup. B contends for the
        // slot: with a two-sample wait it is schedulable, with a one-sample
        // wait A's minimum dwell makes it miss.
        let a = profile("A", 20, 3, 30, 400);
        for b in [profile("B", 2, 2, 3, 30), profile("B", 1, 2, 3, 30)] {
            let model = SlotSharingModel::new(vec![a.clone(), b]).unwrap();
            for config in [
                VerificationConfig::unbounded(),
                VerificationConfig::bounded(2),
            ] {
                let ctx = ModelCtx::new(&model, &config).unwrap();
                assert_eq!(ctx.entries[0].len(), ENTRY_CAP);
                assert!(ctx.max_code_space > ENTRY_CAP as u64);
                assert_equivalent(&model, &config);

                let mut serial = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
                let reference = serial.verify(&model, &config).unwrap();
                for threads in [2, 4] {
                    let mut par = SlotVerifyEngine::with_pool(cps_par::Pool::with_threads(threads));
                    assert_eq!(par.verify(&model, &config).unwrap(), reference);
                    assert_eq!(par.stats(), serial.stats(), "t={threads}");
                }
            }
        }
    }

    #[test]
    fn engine_witnesses_mark_the_replayed_miss() {
        let model =
            SlotSharingModel::new(vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)])
                .unwrap();
        let mut engine = SlotVerifyEngine::new();
        let outcome = engine
            .verify(&model, &VerificationConfig::default())
            .unwrap();
        assert!(!outcome.schedulable());
        let witness = outcome.witness().unwrap();
        validate_witness(&model, witness).unwrap();
        assert!(witness
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::DeadlineMissed { .. })));
    }

    #[test]
    fn budget_counts_popped_states() {
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 60), profile("B", 10, 3, 5, 60)])
                .unwrap();
        let mut engine = SlotVerifyEngine::new();
        let result = engine.verify(
            &model,
            &VerificationConfig {
                max_disturbances_per_app: None,
                state_budget: 5,
            },
        );
        assert!(matches!(
            result,
            Err(VerifyError::StateBudgetExhausted { budget: 5 })
        ));
    }

    #[test]
    fn canceled_token_stops_the_exploration() {
        use crate::CancelToken;
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 60), profile("B", 10, 3, 5, 60)])
                .unwrap();
        let mut engine = SlotVerifyEngine::new();
        let token = CancelToken::new();
        engine.set_cancel_token(Some(token.clone()));

        // Pre-canceled: the first budget checkpoint reports Canceled.
        token.cancel();
        assert_eq!(
            engine.verify(&model, &VerificationConfig::default()),
            Err(VerifyError::Canceled)
        );
        let fleet = [profile("A", 10, 3, 5, 60), profile("B", 10, 3, 5, 60)];
        assert_eq!(
            engine.verify_selected(&fleet, &[0, 1], &VerificationConfig::default()),
            Err(VerifyError::Canceled)
        );

        // Reset re-arms the same token; the engine verifies normally again
        // with the exact verdict.
        token.reset();
        assert!(engine
            .verify(&model, &VerificationConfig::default())
            .unwrap()
            .schedulable());

        // Removing the token detaches the engine from the (re-canceled) flag.
        token.cancel();
        engine.set_cancel_token(None);
        assert!(engine
            .verify(&model, &VerificationConfig::default())
            .unwrap()
            .schedulable());
    }

    #[test]
    fn configuration_validation_matches_the_oracle() {
        let model = SlotSharingModel::new(vec![profile("A", 5, 2, 3, 20)]).unwrap();
        let mut engine = SlotVerifyEngine::new();
        assert!(engine
            .verify(
                &model,
                &VerificationConfig {
                    max_disturbances_per_app: Some(0),
                    state_budget: 100,
                }
            )
            .is_err());
        assert!(engine
            .verify(
                &model,
                &VerificationConfig {
                    max_disturbances_per_app: Some(1),
                    state_budget: 0,
                }
            )
            .is_err());
    }

    #[test]
    fn buffers_are_reusable_across_models() {
        let mut engine = SlotVerifyEngine::new();
        let first =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)])
                .unwrap();
        let second =
            SlotSharingModel::new(vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)])
                .unwrap();
        for _ in 0..2 {
            assert!(engine
                .verify(&first, &VerificationConfig::default())
                .unwrap()
                .schedulable());
            assert!(!engine
                .verify(&second, &VerificationConfig::default())
                .unwrap()
                .schedulable());
        }
    }

    #[test]
    fn verify_selected_matches_verify_on_the_cloned_submodel() {
        // A fleet of four profiles; every 1–3 element index selection must
        // give the same outcome as cloning the selection into its own model.
        let fleet = [
            profile("A", 10, 3, 5, 30),
            profile("B", 0, 5, 5, 30),
            profile("C", 10, 3, 5, 30),
            profile("D", 4, 2, 3, 20),
        ];
        let selections: &[&[usize]] = &[
            &[0],
            &[1],
            &[0, 2],
            &[2, 0],
            &[1, 3],
            &[0, 2, 3],
            &[3, 1, 0],
        ];
        let config = VerificationConfig::default();
        let mut engine = SlotVerifyEngine::new();
        for members in selections {
            let selected = engine.verify_selected(&fleet, members, &config).unwrap();
            let cloned: Vec<AppTimingProfile> = members.iter().map(|&i| fleet[i].clone()).collect();
            let model = SlotSharingModel::new(cloned).unwrap();
            let direct = engine.verify(&model, &config).unwrap();
            assert_eq!(selected.schedulable(), direct.schedulable());
            assert_eq!(selected.states_explored(), direct.states_explored());
            assert_eq!(selected.witness().is_some(), direct.witness().is_some());
            if let Some(witness) = selected.witness() {
                validate_witness(&model, witness).expect("selected witness replays");
            }
        }
    }

    #[test]
    fn stats_track_probes_and_incremental_hash_work() {
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)])
                .unwrap();
        let mut engine = SlotVerifyEngine::new();
        let zero = engine.stats();
        assert_eq!(zero, VerifyStats::default());

        let outcome = engine
            .verify(&model, &VerificationConfig::unbounded())
            .unwrap();
        let stats = engine.stats();
        assert!(
            stats.intern_probes > outcome.states_explored(),
            "every expanded state probes at least once"
        );
        assert!(stats.hash_hits > 0, "revisited states must hit the index");
        assert!(stats.hash_slot_updates > 0);
        assert!(
            stats.full_hash_words > stats.hash_slot_updates,
            "incremental hashing must beat the full-width equivalent: {} vs {}",
            stats.full_hash_words,
            stats.hash_slot_updates
        );
        assert!(stats.hash_work_collapse() > 1.0);

        // A second run accumulates; the delta of the second run alone is
        // consistent with the first (same model, same exploration).
        engine
            .verify(&model, &VerificationConfig::unbounded())
            .unwrap();
        let second = engine.stats().since(&stats);
        assert_eq!(second.intern_probes, stats.intern_probes);
        assert_eq!(second.hash_hits, stats.hash_hits);
        assert_eq!(second.hash_slot_updates, stats.hash_slot_updates);
    }

    /// The parallel exploration is the serial exploration, reshuffled across
    /// workers and re-serialised by the merge: outcome, witness, stats and
    /// error must all be bit-identical for every thread count.
    #[test]
    fn parallel_exploration_is_bitwise_identical_to_serial() {
        let models = [
            vec![profile("A", 10, 3, 5, 30), profile("B", 10, 3, 5, 30)],
            vec![profile("A", 0, 5, 5, 30), profile("B", 0, 5, 5, 30)],
            vec![
                profile("A", 7, 6, 6, 40),
                profile("B", 7, 6, 6, 40),
                profile("C", 7, 6, 6, 40),
            ],
            vec![profile("A", 9, 2, 4, 30), profile("B", 6, 3, 5, 35)],
            // Forces the wide (u32) core.
            vec![profile("A", 3, 2, 3, 70_000)],
        ];
        let configs = [
            VerificationConfig::unbounded(),
            VerificationConfig::bounded(2),
            // A budget small enough to exhaust on the richer models.
            VerificationConfig {
                max_disturbances_per_app: None,
                state_budget: 7,
            },
        ];
        for profiles in &models {
            let model = SlotSharingModel::new(profiles.clone()).unwrap();
            for config in &configs {
                let mut serial = SlotVerifyEngine::with_pool(cps_par::Pool::serial());
                let serial_result = serial.verify(&model, config);
                for threads in [2, 3, 4, 8] {
                    let pool = cps_par::Pool::with_threads(threads);
                    let mut par = SlotVerifyEngine::with_pool(pool);
                    let par_result = par.verify(&model, config);
                    match (&serial_result, &par_result) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "t={threads}"),
                        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                        (a, b) => panic!("serial {a:?} vs parallel {b:?} at t={threads}"),
                    }
                    assert_eq!(serial.stats(), par.stats(), "stats at t={threads}");
                }
            }
        }
    }

    #[test]
    fn verify_selected_rejects_an_empty_selection() {
        let fleet = [profile("A", 10, 3, 5, 30)];
        let mut engine = SlotVerifyEngine::new();
        assert!(matches!(
            engine.verify_selected(&fleet, &[], &VerificationConfig::default()),
            Err(crate::VerifyError::EmptyModel)
        ));
    }
}
