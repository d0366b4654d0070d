//! Interned-state exploration engine for the exact slot-sharing checker.
//!
//! [`SlotVerifyEngine`] answers the same question as [`crate::checker::verify`]
//! (retained as the semantic oracle, re-exported as [`crate::reference`]) but
//! is built for throughput, following the engine/oracle pattern of
//! `cps-core::engine`:
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
//!   never by re-mixing the whole word vector. In unbounded mode the
//!   fingerprint is that of the state's *busy projection* (below): an idle
//!   slot hashes with the `Steady` key, so a cooldown that only advances
//!   changes no key.
//! * **Cached-hash interning** — states are deduplicated through a
//!   [`cps_intern::CachedHashIndex`] that stores each entry's fingerprint
//!   next to its dense `u32` id. Probes compare the cached hash before any
//!   arena words, growth re-buckets from cached hashes instead of
//!   re-hashing the arena, and word equality stays the final probe test —
//!   hash collisions cost a compare, never a wrong verdict.
//! * **Dominance pruning** (unbounded mode) — a cell that is `Steady` or in
//!   `Cooldown { since }` is *idle*: the scheduler never reads it. A state
//!   dominates another when their busy cells are equal and each idle cell is
//!   at least as far along (`Steady` above every cooldown, cooldowns by
//!   `since`); it can copy every disturbance choice of the other, so the
//!   serial merge skips every successor an interned state dominates (see
//!   [`crate::checker`]). The index maps each *busy projection* — the state
//!   with its idle cells blanked to `Steady` — to the first state of an
//!   antichain of its undominated states, linked through intrusive
//!   per-state links. Equality is the degenerate case, so the same check
//!   replaces exact deduplication. A state that a later state of its own
//!   BFS level dominates is *superseded*: it stays interned but is never
//!   expanded, the way UPPAAL's unified passed/waiting list drops waiting
//!   states a newly stored state covers. The merge flags it when it
//!   unlinks it from its antichain, and tells levels apart by id alone:
//!   the level being interned starts at the store length the merge saw
//!   when it popped the first state of the level before. Every reachable
//!   state stays dominated by an interned state no deeper than itself
//!   (see [`crate::checker`]), so verdicts and miss samples do not change.
//!   Bounded mode has no idle cells, because the instance counters still
//!   differ: its projection is the whole state, every antichain holds one
//!   state, the same path deduplicates exact states, and nothing is
//!   superseded.
//! * **Lookahead miss detection** — a state is *doomed* when some
//!   disturbance choice leaves an application past its maximum wait one
//!   sample later: it has two zero-laxity grant candidates (waiters at their
//!   maximum wait, or eligible applications whose maximum wait is 0), or one
//!   while the occupant can be neither released nor preempted. Compiled
//!   entries flag the candidates, so the test is one entry lookup per slot.
//!   Staging tests every successor and the search stops at the first doomed
//!   state it interns, instead of expanding the rest of the BFS queue up to
//!   the expired successor. An interned state that dominates a doomed state
//!   is doomed itself, so the first doomed state interned is the parent of
//!   the first expired state a search without lookahead would pop: the
//!   verdict and the witness are that search's, only the pops of a miss
//!   fall.
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
//!   The canonical order is *busy first*: the busy codes of a run in code
//!   order, then (unbounded mode) its idle codes by descending rank, so two
//!   states of a run with the same busy cells line their idle cells up slot
//!   for slot and the dominance check compares like with like. Bounded mode
//!   sorts by code.
//! * **Falsifying walks** ([`SlotVerifyEngine::falsify_selected`], the
//!   `cps-map` cascade's exact tier) — a breadth-first search reaches a
//!   miss only after every shallower state, so a big reject costs nearly
//!   as much as an accept. Once a search has popped its first chunk
//!   (`CHUNK_STATES`, 2,048 states), every further pop earns a third of a
//!   walk sample, and every 192nd pop is a checkpoint that spends the
//!   credit on walks. A walk steps concrete codes from the all-steady state
//!   through the compiled entries (`Frame::load`, `apply_choice`, the
//!   doomed test), disturbing each eligible application with probability
//!   ½ per sample, and gives up after the model's longest minimum
//!   inter-arrival time. The first walk that reaches a doomed state ends
//!   the search as a reject. Its witness lists the walk's disturbances,
//!   then every eligible zero-laxity candidate disturbed at once, and the
//!   miss a sample later. The walks draw from one splitmix64 stream seeded
//!   with the fingerprint of the model's scheduling parameters and its
//!   disturbance bound, and checkpoints fall at popped-state counts inside
//!   the serial merge, so the outcome is the same on every engine, pool
//!   width and query order. A pop's checkpoint runs once that pop's
//!   successors are merged, so when the search interns a doomed state on
//!   the same pop, the search's own reject wins the tie. The walks are
//!   sound because a walk is a valid concrete disturbance schedule: it
//!   disturbs only eligible applications, so it stays within the bound,
//!   and a doomed state it reaches is reachable. They never accept, so
//!   verdicts never change, and a search that ends inside its first chunk
//!   runs no walk. The constants were chosen on the 63 subsets of the
//!   published rows and `bench_verify`'s models before any end-to-end run,
//!   and before superseded states were skipped. There the walks decided 21
//!   of the 34 rejects, whose pops fell from 4,738,926 to 116,814, and
//!   added about 9% to the accepts. One sample per pop added 27% to the
//!   accepts, one per four pops left the rejects 123,277 pops, and horizons
//!   of 2 and 4 times the longest inter-arrival time needed more samples
//!   and pops. The case study's `{C1,C5,C4,C3}` accept spends 3,950
//!   walk samples over its 13,897 pops.
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
//! semantics as the oracle: a superseded state is skipped uncounted, and a
//! miss is decided when its doomed parent is interned, during the pop of
//! that state's own parent, so a doomed initial state reports 0 popped
//! states. On models without adjacent identical profiles the engine runs
//! the oracle's pruned search with its lookahead: it pops the same states
//! in the same order, makes the same skip and supersede decisions, stops
//! at the same doomed state, and reports the identical count. With
//! interchangeable neighbours it explores at most as many.
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
//!    successor is stepped, canonicalised, incrementally hashed and tested
//!    for doom into a staging buffer the engine owns and reuses. Superseded
//!    states are left out, and a buffer stops at its first doomed
//!    successor. On a pool wider than one thread, a span of more than
//!    `CHUNK_STATES` queued states is split into contiguous state ranges,
//!    one buffer per worker; a shorter span stages on the calling thread,
//!    where a thread spawn would cost more than the staging it shares.
//!    Staging reads only states interned before the chunk, so the workers
//!    share nothing mutable.
//! 2. **Merge.** The staged records are interned in serial order, buffer by
//!    buffer, replaying pop accounting, the state budget, the walk
//!    checkpoints and the first doomed state exactly as a pop-one-state
//!    loop interleaves them. A chunk can straddle a level boundary, so a
//!    state can be superseded after it was staged: the merge drops its
//!    records uncharged, and when they held the doomed successor that
//!    stopped a buffer, the loop stages again from the next state. Once
//!    it interns a doomed state it stages that state alone and replays the
//!    witness through its first expiring choice, in the usual choice
//!    order. Each record's index bucket is prefetched
//!    ([`cps_intern::CachedHashIndex::prefetch`]) a fixed distance ahead,
//!    so the probes into a large index overlap their cache misses.
//!
//! Because ids, hashes, stats counters, superseded flags, walk checkpoints
//! and the first doomed state are all decided by the in-order merge,
//! verdicts, witnesses, interned ids and [`VerifyStats`] are
//! **bit-identical under any thread count** (asserted by the
//! cross-thread-count property tests at pool widths 2, 4 and 8).
//! Staging memory is bounded by the chunk, not by the BFS frontier.

use std::ops::Range;

use cps_core::AppTimingProfile;
use cps_intern::{seq_fingerprint, zobrist_key, CachedHashIndex, ZobristKeys};

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
/// the staging memory; the cost per state is flat over a wide range. A
/// worker is added only for queued states beyond a full chunk, so each
/// worker stages more than half a chunk, enough to pay for its thread.
/// This module's unit tests stage 256, so that their small models also
/// spread over several workers and have chunks that straddle BFS levels.
const CHUNK_STATES: usize = if cfg!(test) { 256 } else { 2048 };
/// Staged records between an index prefetch and the probe it prepares.
const PREFETCH_DISTANCE: usize = 8;
/// Popped states between two checkpoints of the falsifying walks, counted
/// from the end of the first chunk (see the module docs).
const WALK_CHECKPOINT_POPS: usize = 192;
/// Popped states that earn one walk sample past the first chunk. A sample
/// costs about a third of a pop (40–50 ns against 130–160 ns on the case
/// study), so the walks add about a tenth to the search's own time.
const POPS_PER_WALK_SAMPLE: usize = 3;

/// Hash/probe work counters of a [`SlotVerifyEngine`], cumulative over the
/// engine's lifetime (benches and the mapping cascade report deltas between
/// snapshots via [`VerifyStats::since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    /// Intern probes against the state index (one per generated successor
    /// plus one per initial state).
    pub intern_probes: usize,
    /// Successors discarded because an interned state equals them or, in
    /// unbounded mode, dominates them; `intern_probes − hash_hits` states
    /// were interned.
    pub hash_hits: usize,
    /// Occupied buckets skipped on a cached-hash mismatch alone, without
    /// comparing arena words.
    pub hash_skips: usize,
    /// Index key comparisons after a cached-hash match: whole states in
    /// bounded mode, busy projections in unbounded mode. The dominance
    /// checks against a projection's antichain are not counted.
    pub deep_compares: usize,
    /// Index growths; each re-buckets from cached hashes. The index holds
    /// one entry per state in bounded mode and one per busy projection in
    /// unbounded mode.
    pub rehashes: usize,
    /// Entries re-bucketed during growths without re-hashing their words.
    pub rehashed_entries: usize,
    /// Per-slot XOR updates performed by the incremental Zobrist hashing —
    /// the words the engine actually hashed. A slot whose busy projection
    /// did not change (a cooldown that only advanced) needs none.
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
/// [`Entry`] flag: a zero-laxity grant candidate — waiting at the maximum
/// wait, or eligible with a maximum wait of zero. Not granted this sample,
/// it expires.
const URGENT: u8 = 1 << 6;

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
    /// Unbounded mode: idle codes exist, so [`ModelCtx::busy`] blanks them
    /// and [`ModelCtx::order_key`] ranks them. In bounded mode both are the
    /// identity on codes.
    prune: bool,
    budget: usize,
    n: usize,
    /// The widest per-application code space; selects the word width.
    max_code_space: u64,
    /// Zobrist key material, one key per `(application slot, packed code)`.
    keys: ZobristKeys,
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
            prune: bound.is_none(),
            budget: config.state_budget,
            n,
            max_code_space,
            keys: ZobristKeys::new(code_spaces.iter().copied()),
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

    /// The busy projection of `code` at `slot`: idle codes (`Steady` and
    /// every `Cooldown`) read as `Steady`, code 0. The identity in bounded
    /// mode, which has no idle codes.
    #[inline]
    fn busy(&self, slot: usize, code: u32) -> u32 {
        if self.prune && code >= self.enc[slot].cooldown_base {
            0
        } else {
            code
        }
    }

    /// The canonical sort key of `code` at `slot`: busy codes first, in code
    /// order, then the idle codes by descending rank — `Steady`, then
    /// cooldowns from the longest elapsed. Bounded mode sorts by code.
    #[inline]
    fn order_key(&self, slot: usize, code: u32) -> u32 {
        let enc = &self.enc[slot];
        if !self.prune || (code != 0 && code < enc.cooldown_base) {
            code
        } else if code == 0 {
            enc.cooldown_base
        } else {
            enc.cooldown_base + (enc.exhausted_code - code)
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
                if p.max_wait == 0 {
                    entry.flags |= URGENT;
                }
                // The instance counter only exists in bounded mode.
                let used = used + u32::from(self.bound.is_some());
                entry.disturb = enc.encode(Cell::Waiting { waited: 0 }, used);
            }
            Cell::Steady | Cell::Exhausted => {}
            Cell::Waiting { waited } if waited > p.max_wait => entry.flags = EXPIRED,
            Cell::Waiting { waited } => {
                entry.flags = WAITING;
                if waited == p.max_wait {
                    entry.flags |= URGENT;
                }
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

    /// Charges one popped state: the checkpoint where the state budget is
    /// observed.
    fn charge_pop(&self, explored: &mut usize) -> Result<(), VerifyError> {
        *explored += 1;
        if *explored > self.budget {
            return Err(VerifyError::StateBudgetExhausted {
                budget: self.budget,
            });
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
/// `Explorer::step`: occupant release, laxity-EDF grant/preemption, time
/// advance.
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
}

impl<W: StateWord> Frame<W> {
    fn load(&mut self, ctx: &ModelCtx, codes: &[W]) {
        self.entries.clear();
        self.base.clear();
        self.waiter = None;
        let mut occupant = None;
        for (app, code) in codes.iter().enumerate() {
            let e = ctx.entry(app, code.unpack());
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
    /// disturbance choice `mask` (one bit per disturbed position). No
    /// application of the loaded state may wait past its maximum wait: the
    /// search stops at the doomed parent of every such state.
    fn apply_choice(&self, ctx: &ModelCtx, mask: u32, succ: &mut [W]) {
        debug_assert!(self.entries.iter().all(|e| e.flags & EXPIRED == 0));
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

/// End of an antichain list.
const CHAIN_END: u32 = u32::MAX;

/// The states one run interned, in BFS order, and the index that decides
/// which successors are new.
#[derive(Debug, Default)]
struct Store<W> {
    /// All interned states, back to back; state `id` occupies
    /// `arena[id * n .. (id + 1) * n]`.
    arena: Vec<W>,
    /// Parent links and disturbance masks, indexed by state id. Discovery
    /// order is BFS order, so `meta` doubles as the work queue (the cursor
    /// walks it front to back).
    meta: Vec<NodeMeta>,
    /// Each interned state's index fingerprint, indexed by id (parallel to
    /// `meta`): the Zobrist fingerprint of its busy projection (of the whole
    /// state in bounded mode). It is the parent hash every incremental
    /// successor update starts from, at the cost of one u64 per state
    /// instead of a re-hash per pop.
    hashes: Vec<u64>,
    /// Cached-hash index from each busy projection's fingerprint to the
    /// first state of its antichain: the interned states with that busy
    /// projection that no other interned state dominates. In bounded mode
    /// the projection is the whole state, so every antichain is one state.
    index: CachedHashIndex,
    /// Per state id: the next state of its antichain. [`CHAIN_END`], and
    /// every id past the end of the vector, end an antichain: it grows only
    /// when a state joins a nonempty antichain, so bounded mode never fills
    /// it. Stale once the state leaves the antichain.
    next: Vec<u32>,
    /// Per state id: a later state of its own BFS level dominates it, so
    /// the search never expands it.
    superseded: Vec<bool>,
    /// The first id of the BFS level being interned, the store length when
    /// the search popped the first state of the level before. A state a
    /// new one unlinks from its antichain is superseded when its id is at
    /// least this: it is on the new state's level and not yet popped.
    level_first: usize,
}

impl<W: StateWord> Store<W> {
    /// Empties the store; allocations and index statistics survive.
    fn reset(&mut self) {
        self.arena.clear();
        self.meta.clear();
        self.hashes.clear();
        self.index.reset();
        self.next.clear();
        self.superseded.clear();
        self.level_first = 0;
    }

    /// Interns the successor `words` under its index fingerprint `hash`:
    /// returns `true` after appending it as a new state, `false` when an
    /// interned state equals it or, in unbounded mode, dominates it. A new
    /// state supersedes the antichain members of its own level it
    /// dominates (see [`Store::level_first`]). The
    /// cached-hash index rejects almost every collision without touching the
    /// arena; word comparison stays the final test on every hash match, so a
    /// collision costs a compare, never a wrong verdict. Bounded mode takes
    /// the same path: its busy projection is the identity, so an antichain
    /// is one state and the only state that dominates a successor is an
    /// equal one.
    fn insert(&mut self, ctx: &ModelCtx, words: &[W], hash: u64, parent: u32, mask: u32) -> bool {
        let n = ctx.n;
        let new_id = self.meta.len() as u32;
        let Store {
            arena,
            index,
            next,
            superseded,
            level_first,
            ..
        } = self;
        let row = |id: u32| &arena[id as usize * n..(id as usize + 1) * n];
        let busy_equal = |head: u32| {
            let head = row(head);
            (0..n).all(|slot| {
                ctx.busy(slot, head[slot].unpack()) == ctx.busy(slot, words[slot].unpack())
            })
        };
        let mut first = CHAIN_END;
        if let Some(head) = index.intern(hash, busy_equal, new_id) {
            // The antichain holds no two comparable states, so once the new
            // state dominates one member none dominates it: dominated members
            // are unlinked during the same walk. They stay interned, and
            // those of the new state's level are never expanded.
            first = *head;
            let mut prev = CHAIN_END;
            let mut kept = first;
            while kept != CHAIN_END {
                let (kept_dominates, new_dominates) = compare_ranks(row(kept), words);
                if kept_dominates {
                    return false;
                }
                let after = next.get(kept as usize).copied().unwrap_or(CHAIN_END);
                if !new_dominates {
                    prev = kept;
                } else {
                    if kept as usize >= *level_first {
                        superseded[kept as usize] = true;
                    }
                    if prev == CHAIN_END {
                        first = after;
                    } else {
                        next[prev as usize] = after;
                    }
                }
                kept = after;
            }
            *head = new_id;
        }
        if first != CHAIN_END {
            next.resize(new_id as usize, CHAIN_END);
            next.push(first);
        }
        self.arena.extend_from_slice(words);
        self.meta.push(NodeMeta { parent, mask });
        self.hashes.push(hash);
        self.superseded.push(false);
        true
    }
}

/// Compares the idle ranks of two states with equal busy projections, slot
/// by slot: `(a dominates b, b dominates a)`. Busy slots hold equal codes and
/// compare both ways. An idle code ranks as `code − 1`, wrapped, so `Steady`
/// (code 0) ranks above every cooldown and cooldowns rank by elapsed
/// samples.
fn compare_ranks<W: StateWord>(a: &[W], b: &[W]) -> (bool, bool) {
    a.iter().zip(b).fold((true, true), |(a_ge, b_ge), (x, y)| {
        let (x, y) = (x.unpack().wrapping_sub(1), y.unpack().wrapping_sub(1));
        (a_ge && x >= y, b_ge && y >= x)
    })
}

/// `true` when some disturbance choice leaves an application of `codes`
/// past its maximum wait one sample later. The scheduler grants at most one
/// waiter per sample, so that takes two zero-laxity grant candidates, or one
/// while the occupant can be neither released nor preempted. The answer does
/// not depend on the order of interchangeable applications, so canonical
/// states test like concrete ones.
fn doomed<W: StateWord>(ctx: &ModelCtx, codes: &[W]) -> bool {
    let flags = codes.iter().enumerate();
    doomed_flags(flags.map(|(app, code)| ctx.entry(app, code.unpack()).flags))
}

/// [`doomed`] over the entry flags of a state's applications.
fn doomed_flags(flags: impl Iterator<Item = u8>) -> bool {
    let (mut urgent, mut held) = (0u32, false);
    for flags in flags {
        urgent += u32::from(flags & URGENT != 0);
        held |= flags & (USING | RELEASE_MIN | RELEASE_PLUS) == USING;
    }
    urgent >= 2 || (urgent == 1 && held)
}

/// The first application of `codes` that waits past its maximum wait.
fn expired<W: StateWord>(ctx: &ModelCtx, codes: &[W]) -> Option<usize> {
    (0..ctx.n).find(|&app| ctx.entry(app, codes[app].unpack()).flags & EXPIRED != 0)
}

/// Sorts the packed codes of every symmetry run into canonical order (see
/// [`ModelCtx::order_key`]), mapping a state to its orbit representative.
fn canonicalize<W: StateWord>(ctx: &ModelCtx, words: &mut [W]) {
    for &(start, end) in &ctx.runs {
        if end - start >= 2 {
            words[start..end].sort_unstable_by_key(|w| ctx.order_key(start, w.unpack()));
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

/// One staged successor: everything [`Store::insert`] needs except the
/// words themselves, which live at the matching offset of the stage's flat
/// word buffer.
#[derive(Debug, Clone, Copy)]
struct SuccRecord {
    parent: u32,
    mask: u32,
    /// The index fingerprint (see [`Store::hashes`]).
    hash: u64,
    /// Slots whose projected canonical code differs from the canonical
    /// parent's — the incremental hash work, folded into the stats when the
    /// merge consumes the record (records staged for a witness never count).
    diffs: u32,
}

/// One worker's staging buffer, owned by the [`Core`] and reused across
/// chunks and runs.
#[derive(Debug, Default)]
struct Stage<W> {
    records: Vec<SuccRecord>,
    /// `records.len() * n` packed words, record-major.
    words: Vec<W>,
    /// Staging stopped at the last record, the first successor the `stop`
    /// test of [`Stage::fill`] accepted: in serial order nothing after it is
    /// observed.
    stopped: bool,
    frame: Frame<W>,
    /// Groups of interchangeable eligible positions: `(start, len)`.
    groups: Vec<(u32, u32)>,
    /// Mixed-radix disturbance counter, one digit per group.
    counts: Vec<u32>,
}

impl<W: StateWord> Stage<W> {
    /// Stages the successors of the interned states `states` that are not
    /// superseded, in serial order, up to and including the first that
    /// `stop` accepts. Reads only states interned before the chunk.
    fn fill(
        &mut self,
        ctx: &ModelCtx,
        store: &Store<W>,
        states: Range<usize>,
        stop: impl Fn(&ModelCtx, &[W]) -> bool,
    ) {
        let n = ctx.n;
        let Store {
            arena,
            hashes,
            superseded,
            ..
        } = store;
        self.records.clear();
        self.words.clear();
        // Take the working size at the first fill, while the arena is still
        // small: buffers that doubled in between the arena's own growth
        // steps fragment the allocator's heap.
        self.records.reserve(2 * CHUNK_STATES);
        self.words.reserve(2 * CHUNK_STATES * n);
        self.stopped = false;
        for id in states.filter(|&id| !superseded[id]) {
            let row = &arena[id * n..(id + 1) * n];
            self.frame.load(ctx, row);
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
                canonicalize(ctx, succ);
                // Incremental Zobrist update of the index fingerprint: XOR
                // out/in exactly the slots whose projected canonical code
                // differs from the canonical parent's. One diff pass covers
                // both the stepping and the symmetry sort — a slot the sort
                // permuted back to its old code, or a cooldown that only
                // advanced, contributes nothing, exactly as XOR algebra
                // demands.
                let mut hash = hashes[id];
                let mut diffs = 0u32;
                for (i, (w, old)) in succ.iter().zip(row).enumerate() {
                    if w != old {
                        let (old, new) = (ctx.busy(i, old.unpack()), ctx.busy(i, w.unpack()));
                        if old != new {
                            hash ^= ctx.keys.key(i, old) ^ ctx.keys.key(i, new);
                            diffs += 1;
                        }
                    }
                }
                debug_assert_eq!(
                    hash,
                    ctx.keys.fingerprint(
                        succ.iter()
                            .enumerate()
                            .map(|(i, w)| ctx.busy(i, w.unpack()))
                    ),
                    "incremental fingerprint must equal the from-scratch hash"
                );
                self.records.push(SuccRecord {
                    parent: id as u32,
                    mask,
                    hash,
                    diffs,
                });
                if stop(ctx, succ) {
                    self.stopped = true;
                    return;
                }

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
    store: Store<W>,
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
        walker: Option<&mut Walker>,
    ) -> Result<VerificationOutcome, VerifyError> {
        let before = *self.store.index.stats();
        self.slot_updates = 0;
        let result = self.explore(ctx, pool, walker);
        let delta = self.store.index.stats().since(&before);
        self.stats.intern_probes += delta.probes;
        // Every probe interns its state or discards it as equal or dominated.
        self.stats.hash_hits += delta.probes - self.store.meta.len();
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
    /// states, then intern its successors in serial order. With a `walker`,
    /// every pop is also a potential walk checkpoint.
    fn explore(
        &mut self,
        ctx: &ModelCtx,
        pool: &cps_par::Pool,
        mut walker: Option<&mut Walker>,
    ) -> Result<VerificationOutcome, VerifyError> {
        let n = ctx.n;
        let Core {
            store,
            stages,
            slot_updates,
            ..
        } = self;
        store.reset();

        // The initial state — every application steady — encodes to all-zero
        // words under every layout and is its own canonical representative
        // and busy projection. Its fingerprint is the one from-scratch hash
        // of the whole run.
        let initial = vec![W::pack(0); n];
        let init_hash = ctx.keys.fingerprint(std::iter::repeat_n(0, n));
        *slot_updates += n;
        let fresh = store.insert(ctx, &initial, init_hash, NO_PARENT, 0);
        debug_assert!(fresh, "a reset store holds no state");
        if stages.is_empty() {
            stages.push(Stage::default());
        }
        if doomed(ctx, &initial) {
            return Ok(reject(ctx, store, &mut stages[0], 0, 0));
        }

        // `head` is the next state to pop; the chunk `[head, end)` is staged
        // whole, and the merge pops its states as their records come up.
        let mut head = 0usize;
        let mut explored = 0usize;
        // A pop's walk checkpoint runs once its successors are merged, so
        // a doomed state the search interns during that pop wins the tie.
        let mut unchecked = None;
        let mut checkpoint = |unchecked: &mut Option<usize>| {
            let explored = unchecked.take()?;
            walker.as_deref_mut()?.checkpoint(ctx, explored)
        };
        while head < store.meta.len() {
            let end = store.meta.len().min(head + CHUNK_STATES * pool.threads());
            let workers = pool.threads().min((end - head).div_ceil(CHUNK_STATES));
            let per_worker = (end - head).div_ceil(workers);
            if stages.len() < workers {
                stages.resize_with(workers, Stage::default);
            }
            let frozen = &*store;
            pool.map_mut(&mut stages[..workers], |w, stage| {
                let start = (head + w * per_worker).min(end);
                let states = start..(start + per_worker).min(end);
                stage.fill(ctx, frozen, states, doomed);
            });

            // The parent of the records being merged, and whether a state
            // merged earlier in the chunk superseded it after staging.
            let (mut parent, mut dropped) = (NO_PARENT, false);
            let mut first_doomed = None;
            let mut resume = end;
            for stage in &stages[..workers] {
                for rec in stage.records.iter().take(PREFETCH_DISTANCE) {
                    store.index.prefetch(rec.hash);
                }
                for (r, rec) in stage.records.iter().enumerate() {
                    if let Some(ahead) = stage.records.get(r + PREFETCH_DISTANCE) {
                        store.index.prefetch(ahead.hash);
                    }
                    // Records arrive grouped by parent in pop order; a
                    // state superseded before staging has none.
                    if rec.parent != parent {
                        if let Some(witness) = checkpoint(&mut unchecked) {
                            return Ok(VerificationOutcome::new(false, explored, Some(witness)));
                        }
                        parent = rec.parent;
                        let id = parent as usize;
                        if store.level_first <= id {
                            store.level_first = store.meta.len();
                        }
                        dropped = store.superseded[id];
                        if !dropped {
                            ctx.charge_pop(&mut explored)?;
                            unchecked = Some(explored);
                        }
                    }
                    if dropped {
                        continue;
                    }
                    *slot_updates += rec.diffs as usize;
                    let words = &stage.words[r * n..(r + 1) * n];
                    let fresh = store.insert(ctx, words, rec.hash, rec.parent, rec.mask);
                    debug_assert!(
                        fresh || !stage.stopped || r + 1 < stage.records.len(),
                        "an interned state that dominates a doomed state is doomed itself"
                    );
                }
                if stage.stopped {
                    // A chunk that straddles a level boundary can supersede
                    // the parent whose doomed successor stopped the stage:
                    // the search then goes on after that parent.
                    if dropped {
                        resume = parent as usize + 1;
                    } else {
                        first_doomed = Some(store.meta.len() - 1);
                    }
                    break;
                }
            }
            if let Some(id) = first_doomed {
                return Ok(reject(ctx, store, &mut stages[0], id, explored));
            }
            if let Some(witness) = checkpoint(&mut unchecked) {
                return Ok(VerificationOutcome::new(false, explored, Some(witness)));
            }
            head = resume;
        }

        Ok(VerificationOutcome::new(true, explored, None))
    }
}

/// The verdict once the doomed state `id` is interned. Its first expiring
/// choice, staged alone in the usual choice order, ends the witness: the
/// miss follows one sample later. `explored` counts the states popped so
/// far, 0 when the initial state is doomed.
fn reject<W: StateWord>(
    ctx: &ModelCtx,
    store: &Store<W>,
    stage: &mut Stage<W>,
    id: usize,
    explored: usize,
) -> VerificationOutcome {
    let expiring = |ctx: &ModelCtx, codes: &[W]| expired(ctx, codes).is_some();
    stage.fill(ctx, store, id..id + 1, expiring);
    assert!(stage.stopped, "a doomed state has an expiring choice");
    let mask = stage.records[stage.records.len() - 1].mask;
    let witness = build_witness(ctx, &store.arena, &store.meta, id as u32, mask);
    VerificationOutcome::new(false, explored, Some(witness))
}

/// Reconstructs a concrete counterexample from the canonical parent chain of
/// the doomed state `doomed` and its expiring choice `final_mask`.
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
    doomed: u32,
    final_mask: u32,
) -> Witness {
    let n = ctx.n;
    let mut path = Vec::new();
    let mut cursor = doomed;
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
        let mut concrete = 0u32;
        for (bit, &app) in perm.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                concrete |= 1 << app;
                events.push(TraceEvent::Disturbance { app, sample });
            }
        }
        assert!(
            expired(ctx, &codes).is_none(),
            "engine witness: premature deadline miss while replaying the parent chain"
        );
        frame.load(ctx, &codes);
        codes.copy_from_slice(&frame.base);
        frame.apply_choice(ctx, concrete, &mut codes);
        for &(start, end) in &ctx.runs {
            if end - start < 2 {
                continue;
            }
            order.clear();
            order.extend((start..end).map(|app| (ctx.order_key(start, codes[app]), app)));
            order.sort_unstable();
            for (offset, &(_, app)) in order.iter().enumerate() {
                perm[start + offset] = app;
            }
        }
        // The permuted concrete state must reproduce the stored canonical
        // successor — the soundness invariant of the symmetry reduction.
        debug_assert!(path.get(sample + 1).is_none_or(|&node| {
            let words = &arena[node as usize * n..(node as usize + 1) * n];
            (0..n).all(|j| words[j].unpack() == codes[perm[j]])
        }));
    }
    let app = expired(ctx, &codes)
        .expect("engine witness: the expiring choice replayed without a deadline miss");
    let sample = masks.len();
    events.push(TraceEvent::DeadlineMissed { app, sample });
    Witness::new(events, app, sample)
}

/// Seeded random disturbance walks through the compiled entries — the
/// falsifying half of [`SlotVerifyEngine::falsify_selected`]. A walk steps
/// concrete codes from the all-steady state, disturbing each eligible
/// application with probability ½ per sample, and stops at the first
/// doomed state or after `horizon` samples. The walks of one search draw
/// from one stream seeded by the model's content, so what they find does
/// not depend on the engine, the pool width or the order of queries.
#[derive(Debug, Default)]
struct Walker {
    /// The counter of the current search's stream.
    rng: u64,
    /// Walk samples earned and not yet spent. The walk that spends the last
    /// of it runs to its end, and the overdraft is paid from the next
    /// checkpoint's earnings.
    credit: isize,
    /// Samples a walk steps before it gives up: the model's longest minimum
    /// inter-arrival time.
    horizon: usize,
    /// Concrete codes of the walked state, and its successor's.
    codes: Vec<u32>,
    succ: Vec<u32>,
    frame: Frame<u32>,
    /// The current walk's disturbance masks, one per sample.
    masks: Vec<u32>,
    /// Samples stepped over the engine's lifetime.
    samples: usize,
    /// Searches a walk decided over the engine's lifetime.
    falsified: usize,
}

impl Walker {
    /// Observes the popped-state count `explored` of the current search.
    /// Past the first chunk, every [`WALK_CHECKPOINT_POPS`]-th pop is a
    /// checkpoint: the pops since the last one earn their walk samples,
    /// and walks run until the credit is spent. Returns the witness of the
    /// first walk that reaches a doomed state.
    fn checkpoint(&mut self, ctx: &ModelCtx, explored: usize) -> Option<Witness> {
        let past = explored.checked_sub(CHUNK_STATES)?;
        if past == 0 || past % WALK_CHECKPOINT_POPS != 0 {
            return None;
        }
        if past == WALK_CHECKPOINT_POPS {
            self.start(ctx);
        }
        self.credit += (WALK_CHECKPOINT_POPS / POPS_PER_WALK_SAMPLE) as isize;
        while self.credit > 0 {
            if self.walk(ctx) {
                self.falsified += 1;
                return Some(self.witness(ctx));
            }
        }
        None
    }

    /// Seeds the stream with the [`seq_fingerprint`] of everything the
    /// scheduling rules read — the disturbance bound, then each
    /// application's maximum wait, minimum inter-arrival time and dwell
    /// arrays, in model order.
    fn start(&mut self, ctx: &ModelCtx) {
        let mut content = vec![ctx.bound.map_or(0, |b| b.saturating_add(1))];
        for p in &ctx.params {
            content.extend([p.max_wait, p.min_inter_arrival]);
            content.extend(p.t_dw_min.iter().chain(&p.t_dw_plus));
        }
        self.rng = seq_fingerprint(&content);
        self.credit = 0;
        self.horizon = ctx
            .params
            .iter()
            .map(|p| p.min_inter_arrival as usize)
            .max()
            .unwrap_or(0);
    }

    /// The next 64 bits of the stream: the splitmix64 finalizer
    /// ([`zobrist_key`]) of a counter that starts at the seed.
    fn next_bits(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(1);
        zobrist_key((self.rng >> 32) as usize, self.rng as u32)
    }

    /// Runs one walk and charges its samples. `true` when it stopped at a
    /// doomed state, which `codes` then holds, reached by `masks`.
    fn walk(&mut self, ctx: &ModelCtx) -> bool {
        self.codes.clear();
        self.codes.resize(ctx.n, 0);
        self.masks.clear();
        let found = loop {
            self.frame.load(ctx, &self.codes);
            if doomed_flags(self.frame.entries.iter().map(|e| e.flags)) {
                break true;
            }
            if self.masks.len() == self.horizon {
                break false;
            }
            let eligible = self
                .frame
                .entries
                .iter()
                .enumerate()
                .fold(0u32, |mask, (app, e)| {
                    mask | u32::from(e.flags & ELIGIBLE != 0) << app
                });
            let mask = self.next_bits() as u32 & eligible;
            self.succ.clone_from(&self.frame.base);
            self.frame.apply_choice(ctx, mask, &mut self.succ);
            std::mem::swap(&mut self.codes, &mut self.succ);
            self.masks.push(mask);
        };
        self.samples += self.masks.len();
        // At least one sample is charged, so an empty horizon cannot stall
        // the checkpoint loop.
        self.credit -= self.masks.len().max(1) as isize;
        found
    }

    /// The witness of the walk that stopped at a doomed state: its
    /// disturbances, then every eligible zero-laxity candidate disturbed at
    /// once. That choice leaves at least two zero-laxity bidders for one
    /// grant, or one bidder against an occupant that stays, so one of them
    /// misses a sample later.
    fn witness(&mut self, ctx: &ModelCtx) -> Witness {
        self.frame.load(ctx, &self.codes);
        let last = self
            .frame
            .entries
            .iter()
            .enumerate()
            .fold(0u32, |mask, (app, e)| {
                let urgent = e.flags & (ELIGIBLE | URGENT) == ELIGIBLE | URGENT;
                mask | u32::from(urgent) << app
            });
        self.succ.clone_from(&self.frame.base);
        self.frame.apply_choice(ctx, last, &mut self.succ);
        let app = expired(ctx, &self.succ)
            .expect("walk witness: a doomed state misses under its urgent choice");
        self.masks.push(last);
        let mut events = Vec::new();
        for (sample, &mask) in self.masks.iter().enumerate() {
            let mut rest = mask;
            while rest != 0 {
                let app = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                events.push(TraceEvent::Disturbance { app, sample });
            }
        }
        let sample = self.masks.len();
        events.push(TraceEvent::DeadlineMissed { app, sample });
        Witness::new(events, app, sample)
    }
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
    /// The falsifying walks of [`SlotVerifyEngine::falsify_selected`].
    walker: Walker,
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

    /// Verifies that every application of the model meets its deadline in
    /// every admissible disturbance scenario.
    ///
    /// Verdict and witness validity match [`crate::checker::verify`] (the
    /// retained oracle); `states_explored` counts popped states under the
    /// same budget semantics. It equals the oracle's count on models without
    /// interchangeable neighbours, and is at most the oracle's count
    /// otherwise, where the symmetry reduction may merge permutations of a
    /// state.
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
        let ctx = ModelCtx::new(model, config)?;
        self.run(&ctx, false)
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
        self.run_selected(profiles, members, config, false)
    }

    /// [`SlotVerifyEngine::verify_selected`] that also tries to falsify a
    /// search which outlives its first chunk of `CHUNK_STATES` (2,048)
    /// popped states, with seeded random disturbance walks (see the module
    /// docs). The first walk that reaches a doomed state ends the search
    /// as a reject; its witness is the walk's concrete disturbances. Walks
    /// never accept, so the verdict is always `verify_selected`'s. A search
    /// that ends inside its first chunk, every accept's `states_explored`
    /// and the witness and count of a reject the search reaches first are
    /// `verify_selected`'s too; a walk-decided reject reports the states
    /// popped when the walk found it.
    ///
    /// # Errors
    ///
    /// As for [`SlotVerifyEngine::verify_selected`].
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of bounds for `profiles`.
    pub fn falsify_selected(
        &mut self,
        profiles: &[AppTimingProfile],
        members: &[usize],
        config: &VerificationConfig,
    ) -> Result<VerificationOutcome, VerifyError> {
        self.run_selected(profiles, members, config, true)
    }

    fn run_selected(
        &mut self,
        profiles: &[AppTimingProfile],
        members: &[usize],
        config: &VerificationConfig,
        walks: bool,
    ) -> Result<VerificationOutcome, VerifyError> {
        if members.is_empty() {
            return Err(VerifyError::EmptyModel);
        }
        Self::validate_config(config)?;
        let ctx = ModelCtx::from_profiles(members.iter().map(|&i| &profiles[i]), config)?;
        self.run(&ctx, walks)
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

    /// Walk samples [`SlotVerifyEngine::falsify_selected`] has stepped over
    /// the engine's lifetime.
    pub fn walk_samples(&self) -> usize {
        self.walker.samples
    }

    /// Rejects a walk of [`SlotVerifyEngine::falsify_selected`] decided over
    /// the engine's lifetime.
    pub fn falsified_rejects(&self) -> usize {
        self.walker.falsified
    }

    fn run(&mut self, ctx: &ModelCtx, walks: bool) -> Result<VerificationOutcome, VerifyError> {
        let walker = walks.then_some(&mut self.walker);
        if ctx.max_code_space <= <u16 as StateWord>::LIMIT {
            self.narrow.run(ctx, &self.pool, walker)
        } else {
            self.wide.run(ctx, &self.pool, walker)
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
    fn a_superseded_parent_of_the_first_doomed_successor_is_skipped() {
        // With 256-state chunks this reject's search stages a chunk that
        // straddles a level boundary, and the first doomed successor it
        // stages has a parent that a state merged earlier in the same
        // chunk supersedes. The merge drops that parent's records and the
        // search goes on after it, as the oracle's does.
        let model = SlotSharingModel::new(vec![
            profile("F0", 5, 1, 2, 12),
            profile("F1", 5, 1, 1, 11),
            profile("F2", 3, 2, 2, 8),
            profile("F3", 1, 1, 1, 27),
            profile("F4", 3, 2, 2, 22),
        ])
        .unwrap();
        let config = VerificationConfig::unbounded();
        let oracle = checker::verify(&model, &config).unwrap();
        assert!(!oracle.schedulable());
        for threads in [1, 2] {
            let pool = cps_par::Pool::with_threads(threads);
            let fast = SlotVerifyEngine::with_pool(pool).verify(&model, &config);
            assert_eq!(fast.unwrap(), oracle, "t={threads}");
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
    fn a_miss_one_sample_ahead_is_decided_within_a_one_state_budget() {
        // C cannot wait at all and A holds the slot for three samples once
        // granted: disturbing A first makes the next state doomed. That
        // state is a successor of the initial one, so the first pop decides
        // the reject, on the engine and on the oracle alike.
        let model =
            SlotSharingModel::new(vec![profile("A", 10, 3, 5, 30), profile("C", 0, 5, 5, 30)])
                .unwrap();
        for bound in [None, Some(1)] {
            let config = VerificationConfig {
                max_disturbances_per_app: bound,
                state_budget: 1,
            };
            let fast = SlotVerifyEngine::new().verify(&model, &config).unwrap();
            assert!(!fast.schedulable());
            assert_eq!(fast.states_explored(), 1);
            validate_witness(&model, fast.witness().unwrap()).unwrap();
            assert_eq!(checker::verify(&model, &config).unwrap(), fast);
        }
    }

    #[test]
    fn a_walk_witness_disturbs_the_zero_wait_candidate_last() {
        // The same pair with C first: a walk that disturbs A at sample 0
        // stops at a doomed state where only C's disturbance expires, so the
        // witness must add it at sample 1 for C to miss at sample 2.
        let model =
            SlotSharingModel::new(vec![profile("C", 0, 5, 5, 30), profile("A", 10, 3, 5, 30)])
                .unwrap();
        for config in [
            VerificationConfig::unbounded(),
            VerificationConfig::bounded(1),
        ] {
            let ctx = ModelCtx::new(&model, &config).unwrap();
            let mut walker = Walker::default();
            walker.frame.load(&ctx, &[0, 0]);
            walker.codes.clone_from(&walker.frame.base);
            walker.frame.apply_choice(&ctx, 0b10, &mut walker.codes);
            walker.masks.push(0b10);
            assert!(doomed(&ctx, &walker.codes));
            let witness = walker.witness(&ctx);
            validate_witness(&model, &witness).unwrap();
            assert_eq!(witness.disturbance_times(2), [vec![1], vec![0]]);
            assert_eq!((witness.failing_app(), witness.missed_at_sample()), (0, 2));
        }
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

    /// 1–4 applications drawn from a pool of 1–3 random constant-dwell
    /// profiles (waits up to 3, so zero-wait applications are common).
    fn random_model(seed: u64) -> SlotSharingModel {
        let mut rng = proptest::TestRng::new(seed);
        let distinct = 1 + rng.next_below(3);
        let pool: Vec<AppTimingProfile> = (0..distinct)
            .map(|i| {
                let max_wait = rng.next_below(4) as usize;
                let dwell_min = 1 + rng.next_below(3) as usize;
                let dwell_plus = dwell_min + rng.next_below(3) as usize;
                let r = rng.next_below(16) as usize;
                profile(&format!("P{i}"), max_wait, dwell_min, dwell_plus, r)
            })
            .collect();
        let n = 1 + rng.next_below(4);
        let apps = (0..n).map(|_| pool[rng.next_below(distinct) as usize].clone());
        SlotSharingModel::new(apps.collect()).unwrap()
    }

    proptest::proptest! {
        #[test]
        fn doomed_states_are_those_with_an_expiring_choice(seed in 0u64..1_000_000) {
            let model = random_model(seed);
            for config in [VerificationConfig::unbounded(), VerificationConfig::bounded(2)] {
                let ctx = ModelCtx::new(&model, &config).unwrap();
                let mut core = Core::<u32>::default();
                let outcome = core.run(&ctx, &cps_par::Pool::serial(), None).unwrap();
                // Test superseded states too.
                core.store.superseded.fill(false);
                let store = &core.store;
                let mut stage = Stage::default();
                let mut doomed_ids = Vec::new();
                for (id, row) in store.arena.chunks(ctx.n).enumerate() {
                    let expiring = |ctx: &ModelCtx, codes: &[u32]| expired(ctx, codes).is_some();
                    stage.fill(&ctx, store, id..id + 1, expiring);
                    proptest::prop_assert_eq!(doomed(&ctx, row), stage.stopped, "state {}", id);
                    if stage.stopped {
                        doomed_ids.push(id);
                    }
                }
                // Only the last state interned by a rejecting run is doomed.
                let last = store.hashes.len() - 1;
                let expected = if outcome.schedulable() { vec![] } else { vec![last] };
                proptest::prop_assert_eq!(doomed_ids, expected);
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
