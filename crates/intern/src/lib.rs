//! Incremental-hash interning shared by the workspace's state engines.
//!
//! The exact engines built around interned packed states — the slot-sharing
//! verifier (`cps-verify::SlotVerifyEngine`) and the mapping cascade's memo
//! tables (`cps-map::MapExplorerEngine`) — both used to re-hash an *entire*
//! state vector on every intern probe and re-hash the *entire* arena on
//! every growth of their open-addressing tables. This crate factors the fix out
//! into three pieces they share:
//!
//! * [`zobrist_key`] / [`ZobristKeys`] — Zobrist-style key material keyed by
//!   `(slot index, cell/location code)`. A state's 64-bit fingerprint is the
//!   XOR of one key per slot, so a step that changes `k` slots updates the
//!   fingerprint with `2k` XORs instead of re-mixing all `n` words — and a
//!   within-run symmetry sort only XORs out/in the slots it actually
//!   permutes. [`ZobristKeys`] caches the key material in per-slot tables for
//!   small code spaces and falls back to the stateless mix above a cap, with
//!   bit-identical values either way.
//! * [`CachedHashIndex`] — an open-addressing intern index that stores each
//!   entry's 64-bit hash next to its dense id. Probes compare the cached
//!   hash before touching the interned words (almost every collision is
//!   rejected without a memory walk), and growth re-buckets from the cached
//!   hashes instead of re-hashing the arena. Exact word equality remains the
//!   final test on every hash match, so forced collisions (equal fingerprint,
//!   different words) are still distinguished — soundness never rests on the
//!   hash.
//! * [`TwoWayTranspositionTable`] — a bounded verdict cache with the classic
//!   two-way replacement scheme (a depth-preferred way plus an always-replace
//!   way, the takkerus minimax-table idiom). Entries carry their full key and
//!   are only returned on an exact key match, so a bounded table changes
//!   memory usage, never verdicts.
//!
//! Every structure counts its own work ([`IndexStats`], [`TtStats`]): probes,
//! cached-hash hits and skips, growth re-buckets and replacements, which the
//! engines surface through `VerifyStats` / `TierStats` and the `BENCH_*.json`
//! reports.
//!
//! For long-running services the containers also persist: [`snapshot`]
//! defines a versioned, dependency-free binary format (magic, kind tag,
//! checksum), and each container offers layout-preserving
//! `write_snapshot`/`read_snapshot` plus standalone
//! `to_snapshot_bytes`/`from_snapshot_bytes`, so an admission service
//! warm-starts across restarts with bit-identical probe paths and verdicts.
//! [`store`] adds the crash-safety layer on disk: atomic temp+rename writes,
//! generation-numbered rotation with bounded retention, and a recovery
//! ladder (latest → previous generations → cold rebuild) that treats
//! corruption as data, never a panic.

pub mod snapshot;
pub mod store;

mod index;
mod tt;
mod zobrist;

pub use index::{CachedHashIndex, IndexStats};
pub use snapshot::{Persist, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_VERSION};
pub use store::{Recovery, SnapshotStore, StoreError, DEFAULT_RETENTION};
pub use tt::{TtStats, TwoWayTranspositionTable};
pub use zobrist::{seq_fingerprint, zobrist_key, ZobristKeys};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CachedHashIndex>();
        assert_send_sync::<IndexStats>();
        assert_send_sync::<ZobristKeys>();
        assert_send_sync::<TwoWayTranspositionTable<Vec<u32>, bool>>();
        assert_send_sync::<SnapshotStore>();
        assert_send_sync::<StoreError>();
        assert_send_sync::<Recovery<Vec<u8>>>();
    }
}
