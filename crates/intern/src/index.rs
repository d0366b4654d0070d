//! Open-addressing intern index with cached entry hashes.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Empty-bucket sentinel; interned ids must stay below it.
const EMPTY: u32 = u32::MAX;
/// Buckets allocated on first use; always a power of two.
const INITIAL_CAPACITY: usize = 1 << 10;

/// Snapshot kind tag of [`CachedHashIndex`].
const KIND: [u8; 4] = *b"CHIX";

/// Work counters of a [`CachedHashIndex`], cumulative over the index's
/// lifetime (they survive [`CachedHashIndex::reset`], so a long-lived engine
/// reports totals and benches report deltas between snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Intern probes performed ([`CachedHashIndex::intern`] calls).
    pub probes: usize,
    /// Probes resolved to an already-interned entry (dedup hits).
    pub hits: usize,
    /// Occupied buckets skipped on a cached-hash mismatch alone — collisions
    /// rejected without touching the interned words.
    pub hash_skips: usize,
    /// Full key comparisons performed (cached hash matched first).
    pub deep_compares: usize,
    /// Table growths.
    pub rehashes: usize,
    /// Entries re-bucketed during growths, each from its cached hash — the
    /// words behind them are *not* re-hashed.
    pub rehashed_entries: usize,
}

impl IndexStats {
    /// Component-wise difference `self − earlier` between two snapshots of a
    /// long-lived index.
    pub fn since(&self, earlier: &IndexStats) -> IndexStats {
        IndexStats {
            probes: self.probes - earlier.probes,
            hits: self.hits - earlier.hits,
            hash_skips: self.hash_skips - earlier.hash_skips,
            deep_compares: self.deep_compares - earlier.deep_compares,
            rehashes: self.rehashes - earlier.rehashes,
            rehashed_entries: self.rehashed_entries - earlier.rehashed_entries,
        }
    }
}

/// Open-addressing hash index from caller-supplied 64-bit hashes to dense
/// `u32` ids, caching each entry's hash next to its id.
///
/// The index owns no keys: the caller supplies the hash (typically an
/// incrementally maintained Zobrist fingerprint) and an equality predicate
/// over ids (typically a word compare against an arena slice). Probing
/// compares the cached hash before invoking the predicate, and growth
/// re-buckets the `(hash, id)` pairs themselves — the arena is never
/// re-hashed. Exact key equality remains the final test on every hash match,
/// so hash collisions cost a predicate call but never a wrong id.
#[derive(Debug, Default)]
pub struct CachedHashIndex {
    /// Cached entry hashes, parallel to `ids`.
    hashes: Vec<u64>,
    /// Interned ids per bucket, [`EMPTY`] when free.
    ids: Vec<u32>,
    len: usize,
    stats: IndexStats,
}

impl CachedHashIndex {
    /// Creates an empty index; buckets are allocated lazily on first use.
    pub fn new() -> Self {
        CachedHashIndex::default()
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry is interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative work counters (survive [`CachedHashIndex::reset`]).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Clears all entries but keeps the bucket allocation and the cumulative
    /// statistics — the reuse hook for engines that run many models.
    pub fn reset(&mut self) {
        self.ids.iter_mut().for_each(|id| *id = EMPTY);
        self.len = 0;
    }

    /// Interns `hash` with `new_id`: returns the stored id when an entry
    /// with an equal cached hash satisfies `is_equal` (the id already
    /// interned for this key), or `None` after storing `new_id` as a new
    /// entry. `is_equal` receives candidate ids whose cached hash matches
    /// `hash` and must compare the underlying keys exactly. The caller may
    /// overwrite the returned id with another id of an equal key, below
    /// `u32::MAX`: the entry then resolves to it.
    pub fn intern(
        &mut self,
        hash: u64,
        mut is_equal: impl FnMut(u32) -> bool,
        new_id: u32,
    ) -> Option<&mut u32> {
        debug_assert!(new_id != EMPTY, "id space exhausted");
        self.stats.probes += 1;
        if (self.len + 1) * 4 > self.ids.len() * 3 {
            self.grow();
        }
        let cap_mask = self.ids.len() - 1;
        let mut slot = (hash as usize) & cap_mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                self.ids[slot] = new_id;
                self.hashes[slot] = hash;
                self.len += 1;
                return None;
            }
            if self.hashes[slot] == hash {
                self.stats.deep_compares += 1;
                if is_equal(id) {
                    self.stats.hits += 1;
                    return Some(&mut self.ids[slot]);
                }
            } else {
                self.stats.hash_skips += 1;
            }
            slot = (slot + 1) & cap_mask;
        }
    }

    /// Hints the CPU to fetch the bucket a probe of `hash` starts at, so a
    /// caller that knows its next hashes ahead of time overlaps their cache
    /// misses with current work. Changes no entry and no counter. A no-op
    /// before the first allocation and on targets other than x86-64; a
    /// growth between the hint and the probe only wastes the hint.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        if self.ids.is_empty() {
            return;
        }
        let slot = (hash as usize) & (self.ids.len() - 1);
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let id: *const u32 = &self.ids[slot];
            let cached: *const u64 = &self.hashes[slot];
            // SAFETY: `_mm_prefetch` is a cache hint: it never faults and
            // loads nothing into the program, whatever the address. SSE is
            // part of the x86-64 baseline, and both pointers come from
            // in-bounds references.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(id.cast());
                _mm_prefetch::<_MM_HINT_T0>(cached.cast());
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
    }

    /// Writes the index into a snapshot payload, bucket positions included,
    /// so the restored index probes exactly like the saved one. Work
    /// counters are not persisted — a restored index counts from zero.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len);
        w.put_usize(self.ids.len());
        for (&hash, &id) in self.hashes.iter().zip(&self.ids) {
            w.put_u64(hash);
            w.put_u32(id);
        }
    }

    /// Reads an index previously written by
    /// [`CachedHashIndex::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Propagates payload truncation, a non-power-of-two capacity, or an
    /// entry count that disagrees with the stored buckets.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let capacity = r.take_usize()?;
        if capacity != 0 && !capacity.is_power_of_two() {
            return Err(SnapshotError::Corrupt {
                reason: format!("index capacity {capacity} is not a power of two"),
            });
        }
        let mut hashes = Vec::with_capacity(capacity.min(1 << 24));
        let mut ids = Vec::with_capacity(capacity.min(1 << 24));
        let mut occupied = 0usize;
        for _ in 0..capacity {
            let hash = r.take_u64()?;
            let id = r.take_u32()?;
            occupied += usize::from(id != EMPTY);
            hashes.push(hash);
            ids.push(id);
        }
        if occupied != len {
            return Err(SnapshotError::Corrupt {
                reason: format!("index claims {len} entries but stores {occupied}"),
            });
        }
        Ok(CachedHashIndex {
            hashes,
            ids,
            len,
            stats: IndexStats::default(),
        })
    }

    /// Serializes the index as a standalone snapshot.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(KIND);
        self.write_snapshot(&mut w);
        w.finish()
    }

    /// Restores an index from [`CachedHashIndex::to_snapshot_bytes`] output.
    ///
    /// # Errors
    ///
    /// Propagates framing and payload violations as [`SnapshotError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, KIND)?;
        let index = CachedHashIndex::read_snapshot(&mut r)?;
        r.finish()?;
        Ok(index)
    }

    /// Doubles the bucket array, re-bucketing every entry from its cached
    /// hash — no key is re-hashed.
    fn grow(&mut self) {
        let new_capacity = (self.ids.len() * 2).max(INITIAL_CAPACITY);
        if !self.ids.is_empty() {
            self.stats.rehashes += 1;
            self.stats.rehashed_entries += self.len;
        }
        let old_hashes = std::mem::replace(&mut self.hashes, vec![0; new_capacity]);
        let old_ids = std::mem::replace(&mut self.ids, vec![EMPTY; new_capacity]);
        let cap_mask = new_capacity - 1;
        for (hash, id) in old_hashes.into_iter().zip(old_ids) {
            if id == EMPTY {
                continue;
            }
            let mut slot = (hash as usize) & cap_mask;
            while self.ids[slot] != EMPTY {
                slot = (slot + 1) & cap_mask;
            }
            self.ids[slot] = id;
            self.hashes[slot] = hash;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zobrist::seq_fingerprint;

    /// Interns `words` into `index`/`arena` the way the engines do.
    fn intern_words(index: &mut CachedHashIndex, arena: &mut Vec<Vec<u32>>, words: &[u32]) -> u32 {
        let hash = seq_fingerprint(words);
        let new_id = arena.len() as u32;
        match index.intern(hash, |id| arena[id as usize] == words, new_id) {
            Some(existing) => *existing,
            None => {
                arena.push(words.to_vec());
                new_id
            }
        }
    }

    #[test]
    fn interns_and_deduplicates() {
        let mut index = CachedHashIndex::new();
        let mut arena = Vec::new();
        assert!(index.is_empty());
        let a = intern_words(&mut index, &mut arena, &[1, 2, 3]);
        let b = intern_words(&mut index, &mut arena, &[4, 5, 6]);
        let a2 = intern_words(&mut index, &mut arena, &[1, 2, 3]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(index.len(), 2);
        assert_eq!(index.stats().probes, 3);
        assert_eq!(index.stats().hits, 1);
    }

    #[test]
    fn growth_rebuckets_from_cached_hashes_and_preserves_entries() {
        let mut index = CachedHashIndex::new();
        let mut arena = Vec::new();
        // Enough entries to force at least one growth past the initial
        // capacity's 3/4 load bound.
        let n = INITIAL_CAPACITY;
        for i in 0..n as u32 {
            intern_words(&mut index, &mut arena, &[i, i ^ 7]);
        }
        assert!(index.stats().rehashes >= 1, "growth must have happened");
        assert!(index.stats().rehashed_entries > 0);
        // Every entry is still found, with no new ids minted.
        for i in 0..n as u32 {
            let id = intern_words(&mut index, &mut arena, &[i, i ^ 7]);
            assert_eq!(arena[id as usize], vec![i, i ^ 7]);
        }
        assert_eq!(index.len(), n);
        assert_eq!(arena.len(), n);
    }

    /// (c) of the hash-soundness checklist: states with equal fingerprints
    /// but different words are still distinguished by the interner.
    #[test]
    fn forced_hash_collisions_are_distinguished_by_exact_equality() {
        let mut index = CachedHashIndex::new();
        let arena: Vec<Vec<u32>> = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let colliding_hash = 0xDEAD_BEEF_u64;
        assert_eq!(
            index.intern(colliding_hash, |id| arena[id as usize] == [1, 2], 0),
            None
        );
        // Same hash, different words: must insert a fresh id, after one deep
        // compare that rejects the stored entry.
        assert_eq!(
            index.intern(colliding_hash, |id| arena[id as usize] == [3, 4], 1),
            None
        );
        assert_eq!(index.len(), 2);
        assert!(index.stats().deep_compares >= 1);
        // Lookups under the colliding hash resolve to the right ids.
        assert_eq!(
            index.intern(colliding_hash, |id| arena[id as usize] == [1, 2], 2),
            Some(&mut 0)
        );
        assert_eq!(
            index.intern(colliding_hash, |id| arena[id as usize] == [3, 4], 2),
            Some(&mut 1)
        );
        // A distinct hash never reaches the deep compare of those entries.
        let skips_before = index.stats().hash_skips;
        assert_eq!(
            index.intern(!colliding_hash, |id| arena[id as usize] == [5, 6], 2),
            None
        );
        assert!(index.stats().hash_skips >= skips_before);
    }

    #[test]
    fn an_overwritten_id_is_the_one_the_entry_resolves_to() {
        let mut index = CachedHashIndex::new();
        let hash = seq_fingerprint(&[7]);
        assert_eq!(index.intern(hash, |_| true, 0), None);
        *index.intern(hash, |id| id == 0, 1).unwrap() = 5;
        assert_eq!(index.intern(hash, |id| id == 5, 1), Some(&mut 5));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn prefetch_is_only_a_hint() {
        let mut index = CachedHashIndex::new();
        // Before the first allocation there is no bucket to fetch.
        index.prefetch(0xDEAD_BEEF);
        let mut arena = Vec::new();
        for i in 0..2000u32 {
            index.prefetch(seq_fingerprint(&[i]));
            intern_words(&mut index, &mut arena, &[i]);
        }
        let stats = *index.stats();
        let bytes = index.to_snapshot_bytes();
        for hash in [0, u64::MAX, seq_fingerprint(&[7])] {
            index.prefetch(hash);
        }
        assert_eq!(index.stats(), &stats, "prefetching counts no work");
        assert_eq!(
            index.to_snapshot_bytes(),
            bytes,
            "prefetching moves no entry"
        );
    }

    #[test]
    fn reset_keeps_capacity_and_cumulative_stats() {
        let mut index = CachedHashIndex::new();
        let mut arena = Vec::new();
        for i in 0..100u32 {
            intern_words(&mut index, &mut arena, &[i]);
        }
        let probes_before = index.stats().probes;
        index.reset();
        assert!(index.is_empty());
        assert_eq!(index.stats().probes, probes_before, "stats survive reset");
        let mut arena2 = Vec::new();
        let id = intern_words(&mut index, &mut arena2, &[42]);
        assert_eq!(id, 0, "ids restart after reset");
    }

    #[test]
    fn snapshot_roundtrip_preserves_bucket_layout() {
        let mut index = CachedHashIndex::new();
        let mut arena = Vec::new();
        for i in 0..900u32 {
            intern_words(&mut index, &mut arena, &[i, i.wrapping_mul(31)]);
        }
        let bytes = index.to_snapshot_bytes();
        let mut restored = CachedHashIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.stats(), &IndexStats::default(), "counters restart");
        // Layout-identical: re-serializing reproduces the same bytes, and
        // every key resolves to its original id without new inserts.
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        for i in 0..900u32 {
            let id = intern_words(&mut restored, &mut arena, &[i, i.wrapping_mul(31)]);
            assert_eq!(arena[id as usize], vec![i, i.wrapping_mul(31)]);
        }
        assert_eq!(restored.len(), 900);

        // An empty (never grown) index roundtrips too.
        let empty = CachedHashIndex::new();
        let restored = CachedHashIndex::from_snapshot_bytes(&empty.to_snapshot_bytes()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn snapshot_rejects_inconsistent_payloads() {
        // Capacity that is not a power of two.
        let mut w = crate::snapshot::SnapshotWriter::new(*b"CHIX");
        w.put_usize(0);
        w.put_usize(3);
        for _ in 0..3 {
            w.put_u64(0);
            w.put_u32(EMPTY);
        }
        assert!(matches!(
            CachedHashIndex::from_snapshot_bytes(&w.finish()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
        // Entry count that disagrees with the stored buckets.
        let mut w = crate::snapshot::SnapshotWriter::new(*b"CHIX");
        w.put_usize(2);
        w.put_usize(4);
        for _ in 0..4 {
            w.put_u64(7);
            w.put_u32(EMPTY);
        }
        assert!(matches!(
            CachedHashIndex::from_snapshot_bytes(&w.finish()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn stats_since_diffs_componentwise() {
        let a = IndexStats {
            probes: 10,
            hits: 4,
            hash_skips: 3,
            deep_compares: 5,
            rehashes: 2,
            rehashed_entries: 7,
        };
        let b = IndexStats {
            probes: 4,
            hits: 1,
            hash_skips: 1,
            deep_compares: 2,
            rehashes: 1,
            rehashed_entries: 3,
        };
        let d = a.since(&b);
        assert_eq!(d.probes, 6);
        assert_eq!(d.hits, 3);
        assert_eq!(d.rehashed_entries, 4);
    }
}
