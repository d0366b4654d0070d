//! Bounded transposition table with two-way replacement.

use crate::snapshot::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};

/// Work counters of a [`TwoWayTranspositionTable`], cumulative over its
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TtStats {
    /// Lookup probes performed.
    pub lookups: usize,
    /// Lookups answered from a stored entry (exact key match).
    pub hits: usize,
    /// Entries stored (fresh or overwriting a matching key).
    pub stores: usize,
    /// Stored entries dropped to make room — the boundedness at work.
    pub evictions: usize,
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    fingerprint: u64,
    depth: u32,
    key: K,
    value: V,
}

/// A bounded verdict cache keyed by a 64-bit fingerprint, with the classic
/// two-way replacement scheme: each bucket holds a *depth-preferred* way
/// (kept while incoming entries are shallower) and an *always-replace* way
/// (overwritten freely), so expensive deep results survive floods of cheap
/// shallow ones while recent results stay reachable.
///
/// Entries carry their full key next to the fingerprint and a lookup only
/// returns on an exact key match — a fingerprint collision costs a compare,
/// never a wrong value. Replacing the unbounded memo maps with this table
/// therefore bounds memory without changing any verdict; evicted entries are
/// simply recomputed on their next miss.
#[derive(Debug)]
pub struct TwoWayTranspositionTable<K, V> {
    /// `2 * buckets` ways, bucket `b` occupying slots `2b` (depth-preferred)
    /// and `2b + 1` (always-replace).
    ways: Vec<Option<Entry<K, V>>>,
    bucket_mask: u64,
    stats: TtStats,
}

impl<K: Eq, V> TwoWayTranspositionTable<K, V> {
    /// Creates a table with `buckets` two-way buckets, rounded up to a power
    /// of two (minimum 1). Capacity is `2 × buckets` entries, fixed for the
    /// table's lifetime.
    pub fn new(buckets: usize) -> Self {
        let buckets = buckets.max(1).next_power_of_two();
        let mut ways = Vec::new();
        ways.resize_with(buckets * 2, || None);
        TwoWayTranspositionTable {
            ways,
            bucket_mask: (buckets - 1) as u64,
            stats: TtStats::default(),
        }
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> &TtStats {
        &self.stats
    }

    fn bucket_base(&self, fingerprint: u64) -> usize {
        ((fingerprint & self.bucket_mask) as usize) * 2
    }

    /// Looks `key` up under `fingerprint`; returns the stored value only on
    /// an exact key match.
    pub fn get(&mut self, fingerprint: u64, key: &K) -> Option<&V> {
        self.stats.lookups += 1;
        let base = self.bucket_base(fingerprint);
        for way in base..base + 2 {
            if let Some(entry) = &self.ways[way] {
                if entry.fingerprint == fingerprint && entry.key == *key {
                    self.stats.hits += 1;
                    return self.ways[way].as_ref().map(|e| &e.value);
                }
            }
        }
        None
    }

    /// Stores `value` for `key` under `fingerprint`. `depth` orders entries
    /// by how expensive they were to compute: the depth-preferred way keeps
    /// the deepest entry seen for its bucket, everything else falls through
    /// to the always-replace way.
    pub fn insert(&mut self, fingerprint: u64, depth: u32, key: K, value: V) {
        self.stats.stores += 1;
        let base = self.bucket_base(fingerprint);
        // An existing entry for the same key is updated in place.
        for way in base..base + 2 {
            if let Some(entry) = &mut self.ways[way] {
                if entry.fingerprint == fingerprint && entry.key == key {
                    entry.depth = depth;
                    entry.value = value;
                    return;
                }
            }
        }
        let entry = Entry {
            fingerprint,
            depth,
            key,
            value,
        };
        let preferred = &mut self.ways[base];
        match preferred {
            Some(held) if held.depth > depth => {
                // The preferred way holds a deeper result; the newcomer goes
                // to the always-replace way.
                if self.ways[base + 1].replace(entry).is_some() {
                    self.stats.evictions += 1;
                }
            }
            _ => {
                // The newcomer takes the preferred way; a displaced holder
                // falls to the always-replace way rather than vanishing.
                if let Some(displaced) = preferred.replace(entry) {
                    if self.ways[base + 1].replace(displaced).is_some() {
                        self.stats.evictions += 1;
                    }
                }
            }
        }
    }
}

impl<K: Eq + Persist, V: Persist> TwoWayTranspositionTable<K, V> {
    /// Writes the table into a snapshot payload, way positions and
    /// replacement depths included, so the restored table hits, misses,
    /// displaces and evicts exactly like the saved one would have. Work
    /// counters are not persisted — a restored table counts from zero.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.ways.len() / 2);
        for way in &self.ways {
            match way {
                None => w.put_bool(false),
                Some(entry) => {
                    w.put_bool(true);
                    w.put_u64(entry.fingerprint);
                    w.put_u32(entry.depth);
                    entry.key.persist(w);
                    entry.value.persist(w);
                }
            }
        }
    }

    /// Reads a table previously written by
    /// [`TwoWayTranspositionTable::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Propagates payload truncation or a non-power-of-two bucket count.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let buckets = r.take_usize()?;
        if !buckets.is_power_of_two() {
            return Err(SnapshotError::Corrupt {
                reason: format!("transposition table bucket count {buckets} is not a power of two"),
            });
        }
        let capacity = buckets
            .checked_mul(2)
            .ok_or_else(|| SnapshotError::Corrupt {
                reason: "transposition table bucket count overflows".to_string(),
            })?;
        let mut ways = Vec::with_capacity(capacity.min(1 << 24));
        for _ in 0..capacity {
            let way = if r.take_bool()? {
                Some(Entry {
                    fingerprint: r.take_u64()?,
                    depth: r.take_u32()?,
                    key: K::restore(r)?,
                    value: V::restore(r)?,
                })
            } else {
                None
            };
            ways.push(way);
        }
        Ok(TwoWayTranspositionTable {
            ways,
            bucket_mask: (buckets - 1) as u64,
            stats: TtStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames a table the way a containing snapshot section does.
    fn encode<K: Eq + Persist, V: Persist>(tt: &TwoWayTranspositionTable<K, V>) -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TWTT");
        tt.write_snapshot(&mut w);
        w.finish()
    }

    fn decode<K: Eq + Persist, V: Persist>(
        bytes: &[u8],
    ) -> Result<TwoWayTranspositionTable<K, V>, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, *b"TWTT")?;
        let tt = TwoWayTranspositionTable::read_snapshot(&mut r)?;
        r.finish()?;
        Ok(tt)
    }

    /// Number of entries stored.
    fn stored<K, V>(tt: &TwoWayTranspositionTable<K, V>) -> usize {
        tt.ways.iter().flatten().count()
    }

    #[test]
    fn stores_and_retrieves_on_exact_key_match() {
        let mut tt: TwoWayTranspositionTable<Vec<u32>, bool> = TwoWayTranspositionTable::new(8);
        assert_eq!(stored(&tt), 0);
        tt.insert(42, 3, vec![1, 2, 3], true);
        assert_eq!(tt.get(42, &vec![1, 2, 3]), Some(&true));
        assert_eq!(
            tt.get(42, &vec![9, 9, 9]),
            None,
            "fingerprint collision must miss"
        );
        assert_eq!(tt.get(43, &vec![1, 2, 3]), None);
        assert_eq!(tt.stats().hits, 1);
        assert_eq!(tt.stats().lookups, 3);
    }

    #[test]
    fn updates_in_place_without_duplicating() {
        let mut tt: TwoWayTranspositionTable<u32, u32> = TwoWayTranspositionTable::new(4);
        tt.insert(7, 1, 7, 10);
        tt.insert(7, 2, 7, 20);
        assert_eq!(stored(&tt), 1);
        assert_eq!(tt.get(7, &7), Some(&20));
    }

    #[test]
    fn depth_preferred_way_survives_shallow_floods() {
        // One bucket: every insert lands in the same two ways.
        let mut tt: TwoWayTranspositionTable<u32, u32> = TwoWayTranspositionTable::new(1);
        tt.insert(0, 9, 100, 1);
        for i in 0..10 {
            tt.insert(u64::from(i) << 1, 1, i, 0);
        }
        assert_eq!(
            tt.get(0, &100),
            Some(&1),
            "the deep entry must survive in the depth-preferred way"
        );
        assert!(tt.stats().evictions > 0, "the shallow flood must evict");
        assert_eq!(tt.ways.len(), 2);
    }

    #[test]
    fn deeper_entries_displace_into_the_second_way() {
        let mut tt: TwoWayTranspositionTable<u32, u32> = TwoWayTranspositionTable::new(1);
        tt.insert(0, 1, 1, 10);
        tt.insert(0, 5, 2, 20);
        // The deeper entry took the preferred way; the shallow one fell to
        // the always-replace way — both still reachable.
        assert_eq!(tt.get(0, &1), Some(&10));
        assert_eq!(tt.get(0, &2), Some(&20));
        assert_eq!(tt.stats().evictions, 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_way_layout_and_replacement_state() {
        let mut tt: TwoWayTranspositionTable<Vec<u32>, bool> = TwoWayTranspositionTable::new(4);
        for i in 0..20u32 {
            tt.insert(u64::from(i) * 0x9E37, i % 5, vec![i, i + 1], i % 2 == 0);
        }
        let bytes = encode(&tt);
        let mut restored: TwoWayTranspositionTable<Vec<u32>, bool> = decode(&bytes).unwrap();
        assert_eq!(restored.ways.len(), tt.ways.len());
        assert_eq!(stored(&restored), stored(&tt));
        assert_eq!(restored.stats(), &TtStats::default(), "counters restart");
        // Way-for-way identical: re-serializing reproduces the same bytes,
        // and every surviving entry answers exactly as in the original.
        assert_eq!(encode(&restored), bytes);
        for i in 0..20u32 {
            let key = vec![i, i + 1];
            let fp = u64::from(i) * 0x9E37;
            assert_eq!(restored.get(fp, &key).copied(), tt.get(fp, &key).copied());
        }
    }

    #[test]
    fn snapshot_rejects_a_non_power_of_two_bucket_count() {
        let mut w = crate::snapshot::SnapshotWriter::new(*b"TWTT");
        w.put_usize(3);
        assert!(matches!(
            decode::<u32, bool>(&w.finish()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn bucket_count_rounds_up_to_a_power_of_two() {
        let tt: TwoWayTranspositionTable<u32, u32> = TwoWayTranspositionTable::new(5);
        assert_eq!(tt.ways.len(), 16);
        let tt: TwoWayTranspositionTable<u32, u32> = TwoWayTranspositionTable::new(0);
        assert_eq!(tt.ways.len(), 2);
    }
}
