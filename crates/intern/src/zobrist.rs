//! Zobrist key material: one pseudo-random 64-bit key per
//! `(slot index, code)` pair, combined by XOR into a state fingerprint.
//!
//! The key function is a fixed bijective mixer (the splitmix64 finalizer) of
//! the packed `(slot, code)` pair, so keys need no stored tables to be
//! well-defined — [`ZobristKeys`] merely *caches* them for hot, small code
//! spaces. Determinism across runs and processes is part of the contract:
//! fingerprints recorded in one session (memo snapshots, bench reports)
//! remain comparable in the next.

/// Per-slot key tables are cached up to this many codes; larger codes fall
/// back to [`zobrist_key`] (bit-identical values, just not prefetched).
const TABLE_CAP: usize = 1024;

/// The Zobrist key of `(slot, code)`: the splitmix64 finalizer applied to
/// the packed pair. Bijective in the packed input, so distinct pairs below
/// `2^32` each get a distinct, well-mixed key.
#[inline]
pub fn zobrist_key(slot: usize, code: u32) -> u64 {
    let mut z = (((slot as u64) << 32) | u64::from(code)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Position-sensitive fingerprint of an id sequence: the XOR of
/// `zobrist_key(position, id)` over the sequence. Order matters (the key
/// depends on the position), and extending a sequence by one element is one
/// extra XOR — the incremental update the mapping cascade's probe keys use.
#[inline]
pub fn seq_fingerprint(ids: &[u32]) -> u64 {
    ids.iter()
        .enumerate()
        .fold(0, |fp, (pos, &id)| fp ^ zobrist_key(pos, id))
}

/// Cached Zobrist key material for a fixed slot layout.
///
/// Built once per model from the per-slot code spaces; [`ZobristKeys::key`]
/// serves cached codes from a flat table and computes the rest on the fly,
/// returning exactly [`zobrist_key`] in both cases.
#[derive(Debug, Clone, Default)]
pub struct ZobristKeys {
    tables: Vec<Box<[u64]>>,
}

impl ZobristKeys {
    /// Builds key tables for `code_spaces[slot]` codes per slot, capping each
    /// table at an internal size bound.
    pub fn new(code_spaces: impl IntoIterator<Item = u64>) -> Self {
        let tables = code_spaces
            .into_iter()
            .enumerate()
            .map(|(slot, space)| {
                let len = (space.min(TABLE_CAP as u64)) as usize;
                (0..len)
                    .map(|code| zobrist_key(slot, code as u32))
                    .collect()
            })
            .collect();
        ZobristKeys { tables }
    }

    /// The key of `(slot, code)` — identical to [`zobrist_key`].
    #[inline]
    pub fn key(&self, slot: usize, code: u32) -> u64 {
        match self.tables[slot].get(code as usize) {
            Some(&k) => k,
            None => zobrist_key(slot, code),
        }
    }

    /// From-scratch fingerprint of a full code vector: the XOR of one key per
    /// slot. The incremental path must always agree with this (the engines
    /// `debug_assert` it on every insert).
    pub fn fingerprint(&self, codes: impl IntoIterator<Item = u32>) -> u64 {
        codes
            .into_iter()
            .enumerate()
            .fold(0, |fp, (slot, code)| fp ^ self.key(slot, code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cached_and_stateless_keys_agree() {
        let keys = ZobristKeys::new([4u64, 70_000, 1]);
        assert_eq!(keys.tables.len(), 3);
        for slot in 0..3 {
            for code in [0u32, 1, 3, 1023, 1024, 65_535, 69_999] {
                assert_eq!(keys.key(slot, code), zobrist_key(slot, code));
            }
        }
    }

    #[test]
    fn keys_are_position_sensitive() {
        // Swapping two distinct codes across slots must change the XOR —
        // the property the symmetry sort's XOR-out/in fix relies on.
        let a = zobrist_key(0, 7) ^ zobrist_key(1, 9);
        let b = zobrist_key(0, 9) ^ zobrist_key(1, 7);
        assert_ne!(a, b);
        assert_ne!(zobrist_key(0, 0), zobrist_key(1, 0));
        assert_ne!(zobrist_key(0, 0), zobrist_key(0, 1));
    }

    #[test]
    fn seq_fingerprint_is_incremental_and_order_sensitive() {
        let fp = seq_fingerprint(&[3, 1, 4]);
        assert_eq!(fp, seq_fingerprint(&[3, 1]) ^ zobrist_key(2, 4));
        assert_ne!(fp, seq_fingerprint(&[4, 1, 3]));
        assert_eq!(seq_fingerprint(&[]), 0);
    }

    proptest! {
        // (a) of the hash-soundness checklist, at the key layer: after an
        // arbitrary sequence of in-place code steps and sub-range sorts
        // (the engines' two mutation kinds), the incrementally maintained
        // fingerprint equals the from-scratch hash.
        #[test]
        fn incremental_fingerprint_matches_from_scratch(seed in 0u64..1_000_000) {
            let mut rng = proptest::TestRng::new(seed);
            let n = 2 + rng.next_below(7) as usize;
            let space = 3 + rng.next_below(2000);
            let keys = ZobristKeys::new(std::iter::repeat_n(space, n));
            let mut codes: Vec<u32> =
                (0..n).map(|_| rng.next_below(space) as u32).collect();
            let mut fp = keys.fingerprint(codes.iter().copied());

            for _ in 0..40 {
                if rng.next_below(4) == 0 {
                    // Symmetry-style sort of a random sub-range: XOR out/in
                    // only the slots the sort permutes.
                    let lo = rng.next_below(n as u64) as usize;
                    let hi = lo + rng.next_below((n - lo) as u64 + 1) as usize;
                    let before = codes[lo..hi].to_vec();
                    codes[lo..hi].sort_unstable();
                    for (off, (&old, &new)) in
                        before.iter().zip(&codes[lo..hi]).enumerate()
                    {
                        if old != new {
                            fp ^= keys.key(lo + off, old) ^ keys.key(lo + off, new);
                        }
                    }
                } else {
                    // An in-place cell step.
                    let slot = rng.next_below(n as u64) as usize;
                    let new = rng.next_below(space) as u32;
                    if new != codes[slot] {
                        fp ^= keys.key(slot, codes[slot]) ^ keys.key(slot, new);
                        codes[slot] = new;
                    }
                }
                prop_assert_eq!(fp, keys.fingerprint(codes.iter().copied()));
            }
        }
    }
}
