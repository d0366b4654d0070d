//! The retained naive slot minimizer — the semantic oracle
//! [`crate::MapExplorerEngine::minimize_slots`] is pinned to.
//!
//! Enumerates set partitions of the fleet exhaustively (restricted-growth
//! recursion: application `p` joins an existing block or opens the next
//! one), in order of increasing block count, and returns the first partition
//! all of whose blocks the admission oracle accepts. No memoization, no
//! screening, no bounding — every block of every candidate partition is
//! re-checked from scratch, which is exactly the redundancy the explorer
//! engine removes.
//!
//! Applications are considered in the canonical first-fit order
//! ([`crate::sort_for_first_fit`]), so block member arrangements match the
//! probes of [`crate::first_fit()`] and of the engine — the admission verdict
//! of a block is arrangement-sensitive only across distinct profiles (the
//! scheduler's index tie-break), and keeping one canonical arrangement makes
//! engine and reference verdicts directly comparable. Singleton blocks are
//! admissible by construction and are not queried, mirroring the first-fit
//! heuristic.

use cps_core::AppTimingProfile;
use cps_verify::VerifyError;

use crate::first_fit::sort_for_first_fit;
use crate::oracle::SlotOracle;

/// Exhaustively finds a partition with the minimal number of slots such that
/// every slot passes the admission oracle.
///
/// Returns the first minimal partition in enumeration order: blocks ordered
/// by their first member, members in canonical first-fit order — the same
/// canonical shape as [`crate::MapExplorerEngine::minimize_slots`].
///
/// # Errors
///
/// Propagates oracle failures (e.g. an exhausted verification budget).
pub fn minimize_slots(
    profiles: &[AppTimingProfile],
    oracle: &dyn SlotOracle,
) -> Result<Vec<Vec<usize>>, VerifyError> {
    let order = sort_for_first_fit(profiles);
    if order.is_empty() {
        return Ok(Vec::new());
    }
    for target in 1..=order.len() {
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        if let Some(partition) = place(profiles, oracle, &order, 0, target, &mut blocks)? {
            return Ok(partition);
        }
    }
    unreachable!("the all-singletons partition is always admissible")
}

/// Tries every assignment of `order[pos..]` into at most `target` blocks;
/// returns the first complete partition whose blocks all pass the oracle.
fn place(
    profiles: &[AppTimingProfile],
    oracle: &dyn SlotOracle,
    order: &[usize],
    pos: usize,
    target: usize,
    blocks: &mut Vec<Vec<usize>>,
) -> Result<Option<Vec<Vec<usize>>>, VerifyError> {
    if pos == order.len() {
        // Naively re-check every multi-member block of the completed
        // partition (single members are admissible by construction).
        for block in blocks.iter() {
            if block.len() > 1 && !oracle.admits_indices(profiles, block)? {
                return Ok(None);
            }
        }
        return Ok(Some(blocks.clone()));
    }
    let app = order[pos];
    for b in 0..blocks.len() {
        blocks[b].push(app);
        let found = place(profiles, oracle, order, pos + 1, target, blocks)?;
        blocks[b].pop();
        if found.is_some() {
            return Ok(found);
        }
    }
    if blocks.len() < target {
        blocks.push(vec![app]);
        let found = place(profiles, oracle, order, pos + 1, target, blocks)?;
        blocks.pop();
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ModelCheckingOracle;
    use cps_core::DwellTimeTable;
    use cps_verify::VerifyError;

    fn profile(name: &str, max_wait: usize, dwell: usize) -> AppTimingProfile {
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell; max_wait + 1],
            vec![dwell; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, dwell, jstar + 5, jstar, jstar + 10, table).unwrap()
    }

    /// An oracle admitting at most `capacity` applications per slot.
    struct CapacityOracle {
        capacity: usize,
    }

    impl SlotOracle for CapacityOracle {
        fn admits_indices(
            &self,
            _profiles: &[AppTimingProfile],
            members: &[usize],
        ) -> Result<bool, VerifyError> {
            Ok(members.len() <= self.capacity)
        }
        fn name(&self) -> &str {
            "capacity"
        }
    }

    #[test]
    fn capacity_oracle_minimum_is_the_ceiling() {
        let profiles: Vec<AppTimingProfile> = (0..5)
            .map(|i| profile(&format!("P{i}"), 5 + i, 3))
            .collect();
        let partition = minimize_slots(&profiles, &CapacityOracle { capacity: 2 }).unwrap();
        assert_eq!(partition.len(), 3); // ceil(5 / 2)
        let mut all: Vec<usize> = partition.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_fleets() {
        assert!(minimize_slots(&[], &CapacityOracle { capacity: 1 })
            .unwrap()
            .is_empty());
        let one = [profile("A", 5, 3)];
        assert_eq!(
            minimize_slots(&one, &CapacityOracle { capacity: 1 }).unwrap(),
            vec![vec![0]]
        );
    }

    #[test]
    fn model_checking_oracle_splits_incompatible_applications() {
        // A cannot wait at all, so it needs a dedicated slot; B and C share.
        let fleet = [profile("A", 0, 5), profile("B", 10, 3), profile("C", 10, 3)];
        let partition = minimize_slots(&fleet, &ModelCheckingOracle::new()).unwrap();
        assert_eq!(partition.len(), 2);
        // A is alone in its slot.
        assert!(partition.iter().any(|block| block == &vec![0]));

        // Two zero-wait applications force three slots: neither can ever
        // share with an occupant of any kind.
        let rigid = [profile("A", 0, 5), profile("B", 0, 5), profile("C", 10, 3)];
        let partition = minimize_slots(&rigid, &ModelCheckingOracle::new()).unwrap();
        assert_eq!(partition.len(), 3);
    }
}
