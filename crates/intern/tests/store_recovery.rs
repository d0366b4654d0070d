//! Corruption fuzzing and recovery-ladder tests for the snapshot store.
//!
//! The fault-tolerance contract under test: *any* single-bit flip or
//! truncation of a serialized snapshot yields a typed [`SnapshotError`] —
//! never a panic — and a store whose newest generation is damaged recovers
//! from the previous good one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cps_fault::{FaultPlan, FaultSite};
use cps_intern::snapshot::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use cps_intern::store::{Recovery, SnapshotStore, DEFAULT_RETENTION};
use proptest::prelude::*;

const KIND: [u8; 4] = *b"TSTR";

/// A unique scratch directory per call; best-effort removed by `Scratch`'s
/// `Drop` so reruns never see stale generations.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cps-store-{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A representative sectioned snapshot: two CRC-framed sections holding a
/// tagged value, mirroring how the cascade persists its components.
fn encode(value: u64) -> Vec<u8> {
    let mut w = SnapshotWriter::new(KIND);
    w.begin_section(*b"HEAD");
    value.persist(&mut w);
    w.end_section();
    w.begin_section(*b"BODY");
    vec![value, value ^ 0xFFFF, 3].persist(&mut w);
    "payload".to_string().persist(&mut w);
    w.end_section();
    w.finish()
}

fn decode(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let mut r = SnapshotReader::open(bytes, KIND)?;
    r.enter_section(*b"HEAD")?;
    let value = u64::restore(&mut r)?;
    r.exit_section()?;
    r.enter_section(*b"BODY")?;
    let echo = Vec::<u64>::restore(&mut r)?;
    let tag = String::restore(&mut r)?;
    r.exit_section()?;
    r.finish()?;
    if echo.first() != Some(&value) || tag != "payload" {
        return Err(SnapshotError::Corrupt {
            reason: "decoded fields disagree".to_string(),
        });
    }
    Ok(value)
}

proptest! {
    // Every single-bit flip of a valid snapshot is rejected with a typed
    // error, never a panic and never a silently-wrong decode.
    #[test]
    fn any_bit_flip_is_rejected(value in 0u64..u64::MAX, bit in 0usize..2048) {
        let bytes = encode(value);
        let bit = bit % (bytes.len() * 8);
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode(&damaged).is_err());
    }

    // Every truncation of a valid snapshot is rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(value in 0u64..u64::MAX, cut in 0usize..2048) {
        let bytes = encode(value);
        let cut = cut % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    // With the newest on-disk generation corrupted, the ladder lands on the
    // previous good generation and reports the rejected one.
    #[test]
    fn ladder_lands_on_previous_good_generation(
        seed in 0u64..u64::MAX,
        bit in 0usize..2048,
    ) {
        let scratch = Scratch::new("ladder");
        let mut store = SnapshotStore::open(&scratch.0).unwrap();
        let good = store.save(&encode(seed)).unwrap();
        let newest = store.save(&encode(seed ^ 1)).unwrap();

        // Corrupt the newest generation in place.
        let path = store.path_of(newest);
        let mut bytes = std::fs::read(&path).unwrap();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();

        match store.recover(decode).unwrap() {
            Recovery::Loaded { generation, value, skipped } => {
                prop_assert_eq!(generation, good);
                prop_assert_eq!(value, seed);
                prop_assert_eq!(skipped.len(), 1);
                prop_assert_eq!(skipped[0].0, newest);
            }
            Recovery::ColdRebuild { .. } => prop_assert!(false, "previous generation was good"),
        }
    }
}

#[test]
fn clean_store_recovers_newest_generation() {
    let scratch = Scratch::new("clean");
    let mut store = SnapshotStore::open(&scratch.0).unwrap();
    for v in 1..=3u64 {
        store.save(&encode(v)).unwrap();
    }
    match store.recover(decode).unwrap() {
        Recovery::Loaded { value, skipped, .. } => {
            assert_eq!(value, 3);
            assert!(skipped.is_empty());
        }
        Recovery::ColdRebuild { .. } => panic!("store has good generations"),
    }
}

#[test]
fn empty_store_reports_cold_rebuild() {
    let scratch = Scratch::new("empty");
    let store = SnapshotStore::open(&scratch.0).unwrap();
    match store.recover(decode).unwrap() {
        Recovery::ColdRebuild { skipped } => assert!(skipped.is_empty()),
        Recovery::Loaded { .. } => panic!("store is empty"),
    }
}

#[test]
fn every_generation_corrupt_falls_through_to_cold_rebuild() {
    let scratch = Scratch::new("cold");
    let mut store = SnapshotStore::open(&scratch.0).unwrap();
    for v in 1..=2u64 {
        let gen = store.save(&encode(v)).unwrap();
        let path = store.path_of(gen);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X'; // break the magic
        std::fs::write(&path, &bytes).unwrap();
    }
    match store.recover(decode).unwrap() {
        Recovery::ColdRebuild { skipped } => {
            assert_eq!(skipped.len(), 2);
            for (_, reason) in &skipped {
                assert!(!reason.is_empty());
            }
        }
        Recovery::Loaded { .. } => panic!("every generation is corrupt"),
    }
}

#[test]
fn retention_prunes_old_generations() {
    let scratch = Scratch::new("retain");
    let mut store = SnapshotStore::open(&scratch.0).unwrap().with_retention(2);
    for v in 1..=5u64 {
        store.save(&encode(v)).unwrap();
    }
    assert_eq!(store.generations().unwrap(), vec![4, 5]);
    assert_eq!(DEFAULT_RETENTION, 3);
}

#[test]
fn numbering_resumes_after_reopen() {
    let scratch = Scratch::new("reopen");
    {
        let mut store = SnapshotStore::open(&scratch.0).unwrap();
        store.save(&encode(1)).unwrap();
        store.save(&encode(2)).unwrap();
    }
    let mut store = SnapshotStore::open(&scratch.0).unwrap();
    let gen = store.save(&encode(3)).unwrap();
    assert_eq!(gen, 3);
    assert_eq!(store.generations().unwrap(), vec![1, 2, 3]);
}

#[test]
fn injected_torn_writes_and_bit_flips_are_survived() {
    let scratch = Scratch::new("faulty");
    let mut store = SnapshotStore::open(&scratch.0).unwrap().with_retention(8);
    let mut plan = FaultPlan::seeded(0xFA17)
        .with_rate(FaultSite::SnapshotTornWrite, 300)
        .with_rate(FaultSite::SnapshotBitFlip, 300);

    let mut last_clean: Option<(u64, u64)> = None;
    for v in 1..=16u64 {
        let before = plan.stats().total_injected();
        let gen = store.save(&plan.damage(encode(v))).unwrap();
        if plan.stats().total_injected() == before {
            last_clean = Some((gen, v));
        }
    }
    let stats = plan.stats();
    assert!(
        stats.injected(FaultSite::SnapshotTornWrite) > 0
            && stats.injected(FaultSite::SnapshotBitFlip) > 0,
        "the storm must actually fire at this seed"
    );
    let (clean_gen, clean_value) = last_clean.expect("some save escaped the storm at this seed");

    match store.recover(decode).unwrap() {
        Recovery::Loaded {
            generation, value, ..
        } => {
            assert_eq!(generation, clean_gen);
            assert_eq!(value, clean_value);
        }
        Recovery::ColdRebuild { .. } => panic!("a clean generation exists"),
    }
}
