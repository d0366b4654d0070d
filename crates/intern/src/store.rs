//! Crash-safe on-disk rotation for snapshots, with a recovery ladder.
//!
//! The snapshot format ([`crate::snapshot`]) makes corruption *detectable*;
//! this module makes it *survivable*. A [`SnapshotStore`] owns one directory
//! of generation-numbered snapshot files and provides the three guarantees a
//! long-running service needs:
//!
//! * **atomic writes** — every save goes to a temp file first and reaches its
//!   final name via `rename`, so a crash mid-save can tear only the temp
//!   file, never a published generation;
//! * **bounded rotation** — generations are numbered monotonically
//!   (`gen-0000000001.cpsn`, …) and old ones are pruned past a retention
//!   bound, so the store's disk footprint is a constant, not a log;
//! * **a recovery ladder** — [`SnapshotStore::recover`] walks generations
//!   newest-first through a caller-supplied decoder, returns the first one
//!   that decodes ([`Recovery::Loaded`]), and falls through to
//!   [`Recovery::ColdRebuild`] when none does, reporting what was skipped
//!   and why. Corruption is data, not a panic.
//!
//! The store writes exactly the bytes it is given. Tests and soaks inject
//! damage before the save — a torn write truncates the bytes mid-payload, a
//! bit flip corrupts one payload bit — and the damaged generation is
//! *published* (renamed into place) like any other, so the recovery ladder,
//! not luck, has to cope with it.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::SnapshotError;

/// Generations kept on disk by default after a save.
pub const DEFAULT_RETENTION: usize = 3;

const EXTENSION: &str = "cpsn";

/// An I/O failure in the snapshot store, with the operation and path that
/// failed.
#[derive(Debug)]
pub struct StoreError {
    /// Operation that failed (e.g. `"create directory"`, `"rename"`).
    pub op: &'static str,
    /// Path the operation targeted.
    pub path: PathBuf,
    /// Underlying I/O error.
    pub error: io::Error,
}

impl StoreError {
    fn new(op: &'static str, path: &Path, error: io::Error) -> Self {
        StoreError {
            op,
            path: path.to_path_buf(),
            error,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot store failed to {} {}: {}",
            self.op,
            self.path.display(),
            self.error
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Outcome of walking the recovery ladder.
#[derive(Debug)]
pub enum Recovery<T> {
    /// A generation decoded; `skipped` lists newer generations that did not,
    /// with the reason each was rejected.
    Loaded {
        /// Generation number the value was restored from.
        generation: u64,
        /// The decoded value.
        value: T,
        /// Newer generations rejected on the way down, newest first.
        skipped: Vec<(u64, String)>,
    },
    /// No generation decoded; the caller must rebuild from cold state.
    ColdRebuild {
        /// Every generation rejected, newest first.
        skipped: Vec<(u64, String)>,
    },
}

impl<T> Recovery<T> {
    /// The decoded value, if any generation was loaded.
    pub fn value(self) -> Option<T> {
        match self {
            Recovery::Loaded { value, .. } => Some(value),
            Recovery::ColdRebuild { .. } => None,
        }
    }

    /// Generations rejected during the walk, newest first.
    pub fn skipped(&self) -> &[(u64, String)] {
        match self {
            Recovery::Loaded { skipped, .. } | Recovery::ColdRebuild { skipped } => skipped,
        }
    }
}

/// A directory of generation-numbered snapshot files with atomic writes,
/// bounded retention and a newest-first recovery ladder. See the module docs.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    next_gen: u64,
    retain: usize,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store directory and resumes generation
    /// numbering after the newest file already present.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::new("create directory", &dir, e))?;
        let mut store = SnapshotStore {
            dir,
            next_gen: 1,
            retain: DEFAULT_RETENTION,
        };
        if let Some(&newest) = store.generations()?.last() {
            store.next_gen = newest + 1;
        }
        Ok(store)
    }

    /// Sets how many generations a save leaves on disk (clamped to ≥ 1).
    #[must_use]
    pub fn with_retention(mut self, retain: usize) -> Self {
        self.retain = retain.max(1);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of generation `gen` (whether or not it exists).
    pub fn path_of(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("gen-{gen:010}.{EXTENSION}"))
    }

    /// Generation numbers currently on disk, oldest first.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let entries =
            fs::read_dir(&self.dir).map_err(|e| StoreError::new("list directory", &self.dir, e))?;
        let mut gens = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::new("list directory", &self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(&format!(".{EXTENSION}")))
            else {
                continue;
            };
            if let Ok(gen) = stem.parse::<u64>() {
                gens.push(gen);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Saves `bytes` as the next generation: atomic temp+rename, then prunes
    /// generations beyond the retention bound. Returns the generation number.
    pub fn save(&mut self, bytes: &[u8]) -> Result<u64, StoreError> {
        let gen = self.next_gen;
        let tmp = self.dir.join(format!("gen-{gen:010}.tmp"));
        let path = self.path_of(gen);
        fs::write(&tmp, bytes).map_err(|e| StoreError::new("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| StoreError::new("rename", &path, e))?;
        self.next_gen += 1;

        // Prune beyond retention; a failed unlink only leaks a stale file.
        let gens = self.generations()?;
        if gens.len() > self.retain {
            for &old in &gens[..gens.len() - self.retain] {
                let _ = fs::remove_file(self.path_of(old));
            }
        }
        Ok(gen)
    }

    /// Walks the recovery ladder: newest generation first, through `decode`,
    /// stopping at the first success. Unreadable files and decode failures
    /// are recorded (not fatal); only listing the directory can error.
    pub fn recover<T>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<T, SnapshotError>,
    ) -> Result<Recovery<T>, StoreError> {
        let mut skipped = Vec::new();
        for &gen in self.generations()?.iter().rev() {
            let path = self.path_of(gen);
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    skipped.push((gen, format!("read failed: {e}")));
                    continue;
                }
            };
            match decode(&bytes) {
                Ok(value) => {
                    return Ok(Recovery::Loaded {
                        generation: gen,
                        value,
                        skipped,
                    })
                }
                Err(e) => skipped.push((gen, e.to_string())),
            }
        }
        Ok(Recovery::ColdRebuild { skipped })
    }
}
