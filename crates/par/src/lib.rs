//! Scoped worker pool and deterministic sharded reduction for the exact
//! slot verifier.
//!
//! The verifier's parallel section follows this discipline:
//!
//! 1. **Shard deterministically.** Work is split into contiguous index
//!    ranges (never work-stealing), so the assignment of items to workers
//!    depends only on the item count and the thread count — not on timing.
//! 2. **Compute into per-worker buffers.** Workers never share mutable
//!    state; each produces a plain value (or fills its own slice chunk).
//! 3. **Reduce in index order.** Results are stitched back in the original
//!    item order before any id is assigned or any float is accumulated —
//!    which is what makes verdicts, witnesses, interned ids and statistics
//!    **bit-identical under any thread count**.
//!
//! The pool's one user is the exact slot verifier's successor staging. The
//! searches above it (first-fit, the slot minimizer, the admission cascade)
//! run serially and reach the pool only through the verifier; the dwell
//! search and the case-study profiles run on the caller's thread.
//!
//! The pool itself is a lightweight policy object: it owns no threads.
//! Parallel sections run on [`std::thread::scope`], so borrows of the
//! caller's data work without `Arc` and a panicking worker propagates
//! instead of deadlocking. At `threads() == 1` [`Pool::map_mut`] degrades to
//! a plain serial loop over the same closure — the serial path *is* the
//! parallel path with one shard, so the caller keeps no serial fork.
//!
//! Thread-count selection, in priority order:
//!
//! 1. explicit builder: [`Pool::with_threads`];
//! 2. the `CPS_THREADS` environment variable ([`Pool::from_env`]);
//! 3. [`std::thread::available_parallelism`].

/// Name of the environment variable consulted by [`Pool::from_env`].
pub const THREADS_ENV: &str = "CPS_THREADS";

/// Upper bound on the thread count; guards against typos in `CPS_THREADS`
/// spawning thousands of scoped threads per section.
pub const MAX_THREADS: usize = 256;

/// A thread-count policy plus the deterministic fork/join combinator the
/// verifier is written against.
///
/// Cheap to copy and store per engine; spawns scoped threads only inside
/// [`Pool::map_mut`] and only when both `threads() > 1` and the work has more
/// than one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A single-threaded pool: [`Pool::map_mut`] runs the plain serial loop.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// An explicit thread count, clamped to `1..=`[`MAX_THREADS`].
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// Reads `CPS_THREADS`, falling back to the machine parallelism when the
    /// variable is unset or unparsable.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Pool::with_threads(threads)
    }

    /// The effective thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over the items of a mutable slice (receiving the global item
    /// index and exclusive access to the item), returning the per-item
    /// results in slice order.
    ///
    /// The slice is split into `min(threads, len)` contiguous chunks via
    /// [`slice::chunks_mut`], one per worker, so each item is visited by
    /// exactly one thread; chunk results are concatenated in chunk order, so
    /// the output is identical to the serial loop's for any thread count.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let len = items.len();
        let workers = self.threads.min(len);
        if workers <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let chunk = len.div_ceil(workers);
        let parts: Vec<Vec<R>> = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(w, slice)| {
                    scope.spawn(move || {
                        slice
                            .iter_mut()
                            .enumerate()
                            .map(|(i, item)| f(w * chunk + i, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            handles.into_iter().map(join_worker).collect()
        });
        concat_in_order(parts, len)
    }
}

impl Default for Pool {
    /// [`Pool::from_env`] — the policy engines use unless overridden with a
    /// `with_pool` builder.
    fn default() -> Self {
        Pool::from_env()
    }
}

fn join_worker<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn concat_in_order<R>(parts: Vec<Vec<R>>, len: usize) -> Vec<R> {
    let mut out = Vec::with_capacity(len);
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_maps_in_order() {
        let pool = Pool::serial();
        assert_eq!(pool.threads(), 1);
        let mut items = [5, 6, 7, 8, 9];
        assert_eq!(
            pool.map_mut(&mut items, |i, item| i * *item),
            vec![0, 6, 14, 24, 36]
        );
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(4).threads(), 4);
        assert_eq!(Pool::with_threads(100_000).threads(), MAX_THREADS);
    }

    #[test]
    fn map_mut_visits_each_item_once_in_order() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::with_threads(threads);
            let mut items: Vec<u32> = (0..13).collect();
            let results = pool.map_mut(&mut items, |i, item| {
                *item += 100;
                (i, *item)
            });
            let expected: Vec<(usize, u32)> = (0..13).map(|i| (i, i as u32 + 100)).collect();
            assert_eq!(results, expected, "t={threads}");
            assert!(items.iter().all(|&v| v >= 100));
        }
        // More workers than items must not produce empty-shard artifacts.
        let pool = Pool::with_threads(8);
        assert_eq!(pool.map_mut(&mut [7u8, 8, 9], |i, _| i), vec![0, 1, 2]);
        assert_eq!(pool.map_mut(&mut [0u8; 0], |i, _| i), Vec::<usize>::new());
    }

    #[test]
    fn env_override_is_respected() {
        // Serialized via the env var name being unique to this test binary
        // run; tests in this module run on one process.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Pool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Pool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    fn workers_propagate_panics() {
        let pool = Pool::with_threads(2);
        let mut items = [0u32; 4];
        let result = std::panic::catch_unwind(move || {
            pool.map_mut(&mut items, |i, _| {
                assert!(i < 2, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
