//! Scoped worker pool and deterministic sharded reduction for the state
//! engines.
//!
//! Every parallel section in the workspace follows the same discipline:
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
//! The pool's users are the data-parallel kernels: the per-application
//! profile fan-out of the case study, the dwell-time and settling-surface
//! searches, the co-simulation chains, and the exact slot verifier's
//! successor generation. The searches above them (first-fit, the slot
//! minimizer, the admission cascade) run serially and reach the pool only
//! through the verifier.
//!
//! The pool itself is a lightweight policy object: it owns no threads.
//! Parallel sections run on [`std::thread::scope`], so borrows of the
//! caller's data work without `Arc` and a panicking worker propagates
//! instead of deadlocking. At `threads() == 1` every combinator degrades to
//! a plain serial loop over the same closure — the serial path *is* the
//! parallel path with one shard, so the `parallel` cargo feature no longer
//! needs `cfg` forks at call sites: disabling it merely clamps every pool
//! to one thread.
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

/// A thread-count policy plus the deterministic fork/join combinators the
/// engines are written against.
///
/// Cheap to copy and store per engine; spawns scoped threads only inside a
/// combinator call and only when both `threads() > 1` and the work has more
/// than one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A single-threaded pool: every combinator runs the plain serial loop.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// An explicit thread count, clamped to `1..=`[`MAX_THREADS`]. With the
    /// `parallel` feature disabled the count clamps to 1 regardless.
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: clamp_threads(threads),
        }
    }

    /// Reads `CPS_THREADS`, falling back to the machine parallelism when the
    /// variable is unset or unparsable. With the `parallel` feature disabled
    /// this is always the serial pool.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(default_threads);
        Pool::with_threads(threads)
    }

    /// The effective thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a combinator over `items` work items would actually spawn.
    pub fn is_parallel_for(&self, items: usize) -> bool {
        self.threads > 1 && items > 1
    }

    /// Maps `f` over `0..items`, returning results in index order.
    ///
    /// Items are split into `min(threads, items)` contiguous shards; shard
    /// results are concatenated in shard order, so the output is identical
    /// to the serial `(0..items).map(f).collect()` for any thread count.
    pub fn map_indexed<R, F>(&self, items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(items);
        if workers <= 1 {
            return (0..items).map(f).collect();
        }
        let chunk = items.div_ceil(workers);
        let parts: Vec<Vec<R>> = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let start = w * chunk;
                    let end = ((w + 1) * chunk).min(items);
                    scope.spawn(move || (start..end).map(f).collect::<Vec<R>>())
                })
                .collect();
            handles.into_iter().map(join_worker).collect()
        });
        concat_in_order(parts, items)
    }

    /// Maps `f` over the items of a mutable slice (receiving the global item
    /// index and exclusive access to the item), returning the per-item
    /// results in slice order.
    ///
    /// The slice is split into contiguous chunks via
    /// [`slice::chunks_mut`], one per worker, so each item is visited by
    /// exactly one thread.
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

    /// Splits a mutable slice into one contiguous chunk per worker and runs
    /// `f(chunk_start, chunk)` on each — the shape of row-banded kernels
    /// (e.g. settling-time search) where the worker wants the whole band,
    /// not item-at-a-time dispatch.
    pub fn for_each_chunk<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = items.len();
        let workers = self.threads.min(len);
        if workers <= 1 {
            f(0, items);
            return;
        }
        let chunk = len.div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            for (w, slice) in items.chunks_mut(chunk).enumerate() {
                scope.spawn(move || f(w * chunk, slice));
            }
        });
    }
}

impl Default for Pool {
    /// [`Pool::from_env`] — the policy engines use unless overridden with a
    /// `with_pool` builder.
    fn default() -> Self {
        Pool::from_env()
    }
}

fn clamp_threads(threads: usize) -> usize {
    if cfg!(feature = "parallel") {
        threads.clamp(1, MAX_THREADS)
    } else {
        1
    }
}

fn default_threads() -> usize {
    if cfg!(feature = "parallel") {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        1
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
        assert_eq!(pool.map_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        assert!(!pool.is_parallel_for(100));
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        let wide = Pool::with_threads(4);
        if cfg!(feature = "parallel") {
            assert_eq!(wide.threads(), 4);
            assert_eq!(Pool::with_threads(100_000).threads(), MAX_THREADS);
        } else {
            assert_eq!(wide.threads(), 1);
        }
    }

    #[test]
    fn map_indexed_matches_serial_for_every_thread_count() {
        let serial: Vec<usize> = (0..23).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 4, 8, 23, 64] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.map_indexed(23, |i| i * i + 1), serial, "t={threads}");
        }
        // More workers than items must not produce empty-shard artifacts.
        assert_eq!(Pool::with_threads(8).map_indexed(3, |i| i), vec![0, 1, 2]);
        assert_eq!(
            Pool::with_threads(8).map_indexed(0, |i| i),
            Vec::<usize>::new()
        );
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
    }

    #[test]
    fn for_each_chunk_covers_the_slice_with_correct_offsets() {
        for threads in [1, 2, 4, 16] {
            let pool = Pool::with_threads(threads);
            let mut items = vec![0usize; 29];
            pool.for_each_chunk(&mut items, |start, chunk| {
                for (k, item) in chunk.iter_mut().enumerate() {
                    *item = start + k;
                }
            });
            let expected: Vec<usize> = (0..29).collect();
            assert_eq!(items, expected, "t={threads}");
        }
    }

    #[test]
    fn env_override_is_respected() {
        // Serialized via the env var name being unique to this test binary
        // run; tests in this module run on one process.
        std::env::set_var(THREADS_ENV, "3");
        let pool = Pool::from_env();
        if cfg!(feature = "parallel") {
            assert_eq!(pool.threads(), 3);
        } else {
            assert_eq!(pool.threads(), 1);
        }
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Pool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    fn workers_propagate_panics() {
        let pool = Pool::with_threads(2);
        let result = std::panic::catch_unwind(|| {
            pool.map_indexed(4, |i| {
                assert!(i < 2, "boom");
                i
            })
        });
        if cfg!(feature = "parallel") {
            assert!(result.is_err());
        } else {
            assert!(result.is_err()); // serial loop panics directly
        }
    }
}
