//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access to crates.io, so this shim
//! provides exactly the subset of rayon's API the workspace uses, with the
//! same semantics:
//!
//! * [`current_num_threads`] / [`current_thread_index`]; outside an
//!   installed pool the count is the machine's parallelism, read once, as
//!   a real global pool fixes its size when it starts;
//! * [`ThreadPoolBuilder`] → [`ThreadPool::install`] (a scoped thread-count
//!   override rather than a persistent pool);
//! * `into_par_iter()` on `Vec<T>` and integer ranges, `par_chunks(n)` on
//!   slices, with `map` / `for_each` / `zip` / `collect`.
//!
//! Fork-join parallelism is real: work is split into one chunk per worker
//! and executed under [`std::thread::scope`]. Chunk results are stitched
//! back in order, so `map().collect()` preserves input order exactly like
//! rayon's indexed parallel iterators. When the effective thread count is 1
//! (or the input is tiny) everything runs inline with zero overhead.
//!
//! * A region entered from inside a worker this shim spawned runs inline on
//!   that worker and keeps its [`current_thread_index`], so nested
//!   parallelism never multiplies OS threads — a real fixed-size rayon pool
//!   never grows past its size either. Top-level regions, single-item
//!   regions and regions under [`ThreadPool::install`] on a non-worker
//!   thread still fork.

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Worker index within a fork-join region, for
    /// [`current_thread_index`].
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set only on threads [`fork_join`] spawned: regions entered there
    /// run inline instead of spawning again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The global pool's size, read on first use. `available_parallelism`
/// reads the affinity mask and cgroup limits on every call: 15–23 µs on a
/// 2-vCPU Linux VM.
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of worker threads parallel operations will use: the installed
/// pool's size, else the global pool's.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(|t| t.get());
    if installed != 0 {
        return installed;
    }
    *GLOBAL_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Index of the current worker inside a parallel region, `None` outside.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|i| i.get())
}

/// Error from [`ThreadPoolBuilder::build`]; never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (ambient) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = ambient parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool": a thread-count override that parallel operations inside
/// [`ThreadPool::install`] observe.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count installed.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let effective = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        let prev = POOL_THREADS.with(|t| t.replace(effective));
        let out = f();
        POOL_THREADS.with(|t| t.set(prev));
        out
    }
}

/// Runs `f` over `items`, split into one contiguous chunk per worker.
/// Returns the per-chunk outputs in chunk order.
fn fork_join<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Vec<T>) -> R + Sync,
{
    if IN_WORKER.with(|w| w.get()) {
        // Nested region: this worker already is the region's parallelism.
        return vec![f(items)];
    }
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        let prev = WORKER_INDEX.with(|i| i.replace(Some(0)));
        let out = vec![f(items)];
        WORKER_INDEX.with(|i| i.set(prev));
        return out;
    }
    let chunks = split_into_chunks(items, threads);
    let pool_threads = POOL_THREADS.with(|t| t.get());
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(idx, chunk)| {
                s.spawn(move || {
                    POOL_THREADS.with(|t| t.set(pool_threads));
                    WORKER_INDEX.with(|i| i.set(Some(idx)));
                    IN_WORKER.with(|w| w.set(true));
                    f(chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect()
    })
}

/// Splits `items` into at most `parts` contiguous non-empty chunks.
fn split_into_chunks<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.min(n).max(1);
    let mut out = Vec::with_capacity(parts);
    // Split off from the back so each drain is O(chunk).
    for p in (1..parts).rev() {
        let cut = (p * n).div_ceil(parts);
        out.push(items.split_off(cut));
    }
    out.push(items);
    out.reverse();
    out
}

/// An in-memory parallel iterator over an ordered set of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        fork_join(self.items, |chunk| {
            for item in chunk {
                f(item);
            }
        });
    }

    /// Maps every item through `f` in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mapped = fork_join(self.items, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        });
        ParIter {
            items: mapped.into_iter().flatten().collect(),
        }
    }

    /// Pairs this iterator with another, element-wise.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Gathers the items into any ordinary collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items in parallel (chunk partials, then a serial fold).
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<T> + std::iter::Sum<S>,
    {
        fork_join(self.items, |chunk| chunk.into_iter().sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Conversion into a [`ParIter`] — the shim's `IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type produced by the iterator.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter {
                    items: self.collect(),
                }
            }
        }
    )*};
}
impl_range_par_iter!(usize, u32, u64, i32, i64);

/// Slice extension providing `par_chunks` — the shim's `ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over contiguous chunks of `chunk_size` items.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(chunk_size.max(1)).collect(),
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `rayon::prelude`.
    pub use super::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, v.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        (0usize..100).into_par_iter().for_each(|x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn zip_pairs_in_order() {
        let a: Vec<usize> = (0..10).collect();
        let b: Vec<usize> = (10..20).collect();
        let sums: Vec<usize> = a
            .into_par_iter()
            .zip(b.into_par_iter())
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(sums, (10..30).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_tiles() {
        let v: Vec<u32> = (0..10).collect();
        let lens: Vec<usize> = v.par_chunks(4).map(|c| c.len()).collect();
        assert_eq!(lens, vec![4, 4, 2]);
    }

    #[test]
    fn install_overrides_thread_count() {
        let n = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap()
            .install(current_num_threads);
        assert_eq!(n, 3);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn global_count_is_read_once_and_install_still_wins() {
        let global = current_num_threads();
        assert_eq!(GLOBAL_THREADS.get(), Some(&global), "cached on first use");
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(global, machine);
        let pool = |n| ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        assert_eq!(pool(3).install(current_num_threads), 3);
        assert_eq!(pool(0).install(current_num_threads), global);
        assert_eq!(
            current_num_threads(),
            global,
            "install restores the global count"
        );
    }

    #[test]
    fn workers_and_their_nested_regions_see_the_pool_count() {
        let seen: Vec<(usize, Vec<usize>)> = with_two_threads(|| {
            (0usize..2)
                .into_par_iter()
                .map(|_| {
                    let nested = (0usize..3).into_par_iter().map(|_| current_num_threads());
                    (current_num_threads(), nested.collect())
                })
                .collect()
        });
        assert_eq!(seen, vec![(2, vec![2; 3]), (2, vec![2; 3])]);
        // Without an installed pool, workers read the cached global count.
        let global = current_num_threads();
        let ambient: Vec<usize> = (0usize..2)
            .into_par_iter()
            .map(|_| current_num_threads())
            .collect();
        assert_eq!(ambient, vec![global; 2]);
    }

    /// Thread ids of the threads a top-level `items`-wide region runs on.
    fn region_thread_ids(items: usize) -> Vec<std::thread::ThreadId> {
        (0..items)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect()
    }

    fn with_two_threads<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn nested_region_runs_inline_on_its_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let checked = AtomicUsize::new(0);
        with_two_threads(|| {
            (0usize..2).into_par_iter().for_each(|_| {
                let outer_id = std::thread::current().id();
                let outer_idx = current_thread_index();
                assert!(outer_idx.is_some());
                let inner: Vec<_> = (0usize..8)
                    .into_par_iter()
                    .map(|_| (std::thread::current().id(), current_thread_index()))
                    .collect();
                assert_eq!(inner.len(), 8);
                for (id, idx) in inner {
                    assert_eq!(id, outer_id, "nested item left its worker");
                    assert_eq!(idx, outer_idx, "nested region lost the worker index");
                }
                checked.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(checked.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn top_level_region_uses_distinct_threads() {
        let ids = with_two_threads(|| region_thread_ids(2));
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "a 2-thread region must fork");
        assert!(!ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn single_item_region_does_not_mark_caller_as_worker() {
        let inner = with_two_threads(|| {
            vec![()]
                .into_par_iter()
                .map(|()| (IN_WORKER.with(|w| w.get()), region_thread_ids(2)))
                .collect::<Vec<_>>()
        });
        let (marked, ids) = &inner[0];
        assert!(!marked, "a single-item region runs on its caller, unmarked");
        assert_ne!(ids[0], ids[1], "a region under it must still fork");
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn split_into_chunks_is_exhaustive() {
        for n in 0..20 {
            for parts in 1..6 {
                let v: Vec<usize> = (0..n).collect();
                let chunks = split_into_chunks(v, parts);
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>());
            }
        }
    }
}
