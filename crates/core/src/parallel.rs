//! Column partitioning and parallel-driver plumbing (§III-A of the paper).
//!
//! All SpKAdd algorithms parallelize the same way: columns of the output
//! are independent, so column *ranges* are distributed over threads with no
//! synchronization. What distinguishes a good driver is load balance: for
//! skewed (RMAT-like) inputs, equal column counts per thread are terrible
//! because a few columns carry most of the nonzeros. The paper balances by
//! total input nonzeros per column in the symbolic phase, and by output
//! nonzeros per column in the numeric phase; [`weighted_ranges`] implements
//! that policy, and [`Scheduling`] selects between it and the naive static
//! split (kept for the ablation study).

use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How columns are assigned to parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Equal *column counts* per task, one task per thread. This is the
    /// baseline the paper's §III-A warns about for skewed matrices.
    Static,
    /// Weight-balanced ranges, `chunks_per_thread` tasks per thread — the
    /// paper's dynamic policy. There is no work stealing: the rayon shim
    /// hands each worker one contiguous share of the ranges, so the
    /// weights even out the work but a late or preempted worker still
    /// delays the phase. A plan's zero-allocation steady state relies on
    /// that fixed split (see [`crate::workspace::WorkspacePool`]).
    Dynamic {
        /// Over-decomposition factor (tasks per thread). 8 is a good
        /// default: fine enough to balance skewed weights, coarse enough
        /// to amortize workspace setup.
        chunks_per_thread: usize,
    },
}

impl Default for Scheduling {
    fn default() -> Self {
        Scheduling::Dynamic {
            chunks_per_thread: 8,
        }
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal size.
pub fn equal_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    if n == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    (0..parts)
        .map(|p| (p * n / parts)..((p + 1) * n / parts))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Splits `0..weights.len()` into at most `parts` contiguous ranges whose
/// weight sums are approximately equal (greedy prefix cut at the running
/// target). Zero-weight prefixes/suffixes fold into neighbouring ranges.
pub fn weighted_ranges(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let parts = parts.max(1).min(n);
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    if total == 0 {
        return equal_ranges(n, parts);
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut cut = 1u64;
    for (j, &w) in weights.iter().enumerate() {
        acc += w as u64;
        // Cut when the running sum crosses the next 1/parts quantile.
        while cut < parts as u64 && acc * parts as u64 >= cut * total {
            // Close the current range after column j unless it would be
            // empty (several quantiles inside one heavy column).
            if j + 1 > start {
                out.push(start..j + 1);
                start = j + 1;
            }
            cut += 1;
        }
    }
    if start < n {
        out.push(start..n);
    } else if out.is_empty() {
        out.push(0..n);
    }
    debug_assert_eq!(out.first().unwrap().start, 0);
    debug_assert_eq!(out.last().unwrap().end, n);
    debug_assert!(out.windows(2).all(|w| w[0].end == w[1].start));
    out
}

/// Produces the task ranges for a phase given its per-column weights.
pub fn plan_ranges(weights: &[usize], threads: usize, sched: Scheduling) -> Vec<Range<usize>> {
    let threads = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    match sched {
        Scheduling::Static => equal_ranges(weights.len(), threads),
        Scheduling::Dynamic { chunks_per_thread } => {
            weighted_ranges(weights, threads * chunks_per_thread.max(1))
        }
    }
}

/// Exclusive prefix sum: turns per-column counts into a CSC column-pointer
/// array of length `counts.len() + 1`.
pub fn exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    exclusive_prefix_sum_into(counts, &mut out);
    out
}

/// [`exclusive_prefix_sum`] into a caller-provided vector, reusing its
/// capacity (the plan/execute steady-state path recycles column pointers
/// this way).
pub fn exclusive_prefix_sum_into(counts: &[usize], out: &mut Vec<usize>) {
    out.clear();
    out.reserve(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
}

/// Splits a per-column slice into one window per range: window `i` is
/// `slice[ranges[i]]`. The ranges must tile `0..slice.len()` in order, as
/// [`plan_ranges`] produces them; each task then writes its own columns'
/// counts with no synchronization. Not generic, so it compiles once, here
/// (see `claim_each`).
pub fn split_per_range<'a>(
    mut slice: &'a mut [usize],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [usize]> {
    let mut out = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = slice.split_at_mut(r.len());
        out.push(head);
        slice = tail;
    }
    debug_assert!(slice.is_empty(), "ranges must tile the slice");
    out
}

/// A task's mutable window into the output arrays: the columns `cols`,
/// whose entries live at `colptr[j] - base` within `rows`/`vals`.
pub struct OutChunk<'a, T> {
    /// Column range owned by this task.
    pub cols: Range<usize>,
    /// Global entry offset of `cols.start` (i.e. `colptr[cols.start]`).
    pub base: usize,
    /// This task's slice of the output row-index array.
    pub rows: &'a mut [u32],
    /// This task's slice of the output value array.
    pub vals: &'a mut [T],
}

/// Splits the output arrays into per-task disjoint windows. The windows
/// are handed to rayon tasks; because they never overlap, the numeric
/// phase writes the shared output with no synchronization — the paper's
/// "no thread synchronization" property.
pub fn split_output<'a, T>(
    colptr: &[usize],
    ranges: &[Range<usize>],
    mut rows: &'a mut [u32],
    mut vals: &'a mut [T],
) -> Vec<OutChunk<'a, T>> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        let base = colptr[r.start];
        let end = colptr[r.end];
        debug_assert_eq!(base, consumed, "ranges must tile the columns in order");
        let take = end - base;
        let (rh, rt) = rows.split_at_mut(take);
        let (vh, vt) = vals.split_at_mut(take);
        rows = rt;
        vals = vt;
        consumed = end;
        out.push(OutChunk {
            cols: r.clone(),
            base,
            rows: rh,
            vals: vh,
        });
    }
    out
}

/// Maps `items` through `f` on the current pool's workers and returns the
/// results in item order. Workers claim items one at a time from a shared
/// queue instead of taking one contiguous share each, so a worker that
/// starts late or is preempted hands its unclaimed items to the others
/// and delays the region by at most the item it holds.
pub(crate) fn claimed_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    enum Slot<T, R> {
        Waiting(T),
        Running,
        Done(R),
    }
    let slots: Vec<Mutex<Slot<T, R>>> = items
        .into_iter()
        .map(|t| Mutex::new(Slot::Waiting(t)))
        .collect();
    // Each lock is held only to move an item out or a result in.
    let swap = |i: usize, new: Slot<T, R>| {
        std::mem::replace(&mut *slots[i].lock().expect("slot poisoned"), new)
    };
    claim_each(slots.len(), &|_, i| {
        let Slot::Waiting(item) = swap(i, Slot::Running) else {
            unreachable!("each index is claimed once");
        };
        swap(i, Slot::Done(f(item)));
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().expect("slot poisoned") {
            Slot::Done(r) => r,
            _ => unreachable!("every claimed item ran"),
        })
        .collect()
}

/// Runs `f(worker, i)` for every `i < n` on the current pool's workers,
/// which claim indices one at a time from a shared counter, in index
/// order; returns the number of workers, so `worker < claim_each(..)`.
///
/// - A caller that wants the heaviest items first (longest processing
///   time first) hands over indices into a heaviest-first order.
/// - A worker that starts late or is preempted delays the region by at
///   most the item it holds: the others claim the rest.
/// - With `n ≤ 1`, or one worker, `f` runs on the caller. The single-item
///   region leaves the caller unmarked, so a region nested in `f` still
///   forks (a one-process SUMMA grid still parallelises its multiply).
///
/// Not generic, so the region compiles once, here: a generic version
/// changed how downstream crates' generic code was split into codegen
/// units, and slowed phases that never call it.
pub fn claim_each(n: usize, f: &(dyn Fn(usize, usize) + Sync)) -> usize {
    let next = AtomicUsize::new(0);
    let workers = rayon::current_num_threads().clamp(1, n.max(1));
    (0..workers).into_par_iter().for_each(|worker| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(worker, i);
    });
    workers
}

/// Runs `f` on a dedicated rayon pool of `threads` threads (0 = the global
/// pool). Benchmarks use this for strong-scaling sweeps.
pub fn run_with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        f()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool")
            .install(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_ranges_tile() {
        let r = equal_ranges(10, 3);
        assert_eq!(r.first().unwrap().start, 0);
        assert_eq!(r.last().unwrap().end, 10);
        assert!(r.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(equal_ranges(0, 4), vec![0..0]);
        assert_eq!(equal_ranges(2, 8).len(), 2, "never more parts than items");
    }

    #[test]
    fn weighted_ranges_balance_skew() {
        // One heavy column at the front.
        let mut w = vec![1usize; 100];
        w[0] = 1000;
        let r = weighted_ranges(&w, 4);
        assert_eq!(r.first().unwrap().start, 0);
        assert_eq!(r.last().unwrap().end, 100);
        assert!(r.windows(2).all(|a| a[0].end == a[1].start));
        // The heavy column must sit alone (or nearly) in its range.
        assert!(r[0].len() <= 2, "heavy head not isolated: {:?}", r);
    }

    #[test]
    fn weighted_ranges_uniform_close_to_equal() {
        let w = vec![5usize; 64];
        let r = weighted_ranges(&w, 8);
        assert_eq!(r.len(), 8);
        for range in &r {
            assert_eq!(range.len(), 8);
        }
    }

    #[test]
    fn weighted_ranges_zero_weights() {
        let w = vec![0usize; 10];
        let r = weighted_ranges(&w, 3);
        assert_eq!(r.last().unwrap().end, 10);
    }

    #[test]
    fn prefix_sum_builds_colptr() {
        assert_eq!(exclusive_prefix_sum(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn split_output_windows_are_disjoint_and_complete() {
        let colptr = vec![0usize, 2, 2, 5, 6];
        let ranges = vec![0..2, 2..4];
        let mut rows = vec![0u32; 6];
        let mut vals = vec![0.0f64; 6];
        let chunks = split_output(&colptr, &ranges, &mut rows, &mut vals);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].base, 0);
        assert_eq!(chunks[0].rows.len(), 2);
        assert_eq!(chunks[1].base, 2);
        assert_eq!(chunks[1].rows.len(), 4);
    }

    #[test]
    fn split_per_range_windows_tile_the_slice() {
        let mut counts: Vec<usize> = (0..7).collect();
        let ranges = vec![0..2, 2..2, 2..6, 6..6, 6..7];
        let windows = split_per_range(&mut counts, &ranges);
        assert_eq!(windows.len(), ranges.len(), "one window per range");
        for (w, r) in windows.iter().zip(&ranges) {
            assert_eq!(w.len(), r.len());
            assert_eq!(w.first().copied(), (!r.is_empty()).then_some(r.start));
        }
        // The windows are the slice itself: writes land in place.
        for w in windows {
            for c in w.iter_mut() {
                *c *= 10;
            }
        }
        assert_eq!(counts, vec![0, 10, 20, 30, 40, 50, 60]);
        assert!(split_per_range(&mut [], &equal_ranges(0, 4))[0].is_empty());
    }

    #[test]
    fn run_with_threads_executes() {
        let x = run_with_threads(2, rayon::current_num_threads);
        assert_eq!(x, 2);
        let y = run_with_threads(0, || 42);
        assert_eq!(y, 42);
    }

    #[test]
    fn claimed_map_keeps_item_order() {
        for threads in [1, 2, 3] {
            for n in [0usize, 1, 2, 7, 64] {
                let out =
                    run_with_threads(threads, || claimed_map((0..n).collect(), |i: usize| i * 10));
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn claim_each_runs_every_index_once() {
        // n = 0, fewer items than workers, and more items than workers.
        for threads in [1, 2, 3] {
            for n in [0usize, 1, 2, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let top = AtomicUsize::new(0);
                let workers = run_with_threads(threads, || {
                    claim_each(n, &|worker, i| {
                        top.fetch_max(worker, Ordering::Relaxed);
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    })
                });
                assert_eq!(workers, threads.min(n).max(1), "threads {threads}, n {n}");
                assert!(top.into_inner() < workers);
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn claim_each_runs_one_item_on_the_caller_unmarked() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(None);
        run_with_threads(2, || {
            claim_each(1, &|worker, _| {
                let nested: Vec<_> = (0..2usize)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect();
                *seen.lock().unwrap() = Some((worker, std::thread::current().id(), nested));
            })
        });
        let (worker, ran_on, nested) = seen.into_inner().unwrap().expect("item never ran");
        assert_eq!(worker, 0);
        assert_eq!(ran_on, caller, "a single item runs on the caller");
        assert_ne!(nested[0], nested[1], "a region nested in it still forks");
    }

    #[test]
    fn claimed_map_hands_a_blocked_workers_share_to_the_others() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        // Item 0 waits until every other item is done. With one
        // contiguous share per worker, its holder would also own items
        // 1..4 and the wait could never end.
        let done = AtomicUsize::new(0);
        let waited = run_with_threads(2, || {
            claimed_map((0..8usize).collect(), |i| {
                let mut ok = true;
                if i == 0 {
                    let t0 = spk_obs::now();
                    while done.load(Ordering::Acquire) < 7 {
                        if t0.elapsed() > Duration::from_secs(20) {
                            ok = false;
                            break;
                        }
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::Release);
                }
                ok
            })
        });
        assert!(waited[0], "the other worker never took item 0's neighbours");
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn scheduling_default_is_dynamic() {
        match Scheduling::default() {
            Scheduling::Dynamic { chunks_per_thread } => assert_eq!(chunks_per_thread, 8),
            _ => panic!("default must be dynamic"),
        }
    }
}
