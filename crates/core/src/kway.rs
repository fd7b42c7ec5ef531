//! The parallel k-way numeric driver (Algorithm 2 + §III-A).
//!
//! One code path serves the heap, SPA, hash, and sliding-hash algorithms:
//! the symbolic phase has already produced per-column output sizes, so the
//! driver prefix-sums them into the output column pointer, splits the
//! output arrays into per-task disjoint windows (no synchronization), and
//! runs the chosen column kernel over weight-balanced column ranges with
//! thread-private workspaces **borrowed from the caller's
//! [`WorkspacePool`]** — a plan executed repeatedly reuses its tables,
//! SPA panels, and heap buffers instead of reallocating them per call.
//!
//! A pattern-cache hit runs none of the column kernels: the output
//! structure is known, and the cached pattern's scatter map says where
//! each input entry goes, so the hit's numeric phase is a single
//! scatter of the input values in the same fold order the kernels use
//! (see `kway_numeric_cached` and [`crate::pattern`]). When a plan's
//! last two executions hit the same pattern, the scatter runs in one
//! region with the next collection's fingerprint sweep, before the
//! lookup confirms the guess (`kway_scatter_speculative`).

use crate::kernels::{hash_add_column, heap_add_column, spa_add_column};
use crate::mem::TaskModels;
use crate::monoid::Monoid;
use crate::parallel::{
    claimed_map, exclusive_prefix_sum_into, plan_ranges, split_output, split_per_range, OutChunk,
    Scheduling,
};
use crate::pattern::{digest_one, structures, Digest, Pattern, ScatterMap, Structure};
use crate::sliding::{sliding_add_column, sliding_spa_add_column};
use crate::symbolic::{DriverCtx, SymbolicStrategy};
use crate::tuning::{ChunkProfile, ChunkScorer};
use crate::workspace::WorkspacePool;
use crate::Algorithm;
use rayon::prelude::*;
use spk_sparse::{ColView, CscMatrix, Element};
use std::ops::Range;
use std::sync::Arc;

/// Which column kernel the numeric phase runs for a chunk — the five
/// k-way column families (the 2-way/library folds never reach the k-way
/// driver). [`crate::ExecuteStats::kernel_counts`] reports how many
/// chunks each kernel materialized in one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericKernel {
    /// Per-column hash table (Algorithms 5/6).
    Hash,
    /// Cache-budgeted sliding hash tables (Algorithms 7/8).
    SlidingHash,
    /// Dense sparse accumulator (Algorithm 4).
    Spa,
    /// Row-partitioned cache-resident SPA panels (§IV-B(b) extension).
    SlidingSpa,
    /// O(k)-state streaming merge heap (Algorithm 3; sorted inputs only).
    Heap,
}

impl NumericKernel {
    /// Number of kernel variants (the length of [`NumericKernel::ALL`]).
    pub const COUNT: usize = 5;

    /// Every kernel, in the order [`KernelCounts`] reports them.
    pub const ALL: [NumericKernel; Self::COUNT] = [
        NumericKernel::Hash,
        NumericKernel::SlidingHash,
        NumericKernel::Spa,
        NumericKernel::SlidingSpa,
        NumericKernel::Heap,
    ];

    /// Stable kebab-case token (matches the corresponding
    /// [`crate::Algorithm::token`] spelling).
    pub fn token(&self) -> &'static str {
        match self {
            NumericKernel::Hash => "hash",
            NumericKernel::SlidingHash => "sliding-hash",
            NumericKernel::Spa => "spa",
            NumericKernel::SlidingSpa => "sliding-spa",
            NumericKernel::Heap => "heap",
        }
    }

    /// Static span-trace event name (`kway.dispatch.<kernel>`).
    pub(crate) fn event_name(self) -> &'static str {
        match self {
            NumericKernel::Hash => "kway.dispatch.hash",
            NumericKernel::SlidingHash => "kway.dispatch.sliding-hash",
            NumericKernel::Spa => "kway.dispatch.spa",
            NumericKernel::SlidingSpa => "kway.dispatch.sliding-spa",
            NumericKernel::Heap => "kway.dispatch.heap",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            NumericKernel::Hash => 0,
            NumericKernel::SlidingHash => 1,
            NumericKernel::Spa => 2,
            NumericKernel::SlidingSpa => 3,
            NumericKernel::Heap => 4,
        }
    }
}

impl std::fmt::Display for NumericKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// The k-way phases `alg` runs: its numeric kernel and its symbolic
/// strategy. The strategy is `requested`, except that Sliding Hash slides
/// its symbolic phase too (Alg 8 line 2) unless the caller picked a
/// strategy other than the default hash. `None` for the 2-way and library
/// folds, which have no separate phases, and for the unresolved `Auto`.
pub(crate) fn kway_phases(
    alg: Algorithm,
    requested: SymbolicStrategy,
) -> Option<(NumericKernel, SymbolicStrategy)> {
    let kernel = match alg {
        Algorithm::Heap => NumericKernel::Heap,
        Algorithm::Spa => NumericKernel::Spa,
        Algorithm::Hash => NumericKernel::Hash,
        Algorithm::SlidingHash => NumericKernel::SlidingHash,
        Algorithm::SlidingSpa => NumericKernel::SlidingSpa,
        _ => return None,
    };
    let strategy = match (kernel, requested) {
        (NumericKernel::SlidingHash, SymbolicStrategy::Hash) => SymbolicStrategy::SlidingHash,
        _ => requested,
    };
    Some((kernel, strategy))
}

/// Per-kernel chunk histogram of one (or an aggregation of) execution(s):
/// how many column chunks each [`NumericKernel`] materialized. A fixed
/// `Copy` array so [`crate::ExecuteStats`] stays `Copy`.
///
/// Displays as the nonzero entries in [`NumericKernel::ALL`] order, e.g.
/// `spa=12 hash=3 heap=1` (`-` when empty — a 2-way/library execution
/// that never entered the k-way driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    counts: [u64; NumericKernel::COUNT],
}

impl KernelCounts {
    /// Records one chunk dispatched to `kernel`.
    pub fn record(&mut self, kernel: NumericKernel) {
        self.counts[kernel.index()] += 1;
    }

    /// Records `chunks` chunks dispatched to `kernel` (bulk form of
    /// [`record`](Self::record), for rebuilding a histogram from
    /// externally maintained counters).
    pub fn add(&mut self, kernel: NumericKernel, chunks: u64) {
        self.counts[kernel.index()] += chunks;
    }

    /// Chunks dispatched to `kernel`.
    pub fn get(&self, kernel: NumericKernel) -> u64 {
        self.counts[kernel.index()]
    }

    /// Total chunks across all kernels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// How many distinct kernels ran (≥ 2 means the execution actually
    /// mixed kernels — the adaptive driver's reason to exist).
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// `true` when nothing was recorded (no k-way numeric phase ran).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Accumulates another histogram (streaming/server aggregation).
    pub fn merge(&mut self, other: &KernelCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// The nonzero `(kernel, chunks)` pairs in [`NumericKernel::ALL`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (NumericKernel, u64)> + '_ {
        NumericKernel::ALL
            .into_iter()
            .map(|k| (k, self.get(k)))
            .filter(|&(_, c)| c > 0)
    }

    /// Histogram of a per-chunk decision vector.
    pub(crate) fn from_decisions(decisions: &[NumericKernel]) -> Self {
        let mut counts = Self::default();
        for &d in decisions {
            counts.record(d);
        }
        counts
    }
}

impl std::fmt::Display for KernelCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("-");
        }
        let mut first = true;
        for (kernel, count) in self.iter() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{kernel}={count}")?;
            first = false;
        }
        Ok(())
    }
}

/// How the numeric driver assigns kernels to chunks.
#[derive(Debug, Clone)]
pub(crate) enum KernelDispatch {
    /// Every chunk runs one kernel: the forced algorithm's.
    Fixed(NumericKernel),
    /// Score each chunk's profile and pick per chunk (`Auto`).
    Adaptive(ChunkScorer),
    /// A pattern-cache hit replays the decisions memoized alongside the
    /// structure (same pattern ⇒ same counts ⇒ same chunking ⇒ the same
    /// scores — so warm hits skip scoring too). Falls back to rescoring
    /// if the chunk count ever disagrees.
    Memoized {
        decisions: Arc<Vec<NumericKernel>>,
        scorer: ChunkScorer,
    },
}

/// Profiles one chunk from data the symbolic phase already fixed: the
/// output `colptr` bounds give `nnz_out`; each input's `colptr` window
/// gives its local nnz (and thereby `k_eff` and the compression ratio) —
/// O(k) per chunk, no per-entry work.
pub(crate) fn chunk_profile<T: Element>(
    mats: &[&CscMatrix<T>],
    out_colptr: &[usize],
    range: &Range<usize>,
) -> ChunkProfile {
    let nnz_out = out_colptr[range.end] - out_colptr[range.start];
    let mut nnz_in = 0usize;
    let mut k_eff = 0usize;
    for a in mats {
        let cp = a.colptr();
        let local = cp[range.end] - cp[range.start];
        nnz_in += local;
        k_eff += usize::from(local > 0);
    }
    ChunkProfile {
        cols: range.len(),
        k_eff,
        nnz_in,
        nnz_out,
    }
}

/// Resolves a dispatch policy into one kernel per chunk. Scoring is a
/// serial O(ranges · k) sweep over column-pointer windows — negligible
/// next to the numeric phase, and deterministic, so reruns (and memoized
/// replays) always agree.
pub(crate) fn decide_kernels<T: Element>(
    mats: &[&CscMatrix<T>],
    out_colptr: &[usize],
    ranges: &[Range<usize>],
    dispatch: &KernelDispatch,
) -> Vec<NumericKernel> {
    let score = |scorer: &ChunkScorer| {
        ranges
            .iter()
            .map(|r| scorer.choose(&chunk_profile(mats, out_colptr, r)))
            .collect()
    };
    let chosen = match dispatch {
        KernelDispatch::Fixed(kernel) => vec![*kernel; ranges.len()],
        KernelDispatch::Adaptive(scorer) => score(scorer),
        KernelDispatch::Memoized { decisions, scorer } => {
            if decisions.len() == ranges.len() {
                decisions.as_ref().clone()
            } else {
                score(scorer)
            }
        }
    };
    // One trace event per chunk-level dispatch decision; a single
    // relaxed load when tracing is off (O(chunks), not O(entries)).
    if spk_obs::tracing_enabled() {
        for &kernel in &chosen {
            spk_obs::event!(kernel.event_name());
        }
    }
    chosen
}

/// Output buffers recycled from a previous result (`execute_into_timed`): the
/// vectors are cleared and refilled, so their capacity is reused when the
/// steady-state output shape repeats. `Default` yields fresh buffers.
#[derive(Debug, Default)]
pub(crate) struct RecycledBufs<T> {
    pub colptr: Vec<usize>,
    pub rows: Vec<u32>,
    pub vals: Vec<T>,
}

impl<T: Element> RecycledBufs<T> {
    /// Reclaims the buffers of an existing matrix (its contents are
    /// discarded, its allocations kept).
    pub fn from_matrix(m: CscMatrix<T>) -> Self {
        let (_, _, colptr, rows, vals) = m.into_parts();
        Self { colptr, rows, vals }
    }
}

/// Runs the numeric phase. `counts[j]` must be an exact size or an upper
/// bound for `nnz(B(:,j))`; when it is only an upper bound
/// (`exact = false`) the result is compacted afterwards. A filtering
/// monoid demotes every count to an upper bound — the symbolic phase is
/// value-free and cannot predict what `keep` will drop.
///
/// Returns the output and the per-chunk kernel decisions (one entry per
/// weight-balanced range, in range order) — a constant vector under
/// [`KernelDispatch::Fixed`], the scored mix under adaptive dispatch.
/// Every kernel folds duplicates in matrix order and fills the same
/// per-column windows, so the decisions change *how* each chunk is
/// materialized, never its bits. Each task reports its memory traffic to
/// the model `models` lends it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kway_numeric<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    counts: &[usize],
    exact: bool,
    dispatch: &KernelDispatch,
    monoid: O,
    ctx: &DriverCtx,
    pool: &WorkspacePool<T>,
    recycle: RecycledBufs<T>,
    models: &impl TaskModels,
) -> (CscMatrix<T>, Vec<NumericKernel>) {
    let exact = exact && !O::MAY_FILTER;
    let n = mats[0].ncols();
    let m = mats[0].nrows();
    let k = mats.len();
    debug_assert_eq!(counts.len(), n);

    let RecycledBufs {
        mut colptr,
        rows: mut rowidx,
        vals: mut values,
    } = recycle;
    exclusive_prefix_sum_into(counts, &mut colptr);
    let nnz_alloc = *colptr.last().unwrap();
    rowidx.clear();
    rowidx.resize(nnz_alloc, 0u32);
    values.clear();
    values.resize(nnz_alloc, T::default());

    // Numeric-phase load balancing uses output nonzeros per column (§III-A).
    let ranges = plan_ranges(counts, 0, ctx.sched);
    // Kernel-per-chunk decisions come from structure the symbolic phase
    // already fixed, before any value is touched.
    let decisions = decide_kernels(mats, &colptr, &ranges, dispatch);
    let chunks = split_output(&colptr, &ranges, &mut rowidx, &mut values);

    // Per-task actual counts (differ from `counts` when inexact).
    let mut actual = vec![0usize; n];
    let actual_parts = split_per_range(&mut actual, &ranges);

    chunks
        .into_par_iter()
        .zip(actual_parts.into_par_iter())
        .zip(decisions.clone().into_par_iter())
        .for_each(|((chunk, actual_out), kernel)| {
            models.lend(|mem| {
                let mut views: Vec<ColView<'_, T>> = Vec::with_capacity(k);
                // Thread-private workspaces (§III-A): one per worker, reused
                // across all chunks in that worker's share — and across
                // plan executions, because the pool outlives this call.
                // Under `Auto` one worker may serve several kernel
                // families; the pool's components are lazy, so only the
                // families actually dispatched get built.
                let mut ws = pool.for_current_thread();
                for (slot, j) in chunk.cols.clone().enumerate() {
                    views.clear();
                    views.extend(mats.iter().map(|a| a.col(j)));
                    let lo = colptr[j] - chunk.base;
                    let hi = colptr[j + 1] - chunk.base;
                    let out_rows = &mut chunk.rows[lo..hi];
                    let out_vals = &mut chunk.vals[lo..hi];
                    let written = match kernel {
                        NumericKernel::Hash => {
                            let ht = ws.hash();
                            ht.reserve_for(hi - lo);
                            hash_add_column(
                                &views,
                                ht,
                                out_rows,
                                out_vals,
                                ctx.sorted_output,
                                monoid,
                                mem,
                            )
                        }
                        NumericKernel::SlidingHash => {
                            let (ht, scratch) = ws.hash_and_scratch();
                            sliding_add_column(
                                &views,
                                m,
                                ctx.budget_add,
                                hi - lo,
                                ht,
                                out_rows,
                                out_vals,
                                ctx.sorted_output,
                                ctx.inputs_sorted,
                                monoid,
                                scratch,
                                mem,
                            )
                        }
                        NumericKernel::Spa => spa_add_column(
                            &views,
                            ws.spa(m),
                            out_rows,
                            out_vals,
                            ctx.sorted_output,
                            monoid,
                            mem,
                        ),
                        NumericKernel::SlidingSpa => {
                            // One cache-resident row panel at a time (the
                            // §IV-B(b) extension).
                            let (spa, scratch) = ws.spa_and_scratch(m.min(ctx.budget_add.max(1)));
                            sliding_spa_add_column(
                                &views,
                                m,
                                ctx.budget_add,
                                spa,
                                out_rows,
                                out_vals,
                                ctx.sorted_output,
                                ctx.inputs_sorted,
                                monoid,
                                scratch,
                                mem,
                            )
                        }
                        NumericKernel::Heap => {
                            heap_add_column(&views, ws.heap(k), out_rows, out_vals, monoid, mem)
                        }
                    };
                    debug_assert!(written <= hi - lo);
                    debug_assert!(!exact || written == hi - lo);
                    actual_out[slot] = written;
                }
            })
        });

    let out = if exact {
        CscMatrix::from_parts(m, n, colptr, rowidx, values)
    } else {
        compact(m, n, colptr, &actual, rowidx, values)
    };
    (out, decisions)
}

/// Numeric driver for a pattern-cache hit: one pure scatter. The output
/// structure is already known, so the symbolic phase is skipped — the
/// cached `colptr`/`rowidx` are copied into the (recycled) output buffers
/// — and every input entry is written straight to its slot through the
/// pattern's [`ScatterMap`] (built here by the first hit): for each
/// weight-balanced output chunk, the operands are swept in order over the
/// chunk's columns, storing a slot's first touch and combining the rest.
/// That is operand order, then entry order — the order every k-way kernel
/// folds duplicates in — so the result matches a cold execution bit for
/// bit whichever kernel produced the cached structure.
///
/// The per-chunk kernel decisions are still resolved (a memoized
/// dispatch replays the cold run's), so a hit reports the same
/// histogram and `kway.dispatch.*` events as the cold run; no kernel
/// runs, though.
///
/// Only reached for non-filtering monoids (a filtering monoid's output
/// structure is value-dependent, so the plan layer bypasses the cache),
/// which also means every cached count is exact — no compaction pass.
///
/// [`ScatterMap`]: crate::pattern::ScatterMap
pub(crate) fn kway_numeric_cached<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    pattern: &Pattern,
    dispatch: &KernelDispatch,
    monoid: O,
    ctx: &DriverCtx,
    recycle: RecycledBufs<T>,
) -> (CscMatrix<T>, Vec<NumericKernel>) {
    debug_assert!(!O::MAY_FILTER, "filtering monoids must bypass the cache");
    let (m, n) = mats[0].shape();
    let HitLayout {
        colptr,
        mut rowidx,
        mut values,
        ranges,
    } = HitLayout::of(pattern, ctx.sched, recycle);
    // A memoized dispatch replays the cold run's per-chunk decisions;
    // the identical counts reproduce the identical ranges, so no chunk
    // is ever rescored on the warm path.
    let decisions = decide_kernels(mats, &colptr, &ranges, dispatch);
    let map = pattern.scatter_map(mats, &ranges);
    let chunks = split_output(&colptr, &ranges, &mut rowidx, &mut values);
    let inside = claimed_map(chunks, |chunk| {
        scatter_chunk(chunk, mats, map, pattern, monoid)
    });
    assert!(
        inside.iter().all(|&ok| ok),
        "a hit's inputs have the cached structure"
    );
    (
        CscMatrix::from_parts(m, n, colptr, rowidx, values),
        decisions,
    )
}

/// A hit's output buffers — `colptr` copied from the pattern, `rowidx`
/// and `values` sized to it (filled by [`scatter_chunk`]) — and the
/// weight-balanced chunk ranges the cold run used.
struct HitLayout<T> {
    colptr: Vec<usize>,
    rowidx: Vec<u32>,
    values: Vec<T>,
    ranges: Vec<Range<usize>>,
}

impl<T: Element> HitLayout<T> {
    fn of(pattern: &Pattern, sched: Scheduling, recycle: RecycledBufs<T>) -> Self {
        let RecycledBufs {
            mut colptr,
            rows: mut rowidx,
            vals: mut values,
        } = recycle;
        colptr.clear();
        colptr.extend_from_slice(&pattern.colptr);
        let nnz = *colptr.last().unwrap();
        // Each chunk copies its rows from the pattern and gives every
        // value slot a first touch, so recycled buffers need no reset.
        rowidx.truncate(nnz);
        rowidx.resize(nnz, 0);
        values.truncate(nnz);
        values.resize(nnz, T::default());
        let counts: Vec<usize> = colptr.windows(2).map(|w| w[1] - w[0]).collect();
        let ranges = plan_ranges(&counts, 0, sched);
        Self {
            colptr,
            rowidx,
            values,
            ranges,
        }
    }
}

/// Fills one output chunk of a hit: copies its rows from the pattern,
/// then sweeps the operands in order over its columns, storing each
/// slot's first touch and combining the rest. Returns `false` iff an
/// entry's slot fell outside its output column, which only inputs
/// without the map's structure can cause (a speculative sweep; see
/// [`kway_scatter_speculative`]); the chunk's values are then garbage.
fn scatter_chunk<T: Element, O: Monoid<Value = T>>(
    chunk: OutChunk<'_, T>,
    mats: &[&CscMatrix<T>],
    map: &ScatterMap,
    pattern: &Pattern,
    monoid: O,
) -> bool {
    let colptr = &pattern.colptr;
    let len = chunk.rows.len();
    chunk
        .rows
        .copy_from_slice(&pattern.rowidx[chunk.base..chunk.base + len]);
    let mut inside = true;
    for (i, a) in mats.iter().enumerate() {
        let (cp, vals) = (a.colptr(), a.values());
        let base = map.base(i);
        for j in chunk.cols.clone() {
            let out = &mut chunk.vals[colptr[j] - chunk.base..colptr[j + 1] - chunk.base];
            let (lo, hi) = (cp[j], cp[j + 1]);
            for (g, &v) in (base + lo..).zip(&vals[lo..hi]) {
                let (p, first) = map.slot(g);
                match out.get_mut(p) {
                    Some(slot) if first => *slot = v,
                    Some(slot) => monoid.combine(slot, v),
                    None => inside = false,
                }
            }
        }
    }
    inside
}

/// What [`kway_scatter_speculative`] produced.
pub(crate) struct Speculation<T> {
    /// The scatter's result: the hit's output iff the inputs turn out to
    /// have the pattern's structure.
    pub(crate) out: CscMatrix<T>,
    /// The chunk ranges it used (a confirmed hit replays its kernel
    /// decisions over them).
    pub(crate) ranges: Vec<Range<usize>>,
    /// Every operand's [`digest_one`], in operand order.
    pub(crate) digests: Vec<Digest>,
    /// Whether every entry landed inside its output column.
    pub(crate) inside: bool,
    /// The digests' share of the region's summed worker time.
    pub(crate) digest_share: f64,
}

/// A hit's scatter and the inputs' fingerprint sweep as one parallel
/// region, before the fingerprint says whether `pattern` is the inputs'
/// structure. The workers claim the digest items (one per operand) and
/// the scatter chunks from one queue, so a hit wakes its workers once
/// rather than once per sweep. The pattern's scatter map must be built
/// and [`ScatterMap::fits`] `mats`, which keeps every access in bounds
/// whatever their structure; the caller keeps the output only if the
/// fingerprint confirms the pattern.
pub(crate) fn kway_scatter_speculative<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    pattern: &Pattern,
    monoid: O,
    sched: Scheduling,
    recycle: RecycledBufs<T>,
) -> Speculation<T> {
    debug_assert!(!O::MAY_FILTER, "filtering monoids must bypass the cache");
    let (m, n) = mats[0].shape();
    let structs = structures(mats);
    let map = pattern
        .built_scatter_map()
        .filter(|map| map.fits(&structs))
        .expect("a guess has a built map that fits the inputs");
    let HitLayout {
        colptr,
        mut rowidx,
        mut values,
        ranges,
    } = HitLayout::of(pattern, sched, recycle);
    let chunks = split_output(&colptr, &ranges, &mut rowidx, &mut values);
    enum Work<'a, T> {
        Digest(Structure<'a>),
        Chunk(OutChunk<'a, T>),
    }
    enum Done {
        Digest(Digest),
        Chunk(bool),
    }
    let work: Vec<Work<'_, T>> = structs
        .into_iter()
        .map(Work::Digest)
        .chain(chunks.into_iter().map(Work::Chunk))
        .collect();
    let done = claimed_map(work, |item| {
        let t0 = spk_obs::now();
        let done = match item {
            Work::Digest(s) => Done::Digest(digest_one(s)),
            Work::Chunk(c) => Done::Chunk(scatter_chunk(c, mats, map, pattern, monoid)),
        };
        (done, t0.elapsed().as_secs_f64())
    });
    let (mut digests, mut inside) = (Vec::with_capacity(mats.len()), true);
    let (mut digest_secs, mut total_secs) = (0.0, 0.0);
    for (d, secs) in done {
        total_secs += secs;
        match d {
            Done::Digest(digest) => {
                digests.push(digest);
                digest_secs += secs;
            }
            Done::Chunk(ok) => inside &= ok,
        }
    }
    Speculation {
        out: CscMatrix::from_parts(m, n, colptr, rowidx, values),
        ranges,
        digests,
        inside,
        digest_share: if total_secs > 0.0 {
            digest_secs / total_secs
        } else {
            0.0
        },
    }
}

/// Squeezes out the per-column slack left by an upper-bound allocation, in
/// place: each column's `actual[j]` entries slide down from its allocated
/// start `colptr[j]` to the packed start, which never lies past it, and
/// the arrays are truncated to the packed size. The buffers keep their
/// capacity, so a recycled sink is reused by the next execution.
fn compact<T: Element>(
    m: usize,
    n: usize,
    mut colptr: Vec<usize>,
    actual: &[usize],
    mut rowidx: Vec<u32>,
    mut values: Vec<T>,
) -> CscMatrix<T> {
    let mut dst = 0usize;
    for j in 0..n {
        let src = colptr[j];
        let len = actual[j];
        colptr[j] = dst;
        if src != dst {
            rowidx.copy_within(src..src + len, dst);
            values.copy_within(src..src + len, dst);
        }
        dst += len;
    }
    colptr[n] = dst;
    rowidx.truncate(dst);
    values.truncate(dst);
    CscMatrix::from_parts(m, n, colptr, rowidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;
    use crate::parallel::Scheduling;
    use crate::symbolic::{symbolic_counts, SymbolicStrategy};
    use spk_sparse::DenseMatrix;

    fn ctx() -> DriverCtx {
        DriverCtx {
            sched: Scheduling::default(),
            budget_sym: 1 << 20,
            budget_add: 1 << 20,
            inputs_sorted: true,
            sorted_output: true,
        }
    }

    fn pool() -> WorkspacePool<f64> {
        WorkspacePool::new(rayon::current_num_threads())
    }

    fn inputs() -> Vec<CscMatrix<f64>> {
        let a = CscMatrix::try_new(
            8,
            3,
            vec![0, 3, 3, 5],
            vec![1, 3, 6, 0, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let b = CscMatrix::try_new(
            8,
            3,
            vec![0, 2, 3, 5],
            vec![3, 7, 2, 0, 4],
            vec![10.0, 20.0, 30.0, 40.0, 50.0],
        )
        .unwrap();
        let c = CscMatrix::try_new(8, 3, vec![0, 1, 1, 1], vec![1], vec![100.0]).unwrap();
        vec![a, b, c]
    }

    fn oracle(mats: &[&CscMatrix<f64>]) -> DenseMatrix<f64> {
        let mut acc = DenseMatrix::zeros(mats[0].nrows(), mats[0].ncols());
        for m in mats {
            acc.add_assign(&DenseMatrix::from_csc(m)).unwrap();
        }
        acc
    }

    #[test]
    fn all_kernels_match_dense_oracle() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let c = ctx();
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let expect = oracle(&refs);
        for kernel in [
            NumericKernel::Hash,
            NumericKernel::SlidingHash,
            NumericKernel::Spa,
            NumericKernel::Heap,
        ] {
            let (out, decisions) = kway_numeric(
                &refs,
                &counts,
                true,
                &KernelDispatch::Fixed(kernel),
                Plus::new(),
                &c,
                &ws,
                RecycledBufs::default(),
                &NullModel,
            );
            assert_eq!(
                DenseMatrix::from_csc(&out).max_abs_diff(&expect),
                0.0,
                "{kernel:?} wrong"
            );
            assert!(out.is_sorted(), "{kernel:?} must emit sorted columns");
            assert_eq!(out.nnz(), counts.iter().sum::<usize>());
            assert!(
                decisions.iter().all(|&d| d == kernel),
                "fixed dispatch must not mix kernels"
            );
            assert_eq!(
                KernelCounts::from_decisions(&decisions).total(),
                decisions.len() as u64
            );
        }
    }

    #[test]
    fn upper_bound_path_compacts() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let c = ctx();
        let ws = pool();
        let upper = symbolic_counts(&refs, SymbolicStrategy::UpperBound, &c, &ws, &NullModel);
        let exact = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let (out, _) = kway_numeric(
            &refs,
            &upper,
            false,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert_eq!(out.nnz(), exact.iter().sum::<usize>());
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&oracle(&refs)),
            0.0
        );
    }

    #[test]
    fn unsorted_output_mode_still_correct() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let mut c = ctx();
        c.sorted_output = false;
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let (out, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&oracle(&refs)),
            0.0
        );
    }

    #[test]
    fn sliding_with_tiny_budget_matches() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let mut c = ctx();
        c.budget_add = 16;
        c.budget_sym = 16;
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::SlidingHash, &c, &ws, &NullModel);
        let (out, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::SlidingHash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&oracle(&refs)),
            0.0
        );
        assert!(out.is_sorted());
    }

    #[test]
    fn static_scheduling_matches_dynamic() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let mut c = ctx();
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let (dynamic, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        c.sched = Scheduling::Static;
        let (stat, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert!(dynamic.approx_eq(&stat, 0.0));
    }

    #[test]
    fn adaptive_dispatch_is_bitwise_equal_to_fixed() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let c = ctx();
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let (expect, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        let scorer = ChunkScorer {
            rows: 8,
            entry_bytes: 12,
            threads: 1,
            llc_bytes: 32 << 20,
            heap_allowed: true,
        };
        let (out, decisions) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Adaptive(scorer),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert_eq!(out, expect);
        assert!(!decisions.is_empty());
        // Replaying the decisions (the warm-hit path's dispatch) agrees.
        let (replay, replay_decisions) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Memoized {
                decisions: Arc::new(decisions.clone()),
                scorer,
            },
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        assert_eq!(replay, expect);
        assert_eq!(replay_decisions, decisions);
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let ms = inputs();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let c = ctx();
        let ws = pool();
        let counts = symbolic_counts(&refs, SymbolicStrategy::Hash, &c, &ws, &NullModel);
        let (first, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::default(),
            &NullModel,
        );
        let expect = first.clone();
        let (again, _) = kway_numeric(
            &refs,
            &counts,
            true,
            &KernelDispatch::Fixed(NumericKernel::Hash),
            Plus::new(),
            &c,
            &ws,
            RecycledBufs::from_matrix(first),
            &NullModel,
        );
        assert_eq!(again, expect);
    }
}
