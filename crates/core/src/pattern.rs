//! Pattern-keyed symbolic caching: fingerprint a collection's *structure*
//! and reuse the symbolic phase's answer when the same structure repeats.
//!
//! The paper's k-way algorithms (§II-D) split SpKAdd into a symbolic pass
//! (per-column output sizes → output `colptr`/`rowidx`) and a numeric
//! pass. The symbolic pass is a full sweep over all k inputs, yet the
//! dominant repeat workloads — FEM assembly on a fixed mesh, gradient
//! all-reduce over a fixed model — add collections with *identical
//! sparsity* every iteration. The symbolic/numeric separation inherited
//! from Buluç–Gilbert (arXiv:1109.3739) makes the output structure a
//! first-class artifact, so a plan can cache it: on a fingerprint hit the
//! driver skips symbolic entirely, copies the cached `colptr`/`rowidx`
//! into the (possibly recycled) output buffers, and scatters values into
//! the known structure.
//!
//! The scatter goes through a scatter map cached on the pattern: for
//! every input entry, its position inside its output column and whether
//! it is the first to touch that slot. The first hit builds it (a
//! pattern that never repeats pays nothing); from then on a hit is one
//! fused fingerprint-and-sortedness sweep over the inputs' structure plus
//! one pass over their values — no hashing, no probing, no sort.
//!
//! The cache is structural only — values never enter the fingerprint, and
//! cached entries never carry values — so a hit is always sound for
//! non-filtering monoids (the output structure is the set union of input
//! structures, independent of the values being folded). Filtering monoids
//! (`MAY_FILTER = true`) have value-dependent structure and bypass the
//! cache entirely; the plan layer enforces that.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::kway::NumericKernel;
use crate::parallel::claimed_map;
use rayon::prelude::*;
use spk_sparse::{CscMatrix, Element};

/// An order-sensitive 128-bit structural fingerprint of a collection.
///
/// Covers the common shape, k, and every matrix's `colptr` and `rowidx`
/// in sequence (values are deliberately excluded). Two independent mixing
/// lanes plus the exact total input nnz and k make accidental collisions
/// negligible (~2⁻¹²⁸ per pair of distinct structures). Every lookup
/// digests the inputs afresh, so a cached structure is only ever reused
/// for a collection whose `colptr`/`rowidx` contents match it — however
/// the buffers were allocated, recycled, or rewritten in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternFingerprint {
    lane_a: u64,
    lane_b: u64,
    /// Exact total input nnz — a free equality check alongside the lanes.
    total_nnz: u64,
    /// Collection length, order-sensitivity's outer guard.
    k: u32,
}

/// `splitmix64` finalizer: full-avalanche 64-bit mixing.
#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Two-lane absorber: the lanes consume each word through different
/// multipliers and rotations, so 128 bits of state evolve independently.
struct Absorber {
    a: u64,
    b: u64,
}

impl Absorber {
    fn new() -> Self {
        // Arbitrary distinct nonzero seeds (first 16 hex digits of π/e).
        Self {
            a: 0x243f_6a88_85a3_08d3,
            b: 0xb7e1_5162_8aed_2a6a,
        }
    }

    /// xxHash-style accumulation: one multiply per lane per word — the
    /// full-avalanche [`mix`] runs once per lane in [`Absorber::finish`],
    /// not per word. Per-word updates are invertible, so no state is
    /// lost along the way; the digest sweep is the warm path's main cost
    /// and this keeps it close to memory speed.
    #[inline(always)]
    fn push(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(27);
        self.b = (self.b.rotate_left(31) ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    }

    /// Finalizes both lanes with a full-avalanche mix.
    fn finish(self) -> (u64, u64) {
        (mix(self.a), mix(self.b))
    }

    /// Absorbs a `u32` slice two words at a time (the rowidx hot path)
    /// and returns how many adjacent pairs `xs[p] >= xs[p + 1]` it saw —
    /// the sortedness verdict rides the same sweep.
    fn push_u32s(&mut self, xs: &[u32]) -> usize {
        let mut descents = 0usize;
        // One past the previous element; 0 before the first, so the first
        // element never counts.
        let mut next_min = 0u64;
        let mut it = xs.chunks_exact(2);
        for pair in &mut it {
            let (x0, x1) = (pair[0] as u64, pair[1] as u64);
            descents += usize::from(x0 < next_min) + usize::from(x1 <= x0);
            next_min = x1 + 1;
            self.push(x0 | (x1 << 32));
        }
        if let [last] = it.remainder() {
            descents += usize::from(u64::from(*last) < next_min);
            // Distinct tag keeps `[x]` and `[x, 0]` apart.
            self.push((*last as u64) | (1 << 63));
        }
        descents
    }
}

/// One matrix's structure — its `colptr` and `rowidx` — which is all
/// the fingerprint and the scatter map read. Keeping that code free of
/// the value type compiles it once instead of once per element type.
pub(crate) type Structure<'a> = (&'a [usize], &'a [u32]);

/// One matrix's [`digest_one`] result: its two-lane summary and its
/// strict-sortedness verdict.
pub(crate) type Digest = ((u64, u64), bool);

pub(crate) fn structures<'a, T: Element>(mats: &[&'a CscMatrix<T>]) -> Vec<Structure<'a>> {
    mats.iter().map(|a| (a.colptr(), a.rowidx())).collect()
}

/// Digests one matrix's structure into a two-lane summary and reports
/// whether every column is strictly sorted by row ([`CscMatrix::is_sorted`])
/// — computed in the same sweep, so a validating plan with a cache never
/// scans `rowidx` a second time. Includes a separator word so an empty
/// matrix still contributes state.
pub(crate) fn digest_one((colptr, rows): Structure<'_>) -> Digest {
    let nnz = rows.len();
    let mut ab = Absorber::new();
    ab.push(0xa5a5_a5a5_5a5a_5a5a ^ nnz as u64);
    // Columns are strictly sorted iff every descent in `rows` straddles
    // a column boundary: the pair (end of a nonempty column `lo..b`,
    // start of the next). Counted while the column loop passes by.
    let straddles = |lo: usize, b: usize| usize::from(lo < b && b < nnz && rows[b - 1] >= rows[b]);
    let mut straddling = 0usize;
    // Per-column counts determine `colptr` (given the CSC `colptr[0] = 0`
    // invariant and the column count absorbed by the caller), and fit a
    // u32 each — row indices are u32, so a column holds < 2³² entries —
    // which lets two columns share one absorbed word.
    let mut i = 1;
    while i + 1 < colptr.len() {
        let (c0, c1, c2) = (colptr[i - 1], colptr[i], colptr[i + 1]);
        let (d0, d1) = ((c1 - c0) as u64, (c2 - c1) as u64);
        debug_assert!(d0 >> 32 == 0 && d1 >> 32 == 0);
        ab.push(d0 | (d1 << 32));
        straddling += straddles(c0, c1) + straddles(c1, c2);
        i += 2;
    }
    if i < colptr.len() {
        ab.push(((colptr[i] - colptr[i - 1]) as u64) | (1 << 63));
        straddling += straddles(colptr[i - 1], colptr[i]);
    }
    let descents = ab.push_u32s(rows);
    (ab.finish(), descents == straddling)
}

/// Collections with more absorbed words than this fingerprint their
/// matrices on the worker threads; smaller ones stay serial.
const PARALLEL_DIGEST_WORDS: usize = 1 << 15;

impl PatternFingerprint {
    /// Fingerprints a collection's structure. Order-sensitive: each
    /// matrix is digested independently (in parallel for large
    /// collections — the digest sweep is the warm path's main cost) and
    /// the digests are folded in sequence, so swapping two structurally
    /// different inputs changes the print (the cached output structure
    /// would still match, but per-input order is what the numeric
    /// kernels' first-touch combine order keys off, so the cache stays
    /// conservatively exact).
    pub fn of<T: Element>(mats: &[&CscMatrix<T>]) -> Self {
        Self::scan(mats).0
    }

    /// [`PatternFingerprint::of`] plus each matrix's strict-sortedness
    /// verdict, from the same sweep over `colptr`/`rowidx`.
    pub(crate) fn scan<T: Element>(mats: &[&CscMatrix<T>]) -> (Self, Vec<bool>) {
        let shape = mats.first().map_or((0, 0), |a| a.shape());
        Self::scan_structures(shape, &structures(mats))
    }

    /// Whether a collection is large enough for its fingerprint sweep to
    /// run on the workers.
    pub(crate) fn sweeps_in_parallel(mats: &[Structure<'_>]) -> bool {
        let words: usize = mats
            .iter()
            .map(|(colptr, rowidx)| rowidx.len() / 2 + colptr.len())
            .sum();
        words >= PARALLEL_DIGEST_WORDS && mats.len() > 1
    }

    fn scan_structures(shape: (usize, usize), mats: &[Structure<'_>]) -> (Self, Vec<bool>) {
        let digests = if Self::sweeps_in_parallel(mats) {
            claimed_map(mats.to_vec(), digest_one)
        } else {
            mats.iter().map(|&a| digest_one(a)).collect()
        };
        Self::fold(shape, mats, digests)
    }

    /// Folds the per-matrix `digests` of `mats` (one per matrix, in
    /// order) into the collection's print, and hands the verdicts back.
    pub(crate) fn fold(
        (m, n): (usize, usize),
        mats: &[Structure<'_>],
        digests: Vec<Digest>,
    ) -> (Self, Vec<bool>) {
        debug_assert_eq!(digests.len(), mats.len());
        let mut ab = Absorber::new();
        ab.push(m as u64);
        ab.push(n as u64);
        let mut sorted = Vec::with_capacity(mats.len());
        for ((da, db), is_sorted) in digests {
            ab.push(da);
            ab.push(db);
            sorted.push(is_sorted);
        }
        let (lane_a, lane_b) = ab.finish();
        let fp = Self {
            lane_a,
            lane_b,
            total_nnz: mats.iter().map(|(_, rowidx)| rowidx.len() as u64).sum(),
            k: mats.len() as u32,
        };
        (fp, sorted)
    }
}

/// A cached output structure: the symbolic phase's entire answer for one
/// input pattern. Values are never cached — a hit recomputes them from
/// the (possibly changed) input values.
#[derive(Debug)]
pub(crate) struct Pattern {
    pub(crate) colptr: Vec<usize>,
    pub(crate) rowidx: Vec<u32>,
    /// Per-chunk kernel decisions memoized from the cold (miss) run.
    /// Identical structure ⇒ identical symbolic counts ⇒ identical
    /// chunking ⇒ identical scores, so an adaptive warm hit replays
    /// these (and reports them in `ExecuteStats::kernel_counts`) instead
    /// of rescoring. A forced algorithm's hits ignore them: its dispatch
    /// is fixed.
    pub(crate) kernels: Arc<Vec<NumericKernel>>,
    /// Built by the first hit, evicted with the entry.
    scatter: OnceLock<ScatterMap>,
}

impl Pattern {
    /// The structure's scatter map, built on first use (inside a
    /// `spkadd.pattern.scatter_build` span) from inputs whose structure
    /// produced this pattern. `ranges` only split the build across
    /// workers; the map itself does not depend on them.
    pub(crate) fn scatter_map<T: Element>(
        &self,
        mats: &[&CscMatrix<T>],
        ranges: &[Range<usize>],
    ) -> &ScatterMap {
        self.scatter.get_or_init(|| {
            let _span = spk_obs::span!("spkadd.pattern.scatter_build");
            ScatterMap::build(&structures(mats), &self.colptr, &self.rowidx, ranges)
        })
    }

    /// The scatter map, if a hit has built it.
    pub(crate) fn built_scatter_map(&self) -> Option<&ScatterMap> {
        self.scatter.get()
    }
}

/// Where every input entry lands in a cached output structure, so a hit's
/// numeric phase is a pure scatter: `out[slot] = v` on a first touch,
/// `combine(&mut out[slot], v)` otherwise.
///
/// Operand-major and aligned with each operand's `rowidx`: entry `e` of
/// operand `i` has global index `base(i) + e`. Costs 4 B per input
/// nonzero plus one first-touch bit. The first touch of a slot is the
/// first entry in operand order, then entry order — exactly the order
/// in which every k-way kernel folds duplicates — so scattering in that
/// order reproduces the cold result bit for bit. The explicit mark
/// (rather than zero-init and combine) keeps a lone `-0.0` intact under
/// `Plus`.
#[derive(Debug)]
pub(crate) struct ScatterMap {
    /// Start of each operand's block (k + 1 entries).
    offsets: Vec<usize>,
    /// Each entry's position inside its output column. Output rows are
    /// distinct `u32`s, so a position always fits.
    pos: Vec<u32>,
    /// Bit `g` is set iff entry `g` is the first to touch its slot.
    first: Vec<u64>,
}

impl ScatterMap {
    /// Maps every entry of `mats` into the output structure
    /// `colptr`/`rowidx` (their set union), one column range per task.
    pub(crate) fn build(
        mats: &[Structure<'_>],
        colptr: &[usize],
        rowidx: &[u32],
        ranges: &[Range<usize>],
    ) -> Self {
        let mut offsets = vec![0usize];
        let mut total = 0usize;
        for (_, rows) in mats {
            total += rows.len();
            offsets.push(total);
        }
        let mut pos = vec![0u32; total];
        // A bit word can hold entries of two tasks, hence atomics.
        // `Relaxed` suffices: the fork-join's join orders every `fetch_or`
        // before `into_inner` reads the words.
        let first: Vec<AtomicU64> = (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        // Carve `pos` into one window per (range, operand); the ranges
        // tile the columns in order, so the windows are disjoint.
        let mut windows: Vec<Vec<&mut [u32]>> = ranges
            .iter()
            .map(|_| Vec::with_capacity(mats.len()))
            .collect();
        let mut rest = pos.as_mut_slice();
        for (cp, rows) in mats {
            let (mut operand, tail) = std::mem::take(&mut rest).split_at_mut(rows.len());
            rest = tail;
            for (r, w) in ranges.iter().zip(&mut windows) {
                let (head, tail) =
                    std::mem::take(&mut operand).split_at_mut(cp[r.end] - cp[r.start]);
                w.push(head);
                operand = tail;
            }
        }
        ranges
            .to_vec()
            .into_par_iter()
            .zip(windows.into_par_iter())
            .for_each(|(cols, mut windows)| {
                // (row << 32 | position) of the current output column,
                // sorted by row for binary search; already sorted unless
                // the plan emits unsorted columns.
                let mut keys: Vec<u64> = Vec::new();
                let mut seen: Vec<bool> = Vec::new();
                for j in cols.clone() {
                    let out = &rowidx[colptr[j]..colptr[j + 1]];
                    keys.clear();
                    keys.extend(
                        out.iter()
                            .enumerate()
                            .map(|(p, &r)| (u64::from(r) << 32) | p as u64),
                    );
                    keys.sort_unstable();
                    seen.clear();
                    seen.resize(out.len(), false);
                    for (i, ((cp, rows), window)) in mats.iter().zip(windows.iter_mut()).enumerate()
                    {
                        for e in cp[j]..cp[j + 1] {
                            let r = u64::from(rows[e]);
                            let at = keys.partition_point(|&key| key >> 32 < r);
                            debug_assert_eq!(keys[at] >> 32, r, "row absent from cached structure");
                            let p = keys[at] as u32;
                            window[e - cp[cols.start]] = p;
                            if !seen[p as usize] {
                                seen[p as usize] = true;
                                let g = offsets[i] + e;
                                first[g / 64].fetch_or(1 << (g % 64), Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        Self {
            offsets,
            pos,
            first: first.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }

    /// Whether `mats` have as many operands, each with as many entries,
    /// as the inputs the map was built from. Then every input entry has a
    /// map slot, so a sweep of `mats` through the map stays in bounds
    /// even before their structure is known to match.
    pub(crate) fn fits(&self, mats: &[Structure<'_>]) -> bool {
        self.offsets.len() == mats.len() + 1
            && mats
                .iter()
                .zip(self.offsets.windows(2))
                .all(|((_, rows), w)| rows.len() == w[1] - w[0])
    }

    /// Global index of operand `i`'s first entry.
    #[inline]
    pub(crate) fn base(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Entry `g`'s position inside its output column and whether it is
    /// that slot's first touch.
    #[inline(always)]
    pub(crate) fn slot(&self, g: usize) -> (usize, bool) {
        (
            self.pos[g] as usize,
            (self.first[g / 64] >> (g % 64)) & 1 == 1,
        )
    }
}

#[derive(Debug)]
struct Slot {
    pattern: Arc<Pattern>,
    last_used: u64,
}

/// How one execution interacted with the plan's pattern cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternOutcome {
    /// The plan has no cache (`pattern_cache(0)`, the default).
    #[default]
    Disabled,
    /// A cache exists but this execution could not use it: either the
    /// monoid filters (`MAY_FILTER` — output structure depends on
    /// values), or the resolved algorithm is a 2-way/library fold with no
    /// symbolic phase to skip.
    Bypassed,
    /// The structure was fingerprinted but not found; the cold result's
    /// structure was inserted for next time.
    Miss,
    /// The structure was found — symbolic was skipped entirely.
    Hit,
}

/// Bounded LRU map from [`PatternFingerprint`] to cached output
/// structure, retained inside a [`crate::SpkAddPlan`].
///
/// Capacities are expected to be tiny (1–8): a streaming accumulator
/// flushes one batch shape, an aggregation-service key sees one gradient
/// layout. Eviction is therefore a linear scan for the oldest stamp — no
/// intrusive list needed at these sizes.
#[derive(Debug)]
pub struct PatternCache {
    capacity: usize,
    entries: HashMap<PatternFingerprint, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// The fingerprint the last lookup hit, and whether the lookup before
    /// it hit the same one.
    recent: Option<(PatternFingerprint, bool)>,
    /// Process-wide `spkadd.pattern.*` counters, resolved once at
    /// construction so the per-lookup cost is one relaxed add.
    obs: PatternObs,
}

/// Handles into [`spk_obs::global`] mirroring the per-cache counters,
/// so traces and metrics dumps see pattern traffic across every cache
/// in the process (per-plan stats stay exact via `stats()`).
#[derive(Debug)]
struct PatternObs {
    hits: Arc<spk_obs::Counter>,
    misses: Arc<spk_obs::Counter>,
    insertions: Arc<spk_obs::Counter>,
    evictions: Arc<spk_obs::Counter>,
}

impl PatternObs {
    fn new() -> Self {
        let reg = spk_obs::global();
        PatternObs {
            hits: reg.counter("spkadd.pattern.hits"),
            misses: reg.counter("spkadd.pattern.misses"),
            insertions: reg.counter("spkadd.pattern.insertions"),
            evictions: reg.counter("spkadd.pattern.evictions"),
        }
    }
}

impl PatternCache {
    pub(crate) fn new(capacity: usize) -> Self {
        debug_assert!(capacity > 0, "a zero-capacity cache should be None");
        Self {
            capacity,
            entries: HashMap::with_capacity(capacity),
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            recent: None,
            obs: PatternObs::new(),
        }
    }

    /// Looks a fingerprint up, counting the hit/miss and refreshing the
    /// entry's recency on a hit. The entry is returned by `Arc` so the
    /// borrow does not pin the cache across the numeric phase.
    pub(crate) fn lookup(&mut self, fp: &PatternFingerprint) -> Option<Arc<Pattern>> {
        self.tick += 1;
        match self.entries.get_mut(fp) {
            Some(slot) => {
                self.hits += 1;
                self.obs.hits.inc();
                slot.last_used = self.tick;
                let again = self.recent.is_some_and(|(last, _)| last == *fp);
                self.recent = Some((*fp, again));
                Some(Arc::clone(&slot.pattern))
            }
            None => {
                self.misses += 1;
                self.obs.misses.inc();
                self.recent = None;
                None
            }
        }
    }

    /// The pattern the last two lookups both hit, once a hit has built its
    /// scatter map: the next collection of a steady stream most likely
    /// repeats it, so the plan scatters into it while fingerprinting
    /// (see `SpkAddPlan::run`). Streams that alternate between patterns
    /// never hit one twice in a row, so they are never offered one.
    pub(crate) fn repeating(&self) -> Option<Arc<Pattern>> {
        let (fp, true) = self.recent? else {
            return None;
        };
        let pattern = &self.entries.get(&fp)?.pattern;
        pattern.built_scatter_map()?;
        Some(Arc::clone(pattern))
    }

    /// Inserts (or refreshes) a structure together with the per-chunk
    /// kernel decisions that materialized it, evicting the
    /// least-recently used entry when at capacity.
    pub(crate) fn insert(
        &mut self,
        fp: PatternFingerprint,
        colptr: &[usize],
        rowidx: &[u32],
        kernels: &[NumericKernel],
    ) {
        self.tick += 1;
        if !self.entries.contains_key(&fp) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
                self.obs.evictions.inc();
            }
        }
        self.insertions += 1;
        self.obs.insertions.inc();
        self.entries.insert(
            fp,
            Slot {
                pattern: Arc::new(Pattern {
                    colptr: colptr.to_vec(),
                    rowidx: rowidx.to_vec(),
                    kernels: Arc::new(kernels.to_vec()),
                    scatter: OnceLock::new(),
                }),
                last_used: self.tick,
            },
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PatternCacheStats {
        PatternCacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Counter snapshot of a [`PatternCache`] (see
/// [`crate::SpkAddPlan::pattern_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCacheStats {
    /// Lookups that found their structure (symbolic skipped).
    pub hits: u64,
    /// Lookups that did not (cold execution, structure inserted after).
    pub misses: u64,
    /// Structures stored (one per miss on the non-filtering k-way path).
    pub insertions: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Structures currently cached.
    pub entries: usize,
    /// The configured LRU bound.
    pub capacity: usize,
}

impl PatternCacheStats {
    /// Hit fraction over all lookups (0.0 when none happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize, shift: u32) -> CscMatrix<f64> {
        let colptr = (0..=n).collect();
        let rows = (0..n as u32).map(|j| (j + shift) % n as u32).collect();
        CscMatrix::try_new(n, n, colptr, rows, vec![1.0; n]).unwrap()
    }

    #[test]
    fn same_structure_same_print_regardless_of_values() {
        let a = diag(8, 0);
        let mut b = diag(8, 0);
        b.values_mut().iter_mut().for_each(|v| *v = 42.0);
        assert_eq!(
            PatternFingerprint::of(&[&a]),
            PatternFingerprint::of(&[&b]),
            "values must not enter the fingerprint"
        );
    }

    #[test]
    fn order_and_structure_sensitivity() {
        let a = diag(8, 0);
        let b = diag(8, 3);
        let ab = PatternFingerprint::of(&[&a, &b]);
        let ba = PatternFingerprint::of(&[&b, &a]);
        assert_ne!(ab, ba, "order-sensitive");
        assert_ne!(
            PatternFingerprint::of(&[&a, &a]),
            PatternFingerprint::of(&[&a, &b]),
            "structure-sensitive"
        );
        assert_ne!(
            PatternFingerprint::of(&[&a]),
            PatternFingerprint::of(&[&a, &a]),
            "k-sensitive"
        );
    }

    #[test]
    fn single_rowidx_mutation_changes_the_print() {
        let a = diag(8, 0);
        let (m, n, colptr, mut rows, vals) = diag(8, 0).into_parts();
        rows[3] = (rows[3] + 1) % 8;
        let mutated = CscMatrix::try_new(m, n, colptr, rows, vals).unwrap();
        assert_ne!(
            PatternFingerprint::of(&[&a]),
            PatternFingerprint::of(&[&mutated])
        );
    }

    /// A small deterministic generator (tests only need variety).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// Random columns of up to `max_len` rows below `m`, sorted or not,
    /// with duplicates unless `strict`, and some empty columns.
    fn random_matrix(
        rng: &mut Lcg,
        m: u32,
        n: usize,
        max_len: u64,
        sorted: bool,
    ) -> CscMatrix<f64> {
        let mut colptr = vec![0usize];
        let mut rows = Vec::new();
        for _ in 0..n {
            let len = if rng.below(4) == 0 {
                0
            } else {
                rng.below(max_len + 1)
            };
            let mut col: Vec<u32> = (0..len).map(|_| rng.below(u64::from(m)) as u32).collect();
            if sorted {
                col.sort_unstable();
                col.dedup();
            }
            rows.extend(col);
            colptr.push(rows.len());
        }
        let vals = vec![1.0; rows.len()];
        CscMatrix::try_new(m as usize, n, colptr, rows, vals).unwrap()
    }

    #[test]
    fn scan_verdicts_match_is_sorted() {
        let mut rng = Lcg(7);
        let mut seen = [false; 2];
        for case in 0..200 {
            let m = 1 + rng.below(40) as u32;
            let n = 1 + rng.below(9) as usize;
            let mats: Vec<CscMatrix<f64>> = (0..1 + rng.below(4))
                .map(|_| random_matrix(&mut rng, m, n, 6, case % 3 != 0))
                .collect();
            let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
            let (fp, verdicts) = PatternFingerprint::scan(&refs);
            assert_eq!(fp, PatternFingerprint::of(&refs));
            for (a, &v) in refs.iter().zip(&verdicts) {
                assert_eq!(v, a.is_sorted(), "case {case}: {a:?}");
                seen[usize::from(v)] = true;
            }
        }
        assert_eq!(seen, [true, true], "both verdicts exercised");
        // Descents only across column boundaries (including past an
        // empty column) leave the matrix sorted; one inside a column
        // does not.
        let across =
            CscMatrix::try_new(9, 4, vec![0, 2, 2, 4, 5], vec![5, 8, 1, 3, 0], vec![1.0; 5]);
        let inside = CscMatrix::try_new(9, 2, vec![0, 2, 3], vec![8, 5, 0], vec![1.0; 3]);
        for (m, sorted) in [(across.unwrap(), true), (inside.unwrap(), false)] {
            assert_eq!(m.is_sorted(), sorted);
            assert_eq!(PatternFingerprint::scan(&[&m]).1, vec![sorted]);
        }
    }

    #[test]
    fn scatter_map_matches_brute_force() {
        let mut rng = Lcg(11);
        for case in 0..100 {
            let (m, n) = (1 + rng.below(30) as u32, 1 + rng.below(12) as usize);
            let mats: Vec<CscMatrix<f64>> = (0..1 + rng.below(5))
                .map(|_| random_matrix(&mut rng, m, n, 8, case % 2 == 0))
                .collect();
            let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
            // The output structure: each column's row union, in a
            // shuffled order for odd cases (unsorted emission).
            let mut colptr = vec![0usize];
            let mut rowidx = Vec::new();
            for j in 0..n {
                let mut union: Vec<u32> =
                    refs.iter().flat_map(|a| a.col(j).rows.to_vec()).collect();
                union.sort_unstable();
                union.dedup();
                if case % 2 == 1 {
                    for i in (1..union.len()).rev() {
                        union.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                rowidx.extend(union);
                colptr.push(rowidx.len());
            }
            let cuts = 1 + rng.below(n as u64) as usize;
            let ranges: Vec<Range<usize>> = (0..cuts)
                .map(|c| c * n / cuts..(c + 1) * n / cuts)
                .collect();
            let map = ScatterMap::build(&structures(&refs), &colptr, &rowidx, &ranges);
            for j in 0..n {
                let out = &rowidx[colptr[j]..colptr[j + 1]];
                let mut touched = std::collections::HashSet::new();
                for (i, a) in refs.iter().enumerate() {
                    for e in a.colptr()[j]..a.colptr()[j + 1] {
                        let r = a.rowidx()[e];
                        let (p, first) = map.slot(map.base(i) + e);
                        assert_eq!(out[p], r, "case {case}: operand {i} entry {e}");
                        assert_eq!(first, touched.insert(r), "case {case}: first-touch mark");
                    }
                }
                assert_eq!(touched.len(), out.len(), "every slot is touched");
            }
        }
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut cache = PatternCache::new(2);
        let prints: Vec<PatternFingerprint> = (0..3)
            .map(|s| {
                let m = diag(8, s);
                PatternFingerprint::of(&[&m])
            })
            .collect();
        let cp = vec![0usize; 9];
        let ri = vec![0u32; 0];
        cache.insert(prints[0], &cp, &ri, &[]);
        cache.insert(prints[1], &cp, &ri, &[]);
        assert!(cache.lookup(&prints[0]).is_some(), "refresh 0's recency");
        cache.insert(prints[2], &cp, &ri, &[]); // evicts 1, the LRU entry
        assert!(cache.lookup(&prints[0]).is_some());
        assert!(cache.lookup(&prints[1]).is_none(), "1 was evicted");
        assert!(cache.lookup(&prints[2]).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, 2);
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn repeating_needs_two_hits_in_a_row_and_a_built_map() {
        let (a, b, c) = (diag(8, 0), diag(8, 1), diag(8, 2));
        let print = |m: &CscMatrix<f64>| PatternFingerprint::of(&[m]);
        let mut cache = PatternCache::new(2);
        for m in [&a, &b] {
            cache.insert(print(m), m.colptr(), m.rowidx(), &[]);
        }
        let pa = cache.lookup(&print(&a)).unwrap();
        assert!(cache.repeating().is_none(), "one hit is no streak");
        cache.lookup(&print(&a)).unwrap();
        assert!(cache.repeating().is_none(), "no map built yet");
        let map = pa.scatter_map(&[&a], &[0..4, 4..8]);
        assert!(map.fits(&structures(&[&a])));
        assert!(map.fits(&structures(&[&b])), "same entry count");
        assert!(!map.fits(&structures(&[&a, &a])), "operand count");
        assert!(!map.fits(&structures(&[&CscMatrix::<f64>::zeros(8, 8)])));
        let guess = cache.repeating().expect("two hits on a built map");
        assert!(Arc::ptr_eq(&guess, &pa));
        // Alternating patterns never repeat; a miss ends the streak.
        cache.lookup(&print(&b)).unwrap();
        assert!(cache.repeating().is_none());
        cache.lookup(&print(&a)).unwrap();
        assert!(cache.repeating().is_none());
        cache.lookup(&print(&a)).unwrap();
        assert!(cache.repeating().is_some());
        assert!(cache.lookup(&print(&c)).is_none());
        assert!(cache.repeating().is_none());
    }
}
