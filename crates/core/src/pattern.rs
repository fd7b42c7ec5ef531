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
//! into the (possibly recycled) output buffers, and runs a numeric-only
//! kernel that scatters values into the known structure.
//!
//! The cache is structural only — values never enter the fingerprint, and
//! cached entries never carry values — so a hit is always sound for
//! non-filtering monoids (the output structure is the set union of input
//! structures, independent of the values being folded). Filtering monoids
//! (`MAY_FILTER = true`) have value-dependent structure and bypass the
//! cache entirely; the plan layer enforces that.

use std::collections::HashMap;
use std::sync::Arc;

use crate::kway::NumericKernel;
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

    /// Absorbs a `u32` slice two words at a time (the rowidx hot path).
    fn push_u32s(&mut self, xs: &[u32]) {
        let mut it = xs.chunks_exact(2);
        for pair in &mut it {
            self.push((pair[0] as u64) | ((pair[1] as u64) << 32));
        }
        if let [last] = it.remainder() {
            // Distinct tag keeps `[x]` and `[x, 0]` apart.
            self.push((*last as u64) | (1 << 63));
        }
    }
}

/// Digests one matrix's structure into a two-lane summary. Includes a
/// separator word so an empty matrix still contributes state.
fn digest_one<T: Element>(a: &CscMatrix<T>) -> (u64, u64) {
    let mut ab = Absorber::new();
    ab.push(0xa5a5_a5a5_5a5a_5a5a ^ a.nnz() as u64);
    // Per-column counts determine `colptr` (given the CSC `colptr[0] = 0`
    // invariant and the column count absorbed by the caller), and fit a
    // u32 each — row indices are u32, so a column holds < 2³² entries —
    // which lets two columns share one absorbed word.
    let colptr = a.colptr();
    let mut i = 1;
    while i + 1 < colptr.len() {
        let d0 = (colptr[i] - colptr[i - 1]) as u64;
        let d1 = (colptr[i + 1] - colptr[i]) as u64;
        debug_assert!(d0 >> 32 == 0 && d1 >> 32 == 0);
        ab.push(d0 | (d1 << 32));
        i += 2;
    }
    if i < colptr.len() {
        ab.push(((colptr[i] - colptr[i - 1]) as u64) | (1 << 63));
    }
    ab.push_u32s(a.rowidx());
    ab.finish()
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
        let mut ab = Absorber::new();
        let (m, n) = if mats.is_empty() {
            (0, 0)
        } else {
            mats[0].shape()
        };
        ab.push(m as u64);
        ab.push(n as u64);
        let mut total_nnz = 0u64;
        let mut words = 0usize;
        for a in mats {
            total_nnz += a.nnz() as u64;
            words += a.nnz() / 2 + a.colptr().len();
        }
        let digests: Vec<(u64, u64)> = if words >= PARALLEL_DIGEST_WORDS && mats.len() > 1 {
            mats.to_vec().into_par_iter().map(digest_one).collect()
        } else {
            mats.iter().map(|a| digest_one(a)).collect()
        };
        for (da, db) in digests {
            ab.push(da);
            ab.push(db);
        }
        let (lane_a, lane_b) = ab.finish();
        Self {
            lane_a,
            lane_b,
            total_nnz,
            k: mats.len() as u32,
        }
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
    /// these instead of rescoring. Empty for non-adaptive insertions —
    /// the dispatch ignores it then.
    pub(crate) kernels: Arc<Vec<NumericKernel>>,
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
                Some(Arc::clone(&slot.pattern))
            }
            None => {
                self.misses += 1;
                self.obs.misses.inc();
                None
            }
        }
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
}
