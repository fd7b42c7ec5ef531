//! Machine model and automatic algorithm selection.
//!
//! The sliding-hash algorithm is parameterized by the machine: last-level
//! cache capacity `M`, bytes per table entry `b`, and thread count `T`
//! (Algorithms 7/8). [`CacheConfig`] carries those parameters; `detect()`
//! reads them from sysfs with conservative fallbacks. The Fig 4
//! experiments reproduce the paper's Skylake-vs-EPYC contrast simply by
//! constructing configs with `M` = 32 MB vs 8 MB.
//!
//! [`choose_algorithm`] encodes the empirical decision surface of Fig 2:
//! hash everywhere, sliding hash once the aggregate tables outgrow the
//! LLC, and 2-way tree for trivially small collections.
//!
//! [`ChunkScorer`] re-derives that surface at *partition* granularity:
//! once the symbolic phase has fixed the output `colptr`, every
//! weight-balanced column chunk carries its local density, effective k,
//! and compression ratio for free, and [`Algorithm::Auto`] scores each
//! chunk independently instead of committing the whole collection to one
//! kernel. `choose_algorithm` still picks Auto's family (a k ≤ 2
//! collection stays one pairwise merge) and its symbolic strategy; a
//! caller who wants Fig 2's collection-level kernel forces the algorithm
//! it returns. Besides Fig 2's corners it knows one measured one: a chunk
//! that folds many inputs into each output entry (SpGEMM intermediates,
//! [`SPA_MIN_COMPRESSION`]) goes to the SPA while its panels fit the LLC.

use crate::hashtab::table_size_for;
use crate::kway::NumericKernel;
use crate::Algorithm;

/// Cache-hierarchy parameters used by the sliding-hash algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Last-level cache capacity in bytes (shared among threads) — `M`.
    pub llc_bytes: usize,
    /// L1 data-cache capacity in bytes (per core); informs very small
    /// table sweet spots (Fig 4(a)).
    pub l1_bytes: usize,
}

impl CacheConfig {
    /// The paper's Intel Skylake 8160 platform (Table II): 32 MB LLC.
    pub fn skylake() -> Self {
        Self {
            llc_bytes: 32 << 20,
            l1_bytes: 32 << 10,
        }
    }

    /// The paper's AMD EPYC 7551 platform (Table II): 8 MB LLC.
    pub fn epyc() -> Self {
        Self {
            llc_bytes: 8 << 20,
            l1_bytes: 32 << 10,
        }
    }

    /// The paper's Cori KNL platform (Table II): 34 MB.
    pub fn knl() -> Self {
        Self {
            llc_bytes: 34 << 20,
            l1_bytes: 32 << 10,
        }
    }

    /// Probes sysfs for the running machine's caches; falls back to a
    /// 32 MB LLC / 32 KB L1 model when unavailable.
    pub fn detect() -> Self {
        let mut llc = 0usize;
        let mut l1 = 0usize;
        for idx in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let Ok(level) = std::fs::read_to_string(format!("{base}/level")) else {
                break;
            };
            let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
                continue;
            };
            let ctype = std::fs::read_to_string(format!("{base}/type")).unwrap_or_default();
            let Some(bytes) = parse_cache_size(size.trim()) else {
                continue;
            };
            let level: u32 = level.trim().parse().unwrap_or(0);
            if level == 1 && ctype.trim() != "Instruction" {
                l1 = l1.max(bytes);
            }
            if bytes > llc && level >= 2 {
                llc = bytes;
            }
        }
        Self {
            llc_bytes: if llc == 0 { 32 << 20 } else { llc },
            l1_bytes: if l1 == 0 { 32 << 10 } else { l1 },
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::detect()
    }
}

/// Parses sysfs cache sizes like `32K`, `1M`, `32768`.
fn parse_cache_size(s: &str) -> Option<usize> {
    if let Some(v) = s.strip_suffix(['K', 'k']) {
        return v.trim().parse::<usize>().ok().map(|x| x << 10);
    }
    if let Some(v) = s.strip_suffix(['M', 'm']) {
        return v.trim().parse::<usize>().ok().map(|x| x << 20);
    }
    if let Some(v) = s.strip_suffix(['G', 'g']) {
        return v.trim().parse::<usize>().ok().map(|x| x << 30);
    }
    s.trim().parse::<usize>().ok()
}

/// Picks an algorithm from the collection shape, following the empirical
/// winners of Fig 2.
///
/// * `k` — number of matrices; `avg_out_col_nnz` — expected output
///   entries per column (estimate with `Σ nnz / (cf · n)`, or just
///   `Σ nnz / n` when the compression factor is unknown);
/// * `entry_bytes` — hash entry size (4 + sizeof value);
/// * `threads` — worker count sharing the LLC.
pub fn choose_algorithm(
    k: usize,
    avg_out_col_nnz: usize,
    entry_bytes: usize,
    threads: usize,
    cache: &CacheConfig,
) -> Algorithm {
    if k <= 2 {
        // A single pairwise merge; the streaming merge is optimal here.
        return Algorithm::TwoWayTree;
    }
    let table_bytes = crate::hashtab::table_size_for(avg_out_col_nnz) * entry_bytes;
    if table_bytes.saturating_mul(threads.max(1)) > cache.llc_bytes {
        Algorithm::SlidingHash
    } else {
        Algorithm::Hash
    }
}

/// A column chunk counts as "dense" when its average output column holds
/// at least `rows / SPA_DENSE_FRACTION` entries — at that fill the SPA's
/// O(rows) panel sweep costs at most a small constant per output entry
/// and beats hashing (Fig 2's dense corner, where SPA and hash converge).
pub const SPA_DENSE_FRACTION: usize = 8;

/// A chunk counts as "compressed" when it folds at least this many input
/// entries into each output entry (`nnz_in ≥ SPA_MIN_COMPRESSION ·
/// nnz_out`, the compression factor of Azad et al.). The SPA then makes
/// one direct store per input where the hash table pays a multiply, a
/// probe chain and a branch, and its O(rows) panel is paid for many times
/// over — as long as the workers' panels fit the LLC. Measured with
/// `protein_collection` intermediates on 2 workers (DESIGN.md, "The
/// scorer"): at 2¹⁷ rows the SPA wins from a compression of 1.5 up, at
/// 2²⁰ rows it loses up to 8 and ties at 12; 16 is the lowest threshold
/// with no measured loss.
pub const SPA_MIN_COMPRESSION: usize = 16;

/// Shape summary of one weight-balanced column chunk, computed from data
/// the symbolic phase already produced: the output `colptr` gives
/// `nnz_out` and the input `colptr`s give `nnz_in` / `k_eff` in O(k) per
/// chunk — no per-entry work, which is what makes per-partition scoring
/// effectively free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkProfile {
    /// Columns in the chunk.
    pub cols: usize,
    /// Matrices with at least one nonzero inside the chunk's column
    /// range — the k that the merge actually sees.
    pub k_eff: usize,
    /// Input nonzeros falling in the chunk.
    pub nnz_in: usize,
    /// Output nonzeros the chunk will produce (exact or upper bound,
    /// straight from the output `colptr`).
    pub nnz_out: usize,
}

impl ChunkProfile {
    /// Average output entries per column, rounded up (≥ 1 for any
    /// nonempty chunk).
    pub fn avg_out_col_nnz(&self) -> usize {
        if self.cols == 0 {
            0
        } else {
            self.nnz_out.div_ceil(self.cols)
        }
    }
}

/// The Fig 2 decision surface evaluated per column chunk instead of once
/// per collection ([`choose_algorithm`]'s partition-granularity twin).
///
/// Built once per execution from the machine model and resolved worker
/// count; [`ChunkScorer::choose`] is a pure function of the chunk profile
/// so the surface is unit-testable and the cache-simulator experiment can
/// replay it offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkScorer {
    /// Output row count (the SPA panel height).
    pub rows: usize,
    /// Numeric hash-entry bytes (`4 + sizeof(T)`, the paper's `b`).
    pub entry_bytes: usize,
    /// Workers sharing the LLC.
    pub threads: usize,
    /// Last-level cache capacity — `M` in Algorithms 7/8.
    pub llc_bytes: usize,
    /// Whether the heap kernel may be chosen: it requires sorted inputs,
    /// so the plan only sets this when sortedness was actually verified
    /// (never on an unchecked caller promise — same conservatism as the
    /// `Auto` resolver).
    pub heap_allowed: bool,
}

impl ChunkScorer {
    /// Picks the numeric kernel for one chunk.
    ///
    /// The surface, in priority order:
    /// 1. **Heap** for effectively-pairwise chunks (`k_eff ≤ 2`) and for
    ///    near-disjoint narrow merges (`k_eff ≤ 4` with < 25% duplicate
    ///    compression): the O(k)-state streaming merge needs no table at
    ///    all, and with few inputs its `lg k` factor is ~1.
    /// 2. **SPA** for compressed chunks (`nnz_in ≥`
    ///    [`SPA_MIN_COMPRESSION`] `· nnz_out`) whose workers' panels
    ///    (`rows · entry_bytes · threads`) fit the LLC: each input entry
    ///    is one direct store into a cache-resident panel.
    /// 3. **SPA / SlidingSpa** for dense chunks (average output column ≥
    ///    `rows` / [`SPA_DENSE_FRACTION`]): the dense-panel sweep is
    ///    branch-free at that fill; it slides when the aggregate panels
    ///    outgrow the LLC.
    /// 4. **Hash / SlidingHash** otherwise — exactly Fig 2, with the
    ///    chunk's local average column size in place of the global one.
    pub fn choose(&self, p: &ChunkProfile) -> NumericKernel {
        if p.nnz_out == 0 || p.cols == 0 {
            // Nothing to materialize; hash is the cheapest no-op.
            return NumericKernel::Hash;
        }
        if self.heap_allowed
            && (p.k_eff <= 2 || (p.k_eff <= 4 && p.nnz_in <= p.nnz_out + p.nnz_out / 4))
        {
            return NumericKernel::Heap;
        }
        let avg_out = p.avg_out_col_nnz();
        let threads = self.threads.max(1);
        let panel_bytes = self
            .rows
            .saturating_mul(self.entry_bytes)
            .saturating_mul(threads);
        if p.nnz_in >= p.nnz_out.saturating_mul(SPA_MIN_COMPRESSION)
            && panel_bytes <= self.llc_bytes
        {
            return NumericKernel::Spa;
        }
        if avg_out.saturating_mul(SPA_DENSE_FRACTION) >= self.rows && self.rows > 0 {
            return if panel_bytes > self.llc_bytes {
                NumericKernel::SlidingSpa
            } else {
                NumericKernel::Spa
            };
        }
        let table_bytes = table_size_for(avg_out).saturating_mul(self.entry_bytes);
        if table_bytes.saturating_mul(threads) > self.llc_bytes {
            NumericKernel::SlidingHash
        } else {
            NumericKernel::Hash
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_cache_size("32K"), Some(32 << 10));
        assert_eq!(parse_cache_size("8M"), Some(8 << 20));
        assert_eq!(parse_cache_size("1G"), Some(1 << 30));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("junk"), None);
    }

    #[test]
    fn detect_never_returns_zero() {
        let c = CacheConfig::detect();
        assert!(c.llc_bytes > 0);
        assert!(c.l1_bytes > 0);
    }

    #[test]
    fn presets_match_table_2() {
        assert_eq!(CacheConfig::skylake().llc_bytes, 32 << 20);
        assert_eq!(CacheConfig::epyc().llc_bytes, 8 << 20);
        assert_eq!(CacheConfig::knl().llc_bytes, 34 << 20);
    }

    fn scorer(rows: usize, llc: usize, heap_allowed: bool) -> ChunkScorer {
        ChunkScorer {
            rows,
            entry_bytes: 12,
            threads: 4,
            llc_bytes: llc,
            heap_allowed,
        }
    }

    fn profile(cols: usize, k_eff: usize, nnz_in: usize, nnz_out: usize) -> ChunkProfile {
        ChunkProfile {
            cols,
            k_eff,
            nnz_in,
            nnz_out,
        }
    }

    #[test]
    fn chunk_scorer_mirrors_figure_2() {
        // Tall output (2²⁷ rows) so even 1 M-entry columns stay "sparse"
        // relative to the row count — the hash/sliding axis, not SPA's.
        let s = scorer(1 << 27, 32 << 20, false);
        // Sparse chunk, small per-column tables → hash.
        assert_eq!(s.choose(&profile(64, 8, 4096, 1024)), NumericKernel::Hash);
        // Huge output columns → aggregate tables spill the LLC → sliding.
        // 1 M entries/col → ≥ 2²⁰ table slots · 12 B · 4 threads ≈ 100 MB.
        assert_eq!(
            s.choose(&profile(4, 8, 1 << 23, 1 << 22)),
            NumericKernel::SlidingHash
        );
        // Same shape, one thread and a large LLC → hash again.
        let roomy = ChunkScorer {
            threads: 1,
            llc_bytes: 1 << 30,
            ..s
        };
        assert_eq!(
            roomy.choose(&profile(4, 8, 1 << 23, 1 << 22)),
            NumericKernel::Hash
        );
    }

    #[test]
    fn chunk_scorer_dense_chunks_pick_the_spa_family() {
        // 1024 rows, avg output column 512 ≥ 1024/8 → dense → SPA.
        let s = scorer(1024, 32 << 20, false);
        assert_eq!(s.choose(&profile(8, 8, 8192, 4096)), NumericKernel::Spa);
        // Same density with panels that outgrow a tiny LLC → sliding SPA:
        // 1024 rows · 12 B · 4 threads = 48 KB > 16 KB.
        let tiny = scorer(1024, 16 << 10, false);
        assert_eq!(
            tiny.choose(&profile(8, 8, 8192, 4096)),
            NumericKernel::SlidingSpa
        );
    }

    #[test]
    fn chunk_scorer_compressed_chunks_pick_the_spa() {
        // Sparse chunk (8 output entries per column of 2¹⁷ rows) whose
        // panels fit: 2¹⁷ rows · 12 B · 4 threads = 6 MB ≤ 32 MB.
        let s = scorer(1 << 17, 32 << 20, true);
        let out = 64 * 8;
        let compressed = profile(64, 8, out * SPA_MIN_COMPRESSION, out);
        assert_eq!(s.choose(&compressed), NumericKernel::Spa);
        // The same shape at a compression of about 1 stays on hash.
        assert_eq!(s.choose(&profile(64, 8, out + 1, out)), NumericKernel::Hash);
        // Just below the threshold is still hash.
        assert_eq!(
            s.choose(&profile(64, 8, out * SPA_MIN_COMPRESSION - 1, out)),
            NumericKernel::Hash
        );
        // Panels that outgrow the LLC (6 MB > 4 MB) keep it off the SPA.
        let small_llc = scorer(1 << 17, 4 << 20, true);
        assert_eq!(small_llc.choose(&compressed), NumericKernel::Hash);
        // An effectively pairwise chunk is still the heap's, however
        // compressed.
        assert_eq!(
            s.choose(&profile(64, 2, out * SPA_MIN_COMPRESSION, out)),
            NumericKernel::Heap
        );
    }

    #[test]
    fn chunk_scorer_heap_needs_sorted_inputs_and_low_k_eff() {
        let s = scorer(1 << 20, 32 << 20, true);
        // Effectively pairwise → heap.
        assert_eq!(s.choose(&profile(64, 2, 2048, 2000)), NumericKernel::Heap);
        // Narrow and nearly disjoint (no compression) → heap.
        assert_eq!(s.choose(&profile(64, 4, 2100, 2048)), NumericKernel::Heap);
        // Narrow but heavily overlapping → the merge does k× the output
        // work; hash wins.
        assert_eq!(s.choose(&profile(64, 4, 8192, 2048)), NumericKernel::Hash);
        // Unverified sortedness never selects the heap.
        let unsorted = scorer(1 << 20, 32 << 20, false);
        assert_eq!(
            unsorted.choose(&profile(64, 2, 2048, 2000)),
            NumericKernel::Hash
        );
    }

    #[test]
    fn chunk_scorer_empty_chunk_is_a_hash_no_op() {
        let s = scorer(1 << 20, 32 << 20, true);
        assert_eq!(s.choose(&profile(16, 0, 0, 0)), NumericKernel::Hash);
        assert_eq!(s.choose(&profile(0, 0, 0, 0)), NumericKernel::Hash);
    }

    #[test]
    fn chooser_follows_figure_2() {
        let sky = CacheConfig::skylake();
        // k = 2: plain pairwise merge.
        assert_eq!(
            choose_algorithm(2, 1000, 12, 48, &sky),
            Algorithm::TwoWayTree
        );
        // Small tables, many threads: hash.
        assert_eq!(choose_algorithm(128, 2048, 12, 48, &sky), Algorithm::Hash);
        // The paper's spill example: k=128, d=512 → 65 536 entries/col,
        // 12-byte entries, 48 threads ≈ 38 MB > 32 MB LLC → sliding.
        assert_eq!(
            choose_algorithm(128, 65_536, 12, 48, &sky),
            Algorithm::SlidingHash
        );
        // Same shape on one thread fits: hash.
        assert_eq!(choose_algorithm(128, 65_536, 12, 1, &sky), Algorithm::Hash);
    }
}
