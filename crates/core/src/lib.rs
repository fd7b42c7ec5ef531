//! # spkadd — parallel algorithms for adding a collection of sparse matrices
//!
//! A faithful, production-grade implementation of *"Parallel Algorithms
//! for Adding a Collection of Sparse Matrices"* (Hussain, Abhishek, Buluç,
//! Azad — arXiv:2112.10223): the **SpKAdd** operation `B = Σᵢ Aᵢ` over `k`
//! sparse CSC matrices.
//!
//! ## Algorithms
//!
//! | [`Algorithm`] | Paper | Work (ER, d/col) | I/O | Sorted inputs? |
//! |---|---|---|---|---|
//! | `TwoWayIncremental` | Alg 1 | O(k²nd) | O(k²nd) | yes |
//! | `TwoWayTree` | §II-B2 | O(knd·lg k) | O(knd·lg k) | yes |
//! | `LibIncremental`/`LibTree` | "MKL" baselines | — | — | yes |
//! | `Heap` | Alg 3 | O(knd·lg k) | O(knd) | yes |
//! | `Spa` | Alg 4 | O(knd) | O(knd) | no |
//! | `Hash` | Alg 5/6 | O(knd) | O(knd) | no |
//! | `SlidingHash` | Alg 7/8 | O(knd) | O(knd), in-cache tables | no* |
//! | `SlidingSpa` | §IV-B(b) extension | O(knd) | O(knd), in-cache panels | no* |
//!
//! *The sliding algorithms use binary-search row panels on sorted inputs
//! and a bucketing pass otherwise.
//!
//! Beyond the core API there is [`StreamingAccumulator`] (batched
//! streaming, the paper's future-work mode). Every algorithm works on CSC
//! operands only: the paper's §II-A remark that they apply equally to
//! CSR and doubly-compressed storage is not implemented (DESIGN.md).
//!
//! ## Quick start: build a plan, execute it
//!
//! The front door is a builder → plan → execute lifecycle. [`SpkAdd`]
//! fixes the shape, algorithm ([`Algorithm::Auto`] picks per collection
//! with the Fig 2 decision surface), thread count, and machine model;
//! [`SpkAdd::build`] validates the options and resolves them into a
//! reusable [`SpkAddPlan`] whose hash tables, SPA panels, heap buffers,
//! and symbolic scratch persist across executions — the steady-state
//! path performs **zero** workspace allocations, which is what makes
//! repeat callers (streaming flushes, aggregation-service shards,
//! benchmark rep loops) fast.
//!
//! ```
//! use spk_sparse::CscMatrix;
//! use spkadd::{Algorithm, SpkAdd};
//!
//! let a = CscMatrix::<f64>::identity(4);
//! let b = CscMatrix::<f64>::identity(4);
//! let c = CscMatrix::<f64>::identity(4);
//!
//! let mut plan = SpkAdd::new(4, 4)
//!     .algorithm(Algorithm::Auto) // or any of the paper's nine
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! let sum = plan.execute(&[&a, &b, &c]).unwrap();
//! assert_eq!(sum.get(2, 2).unwrap(), 3.0);
//!
//! // Re-execute at will: workspaces are reused instead of reallocated.
//! // `execute_into_timed` also recycles the output buffers and reports
//! // the phase timings and pattern-cache outcome.
//! let mut again = CscMatrix::zeros(0, 0);
//! let stats = plan.execute_into_timed(&[&a, &b, &c], &mut again).unwrap();
//! assert_eq!(again, sum);
//! assert!(!stats.symbolic_skipped);
//! ```
//!
//! Every kernel and driver is generic over the [`Monoid`] that folds
//! duplicate coordinates; [`SpkAdd::build`] fixes it to [`Plus`] and
//! [`SpkAdd::build_with_monoid`] takes any other. The one one-shot entry
//! point, [`spkadd_with`], is a thin shim over a throwaway plan; prefer
//! holding a [`SpkAddPlan`] anywhere an addition runs more than once.

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

pub mod error;
pub mod hashtab;
pub mod heap;
pub mod kernels;
mod kway;
pub mod libstyle;
pub mod mem;
pub mod metered;
pub mod monoid;
pub mod parallel;
pub mod pattern;
pub mod plan;
pub mod sliding;
pub mod spa;
pub mod streaming;
pub mod symbolic;
pub mod tuning;
pub mod twoway;
pub mod workspace;

pub use error::SpkaddError;
pub use kway::{KernelCounts, NumericKernel};
pub use mem::{CountingModel, MemModel, NullModel};
pub use monoid::{MaxPlus, Min, Monoid, Or, Plus, SaturatingCount, ThresholdedPlus};
pub use parallel::Scheduling;
pub use pattern::{PatternCacheStats, PatternFingerprint, PatternOutcome};
pub use plan::{SpkAdd, SpkAddPlan};
pub use streaming::{FlushPolicy, StreamingAccumulator};
pub use symbolic::SymbolicStrategy;
pub use tuning::{choose_algorithm, CacheConfig, ChunkProfile, ChunkScorer};
pub use twoway::add_pair;

use spk_sparse::{common_shape, CscMatrix, Element, Scalar};

/// The SpKAdd algorithm family (see the crate docs for the complexity
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Fold the collection with pairwise merges (Algorithm 1).
    TwoWayIncremental,
    /// Balanced binary tree of pairwise merges (§II-B2).
    TwoWayTree,
    /// Incremental addition through a library-style primitive (stands in
    /// for the paper's "MKL Incremental" baseline).
    LibIncremental,
    /// Tree addition through a library-style primitive ("MKL Tree").
    LibTree,
    /// k-way merge with a min-heap (Algorithm 3).
    Heap,
    /// k-way addition with a dense sparse accumulator (Algorithm 4).
    Spa,
    /// k-way addition with per-column hash tables (Algorithms 5/6) — the
    /// paper's work- and I/O-optimal winner.
    Hash,
    /// Hash with cache-budgeted sliding tables (Algorithms 7/8) — the
    /// winner once tables outgrow the last-level cache.
    SlidingHash,
    /// SPA with a row-partitioned (cache-resident) accumulator — the
    /// paper's §IV-B(b) suggested extension, implemented here and
    /// evaluated by the `ablation_slidingspa` harness.
    SlidingSpa,
    /// Pick per collection with the Fig 2 decision surface
    /// ([`choose_algorithm`]): pairwise merge for trivially small
    /// collections, hash while the tables fit the LLC, sliding hash
    /// beyond. Resolved at execution time, so one [`SpkAddPlan`] built
    /// with `Auto` adapts to each collection it executes.
    Auto,
}

impl Algorithm {
    /// The paper's eight algorithms, in its table order (extensions such
    /// as [`Algorithm::SlidingSpa`] are not included, so the table
    /// harnesses reproduce the paper's rows exactly).
    pub const ALL: [Algorithm; 8] = [
        Algorithm::TwoWayIncremental,
        Algorithm::LibIncremental,
        Algorithm::TwoWayTree,
        Algorithm::LibTree,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::Hash,
        Algorithm::SlidingHash,
    ];

    /// Extensions beyond the paper's evaluated set.
    pub const EXTENSIONS: [Algorithm; 1] = [Algorithm::SlidingSpa];

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TwoWayIncremental => "2-way Incremental",
            Algorithm::TwoWayTree => "2-way Tree",
            Algorithm::LibIncremental => "Lib Incremental",
            Algorithm::LibTree => "Lib Tree",
            Algorithm::Heap => "Heap",
            Algorithm::Spa => "SPA",
            Algorithm::Hash => "Hash",
            Algorithm::SlidingHash => "Sliding Hash",
            Algorithm::SlidingSpa => "Sliding SPA",
            Algorithm::Auto => "Auto",
        }
    }

    /// Stable kebab-case token, the canonical [`std::str::FromStr`] /
    /// CLI spelling ([`Algorithm::name`] also parses back).
    pub fn token(&self) -> &'static str {
        match self {
            Algorithm::TwoWayIncremental => "2way-incremental",
            Algorithm::TwoWayTree => "2way-tree",
            Algorithm::LibIncremental => "lib-incremental",
            Algorithm::LibTree => "lib-tree",
            Algorithm::Heap => "heap",
            Algorithm::Spa => "spa",
            Algorithm::Hash => "hash",
            Algorithm::SlidingHash => "sliding-hash",
            Algorithm::SlidingSpa => "sliding-spa",
            Algorithm::Auto => "auto",
        }
    }

    /// Every accepted token, for error messages and usage strings.
    pub fn tokens() -> [&'static str; 10] {
        [
            Algorithm::Hash.token(),
            Algorithm::SlidingHash.token(),
            Algorithm::Spa.token(),
            Algorithm::SlidingSpa.token(),
            Algorithm::Heap.token(),
            Algorithm::TwoWayTree.token(),
            Algorithm::TwoWayIncremental.token(),
            Algorithm::LibTree.token(),
            Algorithm::LibIncremental.token(),
            Algorithm::Auto.token(),
        ]
    }

    /// Whether the algorithm requires sorted, duplicate-free input columns
    /// (Table I, last column). [`Algorithm::Auto`] never requires them:
    /// its resolution falls back to hash for unsorted collections.
    pub fn needs_sorted_inputs(&self) -> bool {
        matches!(
            self,
            Algorithm::TwoWayIncremental
                | Algorithm::TwoWayTree
                | Algorithm::LibIncremental
                | Algorithm::LibTree
                | Algorithm::Heap
        )
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = SpkaddError;

    /// Parses either the kebab-case token ([`Algorithm::token`]) or the
    /// paper-table display name ([`Algorithm::name`]), case- and
    /// punctuation-insensitively, so `Display` round-trips.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase();
        Ok(match norm.as_str() {
            "2wayincremental" | "twowayincremental" => Algorithm::TwoWayIncremental,
            "2waytree" | "twowaytree" => Algorithm::TwoWayTree,
            "libincremental" => Algorithm::LibIncremental,
            "libtree" => Algorithm::LibTree,
            "heap" => Algorithm::Heap,
            "spa" => Algorithm::Spa,
            "hash" => Algorithm::Hash,
            "slidinghash" => Algorithm::SlidingHash,
            "slidingspa" => Algorithm::SlidingSpa,
            "auto" => Algorithm::Auto,
            _ => return Err(SpkaddError::UnknownAlgorithm(s.to_string())),
        })
    }
}

/// Execution options shared by all algorithms.
#[derive(Debug, Clone)]
pub struct Options {
    /// Worker threads; 0 uses the ambient rayon pool.
    pub threads: usize,
    /// Emit output columns sorted by row index. Turning this off lets the
    /// hash/SPA algorithms skip the per-column sort — the mode that makes
    /// the downstream SpGEMM of Fig 6 another ~20% faster.
    pub sorted_output: bool,
    /// Column-scheduling policy (§III-A).
    pub scheduling: Scheduling,
    /// Symbolic-phase strategy (§II-D).
    pub symbolic: SymbolicStrategy,
    /// Machine model for the sliding-hash budgets.
    pub cache: CacheConfig,
    /// Overrides the sliding-table budget in entries (the x-axis of
    /// Fig 4); for [`Algorithm::SlidingSpa`] the same number is the row
    /// width of one SPA panel (both cost ~12 bytes/entry). `None` derives
    /// the budget from `cache`.
    pub forced_table_entries: Option<usize>,
    /// Check input sortedness up front and fail fast for algorithms that
    /// require it. Disable only when the caller guarantees sortedness.
    pub validate_sorted: bool,
    /// Capacity of the plan's pattern cache (LRU over collection
    /// structure fingerprints); `0` disables caching. When a collection
    /// with previously-seen sparsity is executed, the symbolic phase is
    /// skipped and the values are scattered straight into the cached
    /// output structure — see [`pattern`] and
    /// [`SpkAdd::pattern_cache`](plan::SpkAdd::pattern_cache).
    pub pattern_cache: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            threads: 0,
            sorted_output: true,
            scheduling: Scheduling::default(),
            symbolic: SymbolicStrategy::Hash,
            cache: CacheConfig::detect(),
            forced_table_entries: None,
            validate_sorted: true,
            pattern_cache: 0,
        }
    }
}

impl Options {
    /// Options with a fixed thread count (builder-style convenience).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Options with unsorted output emission.
    pub fn unsorted_output(mut self) -> Self {
        self.sorted_output = false;
        self
    }

    /// Rejects nonsense configurations up front with a typed error, so
    /// they surface at plan construction instead of as a downstream
    /// panic or a silently clamped budget. Called by [`SpkAdd::build`]
    /// (and therefore by every one-shot entry point).
    pub fn validate(&self) -> Result<(), SpkaddError> {
        if self.forced_table_entries == Some(0) {
            return Err(SpkaddError::InvalidOptions(
                "forced_table_entries must be at least 1 (a zero-entry sliding \
                 table could never hold a row)"
                    .to_string(),
            ));
        }
        if self.cache.llc_bytes == 0 {
            return Err(SpkaddError::InvalidOptions(
                "cache.llc_bytes must be nonzero (the sliding budgets divide by \
                 it; use CacheConfig::detect() or a Table II preset)"
                    .to_string(),
            ));
        }
        if self.cache.l1_bytes == 0 {
            return Err(SpkaddError::InvalidOptions(
                "cache.l1_bytes must be nonzero".to_string(),
            ));
        }
        if let Scheduling::Dynamic {
            chunks_per_thread: 0,
        } = self.scheduling
        {
            return Err(SpkaddError::InvalidOptions(
                "Scheduling::Dynamic needs chunks_per_thread >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Hash-table entry size in bytes for value type `T` during the numeric
/// phase: a 4-byte row index plus the value (8 bytes for `f32`, 12 for
/// `f64` — the paper's `b`).
pub fn numeric_entry_bytes<T: Element>() -> usize {
    4 + std::mem::size_of::<T>()
}

/// Symbolic-phase entry size: row index only (the paper's 4 bytes).
pub const SYMBOLIC_ENTRY_BYTES: usize = 4;

/// Per-execution statistics: the wall-clock split between the two phases
/// of a k-way SpKAdd (the series of Fig 4) plus the pattern-cache
/// outcome.
///
/// `symbolic == 0.0` alone is ambiguous — the 2-way and library
/// algorithms have no symbolic phase at all — so a *skipped* (not merely
/// trivial) phase is reported explicitly via
/// [`ExecuteStats::symbolic_skipped`], and [`ExecuteStats::pattern`]
/// says why.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecuteStats {
    /// Seconds spent computing per-column output sizes (§II-D); zero when
    /// the phase was skipped (cache hit) or the algorithm has none.
    pub symbolic: f64,
    /// Seconds spent in the numeric addition phase.
    pub numeric: f64,
    /// Seconds of pattern-cache overhead: the one parallel sweep over the
    /// inputs' structure that fingerprints them and checks their
    /// sortedness, the lookup, and, on a miss, capturing the output
    /// structure for next time. Zero when the plan has no cache or its
    /// monoid filters; then sortedness is validated by a serial scan that
    /// no phase counts. When the sweep shares one parallel region with a
    /// scatter into a repeating pattern, the region's wall time is split
    /// between this and [`ExecuteStats::numeric`] by the two sweeps'
    /// shares of the worker time (a scatter whose guess the lookup did
    /// not confirm still counts as numeric).
    pub fingerprint: f64,
    /// `true` iff the symbolic phase was skipped outright because the
    /// collection's structure was found in the plan's pattern cache.
    pub symbolic_skipped: bool,
    /// How this execution interacted with the pattern cache.
    pub pattern: PatternOutcome,
    /// Per-chunk kernel histogram of the k-way numeric phase: how many
    /// weight-balanced column chunks each [`NumericKernel`] materialized.
    /// A forced algorithm reports a single-kernel histogram; the
    /// 2-way/library folds report an empty one. On a pattern-cache hit no
    /// column kernel runs — the cached scatter map places every value —
    /// and the histogram is the cold run's decisions, replayed.
    pub kernel_counts: KernelCounts,
}

impl ExecuteStats {
    /// Total seconds across both phases and the cache overhead.
    pub fn total(&self) -> f64 {
        self.symbolic + self.numeric + self.fingerprint
    }
}

/// Adds a collection of sparse matrices with an explicit algorithm choice.
///
/// All inputs must share one shape. Algorithms flagged by
/// [`Algorithm::needs_sorted_inputs`] reject unsorted inputs (unless
/// `validate_sorted` is off); the hash and SPA families accept anything.
///
/// **Compatibility shim**: builds a throwaway [`SpkAddPlan`] and executes
/// it once, so every call re-allocates the kernel workspaces the plan
/// exists to amortize. Callers that add more than once should hold a
/// plan (`SpkAdd::new(m, n).algorithm(alg).build()`) instead.
pub fn spkadd_with<T: Scalar>(
    mats: &[&CscMatrix<T>],
    alg: Algorithm,
    opts: &Options,
) -> Result<CscMatrix<T>, SpkaddError> {
    let (nrows, ncols) = common_shape(mats)?;
    SpkAdd::new(nrows, ncols)
        .algorithm(alg)
        .options(opts.clone())
        .build::<T>()?
        .execute(mats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spk_sparse::DenseMatrix;

    fn dense_sum(mats: &[&CscMatrix<f64>]) -> DenseMatrix<f64> {
        let mut acc = DenseMatrix::zeros(mats[0].nrows(), mats[0].ncols());
        for m in mats {
            acc.add_assign(&DenseMatrix::from_csc(m)).unwrap();
        }
        acc
    }

    fn collection() -> Vec<CscMatrix<f64>> {
        // Deterministic small collection with overlaps and empties.
        let a = CscMatrix::try_new(
            6,
            4,
            vec![0, 2, 2, 4, 5],
            vec![0, 3, 1, 4, 5],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let b = CscMatrix::try_new(
            6,
            4,
            vec![0, 1, 3, 3, 5],
            vec![3, 0, 1, 0, 5],
            vec![10.0, 20.0, 30.0, 40.0, 50.0],
        )
        .unwrap();
        let c = CscMatrix::try_new(6, 4, vec![0, 0, 0, 1, 1], vec![4], vec![100.0]).unwrap();
        vec![a, b, c]
    }

    #[test]
    fn every_algorithm_matches_the_oracle() {
        let ms = collection();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let expect = dense_sum(&refs);
        let opts = Options::default();
        for alg in Algorithm::ALL {
            let out = spkadd_with(&refs, alg, &opts).unwrap();
            assert_eq!(
                DenseMatrix::from_csc(&out).max_abs_diff(&expect),
                0.0,
                "{alg} wrong"
            );
        }
    }

    #[test]
    fn sorted_requirement_enforced() {
        let mut ms = collection();
        // Scramble one column of the first matrix.
        let (m, n, colptr, mut rows, vals) = ms.remove(0).into_parts();
        rows.swap(0, 1);
        let unsorted = CscMatrix::try_new(m, n, colptr, rows, vals).unwrap();
        assert!(!unsorted.is_sorted());
        let mut all: Vec<&CscMatrix<f64>> = vec![&unsorted];
        all.extend(ms.iter());
        let opts = Options::default();
        for alg in [
            Algorithm::Heap,
            Algorithm::TwoWayTree,
            Algorithm::TwoWayIncremental,
        ] {
            assert!(matches!(
                spkadd_with(&all, alg, &opts),
                Err(SpkaddError::UnsortedInput { operand: 0, .. })
            ));
        }
        // Hash and SPA accept the same input.
        let expect = dense_sum(&all);
        for alg in [Algorithm::Hash, Algorithm::SlidingHash, Algorithm::Spa] {
            let out = spkadd_with(&all, alg, &opts).unwrap();
            assert_eq!(DenseMatrix::from_csc(&out).max_abs_diff(&expect), 0.0);
        }
    }

    #[test]
    fn empty_collection_rejected() {
        let refs: Vec<&CscMatrix<f64>> = vec![];
        assert!(spkadd_with(&refs, Algorithm::Hash, &Options::default()).is_err());
    }

    #[test]
    fn singleton_collection_is_identityish() {
        let ms = collection();
        let refs = vec![&ms[0]];
        let out = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        assert!(out.approx_eq(&ms[0], 0.0));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = CscMatrix::<f64>::zeros(3, 3);
        let b = CscMatrix::<f64>::zeros(3, 4);
        assert!(spkadd_with(&[&a, &b], Algorithm::Hash, &Options::default()).is_err());
    }

    #[test]
    fn unsorted_output_mode() {
        let ms = collection();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let out = spkadd_with(
            &refs,
            Algorithm::Hash,
            &Options::default().unsorted_output(),
        )
        .unwrap();
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&dense_sum(&refs)),
            0.0
        );
    }

    #[test]
    fn auto_picks_something_correct() {
        let ms = collection();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let out = spkadd_with(&refs, Algorithm::Auto, &Options::default()).unwrap();
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&dense_sum(&refs)),
            0.0
        );
    }

    #[test]
    fn explicit_thread_count_works() {
        let ms = collection();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let out = spkadd_with(&refs, Algorithm::Hash, &Options::default().with_threads(2)).unwrap();
        assert_eq!(
            DenseMatrix::from_csc(&out).max_abs_diff(&dense_sum(&refs)),
            0.0
        );
    }

    #[test]
    fn entry_bytes_match_the_paper() {
        assert_eq!(numeric_entry_bytes::<f32>(), 8);
        assert_eq!(numeric_entry_bytes::<f64>(), 12);
        assert_eq!(SYMBOLIC_ENTRY_BYTES, 4);
    }

    #[test]
    fn algorithm_parse_display_round_trip() {
        for alg in Algorithm::ALL
            .into_iter()
            .chain(Algorithm::EXTENSIONS)
            .chain([Algorithm::Auto])
        {
            assert_eq!(alg.to_string().parse::<Algorithm>().unwrap(), alg);
            assert_eq!(alg.token().parse::<Algorithm>().unwrap(), alg);
        }
        assert_eq!("HASH".parse::<Algorithm>().unwrap(), Algorithm::Hash);
        let err = "quantum".parse::<Algorithm>().unwrap_err();
        assert!(matches!(err, SpkaddError::UnknownAlgorithm(_)));
        assert!(err.to_string().contains("sliding-hash"), "lists tokens");
    }

    #[test]
    fn auto_is_not_a_paper_row() {
        assert!(!Algorithm::Auto.needs_sorted_inputs());
        assert!(
            !Algorithm::ALL.contains(&Algorithm::Auto),
            "not a paper row"
        );
    }

    #[test]
    fn invalid_options_rejected_up_front() {
        let ms = collection();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let mut opts = Options::default();
        opts.forced_table_entries = Some(0);
        assert!(matches!(
            spkadd_with(&refs, Algorithm::SlidingHash, &opts),
            Err(SpkaddError::InvalidOptions(_))
        ));
        let mut opts = Options::default();
        opts.cache.llc_bytes = 0;
        assert!(matches!(
            opts.validate(),
            Err(SpkaddError::InvalidOptions(_))
        ));
        let mut opts = Options::default();
        opts.scheduling = Scheduling::Dynamic {
            chunks_per_thread: 0,
        };
        assert!(opts.validate().is_err());
        assert!(Options::default().validate().is_ok());
    }
}
