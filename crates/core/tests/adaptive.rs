//! Adaptive per-partition kernel selection, end to end.
//!
//! The contract under test: `Algorithm::Auto` re-scores every
//! weight-balanced column chunk and may dispatch a different numeric
//! kernel per chunk, yet the result must be
//! **bit-for-bit identical** to every forced single-kernel execution —
//! all five k-way kernels fold duplicates left-to-right in matrix
//! order, so the chunk-level choice is observable only through
//! [`ExecuteStats::kernel_counts`] and wall time, never through the
//! output. Tree-associated algorithms (2-way/library) reassociate the
//! fold, so the all-nine pins use integer-valued data where every
//! association is exact.

use spk_gen::{generate_collection, protein_collection, Pattern, ProteinConfig};
use spk_sparse::CscMatrix;
use spkadd::tuning::SPA_MIN_COMPRESSION;
use spkadd::{
    choose_algorithm, numeric_entry_bytes, Algorithm, CacheConfig, Min, Monoid, NumericKernel, Or,
    PatternOutcome, Plus, SaturatingCount, SpkAdd, ThresholdedPlus,
};

mod common;
use common::run_timed;

const M: usize = 256;
const N: usize = 48;
const D: usize = 6;
const K: usize = 7;

const ALL_ALGORITHMS: [Algorithm; 9] = [
    Algorithm::TwoWayIncremental,
    Algorithm::TwoWayTree,
    Algorithm::LibIncremental,
    Algorithm::LibTree,
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
];

/// K-way single-fold algorithms — the set whose combine order matches
/// `Auto`'s exactly, float for float.
const KWAY_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
];

fn collection(pattern: Pattern, seed: u64) -> Vec<CscMatrix<f64>> {
    let mut mats = generate_collection(pattern, M, N, D, K, seed);
    for m in &mut mats {
        m.sort_columns();
    }
    mats
}

/// Same structure, small integer values — exact in every association.
fn integer_valued(mats: &[CscMatrix<f64>]) -> Vec<CscMatrix<f64>> {
    mats.iter()
        .map(|m| {
            let (nr, nc, colptr, rows, vals) = m.clone().into_parts();
            let vals = (0..vals.len())
                .map(|i| (i % 7) as f64 - 3.0)
                .collect::<Vec<_>>();
            CscMatrix::from_parts(nr, nc, colptr, rows, vals)
        })
        .collect()
}

/// Same structure, values spanning 12 orders of magnitude: any change
/// in summation order shows up in the low mantissa bits.
fn adversarial_valued(mats: &[CscMatrix<f64>]) -> Vec<CscMatrix<f64>> {
    mats.iter()
        .map(|m| {
            let (nr, nc, colptr, rows, vals) = m.clone().into_parts();
            let vals = (0..vals.len())
                .map(|i| {
                    let mag = 10f64.powi((i % 13) as i32 - 6);
                    (1.0 + (i % 17) as f64) * mag
                })
                .collect::<Vec<_>>();
            CscMatrix::from_parts(nr, nc, colptr, rows, vals)
        })
        .collect()
}

fn convert<T: spk_sparse::Element>(
    mats: &[CscMatrix<f64>],
    f: impl Fn(usize, f64) -> T,
) -> Vec<CscMatrix<T>> {
    mats.iter()
        .map(|m| {
            let (nr, nc, colptr, rows, vals) = m.clone().into_parts();
            let vals = vals.iter().enumerate().map(|(i, &v)| f(i, v)).collect();
            CscMatrix::from_parts(nr, nc, colptr, rows, vals)
        })
        .collect()
}

fn assert_bits_equal(a: &CscMatrix<f64>, b: &CscMatrix<f64>, what: &str) {
    assert_eq!(a.colptr(), b.colptr(), "{what}: colptr");
    assert_eq!(a.rowidx(), b.rowidx(), "{what}: rowidx");
    assert_eq!(a.values().len(), b.values().len(), "{what}: nnz");
    for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} differs ({x} vs {y})"
        );
    }
}

fn run_monoid<T: spk_sparse::Element, O: Monoid<Value = T> + Copy>(
    mats: &[CscMatrix<T>],
    alg: Algorithm,
    monoid: O,
) -> CscMatrix<T> {
    let refs: Vec<&CscMatrix<T>> = mats.iter().collect();
    SpkAdd::new(M, N)
        .algorithm(alg)
        .threads(3)
        .build_with_monoid::<T, O>(monoid)
        .unwrap()
        .execute(&refs)
        .unwrap()
}

#[test]
fn adaptive_matches_every_algorithm_for_every_monoid_on_exact_data() {
    let base = integer_valued(&collection(Pattern::Rmat, 0xADA));

    // Plus<f64>.
    let auto = run_monoid(&base, Algorithm::Auto, Plus::<f64>::new());
    for alg in ALL_ALGORITHMS {
        let forced = run_monoid(&base, alg, Plus::<f64>::new());
        assert_bits_equal(&auto, &forced, &format!("Plus vs {alg}"));
    }

    // Or over booleans.
    let bools = convert(&base, |_, _| true);
    let auto = run_monoid(&bools, Algorithm::Auto, Or);
    for alg in ALL_ALGORITHMS {
        assert_eq!(auto, run_monoid(&bools, alg, Or), "Or vs {alg}");
    }

    // Tropical min.
    let auto = run_monoid(&base, Algorithm::Auto, Min::<f64>::new());
    for alg in ALL_ALGORITHMS {
        let forced = run_monoid(&base, alg, Min::<f64>::new());
        assert_bits_equal(&auto, &forced, &format!("Min vs {alg}"));
    }

    // Saturating occurrence counts over u32.
    let counts = convert(&base, |i, _| 1 + (i % 3) as u32);
    let auto = run_monoid(&counts, Algorithm::Auto, SaturatingCount);
    for alg in ALL_ALGORITHMS {
        assert_eq!(
            auto,
            run_monoid(&counts, alg, SaturatingCount),
            "SaturatingCount vs {alg}"
        );
    }

    // Filtering monoid: k-way algorithms only — the tree drivers apply
    // `keep` per merge level, a documented, different reduction.
    let monoid = ThresholdedPlus::new(1.5);
    let auto = run_monoid(&base, Algorithm::Auto, monoid);
    for alg in KWAY_ALGORITHMS {
        let forced = run_monoid(&base, alg, monoid);
        assert_bits_equal(&auto, &forced, &format!("ThresholdedPlus vs {alg}"));
    }
}

#[test]
fn adaptive_is_bitwise_equal_to_forced_kway_kernels_on_adversarial_floats() {
    // Rounding-sensitive values: a single out-of-order combine anywhere
    // flips low mantissa bits and fails the pin.
    for pattern in [Pattern::Er, Pattern::Rmat] {
        let mats = adversarial_valued(&collection(pattern, 0xF10A7));
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let auto = SpkAdd::new(M, N)
            .algorithm(Algorithm::Auto)
            .threads(3)
            .build::<f64>()
            .unwrap()
            .execute(&refs)
            .unwrap();
        for alg in KWAY_ALGORITHMS {
            let forced = SpkAdd::new(M, N)
                .algorithm(alg)
                .threads(3)
                .build::<f64>()
                .unwrap()
                .execute(&refs)
                .unwrap();
            assert_bits_equal(&auto, &forced, &format!("{pattern:?} adaptive vs {alg}"));
        }
    }
}

#[test]
fn forcing_the_collection_level_choice_runs_one_kernel_and_matches_auto() {
    let mats = collection(Pattern::Rmat, 21);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let total: usize = mats.iter().map(|m| m.nnz()).sum();
    let cache = CacheConfig::detect();
    // Fig 2's collection-level pick, as `Auto` resolves it.
    let pick = choose_algorithm(K, total / N, numeric_entry_bytes::<f64>(), 3, &cache);
    assert!(
        KWAY_ALGORITHMS.contains(&pick),
        "k = {K} resolves to a k-way kernel, got {pick}"
    );
    let mut pinned = SpkAdd::new(M, N)
        .algorithm(pick)
        .threads(3)
        .cache(cache)
        .build::<f64>()
        .unwrap();
    let (out, stats) = run_timed(&mut pinned, &refs);
    assert_eq!(
        stats.kernel_counts.distinct(),
        1,
        "forcing {pick} must run one kernel everywhere, got {}",
        stats.kernel_counts
    );
    // Pinning changes dispatch, never the result.
    let auto = SpkAdd::new(M, N)
        .algorithm(Algorithm::Auto)
        .threads(3)
        .cache(cache)
        .build::<f64>()
        .unwrap()
        .execute(&refs)
        .unwrap();
    assert_bits_equal(&out, &auto, &format!("forced {pick} vs Auto"));
}

/// A deliberately skewed collection: a block of fully dense columns
/// (every row occupied in every matrix) followed by a hypersparse R-MAT
/// tail. Weight-balanced chunking isolates the dense block into its own
/// chunks, whose local density crosses the SPA threshold, while the
/// tail chunks stay on the hash side.
fn skewed_collection(k: usize) -> Vec<CscMatrix<f64>> {
    let rows = 256;
    let dense_cols = 8;
    let tail_cols = 56;
    let mut tail = generate_collection(Pattern::Rmat, rows, tail_cols, 2, k, 0x5EED);
    for t in &mut tail {
        t.sort_columns();
    }
    tail.iter()
        .enumerate()
        .map(|(i, t)| {
            let mut colptr = vec![0usize];
            let mut rowsv = Vec::new();
            let mut vals = Vec::new();
            for j in 0..dense_cols {
                for r in 0..rows {
                    rowsv.push(r as u32);
                    vals.push(((r + i + j) % 5) as f64 - 2.0);
                }
                colptr.push(rowsv.len());
            }
            for j in 0..tail_cols {
                let col = t.col(j);
                rowsv.extend_from_slice(col.rows);
                vals.extend_from_slice(col.vals);
                colptr.push(rowsv.len());
            }
            CscMatrix::try_new(rows, dense_cols + tail_cols, colptr, rowsv, vals).unwrap()
        })
        .collect()
}

#[test]
fn skewed_rmat_collection_mixes_kernels_under_auto() {
    let mats = skewed_collection(6);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (rows, cols) = refs[0].shape();
    let mut plan = SpkAdd::new(rows, cols)
        .algorithm(Algorithm::Auto)
        .threads(4)
        // Pin the machine model so the decision surface is deterministic
        // regardless of the host's detected caches.
        .cache(CacheConfig {
            llc_bytes: 32 << 20,
            l1_bytes: 32 << 10,
        })
        .build::<f64>()
        .unwrap();
    let (out, stats) = run_timed(&mut plan, &refs);
    assert!(
        stats.kernel_counts.distinct() >= 2,
        "skew must split the decision surface, got {}",
        stats.kernel_counts
    );
    assert!(
        stats.kernel_counts.get(NumericKernel::Spa) > 0,
        "the dense block must go to the SPA family, got {}",
        stats.kernel_counts
    );
    assert!(
        stats.kernel_counts.get(NumericKernel::Hash) > 0,
        "the hypersparse tail must stay on hash, got {}",
        stats.kernel_counts
    );
    // Mixing must still be invisible in the output.
    for alg in KWAY_ALGORITHMS {
        let forced = SpkAdd::new(rows, cols)
            .algorithm(alg)
            .threads(4)
            .build::<f64>()
            .unwrap()
            .execute(&refs)
            .unwrap();
        assert_bits_equal(&out, &forced, &format!("skewed adaptive vs {alg}"));
    }
}

/// SpGEMM-style intermediates: every output entry absorbs dozens of
/// inputs, far above [`SPA_MIN_COMPRESSION`], while the output columns
/// stay sparse (no dense corner). The scorer's compressed corner sends
/// the chunks to the SPA, and the mix is invisible in the output.
#[test]
fn compressed_intermediates_go_to_the_spa_under_auto() {
    let mats = protein_collection(
        &ProteinConfig {
            nrows: 4096,
            ncols: 64,
            d: 16,
            k: 64,
            cf: 40.0,
            skew: 0.6,
        },
        0xC0FFEE,
    );
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (rows, cols) = refs[0].shape();
    let mut plan = SpkAdd::new(rows, cols)
        .algorithm(Algorithm::Auto)
        .threads(4)
        // Pinned so the panels (4096 rows · 12 B · 4 workers) fit.
        .cache(CacheConfig {
            llc_bytes: 32 << 20,
            l1_bytes: 32 << 10,
        })
        .build::<f64>()
        .unwrap();
    let (out, stats) = run_timed(&mut plan, &refs);
    let nnz_in: usize = mats.iter().map(|m| m.nnz()).sum();
    assert!(
        nnz_in >= SPA_MIN_COMPRESSION * out.nnz(),
        "the collection must sit above the threshold: {nnz_in} in, {} out",
        out.nnz()
    );
    assert!(
        stats.kernel_counts.get(NumericKernel::Spa) > 0,
        "compressed chunks must go to the SPA, got {}",
        stats.kernel_counts
    );
    for alg in KWAY_ALGORITHMS {
        let forced = SpkAdd::new(rows, cols)
            .algorithm(alg)
            .threads(4)
            .build::<f64>()
            .unwrap()
            .execute(&refs)
            .unwrap();
        assert_bits_equal(&out, &forced, &format!("compressed adaptive vs {alg}"));
    }
}

#[test]
fn filtering_monoid_bypasses_the_cache_but_not_adaptivity() {
    let mats = skewed_collection(6);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (rows, cols) = refs[0].shape();
    let monoid = ThresholdedPlus::new(1.5);
    const { assert!(<ThresholdedPlus as Monoid>::MAY_FILTER) };
    let mut plan = SpkAdd::new(rows, cols)
        .algorithm(Algorithm::Auto)
        .threads(4)
        .cache(CacheConfig {
            llc_bytes: 32 << 20,
            l1_bytes: 32 << 10,
        })
        .pattern_cache(4)
        .build_with_monoid::<f64, _>(monoid)
        .unwrap();
    for round in 0..2 {
        let (_, stats) = run_timed(&mut plan, &refs);
        assert_eq!(
            stats.pattern,
            PatternOutcome::Bypassed,
            "round {round}: value-dependent structure must never be cached"
        );
        assert!(
            stats.kernel_counts.distinct() >= 2,
            "round {round}: the cache bypass must not disable per-chunk \
             scoring, got {}",
            stats.kernel_counts
        );
    }
    let cache = plan.pattern_stats().unwrap();
    assert_eq!((cache.hits, cache.misses), (0, 0));
}

#[test]
fn warm_pattern_hits_replay_memoized_decisions() {
    let mats = skewed_collection(6);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (rows, cols) = refs[0].shape();
    let mut plan = SpkAdd::new(rows, cols)
        .algorithm(Algorithm::Auto)
        .threads(4)
        .cache(CacheConfig {
            llc_bytes: 32 << 20,
            l1_bytes: 32 << 10,
        })
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    let (cold, s1) = run_timed(&mut plan, &refs);
    assert_eq!(s1.pattern, PatternOutcome::Miss);
    let (warm, s2) = run_timed(&mut plan, &refs);
    assert_eq!(s2.pattern, PatternOutcome::Hit);
    assert_bits_equal(&cold, &warm, "warm replay");
    assert_eq!(
        s1.kernel_counts, s2.kernel_counts,
        "the memoized decision vector must reproduce the cold histogram"
    );
    assert!(s2.kernel_counts.distinct() >= 2);
}

#[test]
fn in_place_sort_columns_misses_without_invalidation() {
    // Matrix 0 starts with one column deliberately out of order; the
    // hash algorithm accepts it, and `sort_columns` later permutes that
    // column **in place** — same buffers, same nnz, different structure.
    // Every lookup re-fingerprints the contents, so no caller action is
    // needed for the next execution to miss.
    let mut mats = collection(Pattern::Er, 0x1D);
    {
        let (nr, nc, colptr, mut rows, vals) = mats.remove(0).into_parts();
        let c0 = colptr[1] - colptr[0];
        assert!(c0 >= 2, "need two entries in column 0 to swap");
        rows.swap(0, 1);
        mats.insert(0, CscMatrix::try_new(nr, nc, colptr, rows, vals).unwrap());
    }
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(4)
        .build::<f64>()
        .unwrap();
    let (_, s) = run_timed(&mut plan, &refs);
    assert_eq!(s.pattern, PatternOutcome::Miss);
    let (_, s) = run_timed(&mut plan, &refs);
    assert_eq!(s.pattern, PatternOutcome::Hit);
    drop(refs);

    mats[0].sort_columns();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (out, s) = run_timed(&mut plan, &refs);
    assert_eq!(
        s.pattern,
        PatternOutcome::Miss,
        "the in-place structural change must re-fingerprint and miss"
    );
    let cold = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .build::<f64>()
        .unwrap()
        .execute(&refs)
        .unwrap();
    assert_bits_equal(&out, &cold, "post-mutation result");
}

#[test]
fn streaming_accumulator_aggregates_kernel_histograms() {
    use spkadd::{FlushPolicy, Options, StreamingAccumulator};
    let mats = skewed_collection(6);
    let (rows, cols) = mats[0].shape();
    let mut opts = Options::default().with_threads(4);
    opts.cache = CacheConfig {
        llc_bytes: 32 << 20,
        l1_bytes: 32 << 10,
    };
    let mut acc = StreamingAccumulator::<f64>::with_policy(
        rows,
        cols,
        FlushPolicy::Matrices(3),
        Algorithm::Auto,
        opts,
    );
    assert!(acc.kernel_counts().is_empty(), "nothing flushed yet");
    for round in 0..3 {
        for m in &mats {
            let mut m = m.clone();
            m.values_mut().iter_mut().for_each(|v| *v += round as f64);
            acc.push(m).unwrap();
        }
    }
    let counts = acc.kernel_counts();
    assert!(counts.total() > 0, "flushes must contribute chunks");
    assert!(
        counts.distinct() >= 2,
        "the skewed stream must mix kernels across flushes, got {counts}"
    );
    acc.finish().unwrap();
}
