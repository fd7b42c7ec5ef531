//! Pattern-cache correctness: a warm (cache-hit) execution must be
//! bit-for-bit identical to a cold one for every algorithm, the LRU bound
//! must hold, structural mutations must miss — including ones made inside
//! the same buffers — and filtering monoids must bypass the cache
//! entirely.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::CscMatrix;
use spkadd::{
    Algorithm, ExecuteStats, Monoid, PatternOutcome, SpkAdd, SpkaddError, ThresholdedPlus,
};

mod common;
use common::run_timed;

const M: usize = 256;
const N: usize = 48;
const D: usize = 6;
const K: usize = 7;

fn collection(pattern: Pattern, seed: u64) -> Vec<CscMatrix<f64>> {
    let mut mats = generate_collection(pattern, M, N, D, K, seed);
    // The heap and 2-way/library algorithms require sorted inputs.
    for m in &mut mats {
        m.sort_columns();
    }
    mats
}

fn rescale(mats: &[CscMatrix<f64>], factor: f64) -> Vec<CscMatrix<f64>> {
    mats.iter()
        .map(|m| {
            let mut m = m.clone();
            m.values_mut().iter_mut().for_each(|v| *v *= factor);
            m
        })
        .collect()
}

const ALL_AND_AUTO: [Algorithm; 10] = [
    Algorithm::TwoWayIncremental,
    Algorithm::TwoWayTree,
    Algorithm::LibIncremental,
    Algorithm::LibTree,
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
    Algorithm::Auto,
];

/// The k-way family caches; the 2-way/library folds have no symbolic
/// phase and report `Bypassed`.
fn expects_caching(alg: Algorithm) -> bool {
    matches!(
        alg,
        Algorithm::Heap
            | Algorithm::Spa
            | Algorithm::Hash
            | Algorithm::SlidingHash
            | Algorithm::SlidingSpa
            | Algorithm::Auto // resolves to Hash at this k
    )
}

#[test]
fn warm_execution_is_bit_for_bit_identical_for_all_algorithms() {
    for pattern in [Pattern::Er, Pattern::Rmat] {
        let mats = collection(pattern, 42);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        // Same structure, different values: the hit must recompute values
        // from the *new* inputs, never replay cached ones.
        let scaled = rescale(&mats, 0.37);
        let scaled_refs: Vec<&CscMatrix<f64>> = scaled.iter().collect();

        for alg in ALL_AND_AUTO {
            let mut cached = SpkAdd::new(M, N)
                .algorithm(alg)
                .pattern_cache(4)
                .build::<f64>()
                .unwrap();
            let mut cold = SpkAdd::new(M, N).algorithm(alg).build::<f64>().unwrap();

            let (first, s1) = run_timed(&mut cached, &refs);
            assert_eq!(first, cold.execute(&refs).unwrap(), "{alg}: cold mismatch");
            let (warm, s2) = run_timed(&mut cached, &refs);
            assert_eq!(warm, first, "{alg}: warm result differs from cold");

            let (rescaled, s3) = run_timed(&mut cached, &scaled_refs);
            assert_eq!(
                rescaled,
                cold.execute(&scaled_refs).unwrap(),
                "{alg}: hit must recompute values from the new inputs"
            );

            if expects_caching(alg) {
                assert_eq!(s1.pattern, PatternOutcome::Miss, "{alg}: first run");
                assert_eq!(s2.pattern, PatternOutcome::Hit, "{alg}: second run");
                assert!(s2.symbolic_skipped, "{alg}: hit skips symbolic");
                assert_eq!(s2.symbolic, 0.0, "{alg}: no symbolic seconds on a hit");
                assert_eq!(
                    s3.pattern,
                    PatternOutcome::Hit,
                    "{alg}: same structure with new values still hits"
                );
            } else {
                for s in [s1, s2, s3] {
                    assert_eq!(s.pattern, PatternOutcome::Bypassed, "{alg}");
                    assert!(!s.symbolic_skipped, "{alg}");
                }
            }
        }
    }
}

#[test]
fn execute_into_composes_with_the_cache() {
    let mats = collection(Pattern::Er, 7);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    let expect = plan.execute(&refs).unwrap();
    let mut sink = CscMatrix::zeros(0, 0);
    let stats = plan.execute_into_timed(&refs, &mut sink).unwrap();
    assert_eq!(sink, expect);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    assert!(stats.symbolic_skipped);
    // Again, now recycling the previous hit's buffers.
    let stats = plan.execute_into_timed(&refs, &mut sink).unwrap();
    assert_eq!(sink, expect);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    let cache = plan.pattern_stats().unwrap();
    assert_eq!((cache.hits, cache.misses), (2, 1));
}

#[test]
fn steady_state_hit_allocates_no_workspaces() {
    let mats = collection(Pattern::Er, 13);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .pattern_cache(1)
        .build::<f64>()
        .unwrap();
    plan.execute(&refs).unwrap();
    let after_cold = plan.workspace_allocations();
    let mut sink = CscMatrix::zeros(0, 0);
    plan.execute_into_timed(&refs, &mut sink).unwrap();
    plan.execute_into_timed(&refs, &mut sink).unwrap();
    assert_eq!(
        plan.workspace_allocations(),
        after_cold,
        "warm numeric-only executions must reuse the retained workspaces"
    );
}

#[test]
fn lru_evicts_at_capacity() {
    let a = collection(Pattern::Er, 1);
    let b = collection(Pattern::Er, 2);
    let c = collection(Pattern::Er, 3);
    fn refs(v: &[CscMatrix<f64>]) -> Vec<&CscMatrix<f64>> {
        v.iter().collect()
    }
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();

    let outcome = |plan: &mut spkadd::SpkAddPlan<f64>, mats: &[CscMatrix<f64>]| -> ExecuteStats {
        let (_, stats) = run_timed(plan, &refs(mats));
        stats
    };

    assert_eq!(outcome(&mut plan, &a).pattern, PatternOutcome::Miss);
    assert_eq!(outcome(&mut plan, &b).pattern, PatternOutcome::Miss);
    assert_eq!(outcome(&mut plan, &a).pattern, PatternOutcome::Hit);
    // Third distinct pattern evicts b (a was refreshed more recently).
    assert_eq!(outcome(&mut plan, &c).pattern, PatternOutcome::Miss);
    assert_eq!(
        outcome(&mut plan, &b).pattern,
        PatternOutcome::Miss,
        "evicted"
    );
    let stats = plan.pattern_stats().unwrap();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
    assert!(stats.evictions >= 2, "b's re-insert evicts again");
}

#[test]
fn mutated_rowidx_misses() {
    let mats = collection(Pattern::Er, 99);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(4)
        .build::<f64>()
        .unwrap();
    let (_, s) = run_timed(&mut plan, &refs);
    assert_eq!(s.pattern, PatternOutcome::Miss);

    // Move one entry of one matrix to a different row: same dims, k, and
    // nnz, but the structure changed — the fingerprint must not collide.
    let mut mutated: Vec<CscMatrix<f64>> = mats.clone();
    let (m, n, colptr, mut rows, vals) = mutated.remove(2).into_parts();
    rows[0] = (rows[0] + 1) % M as u32;
    let mut changed = CscMatrix::try_new(m, n, colptr, rows, vals).unwrap();
    changed.sort_columns();
    mutated.insert(2, changed);
    let mutated_refs: Vec<&CscMatrix<f64>> = mutated.iter().collect();

    let (out, s) = run_timed(&mut plan, &mutated_refs);
    assert_eq!(
        s.pattern,
        PatternOutcome::Miss,
        "mutated structure must miss"
    );
    let mut cold = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .build()
        .unwrap();
    assert_eq!(out, cold.execute(&mutated_refs).unwrap());
}

/// Rewrites every matrix's structure inside its own buffers: recycles the
/// `Vec`s through `into_parts`, shifts each column's rows by one (mod
/// `M`) and re-sorts them in place, then hands the same allocations back
/// to the validating constructor. Each column keeps its count, stays
/// sorted and duplicate-free, and changes its row set.
fn restructure_in_place(mats: &mut [CscMatrix<f64>]) {
    for slot in mats.iter_mut() {
        let (m, n, colptr, mut rows, vals) =
            std::mem::replace(slot, CscMatrix::zeros(0, 0)).into_parts();
        let (colptr_ptr, rows_ptr) = (colptr.as_ptr(), rows.as_ptr());
        for j in 0..n {
            let col = &mut rows[colptr[j]..colptr[j + 1]];
            col.iter_mut().for_each(|r| *r = (*r + 1) % m as u32);
            col.sort_unstable();
        }
        *slot = CscMatrix::try_new(m, n, colptr, rows, vals).unwrap();
        assert_eq!(slot.colptr().as_ptr(), colptr_ptr, "same colptr buffer");
        assert_eq!(slot.rowidx().as_ptr(), rows_ptr, "same rowidx buffer");
    }
}

#[test]
fn structure_rewritten_in_recycled_buffers_misses() {
    for alg in [
        Algorithm::Hash,
        Algorithm::Spa,
        Algorithm::Heap,
        Algorithm::SlidingHash,
        Algorithm::SlidingSpa,
        Algorithm::Auto,
    ] {
        let mut mats = collection(Pattern::Er, 0xB0F);
        let mut plan = SpkAdd::new(M, N)
            .algorithm(alg)
            .pattern_cache(4)
            .build::<f64>()
            .unwrap();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        assert_eq!(run_timed(&mut plan, &refs).1.pattern, PatternOutcome::Miss);
        assert_eq!(run_timed(&mut plan, &refs).1.pattern, PatternOutcome::Hit);

        restructure_in_place(&mut mats);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let (out, s) = run_timed(&mut plan, &refs);
        assert_eq!(
            s.pattern,
            PatternOutcome::Miss,
            "{alg}: a new structure in the old buffers must miss"
        );
        let mut fresh = SpkAdd::new(M, N).algorithm(alg).build::<f64>().unwrap();
        assert_eq!(out, fresh.execute(&refs).unwrap(), "{alg}: stale sum");
    }
}

#[test]
fn filtering_monoid_bypasses_with_identical_results() {
    let mats = collection(Pattern::Rmat, 5);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let monoid = ThresholdedPlus::new(1.5);
    const { assert!(<ThresholdedPlus as Monoid>::MAY_FILTER) };

    let mut cached = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(4)
        .build_with_monoid::<f64, _>(monoid)
        .unwrap();
    let mut plain = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .build_with_monoid::<f64, _>(monoid)
        .unwrap();

    for _ in 0..3 {
        let (out, stats) = run_timed(&mut cached, &refs);
        assert_eq!(
            stats.pattern,
            PatternOutcome::Bypassed,
            "value-dependent structure must never be cached"
        );
        assert!(!stats.symbolic_skipped);
        assert_eq!(out, plain.execute(&refs).unwrap());
    }
    let stats = cached.pattern_stats().unwrap();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
}

#[test]
fn plans_without_a_cache_report_disabled() {
    let mats = collection(Pattern::Er, 21);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .build::<f64>()
        .unwrap();
    let (_, stats) = run_timed(&mut plan, &refs);
    assert_eq!(stats.pattern, PatternOutcome::Disabled);
    assert!(plan.pattern_stats().is_none());
}

#[test]
fn unsorted_output_mode_caches_too() {
    // Unsorted hash emission is first-touch order — deterministic in the
    // input structure — so the cached row order reproduces exactly.
    let mats = collection(Pattern::Er, 17);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .sorted_output(false)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    let first = plan.execute(&refs).unwrap();
    let (warm, stats) = run_timed(&mut plan, &refs);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    assert_eq!(warm, first);
}

#[test]
fn streaming_accumulator_threads_the_cache_through() {
    use spkadd::{FlushPolicy, Options, StreamingAccumulator};
    let mut opts = Options::default();
    opts.pattern_cache = 2;
    let mut acc = StreamingAccumulator::<f64>::with_policy(
        M,
        N,
        FlushPolicy::Matrices(K),
        Algorithm::Hash,
        opts,
    );
    assert!(acc.pattern_stats().is_none(), "no plan before first flush");
    let mats = collection(Pattern::Er, 31);
    for round in 0..4 {
        for m in &mats {
            let mut m = m.clone();
            m.values_mut().iter_mut().for_each(|v| *v += round as f64);
            acc.push(m).unwrap();
        }
    }
    let stats = acc.pattern_stats().unwrap();
    assert_eq!(
        (stats.hits, stats.misses),
        (3, 1),
        "steady-sparsity stream: cold first flush, warm thereafter"
    );
    acc.finish().unwrap();
}

#[test]
fn zero_column_and_tiny_shapes_are_safe() {
    // Degenerate shapes must not trip the cached driver's prefix logic.
    let a = CscMatrix::<f64>::identity(1);
    let mut plan = SpkAdd::new(1, 1)
        .algorithm(Algorithm::Spa)
        .pattern_cache(1)
        .build::<f64>()
        .unwrap();
    let first = plan.execute(&[&a, &a]).unwrap();
    let (warm, stats) = run_timed(&mut plan, &[&a, &a]);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    assert_eq!(warm, first);
    assert_eq!(warm.get(0, 0).unwrap(), 2.0);
}

#[test]
fn build_with_zero_capacity_is_disabled_not_an_error() {
    let plan = SpkAdd::new(4, 4).pattern_cache(0).build::<f64>().unwrap();
    assert!(plan.pattern_stats().is_none());
}

#[test]
fn errors_do_not_poison_the_cache() {
    let mats = collection(Pattern::Er, 55);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(M, N)
        .algorithm(Algorithm::Hash)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    plan.execute(&refs).unwrap();
    let wrong = CscMatrix::<f64>::zeros(M + 1, N);
    assert!(matches!(
        plan.execute(&[&wrong]),
        Err(SpkaddError::Sparse(_))
    ));
    let (_, stats) = run_timed(&mut plan, &refs);
    assert_eq!(stats.pattern, PatternOutcome::Hit, "cache survives errors");
}
