//! Pattern-cache correctness: a warm (cache-hit) execution must be
//! bit-for-bit identical to a cold one for every algorithm, the LRU bound
//! must hold, structural mutations must miss — including ones made inside
//! the same buffers — and filtering monoids must bypass the cache
//! entirely. With a cache, sortedness is validated by the fingerprint
//! sweep; its errors and Auto's fallback must match the serial scan's.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::{CscMatrix, DenseMatrix};
use spkadd::{
    Algorithm, ExecuteStats, Min, Monoid, NumericKernel, Options, Or, PatternOutcome, SpkAdd,
    SpkaddError, SymbolicStrategy, ThresholdedPlus,
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
        .options(Options {
            sorted_output: false,
            ..Options::default()
        })
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

const KWAY_AND_AUTO: [Algorithm; 6] = [
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
    Algorithm::Auto,
];

/// `==` treats `-0.0` and `+0.0` as equal; the hit must match the cold
/// result's bits.
fn assert_bitwise_eq(got: &CscMatrix<f64>, want: &CscMatrix<f64>, what: &str) {
    assert_eq!(got, want, "{what}");
    let bits = |m: &CscMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

/// k = 4 operands of 16 × 6 on which a sloppy hit path would differ:
/// - rows overlap across operands, and slot (1, 0) folds `1e16 + 1.0 -
///   1e16`, which is 0 only in operand order;
/// - columns 1 and 4 are empty everywhere and operand 1 is empty;
/// - slot (7, 2) holds a lone `-0.0`, and slot (2, 3) folds three
///   (`-0.0` first), so a zero-initialized accumulator would give `+0.0`;
/// - with `unsorted_dups`, operand 2's column 0 is unsorted and repeats
///   row 6.
fn tricky_collection(unsorted_dups: bool) -> Vec<CscMatrix<f64>> {
    let mat = |colptr: Vec<usize>, rows: Vec<u32>, vals: Vec<f64>| {
        CscMatrix::try_new(16, 6, colptr, rows, vals).unwrap()
    };
    let (col0_rows, col0_vals) = if unsorted_dups {
        (vec![6, 1, 3, 6], vec![2.5, 1.0, 1.0, -4.0])
    } else {
        (vec![1, 3, 6], vec![1.0, 1.0, 2.5])
    };
    let c0 = col0_rows.len();
    let mut op2_rows = col0_rows;
    op2_rows.extend([1, 2, 9, 10]);
    let mut op2_vals = col0_vals;
    op2_vals.extend([0.5, -0.0, 7.0, 8.0]);
    vec![
        mat(
            vec![0, 3, 3, 5, 6, 6, 8],
            vec![1, 3, 5, 0, 7, 2, 4, 9],
            vec![1e16, 2.0, 3.0, 4.0, -0.0, -0.0, 5.0, 6.0],
        ),
        CscMatrix::zeros(16, 6),
        mat(
            vec![0, c0, c0, c0 + 1, c0 + 2, c0 + 2, c0 + 4],
            op2_rows,
            op2_vals,
        ),
        mat(
            vec![0, 1, 1, 1, 2, 2, 4],
            vec![1, 2, 0, 4],
            vec![-1e16, -0.0, 9.0, 10.0],
        ),
    ]
}

#[test]
fn hit_scatter_is_bitwise_equal_to_cold_on_edge_cases() {
    for unsorted_dups in [false, true] {
        let mats = tricky_collection(unsorted_dups);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        for alg in KWAY_AND_AUTO {
            if unsorted_dups && !matches!(alg, Algorithm::Hash | Algorithm::Spa | Algorithm::Auto) {
                continue;
            }
            // Tiny tables make the sliding kernels cut several panels.
            for (sorted_output, table_entries) in [(true, None), (false, None), (true, Some(2))] {
                let what = format!(
                    "{alg} dups={unsorted_dups} sorted={sorted_output} table={table_entries:?}"
                );
                let builder = || {
                    SpkAdd::new(16, 6).algorithm(alg).options(Options {
                        sorted_output,
                        forced_table_entries: table_entries,
                        ..Options::default()
                    })
                };
                let cold = builder().build::<f64>().unwrap().execute(&refs).unwrap();
                // The stored entry itself (`get` sums from `+0.0` on
                // unsorted columns).
                let stored =
                    |i: u32, j: usize| cold.col(j).iter().find(|&(r, _)| r == i).unwrap().1;
                if !unsorted_dups {
                    assert_eq!(stored(1, 0), 0.0, "{what}: operand-order fold");
                }
                assert!(stored(7, 2).is_sign_negative(), "{what}: lone -0.0");
                assert!(stored(2, 3).is_sign_negative(), "{what}: -0.0 fold");

                let mut cached = builder().pattern_cache(2).build::<f64>().unwrap();
                let (first, s1) = run_timed(&mut cached, &refs);
                assert_eq!(s1.pattern, PatternOutcome::Miss, "{what}");
                assert_bitwise_eq(&first, &cold, &what);
                for _ in 0..2 {
                    let (warm, s) = run_timed(&mut cached, &refs);
                    assert_eq!(s.pattern, PatternOutcome::Hit, "{what}");
                    assert_eq!(
                        s.kernel_counts, s1.kernel_counts,
                        "{what}: replayed histogram"
                    );
                    assert_bitwise_eq(&warm, &cold, &what);
                }
            }
        }
    }
}

#[test]
fn min_and_or_plans_hit_like_cold() {
    let mats = collection(Pattern::Rmat, 8);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut cold = SpkAdd::new(M, N)
        .build_with_monoid(Min::<f64>::new())
        .unwrap();
    let mut cached = SpkAdd::new(M, N)
        .pattern_cache(2)
        .build_with_monoid(Min::<f64>::new())
        .unwrap();
    let expect = cold.execute(&refs).unwrap();
    for outcome in [
        PatternOutcome::Miss,
        PatternOutcome::Hit,
        PatternOutcome::Hit,
    ] {
        let (out, s) = run_timed(&mut cached, &refs);
        assert_eq!(s.pattern, outcome, "min");
        assert_eq!(out, expect, "min");
    }

    let bools: Vec<CscMatrix<bool>> = mats
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let (m, n, colptr, rows, vals) = m.clone().into_parts();
            let vals = (0..vals.len()).map(|e| (e + i) % 3 == 0).collect();
            CscMatrix::try_new(m, n, colptr, rows, vals).unwrap()
        })
        .collect();
    let refs: Vec<&CscMatrix<bool>> = bools.iter().collect();
    let mut cold = SpkAdd::new(M, N).build_with_monoid(Or).unwrap();
    let mut cached = SpkAdd::new(M, N)
        .pattern_cache(2)
        .build_with_monoid(Or)
        .unwrap();
    let expect = cold.execute(&refs).unwrap();
    for outcome in [
        PatternOutcome::Miss,
        PatternOutcome::Hit,
        PatternOutcome::Hit,
    ] {
        let (out, s) = run_timed(&mut cached, &refs);
        assert_eq!(s.pattern, outcome, "or");
        assert_eq!(out, expect, "or");
    }
}

/// `mats` with the first multi-entry column of the last operand reversed.
fn unsorted_last(mut mats: Vec<CscMatrix<f64>>) -> Vec<CscMatrix<f64>> {
    let (m, n, colptr, mut rows, vals) = mats.pop().unwrap().into_parts();
    let j = (0..n).find(|&j| colptr[j + 1] - colptr[j] > 1).unwrap();
    rows[colptr[j]..colptr[j + 1]].reverse();
    mats.push(CscMatrix::try_new(m, n, colptr, rows, vals).unwrap());
    assert!(!mats.last().unwrap().is_sorted());
    mats
}

#[test]
fn fused_validation_reports_an_unsorted_last_operand() {
    let mats = unsorted_last(collection(Pattern::Er, 77));
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    for (alg, symbolic) in [
        (Algorithm::Heap, SymbolicStrategy::Hash),
        (Algorithm::TwoWayTree, SymbolicStrategy::Hash),
        (Algorithm::Hash, SymbolicStrategy::Heap),
    ] {
        let mut plan = SpkAdd::new(M, N)
            .algorithm(alg)
            .options(Options {
                symbolic,
                ..Options::default()
            })
            .pattern_cache(2)
            .build::<f64>()
            .unwrap();
        let err = plan.execute(&refs).unwrap_err();
        assert!(
            matches!(err, SpkaddError::UnsortedInput { operand, .. } if operand == K - 1),
            "{alg}/{symbolic:?}: {err:?}"
        );
        let stats = plan.pattern_stats().unwrap();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "a rejected input is never looked up"
        );
    }
}

#[test]
fn fused_validation_still_trusts_the_caller() {
    // Operand 1's column is descending but shares no row with operand 0,
    // so the pairwise merge stays well-defined; only validation would
    // object.
    let a = CscMatrix::try_new(10, 1, vec![0, 2], vec![1, 2], vec![1.0, 2.0]).unwrap();
    let b = CscMatrix::try_new(10, 1, vec![0, 2], vec![9, 5], vec![3.0, 4.0]).unwrap();
    let refs = [&a, &b];
    let build = |validate| {
        SpkAdd::new(10, 1)
            .algorithm(Algorithm::TwoWayTree)
            .options(Options {
                validate_sorted: validate,
                ..Options::default()
            })
            .pattern_cache(2)
            .build::<f64>()
            .unwrap()
    };
    assert!(matches!(
        build(true).execute(&refs),
        Err(SpkaddError::UnsortedInput { operand: 1, .. })
    ));
    let (out, s) = run_timed(&mut build(false), &refs);
    assert_eq!(s.pattern, PatternOutcome::Bypassed);
    assert_eq!(
        out.rowidx(),
        [1, 2, 9, 5],
        "the caller's order, merged as promised"
    );
}

#[test]
fn auto_falls_back_to_hash_on_unsorted_pairs_with_the_cache_on() {
    let a = CscMatrix::try_new(4, 1, vec![0, 3], vec![3, 0, 2], vec![1.0, 2.0, 3.0]).unwrap();
    let b = CscMatrix::try_new(4, 1, vec![0, 2], vec![2, 0], vec![10.0, 20.0]).unwrap();
    let refs = [&a, &b];
    let mut expect = DenseMatrix::zeros(4, 1);
    expect.add_assign(&DenseMatrix::from_csc(&a)).unwrap();
    expect.add_assign(&DenseMatrix::from_csc(&b)).unwrap();
    for validate in [true, false] {
        let mut plan = SpkAdd::new(4, 1)
            .options(Options {
                validate_sorted: validate,
                ..Options::default()
            })
            .pattern_cache(2)
            .build::<f64>()
            .unwrap();
        // A pairwise merge would bypass the cache; the k-way fallback
        // misses, then hits.
        for outcome in [PatternOutcome::Miss, PatternOutcome::Hit] {
            let (out, s) = run_timed(&mut plan, &refs);
            assert_eq!(s.pattern, outcome, "validate={validate}");
            assert_eq!(
                s.kernel_counts.get(NumericKernel::Heap),
                0,
                "validate={validate}"
            );
            assert_eq!(
                DenseMatrix::from_csc(&out).max_abs_diff(&expect),
                0.0,
                "validate={validate}"
            );
        }
    }
}

/// Columns of the guessed-path collections: enough that their
/// fingerprint sweep runs in parallel, which a guess requires.
const WIDE: usize = 6 * 1400;

/// `copies` copies of `m` side by side, columns copied unchanged.
fn repeat_columns(m: &CscMatrix<f64>, copies: usize) -> CscMatrix<f64> {
    let nnz = m.nnz();
    let colptr: Vec<usize> = (0..copies)
        .flat_map(|c| m.colptr()[..m.ncols()].iter().map(move |&p| p + c * nnz))
        .chain([copies * nnz])
        .collect();
    CscMatrix::try_new(
        m.nrows(),
        m.ncols() * copies,
        colptr,
        m.rowidx().repeat(copies),
        m.values().repeat(copies),
    )
    .unwrap()
}

/// [`tricky_collection`] repeated side by side, [`WIDE`] columns wide.
fn wide_tricky_collection(unsorted_dups: bool) -> Vec<CscMatrix<f64>> {
    tricky_collection(unsorted_dups)
        .iter()
        .map(|m| repeat_columns(m, WIDE / 6))
        .collect()
}

/// [`collection`] with [`WIDE`] columns.
fn wide_collection(pattern: Pattern, seed: u64) -> Vec<CscMatrix<f64>> {
    let mut mats = generate_collection(pattern, M, WIDE, D, K, seed);
    for m in &mut mats {
        m.sort_columns();
    }
    mats
}

/// From the fourth execution of one structure on, the plan scatters into
/// the pattern the last two lookups hit while it fingerprints; the
/// lookup then confirms the guess.
#[test]
fn repeated_hits_scatter_while_fingerprinting_and_match_cold() {
    for unsorted_dups in [false, true] {
        let mats = wide_tricky_collection(unsorted_dups);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        for alg in KWAY_AND_AUTO {
            if unsorted_dups && !matches!(alg, Algorithm::Hash | Algorithm::Spa | Algorithm::Auto) {
                continue;
            }
            let what = format!("{alg} dups={unsorted_dups}");
            let mut cached = SpkAdd::new(16, WIDE)
                .algorithm(alg)
                .pattern_cache(2)
                .build::<f64>()
                .unwrap();
            let (_, s1) = run_timed(&mut cached, &refs);
            // One output buffer recycled throughout, as steady callers
            // do; new values every time (scaling by a power of two keeps
            // every fold exact and every sign).
            let mut sink = CscMatrix::zeros(0, 0);
            for rep in 0..5 {
                let what = format!("{what} rep {rep}");
                let scaled = rescale(&mats, f64::from(1 << rep));
                let scaled_refs: Vec<&CscMatrix<f64>> = scaled.iter().collect();
                let cold = SpkAdd::new(16, WIDE)
                    .algorithm(alg)
                    .build::<f64>()
                    .unwrap()
                    .execute(&scaled_refs)
                    .unwrap();
                let s = cached.execute_into_timed(&scaled_refs, &mut sink).unwrap();
                assert_eq!(s.pattern, PatternOutcome::Hit, "{what}");
                assert!(s.symbolic_skipped, "{what}");
                assert_eq!(s.kernel_counts, s1.kernel_counts, "{what}");
                assert_bitwise_eq(&sink, &cold, &what);
            }
        }
    }
}

/// `mats` with one entry of operand 0 moved to the next column: every
/// operand keeps its entry count, so the repeating pattern's map still
/// fits, but column lengths change. The column is chosen so that the
/// moved entry's slot (its position in its old output column) lies past
/// the end of its new output column.
fn entry_moved_across_columns(mats: &[CscMatrix<f64>]) -> Vec<CscMatrix<f64>> {
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (m, n) = mats[0].shape();
    let sum = SpkAdd::new(m, n)
        .algorithm(Algorithm::Hash)
        .build::<f64>()
        .unwrap()
        .execute(&refs)
        .unwrap();
    let (_, _, mut colptr, mut rows, vals) = mats[0].clone().into_parts();
    // The last (largest) row of operand 0's column j sits at this
    // position of output column j, which is sorted.
    let slot = |j: usize| {
        let last = rows[colptr[j + 1] - 1];
        sum.col(j).rows.iter().filter(|&&r| r < last).count()
    };
    let j = (0..n - 1)
        .find(|&j| colptr[j + 1] > colptr[j] && slot(j) >= sum.col(j + 1).rows.len())
        .expect("some column's last slot is past the next column's end");
    // The last entry of column j becomes the first of column j + 1, at
    // a row no other entry of that column uses.
    let taken: Vec<u32> = rows[colptr[j + 1]..colptr[j + 2]].to_vec();
    let e = colptr[j + 1] - 1;
    rows[e] = (0..m as u32).find(|r| !taken.contains(r)).unwrap();
    colptr[j + 1] -= 1;
    let mut moved = CscMatrix::try_new(m, n, colptr, rows, vals).unwrap();
    moved.sort_columns();
    let mut out = mats.to_vec();
    out[0] = moved;
    out
}

/// A guess that the lookup does not confirm is thrown away: the result
/// is the one the lookup's outcome calls for, bit for bit.
#[test]
fn an_unconfirmed_guess_falls_back_to_the_lookup() {
    for alg in KWAY_AND_AUTO {
        let a = wide_collection(Pattern::Er, 0x5EC);
        // Same entry counts as `a`, different rows (columns keep their
        // lengths) or different column lengths.
        let mut b = a.clone();
        restructure_in_place(&mut b);
        let c = entry_moved_across_columns(&a);
        fn refs(ms: &[CscMatrix<f64>]) -> Vec<&CscMatrix<f64>> {
            ms.iter().collect()
        }
        let cold = |ms: &[CscMatrix<f64>]| {
            SpkAdd::new(M, WIDE)
                .algorithm(alg)
                .build::<f64>()
                .unwrap()
                .execute(&refs(ms))
                .unwrap()
        };
        let mut plan = SpkAdd::new(M, WIDE)
            .algorithm(alg)
            .pattern_cache(2)
            .build::<f64>()
            .unwrap();
        let mut sink = CscMatrix::zeros(0, 0);
        let mut run = |ms: &[CscMatrix<f64>]| {
            let s = plan.execute_into_timed(&refs(ms), &mut sink).unwrap();
            assert_bitwise_eq(&sink, &cold(ms), &format!("{alg}"));
            s.pattern
        };
        use PatternOutcome::{Hit, Miss};
        // b is cached, then a repeats until the plan guesses it.
        let steps: [(&[CscMatrix<f64>], PatternOutcome); 9] = [
            (&b, Miss),
            (&a, Miss),
            (&a, Hit),
            (&a, Hit),
            // Guesses a; the lookup hits b instead.
            (&b, Hit),
            (&a, Hit),
            (&a, Hit),
            // Guesses a; c is new (a's map sends entries past their
            // columns' ends).
            (&c, Miss),
            (&a, Hit),
        ];
        for (i, (ms, want)) in steps.into_iter().enumerate() {
            assert_eq!(run(ms), want, "{alg} step {i}");
        }
    }
}

/// A guess never hides a validation error: the fingerprint sweep's
/// verdicts still reject an unsorted operand before anything is
/// returned, and the cache keeps working afterwards.
#[test]
fn a_guess_still_reports_an_unsorted_operand() {
    let mats = wide_collection(Pattern::Er, 77);
    let bad = unsorted_last(mats.clone());
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let bad_refs: Vec<&CscMatrix<f64>> = bad.iter().collect();
    let mut plan = SpkAdd::new(M, WIDE)
        .algorithm(Algorithm::Heap)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    let expect = SpkAdd::new(M, WIDE)
        .algorithm(Algorithm::Heap)
        .build::<f64>()
        .unwrap()
        .execute(&refs)
        .unwrap();
    for _ in 0..3 {
        plan.execute(&refs).unwrap();
    }
    let err = plan.execute(&bad_refs).unwrap_err();
    assert!(
        matches!(err, SpkaddError::UnsortedInput { operand, .. } if operand == K - 1),
        "{err:?}"
    );
    let (out, s) = run_timed(&mut plan, &refs);
    assert_eq!(s.pattern, PatternOutcome::Hit);
    assert_eq!(out, expect);
}
