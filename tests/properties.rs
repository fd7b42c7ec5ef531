//! Property-based tests over the core invariants of SpKAdd.

use proptest::prelude::*;
use spkadd_suite::sparse::{CooMatrix, CscMatrix, DenseMatrix};
use spkadd_suite::{spkadd_with, Algorithm, Options, SpkAdd};

/// Strategy: a small collection of same-shape matrices from random
/// triplets (duplicates merged, so inputs are canonical).
fn collection_strategy() -> impl Strategy<Value = Vec<CscMatrix<f64>>> {
    (2usize..24, 1usize..12, 1usize..6).prop_flat_map(|(m, n, k)| {
        let entry = (0..m as u32, 0..n as u32, -8i32..8);
        let one_matrix = proptest::collection::vec(entry, 0..40).prop_map(move |trips| {
            let mut coo = CooMatrix::new(m, n);
            for (r, c, v) in trips {
                coo.push(r, c, v as f64);
            }
            coo.to_csc_sum_duplicates()
        });
        proptest::collection::vec(one_matrix, k)
    })
}

fn dense_sum(mats: &[&CscMatrix<f64>]) -> DenseMatrix<f64> {
    let mut acc = DenseMatrix::zeros(mats[0].nrows(), mats[0].ncols());
    for m in mats {
        acc.add_assign(&DenseMatrix::from_csc(m)).unwrap();
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm computes the dense sum exactly.
    #[test]
    fn all_algorithms_compute_the_sum(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let expect = dense_sum(&refs);
        let opts = Options::default();
        for alg in Algorithm::ALL {
            let out = spkadd_with(&refs, alg, &opts).unwrap();
            prop_assert_eq!(
                DenseMatrix::from_csc(&out).max_abs_diff(&expect),
                0.0,
                "{} deviates", alg
            );
        }
    }

    /// The plan/execute front door agrees bit-for-bit with the one-shot
    /// shim for every algorithm (including Auto), and a second execution
    /// of the same plan is identical to the first.
    #[test]
    fn planned_execution_matches_oneshot(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let (m, n) = (mats[0].nrows(), mats[0].ncols());
        let opts = Options::default();
        for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let mut plan = SpkAdd::new(m, n).algorithm(alg).build().unwrap();
            let planned = plan.execute(&refs).unwrap();
            let oneshot = spkadd_with(&refs, alg, &opts).unwrap();
            prop_assert_eq!(&planned, &oneshot, "{} plan != one-shot", alg);
            let again = plan.execute(&refs).unwrap();
            prop_assert_eq!(&again, &planned, "{} replay differs", alg);
        }
    }

    /// SpKAdd is invariant under permutation of the collection.
    #[test]
    fn input_order_is_irrelevant(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut rev = refs.clone();
        rev.reverse();
        let opts = Options::default();
        let a = spkadd_with(&refs, Algorithm::Hash, &opts).unwrap();
        let b = spkadd_with(&rev, Algorithm::Hash, &opts).unwrap();
        prop_assert!(a.approx_eq(&b, 0.0));
    }

    /// Structural bounds: nnz(B) ≤ Σ nnz(A_i) (cf ≥ 1) and the output
    /// pattern is the union of input patterns.
    #[test]
    fn output_size_bounds(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let total: usize = mats.iter().map(|m| m.nnz()).sum();
        let out = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        prop_assert!(out.nnz() <= total);
        // Union bound per column.
        for j in 0..out.ncols() {
            let mut union: Vec<u32> = mats.iter().flat_map(|m| m.col(j).rows.to_vec()).collect();
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(out.col_nnz(j), union.len());
        }
    }

    /// Sorted output mode really sorts; unsorted mode is numerically
    /// identical after canonicalization.
    #[test]
    fn sorted_and_unsorted_modes_agree(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let sorted = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        prop_assert!(sorted.is_sorted());
        let unsorted = spkadd_with(
            &refs,
            Algorithm::Hash,
            &Options::default().unsorted_output(),
        )
        .unwrap();
        prop_assert!(sorted.approx_eq(&unsorted, 0.0));
    }

    /// Transpose duality: (Σ A_i)ᵀ = Σ (A_iᵀ) — the paper's CSR claim.
    #[test]
    fn transpose_commutes_with_spkadd(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let sum_t = spkadd_with(&refs, Algorithm::Hash, &Options::default())
            .unwrap()
            .transpose();
        let transposed: Vec<CscMatrix<f64>> = mats.iter().map(|m| m.transpose()).collect();
        let trefs: Vec<&CscMatrix<f64>> = transposed.iter().collect();
        let t_sum = spkadd_with(&trefs, Algorithm::Hash, &Options::default()).unwrap();
        prop_assert!(sum_t.approx_eq(&t_sum, 0.0));
    }

    /// The sliding-hash result does not depend on the table budget.
    #[test]
    fn sliding_budget_invariance(mats in collection_strategy()) {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut reference = None;
        for entries in [16usize, 64, 1 << 16] {
            let mut opts = Options::default();
            opts.forced_table_entries = Some(entries);
            let out = spkadd_with(&refs, Algorithm::SlidingHash, &opts).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => prop_assert!(out.approx_eq(r, 0.0)),
            }
        }
    }

    /// CSC round trips through COO preserve the matrix.
    #[test]
    fn format_round_trips(mats in collection_strategy()) {
        for m in &mats {
            let via_coo = m.to_coo().to_csc_sum_duplicates();
            prop_assert!(via_coo.approx_eq(m, 0.0));
        }
    }
}
