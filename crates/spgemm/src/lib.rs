//! # spk-spgemm — local sparse matrix–matrix multiplication
//!
//! Column-parallel hash SpGEMM (`C = A·B` over CSC matrices) in the style
//! of Nagasaka et al. (the paper's \[3\]): a symbolic phase sizes every
//! output column with a key-only hash table, then a numeric phase
//! accumulates `A(:,l)·B(l,j)` contributions into a `(row, value)` hash
//! table — the same [`spkadd::hashtab`] accumulators the SpKAdd paper
//! builds on, consumed here as a downstream system.
//!
//! One property matters for the paper's experiments: **sorted vs
//! unsorted output**. Distributed SpGEMM only needs its *intermediate*
//! products sorted if the following reduction demands sorted inputs.
//! Because hash SpKAdd does not, the multiply can skip its per-column
//! sort; Fig 6 measures that as ~20% of multiply time.
//! [`SpgemmOptions::sorted_output`] switches the behaviour.

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

use rayon::prelude::*;
use spk_sparse::{CscMatrix, Scalar, SparseError};
use spkadd::hashtab::{HashAccumulator, SymbolicHashTable};
use spkadd::mem::NullModel;
use spkadd::monoid::Plus;
use spkadd::parallel::{
    exclusive_prefix_sum, plan_ranges, split_output, split_per_range, Scheduling,
};

/// Options for the local SpGEMM.
#[derive(Debug, Clone)]
pub struct SpgemmOptions {
    /// Emit output columns sorted by row index. Turn off when the consumer
    /// (e.g. hash SpKAdd) accepts unsorted columns.
    pub sorted_output: bool,
    /// Worker threads; 0 uses the ambient rayon pool.
    pub threads: usize,
    /// Column-scheduling policy (flop-weighted by default).
    pub scheduling: Scheduling,
}

impl Default for SpgemmOptions {
    fn default() -> Self {
        Self {
            sorted_output: true,
            threads: 0,
            scheduling: Scheduling::default(),
        }
    }
}

/// Per-column multiply flops: `flops[j] = Σ_{(l,·) ∈ B(:,j)} nnz(A(:,l))`.
/// The symbolic upper bound and the load-balancing weight.
pub fn flops_per_column<T: Scalar>(a: &CscMatrix<T>, b: &CscMatrix<T>) -> Vec<usize> {
    let a_col_nnz: Vec<usize> = (0..a.ncols()).map(|l| a.col_nnz(l)).collect();
    (0..b.ncols())
        .map(|j| b.col(j).rows.iter().map(|&l| a_col_nnz[l as usize]).sum())
        .collect()
}

/// Hash SpGEMM: `C = A·B`. Accepts unsorted inputs; output sortedness
/// follows `opts.sorted_output`.
pub fn spgemm_hash<T: Scalar>(
    a: &CscMatrix<T>,
    b: &CscMatrix<T>,
    opts: &SpgemmOptions,
) -> Result<CscMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ProductMismatch {
            lhs_cols: a.ncols(),
            rhs_rows: b.nrows(),
        });
    }
    let run = || {
        let n = b.ncols();
        let flops = flops_per_column(a, b);
        let ranges = plan_ranges(&flops, 0, opts.scheduling);

        // Symbolic phase: exact output column sizes.
        let mut counts = vec![0usize; n];
        let windows = split_per_range(&mut counts, &ranges);
        let tasks: Vec<_> = ranges.iter().cloned().zip(windows).collect();
        tasks.into_par_iter().for_each(|(cols, out)| {
            let mut ht = SymbolicHashTable::with_capacity(16);
            let mut mem = NullModel;
            for (slot, j) in cols.into_iter().enumerate() {
                // Distinct output rows are bounded by both the flop
                // count and the row dimension.
                ht.reserve_for(flops[j].min(a.nrows()));
                let mut nz = 0usize;
                for &l in b.col(j).rows {
                    for &r in a.col(l as usize).rows {
                        if ht.insert(r, &mut mem) {
                            nz += 1;
                        }
                    }
                }
                ht.reset();
                out[slot] = nz;
            }
        });

        let colptr = exclusive_prefix_sum(&counts);
        let nnz = *colptr.last().unwrap();
        let mut rowidx = vec![0u32; nnz];
        let mut values = vec![T::default(); nnz];
        let num_ranges = plan_ranges(&counts, 0, opts.scheduling);
        let chunks = split_output(&colptr, &num_ranges, &mut rowidx, &mut values);
        chunks.into_par_iter().for_each(|chunk| {
            let mut ht = HashAccumulator::<T>::with_capacity(16);
            let mut mem = NullModel;
            for j in chunk.cols.clone() {
                let lo = colptr[j] - chunk.base;
                let hi = colptr[j + 1] - chunk.base;
                ht.reserve_for(hi - lo);
                let bj = b.col(j);
                for (l, bv) in bj.iter() {
                    for (r, av) in a.col(l as usize).iter() {
                        ht.insert_combine(r, av * bv, Plus::new(), &mut mem);
                    }
                }
                let written = ht.drain_into(
                    &mut chunk.rows[lo..hi],
                    &mut chunk.vals[lo..hi],
                    opts.sorted_output,
                    Plus::new(),
                    &mut mem,
                );
                debug_assert_eq!(written, hi - lo);
            }
        });
        CscMatrix::from_parts(a.nrows(), n, colptr, rowidx, values)
    };
    Ok(spkadd::parallel::run_with_threads(opts.threads, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spk_sparse::DenseMatrix;

    fn dense_product(a: &CscMatrix<f64>, b: &CscMatrix<f64>) -> DenseMatrix<f64> {
        DenseMatrix::from_csc(a)
            .matmul(&DenseMatrix::from_csc(b))
            .unwrap()
    }

    fn small_pair() -> (CscMatrix<f64>, CscMatrix<f64>) {
        let a = CscMatrix::try_new(
            4,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let b = CscMatrix::try_new(
            3,
            2,
            vec![0, 2, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn hash_spgemm_matches_dense() {
        let (a, b) = small_pair();
        let c = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        assert_eq!(
            DenseMatrix::from_csc(&c).max_abs_diff(&dense_product(&a, &b)),
            0.0
        );
        assert!(c.is_sorted());
    }

    #[test]
    fn unsorted_output_is_numerically_identical() {
        let (a, b) = small_pair();
        let opts = SpgemmOptions {
            sorted_output: false,
            ..Default::default()
        };
        let c = spgemm_hash(&a, &b, &opts).unwrap();
        assert_eq!(
            DenseMatrix::from_csc(&c).max_abs_diff(&dense_product(&a, &b)),
            0.0
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (a, _) = small_pair();
        let bad = CscMatrix::<f64>::zeros(7, 2);
        assert!(spgemm_hash(&a, &bad, &SpgemmOptions::default()).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let (a, _) = small_pair();
        let i = CscMatrix::<f64>::identity(3);
        let c = spgemm_hash(&a, &i, &SpgemmOptions::default()).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
        let i4 = CscMatrix::<f64>::identity(4);
        let c2 = spgemm_hash(&i4, &a, &SpgemmOptions::default()).unwrap();
        assert!(c2.approx_eq(&a, 1e-12));
    }

    #[test]
    fn empty_operands() {
        let a = CscMatrix::<f64>::zeros(4, 3);
        let b = CscMatrix::<f64>::zeros(3, 2);
        let c = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (4, 2));
    }

    #[test]
    fn flops_accounting() {
        let (a, b) = small_pair();
        // col 0 of B references A cols {0, 2} → 2 + 2 flops;
        // col 1 references {1, 2} → 1 + 2.
        assert_eq!(flops_per_column(&a, &b), vec![4, 3]);
    }

    #[test]
    fn random_products_match_dense_oracle() {
        let a = spk_gen::er(64, 32, 4, 17);
        let b = spk_gen::er(32, 16, 4, 18);
        let c = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        let d = dense_product(&a, &b);
        assert!(DenseMatrix::from_csc(&c).max_abs_diff(&d) < 1e-9);
    }
}
