//! # spk-spgemm — local sparse matrix–matrix multiplication
//!
//! Column-parallel hash SpGEMM (`C = A·B` over CSC matrices) in the style
//! of Nagasaka et al. (the paper's \[3\]): one numeric pass accumulates
//! `A(:,l)·B(l,j)` contributions into a `(row, value)` hash table — the
//! same [`spkadd::hashtab`] accumulators the SpKAdd paper builds on,
//! consumed here as a downstream system. There is no symbolic pass: each
//! output column is written into a window of its upper bound
//! `min(flops_j, nrows)`, and the columns are packed in place afterwards
//! (see [`spgemm_hash`]). That suits the blocks a sparse SUMMA multiplies,
//! which are hypersparse (many empty columns, a few flops per non-empty
//! one) and compress little (flops / nnz ≈ 1.2), so a second pass over
//! the same products would cost about as much as the first.
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
use spkadd::hashtab::{table_size_for, HashAccumulator};
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
/// Capped at the row count, it bounds the column's nonzeros and weighs
/// the column for load balancing.
pub fn flops_per_column<T: Scalar>(a: &CscMatrix<T>, b: &CscMatrix<T>) -> Vec<usize> {
    let a_col_nnz: Vec<usize> = (0..a.ncols()).map(|l| a.col_nnz(l)).collect();
    (0..b.ncols())
        .map(|j| b.col(j).rows.iter().map(|&l| a_col_nnz[l as usize]).sum())
        .collect()
}

/// Hash-table entries to reserve for a column of at most `bound` distinct
/// rows: enough that the table never passes the 7/8 load factor at which
/// [`HashAccumulator::insert_combine`] doubles and rehashes, so no column
/// grows its table mid-way.
fn table_entries_for(bound: usize) -> usize {
    (bound * 8).div_ceil(7)
}

/// Hash SpGEMM: `C = A·B`. Accepts unsorted inputs; output sortedness
/// follows `opts.sorted_output`.
///
/// One numeric pass, no symbolic pass:
///
/// - column `j` holds at most `min(flops_j, nrows)` distinct rows, so one
///   allocation gives every column a window of that many entries, and the
///   column ranges are balanced by the same bound;
/// - each task drains its columns back to back at a running cursor, so its
///   packed run starts its window and has no gaps, and it records each
///   column's count; a column with a zero bound never touches the table;
/// - after the region, one `copy_within` per task moves its run left, the
///   column pointers are rebuilt from the counts, and the slack is freed.
///
/// Each column folds its products in `B(:,j)`-then-`A(:,l)` order and
/// emits its rows sorted or in first-touch order, in one task, so the
/// result is bit-identical at every thread count. The transient arrays hold
/// `Σ_j min(flops_j, nrows)` entries: at most the output times its
/// compression factor `flops / nnz(C)`.
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
        let (m, n) = (a.nrows(), b.ncols());
        let mut bounds = flops_per_column(a, b);
        for bound in &mut bounds {
            *bound = (*bound).min(m);
        }
        let windows = exclusive_prefix_sum(&bounds);
        let ranges = plan_ranges(&bounds, 0, opts.scheduling);
        let mut counts = vec![0usize; n];
        let mut rowidx = vec![0u32; windows[n]];
        let mut values = vec![T::default(); windows[n]];
        let chunks = split_output(&windows, &ranges, &mut rowidx, &mut values);
        let tasks: Vec<_> = chunks
            .into_iter()
            .zip(split_per_range(&mut counts, &ranges))
            .collect();
        let packed: Vec<usize> = tasks
            .into_par_iter()
            .map(|(chunk, counts)| {
                let mut ht = HashAccumulator::<T>::with_capacity(16);
                let mut mem = NullModel;
                let mut cursor = 0usize;
                for (slot, j) in chunk.cols.clone().enumerate() {
                    let bound = bounds[j];
                    if bound == 0 {
                        continue;
                    }
                    // Grow only: `reserve_for` also shrinks a table 4× too
                    // large, and on hypersparse blocks, whose bounds jump
                    // between a few rows and hundreds, that reallocated the
                    // table for most columns.
                    let entries = table_entries_for(bound);
                    if table_size_for(entries) > ht.capacity() {
                        ht.reserve_for(entries);
                    }
                    for (l, bv) in b.col(j).iter() {
                        for (r, av) in a.col(l as usize).iter() {
                            ht.insert_combine(r, av * bv, Plus::new(), &mut mem);
                        }
                    }
                    let end = cursor + bound;
                    let written = ht.drain_into(
                        &mut chunk.rows[cursor..end],
                        &mut chunk.vals[cursor..end],
                        opts.sorted_output,
                        Plus::new(),
                        &mut mem,
                    );
                    counts[slot] = written;
                    cursor += written;
                }
                cursor
            })
            .collect();

        // Pack: move each task's run left, onto the end of the previous one.
        let mut nnz = 0usize;
        for (cols, &len) in ranges.iter().zip(&packed) {
            let src = windows[cols.start];
            rowidx.copy_within(src..src + len, nnz);
            values.copy_within(src..src + len, nnz);
            nnz += len;
        }
        rowidx.truncate(nnz);
        values.truncate(nnz);
        rowidx.shrink_to_fit();
        values.shrink_to_fit();
        let colptr = exclusive_prefix_sum(&counts);
        CscMatrix::from_parts(m, n, colptr, rowidx, values)
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
        let (full, _) = small_pair();
        for (a, b) in [
            (a, b),
            (full.clone(), CscMatrix::zeros(3, 0)),
            (CscMatrix::zeros(0, 3), CscMatrix::zeros(3, 5)),
            (full, CscMatrix::zeros(3, 4)),
        ] {
            assert_matches_oracle(&a, &b);
        }
    }

    #[test]
    fn flops_accounting() {
        let (a, b) = small_pair();
        // col 0 of B references A cols {0, 2} → 2 + 2 flops;
        // col 1 references {1, 2} → 1 + 2.
        assert_eq!(flops_per_column(&a, &b), vec![4, 3]);
    }

    /// Serial Gustavson with first-touch emission: a column's rows in the
    /// order their first product arrives, each value folded in arrival
    /// order; `sorted` then orders each column by row. Returns
    /// `(colptr, rowidx, value bits)`.
    fn first_touch_oracle(
        a: &CscMatrix<f64>,
        b: &CscMatrix<f64>,
        sorted: bool,
    ) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        const UNSEEN: usize = usize::MAX;
        let mut at = vec![UNSEEN; a.nrows()];
        let (mut colptr, mut rows, mut vals) = (vec![0], Vec::new(), Vec::<f64>::new());
        for j in 0..b.ncols() {
            let start = rows.len();
            for (l, bv) in b.col(j).iter() {
                for (r, av) in a.col(l as usize).iter() {
                    match at[r as usize] {
                        UNSEEN => {
                            at[r as usize] = rows.len();
                            rows.push(r);
                            vals.push(av * bv);
                        }
                        i => vals[i] += av * bv,
                    }
                }
            }
            for &r in &rows[start..] {
                at[r as usize] = UNSEEN;
            }
            if sorted {
                let mut col: Vec<(u32, f64)> = rows[start..]
                    .iter()
                    .copied()
                    .zip(vals[start..].iter().copied())
                    .collect();
                col.sort_by_key(|&(r, _)| r);
                for (k, (r, v)) in col.into_iter().enumerate() {
                    rows[start + k] = r;
                    vals[start + k] = v;
                }
            }
            colptr.push(rows.len());
        }
        (colptr, rows, vals.iter().map(|v| v.to_bits()).collect())
    }

    /// Multiplies at 1 and 3 threads, sorted and unsorted, and checks each
    /// product against the oracle array for array, with no slack left in
    /// the row and value buffers.
    fn assert_matches_oracle(a: &CscMatrix<f64>, b: &CscMatrix<f64>) {
        for sorted_output in [true, false] {
            let want = first_touch_oracle(a, b, sorted_output);
            for threads in [1, 3] {
                let opts = SpgemmOptions {
                    sorted_output,
                    threads,
                    ..Default::default()
                };
                let (m, n, colptr, rowidx, values) = spgemm_hash(a, b, &opts).unwrap().into_parts();
                let ctx = format!("sorted {sorted_output}, threads {threads}");
                assert_eq!((m, n), (a.nrows(), b.ncols()), "{ctx}");
                assert_eq!(colptr, want.0, "colptr, {ctx}");
                assert_eq!(rowidx, want.1, "rowidx, {ctx}");
                let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want.2, "values, {ctx}");
                assert_eq!(rowidx.capacity(), rowidx.len(), "rowidx slack, {ctx}");
                assert_eq!(values.capacity(), values.len(), "values slack, {ctx}");
            }
        }
    }

    /// Reverses every column's entries, so the operands are unsorted.
    fn reversed(m: &CscMatrix<f64>) -> CscMatrix<f64> {
        let (nrows, ncols, colptr, mut rowidx, mut values) = m.clone().into_parts();
        for j in 0..ncols {
            rowidx[colptr[j]..colptr[j + 1]].reverse();
            values[colptr[j]..colptr[j + 1]].reverse();
        }
        CscMatrix::from_parts(nrows, ncols, colptr, rowidx, values)
    }

    #[test]
    fn unsorted_operands_with_empty_columns_match_oracle() {
        // A: column 1 empty, columns unsorted. B: columns 0 and 4 empty,
        // column 3 references only A's empty column.
        let a = CscMatrix::try_new(
            6,
            4,
            vec![0, 3, 3, 5, 8],
            vec![4, 0, 2, 5, 1, 3, 0, 4],
            vec![1.5, -2.0, 3.0, 0.5, 4.0, -1.0, 2.5, 0.25],
        )
        .unwrap();
        let b = CscMatrix::try_new(
            4,
            6,
            vec![0, 0, 3, 5, 6, 6, 9],
            vec![3, 0, 2, 2, 0, 1, 3, 2, 0],
            vec![1.0, -3.0, 2.0, 0.5, 1.5, 7.0, -1.0, 2.0, 0.75],
        )
        .unwrap();
        assert!(!a.is_sorted() && !b.is_sorted());
        assert_matches_oracle(&a, &b);
    }

    #[test]
    fn columns_with_more_flops_than_rows_match_oracle() {
        // Every column of A is dense in its 3 rows, so B's column j with
        // d entries has 3·d flops but at most 3 distinct rows.
        let a = CscMatrix::try_new(
            3,
            4,
            vec![0, 3, 6, 9, 12],
            vec![0, 1, 2, 2, 1, 0, 1, 0, 2, 0, 2, 1],
            (1..=12).map(f64::from).collect(),
        )
        .unwrap();
        let b = CscMatrix::try_new(
            4,
            3,
            vec![0, 4, 5, 7],
            vec![3, 1, 0, 2, 2, 0, 3],
            vec![1.0, -1.0, 0.5, 2.0, 3.0, 1.0, -0.5],
        )
        .unwrap();
        let flops = flops_per_column(&a, &b);
        assert!(flops[0] > a.nrows() && flops[2] > a.nrows());
        assert_matches_oracle(&a, &b);
    }

    #[test]
    fn cancelling_products_stay_stored_as_zero() {
        // C(0,0) = 1·1 + 1·(−1) = 0.0 and stays an explicit entry.
        let a =
            CscMatrix::try_new(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 1.0, 2.0]).unwrap();
        let b = CscMatrix::try_new(2, 1, vec![0, 2], vec![0, 1], vec![1.0, -1.0]).unwrap();
        let c = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        assert_eq!(c.rowidx(), &[0, 1]);
        assert_eq!(c.values(), &[0.0, -2.0]);
        assert_matches_oracle(&a, &b);
    }

    #[test]
    fn random_products_with_slack_in_many_chunks_match_oracle() {
        // 40 rows against 4–6 products per column: most columns hold fewer
        // rows than their flop bound, so every task's run must move left.
        let a = spk_gen::er(40, 64, 6, 21);
        let b = spk_gen::er(64, 300, 4, 22);
        let flops: usize = flops_per_column(&a, &b).iter().sum();
        let c = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        assert!(c.nnz() < flops, "the input must leave slack to pack");
        assert_matches_oracle(&a, &b);
        assert_matches_oracle(&reversed(&a), &reversed(&b));
    }

    #[test]
    fn column_tables_never_pass_the_load_limit() {
        use spkadd::hashtab::table_size_for;
        for bound in 1..5000 {
            let capacity = table_size_for(table_entries_for(bound));
            assert!(bound * 8 <= capacity * 7, "bound {bound}");
        }
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
