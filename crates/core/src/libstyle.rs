//! Library-style 2-way addition baselines — the suite's stand-in for the
//! paper's Intel MKL (`mkl_sparse_d_add`) columns in Tables III and IV.
//!
//! MKL cannot be linked here, so this module reproduces the *cost
//! structure* of calling a general-purpose library primitive in a loop
//! (see DESIGN.md, substitution 1):
//!
//! * every call converts the operands into an internal representation
//!   (here: triplets — MKL's inspector builds its own handle state);
//! * the addition itself is a sort-and-compact over the combined
//!   triplets, not an in-place streaming merge;
//! * every call allocates a fresh output and canonicalizes it.
//!
//! That per-call overhead is what the incremental and tree folds amplify
//! k−1 times, which is why the MKL rows of Tables III/IV are uniformly
//! the slowest. `LibIncremental` and `LibTree` run [`lib_add_pair`]
//! through the fold the native 2-way algorithms use (`twoway::fold`).

use crate::monoid::Monoid;
use spk_sparse::{CooMatrix, CscMatrix};

/// One library-style 2-way addition: triplet conversion, concatenation,
/// sort, duplicate compaction, fresh allocation. The combined triplets
/// are counting-sorted (stable, so `a`'s entries fold before `b`'s — the
/// same order the streaming merges use) and duplicate runs are reduced
/// with `monoid.combine`; `monoid.keep` filters each reduced entry.
pub fn lib_add_pair<T: spk_sparse::Element, O: Monoid<Value = T>>(
    a: &CscMatrix<T>,
    b: &CscMatrix<T>,
    monoid: O,
) -> CscMatrix<T> {
    debug_assert_eq!(a.shape(), b.shape());
    // "Inspector": both operands are re-ingested into library-internal
    // storage on every call.
    let mut combined = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    for (r, c, v) in a.iter() {
        combined.push(r, c, v);
    }
    for (r, c, v) in b.iter() {
        combined.push(r, c, v);
    }
    // "Executor": sort + compact into a canonical fresh output.
    let sorted = combined.to_csc();
    let (m, n, colptr, rows, vals) = sorted.into_parts();
    let mut out_colptr = vec![0usize; n + 1];
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut out_vals = Vec::with_capacity(vals.len());
    for j in 0..n {
        let mut i = colptr[j];
        let hi = colptr[j + 1];
        while i < hi {
            let r = rows[i];
            let mut acc = vals[i];
            i += 1;
            while i < hi && rows[i] == r {
                monoid.combine(&mut acc, vals[i]);
                i += 1;
            }
            if !O::MAY_FILTER || monoid.keep(&acc) {
                out_rows.push(r);
                out_vals.push(acc);
            }
        }
        out_colptr[j + 1] = out_rows.len();
    }
    CscMatrix::from_parts(m, n, out_colptr, out_rows, out_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;
    use crate::parallel::Scheduling;
    use crate::{twoway, Algorithm};

    fn mk(cols: Vec<(Vec<u32>, Vec<f64>)>, m: usize) -> CscMatrix<f64> {
        let mut colptr = vec![0usize];
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for (r, v) in cols {
            rows.extend_from_slice(&r);
            vals.extend_from_slice(&v);
            colptr.push(rows.len());
        }
        CscMatrix::try_new(m, colptr.len() - 1, colptr, rows, vals).unwrap()
    }

    fn fold_plus(mats: &[&CscMatrix<f64>], alg: Algorithm) -> CscMatrix<f64> {
        twoway::fold(mats, alg, Scheduling::default(), Plus::new(), &NullModel)
    }

    #[test]
    fn lib_add_matches_native_add() {
        let a = mk(vec![(vec![1, 3], vec![1.0, 2.0]), (vec![0], vec![5.0])], 4);
        let b = mk(vec![(vec![0, 3], vec![4.0, 8.0]), (vec![0], vec![1.0])], 4);
        let lib = lib_add_pair(&a, &b, Plus::new());
        let native = twoway::add_pair(&a, &b, 0, Scheduling::default(), Plus::new());
        assert!(lib.approx_eq(&native, 1e-12));
    }

    #[test]
    fn incremental_and_tree_agree() {
        let a = mk(vec![(vec![0], vec![1.0])], 3);
        let b = mk(vec![(vec![1], vec![2.0])], 3);
        let c = mk(vec![(vec![0, 2], vec![4.0, 8.0])], 3);
        let inc = fold_plus(&[&a, &b, &c], Algorithm::LibIncremental);
        let tree = fold_plus(&[&a, &b, &c], Algorithm::LibTree);
        assert!(inc.approx_eq(&tree, 1e-12));
        assert_eq!(inc.get(0, 0).unwrap(), 5.0);
    }

    #[test]
    fn single_matrix_passthrough() {
        let a = mk(vec![(vec![2], vec![7.0])], 3);
        assert!(fold_plus(&[&a], Algorithm::LibTree).approx_eq(&a, 0.0));
        assert!(fold_plus(&[&a], Algorithm::LibIncremental).approx_eq(&a, 0.0));
    }
}
