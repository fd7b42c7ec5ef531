//! SpKAdd over doubly-compressed (DCSC) matrices.
//!
//! §II-A of the paper: the algorithms apply to doubly-compressed formats
//! too. For hypersparse operands (`nnz ≪ n`, e.g. the per-process blocks
//! of a large SUMMA grid) the CSC driver would spend O(n) per matrix just
//! walking empty columns; this driver instead merges the k (sorted)
//! non-empty-column lists, visits only the union of occupied columns, and
//! emits a DCSC result. Work is O(Σ nnz + Σ nzc · lg k) — independent of
//! the logical column count.

use crate::hashtab::HashAccumulator;
use crate::mem::NullModel;
use crate::monoid::Monoid;
use crate::{Options, SpkaddError};
use spk_sparse::{ColView, DcscMatrix, Element, SparseError};

/// Adds a collection of DCSC matrices with the hash kernel, visiting only
/// occupied columns and folding duplicates with `monoid`. Output columns
/// are sorted when `opts.sorted_output` is set. A filtering monoid can
/// empty a column entirely, in which case it simply drops out of the
/// (doubly-compressed) output.
pub fn spkadd_dcsc<T: Element, O: Monoid<Value = T>>(
    mats: &[&DcscMatrix<T>],
    monoid: O,
    opts: &Options,
) -> Result<DcscMatrix<T>, SpkaddError> {
    let first = mats
        .first()
        .ok_or(SpkaddError::Sparse(SparseError::EmptyCollection))?;
    let shape = (first.nrows(), first.ncols());
    for (i, m) in mats.iter().enumerate().skip(1) {
        if (m.nrows(), m.ncols()) != shape {
            return Err(SpkaddError::Sparse(SparseError::DimensionMismatch {
                expected: shape,
                found: (m.nrows(), m.ncols()),
                operand: i,
            }));
        }
    }

    // Union of occupied columns: k-way merge of the sorted jc lists.
    let mut union_cols: Vec<u32> = Vec::new();
    {
        let mut cursors: Vec<std::iter::Peekable<_>> = mats
            .iter()
            .map(|m| m.iter_cols().map(|(j, _, _)| j).peekable())
            .collect();
        loop {
            let mut min: Option<u32> = None;
            for c in &mut cursors {
                if let Some(&j) = c.peek() {
                    min = Some(min.map_or(j, |m: u32| m.min(j)));
                }
            }
            let Some(j) = min else { break };
            for c in &mut cursors {
                while c.peek() == Some(&j) {
                    c.next();
                }
            }
            union_cols.push(j);
        }
    }

    // One hash accumulation per occupied column.
    let mut ht = HashAccumulator::<T>::with_capacity(16);
    let mut mem = NullModel;
    let mut jc = Vec::with_capacity(union_cols.len());
    let mut cp = vec![0usize];
    let mut rowidx: Vec<u32> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    let mut views: Vec<ColView<'_, T>> = Vec::with_capacity(mats.len());
    let mut col_rows: Vec<u32> = Vec::new();
    let mut col_vals: Vec<T> = Vec::new();
    for &j in &union_cols {
        views.clear();
        let mut inz = 0usize;
        for m in mats {
            if let Some((rows, vals)) = m.col(j as usize) {
                inz += rows.len();
                views.push(ColView { rows, vals });
            }
        }
        ht.reserve_for(inz);
        col_rows.resize(inz, 0);
        col_vals.resize(inz, T::default());
        let written = crate::kernels::hash_add_column(
            &views,
            &mut ht,
            &mut col_rows,
            &mut col_vals,
            opts.sorted_output,
            monoid,
            &mut mem,
        );
        debug_assert!(
            O::MAY_FILTER || written > 0,
            "union column {j} cannot be empty"
        );
        if written == 0 {
            continue;
        }
        jc.push(j);
        rowidx.extend_from_slice(&col_rows[..written]);
        values.extend_from_slice(&col_vals[..written]);
        cp.push(rowidx.len());
    }
    DcscMatrix::try_new(shape.0, shape.1, jc, cp, rowidx, values).map_err(SpkaddError::Sparse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Plus;
    use crate::{spkadd_with, Algorithm};
    use spk_sparse::CscMatrix;

    fn hypersparse(n: usize, occupied: &[(u32, u32, f64)]) -> DcscMatrix<f64> {
        let mut coo = spk_sparse::CooMatrix::new(64, n);
        for &(r, c, v) in occupied {
            coo.push(r, c, v);
        }
        DcscMatrix::from_csc(&coo.to_csc_sum_duplicates())
    }

    #[test]
    fn matches_csc_spkadd() {
        let a = hypersparse(1000, &[(1, 7, 1.0), (5, 500, 2.0)]);
        let b = hypersparse(1000, &[(1, 7, 10.0), (9, 999, 3.0)]);
        let c = hypersparse(1000, &[(0, 0, 4.0)]);
        let sum = spkadd_dcsc(&[&a, &b, &c], Plus::new(), &Options::default()).unwrap();
        assert_eq!(sum.nzc(), 4, "columns 0, 7, 500, 999");
        // Oracle via CSC.
        let csc: Vec<CscMatrix<f64>> = [&a, &b, &c].iter().map(|m| m.to_csc()).collect();
        let refs: Vec<&CscMatrix<f64>> = csc.iter().collect();
        let expect = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        assert!(sum.to_csc().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn overlapping_and_disjoint_columns() {
        let a = hypersparse(100, &[(0, 1, 1.0), (1, 1, 1.0)]);
        let b = hypersparse(100, &[(0, 1, 1.0), (2, 50, 5.0)]);
        let sum = spkadd_dcsc(&[&a, &b], Plus::new(), &Options::default()).unwrap();
        assert_eq!(sum.nzc(), 2);
        let (rows, vals) = sum.col(1).unwrap();
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[2.0, 1.0]);
        assert_eq!(sum.col(50).unwrap().0, &[2]);
    }

    #[test]
    fn shape_checks() {
        let a = hypersparse(10, &[(0, 1, 1.0)]);
        let b = hypersparse(11, &[(0, 1, 1.0)]);
        assert!(spkadd_dcsc(&[&a, &b], Plus::new(), &Options::default()).is_err());
        let empty: [&DcscMatrix<f64>; 0] = [];
        assert!(spkadd_dcsc(&empty, Plus::new(), &Options::default()).is_err());
    }

    #[test]
    fn all_empty_inputs_produce_empty_dcsc() {
        let z = DcscMatrix::from_csc(&CscMatrix::<f64>::zeros(8, 8));
        let sum = spkadd_dcsc(&[&z, &z], Plus::new(), &Options::default()).unwrap();
        assert_eq!(sum.nnz(), 0);
        assert_eq!(sum.nzc(), 0);
    }
}
