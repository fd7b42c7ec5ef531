//! Coordinate (triplet) format — the builder and interchange format.
//!
//! Generators emit COO (R-MAT naturally produces edge triplets, possibly
//! with duplicates), files parse to COO, and COO converts to CSC by
//! counting sort. Duplicate handling is explicit: [`CooMatrix::to_csc`]
//! keeps duplicates (useful for testing the hash SpKAdd's tolerance of
//! non-canonical inputs) while [`CooMatrix::to_csc_sum_duplicates`] merges
//! them.

use crate::{CscMatrix, Element, Scalar, SparseError};

/// Sparse matrix as a list of `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Element> CooMatrix<T> {
    /// An empty `nrows × ncols` triplet list.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self::with_capacity(nrows, ncols, 0)
    }

    /// An empty triplet list with reserved capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Builds from pre-existing triplet arrays, validating bounds.
    pub fn try_from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::InvalidStructure(format!(
                "triplet arrays disagree in length: {} / {} / {}",
                rows.len(),
                cols.len(),
                vals.len()
            )));
        }
        if let Some(&r) = rows.iter().find(|&&r| r as usize >= nrows) {
            return Err(SparseError::InvalidStructure(format!(
                "row index {r} out of bounds for {nrows} rows"
            )));
        }
        if let Some(&c) = cols.iter().find(|&&c| c as usize >= ncols) {
            return Err(SparseError::InvalidStructure(format!(
                "col index {c} out of bounds for {ncols} cols"
            )));
        }
        Ok(Self {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Appends one entry. Panics in debug builds if out of bounds.
    #[inline]
    pub fn push(&mut self, row: u32, col: u32, val: T) {
        debug_assert!((row as usize) < self.nrows && (col as usize) < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Triplet arrays as parallel slices `(rows, cols, vals)`.
    pub fn triplets(&self) -> (&[u32], &[u32], &[T]) {
        (&self.rows, &self.cols, &self.vals)
    }

    /// Iterates `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((r, c), v)| (*r, *c, *v))
    }

    /// Converts to CSC by counting sort over columns, preserving duplicates
    /// and leaving columns sorted by row index (stable with respect to row).
    pub fn to_csc(&self) -> CscMatrix<T> {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let colptr = counts.clone();
        let mut rowidx = vec![0u32; nnz];
        let mut values = vec![T::default(); nnz];
        let mut cursor = counts;
        // First pass places entries in column order (row order arbitrary)…
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let dst = cursor[c as usize];
            rowidx[dst] = r;
            values[dst] = v;
            cursor[c as usize] += 1;
        }
        let mut m = CscMatrix::from_parts(self.nrows, self.ncols, colptr, rowidx, values);
        // …then each column is sorted by row (duplicates preserved).
        m.sort_columns();
        m
    }

    /// Merges another triplet list into this one (shapes must match).
    pub fn extend_from(&mut self, other: &CooMatrix<T>) -> Result<(), SparseError> {
        if (other.nrows, other.ncols) != (self.nrows, self.ncols) {
            return Err(SparseError::DimensionMismatch {
                expected: (self.nrows, self.ncols),
                found: (other.nrows, other.ncols),
                operand: 1,
            });
        }
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
        Ok(())
    }
}

impl<T: Scalar> CooMatrix<T> {
    /// Converts to canonical CSC: sorted columns, duplicates summed.
    pub fn to_csc_sum_duplicates(&self) -> CscMatrix<T> {
        let mut m = self.to_csc();
        m.canonicalize();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(2, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        let m = coo.to_csc();
        assert!(m.is_sorted());
        assert_eq!(m.get(2, 0).unwrap(), 1.0);
        assert_eq!(m.get(0, 0).unwrap(), 2.0);
        assert_eq!(m.get(1, 1).unwrap(), 3.0);
    }

    #[test]
    fn duplicates_preserved_then_summed() {
        let mut coo = CooMatrix::new(2, 1);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        let raw = coo.to_csc();
        assert_eq!(raw.nnz(), 2, "plain conversion keeps duplicates");
        let merged = coo.to_csc_sum_duplicates();
        assert_eq!(merged.nnz(), 1);
        assert_eq!(merged.get(0, 0).unwrap(), 3.0);
    }

    #[test]
    fn try_from_triplets_validates() {
        assert!(CooMatrix::try_from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(CooMatrix::try_from_triplets(2, 2, vec![5], vec![0], vec![1.0]).is_err());
        assert!(CooMatrix::try_from_triplets(2, 2, vec![1], vec![5], vec![1.0]).is_err());
        let ok = CooMatrix::try_from_triplets(2, 2, vec![1], vec![1], vec![1.0]).unwrap();
        assert_eq!(ok.nnz(), 1);
    }

    #[test]
    fn extend_from_checks_shape() {
        let mut a = CooMatrix::<f64>::new(2, 2);
        let b = CooMatrix::<f64>::new(3, 2);
        assert!(a.extend_from(&b).is_err());
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        a.extend_from(&c).unwrap();
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn empty_conversion() {
        let coo = CooMatrix::<f64>::new(4, 4);
        let m = coo.to_csc();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (4, 4));
    }
}
