//! Compressed sparse column (CSC) matrices.
//!
//! CSC is the working format of every SpKAdd algorithm in the paper: the
//! `j`-th columns of the `k` inputs are added independently, so the column
//! is the natural unit of both storage and parallelism.

use crate::{CooMatrix, Element, Scalar, SparseError};

/// A borrowed view of one column: parallel slices of row indices and values.
///
/// This is the `(rowid, val)` tuple list the paper's Algorithms 3–8 consume.
#[derive(Debug, Clone, Copy)]
pub struct ColView<'a, T> {
    /// Row indices of the nonzeros in this column.
    pub rows: &'a [u32],
    /// Values of the nonzeros in this column, parallel to `rows`.
    pub vals: &'a [T],
}

impl<'a, T: Element> ColView<'a, T> {
    /// Number of stored entries in the column.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the column holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(row, value)` pairs in storage order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, T)> + 'a {
        self.rows.iter().copied().zip(self.vals.iter().copied())
    }

    /// Restricts the view to entries with row index in `[r1, r2)`.
    ///
    /// Requires the column to be sorted by row index; locates the range with
    /// two binary searches, which is how the sliding-hash algorithm
    /// (paper Alg 7/8, `A_i(r1:r2, j)`) carves row panels out of columns.
    pub fn row_range(&self, r1: u32, r2: u32) -> ColView<'a, T> {
        let lo = self.rows.partition_point(|&r| r < r1);
        let hi = self.rows.partition_point(|&r| r < r2);
        ColView {
            rows: &self.rows[lo..hi],
            vals: &self.vals[lo..hi],
        }
    }
}

/// Sparse matrix in compressed sparse column format.
///
/// Storage: `colptr` has `ncols + 1` entries; the nonzeros of column `j`
/// live at positions `colptr[j] .. colptr[j+1]` of the parallel arrays
/// `rowidx` / `values`.
///
/// The container does **not** force columns to be sorted or duplicate-free;
/// [`CscMatrix::is_sorted`] tests for the canonical form and
/// [`CscMatrix::sort_columns`] / [`CscMatrix::canonicalize`] establish it.
/// This looseness is deliberate: a headline result of the paper is that the
/// hash SpKAdd accepts *unsorted* inputs, which lets the upstream SpGEMM
/// skip sorting its intermediate products (Fig 6).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Element> CscMatrix<T> {
    /// Builds a matrix from raw CSC arrays, validating the structure.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if nrows > u32::MAX as usize {
            return Err(SparseError::InvalidStructure(format!(
                "nrows {nrows} exceeds u32 index range"
            )));
        }
        // `ncols + 1` would wrap at `usize::MAX`; compare the other way.
        if colptr.len().checked_sub(1) != Some(ncols) {
            return Err(SparseError::InvalidStructure(format!(
                "colptr length {} != ncols ({ncols}) + 1",
                colptr.len()
            )));
        }
        if colptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "colptr[0] must be 0".to_string(),
            ));
        }
        if colptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure(
                "colptr must be non-decreasing".to_string(),
            ));
        }
        let nnz = *colptr.last().unwrap();
        if rowidx.len() != nnz || values.len() != nnz {
            return Err(SparseError::InvalidStructure(format!(
                "array lengths (rowidx {}, values {}) disagree with colptr nnz {}",
                rowidx.len(),
                values.len(),
                nnz
            )));
        }
        if let Some(&bad) = rowidx.iter().find(|&&r| r as usize >= nrows) {
            return Err(SparseError::InvalidStructure(format!(
                "row index {bad} out of bounds for {nrows} rows"
            )));
        }
        Ok(Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        })
    }

    /// Builds a matrix from raw CSC arrays without validation.
    ///
    /// The caller must uphold the invariants checked by [`CscMatrix::try_new`].
    /// Used on hot construction paths where the arrays were just produced by
    /// a kernel that guarantees them; debug builds still assert.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(colptr.len(), ncols + 1);
        debug_assert_eq!(rowidx.len(), *colptr.last().unwrap_or(&0));
        debug_assert_eq!(values.len(), rowidx.len());
        debug_assert!(rowidx.iter().all(|&r| (r as usize) < nrows));
        Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        }
    }

    /// An `nrows × ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        *self.colptr.last().unwrap()
    }

    /// Column pointer array (`ncols + 1` entries).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index array.
    #[inline]
    pub fn rowidx(&self) -> &[u32] {
        &self.rowidx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable value array (structure stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Borrowed view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> ColView<'_, T> {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        ColView {
            rows: &self.rowidx[lo..hi],
            vals: &self.values[lo..hi],
        }
    }

    /// `true` when every column is strictly sorted by row index (which also
    /// implies no duplicate entries) — the canonical CSC form, and the input
    /// precondition of the 2-way and heap SpKAdd algorithms.
    pub fn is_sorted(&self) -> bool {
        columns_sorted(&self.colptr, &self.rowidx, true)
    }

    /// `true` when every column is non-decreasing by row index (duplicates
    /// allowed).
    pub fn is_sorted_with_duplicates(&self) -> bool {
        columns_sorted(&self.colptr, &self.rowidx, false)
    }

    /// Sorts each column by row index (values carried along). Duplicates are
    /// preserved; use [`CscMatrix::canonicalize`] to also merge them.
    pub fn sort_columns(&mut self) {
        let mut perm: Vec<u32> = Vec::new();
        let mut tmp_rows: Vec<u32> = Vec::new();
        let mut tmp_vals: Vec<T> = Vec::new();
        for j in 0..self.ncols {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            let rows = &self.rowidx[lo..hi];
            if rows.windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            perm.clear();
            perm.extend(0..(hi - lo) as u32);
            perm.sort_unstable_by_key(|&p| rows[p as usize]);
            tmp_rows.clear();
            tmp_vals.clear();
            for &p in &perm {
                tmp_rows.push(self.rowidx[lo + p as usize]);
                tmp_vals.push(self.values[lo + p as usize]);
            }
            self.rowidx[lo..hi].copy_from_slice(&tmp_rows);
            self.values[lo..hi].copy_from_slice(&tmp_vals);
        }
    }

    /// Applies `f` to every stored value in place.
    pub fn map_values(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Iterates all stored entries as `(row, col, value)` in column order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).iter().map(move |(r, v)| (r, j as u32, v)))
    }

    /// Per-column nonzero counts (length `ncols`).
    pub fn col_nnz_counts(&self) -> Vec<usize> {
        self.colptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Transposes by counting-sort over rows — O(nnz + nrows). The result
    /// has sorted columns regardless of the input ordering.
    pub fn transpose(&self) -> CscMatrix<T> {
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let colptr_t = counts.clone();
        let nnz = self.nnz();
        let mut rowidx_t = vec![0u32; nnz];
        let mut values_t = vec![T::default(); nnz];
        let mut cursor = counts;
        for j in 0..self.ncols {
            for (r, v) in self.col(j).iter() {
                let dst = cursor[r as usize];
                rowidx_t[dst] = j as u32;
                values_t[dst] = v;
                cursor[r as usize] += 1;
            }
        }
        CscMatrix::from_parts(self.ncols, self.nrows, colptr_t, rowidx_t, values_t)
    }

    /// Converts to coordinate (triplet) format.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// Extracts the column slab `[c1, c2)` as a new `nrows × (c2-c1)` matrix.
    ///
    /// This is the paper's workload-construction primitive: an `m × (n·k)`
    /// R-MAT matrix is split along columns into `k` matrices of `m × n`.
    pub fn slice_cols(&self, c1: usize, c2: usize) -> CscMatrix<T> {
        assert!(c1 <= c2 && c2 <= self.ncols, "column slice out of bounds");
        let lo = self.colptr[c1];
        let hi = self.colptr[c2];
        let colptr = self.colptr[c1..=c2].iter().map(|p| p - lo).collect();
        CscMatrix::from_parts(
            self.nrows,
            c2 - c1,
            colptr,
            self.rowidx[lo..hi].to_vec(),
            self.values[lo..hi].to_vec(),
        )
    }

    /// Extracts the row slab `[r1, r2)` as a new `(r2-r1) × ncols` matrix
    /// with row indices rebased to the slab.
    ///
    /// Together with [`CscMatrix::slice_cols`] this is the 2D block
    /// distribution primitive of the SUMMA simulator. Sorted columns use
    /// binary search; unsorted columns fall back to a filtering scan.
    pub fn slice_rows(&self, r1: usize, r2: usize) -> CscMatrix<T> {
        assert!(r1 <= r2 && r2 <= self.nrows, "row slice out of bounds");
        let (r1, r2) = (r1 as u32, r2 as u32);
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        colptr.push(0usize);
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        for j in 0..self.ncols {
            let col = self.col(j);
            if col.rows.windows(2).all(|w| w[0] <= w[1]) {
                let sub = col.row_range(r1, r2);
                rowidx.extend(sub.rows.iter().map(|&r| r - r1));
                values.extend_from_slice(sub.vals);
            } else {
                for (r, v) in col.iter() {
                    if r >= r1 && r < r2 {
                        rowidx.push(r - r1);
                        values.push(v);
                    }
                }
            }
            colptr.push(rowidx.len());
        }
        CscMatrix::from_parts((r2 - r1) as usize, self.ncols, colptr, rowidx, values)
    }

    /// Extracts the row slab `[r1, r2)` — alias of [`CscMatrix::slice_rows`]
    /// under the name the sharding layer uses: `row_slice` + [`CscMatrix::vstack`]
    /// are the partition/concatenate pair of the row-range-sharded
    /// aggregation service (`spk_server`).
    #[inline]
    pub fn row_slice(&self, r1: usize, r2: usize) -> CscMatrix<T> {
        self.slice_rows(r1, r2)
    }

    /// Splits the matrix into row slabs along `bounds` in **one pass**:
    /// `bounds` holds `parts + 1` non-decreasing boundaries starting at 0
    /// and ending at `nrows`; slab `p` receives rows
    /// `bounds[p]..bounds[p+1]`, rebased to the slab.
    ///
    /// Equivalent to calling [`CscMatrix::row_slice`] once per range but
    /// O(nnz + parts·ncols) total instead of `parts` full scans — this is
    /// the submit-path primitive of the sharded aggregation service.
    /// Sorted columns are carved with successive binary searches;
    /// unsorted columns are bucketed entry-by-entry.
    pub fn row_split(&self, bounds: &[usize]) -> Vec<CscMatrix<T>> {
        assert!(
            bounds.len() >= 2
                && bounds[0] == 0
                && *bounds.last().unwrap() == self.nrows
                && bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must run 0..=nrows, non-decreasing"
        );
        let parts = bounds.len() - 1;
        let mut colptrs: Vec<Vec<usize>> = (0..parts)
            .map(|_| {
                let mut v = Vec::with_capacity(self.ncols + 1);
                v.push(0usize);
                v
            })
            .collect();
        let mut rowidxs: Vec<Vec<u32>> = (0..parts).map(|_| Vec::new()).collect();
        let mut valss: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        for j in 0..self.ncols {
            let col = self.col(j);
            if col.rows.windows(2).all(|w| w[0] <= w[1]) {
                let mut lo = 0usize;
                for p in 0..parts {
                    let hi = lo + col.rows[lo..].partition_point(|&r| (r as usize) < bounds[p + 1]);
                    let base = bounds[p] as u32;
                    rowidxs[p].extend(col.rows[lo..hi].iter().map(|&r| r - base));
                    valss[p].extend_from_slice(&col.vals[lo..hi]);
                    lo = hi;
                }
            } else {
                for (r, v) in col.iter() {
                    // First range whose end exceeds r owns the row (empty
                    // ranges share their boundary with the successor).
                    let p = bounds[1..].partition_point(|&b| b <= r as usize);
                    rowidxs[p].push(r - bounds[p] as u32);
                    valss[p].push(v);
                }
            }
            for p in 0..parts {
                colptrs[p].push(rowidxs[p].len());
            }
        }
        colptrs
            .into_iter()
            .zip(rowidxs)
            .zip(valss)
            .enumerate()
            .map(|(p, ((colptr, rowidx), values))| {
                CscMatrix::from_parts(
                    bounds[p + 1] - bounds[p],
                    self.ncols,
                    colptr,
                    rowidx,
                    values,
                )
            })
            .collect()
    }

    /// Vertically concatenates row slabs: the inverse of partitioning a
    /// matrix with [`CscMatrix::row_slice`] along contiguous row ranges.
    ///
    /// All parts must share one column count; the result has
    /// `Σ nrows(part)` rows, with part `p`'s row indices rebased by the
    /// total height of the parts above it. Within each output column the
    /// entries of the parts are laid down in part order, so stacking
    /// sorted slabs yields sorted columns. O(Σ nnz + ncols · parts).
    pub fn vstack(parts: &[&CscMatrix<T>]) -> Result<CscMatrix<T>, SparseError> {
        let first = parts.first().ok_or(SparseError::EmptyCollection)?;
        let ncols = first.ncols;
        let mut nrows = 0usize;
        for (i, p) in parts.iter().enumerate() {
            if p.ncols != ncols {
                // Only the column count is constrained; `expected` copies
                // the part's own row count so the reported mismatch
                // isolates the dimension that actually matters.
                return Err(SparseError::DimensionMismatch {
                    expected: (p.nrows, ncols),
                    found: p.shape(),
                    operand: i,
                });
            }
            nrows += p.nrows;
        }
        if nrows > u32::MAX as usize {
            return Err(SparseError::InvalidStructure(format!(
                "stacked height {nrows} exceeds u32 index range"
            )));
        }
        let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
        let mut colptr = Vec::with_capacity(ncols + 1);
        colptr.push(0usize);
        let mut rowidx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for j in 0..ncols {
            let mut offset = 0u32;
            for p in parts {
                let col = p.col(j);
                rowidx.extend(col.rows.iter().map(|&r| r + offset));
                values.extend_from_slice(col.vals);
                offset += p.nrows as u32;
            }
            colptr.push(rowidx.len());
        }
        Ok(CscMatrix::from_parts(nrows, ncols, colptr, rowidx, values))
    }

    /// Deconstructs into the raw `(nrows, ncols, colptr, rowidx, values)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<T>) {
        (
            self.nrows,
            self.ncols,
            self.colptr,
            self.rowidx,
            self.values,
        )
    }
}

/// Operations that genuinely require arithmetic on the values — everything
/// above needs only the structural [`Element`] contract, which is what lets
/// the monoid-generic SpKAdd kernels run over e.g. `CscMatrix<bool>`.
impl<T: Scalar> CscMatrix<T> {
    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n as u32).collect(),
            values: vec![T::one(); n],
        }
    }

    /// Value at `(i, j)`, or the additive identity when not stored.
    ///
    /// O(log nnz(col j)) for sorted columns, O(nnz(col j)) otherwise.
    pub fn get(&self, i: usize, j: usize) -> Result<T, SparseError> {
        if i >= self.nrows || j >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        let col = self.col(j);
        let target = i as u32;
        // Fast path: binary search when the column happens to be sorted.
        if col.rows.windows(2).all(|w| w[0] < w[1]) {
            return Ok(match col.rows.binary_search(&target) {
                Ok(pos) => col.vals[pos],
                Err(_) => T::default(),
            });
        }
        let mut acc = T::default();
        for (r, v) in col.iter() {
            if r == target {
                acc += v;
            }
        }
        Ok(acc)
    }

    /// Establishes canonical form: sorts each column and merges duplicate
    /// row indices by summation. Explicit zeros are kept (the paper's
    /// algorithms never drop them either; `nnz` means *stored* entries).
    pub fn canonicalize(&mut self) {
        self.sort_columns();
        let mut write = 0usize;
        let mut new_colptr = vec![0usize; self.ncols + 1];
        let mut read = 0usize;
        for (j, hi) in self.colptr[1..].iter().copied().enumerate() {
            let col_start = write;
            while read < hi {
                let r = self.rowidx[read];
                let mut v = self.values[read];
                read += 1;
                while read < hi && self.rowidx[read] == r {
                    v += self.values[read];
                    read += 1;
                }
                self.rowidx[write] = r;
                self.values[write] = v;
                write += 1;
            }
            new_colptr[j] = col_start;
        }
        new_colptr[self.ncols] = write;
        debug_assert!(new_colptr.windows(2).all(|w| w[0] <= w[1]));
        self.rowidx.truncate(write);
        self.values.truncate(write);
        self.colptr = new_colptr;
    }

    /// Drops stored entries whose value is exactly the additive identity.
    pub fn prune_zeros(&mut self) {
        let mut write = 0usize;
        let mut new_colptr = vec![0usize; self.ncols + 1];
        let mut read = 0usize;
        for (j, hi) in self.colptr[1..].iter().copied().enumerate() {
            new_colptr[j] = write;
            while read < hi {
                if !self.values[read].is_zero() {
                    self.rowidx[write] = self.rowidx[read];
                    self.values[write] = self.values[read];
                    write += 1;
                }
                read += 1;
            }
        }
        new_colptr[self.ncols] = write;
        self.rowidx.truncate(write);
        self.values.truncate(write);
        self.colptr = new_colptr;
    }

    /// Multiplies every stored value by `s`.
    pub fn scale(&mut self, s: T) {
        self.map_values(|v| v * s);
    }

    /// Sum of all stored values, as `f64`.
    pub fn value_sum(&self) -> f64 {
        self.values.iter().map(|v| v.to_f64()).sum()
    }

    /// Compression factor of adding this collection: `Σ nnz(A_i) / nnz(B)`.
    ///
    /// Helper for experiment reporting (the paper's `cf`, §II-A).
    pub fn compression_factor(inputs: &[&CscMatrix<T>], output: &CscMatrix<T>) -> f64 {
        let inz: usize = inputs.iter().map(|m| m.nnz()).sum();
        if output.nnz() == 0 {
            return 1.0;
        }
        inz as f64 / output.nnz() as f64
    }

    /// `true` when `self` and `other` agree entry-wise within `tol`
    /// (absolute), independent of storage order or explicit zeros.
    pub fn approx_eq(&self, other: &CscMatrix<T>, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        a.canonicalize();
        b.canonicalize();
        a.prune_tiny(tol);
        b.prune_tiny(tol);
        if a.colptr != b.colptr || a.rowidx != b.rowidx {
            return false;
        }
        a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| (x.to_f64() - y.to_f64()).abs() <= tol)
    }

    fn prune_tiny(&mut self, tol: f64) {
        let mut write = 0usize;
        let mut new_colptr = vec![0usize; self.ncols + 1];
        let mut read = 0usize;
        for (j, hi) in self.colptr[1..].iter().copied().enumerate() {
            new_colptr[j] = write;
            while read < hi {
                if self.values[read].to_f64().abs() > tol {
                    self.rowidx[write] = self.rowidx[read];
                    self.values[write] = self.values[read];
                    write += 1;
                }
                read += 1;
            }
        }
        new_colptr[self.ncols] = write;
        self.rowidx.truncate(write);
        self.values.truncate(write);
        self.colptr = new_colptr;
    }
}

/// The scan behind [`CscMatrix::is_sorted`] (`strict`) and
/// [`CscMatrix::is_sorted_with_duplicates`]. It reads only the structure,
/// so it is not generic over the value type: it compiles once, here, and
/// its speed does not depend on how a downstream crate's generic code is
/// split into codegen units.
fn columns_sorted(colptr: &[usize], rowidx: &[u32], strict: bool) -> bool {
    colptr.windows(2).all(|c| {
        let rows = &rowidx[c[0]..c[1]];
        if strict {
            rows.windows(2).all(|w| w[0] < w[1])
        } else {
            rows.windows(2).all(|w| w[0] <= w[1])
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CscMatrix<f64> {
        // col 0: (0,1.0),(2,2.0)  col 1: empty  col 2: (1,3.0)
        CscMatrix::try_new(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn try_new_validates() {
        assert!(CscMatrix::<f64>::try_new(3, 3, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(matches!(
            CscMatrix::<f64>::try_new(1, usize::MAX, vec![], vec![], vec![]),
            Err(SparseError::InvalidStructure(_))
        ));
        assert!(CscMatrix::<f64>::try_new(3, 1, vec![1, 1], vec![], vec![]).is_err());
        assert!(
            CscMatrix::<f64>::try_new(3, 1, vec![0, 1], vec![5], vec![1.0]).is_err(),
            "row index out of bounds must be rejected"
        );
        assert!(
            CscMatrix::<f64>::try_new(3, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
    }

    #[test]
    fn accessors() {
        let m = small();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(1), 0);
        assert_eq!(m.get(2, 0).unwrap(), 2.0);
        assert_eq!(m.get(1, 0).unwrap(), 0.0);
        assert!(m.get(5, 0).is_err());
        assert_eq!(m.col(0).nnz(), 2);
        assert!(m.col(1).is_empty());
    }

    #[test]
    fn identity_and_zeros() {
        let i = CscMatrix::<f64>::identity(4);
        assert_eq!(i.nnz(), 4);
        for d in 0..4 {
            assert_eq!(i.get(d, d).unwrap(), 1.0);
        }
        let z = CscMatrix::<f64>::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (2, 5));
    }

    #[test]
    fn sortedness_and_sorting() {
        let mut m = CscMatrix::try_new(
            4,
            2,
            vec![0, 3, 4],
            vec![2, 0, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert!(!m.is_sorted());
        m.sort_columns();
        assert!(m.is_sorted());
        assert_eq!(m.col(0).rows, &[0, 1, 2]);
        assert_eq!(m.col(0).vals, &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn canonicalize_merges_duplicates() {
        let mut m = CscMatrix::try_new(
            4,
            1,
            vec![0, 4],
            vec![2, 0, 2, 0],
            vec![1.0, 2.0, 10.0, 20.0],
        )
        .unwrap();
        m.canonicalize();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0).unwrap(), 22.0);
        assert_eq!(m.get(2, 0).unwrap(), 11.0);
        assert!(m.is_sorted());
    }

    #[test]
    fn prune_zeros_removes_explicit_zeros() {
        let mut m =
            CscMatrix::try_new(3, 2, vec![0, 2, 3], vec![0, 1, 2], vec![0.0, 5.0, 0.0]).unwrap();
        m.prune_zeros();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 0).unwrap(), 5.0);
        assert_eq!(m.col_nnz(1), 0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(0, 2).unwrap(), 2.0);
        assert_eq!(t.get(0, 0).unwrap(), 1.0);
        let tt = t.transpose();
        assert!(tt.approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_sorts_unsorted_input() {
        let m = CscMatrix::try_new(4, 1, vec![0, 3], vec![3, 0, 2], vec![1.0, 2.0, 3.0]).unwrap();
        let tt = m.transpose().transpose();
        assert!(tt.is_sorted());
        assert!(tt.approx_eq(&m, 0.0));
    }

    #[test]
    fn slice_cols_extracts_slab() {
        let m = small();
        let s = m.slice_cols(0, 1);
        assert_eq!(s.shape(), (3, 1));
        assert_eq!(s.nnz(), 2);
        let s2 = m.slice_cols(1, 3);
        assert_eq!(s2.shape(), (3, 2));
        assert_eq!(s2.get(1, 1).unwrap(), 3.0);
    }

    #[test]
    fn slice_rows_rebases_indices() {
        let m = small();
        let s = m.slice_rows(1, 3); // rows 1..3 of 3x3
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.get(1, 0).unwrap(), 2.0, "row 2 becomes row 1");
        assert_eq!(s.get(0, 2).unwrap(), 3.0, "row 1 becomes row 0");
        assert_eq!(s.nnz(), 2);
        // Full-range slice is the identity.
        assert!(m.slice_rows(0, 3).approx_eq(&m, 0.0));
        // Empty slice.
        assert_eq!(m.slice_rows(2, 2).nnz(), 0);
    }

    #[test]
    fn slice_rows_on_unsorted_columns() {
        let m = CscMatrix::try_new(4, 1, vec![0, 3], vec![3, 0, 2], vec![1.0, 2.0, 3.0]).unwrap();
        let s = m.slice_rows(1, 4);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(2, 0).unwrap(), 1.0);
        assert_eq!(s.get(1, 0).unwrap(), 3.0);
    }

    #[test]
    fn col_view_row_range() {
        let m = small();
        let c = m.col(0); // rows [0, 2]
        let r = c.row_range(1, 3);
        assert_eq!(r.rows, &[2]);
        let full = c.row_range(0, 3);
        assert_eq!(full.nnz(), 2);
        let empty = c.row_range(3, 3);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn iter_yields_all_triplets() {
        let m = small();
        let trips: Vec<_> = m.iter().collect();
        assert_eq!(trips, vec![(0, 0, 1.0), (2, 0, 2.0), (1, 2, 3.0)]);
    }

    #[test]
    fn approx_eq_tolerates_order_and_zeros() {
        let a = CscMatrix::try_new(3, 1, vec![0, 2], vec![2, 0], vec![2.0, 1.0]).unwrap();
        let b = CscMatrix::try_new(3, 1, vec![0, 3], vec![0, 2, 1], vec![1.0, 2.0, 0.0]).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
        let c = CscMatrix::try_new(3, 1, vec![0, 1], vec![0], vec![1.5]).unwrap();
        assert!(!a.approx_eq(&c, 1e-12));
    }

    #[test]
    fn scale_and_map() {
        let mut m = small();
        m.scale(2.0);
        assert_eq!(m.get(0, 0).unwrap(), 2.0);
        m.map_values(|v| v - 1.0);
        assert_eq!(m.get(0, 0).unwrap(), 1.0);
    }

    #[test]
    fn vstack_inverts_row_slice() {
        let m = small();
        let top = m.row_slice(0, 1);
        let mid = m.row_slice(1, 2);
        let bot = m.row_slice(2, 3);
        let back = CscMatrix::vstack(&[&top, &mid, &bot]).unwrap();
        assert_eq!(back, m);
        // Uneven two-way split round-trips too.
        let back2 = CscMatrix::vstack(&[&m.row_slice(0, 2), &m.row_slice(2, 3)]).unwrap();
        assert_eq!(back2, m);
    }

    #[test]
    fn row_split_matches_per_range_slices() {
        let m = small();
        for bounds in [vec![0, 3], vec![0, 1, 3], vec![0, 0, 2, 2, 3]] {
            let slabs = m.row_split(&bounds);
            assert_eq!(slabs.len(), bounds.len() - 1);
            for (p, slab) in slabs.iter().enumerate() {
                assert_eq!(
                    slab,
                    &m.row_slice(bounds[p], bounds[p + 1]),
                    "slab {p} of {bounds:?}"
                );
            }
            let refs: Vec<&CscMatrix<f64>> = slabs.iter().collect();
            assert_eq!(CscMatrix::vstack(&refs).unwrap(), m);
        }
    }

    #[test]
    fn row_split_on_unsorted_columns() {
        let m = CscMatrix::try_new(4, 1, vec![0, 3], vec![3, 0, 2], vec![1.0, 2.0, 3.0]).unwrap();
        let slabs = m.row_split(&[0, 2, 4]);
        assert_eq!(slabs[0].nnz(), 1);
        assert_eq!(slabs[0].get(0, 0).unwrap(), 2.0);
        assert_eq!(slabs[1].nnz(), 2);
        assert_eq!(slabs[1].get(1, 0).unwrap(), 1.0, "row 3 rebased to 1");
        assert_eq!(slabs[1].get(0, 0).unwrap(), 3.0, "row 2 rebased to 0");
    }

    #[test]
    #[should_panic(expected = "bounds must run")]
    fn row_split_rejects_bad_bounds() {
        small().row_split(&[0, 2]);
    }

    #[test]
    fn vstack_handles_empty_slabs() {
        let m = small();
        let empty = m.row_slice(1, 1);
        assert_eq!(empty.nrows(), 0);
        let stacked = CscMatrix::vstack(&[&empty, &m, &empty]).unwrap();
        assert_eq!(stacked.shape(), m.shape());
        assert_eq!(stacked, m);
    }

    #[test]
    fn vstack_offsets_row_indices() {
        let a = CscMatrix::<f64>::identity(2);
        let b = CscMatrix::<f64>::identity(2);
        let s = CscMatrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (4, 2));
        assert_eq!(s.get(0, 0).unwrap(), 1.0);
        assert_eq!(s.get(2, 0).unwrap(), 1.0);
        assert_eq!(s.get(3, 1).unwrap(), 1.0);
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    fn vstack_rejects_bad_inputs() {
        let parts: [&CscMatrix<f64>; 0] = [];
        assert!(matches!(
            CscMatrix::vstack(&parts),
            Err(SparseError::EmptyCollection)
        ));
        let a = CscMatrix::<f64>::zeros(2, 3);
        let b = CscMatrix::<f64>::zeros(2, 4);
        assert!(matches!(
            CscMatrix::vstack(&[&a, &b]),
            Err(SparseError::DimensionMismatch { operand: 1, .. })
        ));
    }

    #[test]
    fn compression_factor_reports_ratio() {
        let a = small();
        let b = small();
        let mut sum = small();
        sum.scale(2.0);
        let cf = CscMatrix::compression_factor(&[&a, &b], &sum);
        assert!((cf - 2.0).abs() < 1e-12);
    }
}
