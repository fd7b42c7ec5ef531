//! k-way merge with a binary min-heap — Algorithm 3 of the paper.
//!
//! The heap holds at most one `(row, matrix, value)` tuple per input
//! column, keyed by row index, so its size is O(k). Every input nonzero
//! passes through the heap once at O(lg k) per operation, giving the
//! paper's O(lg k · Σ nnz) work bound — *not* work-efficient, but with
//! optimal O(Σ nnz) streaming I/O since the heap itself stays in cache
//! (Table I).
//!
//! Requires all input columns sorted by row index.

use crate::mem::MemModel;
use crate::monoid::Monoid;
use spk_sparse::{ColView, Element};

/// One heap node: the frontier entry of input matrix `mat`.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    row: u32,
    mat: u32,
    val: T,
}

impl<T> Node<T> {
    /// Heap ordering key. The `mat` tie-break makes equal-row entries pop
    /// in matrix order, so duplicate coordinates fold left-to-right across
    /// the collection — the same combine order as the hash/SPA kernels'
    /// sequential sweep. Without it the pop order of ties depends on heap
    /// shape, and non-commutative-in-the-bits folds (f64 addition) could
    /// differ between kernels.
    #[inline(always)]
    fn key(&self) -> (u32, u32) {
        (self.row, self.mat)
    }
}

/// Reusable k-way merge heap for one task (thread-private, O(k) memory).
#[derive(Debug, Clone)]
pub struct KwayHeap<T> {
    heap: Vec<Node<T>>,
    /// Per-matrix cursor into the current column, reused across columns.
    cursors: Vec<usize>,
}

impl<T: Element> KwayHeap<T> {
    /// A heap for merging up to `k` columns.
    pub fn new(k: usize) -> Self {
        Self {
            heap: Vec::with_capacity(k),
            cursors: vec![0; k],
        }
    }

    /// Merges the `j`-th columns of all inputs into `(out_rows, out_vals)`
    /// and returns the number of output entries. Output is produced in
    /// ascending row order (the heap algorithm can only emit sorted
    /// output); the caller guarantees each `ColView` is sorted by row.
    ///
    /// Duplicate rows are folded with `monoid.combine`; when a run of
    /// duplicates closes (the heap yields a larger row, or the merge ends)
    /// the reduced value is dropped again if `monoid.keep` rejects it. The
    /// rollback is safe because the heap emits rows in ascending order, so
    /// a closed run never reopens.
    pub fn add_column<O: Monoid<Value = T>, M: MemModel>(
        &mut self,
        cols: &[ColView<'_, T>],
        out_rows: &mut [u32],
        out_vals: &mut [T],
        monoid: O,
        mem: &mut M,
    ) -> usize {
        let k = cols.len();
        debug_assert!(self.cursors.len() >= k);
        self.heap.clear();
        // Alg 3 lines 3–5: seed the heap with each column's first entry.
        for (i, col) in cols.iter().enumerate() {
            self.cursors[i] = 0;
            mem.read(col.rows.as_ptr() as usize, 4);
            if let (Some(&r), Some(&v)) = (col.rows.first(), col.vals.first()) {
                mem.read(col.vals.as_ptr() as usize, std::mem::size_of::<T>());
                self.push(
                    Node {
                        row: r,
                        mat: i as u32,
                        val: v,
                    },
                    mem,
                );
                self.cursors[i] = 1;
            }
        }
        let mut written = 0usize;
        // Alg 3 lines 6–14: repeatedly extract the min-row entry and refill
        // from the same input column.
        while let Some(min) = self.heap.first().copied() {
            let i = min.mat as usize;
            let col = &cols[i];
            let cur = self.cursors[i];
            if cur < col.rows.len() {
                mem.read(col.rows.as_ptr() as usize + cur * 4, 4);
                mem.read(
                    col.vals.as_ptr() as usize + cur * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
                let next = Node {
                    row: col.rows[cur],
                    mat: min.mat,
                    val: col.vals[cur],
                };
                self.cursors[i] = cur + 1;
                self.replace_root(next, mem);
            } else {
                self.pop_root(mem);
            }
            // Alg 3 lines 8–11: extend or accumulate into the output.
            if written > 0 && out_rows[written - 1] == min.row {
                monoid.combine(&mut out_vals[written - 1], min.val);
                mem.write(
                    out_vals.as_ptr() as usize + (written - 1) * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
            } else {
                // The previous row's run just closed; filter it now.
                if O::MAY_FILTER && written > 0 && !monoid.keep(&out_vals[written - 1]) {
                    written -= 1;
                }
                debug_assert!(
                    written == 0 || out_rows[written - 1] < min.row,
                    "heap merge received unsorted input"
                );
                out_rows[written] = min.row;
                out_vals[written] = min.val;
                mem.write(out_rows.as_ptr() as usize + written * 4, 4);
                mem.write(
                    out_vals.as_ptr() as usize + written * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
                written += 1;
            }
        }
        // The final run closes when the heap drains.
        if O::MAY_FILTER && written > 0 && !monoid.keep(&out_vals[written - 1]) {
            written -= 1;
        }
        written
    }

    /// Counts the distinct rows across the `j`-th columns (symbolic phase
    /// via heap, mentioned in §II-D as an alternative to hash symbolic).
    pub fn count_column<M: MemModel>(&mut self, cols: &[ColView<'_, T>], mem: &mut M) -> usize {
        let k = cols.len();
        debug_assert!(self.cursors.len() >= k);
        self.heap.clear();
        for (i, col) in cols.iter().enumerate() {
            self.cursors[i] = 0;
            if let (Some(&r), Some(&v)) = (col.rows.first(), col.vals.first()) {
                self.push(
                    Node {
                        row: r,
                        mat: i as u32,
                        val: v,
                    },
                    mem,
                );
                self.cursors[i] = 1;
            }
        }
        let mut count = 0usize;
        let mut last_row = u32::MAX;
        while let Some(min) = self.heap.first().copied() {
            let i = min.mat as usize;
            let col = &cols[i];
            let cur = self.cursors[i];
            if cur < col.rows.len() {
                let next = Node {
                    row: col.rows[cur],
                    mat: min.mat,
                    val: col.vals[cur],
                };
                self.cursors[i] = cur + 1;
                self.replace_root(next, mem);
            } else {
                self.pop_root(mem);
            }
            if min.row != last_row || count == 0 {
                last_row = min.row;
                count += 1;
            }
        }
        count
    }

    #[inline]
    fn push<M: MemModel>(&mut self, node: Node<T>, mem: &mut M) {
        self.heap.push(node);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            mem.op(1);
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn replace_root<M: MemModel>(&mut self, node: Node<T>, mem: &mut M) {
        self.heap[0] = node;
        self.sift_down(0, mem);
    }

    #[inline]
    fn pop_root<M: MemModel>(&mut self, mem: &mut M) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0, mem);
        }
    }

    #[inline]
    fn sift_down<M: MemModel>(&mut self, mut i: usize, mem: &mut M) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            mem.op(1);
            if l < n && self.heap[l].key() < self.heap[smallest].key() {
                smallest = l;
            }
            if r < n && self.heap[r].key() < self.heap[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;

    fn view<'a>(rows: &'a [u32], vals: &'a [f64]) -> ColView<'a, f64> {
        ColView { rows, vals }
    }

    #[test]
    fn merges_papers_figure_1_example() {
        // Fig 1(a): four input columns, expected output
        // (0,2) (1,5) (3,3) (5,5) (6,2) (7,4).
        let c1 = view(&[1, 3, 6], &[3.0, 2.0, 1.0]);
        let c2 = view(&[0, 3, 5], &[2.0, 1.0, 3.0]);
        let c3 = view(&[5, 7], &[2.0, 1.0]);
        let c4 = view(&[1, 6, 7], &[2.0, 1.0, 3.0]);
        let mut heap = KwayHeap::new(4);
        let mut rows = vec![0u32; 11];
        let mut vals = vec![0.0f64; 11];
        let n = heap.add_column(
            &[c1, c2, c3, c4],
            &mut rows,
            &mut vals,
            Plus::new(),
            &mut NullModel,
        );
        assert_eq!(n, 6);
        assert_eq!(&rows[..n], &[0, 1, 3, 5, 6, 7]);
        assert_eq!(&vals[..n], &[2.0, 5.0, 3.0, 5.0, 2.0, 4.0]);
    }

    #[test]
    fn handles_empty_columns() {
        let c1 = view(&[], &[]);
        let c2 = view(&[2], &[1.5]);
        let mut heap = KwayHeap::new(2);
        let mut rows = vec![0u32; 1];
        let mut vals = vec![0.0f64; 1];
        let n = heap.add_column(&[c1, c2], &mut rows, &mut vals, Plus::new(), &mut NullModel);
        assert_eq!(n, 1);
        assert_eq!((rows[0], vals[0]), (2, 1.5));
        let n = heap.add_column(&[c1, c1], &mut rows, &mut vals, Plus::new(), &mut NullModel);
        assert_eq!(n, 0);
    }

    #[test]
    fn single_input_passes_through() {
        let c = view(&[0, 4, 9], &[1.0, 2.0, 3.0]);
        let mut heap = KwayHeap::new(1);
        let mut rows = vec![0u32; 3];
        let mut vals = vec![0.0f64; 3];
        let n = heap.add_column(&[c], &mut rows, &mut vals, Plus::new(), &mut NullModel);
        assert_eq!(n, 3);
        assert_eq!(&rows[..], &[0, 4, 9]);
    }

    #[test]
    fn count_column_matches_add_column() {
        let c1 = view(&[1, 3, 6], &[3.0, 2.0, 1.0]);
        let c2 = view(&[0, 3, 5], &[2.0, 1.0, 3.0]);
        let mut heap = KwayHeap::new(2);
        assert_eq!(heap.count_column(&[c1, c2], &mut NullModel), 5);
        assert_eq!(heap.count_column(&[c1, c1], &mut NullModel), 3);
    }

    #[test]
    fn heap_is_reusable_across_columns() {
        let c1 = view(&[0], &[1.0]);
        let c2 = view(&[0], &[2.0]);
        let mut heap = KwayHeap::new(2);
        let mut rows = vec![0u32; 1];
        let mut vals = vec![0.0f64; 1];
        for _ in 0..3 {
            let n = heap.add_column(&[c1, c2], &mut rows, &mut vals, Plus::new(), &mut NullModel);
            assert_eq!(n, 1);
            assert_eq!(vals[0], 3.0);
        }
    }

    #[test]
    fn ties_combine_in_matrix_order() {
        // Float addition is not associative in the bits: with the
        // (row, mat) tie-break the heap must fold duplicates strictly
        // left-to-right, matching the hash/SPA kernels' sweep order.
        let vals = [1e16, 1.0, -1e16, 3.0];
        let cols: Vec<ColView<f64>> = vals
            .iter()
            .map(|v| ColView {
                rows: std::slice::from_ref(&7u32),
                vals: std::slice::from_ref(v),
            })
            .collect();
        let mut heap = KwayHeap::new(vals.len());
        let mut rows = vec![0u32; vals.len()];
        let mut out = vec![0.0f64; vals.len()];
        let n = heap.add_column(&cols, &mut rows, &mut out, Plus::new(), &mut NullModel);
        assert_eq!(n, 1);
        let left_fold = vals.iter().copied().reduce(|a, b| a + b).unwrap();
        assert_eq!(out[0].to_bits(), left_fold.to_bits());
    }

    #[test]
    fn all_duplicate_rows_collapse() {
        let cols: Vec<ColView<f64>> = (0..8).map(|_| view(&[5], &[1.0])).collect();
        let mut heap = KwayHeap::new(8);
        let mut rows = vec![0u32; 8];
        let mut vals = vec![0.0f64; 8];
        let n = heap.add_column(&cols, &mut rows, &mut vals, Plus::new(), &mut NullModel);
        assert_eq!(n, 1);
        assert_eq!(vals[0], 8.0);
    }
}
