//! Column-level k-way kernels: one function per (data structure × phase).
//!
//! These are the bodies of the paper's Algorithms 3–6 operating on the
//! `j`-th columns of all `k` inputs. Every numeric kernel folds duplicate
//! rows with a [`Monoid`] argument — pass
//! [`Plus::new()`](crate::monoid::Plus::new) for the paper's addition —
//! and the symbolic kernels take none, because output structure is
//! monoid-independent. The parallel drivers in `crate::kway` call them
//! per column, and the sliding kernels in [`crate::sliding`] call the
//! hash kernels and the SPA kernel once per row panel (the one-panel
//! case is the plain kernel itself); `spk-cachesim` calls them directly
//! to replay address streams; the metered drivers call them with a
//! [`crate::mem::CountingModel`] to validate Table I.

use crate::hashtab::{HashAccumulator, SymbolicHashTable};
use crate::heap::KwayHeap;
use crate::mem::MemModel;
use crate::monoid::Monoid;
use crate::spa::Spa;
use spk_sparse::{ColView, Element};

/// Streams one input column into the model (the load half of the paper's
/// I/O accounting: every nonzero is read from memory exactly once in the
/// k-way algorithms, the sliding ones included: they stream each panel's
/// views).
#[inline(always)]
pub(crate) fn stream_column<T: Element, M: MemModel>(col: &ColView<'_, T>, mem: &mut M) {
    // One read event per array; byte counts capture the streamed volume.
    if !col.rows.is_empty() {
        mem.read(col.rows.as_ptr() as usize, col.rows.len() * 4);
        mem.read(col.vals.as_ptr() as usize, std::mem::size_of_val(col.vals));
    }
}

/// HashAdd (Algorithm 5): accumulates all input columns into `ht`,
/// folding duplicate rows with `monoid`, then emits into the output
/// slices. Returns the entries written.
pub fn hash_add_column<T: Element, O: Monoid<Value = T>, M: MemModel>(
    cols: &[ColView<'_, T>],
    ht: &mut HashAccumulator<T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    sorted: bool,
    monoid: O,
    mem: &mut M,
) -> usize {
    for col in cols {
        stream_column(col, mem);
        for (r, v) in col.iter() {
            ht.insert_combine(r, v, monoid, mem);
        }
    }
    ht.drain_into(out_rows, out_vals, sorted, monoid, mem)
}

/// HashSymbolic (Algorithm 6): counts the distinct rows across the input
/// columns — `nnz(B(:,j))`. Values are never touched: output *structure*
/// is the set union of input structures, independent of the monoid.
pub fn hash_symbolic_column<T: Element, M: MemModel>(
    cols: &[ColView<'_, T>],
    ht: &mut SymbolicHashTable,
    mem: &mut M,
) -> usize {
    let mut nz = 0usize;
    for col in cols {
        stream_column(col, mem);
        for &r in col.rows {
            if ht.insert(r, mem) {
                nz += 1;
            }
        }
    }
    ht.reset();
    nz
}

/// SPAAdd (Algorithm 4): scatters all input columns into the dense
/// accumulator, folding duplicate rows with `monoid`, then gathers.
/// Returns the entries written.
pub fn spa_add_column<T: Element, O: Monoid<Value = T>, M: MemModel>(
    cols: &[ColView<'_, T>],
    spa: &mut Spa<T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    sorted: bool,
    monoid: O,
    mem: &mut M,
) -> usize {
    for col in cols {
        stream_column(col, mem);
        for (r, v) in col.iter() {
            spa.scatter_combine(r, v, monoid, mem);
        }
    }
    spa.drain_into(out_rows, out_vals, sorted, monoid, mem)
}

/// Symbolic phase via SPA (§II-D notes heap and SPA also work): counts
/// distinct rows. Value-free ([`Spa::scatter_mark`]) because output
/// structure is monoid-independent; the memory traffic matches the
/// numeric scatter exactly, preserving the Table I accounting.
pub fn spa_symbolic_column<T: Element, M: MemModel>(
    cols: &[ColView<'_, T>],
    spa: &mut Spa<T>,
    mem: &mut M,
) -> usize {
    for col in cols {
        stream_column(col, mem);
        for &r in col.rows {
            spa.scatter_mark(r, mem);
        }
    }
    spa.drain_count()
}

/// HeapAdd (Algorithm 3): k-way merge of sorted columns, folding
/// duplicate rows with `monoid`. Output is always sorted. Returns the
/// entries written.
pub fn heap_add_column<T: Element, O: Monoid<Value = T>, M: MemModel>(
    cols: &[ColView<'_, T>],
    heap: &mut KwayHeap<T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    monoid: O,
    mem: &mut M,
) -> usize {
    heap.add_column(cols, out_rows, out_vals, monoid, mem)
}

/// Symbolic phase via heap: counts distinct rows of sorted columns.
pub fn heap_symbolic_column<T: Element, M: MemModel>(
    cols: &[ColView<'_, T>],
    heap: &mut KwayHeap<T>,
    mem: &mut M,
) -> usize {
    heap.count_column(cols, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;

    fn views() -> Vec<ColView<'static, f64>> {
        // The paper's Fig 1(a) example.
        static R1: [u32; 3] = [1, 3, 6];
        static V1: [f64; 3] = [3.0, 2.0, 1.0];
        static R2: [u32; 3] = [0, 3, 5];
        static V2: [f64; 3] = [2.0, 1.0, 3.0];
        static R3: [u32; 2] = [5, 7];
        static V3: [f64; 2] = [2.0, 1.0];
        static R4: [u32; 3] = [1, 6, 7];
        static V4: [f64; 3] = [2.0, 1.0, 3.0];
        vec![
            ColView {
                rows: &R1,
                vals: &V1,
            },
            ColView {
                rows: &R2,
                vals: &V2,
            },
            ColView {
                rows: &R3,
                vals: &V3,
            },
            ColView {
                rows: &R4,
                vals: &V4,
            },
        ]
    }

    const EXPECT_ROWS: [u32; 6] = [0, 1, 3, 5, 6, 7];
    const EXPECT_VALS: [f64; 6] = [2.0, 5.0, 3.0, 5.0, 2.0, 4.0];

    #[test]
    fn all_three_kernels_agree_on_figure_1() {
        let cols = views();
        let mut mem = NullModel;

        let mut ht = HashAccumulator::<f64>::with_capacity(16);
        let mut rows = vec![0u32; 11];
        let mut vals = vec![0.0f64; 11];
        let n = hash_add_column(
            &cols,
            &mut ht,
            &mut rows,
            &mut vals,
            true,
            Plus::new(),
            &mut mem,
        );
        assert_eq!(n, 6);
        assert_eq!(&rows[..6], &EXPECT_ROWS);
        assert_eq!(&vals[..6], &EXPECT_VALS);

        let mut spa = Spa::<f64>::new(8);
        let n = spa_add_column(
            &cols,
            &mut spa,
            &mut rows,
            &mut vals,
            true,
            Plus::new(),
            &mut mem,
        );
        assert_eq!(n, 6);
        assert_eq!(&rows[..6], &EXPECT_ROWS);
        assert_eq!(&vals[..6], &EXPECT_VALS);

        let mut heap = KwayHeap::<f64>::new(4);
        let n = heap_add_column(
            &cols,
            &mut heap,
            &mut rows,
            &mut vals,
            Plus::new(),
            &mut mem,
        );
        assert_eq!(n, 6);
        assert_eq!(&rows[..6], &EXPECT_ROWS);
        assert_eq!(&vals[..6], &EXPECT_VALS);
    }

    #[test]
    fn symbolic_kernels_agree() {
        let cols = views();
        let mut mem = NullModel;
        let mut ht = SymbolicHashTable::with_capacity(16);
        assert_eq!(hash_symbolic_column(&cols, &mut ht, &mut mem), 6);
        let mut spa = Spa::<f64>::new(8);
        assert_eq!(spa_symbolic_column(&cols, &mut spa, &mut mem), 6);
        let mut heap = KwayHeap::<f64>::new(4);
        assert_eq!(heap_symbolic_column(&cols, &mut heap, &mut mem), 6);
    }

    #[test]
    fn hash_kernel_accepts_unsorted_input() {
        static RU: [u32; 3] = [6, 1, 3];
        static VU: [f64; 3] = [1.0, 3.0, 2.0];
        let cols = vec![ColView::<f64> {
            rows: &RU,
            vals: &VU,
        }];
        let mut ht = HashAccumulator::<f64>::with_capacity(8);
        let mut rows = vec![0u32; 3];
        let mut vals = vec![0.0f64; 3];
        let n = hash_add_column(
            &cols,
            &mut ht,
            &mut rows,
            &mut vals,
            true,
            Plus::new(),
            &mut NullModel,
        );
        assert_eq!(n, 3);
        assert_eq!(rows, vec![1, 3, 6]);
    }

    #[test]
    fn empty_collection_of_columns() {
        let cols: Vec<ColView<f64>> = vec![];
        let mut ht = HashAccumulator::<f64>::with_capacity(4);
        let mut rows = vec![0u32; 0];
        let mut vals = vec![0.0f64; 0];
        assert_eq!(
            hash_add_column(
                &cols,
                &mut ht,
                &mut rows,
                &mut vals,
                true,
                Plus::new(),
                &mut NullModel
            ),
            0
        );
    }
}
