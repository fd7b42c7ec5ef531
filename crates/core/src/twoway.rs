//! 2-way SpKAdd: pairwise merges, incremental and tree reduction
//! (Algorithm 1 and §II-B of the paper).
//!
//! The column merge is the textbook two-pointer merge of sorted
//! `(row, value)` lists, folding equal rows with a [`Monoid`] (pass
//! [`Plus::new()`](crate::monoid::Plus::new) for plain addition). On top
//! of it:
//!
//! * [`add_pair`] — one parallel 2-way addition `A + B` (count pass,
//!   prefix sum, fill pass; columns distributed by weight);
//! * `spkadd_incremental` — Alg 1: fold the collection left to right,
//!   Θ(k²·nd) work for ER inputs because every prefix is re-streamed;
//! * `spkadd_tree` — balanced binary reduction, Θ(k·nd·lg k) work, the
//!   "free" improvement the paper recommends when only a 2-way primitive
//!   is available.
//!
//! The plan runs the folds for [`crate::Algorithm::TwoWayIncremental`]
//! and [`crate::Algorithm::TwoWayTree`], and [`crate::metered`] runs the
//! same drivers under a memory model. All require sorted, duplicate-free
//! input columns. A filtering monoid filters at every pairwise merge
//! (DESIGN.md "Filtering caveat").

use crate::mem::{MemModel, NullModel, TaskModels};
use crate::monoid::Monoid;
use crate::parallel::{
    exclusive_prefix_sum, plan_ranges, split_output, split_per_range, Scheduling,
};
use rayon::prelude::*;
use spk_sparse::{ColView, CscMatrix, Element};

/// Counts the entries `|A(:,j) ∪ B(:,j)|` a merge would produce.
#[inline]
pub fn col_merge_count<T: Element, M: MemModel>(
    a: ColView<'_, T>,
    b: ColView<'_, T>,
    mem: &mut M,
) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.rows.len() && j < b.rows.len() {
        mem.op(1);
        mem.read(a.rows.as_ptr() as usize + i * 4, 4);
        mem.read(b.rows.as_ptr() as usize + j * 4, 4);
        let (ra, rb) = (a.rows[i], b.rows[j]);
        i += (ra <= rb) as usize;
        j += (rb <= ra) as usize;
        n += 1;
    }
    n + (a.rows.len() - i) + (b.rows.len() - j)
}

/// Merges two sorted columns into the output slices, folding equal rows
/// with `monoid.combine`, and returns the number of entries written (the
/// paper's `ColAdd`). Every emitted entry (merged or passed through) is
/// subject to `monoid.keep`, so a filtering monoid can return fewer
/// entries than [`col_merge_count`] predicts.
#[inline]
pub fn col_merge_into<T: Element, O: Monoid<Value = T>, M: MemModel>(
    a: ColView<'_, T>,
    b: ColView<'_, T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    monoid: O,
    mem: &mut M,
) -> usize {
    let sz = std::mem::size_of::<T>();
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.rows.len() && j < b.rows.len() {
        mem.op(1);
        mem.read(a.rows.as_ptr() as usize + i * 4, 4);
        mem.read(b.rows.as_ptr() as usize + j * 4, 4);
        let (ra, rb) = (a.rows[i], b.rows[j]);
        let (row, val) = if ra < rb {
            mem.read(a.vals.as_ptr() as usize + i * sz, sz);
            let v = a.vals[i];
            i += 1;
            (ra, v)
        } else if rb < ra {
            mem.read(b.vals.as_ptr() as usize + j * sz, sz);
            let v = b.vals[j];
            j += 1;
            (rb, v)
        } else {
            mem.read(a.vals.as_ptr() as usize + i * sz, sz);
            mem.read(b.vals.as_ptr() as usize + j * sz, sz);
            let mut v = a.vals[i];
            monoid.combine(&mut v, b.vals[j]);
            i += 1;
            j += 1;
            (ra, v)
        };
        if O::MAY_FILTER && !monoid.keep(&val) {
            continue;
        }
        out_rows[n] = row;
        out_vals[n] = val;
        mem.write(out_rows.as_ptr() as usize + n * 4, 4);
        mem.write(out_vals.as_ptr() as usize + n * sz, sz);
        n += 1;
    }
    while i < a.rows.len() {
        mem.read(a.rows.as_ptr() as usize + i * 4, 4);
        mem.read(a.vals.as_ptr() as usize + i * sz, sz);
        let v = a.vals[i];
        i += 1;
        if O::MAY_FILTER && !monoid.keep(&v) {
            continue;
        }
        out_rows[n] = a.rows[i - 1];
        out_vals[n] = v;
        mem.write(out_rows.as_ptr() as usize + n * 4, 4);
        mem.write(out_vals.as_ptr() as usize + n * sz, sz);
        n += 1;
    }
    while j < b.rows.len() {
        mem.read(b.rows.as_ptr() as usize + j * 4, 4);
        mem.read(b.vals.as_ptr() as usize + j * sz, sz);
        let v = b.vals[j];
        j += 1;
        if O::MAY_FILTER && !monoid.keep(&v) {
            continue;
        }
        out_rows[n] = b.rows[j - 1];
        out_vals[n] = v;
        mem.write(out_rows.as_ptr() as usize + n * 4, 4);
        mem.write(out_vals.as_ptr() as usize + n * sz, sz);
        n += 1;
    }
    n
}

/// Parallel 2-way addition `A + B` over sorted CSC inputs.
///
/// Two passes: a counting pass sizes every output column exactly, then a
/// fill pass writes disjoint windows — no synchronization. Only a
/// filtering monoid needs more: its counting pass yields *upper bounds*,
/// so the fill pass records actual per-column sizes and a final
/// compaction squeezes the dropped slots out.
pub fn add_pair<T: Element, O: Monoid<Value = T>>(
    a: &CscMatrix<T>,
    b: &CscMatrix<T>,
    threads: usize,
    sched: Scheduling,
    monoid: O,
) -> CscMatrix<T> {
    merge_pair(a, b, threads, sched, monoid, &NullModel)
}

/// [`add_pair`], with each task reporting to the model `models` lends it.
fn merge_pair<T: Element, O: Monoid<Value = T>>(
    a: &CscMatrix<T>,
    b: &CscMatrix<T>,
    threads: usize,
    sched: Scheduling,
    monoid: O,
    models: &impl TaskModels,
) -> CscMatrix<T> {
    debug_assert_eq!(a.shape(), b.shape());
    let n = a.ncols();
    // Per-column weights for balancing: the merge cost is linear in the
    // total entries of both columns.
    let weights: Vec<usize> = (0..n).map(|j| a.col_nnz(j) + b.col_nnz(j)).collect();
    let ranges = plan_ranges(&weights, threads, sched);

    // Pass 1: per-column output sizes (exact unless the monoid filters,
    // in which case they are upper bounds).
    let mut counts = vec![0usize; n];
    let windows = split_per_range(&mut counts, &ranges);
    let tasks: Vec<_> = ranges.iter().cloned().zip(windows).collect();
    tasks.into_par_iter().for_each(|(cols, out)| {
        models.lend(|mem| {
            for (slot, j) in cols.into_iter().enumerate() {
                out[slot] = col_merge_count(a.col(j), b.col(j), mem);
            }
        })
    });
    let colptr = exclusive_prefix_sum(&counts);
    let nnz = *colptr.last().unwrap();
    let mut rowidx = vec![0u32; nnz];
    let mut values = vec![T::default(); nnz];

    // Pass 2: merge into disjoint windows, recording actual sizes.
    let mut actual = vec![0usize; n];
    {
        let actual_parts = split_per_range(&mut actual, &ranges);
        let chunks = split_output(&colptr, &ranges, &mut rowidx, &mut values);
        chunks
            .into_par_iter()
            .zip(actual_parts.into_par_iter())
            .for_each(|(chunk, act)| {
                models.lend(|mem| {
                    for (slot, j) in chunk.cols.clone().enumerate() {
                        let lo = colptr[j] - chunk.base;
                        let hi = colptr[j + 1] - chunk.base;
                        let written = col_merge_into(
                            a.col(j),
                            b.col(j),
                            &mut chunk.rows[lo..hi],
                            &mut chunk.vals[lo..hi],
                            monoid,
                            mem,
                        );
                        debug_assert!(O::MAY_FILTER || written == hi - lo);
                        act[slot] = written;
                    }
                })
            });
    }

    if O::MAY_FILTER {
        // Squeeze the dropped slots out of the over-allocated windows.
        let tight = exclusive_prefix_sum(&actual);
        let tight_nnz = *tight.last().unwrap();
        let mut t_rows = vec![0u32; tight_nnz];
        let mut t_vals = vec![T::default(); tight_nnz];
        for j in 0..n {
            let (src, dst, len) = (colptr[j], tight[j], actual[j]);
            t_rows[dst..dst + len].copy_from_slice(&rowidx[src..src + len]);
            t_vals[dst..dst + len].copy_from_slice(&values[src..src + len]);
        }
        return CscMatrix::from_parts(a.nrows(), a.ncols(), tight, t_rows, t_vals);
    }

    CscMatrix::from_parts(a.nrows(), a.ncols(), colptr, rowidx, values)
}

/// SpKAdd by 2-way *incremental* additions (Algorithm 1): `B ← B + A_i`
/// left to right. Quadratic in `k` for disjoint inputs.
pub(crate) fn spkadd_incremental<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    threads: usize,
    sched: Scheduling,
    monoid: O,
    models: &impl TaskModels,
) -> CscMatrix<T> {
    let mut acc = mats[0].clone();
    for a in &mats[1..] {
        acc = merge_pair(&acc, a, threads, sched, monoid, models);
    }
    acc
}

/// SpKAdd by 2-way *tree* additions: inputs at the leaves of a balanced
/// binary tree, `⌈lg k⌉` levels, every level touching Σ nnz once.
///
/// Pairs within a level run in parallel: the rayon shim gives each worker
/// one contiguous share of the pairs and runs the column-parallel merge
/// of each pair inline on that worker. A level with a single pair runs on
/// the caller, so its merge is column-parallel.
pub(crate) fn spkadd_tree<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    threads: usize,
    sched: Scheduling,
    monoid: O,
    models: &impl TaskModels,
) -> CscMatrix<T> {
    // Leaf level: borrow the inputs.
    let mut level: Vec<CscMatrix<T>> = mats
        .par_chunks(2)
        .map(|pair| match pair {
            [a, b] => merge_pair(a, b, threads, sched, monoid, models),
            [a] => (*a).clone(),
            _ => unreachable!(),
        })
        .collect();
    // Internal levels: own the intermediates.
    while level.len() > 1 {
        level = level
            .par_chunks(2)
            .map(|pair| match pair {
                [a, b] => merge_pair(a, b, threads, sched, monoid, models),
                [a] => a.clone(),
                _ => unreachable!(),
            })
            .collect();
    }
    level.pop().expect("non-empty input collection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::CountingModel;
    use crate::monoid::Plus;
    use spk_sparse::DenseMatrix;

    fn mat(cols: Vec<(Vec<u32>, Vec<f64>)>, m: usize) -> CscMatrix<f64> {
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

    fn dense_sum(mats: &[&CscMatrix<f64>]) -> DenseMatrix<f64> {
        let mut acc = DenseMatrix::zeros(mats[0].nrows(), mats[0].ncols());
        for m in mats {
            acc.add_assign(&DenseMatrix::from_csc(m)).unwrap();
        }
        acc
    }

    #[test]
    fn merge_kernels_agree_on_count() {
        let a = mat(vec![(vec![1, 3, 6], vec![3.0, 2.0, 1.0])], 8);
        let b = mat(vec![(vec![0, 3, 5], vec![2.0, 1.0, 3.0])], 8);
        let mut mem = NullModel;
        let c = col_merge_count(a.col(0), b.col(0), &mut mem);
        assert_eq!(c, 5);
        let mut rows = vec![0u32; c];
        let mut vals = vec![0.0f64; c];
        let n = col_merge_into(
            a.col(0),
            b.col(0),
            &mut rows,
            &mut vals,
            Plus::new(),
            &mut mem,
        );
        assert_eq!(n, c);
        assert_eq!(rows, vec![0, 1, 3, 5, 6]);
        assert_eq!(vals, vec![2.0, 3.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn merge_with_empty_sides() {
        let a = mat(vec![(vec![], vec![])], 4);
        let b = mat(vec![(vec![2], vec![1.0])], 4);
        let mut mem = NullModel;
        assert_eq!(col_merge_count(a.col(0), b.col(0), &mut mem), 1);
        assert_eq!(col_merge_count(a.col(0), a.col(0), &mut mem), 0);
        let mut rows = [0u32; 1];
        let mut vals = [0.0f64; 1];
        assert_eq!(
            col_merge_into(
                b.col(0),
                a.col(0),
                &mut rows,
                &mut vals,
                Plus::new(),
                &mut mem
            ),
            1
        );
        assert_eq!(rows[0], 2);
    }

    #[test]
    fn add_pair_matches_dense_oracle() {
        let a = mat(
            vec![
                (vec![1, 3, 6], vec![3.0, 2.0, 1.0]),
                (vec![], vec![]),
                (vec![0, 7], vec![5.0, 5.0]),
            ],
            8,
        );
        let b = mat(
            vec![
                (vec![0, 3, 5], vec![2.0, 1.0, 3.0]),
                (vec![4], vec![9.0]),
                (vec![0], vec![-5.0]),
            ],
            8,
        );
        let c = add_pair(&a, &b, 0, Scheduling::default(), Plus::new());
        let oracle = dense_sum(&[&a, &b]).to_csc();
        // add_pair keeps explicit zeros (0 + -0 cancellations stay stored),
        // so compare densely.
        assert_eq!(
            DenseMatrix::from_csc(&c).max_abs_diff(&dense_sum(&[&a, &b])),
            0.0
        );
        assert!(c.is_sorted());
        // Structure: union of patterns (5 + 1 + 2 entries).
        assert_eq!(c.nnz(), 5 + 1 + 2);
        let _ = oracle;
    }

    #[test]
    fn incremental_and_tree_agree() {
        let a = mat(vec![(vec![0, 2], vec![1.0, 1.0])], 4);
        let b = mat(vec![(vec![1], vec![2.0])], 4);
        let c = mat(vec![(vec![2, 3], vec![4.0, 8.0])], 4);
        let d = mat(vec![(vec![0], vec![16.0])], 4);
        let mats = [&a, &b, &c, &d];
        let inc = spkadd_incremental(&mats, 0, Scheduling::default(), Plus::new(), &NullModel);
        let tree = spkadd_tree(&mats, 0, Scheduling::default(), Plus::new(), &NullModel);
        assert!(inc.approx_eq(&tree, 1e-12));
        assert_eq!(inc.get(2, 0).unwrap(), 5.0);
        assert_eq!(inc.get(0, 0).unwrap(), 17.0);
    }

    #[test]
    fn tree_handles_odd_and_single_inputs() {
        let a = mat(vec![(vec![0], vec![1.0])], 2);
        let b = mat(vec![(vec![1], vec![2.0])], 2);
        let c = mat(vec![(vec![0], vec![4.0])], 2);
        let three = spkadd_tree(
            &[&a, &b, &c],
            0,
            Scheduling::default(),
            Plus::new(),
            &NullModel,
        );
        assert_eq!(three.get(0, 0).unwrap(), 5.0);
        assert_eq!(three.get(1, 0).unwrap(), 2.0);
        let one = spkadd_tree(&[&a], 0, Scheduling::default(), Plus::new(), &NullModel);
        assert!(one.approx_eq(&a, 0.0));
    }

    #[test]
    fn static_scheduling_gives_same_result() {
        let a = mat(vec![(vec![0, 2], vec![1.0, 1.0]), (vec![1], vec![3.0])], 4);
        let b = mat(vec![(vec![2], vec![2.0]), (vec![1, 3], vec![1.0, 1.0])], 4);
        let dynamic = add_pair(&a, &b, 0, Scheduling::default(), Plus::new());
        let stat = add_pair(&a, &b, 0, Scheduling::Static, Plus::new());
        assert!(dynamic.approx_eq(&stat, 0.0));
    }

    #[test]
    fn merge_traffic_is_linear_in_inputs() {
        // Disjoint rows: |out| = |a| + |b|; every entry read and written once.
        let a = mat(vec![((0..50).map(|i| i * 2).collect(), vec![1.0; 50])], 100);
        let b = mat(
            vec![((0..50).map(|i| i * 2 + 1).collect(), vec![1.0; 50])],
            100,
        );
        let mut mem = CountingModel::new();
        let mut rows = vec![0u32; 100];
        let mut vals = vec![0.0f64; 100];
        let n = col_merge_into(
            a.col(0),
            b.col(0),
            &mut rows,
            &mut vals,
            Plus::new(),
            &mut mem,
        );
        assert_eq!(n, 100);
        assert_eq!(mem.writes, 200, "one row + one val write per output entry");
    }
}
