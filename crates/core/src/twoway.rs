//! 2-way SpKAdd: pairwise merges, and the incremental and tree folds
//! (Algorithm 1 and §II-B of the paper).
//!
//! The column merge is the textbook two-pointer merge of sorted
//! `(row, value)` lists, folding equal rows with a [`Monoid`] (pass
//! [`Plus::new()`](crate::monoid::Plus::new) for plain addition).
//! [`add_pair`] runs it as one parallel 2-way addition `A + B` (count
//! pass, prefix sum, fill pass; columns distributed by weight).
//!
//! `fold` runs the four 2-way algorithms for the plan and for
//! [`crate::metered`]: Alg 1's left-to-right fold, Θ(k²·nd) work for ER
//! inputs because every prefix is re-streamed, or the balanced tree,
//! Θ(k·nd·lg k), the "free" improvement the paper recommends when only a
//! 2-way primitive is available. Either repeats the native merge or the
//! library-style pair of [`crate::libstyle`]. All require sorted,
//! duplicate-free input columns. A filtering monoid filters at every
//! pairwise merge (DESIGN.md "Filtering caveat").

use crate::kway::compact;
use crate::libstyle::lib_add_pair;
use crate::mem::{MemModel, NullModel, TaskModels};
use crate::monoid::Monoid;
use crate::parallel::{
    exclusive_prefix_sum, plan_ranges, split_output, split_per_range, Scheduling,
};
use crate::Algorithm;
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
        // Squeeze out the dropped slots; a fresh result is exact-size.
        let (m, n, colptr, mut rowidx, mut values) =
            compact(a.nrows(), n, colptr, &actual, rowidx, values).into_parts();
        rowidx.shrink_to_fit();
        values.shrink_to_fit();
        return CscMatrix::from_parts(m, n, colptr, rowidx, values);
    }

    CscMatrix::from_parts(a.nrows(), a.ncols(), colptr, rowidx, values)
}

/// One 2-way addition, `A + B`: the pair primitive a [`fold`] repeats.
type PairFn<'a, T> = dyn Fn(&CscMatrix<T>, &CscMatrix<T>) -> CscMatrix<T> + Sync + 'a;

/// Runs one of the four 2-way algorithms: the left-to-right fold or the
/// balanced tree, over the native merge or [`lib_add_pair`]. The pair
/// primitive is a `dyn` closure, so each element type has one loop and
/// one tree.
pub(crate) fn fold<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    alg: Algorithm,
    sched: Scheduling,
    monoid: O,
    models: &impl TaskModels,
) -> CscMatrix<T> {
    let native = |a: &CscMatrix<T>, b: &CscMatrix<T>| merge_pair(a, b, 0, sched, monoid, models);
    let library = |a: &CscMatrix<T>, b: &CscMatrix<T>| lib_add_pair(a, b, monoid);
    let (pair, is_tree): (&PairFn<'_, T>, bool) = match alg {
        Algorithm::TwoWayIncremental => (&native, false),
        Algorithm::TwoWayTree => (&native, true),
        Algorithm::LibIncremental => (&library, false),
        Algorithm::LibTree => (&library, true),
        Algorithm::Heap
        | Algorithm::Spa
        | Algorithm::Hash
        | Algorithm::SlidingHash
        | Algorithm::SlidingSpa
        | Algorithm::Auto => unreachable!("{alg} is not a pairwise fold"),
    };
    if is_tree {
        tree(mats, pair)
    } else {
        incremental(mats, pair)
    }
}

/// Algorithm 1: adds the inputs into a running sum, left to right.
fn incremental<T: Element>(mats: &[&CscMatrix<T>], pair: &PairFn<'_, T>) -> CscMatrix<T> {
    let mut acc = mats[0].clone();
    for a in &mats[1..] {
        acc = pair(&acc, a);
    }
    acc
}

/// The balanced tree: adds adjacent pairs level by level, `⌈lg k⌉`
/// levels each touching Σ nnz once; a level's odd last matrix moves up
/// unmerged. The pairs of a level run in parallel, each inline on one
/// worker; a level with one pair runs on the caller, so a native merge
/// there is column-parallel.
fn tree<T: Element>(mats: &[&CscMatrix<T>], pair: &PairFn<'_, T>) -> CscMatrix<T> {
    let mut owned: Vec<CscMatrix<T>>;
    let mut level: Vec<&CscMatrix<T>> = mats.to_vec();
    loop {
        let mut next: Vec<CscMatrix<T>> = level
            .par_chunks(2)
            .map(|p| match p {
                [a, b] => pair(a, b),
                [a] => (*a).clone(),
                _ => unreachable!(),
            })
            .collect();
        if next.len() <= 1 {
            return next.pop().expect("non-empty input collection");
        }
        owned = next;
        level = owned.iter().collect();
    }
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

    fn fold_plus(mats: &[&CscMatrix<f64>], alg: Algorithm) -> CscMatrix<f64> {
        fold(mats, alg, Scheduling::default(), Plus::new(), &NullModel)
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
        let inc = fold_plus(&mats, Algorithm::TwoWayIncremental);
        let tree = fold_plus(&mats, Algorithm::TwoWayTree);
        assert!(inc.approx_eq(&tree, 1e-12));
        assert_eq!(inc.get(2, 0).unwrap(), 5.0);
        assert_eq!(inc.get(0, 0).unwrap(), 17.0);
    }

    #[test]
    fn tree_handles_odd_and_single_inputs() {
        let a = mat(vec![(vec![0], vec![1.0])], 2);
        let b = mat(vec![(vec![1], vec![2.0])], 2);
        let c = mat(vec![(vec![0], vec![4.0])], 2);
        let three = fold_plus(&[&a, &b, &c], Algorithm::TwoWayTree);
        assert_eq!(three.get(0, 0).unwrap(), 5.0);
        assert_eq!(three.get(1, 0).unwrap(), 2.0);
        let one = fold_plus(&[&a], Algorithm::TwoWayTree);
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
