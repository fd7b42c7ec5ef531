//! Sequential, fully-instrumented SpKAdd drivers.
//!
//! These run every algorithm single-threaded against one
//! [`CountingModel`], producing the empirical work (ops) and I/O (bytes)
//! figures that the Table I harness compares against the paper's
//! complexity claims: 2-way incremental should scale as k², tree and heap
//! as k·lg k in work but k in streamed I/O, SPA/hash/sliding as k.

use crate::hashtab::{HashAccumulator, SymbolicHashTable};
use crate::heap::KwayHeap;
use crate::kernels::{hash_add_column, hash_symbolic_column, heap_add_column, spa_add_column};
use crate::mem::{CountingModel, MemModel};
use crate::monoid::Plus;
use crate::parallel::exclusive_prefix_sum;
use crate::sliding::{sliding_add_column, sliding_symbolic_column, SlidingScratch};
use crate::spa::{sliding_spa_add_column, Spa};
use crate::twoway::{col_merge_count, col_merge_into};
use crate::{Algorithm, SpkaddError};
use spk_sparse::{common_shape, ColView, CscMatrix, Scalar};

/// Sequential instrumented 2-way addition.
fn meter_add_pair<T: Scalar, M: MemModel>(
    a: &CscMatrix<T>,
    b: &CscMatrix<T>,
    mem: &mut M,
) -> CscMatrix<T> {
    let n = a.ncols();
    let counts: Vec<usize> = (0..n)
        .map(|j| col_merge_count(a.col(j), b.col(j), mem))
        .collect();
    let colptr = exclusive_prefix_sum(&counts);
    let nnz = *colptr.last().unwrap();
    let mut rows = vec![0u32; nnz];
    let mut vals = vec![T::default(); nnz];
    for j in 0..n {
        let lo = colptr[j];
        let hi = colptr[j + 1];
        col_merge_into(
            a.col(j),
            b.col(j),
            &mut rows[lo..hi],
            &mut vals[lo..hi],
            Plus::new(),
            mem,
        );
    }
    CscMatrix::from_parts(a.nrows(), n, colptr, rows, vals)
}

/// Runs `alg` sequentially with full instrumentation; returns the result
/// and the observed counters. `budget` is the sliding-hash table budget in
/// entries (ignored by other algorithms). The library baselines are not
/// meterable (their cost hides inside un-instrumented sort calls) and
/// return an error.
pub fn meter_spkadd<T: Scalar>(
    mats: &[&CscMatrix<T>],
    alg: Algorithm,
    budget: usize,
) -> Result<(CscMatrix<T>, CountingModel), SpkaddError> {
    let mut mem = CountingModel::new();
    let result = trace_spkadd(mats, alg, budget, &mut mem)?;
    Ok((result, mem))
}

/// Sequential single-"thread" SpKAdd whose every memory access is reported
/// to the supplied [`MemModel`]. [`meter_spkadd`] plugs in a
/// [`CountingModel`]; `spk-cachesim` plugs in a cache hierarchy to
/// reproduce the paper's Cachegrind measurements (Table V).
pub fn trace_spkadd<T: Scalar, M: MemModel>(
    mats: &[&CscMatrix<T>],
    alg: Algorithm,
    budget: usize,
    mem: &mut M,
) -> Result<CscMatrix<T>, SpkaddError> {
    let (m, n) = common_shape(mats)?;
    let k = mats.len();
    if alg.needs_sorted_inputs() {
        for (i, mat) in mats.iter().enumerate() {
            if !mat.is_sorted() {
                return Err(SpkaddError::UnsortedInput {
                    algorithm: alg.name(),
                    operand: i,
                });
            }
        }
    }
    // Rebind so the kernel calls below can take `&mut mem` repeatedly.
    let mut mem = &mut *mem;

    let result = match alg {
        Algorithm::TwoWayIncremental => {
            let mut acc = mats[0].clone();
            for a in &mats[1..] {
                acc = meter_add_pair(&acc, a, &mut mem);
            }
            acc
        }
        Algorithm::TwoWayTree => {
            let mut level: Vec<CscMatrix<T>> = Vec::new();
            for pair in mats.chunks(2) {
                level.push(match pair {
                    [a, b] => meter_add_pair(a, b, &mut mem),
                    [a] => (*a).clone(),
                    _ => unreachable!(),
                });
            }
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    next.push(match pair {
                        [a, b] => meter_add_pair(a, b, &mut mem),
                        [a] => a.clone(),
                        _ => unreachable!(),
                    });
                }
                level = next;
            }
            level.pop().expect("non-empty collection")
        }
        Algorithm::LibIncremental | Algorithm::LibTree => {
            return Err(SpkaddError::InvalidOptions(
                "library baselines are not instrumentable; meter the native \
                 2-way algorithms instead"
                    .to_string(),
            ))
        }
        Algorithm::Auto => {
            return Err(SpkaddError::InvalidOptions(
                "metering needs a concrete algorithm; Auto resolves per \
                 collection in the plan front door"
                    .to_string(),
            ))
        }
        Algorithm::Heap
        | Algorithm::Spa
        | Algorithm::Hash
        | Algorithm::SlidingHash
        | Algorithm::SlidingSpa => {
            // Symbolic phase (hash symbolic for hash/heap/SPA as in the
            // paper; sliding symbolic for the sliding algorithm).
            let mut views: Vec<ColView<'_, T>> = Vec::with_capacity(k);
            let mut counts = vec![0usize; n];
            match alg {
                Algorithm::SlidingHash => {
                    let mut ht = SymbolicHashTable::with_capacity(16);
                    let mut scratch = SlidingScratch::new();
                    for (j, c) in counts.iter_mut().enumerate() {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        *c = sliding_symbolic_column(
                            &views,
                            m,
                            budget,
                            &mut ht,
                            true,
                            &mut scratch,
                            &mut mem,
                        );
                    }
                }
                _ => {
                    let mut ht = SymbolicHashTable::with_capacity(16);
                    for (j, c) in counts.iter_mut().enumerate() {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let inz: usize = views.iter().map(|v| v.nnz()).sum();
                        ht.reserve_for(inz);
                        *c = hash_symbolic_column(&views, &mut ht, &mut mem);
                    }
                }
            }
            let colptr = exclusive_prefix_sum(&counts);
            let nnz = *colptr.last().unwrap();
            let mut rows = vec![0u32; nnz];
            let mut vals = vec![T::default(); nnz];
            match alg {
                Algorithm::Heap => {
                    let mut heap = KwayHeap::<T>::new(k);
                    for j in 0..n {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let (lo, hi) = (colptr[j], colptr[j + 1]);
                        heap_add_column(
                            &views,
                            &mut heap,
                            &mut rows[lo..hi],
                            &mut vals[lo..hi],
                            Plus::new(),
                            &mut mem,
                        );
                    }
                }
                Algorithm::Spa => {
                    let mut spa = Spa::<T>::new(m);
                    for j in 0..n {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let (lo, hi) = (colptr[j], colptr[j + 1]);
                        spa_add_column(
                            &views,
                            &mut spa,
                            &mut rows[lo..hi],
                            &mut vals[lo..hi],
                            true,
                            Plus::new(),
                            &mut mem,
                        );
                    }
                }
                Algorithm::Hash => {
                    let mut ht = HashAccumulator::<T>::with_capacity(16);
                    for j in 0..n {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let (lo, hi) = (colptr[j], colptr[j + 1]);
                        ht.reserve_for(hi - lo);
                        hash_add_column(
                            &views,
                            &mut ht,
                            &mut rows[lo..hi],
                            &mut vals[lo..hi],
                            true,
                            Plus::new(),
                            &mut mem,
                        );
                    }
                }
                Algorithm::SlidingHash => {
                    let mut ht = HashAccumulator::<T>::with_capacity(16);
                    let mut scratch = SlidingScratch::new();
                    for j in 0..n {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let (lo, hi) = (colptr[j], colptr[j + 1]);
                        sliding_add_column(
                            &views,
                            m,
                            budget,
                            hi - lo,
                            &mut ht,
                            &mut rows[lo..hi],
                            &mut vals[lo..hi],
                            true,
                            true,
                            Plus::new(),
                            &mut scratch,
                            &mut mem,
                        );
                    }
                }
                Algorithm::SlidingSpa => {
                    let mut spa = Spa::<T>::new(m.min(budget.max(1)));
                    let mut scratch = SlidingScratch::new();
                    for j in 0..n {
                        views.clear();
                        views.extend(mats.iter().map(|a| a.col(j)));
                        let (lo, hi) = (colptr[j], colptr[j + 1]);
                        sliding_spa_add_column(
                            &views,
                            m,
                            budget,
                            &mut spa,
                            &mut rows[lo..hi],
                            &mut vals[lo..hi],
                            true,
                            true,
                            Plus::new(),
                            &mut scratch,
                            &mut mem,
                        );
                    }
                }
                _ => unreachable!(),
            }
            CscMatrix::from_parts(m, n, colptr, rows, vals)
        }
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spk_sparse::DenseMatrix;

    fn diag_shifted(m: usize, shift: u32, val: f64) -> CscMatrix<f64> {
        // One entry per column at row (j + shift) mod m: disjoint patterns
        // for distinct shifts, the worst case for 2-way addition.
        let colptr = (0..=m).collect();
        let rows = (0..m as u32).map(|j| (j + shift) % m as u32).collect();
        CscMatrix::try_new(m, m, colptr, rows, vec![val; m]).unwrap()
    }

    fn oracle(mats: &[&CscMatrix<f64>]) -> DenseMatrix<f64> {
        let mut acc = DenseMatrix::zeros(mats[0].nrows(), mats[0].ncols());
        for m in mats {
            acc.add_assign(&DenseMatrix::from_csc(m)).unwrap();
        }
        acc
    }

    #[test]
    fn metered_results_are_correct() {
        let ms: Vec<CscMatrix<f64>> = (0..4).map(|i| diag_shifted(16, i, 1.0)).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let expect = oracle(&refs);
        for alg in [
            Algorithm::TwoWayIncremental,
            Algorithm::TwoWayTree,
            Algorithm::Heap,
            Algorithm::Spa,
            Algorithm::Hash,
            Algorithm::SlidingHash,
        ] {
            let (out, counters) = meter_spkadd(&refs, alg, 8).unwrap();
            assert_eq!(
                DenseMatrix::from_csc(&out).max_abs_diff(&expect),
                0.0,
                "{alg} wrong"
            );
            assert!(counters.ops > 0, "{alg} recorded no work");
            assert!(counters.bytes_total() > 0, "{alg} recorded no I/O");
        }
    }

    #[test]
    fn incremental_io_grows_quadratically() {
        // Disjoint inputs: incremental re-streams the growing prefix, so
        // bytes(k=8) / bytes(k=4) should approach (8/4)² = 4, while hash
        // stays ~linear (ratio ≈ 2).
        let io_for = |k: usize, alg: Algorithm| -> u64 {
            let ms: Vec<CscMatrix<f64>> = (0..k as u32).map(|i| diag_shifted(64, i, 1.0)).collect();
            let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
            meter_spkadd(&refs, alg, 1 << 20).unwrap().1.bytes_total()
        };
        let inc_ratio = io_for(8, Algorithm::TwoWayIncremental) as f64
            / io_for(4, Algorithm::TwoWayIncremental) as f64;
        let hash_ratio = io_for(8, Algorithm::Hash) as f64 / io_for(4, Algorithm::Hash) as f64;
        assert!(
            inc_ratio > 3.0,
            "incremental I/O ratio {inc_ratio} not quadratic-ish"
        );
        assert!(
            hash_ratio < 2.5,
            "hash I/O ratio {hash_ratio} not linear-ish"
        );
    }

    #[test]
    fn heap_work_exceeds_hash_work() {
        let ms: Vec<CscMatrix<f64>> = (0..16u32).map(|i| diag_shifted(64, i, 1.0)).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let (_, heap) = meter_spkadd(&refs, Algorithm::Heap, 1 << 20).unwrap();
        let (_, hash) = meter_spkadd(&refs, Algorithm::Hash, 1 << 20).unwrap();
        assert!(
            heap.ops > hash.ops,
            "heap ops {} should exceed hash ops {} (lg k factor)",
            heap.ops,
            hash.ops
        );
    }

    #[test]
    fn lib_baselines_not_meterable() {
        let ms: Vec<CscMatrix<f64>> = (0..2).map(|i| diag_shifted(8, i, 1.0)).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        assert!(meter_spkadd(&refs, Algorithm::LibIncremental, 8).is_err());
        assert!(meter_spkadd(&refs, Algorithm::LibTree, 8).is_err());
    }
}
