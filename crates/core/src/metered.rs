//! Metered SpKAdd: the production drivers, run on one worker against a
//! caller-owned [`MemModel`].
//!
//! [`trace_spkadd`] validates its inputs, picks the phases the plan would
//! run for the algorithm, and calls the same symbolic, k-way numeric and
//! 2-way drivers the plan calls, with every task reporting its memory
//! traffic to the caller's model. [`meter_spkadd`] plugs in a
//! [`CountingModel`], producing the empirical work (ops) and I/O (bytes)
//! figures that the Table I harness compares against the paper's
//! complexity claims: 2-way incremental should scale as k², tree and heap
//! as k·lg k in work but k in streamed I/O, SPA/hash/sliding as k.

use crate::kway::{kway_numeric, kway_phases, KernelDispatch, RecycledBufs};
use crate::mem::{CountingModel, MemModel};
use crate::monoid::Plus;
use crate::parallel::Scheduling;
use crate::symbolic::{symbolic_counts, DriverCtx, SymbolicStrategy};
use crate::workspace::WorkspacePool;
use crate::{twoway, Algorithm, SpkaddError};
use spk_sparse::{common_shape, CscMatrix, Scalar};
use std::sync::Mutex;

/// Runs `alg` on one worker with full instrumentation; returns the result
/// and the observed counters. `budget` is the sliding table budget in
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

/// One-worker SpKAdd whose every memory access is reported to the
/// supplied [`MemModel`]: the plan's drivers, with the plan's phases for
/// `alg` (default hash symbolic; Sliding Hash slides it) and `budget` as
/// both sliding budgets. [`meter_spkadd`] plugs in a [`CountingModel`];
/// `spk-cachesim` plugs in a cache hierarchy to reproduce the paper's
/// Cachegrind measurements (Table V).
pub fn trace_spkadd<T: Scalar, M: MemModel + Send>(
    mats: &[&CscMatrix<T>],
    alg: Algorithm,
    budget: usize,
    mem: &mut M,
) -> Result<CscMatrix<T>, SpkaddError> {
    common_shape(mats)?;
    match alg {
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
        _ => {}
    }
    let unsorted = mats.iter().position(|a| !a.is_sorted());
    if let (Some(operand), true) = (unsorted, alg.needs_sorted_inputs()) {
        return Err(SpkaddError::UnsortedInput {
            algorithm: alg.name(),
            operand,
        });
    }
    let ctx = DriverCtx {
        sched: Scheduling::default(),
        budget_sym: budget,
        budget_add: budget,
        inputs_sorted: unsorted.is_none(),
        sorted_output: true,
    };
    let (models, monoid) = (Mutex::new(mem), Plus::new());
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| SpkaddError::InvalidOptions(format!("failed to build thread pool: {e}")))?;
    let out = one_worker.install(|| match kway_phases(alg, SymbolicStrategy::Hash) {
        Some((kernel, strategy)) => {
            let pool = WorkspacePool::new(1);
            let counts = symbolic_counts(mats, strategy, &ctx, &pool, &models);
            let (fixed, recycle) = (KernelDispatch::Fixed(kernel), RecycledBufs::default());
            let (out, _) = kway_numeric(
                mats, &counts, true, &fixed, monoid, &ctx, &pool, recycle, &models,
            );
            out
        }
        None if alg == Algorithm::TwoWayTree => {
            twoway::spkadd_tree(mats, 0, ctx.sched, monoid, &models)
        }
        None => twoway::spkadd_incremental(mats, 0, ctx.sched, monoid, &models),
    });
    Ok(out)
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

    /// Six 256×12 operands on strided row patterns: 8–23 entries per
    /// column, overlapping across operands, so columns hold more entries
    /// than a 64-entry sliding budget.
    fn overlapping() -> Vec<CscMatrix<f64>> {
        (0..6u32)
            .map(|i| {
                let (mut colptr, mut rows, mut vals) = (vec![0], Vec::new(), Vec::new());
                for j in 0..12u32 {
                    let mut col: Vec<u32> = (0..8 + (i * 3 + j) % 16)
                        .map(|t| (j * 31 + i * 17 + t * (5 + i)) % 256)
                        .collect();
                    col.sort_unstable();
                    col.dedup();
                    vals.extend((0..col.len()).map(|t| (i * 7 + t as u32) as f64 * 0.125));
                    rows.extend(col);
                    colptr.push(rows.len());
                }
                CscMatrix::try_new(256, 12, colptr, rows, vals).unwrap()
            })
            .collect()
    }

    /// `a` with every column's entries in reverse order: valid, unsorted.
    fn reversed(a: &CscMatrix<f64>) -> CscMatrix<f64> {
        let (m, n, colptr, mut rows, mut vals) = a.clone().into_parts();
        for w in colptr.windows(2) {
            rows[w[0]..w[1]].reverse();
            vals[w[0]..w[1]].reverse();
        }
        CscMatrix::try_new(m, n, colptr, rows, vals).unwrap()
    }

    fn planned(refs: &[&CscMatrix<f64>], alg: Algorithm, budget: usize) -> CscMatrix<f64> {
        crate::SpkAdd::new(refs[0].nrows(), refs[0].ncols())
            .algorithm(alg)
            .options(crate::Options {
                forced_table_entries: Some(budget),
                ..crate::Options::default()
            })
            .build::<f64>()
            .unwrap()
            .execute(refs)
            .unwrap()
    }

    #[test]
    fn unsorted_inputs_meter_like_the_plan() {
        let ms: Vec<CscMatrix<f64>> = overlapping().iter().map(reversed).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        assert!(!refs[0].is_sorted());
        for budget in [64, 1 << 20] {
            for alg in [
                Algorithm::Hash,
                Algorithm::Spa,
                Algorithm::SlidingHash,
                Algorithm::SlidingSpa,
            ] {
                let (out, _) = meter_spkadd(&refs, alg, budget).unwrap();
                assert!(out == planned(&refs, alg, budget), "{alg} at {budget}");
            }
        }
    }

    /// Sliding Hash's `(ops, bytes_total)` on the column-reversed
    /// [`overlapping`] at a 64-entry budget: the bucketing path, which
    /// [`GOLDEN`]'s sorted inputs never reach.
    #[test]
    fn bucketing_path_meters_the_golden_counters() {
        let ms: Vec<CscMatrix<f64>> = overlapping().iter().map(reversed).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let (_, counters) = meter_spkadd(&refs, Algorithm::SlidingHash, 64).unwrap();
        assert_eq!((counters.ops, counters.bytes_total()), (3381, 64572));
    }

    /// Sliding SPA runs the SPA kernel once per row panel, so it meters
    /// SPA's work and streamed bytes, with four panels and with one, on
    /// sorted and on unsorted inputs.
    #[test]
    fn sliding_spa_meters_like_spa() {
        let sorted = overlapping();
        let unsorted: Vec<CscMatrix<f64>> = sorted.iter().map(reversed).collect();
        for ms in [&sorted, &unsorted] {
            let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
            for budget in [64, 1 << 20] {
                let meter = |alg| {
                    let (_, counters) = meter_spkadd(&refs, alg, budget).unwrap();
                    (counters.ops, counters.bytes_total())
                };
                assert_eq!(
                    meter(Algorithm::SlidingSpa),
                    meter(Algorithm::Spa),
                    "budget {budget}, sorted {}",
                    refs[0].is_sorted()
                );
            }
        }
    }

    /// Every meterable algorithm, with `(ops, bytes_total)` on
    /// [`overlapping`] at a 64-entry budget.
    const GOLDEN: [(Algorithm, u64, u64); 7] = [
        (Algorithm::TwoWayIncremental, 5718, 112572),
        (Algorithm::TwoWayTree, 4538, 91308),
        (Algorithm::Heap, 3870, 47640),
        (Algorithm::Spa, 3337, 71604),
        (Algorithm::Hash, 3581, 65372),
        (Algorithm::SlidingHash, 3377, 64556),
        (Algorithm::SlidingSpa, 3337, 71604),
    ];

    #[test]
    fn meter_matches_the_plan_and_the_golden_counters() {
        let ms = overlapping();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        for (alg, ops, bytes) in GOLDEN {
            let (out, counters) = meter_spkadd(&refs, alg, 64).unwrap();
            assert!(
                out == planned(&refs, alg, 64),
                "{alg} differs from the plan"
            );
            assert_eq!(
                (counters.ops, counters.bytes_total()),
                (ops, bytes),
                "{alg}"
            );
        }
    }

    #[test]
    fn lib_baselines_not_meterable() {
        let ms: Vec<CscMatrix<f64>> = (0..2).map(|i| diag_shifted(8, i, 1.0)).collect();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        assert!(meter_spkadd(&refs, Algorithm::LibIncremental, 8).is_err());
        assert!(meter_spkadd(&refs, Algorithm::LibTree, 8).is_err());
    }
}
