//! The symbolic phase (§II-D): computing `nnz(B(:,j))` for every output
//! column before any memory is allocated.
//!
//! Every k-way SpKAdd needs the output sizes to pre-allocate the result
//! and (for the hash algorithms) to size the tables. The paper's default
//! is the hash symbolic (Algorithm 6); heap and SPA symbolic phases are
//! also provided, as is the trivial upper bound `Σ_i nnz(A_i(:,j))` which
//! skips the symbolic pass at the cost of a compaction after the numeric
//! phase — the trade-off explored by the `ablation_symbolic` harness.

use crate::kernels::{hash_symbolic_column, heap_symbolic_column, spa_symbolic_column};
use crate::mem::TaskModels;
use crate::parallel::{plan_ranges, split_per_range, Scheduling};
use crate::sliding::sliding_symbolic_column;
use crate::workspace::WorkspacePool;
use rayon::prelude::*;
use spk_sparse::{ColView, CscMatrix, Element};

/// Which data structure computes the per-column output sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SymbolicStrategy {
    /// Hash symbolic (Algorithm 6) — the paper's default.
    #[default]
    Hash,
    /// Hash symbolic with cache-budgeted sliding tables (Algorithm 7).
    /// This matters more than sliding the numeric phase when the
    /// compression factor is high: symbolic tables are sized by *input*
    /// entries, `cf×` larger than the output (§III-B, Fig 4(d)).
    SlidingHash,
    /// Dense-accumulator symbolic.
    Spa,
    /// k-way merge symbolic; requires sorted inputs.
    Heap,
    /// Skip the symbolic pass: use `Σ_i nnz(A_i(:,j))` as an upper bound
    /// and compact after the numeric phase.
    UpperBound,
}

/// Tuning knobs threaded through the symbolic/numeric drivers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriverCtx {
    pub sched: Scheduling,
    /// Per-thread table budget (entries) for the *symbolic* sliding phase.
    pub budget_sym: usize,
    /// Per-thread table budget (entries) for the *numeric* sliding phase.
    pub budget_add: usize,
    /// Whether input columns are sorted (selects the sliding panelling).
    pub inputs_sorted: bool,
    /// Whether output columns must be emitted sorted.
    pub sorted_output: bool,
}

/// Per-column total input nonzeros — the symbolic-phase load-balancing
/// weights (§III-A) and the upper-bound column sizes.
pub fn input_nnz_per_column<T: Element>(mats: &[&CscMatrix<T>]) -> Vec<usize> {
    let n = mats[0].ncols();
    let mut w = vec![0usize; n];
    for m in mats {
        for (j, slot) in w.iter_mut().enumerate() {
            *slot += m.col_nnz(j);
        }
    }
    w
}

/// Computes `nnz(B(:,j))` for all columns in parallel, borrowing
/// thread-private symbolic state from `pool` (§III-A) — the SPA symbolic
/// state is O(m), so per-call allocation would charge it to every
/// execution of a reused plan. Each task reports its memory traffic to
/// the model `models` lends it.
///
/// The symbolic phase is *monoid-independent*: output structure is the
/// set union of input structures, so the counts hold for any
/// [`crate::monoid::Monoid`]. A filtering monoid can only shrink them —
/// the numeric driver then treats them as upper bounds and compacts.
pub(crate) fn symbolic_counts<T: Element>(
    mats: &[&CscMatrix<T>],
    strategy: SymbolicStrategy,
    ctx: &DriverCtx,
    pool: &WorkspacePool<T>,
    models: &impl TaskModels,
) -> Vec<usize> {
    let n = mats[0].ncols();
    let m = mats[0].nrows();
    let k = mats.len();
    let weights = input_nnz_per_column(mats);
    if strategy == SymbolicStrategy::UpperBound {
        return weights;
    }
    let ranges = plan_ranges(&weights, 0, ctx.sched);
    let mut counts = vec![0usize; n];
    let windows = split_per_range(&mut counts, &ranges);
    let tasks: Vec<_> = ranges.iter().cloned().zip(windows).collect();
    tasks.into_par_iter().for_each(|(cols_range, out)| {
        models.lend(|mem| {
            let mut views: Vec<ColView<'_, T>> = Vec::with_capacity(k);
            let mut ws = pool.for_current_thread();
            for (slot, j) in cols_range.into_iter().enumerate() {
                views.clear();
                views.extend(mats.iter().map(|a| a.col(j)));
                out[slot] = match strategy {
                    SymbolicStrategy::Hash => {
                        let ht = ws.sym_hash();
                        let inz: usize = views.iter().map(|c| c.nnz()).sum();
                        ht.reserve_for(inz);
                        hash_symbolic_column(&views, ht, mem)
                    }
                    SymbolicStrategy::SlidingHash => {
                        let (ht, scratch) = ws.sym_hash_and_scratch();
                        sliding_symbolic_column(
                            &views,
                            m,
                            ctx.budget_sym,
                            ht,
                            ctx.inputs_sorted,
                            scratch,
                            mem,
                        )
                    }
                    SymbolicStrategy::Spa => spa_symbolic_column(&views, ws.spa(m), mem),
                    SymbolicStrategy::Heap => heap_symbolic_column(&views, ws.heap(k), mem),
                    SymbolicStrategy::UpperBound => unreachable!("handled above"),
                };
            }
        })
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;

    fn ctx() -> DriverCtx {
        DriverCtx {
            sched: Scheduling::default(),
            budget_sym: 1 << 20,
            budget_add: 1 << 20,
            inputs_sorted: true,
            sorted_output: true,
        }
    }

    fn mats() -> Vec<CscMatrix<f64>> {
        let a = CscMatrix::try_new(8, 2, vec![0, 3, 5], vec![1, 3, 6, 0, 4], vec![1.0; 5]).unwrap();
        let b = CscMatrix::try_new(8, 2, vec![0, 2, 4], vec![3, 7, 0, 4], vec![1.0; 4]).unwrap();
        vec![a, b]
    }

    fn pool() -> WorkspacePool<f64> {
        WorkspacePool::new(rayon::current_num_threads())
    }

    #[test]
    fn strategies_agree_on_exact_counts() {
        let ms = mats();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let c = ctx();
        let ws = pool();
        let expect = vec![4usize, 2];
        for strategy in [
            SymbolicStrategy::Hash,
            SymbolicStrategy::SlidingHash,
            SymbolicStrategy::Spa,
            SymbolicStrategy::Heap,
        ] {
            assert_eq!(
                symbolic_counts(&refs, strategy, &c, &ws, &NullModel),
                expect,
                "{strategy:?} disagrees"
            );
        }
    }

    #[test]
    fn upper_bound_is_input_totals() {
        let ms = mats();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        assert_eq!(
            symbolic_counts(
                &refs,
                SymbolicStrategy::UpperBound,
                &ctx(),
                &pool(),
                &NullModel
            ),
            vec![5, 4]
        );
    }

    #[test]
    fn sliding_with_tiny_budget_still_exact() {
        let ms = mats();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        let mut c = ctx();
        c.budget_sym = 16; // floor of budget_entries
        assert_eq!(
            symbolic_counts(
                &refs,
                SymbolicStrategy::SlidingHash,
                &c,
                &pool(),
                &NullModel
            ),
            vec![4, 2]
        );
    }

    #[test]
    fn input_nnz_per_column_sums() {
        let ms = mats();
        let refs: Vec<&CscMatrix<f64>> = ms.iter().collect();
        assert_eq!(input_nnz_per_column(&refs), vec![5, 4]);
    }
}
