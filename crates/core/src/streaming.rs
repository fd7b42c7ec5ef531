//! Streaming (batched) SpKAdd — the paper's closing future-work note made
//! concrete: "when [all matrices do not fit in memory] we can still
//! arrange input matrices in multiple batches and then use SpKAdd for
//! each batch".
//!
//! [`StreamingAccumulator`] holds at most `batch_size` pending matrices.
//! When the batch fills (or [`StreamingAccumulator::flush`] is called),
//! the batch is reduced with a k-way SpKAdd and folded into the running
//! total with one 2-way merge. Peak memory is therefore
//! O(batch · max nnz + nnz(total)) instead of O(Σ nnz), at the cost of
//! one extra 2-way pass per batch.

use crate::kway::KernelCounts;
use crate::monoid::{Monoid, Plus};
use crate::parallel::Scheduling;
use crate::pattern::PatternCacheStats;
use crate::sliding::budget_entries;
use crate::twoway::add_pair;
use crate::{numeric_entry_bytes, Algorithm, Options, SpkAdd, SpkAddPlan, SpkaddError};
use spk_sparse::{CscMatrix, Element, Scalar, SparseError};

/// When a [`StreamingAccumulator`] reduces its pending batch.
///
/// The matrix-count mode is the paper's literal batching note; the nnz
/// modes are the shard-friendly policies the aggregation service
/// (`spk_server`) uses: a shard flushes once the *pending nonzeros* —
/// not the matrix count — outgrow a budget, so many tiny slices buffer
/// cheaply while a few dense ones flush early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after this many pending matrices (the original batch mode).
    Matrices(usize),
    /// Flush once the pending nonzeros exceed this entry budget.
    Nnz(usize),
    /// Derive the nnz budget from the machine model: the pending batch's
    /// numeric hash entries (`numeric_entry_bytes::<T>()` each, the
    /// paper's `b`) must fit in an LLC shared by `sharers` accumulators —
    /// `budget_entries(M, b, sharers)` from the sliding-hash analysis.
    CacheBudget {
        /// Accumulators (shard workers) sharing the last-level cache.
        sharers: usize,
    },
}

impl FlushPolicy {
    /// Resolves the policy against execution options into concrete
    /// `(matrix, nnz)` budgets (`usize::MAX` = unbounded on that axis).
    pub fn budgets<T: Element>(&self, opts: &Options) -> (usize, usize) {
        match *self {
            FlushPolicy::Matrices(n) => (n.max(1), usize::MAX),
            FlushPolicy::Nnz(b) => (usize::MAX, b.max(1)),
            FlushPolicy::CacheBudget { sharers } => (
                usize::MAX,
                budget_entries(opts.cache.llc_bytes, numeric_entry_bytes::<T>(), sharers),
            ),
        }
    }
}

/// Incrementally accumulates a stream of same-shape sparse matrices.
///
/// Every batch reduction runs through one retained [`SpkAddPlan`] (built
/// lazily on the first flush), so a long-lived accumulator — e.g. an
/// aggregation-service shard flushing thousands of batches at a fixed
/// shape — reuses its hash tables and SPA panels instead of reallocating
/// them per flush.
#[derive(Debug)]
pub struct StreamingAccumulator<T: Element, O: Monoid<Value = T> = Plus<T>> {
    shape: (usize, usize),
    /// Flush once `pending` reaches this many matrices…
    mat_budget: usize,
    /// …or this many pending nonzeros, whichever comes first.
    nnz_budget: usize,
    algorithm: Algorithm,
    opts: Options,
    monoid: O,
    /// The retained batch-reduction plan; `None` until the first flush
    /// (building it eagerly would charge never-flushed accumulators).
    plan: Option<SpkAddPlan<T, O>>,
    pending: Vec<CscMatrix<T>>,
    pending_nnz: usize,
    total: Option<CscMatrix<T>>,
    batches_flushed: usize,
    matrices_seen: usize,
    /// Aggregated per-chunk kernel histogram across all flushes.
    kernel_counts: KernelCounts,
    /// Wall-clock of the previous flush, for the cadence histogram.
    last_flush: Option<std::time::Instant>,
    /// Process-wide flush cadence histogram
    /// (`stream.flush.interval_ns` in [`spk_obs::global`]), resolved
    /// once at construction; recording is three relaxed atomic adds.
    flush_interval_obs: std::sync::Arc<spk_obs::Histogram>,
}

impl<T: Scalar> StreamingAccumulator<T> {
    /// A new accumulator for `nrows × ncols` matrices, reducing every
    /// `batch_size` arrivals with `algorithm`.
    pub fn new(
        nrows: usize,
        ncols: usize,
        batch_size: usize,
        algorithm: Algorithm,
        opts: Options,
    ) -> Self {
        Self::with_policy(
            nrows,
            ncols,
            FlushPolicy::Matrices(batch_size),
            algorithm,
            opts,
        )
    }

    /// A new accumulator flushing per an explicit [`FlushPolicy`].
    pub fn with_policy(
        nrows: usize,
        ncols: usize,
        policy: FlushPolicy,
        algorithm: Algorithm,
        opts: Options,
    ) -> Self {
        Self::with_monoid(nrows, ncols, policy, algorithm, opts, Plus::new())
    }

    /// Convenience constructor: hash SpKAdd with default options.
    pub fn with_defaults(nrows: usize, ncols: usize, batch_size: usize) -> Self {
        Self::new(
            nrows,
            ncols,
            batch_size,
            Algorithm::Hash,
            Options::default(),
        )
    }
}

impl<T: Element, O: Monoid<Value = T>> StreamingAccumulator<T, O> {
    /// A new accumulator reducing under an arbitrary [`Monoid`] — both
    /// the batch k-way reductions and the running-total 2-way merges fold
    /// with `monoid.combine` (and drop entries failing `monoid.keep`).
    ///
    /// Note for filtering monoids: the stream is folded *per batch*, so
    /// `keep` is applied at every flush boundary, not once over the whole
    /// stream — the same per-level semantics as the tree drivers.
    pub fn with_monoid(
        nrows: usize,
        ncols: usize,
        policy: FlushPolicy,
        algorithm: Algorithm,
        mut opts: Options,
        monoid: O,
    ) -> Self {
        let (mat_budget, nnz_budget) = policy.budgets::<T>(&opts);
        // The streaming merge (`add_pair` in `flush`) requires sorted
        // canonical operands, so batch reductions must emit sorted columns
        // even when the caller prefers unsorted output — otherwise the
        // two-pointer merge would silently mis-combine unsorted columns.
        opts.sorted_output = true;
        Self {
            shape: (nrows, ncols),
            mat_budget,
            nnz_budget,
            algorithm,
            opts,
            monoid,
            plan: None,
            pending: Vec::new(),
            pending_nnz: 0,
            total: None,
            batches_flushed: 0,
            matrices_seen: 0,
            kernel_counts: KernelCounts::default(),
            last_flush: None,
            flush_interval_obs: spk_obs::global().histogram("stream.flush.interval_ns"),
        }
    }

    /// Number of matrices accepted so far.
    pub fn matrices_seen(&self) -> usize {
        self.matrices_seen
    }

    /// Number of batch reductions performed so far.
    pub fn batches_flushed(&self) -> usize {
        self.batches_flushed
    }

    /// Matrices buffered but not yet reduced.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Stored entries buffered but not yet reduced.
    pub fn pending_nnz(&self) -> usize {
        self.pending_nnz
    }

    /// Accepts one matrix; reduces the batch when either flush budget
    /// (matrix count or pending nnz) is reached.
    pub fn push(&mut self, m: CscMatrix<T>) -> Result<(), SpkaddError> {
        if m.shape() != self.shape {
            return Err(SpkaddError::Sparse(SparseError::DimensionMismatch {
                expected: self.shape,
                found: m.shape(),
                operand: self.matrices_seen,
            }));
        }
        self.matrices_seen += 1;
        // An all-zero matrix contributes nothing to the sum; dropping it
        // here keeps nnz-budget streams bounded structurally too (every
        // buffered matrix then carries at least one budget-counted entry,
        // so empty-slab floods — e.g. a shard outside a skewed stream's
        // row range — cannot grow `pending` without triggering a flush).
        if m.nnz() == 0 {
            return Ok(());
        }
        self.pending_nnz += m.nnz();
        self.pending.push(m);
        if self.pending.len() >= self.mat_budget || self.pending_nnz >= self.nnz_budget {
            self.flush()?;
        }
        Ok(())
    }

    /// The retained batch-reduction plan (`None` before the first flush).
    pub fn plan(&self) -> Option<&SpkAddPlan<T, O>> {
        self.plan.as_ref()
    }

    /// Pattern-cache counters of the retained plan (`None` before the
    /// first flush or when `opts.pattern_cache == 0`). A steady-sparsity
    /// stream — the gradient/FEM case batching motivates — hits the
    /// cache on every flush after the first, skipping the symbolic pass.
    pub fn pattern_stats(&self) -> Option<PatternCacheStats> {
        self.plan.as_ref().and_then(|p| p.pattern_stats())
    }

    /// Aggregated kernel histogram across every flush so far: how many
    /// column chunks each numeric kernel materialized. Empty until the
    /// first flush; stays single-kernel for explicit algorithms and
    /// mixes under adaptive [`Algorithm::Auto`].
    pub fn kernel_counts(&self) -> KernelCounts {
        self.kernel_counts
    }

    /// Reduces the pending batch into the running total now, through the
    /// retained plan (built on first use).
    pub fn flush(&mut self) -> Result<(), SpkaddError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let _span = spk_obs::span!("stream.flush");
        let now = spk_obs::now();
        if let Some(prev) = self.last_flush.replace(now) {
            self.flush_interval_obs
                .record(now.duration_since(prev).as_nanos() as u64);
        }
        let plan = match self.plan.as_mut() {
            Some(p) => p,
            None => {
                let built = SpkAdd::new(self.shape.0, self.shape.1)
                    .algorithm(self.algorithm)
                    .options(self.opts.clone())
                    .build_with_monoid(self.monoid)?;
                self.plan.insert(built)
            }
        };
        let refs: Vec<&CscMatrix<T>> = self.pending.iter().collect();
        let mut batch_sum = CscMatrix::zeros(0, 0);
        let stats = plan.execute_into_timed(&refs, &mut batch_sum)?;
        self.kernel_counts.merge(&stats.kernel_counts);
        self.pending.clear();
        self.pending_nnz = 0;
        self.batches_flushed += 1;
        self.total = Some(match self.total.take() {
            None => batch_sum,
            Some(acc) => {
                // The running total and the batch sum are both sorted
                // canonical outputs, so the streaming merge is one linear
                // 2-way pass.
                add_pair(
                    &acc,
                    &batch_sum,
                    self.opts.threads,
                    Scheduling::default(),
                    self.monoid,
                )
            }
        });
        Ok(())
    }

    /// A read-only view of the running total (pending matrices excluded).
    pub fn current(&self) -> Option<&CscMatrix<T>> {
        self.total.as_ref()
    }

    /// Flushes any pending batch and returns the final sum. An empty
    /// stream yields the all-zero matrix of the configured shape.
    pub fn finish(mut self) -> Result<CscMatrix<T>, SpkaddError> {
        self.flush()?;
        Ok(self
            .total
            .unwrap_or_else(|| CscMatrix::zeros(self.shape.0, self.shape.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spkadd_with;
    use spk_sparse::DenseMatrix;

    fn shifted_diag(n: usize, s: u32) -> CscMatrix<f64> {
        let colptr = (0..=n).collect();
        let rows = (0..n as u32).map(|j| (j + s) % n as u32).collect();
        CscMatrix::try_new(n, n, colptr, rows, vec![1.0; n]).unwrap()
    }

    #[test]
    fn streamed_equals_one_shot() {
        let mats: Vec<CscMatrix<f64>> = (0..23).map(|i| shifted_diag(16, i % 5)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let oneshot = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();

        let mut acc = StreamingAccumulator::with_defaults(16, 16, 4);
        for m in &mats {
            acc.push(m.clone()).unwrap();
        }
        assert_eq!(acc.matrices_seen(), 23);
        assert_eq!(acc.batches_flushed(), 5, "23 pushes = 5 full batches");
        assert_eq!(acc.pending(), 3);
        let streamed = acc.finish().unwrap();
        assert!(streamed.approx_eq(&oneshot, 1e-12));
    }

    #[test]
    fn peak_pending_is_bounded() {
        let mut acc = StreamingAccumulator::with_defaults(8, 8, 3);
        for i in 0..10 {
            acc.push(shifted_diag(8, i)).unwrap();
            assert!(acc.pending() < 3, "batch must flush at capacity");
        }
    }

    #[test]
    fn nnz_budget_flushes_on_entry_pressure() {
        // Budget of 20 entries: each 8×8 shifted diagonal has 8 nnz, so
        // every third push crosses the budget and flushes.
        let mut acc = StreamingAccumulator::with_policy(
            8,
            8,
            FlushPolicy::Nnz(20),
            Algorithm::Hash,
            Options::default(),
        );
        acc.push(shifted_diag(8, 0)).unwrap();
        acc.push(shifted_diag(8, 1)).unwrap();
        assert_eq!(acc.pending(), 2, "16 < 20 entries: still buffered");
        assert_eq!(acc.pending_nnz(), 16);
        acc.push(shifted_diag(8, 2)).unwrap();
        assert_eq!(acc.pending(), 0, "24 >= 20 entries: flushed");
        assert_eq!(acc.pending_nnz(), 0);
        assert_eq!(acc.batches_flushed(), 1);
        let total = acc.finish().unwrap();
        assert_eq!(
            total.nnz(),
            24,
            "3 distinct shifted diagonals never overlap"
        );
    }

    #[test]
    fn unsorted_output_options_do_not_corrupt_the_merge() {
        // Regression: with the caller preferring unsorted output, batch
        // sums must still be sorted internally or the add_pair streaming
        // merge mis-sums. Force several flushes and check exactness.
        let mats: Vec<CscMatrix<f64>> = (0..9).map(|i| shifted_diag(16, i % 4)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let oneshot = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        let mut acc = StreamingAccumulator::new(
            16,
            16,
            2,
            Algorithm::Hash,
            Options::default().unsorted_output(),
        );
        for m in &mats {
            acc.push(m.clone()).unwrap();
        }
        assert!(acc.batches_flushed() >= 4, "multiple merges exercised");
        let streamed = acc.finish().unwrap();
        assert!(streamed.approx_eq(&oneshot, 0.0));
    }

    #[test]
    fn empty_matrices_do_not_accumulate() {
        // Regression: zero-nnz pushes (a shard outside a skewed stream's
        // row range) must not grow `pending` — the nnz budget would never
        // trigger and memory would grow without bound.
        let mut acc = StreamingAccumulator::<f64>::with_policy(
            8,
            8,
            FlushPolicy::CacheBudget { sharers: 1 },
            Algorithm::Hash,
            Options::default(),
        );
        for _ in 0..10_000 {
            acc.push(CscMatrix::zeros(8, 8)).unwrap();
        }
        assert_eq!(acc.pending(), 0);
        assert_eq!(acc.pending_nnz(), 0);
        assert_eq!(acc.matrices_seen(), 10_000);
        acc.push(shifted_diag(8, 1)).unwrap();
        let total = acc.finish().unwrap();
        assert_eq!(total.nnz(), 8, "zeros contribute nothing");
    }

    #[test]
    fn cache_budget_policy_resolves_to_paper_formula() {
        let mut opts = Options::default();
        opts.cache.llc_bytes = 12_000; // 1000 f64 entries at 12 B each
        let (mats, nnz) = FlushPolicy::CacheBudget { sharers: 4 }.budgets::<f64>(&opts);
        assert_eq!(mats, usize::MAX);
        assert_eq!(nnz, 250, "M / (b · sharers) = 12000 / (12 · 4)");
    }

    #[test]
    fn rejects_wrong_shapes() {
        let mut acc = StreamingAccumulator::<f64>::with_defaults(8, 8, 4);
        assert!(acc.push(CscMatrix::zeros(9, 8)).is_err());
        assert!(acc.push(CscMatrix::zeros(8, 8)).is_ok());
    }

    #[test]
    fn empty_stream_yields_zero_matrix() {
        let acc = StreamingAccumulator::<f64>::with_defaults(5, 7, 4);
        let out = acc.finish().unwrap();
        assert_eq!(out.shape(), (5, 7));
        assert_eq!(out.nnz(), 0);
    }

    #[test]
    fn current_reflects_flushed_prefix() {
        let mut acc = StreamingAccumulator::with_defaults(8, 8, 2);
        assert!(acc.current().is_none());
        acc.push(shifted_diag(8, 0)).unwrap();
        acc.push(shifted_diag(8, 0)).unwrap(); // flush happens here
        let current = acc.current().unwrap();
        assert_eq!(
            DenseMatrix::from_csc(current).get(0, 0),
            2.0,
            "two diagonals accumulated"
        );
    }

    #[test]
    fn flushes_route_through_one_retained_plan() {
        let mut acc = StreamingAccumulator::with_defaults(16, 16, 2);
        assert!(acc.plan().is_none(), "plan is built on first flush");
        acc.push(shifted_diag(16, 0)).unwrap();
        acc.push(shifted_diag(16, 1)).unwrap(); // first flush
        let after_first = acc.plan().unwrap().workspace_allocations();
        assert!(after_first > 0);
        for i in 2..8 {
            acc.push(shifted_diag(16, i)).unwrap();
        }
        assert_eq!(acc.batches_flushed(), 4);
        let plan = acc.plan().unwrap();
        assert_eq!(plan.executions(), 4, "every flush went through the plan");
        assert_eq!(
            plan.workspace_allocations(),
            after_first,
            "steady-shape flushes reuse the workspaces"
        );
    }

    #[test]
    fn explicit_flush_with_partial_batch() {
        let mut acc = StreamingAccumulator::with_defaults(8, 8, 100);
        acc.push(shifted_diag(8, 1)).unwrap();
        acc.flush().unwrap();
        assert_eq!(acc.batches_flushed(), 1);
        acc.flush().unwrap(); // idempotent on empty pending
        assert_eq!(acc.batches_flushed(), 1);
    }
}
