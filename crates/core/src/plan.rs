//! The plan/execute front door: build a reusable [`SpkAddPlan`] once,
//! execute it over many collections.
//!
//! The paper's k-way algorithms split into a symbolic phase (output
//! structure + table budgets, §II-D) and a numeric phase. A one-shot call
//! re-derives the machine budgets and reallocates every hash table, SPA
//! panel, and heap buffer; repeat callers — a streaming accumulator
//! flushing thousands of batches, an aggregation-service shard, a
//! benchmark rep loop — pay that setup on every call. [`SpkAdd`] is the
//! builder that resolves those decisions once into a [`SpkAddPlan`]
//! holding the algorithm choice, scheduling policy, sliding budgets, and
//! a per-thread [`WorkspacePool`] that
//! [`SpkAddPlan::execute`] reuses across calls: after the first
//! execution at a steady shape, the steady-state path performs zero
//! workspace allocations (asserted by `tests/plan_reuse.rs`).
//!
//! ```
//! use spk_sparse::CscMatrix;
//! use spkadd::{Algorithm, SpkAdd};
//!
//! let a = CscMatrix::<f64>::identity(4);
//! let b = CscMatrix::<f64>::identity(4);
//! let mut plan = SpkAdd::new(4, 4).algorithm(Algorithm::Hash).build().unwrap();
//! for _ in 0..3 {
//!     let sum = plan.execute(&[&a, &b]).unwrap(); // workspaces reused
//!     assert_eq!(sum.get(1, 1).unwrap(), 2.0);
//! }
//! assert_eq!(plan.executions(), 3);
//! ```

use crate::kway::{
    decide_kernels, kway_numeric, kway_numeric_cached, kway_phases, kway_scatter_speculative,
    KernelCounts, KernelDispatch, RecycledBufs, Speculation,
};
use crate::mem::NullModel;
use crate::monoid::{Monoid, Plus};
use crate::pattern::{
    structures, Pattern, PatternCache, PatternCacheStats, PatternFingerprint, PatternOutcome,
};
use crate::sliding::budget_entries;
use crate::symbolic::{symbolic_counts, DriverCtx, SymbolicStrategy};
use crate::tuning::{choose_algorithm, CacheConfig, ChunkScorer};
use crate::workspace::WorkspacePool;
use crate::{
    numeric_entry_bytes, twoway, Algorithm, ExecuteStats, Options, SpkaddError,
    SYMBOLIC_ENTRY_BYTES,
};
use spk_sparse::{common_shape, CscMatrix, Element, Scalar, SparseError};
use std::sync::Arc;

/// Builder for a [`SpkAddPlan`]: fixes the output shape, algorithm, and
/// execution options up front so the plan can resolve budgets and size
/// its workspaces once.
///
/// Defaults match [`Options::default`] with [`Algorithm::Auto`]. Every
/// knob is an [`Options`] field set through [`SpkAdd::options`]; the
/// three most common ones (threads, cache model, pattern cache) also
/// have their own setters.
#[derive(Debug, Clone)]
pub struct SpkAdd {
    nrows: usize,
    ncols: usize,
    algorithm: Algorithm,
    opts: Options,
}

impl SpkAdd {
    /// Starts a plan for collections of `nrows × ncols` matrices.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            algorithm: Algorithm::Auto,
            opts: Options::default(),
        }
    }

    /// Selects the algorithm ([`Algorithm::Auto`] resolves per execution
    /// from the collection shape, Fig 2).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Worker threads; 0 uses the ambient rayon pool.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Machine model for the sliding budgets (Alg 7/8).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.opts.cache = cache;
        self
    }

    /// Retains up to `capacity` output structures keyed by input-pattern
    /// fingerprint (bounded LRU; `0` disables, the default). When an
    /// executed collection's sparsity matches a cached pattern, the
    /// symbolic phase is skipped entirely and the values are scattered
    /// straight into the known structure — the steady-state win
    /// for fixed-sparsity workloads (FEM assembly on a fixed mesh,
    /// gradient aggregation over a fixed model). Filtering monoids
    /// bypass the cache automatically; see [`crate::pattern`].
    pub fn pattern_cache(mut self, capacity: usize) -> Self {
        self.opts.pattern_cache = capacity;
        self
    }

    /// Replaces the whole option set. Call it before [`SpkAdd::threads`],
    /// [`SpkAdd::cache`] or [`SpkAdd::pattern_cache`]: those set one field
    /// of the current set, and a later `options` overwrites them.
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Resolves the builder into a reusable plan, validating the options
    /// ([`Options::validate`]) and deriving the sliding budgets from the
    /// machine model. The plan reduces duplicates with numeric addition —
    /// use [`SpkAdd::build_with_monoid`] for any other reduction.
    pub fn build<T: Scalar>(self) -> Result<SpkAddPlan<T>, SpkaddError> {
        self.build_with_monoid(Plus::new())
    }

    /// Like [`SpkAdd::build`], but the plan folds duplicate coordinates
    /// with an arbitrary [`Monoid`] — OR-union, min, max-plus, filtered
    /// addition — instead of `+`. All nine algorithms (and `Auto`) work
    /// unchanged; the whole pipeline monomorphizes over the monoid, so
    /// `build_with_monoid(Plus::new())` compiles to exactly the
    /// [`SpkAdd::build`] code path.
    pub fn build_with_monoid<T: Element, O: Monoid<Value = T>>(
        self,
        monoid: O,
    ) -> Result<SpkAddPlan<T, O>, SpkaddError> {
        self.opts.validate()?;
        let workers = if self.opts.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.opts.threads
        };
        let budget_sym = self.opts.forced_table_entries.unwrap_or_else(|| {
            budget_entries(self.opts.cache.llc_bytes, SYMBOLIC_ENTRY_BYTES, workers)
        });
        let budget_add = self.opts.forced_table_entries.unwrap_or_else(|| {
            budget_entries(
                self.opts.cache.llc_bytes,
                numeric_entry_bytes::<T>(),
                workers,
            )
        });
        // With an explicit thread count the rayon pool is part of the
        // plan too: built once here, installed per execution — not
        // rebuilt per call like the one-shot path's `run_with_threads`.
        let thread_pool = if self.opts.threads == 0 {
            None
        } else {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(self.opts.threads)
                    .build()
                    .map_err(|e| {
                        SpkaddError::InvalidOptions(format!("failed to build thread pool: {e}"))
                    })?,
            )
        };
        let cache = match self.opts.pattern_cache {
            0 => None,
            cap => Some(PatternCache::new(cap)),
        };
        Ok(SpkAddPlan {
            shape: (self.nrows, self.ncols),
            algorithm: self.algorithm,
            opts: self.opts,
            monoid,
            workers,
            budget_sym,
            budget_add,
            cache,
            pool: WorkspacePool::new(workers),
            thread_pool,
            executions: 0,
        })
    }
}

/// A resolved, reusable SpKAdd execution plan.
///
/// Built by [`SpkAdd::build`]; holds the algorithm decision, scheduling
/// policy, sliding budgets, and per-thread workspaces. Execute it as
/// many times as you like — the symbolic/numeric drivers borrow the
/// retained workspaces instead of reallocating them, and
/// [`SpkAddPlan::execute_into_timed`] additionally recycles the output
/// buffers of a previous result and reports [`ExecuteStats`].
#[derive(Debug)]
pub struct SpkAddPlan<T: Element, O: Monoid<Value = T> = Plus<T>> {
    shape: (usize, usize),
    algorithm: Algorithm,
    opts: Options,
    monoid: O,
    workers: usize,
    budget_sym: usize,
    budget_add: usize,
    pool: WorkspacePool<T>,
    /// Dedicated rayon pool when `threads > 0`; `None` uses the ambient
    /// pool. Retained so repeat executions don't respawn workers.
    thread_pool: Option<rayon::ThreadPool>,
    /// Pattern-keyed symbolic cache (`None` when `pattern_cache == 0`).
    cache: Option<PatternCache>,
    executions: u64,
}

impl<T: Element, O: Monoid<Value = T>> SpkAddPlan<T, O> {
    /// Shape every executed collection must have.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// The monoid folding duplicate coordinates ([`Plus`] unless the plan
    /// was built with [`SpkAdd::build_with_monoid`]).
    pub fn monoid(&self) -> O {
        self.monoid
    }

    /// The configured algorithm (possibly [`Algorithm::Auto`]).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The options the plan was built with.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Resolved worker count (threads sharing the LLC budgets).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of completed executions.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Workspace component builds so far — constant across executions at
    /// a steady shape (the amortization the plan exists for).
    pub fn workspace_allocations(&self) -> u64 {
        self.pool.allocations()
    }

    /// Pattern-cache counters (`None` when the plan was built without
    /// [`SpkAdd::pattern_cache`]).
    pub fn pattern_stats(&self) -> Option<PatternCacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Adds the collection, returning a fresh output matrix.
    pub fn execute(&mut self, mats: &[&CscMatrix<T>]) -> Result<CscMatrix<T>, SpkaddError> {
        self.run(mats, RecycledBufs::default()).map(|(out, _)| out)
    }

    /// Adds the collection into `sink`, recycling the sink's buffers for
    /// the new result, and reports the symbolic/numeric phase split (the
    /// series of Fig 4) and the pattern-cache outcome.
    ///
    /// The k-way path (heap/SPA/hash/sliding) reuses the sink's
    /// capacity, so steady-shape repeat executions allocate no output
    /// memory either. That includes the `UpperBound` symbolic strategy
    /// and filtering monoids, whose numeric phase writes into upper-bound
    /// windows and compacts them in place. The 2-way/library algorithms
    /// build their output internally and gain only the workspace reuse.
    /// With a pattern cache this is the full
    /// steady-state combination: recycled output buffers *and* a skipped
    /// symbolic phase. On error the sink is left empty. To time a fresh
    /// output, pass an empty sink (`CscMatrix::zeros(0, 0)`).
    pub fn execute_into_timed(
        &mut self,
        mats: &[&CscMatrix<T>],
        sink: &mut CscMatrix<T>,
    ) -> Result<ExecuteStats, SpkaddError> {
        let recycled = std::mem::replace(sink, CscMatrix::zeros(0, 0));
        let (out, stats) = self.run(mats, RecycledBufs::from_matrix(recycled))?;
        *sink = out;
        Ok(stats)
    }

    /// Resolves [`Algorithm::Auto`] against this collection (Fig 2).
    /// `verdicts` are the per-operand sortedness results of the fused
    /// fingerprint sweep, when it ran.
    fn resolve(
        &self,
        mats: &[&CscMatrix<T>],
        inputs_sorted: bool,
        verdicts: Option<&[bool]>,
    ) -> Algorithm {
        if self.algorithm != Algorithm::Auto {
            return self.algorithm;
        }
        let n = self.shape.1;
        let total: usize = mats.iter().map(|m| m.nnz()).sum();
        let avg_out = if n == 0 { 0 } else { total / n.max(1) };
        let mut alg = choose_algorithm(
            mats.len(),
            avg_out,
            numeric_entry_bytes::<T>(),
            self.workers,
            &self.opts.cache,
        );
        if alg.needs_sorted_inputs() {
            // `validate_sorted = false` skips the up-front scan, but Auto
            // must never commit to a sorted-only algorithm on unsorted
            // inputs — a pairwise merge would silently mis-sum. Only
            // reached when the resolver picks one (k <= 2), so the scan
            // stays off the common path.
            let sorted = match (self.opts.validate_sorted, verdicts) {
                (true, _) => inputs_sorted,
                (false, Some(v)) => v.iter().all(|&s| s),
                (false, None) => mats.iter().all(|m| m.is_sorted()),
            };
            if !sorted {
                alg = Algorithm::Hash;
            }
        }
        alg
    }

    /// Sortedness: detect (or trust) once per execution, failing fast for
    /// algorithms that require sorted inputs. Reads the fused sweep's
    /// `verdicts` when there are any; otherwise scans each operand, inside
    /// a `spkadd.validate` span so traces name the serial scan.
    fn detect_sorted(
        &self,
        mats: &[&CscMatrix<T>],
        verdicts: Option<&[bool]>,
    ) -> Result<bool, SpkaddError> {
        if !self.opts.validate_sorted {
            return Ok(true);
        }
        let _span = verdicts
            .is_none()
            .then(|| spk_obs::span!("spkadd.validate"));
        let mut all_sorted = true;
        for (i, m) in mats.iter().enumerate() {
            if !verdicts.map_or_else(|| m.is_sorted(), |v| v[i]) {
                if self.algorithm.needs_sorted_inputs() {
                    return Err(SpkaddError::UnsortedInput {
                        algorithm: self.algorithm.name(),
                        operand: i,
                    });
                }
                if self.opts.symbolic == SymbolicStrategy::Heap {
                    return Err(SpkaddError::UnsortedInput {
                        algorithm: "heap symbolic",
                        operand: i,
                    });
                }
                all_sorted = false;
            }
        }
        Ok(all_sorted)
    }

    /// Runs `f` on the plan's workers (its own pool when it has one).
    fn on_workers<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.thread_pool {
            Some(tp) => tp.install(f),
            None => f(),
        }
    }

    fn run(
        &mut self,
        mats: &[&CscMatrix<T>],
        recycle: RecycledBufs<T>,
    ) -> Result<(CscMatrix<T>, ExecuteStats), SpkaddError> {
        let _span = spk_obs::span!("spkadd.execute");
        let shape = common_shape(mats)?;
        if shape != self.shape {
            return Err(SpkaddError::Sparse(SparseError::DimensionMismatch {
                expected: self.shape,
                found: shape,
                operand: 0,
            }));
        }
        // With a usable cache, one parallel sweep over every operand's
        // structure yields both the fingerprint and the sortedness
        // verdicts, so validation never rescans `rowidx`. Only
        // non-filtering monoids are sound: a filtering monoid's output
        // structure depends on the values being folded, so a cached
        // structure from one execution may be wrong for the next even at
        // identical input sparsity.
        //
        // When the last two executions hit the same pattern, the next one
        // most likely repeats it: the sweep of a large enough collection
        // then runs in one region with the scatter into that pattern, and
        // the lookup below decides whether the scatter's output is the
        // result. A hit thus wakes the workers once; a wrong guess costs
        // one wasted scatter, and a stream that alternates between
        // patterns never guesses.
        let mut fingerprint_secs = 0.0;
        let mut speculative_numeric_secs = 0.0;
        let mut scan: Option<(PatternFingerprint, Vec<bool>)> = None;
        let mut speculation: Option<(Arc<Pattern>, Speculation<T>)> = None;
        let mut recycle = Some(recycle);
        if self.cache.is_some() && !O::MAY_FILTER {
            // A collection too small for a parallel sweep is not worth a
            // guess either: the region would cost more than it saves.
            let structs = structures(mats);
            let guess = self
                .cache
                .as_ref()
                .filter(|_| PatternFingerprint::sweeps_in_parallel(&structs))
                .and_then(PatternCache::repeating)
                .filter(|p| p.built_scatter_map().is_some_and(|map| map.fits(&structs)));
            if let Some(pattern) = guess {
                let (monoid, sched) = (self.monoid, self.opts.scheduling);
                let recycled = recycle.take().unwrap_or_default();
                let start = spk_obs::now();
                let mut spec = self.on_workers(|| {
                    kway_scatter_speculative(mats, &pattern, monoid, sched, recycled)
                });
                let wall = start.elapsed();
                // The region's wall time is split between the two phases
                // by their shares of the summed worker time, and each part
                // is traced with the same measurement the stats report.
                let sweep = wall.mul_f64(spec.digest_share);
                spk_obs::record_explicit("spkadd.fingerprint", start, sweep);
                spk_obs::record_explicit("spkadd.numeric", start + sweep, wall - sweep);
                fingerprint_secs = sweep.as_secs_f64();
                speculative_numeric_secs = (wall - sweep).as_secs_f64();
                let digests = std::mem::take(&mut spec.digests);
                scan = Some(PatternFingerprint::fold(shape, &structs, digests));
                speculation = Some((pattern, spec));
            } else {
                // `timed` records the span from the same measurement that
                // lands in `ExecuteStats::fingerprint`.
                let (fused, dur) =
                    spk_obs::timed("spkadd.fingerprint", || PatternFingerprint::scan(mats));
                fingerprint_secs = dur.as_secs_f64();
                scan = Some(fused);
            }
        }
        let verdicts = scan.as_ref().map(|(_, v)| v.as_slice());
        let inputs_sorted = self.detect_sorted(mats, verdicts)?;
        let alg = self.resolve(mats, inputs_sorted, verdicts);
        debug_assert_ne!(
            alg,
            Algorithm::Auto,
            "resolution yields concrete algorithms"
        );
        // The 2-way/library folds have no symbolic phase to skip.
        let phases = kway_phases(alg, self.opts.symbolic);
        let kernel = phases.map(|(kernel, _)| kernel);

        // Pattern-cache routing: only the k-way family benefits.
        let mut outcome = PatternOutcome::Disabled;
        let mut hit: Option<Arc<Pattern>> = None;
        let mut insert_on_miss: Option<PatternFingerprint> = None;
        if let Some(cache) = self.cache.as_mut() {
            outcome = PatternOutcome::Bypassed;
            if let (Some(_), Some((fp, _))) = (kernel, scan) {
                let ((), dur) = spk_obs::timed("spkadd.fingerprint", || match cache.lookup(&fp) {
                    Some(pattern) => {
                        outcome = PatternOutcome::Hit;
                        hit = Some(pattern);
                    }
                    None => {
                        outcome = PatternOutcome::Miss;
                        insert_on_miss = Some(fp);
                    }
                });
                fingerprint_secs += dur.as_secs_f64();
            }
        }

        // Per-partition adaptive dispatch (the SPADA-style move): only
        // `Auto` is adaptive — an explicit algorithm is a contract — and
        // only when resolution landed on the k-way family (a k ≤ 2
        // collection stays a single pairwise merge). The scorer never
        // offers the heap unless sortedness was actually verified this
        // execution.
        let scorer = ChunkScorer {
            rows: self.shape.0,
            entry_bytes: numeric_entry_bytes::<T>(),
            threads: self.workers,
            llc_bytes: self.opts.cache.llc_bytes,
            heap_allowed: self.opts.validate_sorted && inputs_sorted,
        };
        let dispatch = kernel.map(|kern| {
            if self.algorithm != Algorithm::Auto {
                return KernelDispatch::Fixed(kern);
            }
            match hit.as_ref() {
                // Warm hits replay the memoized decisions — no rescoring.
                Some(pattern) => KernelDispatch::Memoized {
                    decisions: Arc::clone(&pattern.kernels),
                    scorer,
                },
                None => KernelDispatch::Adaptive(scorer),
            }
        });

        let ctx = DriverCtx {
            sched: self.opts.scheduling,
            budget_sym: self.budget_sym,
            budget_add: self.budget_add,
            inputs_sorted,
            sorted_output: self.opts.sorted_output,
        };
        let sched = self.opts.scheduling;
        let monoid = self.monoid;
        let pool = &self.pool;
        // The speculative scatter is the result iff the lookup found the
        // pattern it assumed; otherwise its buffers are recycled.
        let confirmed = match (speculation, hit.as_ref()) {
            (Some((assumed, spec)), Some(found)) if Arc::ptr_eq(&assumed, found) => {
                assert!(spec.inside, "a confirmed guess stays inside its structure");
                Some(spec)
            }
            (Some((_, spec)), _) => {
                recycle = Some(RecycledBufs::from_matrix(spec.out));
                None
            }
            (None, _) => None,
        };
        let recycle = recycle.unwrap_or_default();
        let hit_pattern = hit;
        // Every phase is measured through `spk_obs::timed`, so the spans
        // a trace captures and the `ExecuteStats` a caller reads are the
        // same numbers — not two clocks around roughly the same code.
        let body = move || {
            if let Some(spec) = confirmed {
                let dispatch = dispatch
                    .as_ref()
                    .expect("hits only occur on the k-way path");
                let decisions = decide_kernels(mats, spec.out.colptr(), &spec.ranges, dispatch);
                return (
                    spec.out,
                    ExecuteStats {
                        symbolic_skipped: true,
                        ..ExecuteStats::default()
                    },
                    decisions,
                );
            }
            if let Some(pattern) = hit_pattern.as_deref() {
                let ((out, decisions), dur) = spk_obs::timed("spkadd.numeric", || {
                    kway_numeric_cached(
                        mats,
                        pattern,
                        dispatch
                            .as_ref()
                            .expect("hits only occur on the k-way path"),
                        monoid,
                        &ctx,
                        recycle,
                    )
                });
                return (
                    out,
                    ExecuteStats {
                        numeric: dur.as_secs_f64(),
                        symbolic_skipped: true,
                        ..ExecuteStats::default()
                    },
                    decisions,
                );
            }
            match alg {
                Algorithm::Auto => unreachable!("resolved above"),
                // The 2-way/library folds have no separate phases: the
                // whole fold is one numeric span.
                Algorithm::TwoWayIncremental
                | Algorithm::TwoWayTree
                | Algorithm::LibIncremental
                | Algorithm::LibTree => {
                    let (out, dur) = spk_obs::timed("spkadd.numeric", || {
                        twoway::fold(mats, alg, sched, monoid, &NullModel)
                    });
                    (
                        out,
                        ExecuteStats {
                            numeric: dur.as_secs_f64(),
                            ..ExecuteStats::default()
                        },
                        Vec::new(),
                    )
                }
                Algorithm::Heap
                | Algorithm::Spa
                | Algorithm::Hash
                | Algorithm::SlidingHash
                | Algorithm::SlidingSpa => {
                    let (_, strategy) = phases.expect("k-way algorithms have phases");
                    let (counts, sym_dur) = spk_obs::timed("spkadd.symbolic", || {
                        symbolic_counts(mats, strategy, &ctx, pool, &NullModel)
                    });
                    let exact = strategy != SymbolicStrategy::UpperBound;
                    let dispatch = dispatch
                        .as_ref()
                        .expect("k-way algorithms map to a dispatch");
                    let ((out, decisions), num_dur) = spk_obs::timed("spkadd.numeric", || {
                        kway_numeric(
                            mats, &counts, exact, dispatch, monoid, &ctx, pool, recycle, &NullModel,
                        )
                    });
                    (
                        out,
                        ExecuteStats {
                            symbolic: sym_dur.as_secs_f64(),
                            numeric: num_dur.as_secs_f64(),
                            ..ExecuteStats::default()
                        },
                        decisions,
                    )
                }
            }
        };
        let (out, mut stats, decisions) = self.on_workers(body);
        stats.numeric += speculative_numeric_secs;
        if let Some(fp) = insert_on_miss {
            // Capture the cold result's structure — post-compaction, so
            // exact even when the symbolic strategy was `UpperBound` —
            // together with the per-chunk kernel decisions, so warm hits
            // skip scoring as well as symbolic.
            let ((), dur) = spk_obs::timed("spkadd.pattern_insert", || {
                self.cache.as_mut().expect("miss implies a cache").insert(
                    fp,
                    out.colptr(),
                    out.rowidx(),
                    &decisions,
                );
            });
            fingerprint_secs += dur.as_secs_f64();
        }
        stats.fingerprint = fingerprint_secs;
        stats.pattern = outcome;
        stats.kernel_counts = KernelCounts::from_decisions(&decisions);
        self.executions += 1;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spk_sparse::DenseMatrix;

    fn shifted_diag(n: usize, s: u32) -> CscMatrix<f64> {
        let colptr = (0..=n).collect();
        let rows = (0..n as u32).map(|j| (j + s) % n as u32).collect();
        CscMatrix::try_new(n, n, colptr, rows, vec![1.0; n]).unwrap()
    }

    #[test]
    fn plan_executes_repeatedly_with_stable_workspaces() {
        let mats: Vec<CscMatrix<f64>> = (0..5).map(|i| shifted_diag(16, i)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut plan = SpkAdd::new(16, 16)
            .algorithm(Algorithm::Hash)
            .threads(1)
            .build::<f64>()
            .unwrap();
        let first = plan.execute(&refs).unwrap();
        let after_first = plan.workspace_allocations();
        assert!(after_first > 0, "first execution builds the tables");
        for _ in 0..5 {
            let again = plan.execute(&refs).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(
            plan.workspace_allocations(),
            after_first,
            "steady-state executions allocate no workspaces"
        );
        assert_eq!(plan.executions(), 6);
    }

    #[test]
    fn execute_into_timed_recycles_the_sink() {
        let mats: Vec<CscMatrix<f64>> = (0..4).map(|i| shifted_diag(8, i)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut plan = SpkAdd::new(8, 8)
            .algorithm(Algorithm::Hash)
            .build::<f64>()
            .unwrap();
        let expect = plan.execute(&refs).unwrap();
        let mut sink = CscMatrix::zeros(0, 0);
        plan.execute_into_timed(&refs, &mut sink).unwrap();
        assert_eq!(sink, expect);
        plan.execute_into_timed(&refs, &mut sink).unwrap();
        assert_eq!(sink, expect);
    }

    #[test]
    fn plan_rejects_wrong_shapes() {
        let mut plan = SpkAdd::new(8, 8).build::<f64>().unwrap();
        let m = CscMatrix::<f64>::zeros(9, 8);
        assert!(matches!(
            plan.execute(&[&m]),
            Err(SpkaddError::Sparse(SparseError::DimensionMismatch { .. }))
        ));
        assert!(plan.execute(&[]).is_err(), "empty collection rejected");
    }

    #[test]
    fn auto_resolves_per_collection() {
        let mats: Vec<CscMatrix<f64>> = (0..6).map(|i| shifted_diag(12, i % 4)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut plan = SpkAdd::new(12, 12).build::<f64>().unwrap();
        assert_eq!(plan.algorithm(), Algorithm::Auto);
        let out = plan.execute(&refs).unwrap();
        let mut expect = DenseMatrix::zeros(12, 12);
        for m in &mats {
            expect.add_assign(&DenseMatrix::from_csc(m)).unwrap();
        }
        assert_eq!(DenseMatrix::from_csc(&out).max_abs_diff(&expect), 0.0);
        // k = 2 resolves to the pairwise merge; still exact (the two
        // shifted diagonals are disjoint, so every entry survives).
        let pair = plan.execute(&refs[..2]).unwrap();
        assert_eq!(pair.nnz(), refs[0].nnz() + refs[1].nnz());
    }

    #[test]
    fn auto_never_picks_a_sorted_only_algorithm_on_unsorted_inputs() {
        // k = 2 resolves to the pairwise merge, which silently mis-sums
        // unsorted columns — Auto must scan and fall back to Hash even
        // when validate_sorted is off (the caller's promise covers the
        // algorithm they picked, not the resolver's choice).
        let a = CscMatrix::try_new(4, 1, vec![0, 3], vec![3, 0, 2], vec![1.0, 2.0, 3.0]).unwrap();
        let b = CscMatrix::try_new(4, 1, vec![0, 2], vec![2, 0], vec![10.0, 20.0]).unwrap();
        assert!(!a.is_sorted());
        let mut plan = SpkAdd::new(4, 1)
            .options(Options {
                validate_sorted: false,
                ..Options::default()
            })
            .build::<f64>()
            .unwrap();
        let out = plan.execute(&[&a, &b]).unwrap();
        let mut expect = DenseMatrix::zeros(4, 1);
        expect.add_assign(&DenseMatrix::from_csc(&a)).unwrap();
        expect.add_assign(&DenseMatrix::from_csc(&b)).unwrap();
        assert_eq!(DenseMatrix::from_csc(&out).max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn explicit_thread_plan_reuses_its_rayon_pool() {
        let mats: Vec<CscMatrix<f64>> = (0..3).map(|i| shifted_diag(8, i)).collect();
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut plan = SpkAdd::new(8, 8)
            .algorithm(Algorithm::Hash)
            .threads(2)
            .build::<f64>()
            .unwrap();
        assert!(plan.thread_pool.is_some(), "threads > 0 caches a pool");
        let first = plan.execute(&refs).unwrap();
        assert_eq!(plan.execute(&refs).unwrap(), first);
        assert_eq!(plan.workers(), 2);
    }

    #[test]
    fn build_validates_options() {
        let err = SpkAdd::new(4, 4)
            .options(Options {
                forced_table_entries: Some(0),
                ..Options::default()
            })
            .build::<f64>()
            .unwrap_err();
        assert!(matches!(err, SpkaddError::InvalidOptions(_)));
    }
}
