//! # spk-summa — simulated distributed sparse SUMMA SpGEMM
//!
//! An in-memory simulation of the distributed sparse SUMMA algorithm with
//! stationary C (the paper's Fig 5, CombBLAS-style): the input matrices
//! are 2D-block-distributed over a `q × q` process grid; in stage `s`,
//! every process row broadcasts its `A(:, s)` block and every process
//! column its `B(s, :)` block; each process multiplies the received pair
//! locally; after `q` stages each process reduces its `q` intermediate
//! products with one **SpKAdd** — the operation whose cost the paper's
//! Fig 6 attributes an order of magnitude of.
//!
//! "Distributed" here means *faithfully phased*, not networked: each
//! simulated process owns its blocks, stages proceed as in SUMMA,
//! broadcast volume is accounted in bytes, and the two computational
//! phases (local multiply, SpKAdd) are timed separately — which is
//! exactly what Fig 6 reports ("excluding the communication costs").
//! See DESIGN.md, "Simulated sparse SUMMA".
//!
//! The simulated processes are the unit of parallelism, and the
//! multiplies and SpKAdd inside one process run on the worker that
//! claimed it (nested regions run inline), as one MPI rank would. The
//! workers claim processes one at a time, heaviest first by local-multiply
//! flops (longest processing time first), so a few heavy processes on a
//! clustered input no longer pile onto one worker's fixed share. The
//! global `C` is assembled in one pass: its column pointers come from the
//! blocks' column counts, and each block column's window of the output
//! arrays is filled in parallel from the disjoint, column-sorted process
//! blocks, with no sort and no duplicate merge.

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

use rayon::prelude::*;
use spk_sparse::{CscMatrix, SparseError};
use spk_spgemm::{spgemm_hash, SpgemmOptions};
use spkadd::parallel::{claim_each, split_output};
use spkadd::{Algorithm, Options, SpkaddError, SymbolicStrategy};
use std::sync::Mutex;

/// Which SpKAdd variant reduces the per-process intermediates, matching
/// the three bars of Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionKind {
    /// Heap SpKAdd over *sorted* intermediates — the CombBLAS incumbent.
    Heap,
    /// Hash SpKAdd over sorted intermediates.
    SortedHash,
    /// Hash SpKAdd over *unsorted* intermediates: the local multiplies
    /// skip their per-column sort (the ~20% multiply saving of Fig 6).
    UnsortedHash,
}

impl ReductionKind {
    /// Display name matching Fig 6's x-axis.
    pub fn name(&self) -> &'static str {
        match self {
            ReductionKind::Heap => "Heap",
            ReductionKind::SortedHash => "Sorted Hash",
            ReductionKind::UnsortedHash => "Unsorted Hash",
        }
    }

    /// Whether the local multiplies must emit sorted columns.
    pub fn multiply_sorted(&self) -> bool {
        !matches!(self, ReductionKind::UnsortedHash)
    }

    /// The SpKAdd algorithm used for the reduction.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            ReductionKind::Heap => Algorithm::Heap,
            _ => Algorithm::Hash,
        }
    }
}

/// Configuration of a simulated SUMMA run.
#[derive(Debug, Clone)]
pub struct SummaConfig {
    /// Process-grid side; the run simulates `grid²` processes and `grid`
    /// broadcast stages, so each process reduces `k = grid` intermediates.
    pub grid: usize,
    /// The reduction variant (Fig 6's compared configurations).
    pub reduction: ReductionKind,
    /// Worker threads for the whole simulation; 0 = ambient pool.
    pub threads: usize,
}

impl Default for SummaConfig {
    fn default() -> Self {
        Self {
            grid: 4,
            reduction: ReductionKind::SortedHash,
            threads: 0,
        }
    }
}

/// Per-process phase timings (seconds), with the process's load and the
/// worker that ran it.
///
/// Each process runs on a single worker thread (regions nested inside it
/// run inline), so these are single-worker times. Earlier versions ran
/// each process's multiplies and SpKAdd on nested worker threads, so the
/// "sum" columns of `fig6` cannot be compared with runs made before
/// processes became the unit of parallelism.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessTiming {
    /// Total local-multiply time across all stages.
    pub multiply: f64,
    /// SpKAdd reduction time.
    pub spkadd: f64,
    /// Local-multiply flops, `Σ_s flops(A(i,s)·B(s,j))`: the weight the
    /// claim order sorts by.
    pub flops: usize,
    /// The worker that claimed and ran the process, below
    /// [`SummaReport::workers`].
    pub worker: usize,
}

/// Outcome of a simulated SUMMA run.
#[derive(Debug)]
pub struct SummaReport {
    /// The assembled global product.
    pub result: CscMatrix<f64>,
    /// Per-process single-worker timings, indexed `i * grid + j` (see
    /// [`ProcessTiming`]; the `*_total` sums add these up across
    /// processes that may have run concurrently, so they can exceed the
    /// wall clock).
    pub per_process: Vec<ProcessTiming>,
    /// Simulated broadcast volume in bytes (A and B blocks, `q−1`
    /// receivers each).
    pub bytes_broadcast: u64,
    /// Grid side used.
    pub grid: usize,
    /// Workers that claimed processes.
    pub workers: usize,
}

impl SummaReport {
    /// Sum of local-multiply time over all processes (Fig 6's stacked
    /// "Local Multiply" segment).
    pub fn multiply_total(&self) -> f64 {
        self.per_process.iter().map(|t| t.multiply).sum()
    }

    /// Sum of SpKAdd time over all processes (Fig 6's "SpKAdd" segment).
    pub fn spkadd_total(&self) -> f64 {
        self.per_process.iter().map(|t| t.spkadd).sum()
    }

    /// Critical-path (max over processes) multiply time.
    pub fn multiply_max(&self) -> f64 {
        self.per_process
            .iter()
            .map(|t| t.multiply)
            .fold(0.0, f64::max)
    }

    /// Critical-path SpKAdd time.
    pub fn spkadd_max(&self) -> f64 {
        self.per_process
            .iter()
            .map(|t| t.spkadd)
            .fold(0.0, f64::max)
    }

    /// Busy time (multiply + SpKAdd) of each worker, indexed by
    /// [`ProcessTiming::worker`]; a worker that claimed nothing reads 0.
    pub fn worker_busy(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.workers];
        for t in &self.per_process {
            busy[t.worker] += t.multiply + t.spkadd;
        }
        busy
    }

    /// Load imbalance: the busiest worker's time over the mean worker's
    /// (1 = perfectly balanced; the region waits for the busiest).
    pub fn imbalance(&self) -> f64 {
        let busy = self.worker_busy();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean
        } else {
            1.0
        }
    }
}

/// Errors from the SUMMA simulator.
#[derive(Debug)]
pub enum SummaError {
    /// Structural problem from the sparse substrate.
    Sparse(SparseError),
    /// Reduction failure from the SpKAdd layer.
    Spkadd(SpkaddError),
    /// Invalid configuration (reason in payload).
    Config(String),
}

impl std::fmt::Display for SummaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaError::Sparse(e) => write!(f, "{e}"),
            SummaError::Spkadd(e) => write!(f, "{e}"),
            SummaError::Config(msg) => write!(f, "invalid SUMMA config: {msg}"),
        }
    }
}

impl std::error::Error for SummaError {}

impl From<SparseError> for SummaError {
    fn from(e: SparseError) -> Self {
        SummaError::Sparse(e)
    }
}

impl From<SpkaddError> for SummaError {
    fn from(e: SpkaddError) -> Self {
        SummaError::Spkadd(e)
    }
}

/// Approximate wire size of a CSC block: 12 bytes per nonzero (u32 row +
/// f64 value) plus the column pointer array.
pub fn csc_wire_bytes(m: &CscMatrix<f64>) -> u64 {
    (m.nnz() * 12 + (m.ncols() + 1) * 8) as u64
}

/// Block boundary `i` of `parts` over an extent of `len`.
fn bound(i: usize, parts: usize, len: usize) -> usize {
    i * len / parts
}

/// Local-multiply flops of every process, `Σ_s flops(A(i,s)·B(s,j))`,
/// indexed `i * q + j`. Inner index `l` of stage `s` contributes
/// `nnz(A(i,s)(:,l)) · nnz(B(s,j)(l,:))`, so this is one count pass over
/// the B blocks plus `q³` dot products of slab-width count vectors.
fn process_flops(a_blocks: &[Vec<CscMatrix<f64>>], b_blocks: &[Vec<CscMatrix<f64>>]) -> Vec<usize> {
    let q = a_blocks.len();
    let mut flops = vec![0usize; q * q];
    for (s, b_row) in b_blocks.iter().enumerate() {
        let width = b_row[0].nrows();
        let mut row_nnz = vec![0usize; width];
        for (j, b) in b_row.iter().enumerate() {
            row_nnz.fill(0);
            for &l in b.rowidx() {
                row_nnz[l as usize] += 1;
            }
            for (i, a_row) in a_blocks.iter().enumerate() {
                let a = &a_row[s];
                flops[i * q + j] += (0..width).map(|l| a.col_nnz(l) * row_nnz[l]).sum::<usize>();
            }
        }
    }
    flops
}

/// The order in which workers claim processes: descending weight, ties
/// by pid (longest processing time first).
fn claim_order(weights: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&pid| (std::cmp::Reverse(weights[pid]), pid));
    order
}

/// Assembles the global `m × n` product from the `q × q` process blocks
/// (`blocks[i * q + j]`), which tile it disjointly and have sorted
/// columns: global column `c` of block column `j` is block `(0, j)`'s
/// column, then block `(1, j)`'s, each row-offset by its block's first
/// row. The column pointers come from the blocks' column counts; each
/// block column's window of the output arrays is filled in parallel.
fn assemble(blocks: &[CscMatrix<f64>], q: usize, m: usize, n: usize) -> CscMatrix<f64> {
    let ranges: Vec<std::ops::Range<usize>> =
        (0..q).map(|j| bound(j, q, n)..bound(j + 1, q, n)).collect();
    let mut colptr = Vec::with_capacity(n + 1);
    let mut nnz = 0usize;
    colptr.push(nnz);
    for (j, cols) in ranges.iter().enumerate() {
        for c in 0..cols.len() {
            nnz += (0..q).map(|i| blocks[i * q + j].col_nnz(c)).sum::<usize>();
            colptr.push(nnz);
        }
    }
    let mut rowidx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    let windows = split_output(&colptr, &ranges, &mut rowidx, &mut values);
    (0..q)
        .into_par_iter()
        .zip(windows.into_par_iter())
        .for_each(|(j, w)| {
            let mut at = 0;
            for c in 0..w.cols.len() {
                for i in 0..q {
                    let col = blocks[i * q + j].col(c);
                    let offset = bound(i, q, m) as u32;
                    let end = at + col.rows.len();
                    for (dst, &r) in w.rows[at..end].iter_mut().zip(col.rows) {
                        *dst = r + offset;
                    }
                    w.vals[at..end].copy_from_slice(col.vals);
                    at = end;
                }
            }
        });
    CscMatrix::from_parts(m, n, colptr, rowidx, values)
}

/// Runs the simulated SUMMA product `C = A·B`.
///
/// Each process's reduction skips the SpKAdd symbolic pass
/// ([`SymbolicStrategy::UpperBound`]): the `q` stage products
/// `A(i,s)·B(s,j)` cover disjoint inner-index ranges, so one output entry
/// folds at most `q` inputs — the compression factor is at most `q` — and
/// sizing each output column by its input count over-allocates by at most
/// `q×`, into no more memory than the intermediates themselves. On
/// hypersparse blocks the compression factor is close to 1, so a counting
/// pass would hash every entry a second time to learn almost nothing; the
/// numeric pass writes into the upper-bound windows and compacts in place.
/// [`run_summa_3d`]'s inter-layer reduction keeps the exact count.
pub fn run_summa(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    cfg: &SummaConfig,
) -> Result<SummaReport, SummaError> {
    if a.ncols() != b.nrows() {
        return Err(SummaError::Sparse(SparseError::ProductMismatch {
            lhs_cols: a.ncols(),
            rhs_rows: b.nrows(),
        }));
    }
    let q = cfg.grid;
    if q == 0 {
        return Err(SummaError::Config("grid side must be ≥ 1".into()));
    }
    if a.nrows() < q || a.ncols() < q || b.ncols() < q {
        return Err(SummaError::Config(format!(
            "matrix dimensions ({}x{} · {}x{}) too small for a {q}x{q} grid",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }

    let (m, kk) = a.shape();
    let n = b.ncols();

    let run = || -> Result<SummaReport, SummaError> {
        // 2D block distribution.
        let (a_blocks, b_blocks) = {
            let _span = spk_obs::span!("summa.distribute");
            let a_blocks: Vec<Vec<CscMatrix<f64>>> = (0..q)
                .into_par_iter()
                .map(|i| {
                    let rows = a.slice_rows(bound(i, q, m), bound(i + 1, q, m));
                    (0..q)
                        .map(|l| rows.slice_cols(bound(l, q, kk), bound(l + 1, q, kk)))
                        .collect()
                })
                .collect();
            let b_blocks: Vec<Vec<CscMatrix<f64>>> = (0..q)
                .into_par_iter()
                .map(|l| {
                    let rows = b.slice_rows(bound(l, q, kk), bound(l + 1, q, kk));
                    (0..q)
                        .map(|j| rows.slice_cols(bound(j, q, n), bound(j + 1, q, n)))
                        .collect()
                })
                .collect();
            (a_blocks, b_blocks)
        };

        // Simulated broadcast volume: in stage s, A(i,s) goes to q−1 row
        // peers and B(s,j) to q−1 column peers.
        let mut bytes = 0u64;
        for s in 0..q {
            for row in &a_blocks {
                bytes += csc_wire_bytes(&row[s]) * (q as u64 - 1);
            }
            for blk in &b_blocks[s] {
                bytes += csc_wire_bytes(blk) * (q as u64 - 1);
            }
        }

        let mul_opts = SpgemmOptions {
            sorted_output: cfg.reduction.multiply_sorted(),
            threads: 0,
            scheduling: Default::default(),
        };
        let mut add_opts = Options::default();
        // Sorted blocks are what lets C be assembled by concatenation.
        add_opts.sorted_output = true;
        // Sortedness of the intermediates is known by construction.
        add_opts.validate_sorted = false;
        // One pass: the q stage products tile disjoint inner ranges, so an
        // output entry gathers at most q inputs (cf ≤ q) and the upper
        // bound Σ_s nnz(C_s(:,j)) is within q× of the exact column size,
        // never more than the intermediates the process already holds.
        add_opts.symbolic = SymbolicStrategy::UpperBound;
        let alg = cfg.reduction.algorithm();
        if alg == Algorithm::Heap && !cfg.reduction.multiply_sorted() {
            return Err(SummaError::Config(
                "heap reduction requires sorted intermediates".into(),
            ));
        }

        // Each process: q local multiplies (one per stage), then SpKAdd.
        // Processes are the unit of parallelism; the regions inside one
        // run inline on the worker that claimed it. Workers claim the
        // heaviest processes first; results land in per-pid slots.
        let weights = process_flops(&a_blocks, &b_blocks);
        let order = claim_order(&weights);
        type Outcome = Result<(CscMatrix<f64>, ProcessTiming), SummaError>;
        let slots: Vec<Mutex<Option<Outcome>>> = (0..q * q).map(|_| Mutex::new(None)).collect();
        let workers = claim_each(q * q, &|worker, k| {
            let _span = spk_obs::span!("summa.process");
            let pid = order[k];
            let (i, j) = (pid / q, pid % q);
            let outcome = (|| -> Outcome {
                let mut timing = ProcessTiming {
                    flops: weights[pid],
                    worker,
                    ..ProcessTiming::default()
                };
                let mut partials: Vec<CscMatrix<f64>> = Vec::with_capacity(q);
                for s in 0..q {
                    let t0 = spk_obs::now();
                    let c = spgemm_hash(&a_blocks[i][s], &b_blocks[s][j], &mul_opts)?;
                    timing.multiply += t0.elapsed().as_secs_f64();
                    partials.push(c);
                }
                let refs: Vec<&CscMatrix<f64>> = partials.iter().collect();
                let t0 = spk_obs::now();
                let block = spkadd::spkadd_with(&refs, alg, &add_opts)?;
                timing.spkadd += t0.elapsed().as_secs_f64();
                Ok((block, timing))
            })();
            *slots[pid].lock().expect("slot poisoned") = Some(outcome);
        });
        let (blocks, per_process): (Vec<CscMatrix<f64>>, Vec<ProcessTiming>) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("every process was claimed")
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();

        // Reassemble the global product: the blocks tile C disjointly and
        // have sorted columns, so the result is the canonical (sorted,
        // duplicate-free) C.
        let result = {
            let _span = spk_obs::span!("summa.assemble");
            assemble(&blocks, q, m, n)
        };

        Ok(SummaReport {
            result,
            per_process,
            bytes_broadcast: bytes,
            grid: q,
            workers,
        })
    };
    spkadd::parallel::run_with_threads(cfg.threads, run)
}

/// Outcome of a 3D (communication-avoiding) SUMMA run: the paper's intro
/// notes these algorithms "utilize SpKAdd at two different phases: one
/// within each 2D grid of the overall 3D process grid and another when
/// reducing results across different 2D grids".
#[derive(Debug)]
pub struct Summa3dReport {
    /// The assembled global product.
    pub result: CscMatrix<f64>,
    /// Seconds in local multiplies, summed over all processes and layers.
    pub multiply_total: f64,
    /// Seconds in the *intra-layer* SpKAdd (phase one), summed.
    pub spkadd_intra_total: f64,
    /// Seconds in the *inter-layer* SpKAdd (phase two), summed.
    pub spkadd_inter_total: f64,
    /// Simulated broadcast volume across all layers, bytes.
    pub bytes_broadcast: u64,
}

/// Runs a 3D sparse SUMMA: the inner dimension is split across `layers`
/// replicated 2D grids; each layer runs a `grid × grid` 2D SUMMA over its
/// slab (intra-layer SpKAdd), then corresponding processes across layers
/// reduce their C blocks (inter-layer SpKAdd). With `layers = 1` this
/// degenerates to [`run_summa`].
pub fn run_summa_3d(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    cfg: &SummaConfig,
    layers: usize,
) -> Result<Summa3dReport, SummaError> {
    if layers == 0 {
        return Err(SummaError::Config("layer count must be ≥ 1".into()));
    }
    let kk = a.ncols();
    if kk != b.nrows() {
        return Err(SummaError::Sparse(SparseError::ProductMismatch {
            lhs_cols: a.ncols(),
            rhs_rows: b.nrows(),
        }));
    }
    if kk < layers * cfg.grid.max(1) {
        return Err(SummaError::Config(format!(
            "inner dimension {kk} too small for {layers} layers of a {}x{} grid",
            cfg.grid, cfg.grid
        )));
    }
    // Phase 1: each layer multiplies its inner slab with a 2D SUMMA.
    let mut layer_reports = Vec::with_capacity(layers);
    for l in 0..layers {
        let k1 = bound(l, layers, kk);
        let k2 = bound(l + 1, layers, kk);
        let a_slab = a.slice_cols(k1, k2);
        let b_slab = b.slice_rows(k1, k2);
        layer_reports.push(run_summa(&a_slab, &b_slab, cfg)?);
    }
    let multiply_total = layer_reports.iter().map(|r| r.multiply_total()).sum();
    let spkadd_intra_total = layer_reports.iter().map(|r| r.spkadd_total()).sum();
    let bytes_broadcast = layer_reports.iter().map(|r| r.bytes_broadcast).sum();

    // Phase 2: reduce the c layer products (the cross-grid SpKAdd). In a
    // real machine this happens blockwise per process; numerically the
    // blockwise reduction is exactly the SpKAdd of the layer products.
    let partials: Vec<CscMatrix<f64>> = layer_reports.into_iter().map(|r| r.result).collect();
    let refs: Vec<&CscMatrix<f64>> = partials.iter().collect();
    let mut add_opts = Options::default();
    add_opts.validate_sorted = false;
    add_opts.threads = cfg.threads;
    let t0 = spk_obs::now();
    let result = spkadd::spkadd_with(&refs, cfg.reduction.algorithm(), &add_opts)?;
    let spkadd_inter_total = t0.elapsed().as_secs_f64();

    Ok(Summa3dReport {
        result,
        multiply_total,
        spkadd_intra_total,
        spkadd_inter_total,
        bytes_broadcast,
    })
}

/// Collects the intermediate products one process would reduce — the
/// "SpGEMM intermediate matrices" workload of Fig 3(c) and Fig 4(d),
/// without running the whole grid. Returns the `q` partial products of
/// process (0, 0).
pub fn process_intermediates(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    q: usize,
    sorted: bool,
) -> Result<Vec<CscMatrix<f64>>, SummaError> {
    if a.ncols() != b.nrows() {
        return Err(SummaError::Sparse(SparseError::ProductMismatch {
            lhs_cols: a.ncols(),
            rhs_rows: b.nrows(),
        }));
    }
    let (m, kk) = a.shape();
    let n = b.ncols();
    let a_row = a.slice_rows(0, bound(1, q, m));
    let b_col = b.slice_cols(0, bound(1, q, n));
    let opts = SpgemmOptions {
        sorted_output: sorted,
        ..Default::default()
    };
    (0..q)
        .map(|s| {
            let a_blk = a_row.slice_cols(bound(s, q, kk), bound(s + 1, q, kk));
            let b_blk = b_col.slice_rows(bound(s, q, kk), bound(s + 1, q, kk));
            spgemm_hash(&a_blk, &b_blk, &opts).map_err(SummaError::from)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spk_sparse::DenseMatrix;
    use spk_spgemm::flops_per_column;

    fn inputs() -> (CscMatrix<f64>, CscMatrix<f64>) {
        let a = spk_gen::er(48, 40, 3, 100);
        let b = spk_gen::er(40, 32, 3, 101);
        (a, b)
    }

    #[test]
    fn summa_matches_direct_product_for_all_reductions() {
        let (a, b) = inputs();
        let direct = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        for reduction in [
            ReductionKind::Heap,
            ReductionKind::SortedHash,
            ReductionKind::UnsortedHash,
        ] {
            let report = run_summa(
                &a,
                &b,
                &SummaConfig {
                    grid: 4,
                    reduction,
                    threads: 0,
                },
            )
            .unwrap();
            assert!(
                report.result.approx_eq(&direct, 1e-9),
                "{} reduction produced a wrong product",
                reduction.name()
            );
            assert_eq!(report.per_process.len(), 16);
            assert!(report.bytes_broadcast > 0);
        }
    }

    /// The assembled C is bit-identical to a serial sorted whole-matrix
    /// product — on every grid, reduction and thread count, and on a shape
    /// no grid side above 1 divides. Small-integer values keep every
    /// partial sum exact, so the differing summation orders of the two
    /// paths cannot excuse a mismatch.
    #[test]
    fn summa_result_equals_serial_product_exactly() {
        let small_ints = |mut m: CscMatrix<f64>| {
            m.map_values(|v| (v * 7.0).floor() - 3.0);
            m
        };
        let a = small_ints(spk_gen::er(47, 41, 4, 200));
        let b = small_ints(spk_gen::er(41, 37, 4, 201));
        let serial = SpgemmOptions {
            sorted_output: true,
            threads: 1,
            ..Default::default()
        };
        let direct = spgemm_hash(&a, &b, &serial).unwrap();
        assert!(direct.is_sorted());
        for grid in 1..=5 {
            for reduction in [
                ReductionKind::Heap,
                ReductionKind::SortedHash,
                ReductionKind::UnsortedHash,
            ] {
                for threads in [0, 1, 3] {
                    let cfg = SummaConfig {
                        grid,
                        reduction,
                        threads,
                    };
                    let report = run_summa(&a, &b, &cfg).unwrap();
                    assert_eq!(report.result, direct, "{cfg:?}");
                    assert!(report.result.is_sorted(), "{cfg:?}");
                    assert_eq!(report.per_process.len(), grid * grid);
                }
            }
        }
    }

    /// The compressing case of the pin above: dense-ish operands make
    /// every stage product cover almost the whole process block, so the
    /// reductions fold close to `q` inputs per output entry and the
    /// upper-bound windows carry real slack for the compaction to squeeze.
    #[test]
    fn compressing_reductions_equal_serial_product_exactly() {
        let small_ints = |mut m: CscMatrix<f64>| {
            m.map_values(|v| (v * 7.0).floor() - 3.0);
            m
        };
        let a = small_ints(spk_gen::er(24, 24, 24, 210));
        let b = small_ints(spk_gen::er(24, 24, 24, 211));
        let serial = SpgemmOptions {
            sorted_output: true,
            threads: 1,
            ..Default::default()
        };
        let direct = spgemm_hash(&a, &b, &serial).unwrap();
        for grid in 2..=4 {
            let parts = process_intermediates(&a, &b, grid, true).unwrap();
            let refs: Vec<&CscMatrix<f64>> = parts.iter().collect();
            let sum = spkadd::spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
            let cf = CscMatrix::compression_factor(&refs, &sum);
            assert!(cf > 0.75 * grid as f64, "grid {grid}: cf {cf}");
            for reduction in [
                ReductionKind::Heap,
                ReductionKind::SortedHash,
                ReductionKind::UnsortedHash,
            ] {
                for threads in [1, 3] {
                    let cfg = SummaConfig {
                        grid,
                        reduction,
                        threads,
                    };
                    let report = run_summa(&a, &b, &cfg).unwrap();
                    assert_eq!(report.result, direct, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn grid_one_degenerates_to_local_multiply() {
        let (a, b) = inputs();
        let direct = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        let report = run_summa(
            &a,
            &b,
            &SummaConfig {
                grid: 1,
                reduction: ReductionKind::SortedHash,
                threads: 0,
            },
        )
        .unwrap();
        assert!(report.result.approx_eq(&direct, 1e-9));
        assert_eq!(report.bytes_broadcast, 0, "no peers to broadcast to");
    }

    #[test]
    fn config_validation() {
        let (a, b) = inputs();
        assert!(matches!(
            run_summa(
                &a,
                &b,
                &SummaConfig {
                    grid: 0,
                    ..Default::default()
                }
            ),
            Err(SummaError::Config(_))
        ));
        let tiny = CscMatrix::<f64>::identity(2);
        assert!(run_summa(
            &tiny,
            &tiny,
            &SummaConfig {
                grid: 8,
                ..Default::default()
            }
        )
        .is_err());
        let bad = CscMatrix::<f64>::zeros(7, 7);
        assert!(run_summa(&a, &bad, &SummaConfig::default()).is_err());
    }

    #[test]
    fn intermediates_sum_to_process_block() {
        let (a, b) = inputs();
        let q = 4;
        let parts = process_intermediates(&a, &b, q, true).unwrap();
        assert_eq!(parts.len(), q);
        let refs: Vec<&CscMatrix<f64>> = parts.iter().collect();
        let summed = spkadd::spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
        // Compare against block (0,0) of the full product.
        let direct = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        let block = direct
            .slice_rows(0, a.nrows() / q)
            .slice_cols(0, b.ncols() / q);
        assert!(DenseMatrix::from_csc(&summed).max_abs_diff(&DenseMatrix::from_csc(&block)) < 1e-9);
    }

    #[test]
    fn unsorted_intermediates_are_actually_unsorted_sometimes() {
        let (a, b) = inputs();
        let parts = process_intermediates(&a, &b, 2, false).unwrap();
        // With hash emission in first-touch order, at least one multi-entry
        // column is overwhelmingly likely to be unsorted.
        let any_unsorted = parts.iter().any(|p| !p.is_sorted());
        let has_multi = parts
            .iter()
            .any(|p| (0..p.ncols()).any(|j| p.col_nnz(j) > 1));
        assert!(!has_multi || any_unsorted || parts.iter().all(|p| p.nnz() < 4));
    }

    #[test]
    fn summa_3d_matches_2d_and_direct() {
        let (a, b) = inputs();
        let direct = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
        for layers in [1usize, 2, 4] {
            let report = run_summa_3d(
                &a,
                &b,
                &SummaConfig {
                    grid: 2,
                    reduction: ReductionKind::SortedHash,
                    threads: 0,
                },
                layers,
            )
            .unwrap();
            assert!(
                report.result.approx_eq(&direct, 1e-9),
                "{layers}-layer 3D SUMMA diverged"
            );
            assert!(report.multiply_total > 0.0);
            if layers > 1 {
                assert!(report.spkadd_inter_total > 0.0);
            }
        }
    }

    #[test]
    fn summa_3d_validates_config() {
        let (a, b) = inputs();
        assert!(matches!(
            run_summa_3d(&a, &b, &SummaConfig::default(), 0),
            Err(SummaError::Config(_))
        ));
        // 40-wide inner dimension cannot host 32 layers of a 4x4 grid.
        assert!(run_summa_3d(&a, &b, &SummaConfig::default(), 32).is_err());
    }

    #[test]
    fn workers_claim_heaviest_processes_first_ties_by_pid() {
        assert_eq!(claim_order(&[3, 7, 7, 0, 3]), vec![1, 2, 0, 4, 3]);
        assert_eq!(claim_order(&[0; 4]), vec![0, 1, 2, 3]);
        assert!(claim_order(&[]).is_empty());
    }

    /// A block-diagonal `A` squared on a grid aligned with its blocks:
    /// only the diagonal processes do any work, and their loads differ by
    /// an order of magnitude, so the claim order is far from pid order.
    #[test]
    fn skewed_block_diagonal_product_is_exact_and_reported_in_pid_order() {
        let (q, side) = (4usize, 24usize);
        let n = q * side;
        let mut coo = spk_sparse::CooMatrix::new(n, n);
        for (blk, deg) in [(0usize, 1usize), (1, 12), (2, 2), (3, 6)] {
            let m = spk_gen::er(side, side, deg, 300 + blk as u64);
            for (r, c, v) in m.iter() {
                let (r, c) = ((blk * side) as u32 + r, (blk * side) as u32 + c);
                coo.push(r, c, (v * 7.0).floor() - 3.0);
            }
        }
        let a = coo.to_csc();
        let serial = SpgemmOptions {
            sorted_output: true,
            threads: 1,
            ..Default::default()
        };
        let direct = spgemm_hash(&a, &a, &serial).unwrap();
        let flops = |i: usize, j: usize| -> usize {
            let a_row = a.slice_rows(i * side, (i + 1) * side);
            let b_col = a.slice_cols(j * side, (j + 1) * side);
            (0..q)
                .map(|s| {
                    let a_blk = a_row.slice_cols(s * side, (s + 1) * side);
                    let b_blk = b_col.slice_rows(s * side, (s + 1) * side);
                    flops_per_column(&a_blk, &b_blk).iter().sum::<usize>()
                })
                .sum()
        };
        for threads in [2, 3] {
            for reduction in [ReductionKind::Heap, ReductionKind::UnsortedHash] {
                let cfg = SummaConfig {
                    grid: q,
                    reduction,
                    threads,
                };
                let report = run_summa(&a, &a, &cfg).unwrap();
                assert_eq!(report.result, direct, "{cfg:?}");
                assert_eq!(report.workers, threads, "{cfg:?}");
                assert_eq!(report.per_process.len(), q * q);
                for (pid, t) in report.per_process.iter().enumerate() {
                    let (i, j) = (pid / q, pid % q);
                    assert_eq!(t.flops, flops(i, j), "pid {pid}, {cfg:?}");
                    assert_eq!(t.flops > 0, i == j, "pid {pid}, {cfg:?}");
                    assert!(t.worker < threads);
                }
            }
        }
    }

    #[test]
    fn worker_busy_adds_up_to_the_process_times() {
        let (a, b) = inputs();
        for threads in [1, 2, 3] {
            let cfg = SummaConfig {
                threads,
                ..Default::default()
            };
            let report = run_summa(&a, &b, &cfg).unwrap();
            let busy = report.worker_busy();
            assert_eq!(busy.len(), report.workers);
            let by_worker: f64 = busy.iter().sum();
            let by_process = report.multiply_total() + report.spkadd_total();
            assert!((by_worker - by_process).abs() <= 1e-9 * by_process.max(1.0));
            assert!(report.imbalance() >= 1.0, "{cfg:?}");
            assert!(report.imbalance() <= report.workers as f64 + 1e-9);
        }
    }

    #[test]
    fn report_aggregates() {
        let (a, b) = inputs();
        let report = run_summa(&a, &b, &SummaConfig::default()).unwrap();
        assert!(report.multiply_total() >= report.multiply_max());
        assert!(report.spkadd_total() >= report.spkadd_max());
        assert!(report.multiply_total() > 0.0);
    }
}
