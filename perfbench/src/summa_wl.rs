//! `summa_fig6`: the paper's headline application (Fig 6), one
//! `spk_summa::run_summa` call per op.
//!
//! C = A·A for a clustered protein-similarity matrix A (n=8192, 12 per
//! column, 128 communities, 85% in-community), on a 4×4 grid with
//! `ReductionKind::UnsortedHash` and [`THREADS`] workers; each simulated
//! process reduces its 4 intermediate products with a throwaway SpKAdd
//! plan. The reference is a serial whole-matrix `spgemm_hash`.
//! `nnz_per_s` counts the intermediate products' nonzeros that the
//! SpKAdd reductions fold; the multiply-add count of A·A gives
//! `summa.flops_per_s`. `run_summa` builds its plans from the default
//! options, so its machine model is the host's; with the explicit hash
//! reduction no decision depends on it. The forced-kernel probes run on
//! process (0, 0)'s intermediate products.

use crate::check::{self, InputSummary, Tally};
use crate::trace::{call, PhaseSums, TraceLog};
use crate::{plan_wl, setup_reps, stats, Args, Budget, Outcome, CHUNK_METRICS, MIN_OPS, THREADS};
use spk_gen::protein_similarity_matrix;
use spk_sparse::CscMatrix;
use spk_spgemm::{flops_per_column, spgemm_hash, SpgemmOptions};
use spk_summa::{process_intermediates, run_summa, ReductionKind, SummaConfig, SummaReport};
use spkadd::{spkadd_with, Algorithm, CacheConfig, Options, PatternFingerprint};

const N: usize = 8192;
const DEG: usize = 12;
const CLUSTERS: usize = 128;
const IN_CLUSTER: f64 = 0.85;
const GRID: usize = 4;
/// Set-ups (priming runs) before and again after the measurement.
const SETUP_REPS: usize = 3;
const TRACED_OPS: usize = 8;
const PROBE_REPS: usize = 3;

/// One measured op: wall time plus the program's own phase report.
#[derive(Debug, Clone, Copy, Default)]
struct OpSample {
    wall: f64,
    multiply_total: f64,
    multiply_max: f64,
    spkadd_total: f64,
    spkadd_max: f64,
    bytes_broadcast: u64,
}

fn config(threads: usize) -> SummaConfig {
    SummaConfig {
        grid: GRID,
        reduction: ReductionKind::UnsortedHash,
        threads,
    }
}

fn op(
    a: &CscMatrix<f64>,
    cfg: &SummaConfig,
    reference: &CscMatrix<f64>,
    tally: &mut Tally,
) -> OpSample {
    let (res, wall) = call("bench.summa.run_summa", || run_summa(a, a, cfg));
    let sample = match &res {
        Ok(r) => sample_of(r, wall),
        Err(_) => OpSample {
            wall,
            ..OpSample::default()
        },
    };
    tally.record("run_summa", res.map(|r| r.result == *reference));
    sample
}

fn sample_of(r: &SummaReport, wall: f64) -> OpSample {
    OpSample {
        wall,
        multiply_total: r.multiply_total(),
        multiply_max: r.multiply_max(),
        spkadd_total: r.spkadd_total(),
        spkadd_max: r.spkadd_max(),
        bytes_broadcast: r.bytes_broadcast,
    }
}

fn ops(
    a: &CscMatrix<f64>,
    cfg: &SummaConfig,
    reference: &CscMatrix<f64>,
    budget: Budget,
    max_ops: usize,
    tally: &mut Tally,
) -> Vec<OpSample> {
    let mut out = Vec::new();
    while out.len() < max_ops && budget.more(out.len()) {
        out.push(op(a, cfg, reference, tally));
    }
    out
}

/// Block boundary `i` of `parts` over `len` — the 2D distribution
/// `run_summa` uses.
fn bound(i: usize, parts: usize, len: usize) -> usize {
    i * len / parts
}

/// Nonzeros and array bytes of every process's intermediate products:
/// what the SpKAdd reductions fold.
fn intermediates(a: &CscMatrix<f64>) -> Result<(usize, usize), spk_sparse::SparseError> {
    let n = a.nrows();
    let opts = SpgemmOptions {
        sorted_output: false,
        threads: THREADS,
        ..SpgemmOptions::default()
    };
    let blocks: Vec<CscMatrix<f64>> = (0..GRID)
        .map(|i| a.slice_rows(bound(i, GRID, n), bound(i + 1, GRID, n)))
        .collect();
    let cols: Vec<CscMatrix<f64>> = (0..GRID)
        .map(|j| a.slice_cols(bound(j, GRID, n), bound(j + 1, GRID, n)))
        .collect();
    let (mut nnz, mut bytes) = (0, 0);
    for row in &blocks {
        for col in &cols {
            for s in 0..GRID {
                let (lo, hi) = (bound(s, GRID, n), bound(s + 1, GRID, n));
                let c = spgemm_hash(&row.slice_cols(lo, hi), &col.slice_rows(lo, hi), &opts)?;
                nnz += c.nnz();
                bytes += check::csc_bytes(&c);
            }
        }
    }
    Ok((nnz, bytes))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (a, gen_s) = call("bench.gen.protein_similarity_matrix", || {
        let mut a = protein_similarity_matrix(
            N,
            DEG,
            CLUSTERS,
            IN_CLUSTER,
            check::derive_seed(args.seed, 0),
        );
        check::make_exact(&mut a, check::derive_seed(args.seed, 1 << 32));
        a
    });
    out.set("gen.s", gen_s);

    let serial = SpgemmOptions {
        sorted_output: true,
        threads: 1,
        ..SpgemmOptions::default()
    };
    let (res, ref_s) = call("bench.spgemm.spgemm_hash", || spgemm_hash(&a, &a, &serial));
    out.probes
        .record("reference spgemm_hash", res.as_ref().map(|_| true));
    let reference = res.unwrap_or_else(|_| CscMatrix::zeros(0, 0));
    let flops: usize = flops_per_column(&a, &a).iter().sum();
    let res = intermediates(&a);
    out.probes
        .record("intermediate products", res.as_ref().map(|_| true));
    let (inter_nnz, inter_bytes) = res.unwrap_or((0, 0));
    let summary = InputSummary {
        k: GRID,
        ..InputSummary::of(&[&a], &reference)
    };
    out.note(format!(
        "input {summary} grid={GRID}x{GRID} flops={flops} intermediate_nnz={inter_nnz}"
    ));
    out.note(format!("inputs gen_s={gen_s} reference_s={ref_s}"));

    let cfg = config(THREADS);
    let setup = |probes: &mut Tally| ((), op(&a, &cfg, &reference, probes).wall);
    let ((), mut setup_secs) = setup_reps(SETUP_REPS, &mut out.probes, &setup);

    if !args.trace {
        let samples = ops(
            &a,
            &cfg,
            &reference,
            Budget::new(args.seconds, MIN_OPS),
            usize::MAX,
            &mut out.ops,
        );
        setup_secs.extend(setup_reps(SETUP_REPS, &mut out.probes, &setup).1);
        out.set("setup_s", stats::median(&setup_secs));
        let w: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        let total: f64 = w.iter().sum();
        out.set("op_p50_s", stats::median(&w));
        out.set("op_p90_s", stats::quantile(&w, 0.9));
        out.set("nnz_per_s", (inter_nnz * w.len()) as f64 / total);
        out.note(format!(
            "ops samples={} beyond_p90={} flops_per_s={} kernels=[hash: forced by UnsortedHash]",
            w.len(),
            stats::samples_beyond(w.len(), 0.9),
            (flops * w.len()) as f64 / total
        ));
        return out;
    }

    // Traced run: untraced baseline (also the source of the program's
    // own phase report), then traced ops.
    let base = ops(
        &a,
        &cfg,
        &reference,
        Budget::new(args.seconds * 0.4, 10),
        usize::MAX,
        &mut out.ops,
    );
    let base_w: Vec<f64> = base.iter().map(|s| s.wall).collect();
    let base_p50 = stats::median(&base_w);
    let mean = |f: &dyn Fn(&OpSample) -> f64| stats::mean(&base.iter().map(f).collect::<Vec<_>>());
    let (mul, add) = (mean(&|s| s.multiply_total), mean(&|s| s.spkadd_total));
    out.set("spgemm.multiply_s", mul);
    out.set("spgemm.multiply_max_s", mean(&|s| s.multiply_max));
    out.set("summa.spkadd_s", add);
    out.set("summa.spkadd_max_s", mean(&|s| s.spkadd_max));
    out.set("summa.spkadd_share", add / (mul + add));
    out.set("summa.bytes_broadcast", mean(&|s| s.bytes_broadcast as f64));
    out.set(
        "summa.flops_per_s",
        (flops * base.len()) as f64 / base_w.iter().sum::<f64>(),
    );

    let mut log = TraceLog::default();
    let mut phases = PhaseSums::default();
    let (mut validate, mut fingerprint) = (0.0, 0.0);
    let mut traced = Vec::new();
    spk_obs::set_tracing(true);
    log.drain();
    for _ in 0..TRACED_OPS {
        traced.push(op(&a, &cfg, &reference, &mut out.ops).wall);
        validate += call("bench.sparse.is_sorted", || a.is_sorted()).1;
        fingerprint += call("bench.pattern.fingerprint_of", || {
            PatternFingerprint::of(&[&a])
        })
        .1;
        phases.add(&PhaseSums::of(&log.drain()));
    }
    spk_obs::set_tracing(false);

    let n = TRACED_OPS as f64;
    out.set("op.traced_mean_s", stats::mean(&traced));
    out.set("obs.overhead_frac", stats::median(&traced) / base_p50 - 1.0);
    out.set("plan.validate_s", validate / n);
    out.set("pattern.fingerprint_bench_s", fingerprint / n);
    out.set("plan.unattributed_s", phases.execute_self / n);
    out.set("pattern.fingerprint_s", phases.fingerprint / n);
    out.set("symbolic.s", phases.symbolic / n);
    out.set("numeric.s", phases.numeric / n);
    out.set(
        "numeric.ns_per_nnz",
        phases.numeric / n / inter_nnz as f64 * 1e9,
    );
    out.set(
        "numeric.computed_bytes_per_nnz",
        (inter_bytes + check::csc_bytes(&reference)) as f64 / inter_nnz as f64,
    );
    for (k, name) in CHUNK_METRICS.iter().enumerate() {
        out.set(name, phases.chunks[k] as f64 / n);
    }

    let single = config(1);
    op(&a, &single, &reference, &mut out.probes);
    let t1 = ops(
        &a,
        &single,
        &reference,
        Budget::new(0.0, PROBE_REPS),
        PROBE_REPS,
        &mut out.probes,
    );
    let t1 = stats::median(&t1.iter().map(|s| s.wall).collect::<Vec<_>>());
    out.set(
        "parallel.efficiency_pct",
        t1 / (THREADS as f64 * base_p50) * 100.0,
    );
    out.note(format!(
        "traced ops={TRACED_OPS} threads=1 op_p50_s={t1} threads={THREADS} op_p50_s={base_p50}"
    ));

    // Forced kernels on one process's intermediate products (sorted, so
    // the heap and 2-way merges accept them).
    let res = process_intermediates(&a, &a, GRID, true);
    out.probes
        .record("process_intermediates", res.as_ref().map(|_| true));
    let inter = res.unwrap_or_default();
    if let Some(first) = inter.first() {
        let mats: Vec<&CscMatrix<f64>> = inter.iter().collect();
        let mut opts = Options::default().with_threads(1);
        opts.cache = CacheConfig::skylake();
        let res = spkadd_with(&mats, Algorithm::TwoWayTree, &opts);
        out.probes
            .record("reference 2way-tree", res.as_ref().map(|_| true));
        let sum = res.unwrap_or_else(|_| CscMatrix::zeros(0, 0));
        plan_wl::forced_kernels(first.shape(), &[mats], &[&sum], THREADS, &mut out);
    }
    out.trace = Some(log);
    out
}
