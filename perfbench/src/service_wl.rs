//! `service_stream`: the sharded aggregation service under a closed loop.
//!
//! An R-MAT (Graph500) stream of [`STREAM`] matrices, m=2^18, n=1024,
//! d=8 (≈4 M nnz). The service runs [`SHARDS`] shards, the default
//! algorithm, `CacheConfig::skylake()`, and `FlushPolicy::Matrices(32)`.
//! A pass submits the whole stream round-robin over [`KEYS`] fresh keys
//! from one producer thread that waits on backpressure, then finalizes
//! each key; one op is one `submit`. The window of `nnz_per_s` runs from
//! a pass's first submit to its last finalize. References: one-shot
//! `spkadd_with` per key, computed once in set-up; `attempted` counts
//! submits and finalizes.
//!
//! Per-layer values are per submit, except `server.batches_flushed` (per
//! pass) and the latency percentiles. The forced-kernel probes run on
//! flush-sized batches of 32 whole stream matrices, single-threaded like
//! a shard's plan.

use crate::check::{self, InputSummary, Tally};
use crate::trace::{call, PhaseSums, TraceLog};
use crate::{plan_wl, setup_reps, stats, Args, Budget, Outcome, CHUNK_METRICS, MIN_OPS};
use spk_gen::{generate_collection, Pattern};
use spk_server::{AggregatorService, ServiceConfig};
use spk_sparse::CscMatrix;
use spkadd::{
    spkadd_with, Algorithm, CacheConfig, FlushPolicy, NumericKernel, Options, PatternFingerprint,
};

const M: usize = 1 << 18;
const N: usize = 1024;
const D: usize = 8;
/// Matrices per pass.
pub const STREAM: usize = 512;
/// Keys a pass spreads the stream over.
pub const KEYS: usize = 4;
pub const SHARDS: usize = 2;
/// Slabs per key and shard between flushes: 32 flushes per pass, few
/// enough that blocked submits stay well under a tenth of all submits,
/// so `op_p90_s` does not sit on the edge between enqueue and
/// backpressure wait.
const FLUSH_EVERY: usize = 32;
/// Set-ups before and again after the measurement.
const SETUP_REPS: usize = 4;
/// Matrices the priming submit-and-finalize of set-up sends.
const PRIME: usize = 32;
const TRACED_PASSES: usize = 3;

fn config(shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::with_shards(shards).with_flush(FlushPolicy::Matrices(FLUSH_EVERY));
    cfg.opts.cache = CacheConfig::skylake();
    cfg
}

/// One pass's measurements.
#[derive(Debug, Default)]
struct Pass {
    submits: Vec<f64>,
    finalizes: Vec<f64>,
    window: f64,
}

struct Stream {
    mats: Vec<CscMatrix<f64>>,
    /// Per-key reference sums.
    references: Vec<CscMatrix<f64>>,
    nnz: usize,
}

impl Stream {
    fn pass(&self, svc: &AggregatorService<f64>, p: usize, tally: &mut Tally) -> Pass {
        let keys: Vec<String> = (0..KEYS).map(|s| format!("pass{p}-key{s}")).collect();
        let mut pass = Pass::default();
        let t0 = spk_obs::now();
        for (i, m) in self.mats.iter().enumerate() {
            let (res, wall) = call("bench.server.submit", || svc.submit(&keys[i % KEYS], m));
            tally.record("submit", res.map(|()| true));
            pass.submits.push(wall);
        }
        for (key, reference) in keys.iter().zip(&self.references) {
            let (res, wall) = call("bench.server.finalize", || svc.finalize(key));
            tally.record("finalize", res.map(|sum| sum == *reference));
            pass.finalizes.push(wall);
        }
        pass.window = t0.elapsed().as_secs_f64();
        pass
    }

    /// Passes until `budget` is met; `first` numbers the keys.
    fn passes(
        &self,
        svc: &AggregatorService<f64>,
        budget: Budget,
        first: usize,
        tally: &mut Tally,
    ) -> Vec<Pass> {
        let mut out = Vec::new();
        while budget.more(out.len() * STREAM) {
            out.push(self.pass(svc, first + out.len(), tally));
        }
        out
    }
}

fn submits(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.submits.iter().copied())
        .collect()
}

fn windows(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.window).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mats, gen_s) = call("bench.gen.generate_collection", || {
        let mut mats = generate_collection(
            Pattern::Rmat,
            M,
            N,
            D,
            STREAM,
            check::derive_seed(args.seed, 0),
        );
        for (i, m) in mats.iter_mut().enumerate() {
            check::make_exact(m, check::derive_seed(args.seed, (1 << 32) + i as u64));
        }
        mats
    });
    out.set("gen.s", gen_s);

    // Single-threaded, like the plan workloads' references: transient
    // allocations stay in one allocator arena, which keeps the peak
    // memory reading steady.
    let mut opts = Options::default().with_threads(1);
    opts.cache = CacheConfig::skylake();
    let oneshot = |mats: Vec<&CscMatrix<f64>>, probes: &mut Tally| {
        let res = spkadd_with(&mats, Algorithm::Auto, &opts);
        probes.record("reference spkadd_with", res.as_ref().map(|_| true));
        res.unwrap_or_else(|_| CscMatrix::zeros(0, 0))
    };
    let (references, ref_s) = call("bench.spkadd.spkadd_with", || {
        (0..KEYS)
            .map(|s| oneshot(mats.iter().skip(s).step_by(KEYS).collect(), &mut out.probes))
            .collect::<Vec<_>>()
    });
    let prime_ref = oneshot(mats.iter().take(PRIME).collect(), &mut out.probes);
    let nnz = mats.iter().map(|m| m.nnz()).sum();
    let stream = Stream {
        mats,
        references,
        nnz,
    };
    let all: Vec<&CscMatrix<f64>> = stream.mats.iter().collect();
    let summary = InputSummary {
        nnz_out: stream.references.iter().map(|r| r.nnz()).sum(),
        ..InputSummary::of(&all, &stream.references[0])
    };
    out.note(format!("input {summary} keys={KEYS}"));
    out.note(format!("inputs gen_s={gen_s} reference_s={ref_s}"));

    // Set-up: spawn the shards and push one priming batch through
    // submit + finalize.
    let setup = |probes: &mut Tally| {
        let t0 = spk_obs::now();
        let svc = AggregatorService::<f64>::new(M, N, config(SHARDS));
        for m in &stream.mats[..PRIME] {
            let res = svc.submit("prime", m);
            probes.record("priming submit", res.map(|()| true));
        }
        let res = svc.finalize("prime");
        let secs = t0.elapsed().as_secs_f64();
        probes.record("priming finalize", res.map(|s| s == prime_ref));
        (svc, secs)
    };
    let (svc, mut setup_secs) = setup_reps(SETUP_REPS, &mut out.probes, &setup);

    if !args.trace {
        let passes = stream.passes(&svc, Budget::new(args.seconds, MIN_OPS), 0, &mut out.ops);
        let w = submits(&passes);
        out.set("op_p50_s", stats::median(&w));
        out.set("op_p90_s", stats::quantile(&w, 0.9));
        out.set(
            "nnz_per_s",
            (stream.nnz * passes.len()) as f64 / windows(&passes).iter().sum::<f64>(),
        );
        let fin: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.finalizes.iter().copied())
            .collect();
        let metrics = svc.metrics();
        out.note(format!(
            "ops samples={} beyond_p90={} passes={} finalize_p50_s={} finalize_samples={}",
            w.len(),
            stats::samples_beyond(w.len(), 0.9),
            passes.len(),
            stats::median(&fin),
            fin.len()
        ));
        out.note(format!(
            "service shards={SHARDS} flushes={} kernels=[{}]",
            metrics.batches_flushed(),
            metrics.kernel_counts()
        ));
        shutdown(svc, &mut out.probes);
        let (last, more) = setup_reps(SETUP_REPS, &mut out.probes, &setup);
        shutdown(last, &mut out.probes);
        setup_secs.extend(more);
        out.set("setup_s", stats::median(&setup_secs));
        return out;
    }

    // Traced run: untraced baseline passes, then traced passes.
    let base = stream.passes(&svc, Budget::new(args.seconds * 0.4, 1), 0, &mut out.ops);
    let base_p50 = stats::median(&submits(&base));
    let fin: Vec<f64> = base
        .iter()
        .flat_map(|p| p.finalizes.iter().copied())
        .collect();
    out.set("server.finalize_p50_s", stats::median(&fin));

    let before = svc.metrics();
    let mut log = TraceLog::default();
    let mut phases = PhaseSums::default();
    let (mut row_split, mut validate, mut fingerprint) = (0.0, 0.0, 0.0);
    let mut traced = Vec::new();
    spk_obs::set_tracing(true);
    log.drain();
    for p in 0..TRACED_PASSES {
        traced.push(stream.pass(&svc, base.len() + p, &mut out.ops));
        // Benchmark-timed calls into the layers a submit crosses, made
        // after the pass so they do not perturb it.
        for m in &stream.mats {
            row_split += call("bench.sparse.row_split", || {
                m.row_split(svc.plan().bounds())
            })
            .1;
            validate += call("bench.sparse.is_sorted", || m.is_sorted()).1;
            fingerprint += call("bench.pattern.fingerprint_of", || {
                PatternFingerprint::of(&[m])
            })
            .1;
        }
        phases.add(&PhaseSums::of(&log.drain()));
    }
    spk_obs::set_tracing(false);
    let after = svc.metrics();

    let ops = (TRACED_PASSES * STREAM) as f64;
    let w = submits(&traced);
    out.set("op.traced_mean_s", stats::mean(&w));
    out.set("obs.overhead_frac", stats::median(&w) / base_p50 - 1.0);
    out.set("server.row_split_s", row_split / ops);
    out.set(
        "server.enqueue_wait_s",
        (w.iter().sum::<f64>() - row_split) / ops,
    );
    out.set("plan.validate_s", validate / ops);
    out.set("pattern.fingerprint_bench_s", fingerprint / ops);
    out.set("plan.unattributed_s", phases.execute_self / ops);
    out.set("pattern.fingerprint_s", phases.fingerprint / ops);
    out.set("symbolic.s", phases.symbolic / ops);
    out.set("numeric.s", phases.numeric / ops);
    out.set(
        "numeric.ns_per_nnz",
        phases.numeric / (TRACED_PASSES * stream.nnz) as f64 * 1e9,
    );
    let bytes: usize = stream
        .mats
        .iter()
        .chain(&stream.references)
        .map(check::csc_bytes)
        .sum();
    out.set(
        "numeric.computed_bytes_per_nnz",
        bytes as f64 / stream.nnz as f64,
    );
    let (k_before, k_after) = (before.kernel_counts(), after.kernel_counts());
    for (kernel, name) in NumericKernel::ALL.iter().zip(CHUNK_METRICS) {
        out.set(
            name,
            (k_after.get(*kernel) - k_before.get(*kernel)) as f64 / ops,
        );
    }
    let flushed = after.batches_flushed() - before.batches_flushed();
    out.set(
        "server.batches_flushed",
        flushed as f64 / TRACED_PASSES as f64,
    );
    let latency = after.flush_latency();
    out.set(
        "server.submit_to_flush_p50_s",
        latency.quantile(0.5) as f64 * 1e-9,
    );
    out.set(
        "server.submit_to_flush_p99_s",
        latency.quantile(0.99) as f64 * 1e-9,
    );
    shutdown(svc, &mut out.probes);

    // Shard scaling: one shard against SHARDS on the same stream.
    let single = AggregatorService::<f64>::new(M, N, config(1));
    stream.pass(&single, 0, &mut out.probes);
    let t1 = stats::median(&windows(&[
        stream.pass(&single, 1, &mut out.probes),
        stream.pass(&single, 2, &mut out.probes),
    ]));
    shutdown(single, &mut out.probes);
    let t2 = stats::median(&windows(&base));
    out.set("parallel.efficiency_pct", t1 / (SHARDS as f64 * t2) * 100.0);
    out.note(format!(
        "traced passes={TRACED_PASSES} flushes_per_pass={} shards=1 pass_s={t1} shards={SHARDS} pass_s={t2}",
        flushed as f64 / TRACED_PASSES as f64
    ));

    // Forced kernels on flush-sized batches, single-threaded like a
    // shard's plan.
    let batches: Vec<Vec<&CscMatrix<f64>>> = stream
        .mats
        .chunks(FLUSH_EVERY)
        .take(4)
        .map(|c| c.iter().collect())
        .collect();
    let sums: Vec<CscMatrix<f64>> = batches
        .iter()
        .map(|b| oneshot(b.clone(), &mut out.probes))
        .collect();
    let sums: Vec<&CscMatrix<f64>> = sums.iter().collect();
    plan_wl::forced_kernels((M, N), &batches, &sums, 1, &mut out);
    out.trace = Some(log);
    out
}

/// Stops the shard workers, counting a worker panic as a failed probe.
fn shutdown(svc: AggregatorService<f64>, probes: &mut Tally) {
    let res = svc.shutdown().map_err(|_| "a shard worker panicked");
    probes.record("shutdown", res.map(|()| true));
}
