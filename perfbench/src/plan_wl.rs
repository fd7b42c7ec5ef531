//! The two plan workloads, both driving `SpkAddPlan::execute_into_timed`
//! (Auto, `CacheConfig::skylake()`, [`THREADS`] workers).
//!
//! * `spgemm_reduce` — the per-process SUMMA reduction of Fig 3(c)/4(d):
//!   a pool of [`POOL`] differently seeded Eukarya-like collections of
//!   SpGEMM intermediates (m=2^17, n=1024, d=64, k=64, cf≈22.6, Zipf
//!   column skew 0.6), cycled so consecutive ops never share structure.
//!   No pattern cache; symbolic and numeric do the work.
//! * `fixed_pattern` — FEM assembly / fixed-model gradients: one ER
//!   structure (m=2^20, n=4096, d=8, k=32) with [`VARIANTS`] value sets.
//!   Every op gets a *freshly allocated* collection (built outside the
//!   timed region while the previous one is still alive, so no allocation
//!   reuses the last op's addresses), on a plan with `pattern_cache(2)`.
//!   The first op, a miss, is part of set-up.
//!
//! Both recycle the output buffers across ops, as `execute_into_timed`
//! callers do.
//!
//! References come from a forced 2-way-tree plan, computed once in
//! set-up.

use crate::check::{self, InputSummary, Tally};
use crate::trace::{call, PhaseSums, TraceLog};
use crate::{setup_reps, stats, Args, Budget, Outcome, CHUNK_METRICS, MIN_OPS, THREADS};
use spk_gen::{generate_collection, protein_collection, Pattern, ProteinConfig};
use spk_sparse::CscMatrix;
use spkadd::{
    Algorithm, CacheConfig, ExecuteStats, KernelCounts, NumericKernel, PatternFingerprint, SpkAdd,
    SpkAddPlan,
};

/// Differently seeded collections `spgemm_reduce` cycles through.
pub const POOL: usize = 4;
/// Value sets `fixed_pattern` cycles through on its one structure.
pub const VARIANTS: usize = 4;
/// Set-ups before and again after the measurement.
const SETUP_REPS: usize = 5;
/// Ops measured with tracing on (bounded: every traced parallel region
/// leaves a span ring behind).
const TRACED_OPS: usize = 24;
/// Timed reps per forced-kernel and single-thread probe.
const PROBE_REPS: usize = 3;

/// Forced-kernel probes and their per-layer metric names.
const FORCED: [(Algorithm, &str); 6] = [
    (Algorithm::Hash, "kernel.hash.forced_ns_per_nnz"),
    (
        Algorithm::SlidingHash,
        "kernel.sliding-hash.forced_ns_per_nnz",
    ),
    (Algorithm::Spa, "kernel.spa.forced_ns_per_nnz"),
    (
        Algorithm::SlidingSpa,
        "kernel.sliding-spa.forced_ns_per_nnz",
    ),
    (Algorithm::Heap, "kernel.heap.forced_ns_per_nnz"),
    (Algorithm::TwoWayTree, "kernel.2way-tree.forced_ns_per_nnz"),
];

/// Where an op's collection comes from.
enum Inputs {
    /// Differently seeded collections, cycled.
    Pool(Vec<Vec<CscMatrix<f64>>>),
    /// One structure; each op allocates it afresh with one of the value
    /// sets.
    Fixed {
        structure: Vec<CscMatrix<f64>>,
        values: Vec<Vec<Vec<f64>>>,
    },
}

enum Collection<'a> {
    Borrowed(&'a [CscMatrix<f64>]),
    Owned(Vec<CscMatrix<f64>>),
}

impl Collection<'_> {
    fn refs(&self) -> Vec<&CscMatrix<f64>> {
        match self {
            Collection::Borrowed(ms) => ms.iter().collect(),
            Collection::Owned(ms) => ms.iter().collect(),
        }
    }
}

impl Inputs {
    /// Distinct collections (each has its own reference).
    fn distinct(&self) -> usize {
        match self {
            Inputs::Pool(pool) => pool.len(),
            Inputs::Fixed { values, .. } => values.len(),
        }
    }

    fn collection(&self, i: usize) -> Collection<'_> {
        match self {
            Inputs::Pool(pool) => Collection::Borrowed(&pool[i % pool.len()]),
            Inputs::Fixed { structure, values } => Collection::Owned(
                structure
                    .iter()
                    .zip(&values[i % values.len()])
                    .map(|(s, v)| {
                        CscMatrix::from_parts(
                            s.nrows(),
                            s.ncols(),
                            s.colptr().to_vec(),
                            s.rowidx().to_vec(),
                            v.clone(),
                        )
                    })
                    .collect(),
            ),
        }
    }
}

/// One measured op.
#[derive(Debug, Clone, Copy)]
struct OpSample {
    wall: f64,
    stats: ExecuteStats,
    nnz_in: usize,
    /// Benchmark-timed `is_sorted` over the collection (traced run only).
    validate: f64,
    /// Benchmark-timed `PatternFingerprint::of` (traced run only).
    fingerprint: f64,
    phases: PhaseSums,
}

struct Workload {
    shape: (usize, usize),
    inputs: Inputs,
    references: Vec<CscMatrix<f64>>,
    pattern_cache: usize,
}

pub fn build(
    shape: (usize, usize),
    alg: Algorithm,
    threads: usize,
    cache: usize,
) -> SpkAddPlan<f64> {
    SpkAdd::new(shape.0, shape.1)
        .algorithm(alg)
        .threads(threads)
        .cache(CacheConfig::skylake())
        .pattern_cache(cache)
        .build()
        .expect("the benchmark's plan options are valid")
}

pub fn spgemm_reduce(args: &Args) -> Outcome {
    let cfg = ProteinConfig {
        nrows: 1 << 17,
        ncols: 1024,
        d: 64,
        k: 64,
        cf: 22.6,
        skew: 0.6,
    };
    let (pool, gen_s) = call("bench.gen.protein_collection", || {
        (0..POOL)
            .map(|p| {
                let mut mats = protein_collection(&cfg, check::derive_seed(args.seed, p as u64));
                for (i, m) in mats.iter_mut().enumerate() {
                    check::make_exact(
                        m,
                        check::derive_seed(args.seed, (1 << 32) + (p * cfg.k + i) as u64),
                    );
                }
                mats
            })
            .collect::<Vec<_>>()
    });
    let wl = Workload {
        shape: (cfg.nrows, cfg.ncols),
        inputs: Inputs::Pool(pool),
        references: Vec::new(),
        pattern_cache: 0,
    };
    wl.run(args, gen_s)
}

pub fn fixed_pattern(args: &Args) -> Outcome {
    let (m, n, d, k) = (1 << 20, 4096, 8, 32);
    let (inputs, gen_s) = call("bench.gen.generate_collection", || {
        let structure =
            generate_collection(Pattern::Er, m, n, d, k, check::derive_seed(args.seed, 0));
        let values = (0..VARIANTS)
            .map(|v| {
                structure
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        check::small_int_values(
                            a.nnz(),
                            check::derive_seed(args.seed, (1 << 32) + (v * k + i) as u64),
                        )
                    })
                    .collect()
            })
            .collect();
        Inputs::Fixed { structure, values }
    });
    let wl = Workload {
        shape: (m, n),
        inputs,
        references: Vec::new(),
        pattern_cache: 2,
    };
    wl.run(args, gen_s)
}

impl Workload {
    /// Runs up to `max_ops` ops (and as long as `budget` asks for more),
    /// starting at collection `first`; every output is checked into
    /// `tally` outside the timed call. With a `log`, each op's spans are
    /// drained and attributed, and the validation and fingerprint probes
    /// run after the op.
    fn measure(
        &self,
        plan: &mut SpkAddPlan<f64>,
        budget: Budget,
        max_ops: usize,
        first: usize,
        mut log: Option<&mut TraceLog>,
        tally: &mut Tally,
    ) -> Vec<OpSample> {
        let mut samples = Vec::new();
        let mut sink = CscMatrix::zeros(0, 0);
        let mut i = first;
        let mut coll = self.inputs.collection(i);
        while samples.len() < max_ops && budget.more(samples.len()) {
            let refs = coll.refs();
            let nnz_in = refs.iter().map(|a| a.nnz()).sum();
            let (res, wall) = call("bench.plan.execute_into_timed", || {
                plan.execute_into_timed(&refs, &mut sink)
            });
            let stats = res
                .as_ref()
                .map_or_else(|_| ExecuteStats::default(), |s| *s);
            let reference = &self.references[i % self.references.len()];
            tally.record("execute_into_timed", res.map(|_| sink == *reference));
            let mut sample = OpSample {
                wall,
                stats,
                nnz_in,
                validate: 0.0,
                fingerprint: 0.0,
                phases: PhaseSums::default(),
            };
            if let Some(log) = log.as_deref_mut() {
                sample.validate = call("bench.sparse.is_sorted", || {
                    refs.iter().all(|a| a.is_sorted())
                })
                .1;
                sample.fingerprint = call("bench.pattern.fingerprint_of", || {
                    PatternFingerprint::of(&refs)
                })
                .1;
                sample.phases = PhaseSums::of(&log.drain());
            }
            samples.push(sample);
            drop(refs);
            i += 1;
            // The next collection is allocated before this one is freed.
            coll = self.inputs.collection(i);
        }
        samples
    }

    fn run(mut self, args: &Args, gen_s: f64) -> Outcome {
        let mut out = Outcome::default();
        out.set("gen.s", gen_s);

        // References: a forced 2-way tree, a different path from Auto's
        // k-way kernels (single-threaded, so its transient allocations
        // stay in one allocator arena).
        let mut tree = build(self.shape, Algorithm::TwoWayTree, 1, 0);
        let (references, ref_s) = call("bench.plan.execute", || {
            (0..self.inputs.distinct())
                .map(|j| {
                    let coll = self.inputs.collection(j);
                    let res = tree.execute(&coll.refs());
                    out.probes
                        .record("reference 2way-tree", res.as_ref().map(|_| true));
                    res.unwrap_or_else(|_| CscMatrix::zeros(0, 0))
                })
                .collect::<Vec<_>>()
        });
        self.references = references;
        {
            let first = self.inputs.collection(0);
            let refs = first.refs();
            out.note(format!(
                "input {}",
                InputSummary::of(&refs, &self.references[0])
            ));
        }
        out.note(format!(
            "inputs distinct_collections={} gen_s={gen_s} reference_s={ref_s}",
            self.inputs.distinct()
        ));

        // Set-up: plan construction plus the priming op (for a pattern
        // cache, the cold miss).
        let setup = |probes: &mut Tally| {
            let coll = self.inputs.collection(0);
            let refs = coll.refs();
            let mut sink = CscMatrix::zeros(0, 0);
            let t0 = spk_obs::now();
            let mut plan = build(self.shape, Algorithm::Auto, THREADS, self.pattern_cache);
            let res = plan.execute_into_timed(&refs, &mut sink);
            let secs = t0.elapsed().as_secs_f64();
            probes.record("priming op", res.map(|_| sink == self.references[0]));
            (plan, secs)
        };
        let (mut plan, mut setup_secs) = setup_reps(SETUP_REPS, &mut out.probes, &setup);

        if !args.trace {
            let samples = self.measure(
                &mut plan,
                Budget::new(args.seconds, MIN_OPS),
                usize::MAX,
                1,
                None,
                &mut out.ops,
            );
            drop(plan);
            setup_secs.extend(setup_reps(SETUP_REPS, &mut out.probes, &setup).1);
            out.set("setup_s", stats::median(&setup_secs));
            self.end_to_end(&samples, &mut out);
            return out;
        }

        // Traced run: untraced baseline, then traced ops, then probes.
        let base = self.measure(
            &mut plan,
            Budget::new(args.seconds * 0.4, 30),
            usize::MAX,
            1,
            None,
            &mut out.ops,
        );
        let base_p50 = stats::median(&walls(&base));
        let mut log = TraceLog::default();
        spk_obs::set_tracing(true);
        log.drain();
        let traced = self.measure(
            &mut plan,
            Budget::new(0.0, TRACED_OPS),
            TRACED_OPS,
            1 + base.len(),
            Some(&mut log),
            &mut out.ops,
        );
        spk_obs::set_tracing(false);
        self.per_layer(&traced, &plan, &mut out);
        out.set(
            "obs.overhead_frac",
            stats::median(&walls(&traced)) / base_p50 - 1.0,
        );
        {
            let owned: Vec<Collection> = (0..self.inputs.distinct())
                .map(|j| self.inputs.collection(j))
                .collect();
            let colls: Vec<Vec<&CscMatrix<f64>>> = owned.iter().map(Collection::refs).collect();
            let refs: Vec<&CscMatrix<f64>> = self.references.iter().collect();
            forced_kernels(self.shape, &colls, &refs, THREADS, &mut out);
        }
        let mut single = build(self.shape, Algorithm::Auto, 1, self.pattern_cache);
        self.measure(
            &mut single,
            Budget::new(0.0, 1),
            1,
            0,
            None,
            &mut out.probes,
        );
        let t1 = stats::median(&walls(&self.measure(
            &mut single,
            Budget::new(0.0, PROBE_REPS),
            PROBE_REPS,
            1,
            None,
            &mut out.probes,
        )));
        out.set(
            "parallel.efficiency_pct",
            t1 / (THREADS as f64 * base_p50) * 100.0,
        );
        out.note(format!(
            "parallel threads=1 op_p50_s={t1} threads={THREADS} op_p50_s={base_p50}"
        ));
        out.trace = Some(log);
        out
    }

    fn end_to_end(&self, samples: &[OpSample], out: &mut Outcome) {
        let w = walls(samples);
        out.set("op_p50_s", stats::median(&w));
        out.set("op_p90_s", stats::quantile(&w, 0.9));
        let nnz: usize = samples.iter().map(|s| s.nnz_in).sum();
        out.set("nnz_per_s", nnz as f64 / w.iter().sum::<f64>());
        let mut kernels = KernelCounts::default();
        for s in samples {
            kernels.merge(&s.stats.kernel_counts);
        }
        out.note(format!(
            "ops samples={} beyond_p90={} kernels=[{kernels}]",
            w.len(),
            stats::samples_beyond(w.len(), 0.9)
        ));
    }

    fn per_layer(&self, traced: &[OpSample], plan: &SpkAddPlan<f64>, out: &mut Outcome) {
        let mean =
            |f: &dyn Fn(&OpSample) -> f64| stats::mean(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = mean(&|s| s.wall);
        let symbolic = mean(&|s| s.stats.symbolic);
        let numeric = mean(&|s| s.stats.numeric);
        let fingerprint = mean(&|s| s.stats.fingerprint);
        let unattributed = mean(&|s| s.wall - s.stats.total());
        out.set("op.traced_mean_s", wall);
        out.set("plan.validate_s", mean(&|s| s.validate));
        out.set("plan.unattributed_s", unattributed);
        out.set("pattern.fingerprint_s", fingerprint);
        out.set("pattern.fingerprint_bench_s", mean(&|s| s.fingerprint));
        out.set(
            "pattern.hit_rate",
            plan.pattern_stats().map_or(0.0, |p| p.hit_rate()),
        );
        out.set("symbolic.s", symbolic);
        out.set(
            "symbolic.skipped_frac",
            mean(&|s| f64::from(u8::from(s.stats.symbolic_skipped))),
        );
        out.set("numeric.s", numeric);
        let nnz_in = mean(&|s| s.nnz_in as f64);
        out.set("numeric.ns_per_nnz", numeric / nnz_in * 1e9);
        let coll = self.inputs.collection(0);
        let in_bytes: usize = coll.refs().iter().map(|a| check::csc_bytes(a)).sum();
        out.set(
            "numeric.computed_bytes_per_nnz",
            (in_bytes + check::csc_bytes(&self.references[0])) as f64 / nnz_in,
        );
        for (kernel, name) in NumericKernel::ALL.iter().zip(CHUNK_METRICS) {
            out.set(name, mean(&|s| s.stats.kernel_counts.get(*kernel) as f64));
        }
        // The named phases and the unattributed rest sum to the wall
        // time by construction; the spans must agree with ExecuteStats.
        let sum = symbolic + numeric + fingerprint + unattributed;
        out.probes.record(
            "phases sum to the op wall",
            Ok::<_, String>((sum - wall).abs() < 1e-9),
        );
        for s in traced {
            let from_spans = s.phases.symbolic + s.phases.numeric;
            let from_stats = s.stats.symbolic + s.stats.numeric;
            let chunks: u64 = s.phases.chunks.iter().sum();
            out.probes.record(
                "spans agree with ExecuteStats",
                Ok::<_, String>(
                    (from_spans - from_stats).abs() < 1e-6
                        && chunks == s.stats.kernel_counts.total(),
                ),
            );
        }
        out.note(format!(
            "traced ops={} mean_s={wall} symbolic_s={symbolic} numeric_s={numeric} \
             fingerprint_s={fingerprint} unattributed_s={unattributed}",
            traced.len()
        ));
    }
}

/// Forced-algorithm plans over `collections`, cycled so that no timed
/// execution reuses the previous one's inputs (the first execution only
/// warms the workspaces): the headroom Auto can still gain, and the
/// paper's headline ratios. Outputs are checked against `references`.
pub fn forced_kernels(
    shape: (usize, usize),
    collections: &[Vec<&CscMatrix<f64>>],
    references: &[&CscMatrix<f64>],
    threads: usize,
    out: &mut Outcome,
) {
    let mut ns = [0.0; FORCED.len()];
    for (slot, &(alg, name)) in ns.iter_mut().zip(&FORCED) {
        let mut plan = build(shape, alg, threads, 0);
        let mut per_nnz = Vec::with_capacity(PROBE_REPS);
        for rep in 0..=PROBE_REPS {
            let i = rep % collections.len();
            let mats = &collections[i];
            let (res, wall) = call("bench.plan.execute", || plan.execute(mats));
            out.probes
                .record(name, res.map(|sum| sum == *references[i]));
            if rep > 0 {
                let nnz: usize = mats.iter().map(|a| a.nnz()).sum();
                per_nnz.push(wall / nnz as f64);
            }
        }
        *slot = stats::median(&per_nnz) * 1e9;
        out.set(name, *slot);
    }
    out.set("paper.2way-tree_over_hash", ns[5] / ns[0]);
    out.set("paper.heap_over_hash", ns[4] / ns[0]);
}

fn walls(samples: &[OpSample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall).collect()
}
