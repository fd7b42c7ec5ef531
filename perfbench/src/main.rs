//! # perfbench — the SpKAdd workspace's end-to-end benchmark
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it generates the inputs from `--seed`
//! (the program only ever sees generated matrices), sets the program up,
//! then measures ops for `--seconds` (and at least [`MIN_OPS`] ops) from
//! a single load-generating thread. Every op's output is compared with
//! `==` against a reference computed once in set-up by a different code
//! path; an `Err` or a mismatch is counted, never fatal. Human-readable
//! lines (input provenance, environment, every metric with its unit) come
//! first; the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]) with
//! tracing off. `--trace 1` is the separate traced run: it measures
//! untraced ops first (the overhead baseline), then turns
//! `spk_obs::set_tracing(true)` on for a bounded number of ops, each
//! public call wrapped in a `bench.<module>.<call>` span, and reports the
//! per-layer metrics ([`PER_LAYER`]). Per-layer times are seconds per op.
//! A count or ratio that does not apply to a workload reads 0; times
//! that only some workloads have ([`WORKLOAD_LAYER`]) are printed and
//! reported but kept out of the result line. The traced run
//! writes its spans as a `spk_obs.trace.v1` document, and every run
//! writes an `spk_obs.run_report.v1` report, under `.bench_out/`.
//!
//! Workloads (sizes in each module):
//!
//! | name | one op | module |
//! |---|---|---|
//! | `spgemm_reduce` | `SpkAddPlan::execute_into_timed` on SpGEMM intermediates | [`plan_wl`] |
//! | `fixed_pattern` | `execute_into_timed` with a pattern cache on freshly allocated inputs | [`plan_wl`] |
//! | `service_stream` | `AggregatorService::submit` (passes end in `finalize`) | [`service_wl`] |
//! | `summa_fig6` | `spk_summa::run_summa` | [`summa_wl`] |
//!
//! Decisions do not follow the host: every plan and the service pin
//! `CacheConfig::skylake()`, and the program runs [`THREADS`] workers.

mod check;
mod plan_wl;
mod service_wl;
mod stats;
mod summa_wl;
mod trace;

use check::Tally;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use trace::TraceLog;

/// Worker threads the program runs with, on any host.
pub const THREADS: usize = 2;

/// Ops every run measures at least, so the p90 has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Where reports and traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("nnz_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order: the ones
/// every workload measures (a time here is never identically zero).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("op.traced_mean_s", "s"),
    ("plan.validate_s", "s"),
    ("plan.unattributed_s", "s"),
    ("pattern.fingerprint_bench_s", "s"),
    ("pattern.hit_rate", "ratio"),
    ("symbolic.skipped_frac", "ratio"),
    ("numeric.s", "s"),
    ("numeric.ns_per_nnz", "ns"),
    ("numeric.computed_bytes_per_nnz", "B"),
    ("kernel.chunks.hash", "count"),
    ("kernel.chunks.sliding-hash", "count"),
    ("kernel.chunks.spa", "count"),
    ("kernel.chunks.sliding-spa", "count"),
    ("kernel.chunks.heap", "count"),
    ("kernel.hash.forced_ns_per_nnz", "ns"),
    ("kernel.sliding-hash.forced_ns_per_nnz", "ns"),
    ("kernel.spa.forced_ns_per_nnz", "ns"),
    ("kernel.sliding-spa.forced_ns_per_nnz", "ns"),
    ("kernel.heap.forced_ns_per_nnz", "ns"),
    ("kernel.2way-tree.forced_ns_per_nnz", "ns"),
    ("paper.2way-tree_over_hash", "ratio"),
    ("paper.heap_over_hash", "ratio"),
    ("parallel.efficiency_pct", "%"),
    ("server.batches_flushed", "count"),
    ("summa.spkadd_share", "ratio"),
    ("summa.bytes_broadcast", "B"),
    ("summa.flops_per_s", "1/s"),
    ("gen.s", "s"),
    ("obs.overhead_frac", "ratio"),
    ("obs.dropped_spans", "count"),
];

/// Per-layer times only some workloads have (zero on the others, so
/// they stay out of the result line): printed with the traced run of the
/// workloads that measure them, and kept in its report.
pub const WORKLOAD_LAYER: [(&str, &str); 11] = [
    ("symbolic.s", "s"),
    ("pattern.fingerprint_s", "s"),
    ("server.row_split_s", "s"),
    ("server.enqueue_wait_s", "s"),
    ("server.submit_to_flush_p50_s", "s"),
    ("server.submit_to_flush_p99_s", "s"),
    ("server.finalize_p50_s", "s"),
    ("spgemm.multiply_s", "s"),
    ("spgemm.multiply_max_s", "s"),
    ("summa.spkadd_s", "s"),
    ("summa.spkadd_max_s", "s"),
];

/// The kernel-histogram metric names, in `NumericKernel::ALL` order.
pub const CHUNK_METRICS: [&str; spkadd::NumericKernel::COUNT] = [
    "kernel.chunks.hash",
    "kernel.chunks.sliding-hash",
    "kernel.chunks.spa",
    "kernel.chunks.sliding-spa",
    "kernel.chunks.heap",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured ops: attempted and failed (`Err` or wrong output).
    pub ops: Tally,
    /// Everything else that was checked: priming ops, forced-kernel
    /// probes, the trace document. A failure here makes `correct` false.
    pub probes: Tally,
    pub values: BTreeMap<&'static str, f64>,
    /// Provenance lines printed with the result.
    pub notes: Vec<String>,
    pub trace: Option<TraceLog>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Stops the measurement loop once both the time budget and the op
/// minimum are met, or at a two-minute ceiling that bounds a run however
/// slow its ops are.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: std::time::Instant,
    seconds: f64,
    min_ops: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Budget {
            start: spk_obs::now(),
            seconds,
            min_ops,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed < 120.0 && (done < self.min_ops || elapsed < self.seconds)
    }
}

/// Runs `setup` `reps` times and returns the last result with every
/// rep's set-up seconds, each measured by the rep itself (so input
/// preparation stays outside the timed part). The previous set-up is
/// torn down before the next starts, so the peak memory never counts
/// two. Workloads set up again after measuring, so the reported median
/// spans the whole run rather than one moment of it.
pub fn setup_reps<T>(
    reps: usize,
    probes: &mut Tally,
    mut setup: impl FnMut(&mut Tally) -> (T, f64),
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (built, s) = setup(probes);
        last = Some(built);
        secs.push(s);
    }
    (last.expect("at least one set-up ran"), secs)
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, ops: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn write_report(args: &Args, out: &Outcome, metrics: &[(&str, f64, &str)]) -> Result<(), String> {
    let mut report = spk_obs::RunReport::new(&format!("perfbench.{}", args.workload));
    report
        .threads(THREADS)
        .config("workload", args.workload.as_str())
        .config("seed", args.seed)
        .config("seconds", args.seconds)
        .config("trace", u64::from(args.trace));
    for line in &out.notes {
        report.note(line);
    }
    for (name, value, unit) in metrics {
        report.result(
            spk_obs::Row::new()
                .with("metric", *name)
                .with("value", *value)
                .with("unit", *unit),
        );
    }
    report
        .summary("attempted", out.ops.attempted)
        .summary("failed", out.ops.failed)
        .summary("fail_frac", out.ops.fail_frac());
    let path = Path::new(OUT_DIR).join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    report
        .write_json_file(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let mut out = match args.workload.as_str() {
        "spgemm_reduce" => plan_wl::spgemm_reduce(args),
        "fixed_pattern" => plan_wl::fixed_pattern(args),
        "service_stream" => service_wl::run(args),
        "summa_fig6" => summa_wl::run(args),
        other => return Err(format!("unknown workload {other}")),
    };
    let peak = peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    out.set("peak_rss_mb", peak);
    out.set("obs.dropped_spans", spk_obs::dropped_spans() as f64);

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    if let Some(log) = out.trace.take() {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let verdict = log.write(&path).map(|()| true);
        out.probes.record("trace document", verdict);
        out.note(format!("trace written to {}", path.display()));
    }

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        // Per-layer metrics that do not apply to this workload read 0.
        let value = match out.values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        metrics.push((name, value, unit));
    }
    // Printed and reported, but not part of the result line.
    let extra: Vec<(&str, f64, &str)> = WORKLOAD_LAYER
        .iter()
        .filter(|_| args.trace)
        .filter_map(|&(name, unit)| out.values.get(name).map(|&v| (name, v, unit)))
        .collect();

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# env nproc={nproc} threads={THREADS} cache_model=skylake");
    for line in &out.notes {
        println!("# {line}");
    }
    for (name, value, unit) in metrics.iter().chain(&extra) {
        println!("{name} = {value} {unit}");
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        out.ops.fail_frac(),
        out.ops.failed,
        out.ops.attempted
    );
    let reported: Vec<(&str, f64, &str)> = metrics.iter().chain(&extra).copied().collect();
    write_report(args, &out, &reported)?;
    let correct = out.ops.failed == 0 && out.probes.failed == 0 && out.ops.attempted > 0;
    println!("{}", result_json(correct, &out.ops, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <spgemm_reduce|fixed_pattern|service_stream|summa_fig6> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_the_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "summa_fig6",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(a.workload, "summa_fig6");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(Args::parse(&strings(&["--seed", "1"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "x", "--seconds"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "x", "--bogus", "1"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut ops = Tally::default();
        ops.record::<String>("op", Ok(true));
        let line = result_json(
            true,
            &ops,
            &[("op_p50_s", 0.0125, "s"), ("nnz_per_s", 2.5e8, "1/s")],
        );
        let doc = spk_obs::Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("op_p50_s"))
            .expect("metric");
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(0.0125));
        assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = spk_obs::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for (i, name) in CHUNK_METRICS.iter().enumerate() {
            let token = spkadd::NumericKernel::ALL[i].token();
            assert_eq!(*name, format!("kernel.chunks.{token}"));
        }
    }

    #[test]
    fn budget_requires_the_op_minimum() {
        let b = Budget::new(0.0, 3);
        assert!(b.more(2));
        assert!(!b.more(3));
        let mut n = 0.0;
        let mut probes = Tally::default();
        let (v, secs) = setup_reps(3, &mut probes, |p| {
            p.record::<String>("set-up", Ok(true));
            n += 1.0;
            (5, n)
        });
        assert_eq!((v, secs), (5, vec![1.0, 2.0, 3.0]));
        assert_eq!(probes.attempted, 3);
    }
}
