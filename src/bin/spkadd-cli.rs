//! `spkadd-cli` — add a collection of Matrix Market files from the shell.
//!
//! ```text
//! # add three matrices with the hash algorithm and write the sum:
//! spkadd-cli add --algorithm hash --out sum.mtx a.mtx b.mtx c.mtx
//!
//! # inspect a collection without adding it:
//! spkadd-cli stats a.mtx b.mtx c.mtx
//!
//! # generate a test collection (ER or RMAT splits) into a directory:
//! spkadd-cli gen --pattern rmat --rows 65536 --cols 64 --d 32 --k 8 --out-dir /tmp/mats
//!
//! # drive the sharded aggregation service with a synthetic stream:
//! spkadd-cli serve-demo --shards 4 --keys 2 --matrices 64
//!
//! # lint the workspace's repo invariants (what CI's spk-lint enforces):
//! spkadd-cli check
//! ```

use spkadd_suite::gen::{generate_collection, Pattern};
use spkadd_suite::kadd::{Algorithm, Options, SpkAdd};
use spkadd_suite::server::{AggregatorService, ServerError, ServiceConfig};
use spkadd_suite::sparse::{common_shape, io, CollectionStats, CscMatrix, DegreeStats};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    // Every subcommand rejects unknown and repeated flags before it reads
    // any; only `add` and `stats` take operands.
    let result = positional(rest).and_then(|operands| match cmd.as_str() {
        "add" => cmd_add(rest),
        "stats" => cmd_stats(rest),
        "gen" | "serve-demo" | "check" if !operands.is_empty() => Err(format!(
            "{cmd} takes no operands, got '{}'\n{USAGE}",
            operands[0]
        )),
        "gen" => cmd_gen(rest),
        "serve-demo" => cmd_serve_demo(rest),
        "check" => cmd_check(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
spkadd-cli — SpKAdd over Matrix Market files

USAGE:
  spkadd-cli add  [--algorithm NAME] [--out FILE] [--unsorted]
                  [--pattern-cache N] [--repeat N] [--trace-json FILE]
                  FILES...
  spkadd-cli stats FILES...
  spkadd-cli gen  [--pattern er|rmat] [--rows R] [--cols C] [--d D] [--k K]
                  [--seed S] --out-dir DIR
  spkadd-cli serve-demo [--shards S] [--keys K] [--matrices N] [--rows R]
                  [--cols C] [--d D] [--pattern er|rmat] [--producers P]
                  [--algorithm NAME] [--seed S] [--metrics-json FILE]
  spkadd-cli check [--root DIR]
                  run the spk-lint repo invariants (SAFETY comments,
                  sanctioned clock, no-unwrap in spk_server, shim parity,
                  bench schema) and report file:line diagnostics

Observability:
  --trace-json FILE    enable span tracing for the run, print the span
                       tree to stderr, write the spk_obs.trace.v1 JSON
  --metrics-json FILE  write the service metrics as a
                       spk_obs.run_report.v1 JSON report

Algorithms: hash (default), sliding-hash, spa, sliding-spa, heap,
            2way-tree, 2way-incremental, lib-tree, lib-incremental, auto
            ('auto' picks per collection — per flushed batch under
            serve-demo — with the paper's Fig 2 decision surface, then
            re-scores every column chunk)";

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

/// Every flag that takes a value, across the subcommands; `--unsorted` is
/// the one bare flag.
const VALUED_FLAGS: &str = "--algorithm --out --pattern-cache --repeat --trace-json --pattern \
    --rows --cols --d --k --seed --out-dir --shards --keys --matrices --producers --metrics-json \
    --root";

/// The operands: every argument that is neither a flag nor a flag's
/// value. Any other `--flag` is an error: guessing whether an unknown flag
/// takes a value would silently drop the operand after it. So is a flag
/// given twice: only its first value would ever be read.
fn positional(args: &[String]) -> Result<Vec<&String>, String> {
    let mut out = Vec::new();
    let mut seen: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            if seen.contains(&a) {
                return Err(format!("{a} given more than once\n{USAGE}"));
            }
            seen.push(a);
        }
        if VALUED_FLAGS.split_whitespace().any(|f| f == a) {
            it.next().ok_or(format!("{a} needs a value\n{USAGE}"))?;
        } else if !a.starts_with("--") {
            out.push(a);
        } else if a != "--unsorted" {
            return Err(format!("unknown flag '{a}'\n{USAGE}"));
        }
    }
    Ok(out)
}

fn load_all(paths: &[&String]) -> Result<Vec<CscMatrix<f64>>, String> {
    if paths.is_empty() {
        return Err("no input files given".into());
    }
    paths
        .iter()
        .map(|p| {
            io::read_matrix_market(p)
                .map(|coo| coo.to_csc_sum_duplicates())
                .map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Renders one execution's phase split without ambiguity: a skipped
/// symbolic phase says so instead of printing a misleading `0.000 ms`.
fn phase_summary(stats: &spkadd_suite::ExecuteStats) -> String {
    use spkadd_suite::PatternOutcome;
    let numeric = format!("numeric {:.3} ms", stats.numeric * 1e3);
    match stats.pattern {
        PatternOutcome::Hit => format!(
            "symbolic skipped — pattern cache hit, fingerprint {:.3} ms, {numeric}",
            stats.fingerprint * 1e3
        ),
        PatternOutcome::Miss => format!(
            "symbolic {:.3} ms, fingerprint {:.3} ms, {numeric}",
            stats.symbolic * 1e3,
            stats.fingerprint * 1e3
        ),
        PatternOutcome::Disabled | PatternOutcome::Bypassed => {
            format!("symbolic {:.3} ms, {numeric}", stats.symbolic * 1e3)
        }
    }
}

fn cmd_add(args: &[String]) -> Result<(), String> {
    let alg: Algorithm = flag_value(args, "--algorithm")
        .unwrap_or("hash")
        .parse()
        .map_err(|e: spkadd_suite::kadd::SpkaddError| e.to_string())?;
    let out = flag_value(args, "--out");
    let unsorted = args.iter().any(|a| a == "--unsorted");
    let cache_cap: usize = parsed_flag(args, "--pattern-cache", 0)?;
    let repeat: usize = parsed_flag(args, "--repeat", 1)?.max(1);
    let trace_json = flag_value(args, "--trace-json");
    if trace_json.is_some() {
        spkadd_suite::obs::set_tracing(true);
    }
    let mats = load_all(&positional(args)?)?;
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (nrows, ncols) = common_shape(&refs).map_err(|e| e.to_string())?;

    let mut plan = SpkAdd::new(nrows, ncols)
        .algorithm(alg)
        .options(Options {
            sorted_output: !unsorted,
            ..Options::default()
        })
        .pattern_cache(cache_cap)
        .build()
        .map_err(|e| e.to_string())?;
    let t0 = spk_obs::now();
    let mut sum = CscMatrix::zeros(nrows, ncols);
    let mut stats = spkadd_suite::ExecuteStats::default();
    for pass in 0..repeat {
        let t = spk_obs::now();
        stats = plan
            .execute_into_timed(&refs, &mut sum)
            .map_err(|e| e.to_string())?;
        if repeat > 1 {
            eprintln!(
                "pass {pass}: {:.3} ms ({})",
                t.elapsed().as_secs_f64() * 1e3,
                phase_summary(&stats)
            );
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let total: usize = mats.iter().map(|m| m.nnz()).sum();
    eprintln!(
        "added k={} matrices ({}x{}, {} input nnz) in {:.3} ms ({}) → {} output nnz (cf {:.2})",
        mats.len(),
        sum.nrows(),
        sum.ncols(),
        total,
        secs * 1e3,
        phase_summary(&stats),
        sum.nnz(),
        total as f64 / sum.nnz().max(1) as f64
    );
    if alg == Algorithm::Auto {
        eprintln!("kernels: {}", stats.kernel_counts);
    }
    if let Some(path) = trace_json {
        let spans = spkadd_suite::obs::take_spans();
        let dropped = spkadd_suite::obs::dropped_spans();
        let doc = spkadd_suite::obs::trace_json(&spans, dropped);
        std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
        eprint!("{}", spkadd_suite::obs::render_span_tree(&spans));
        eprintln!("trace: {} spans ({dropped} dropped) → {path}", spans.len());
    }
    match out {
        Some(path) => io::write_matrix_market(path, &sum).map_err(|e| e.to_string())?,
        None => {
            io::write_matrix_market_to(std::io::stdout().lock(), &sum).map_err(|e| e.to_string())?
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let mats = load_all(&positional(args)?)?;
    for (i, m) in mats.iter().enumerate() {
        let d = DegreeStats::of(m);
        println!(
            "matrix {i}: {}x{}, nnz {}, col degree min/mean/max = {}/{:.1}/{}, \
             gini {:.3}, empty cols {:.1}%",
            m.nrows(),
            m.ncols(),
            d.nnz,
            d.min,
            d.mean,
            d.max,
            d.gini,
            d.empty_fraction * 100.0
        );
    }
    if mats.len() > 1 {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let c = CollectionStats::of(&refs);
        println!(
            "collection: k={}, total nnz {}, output nnz {}, cf {:.2}, \
             max input entries in one column {}",
            c.k, c.total_nnz, c.output_nnz, c.cf, c.max_input_per_col
        );
    }
    Ok(())
}

/// Runs the repo-invariant lint (the same engine as the `spk-lint` CI
/// binary) and prints one `file:line: [rule]` diagnostic per finding,
/// so a violation is clickable in an editor and names the invariant it
/// broke.
fn cmd_check(args: &[String]) -> Result<(), String> {
    let root = flag_value(args, "--root").unwrap_or(".");
    let root_path = std::path::Path::new(root);
    if !root_path.join("Cargo.toml").is_file() {
        return Err(format!(
            "'{root}' does not look like a workspace root (no Cargo.toml); \
             pass --root DIR"
        ));
    }
    let report = spk_check::lint::run(root_path).map_err(|e| format!("{root}: {e}"))?;
    if report.clean() {
        println!(
            "check: clean — {} files scanned, invariants: {}",
            report.files_scanned,
            spk_check::lint::RULES.join(", ")
        );
        return Ok(());
    }
    for v in &report.violations {
        println!("{v}");
    }
    Err(format!(
        "{} invariant violation(s) across {} scanned files — each line \
         above is file:line: [invariant] detail",
        report.violations.len(),
        report.files_scanned
    ))
}

/// Parses `--name` as a `T`, defaulting when absent but *rejecting*
/// unparseable values — a typo'd number must not silently fall back to
/// the default and measure a different workload than requested.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for {name}")),
    }
}

fn cmd_serve_demo(args: &[String]) -> Result<(), String> {
    let shards: usize = parsed_flag(args, "--shards", 0)?;
    let keys: usize = parsed_flag(args, "--keys", 2)?.max(1);
    let matrices: usize = parsed_flag(args, "--matrices", 32)?.max(1);
    let rows: usize = parsed_flag(args, "--rows", 16384)?;
    let cols: usize = parsed_flag(args, "--cols", 64)?;
    let d: usize = parsed_flag(args, "--d", 8)?;
    let producers: usize = parsed_flag(args, "--producers", 4)?.max(1);
    let seed: u64 = parsed_flag(args, "--seed", 42)?;
    let pattern = match flag_value(args, "--pattern").unwrap_or("er") {
        "er" => Pattern::Er,
        "rmat" => Pattern::Rmat,
        other => return Err(format!("unknown pattern '{other}'")),
    };
    // Any algorithm works here, `auto` included: the shards' retained
    // plans resolve it per flushed batch.
    let algorithm: Algorithm = flag_value(args, "--algorithm")
        .unwrap_or("hash")
        .parse()
        .map_err(|e: spkadd_suite::kadd::SpkaddError| e.to_string())?;

    eprintln!(
        "generating a stream of {matrices} {rows}x{cols} matrices (~{d} nnz/col, {:?})...",
        pattern
    );
    let mats = generate_collection(pattern, rows, cols, d, matrices, seed);

    let svc: AggregatorService<f64> = AggregatorService::new(
        rows,
        cols,
        ServiceConfig::with_shards(shards).with_algorithm(algorithm),
    );
    let nshards = svc.plan().nshards();
    eprintln!(
        "service up: {nshards} shards, {producers} producers, {keys} keys, algorithm {algorithm}"
    );

    let t0 = spk_obs::now();
    std::thread::scope(|scope| {
        for (p, chunk) in mats.chunks(matrices.div_ceil(producers)).enumerate() {
            let svc = &svc;
            scope.spawn(move || {
                for (i, m) in chunk.iter().enumerate() {
                    // Round-robin the stream over the aggregation keys.
                    let key = format!("job-{}", (p + i) % keys);
                    svc.submit(&key, m).expect("submit failed");
                }
            });
        }
    });
    let submit_secs = t0.elapsed().as_secs_f64();

    let mut output_nnz = 0usize;
    for k in 0..keys {
        let key = format!("job-{k}");
        match svc.finalize(&key) {
            Ok(sum) => {
                output_nnz += sum.nnz();
                println!("{key}: {} nnz aggregated", sum.nnz());
            }
            // Expected when the stream has fewer matrices than keys.
            Err(ServerError::UnknownKey(_)) => {
                println!("{key}: no submissions were routed to this key")
            }
            Err(e) => return Err(format!("{key}: {e}")),
        }
    }
    let total_secs = t0.elapsed().as_secs_f64();

    let m = svc.metrics();
    println!(
        "submitted {} matrices in {:.1} ms ({:.0} matrices/s); finalize total {:.1} ms",
        m.submitted,
        submit_secs * 1e3,
        m.submitted as f64 / submit_secs.max(1e-9),
        total_secs * 1e3
    );
    println!(
        "routed {} slices, flushed {} batches, {} output nnz across {keys} keys",
        m.slices_routed(),
        m.batches_flushed(),
        output_nnz
    );
    let kernels = m.kernel_counts();
    if !kernels.is_empty() {
        println!("kernels: {kernels}");
    }
    for s in &m.shards {
        println!(
            "  shard rows {:>7}..{:<7} | {:>5} slices | {:>4} flushes",
            s.rows.start, s.rows.end, s.slices, s.batches_flushed
        );
    }
    if let Some(path) = flag_value(args, "--metrics-json") {
        let report = m.to_report();
        report
            .write_json_file(path)
            .map_err(|e| format!("{path}: {e}"))?;
        eprint!("{}", report.human_table());
        eprintln!("metrics report → {path}");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let pattern = match flag_value(args, "--pattern").unwrap_or("er") {
        "er" => Pattern::Er,
        "rmat" => Pattern::Rmat,
        other => return Err(format!("unknown pattern '{other}'")),
    };
    let rows: usize = parsed_flag(args, "--rows", 65536)?;
    let cols: usize = parsed_flag(args, "--cols", 64)?;
    let d: usize = parsed_flag(args, "--d", 16)?;
    let k: usize = parsed_flag(args, "--k", 4)?;
    let seed: u64 = parsed_flag(args, "--seed", 42)?;
    let dir = flag_value(args, "--out-dir").ok_or("missing --out-dir")?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mats = generate_collection(pattern, rows, cols, d, k, seed);
    for (i, m) in mats.iter().enumerate() {
        let path = format!("{dir}/mat_{i:03}.mtx");
        io::write_matrix_market(&path, m).map_err(|e| e.to_string())?;
        eprintln!("wrote {path} ({} nnz)", m.nnz());
    }
    Ok(())
}
