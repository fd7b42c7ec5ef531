//! Adaptive per-partition kernel selection vs every forced global
//! kernel, on a uniform, a skewed and a compressed collection.
//!
//! Three workloads:
//! * `uniform` — an ER collection with one flat density everywhere; the
//!   per-chunk scorer should agree with the collection-level choice on
//!   every chunk, so adaptive dispatch measures its own overhead here;
//! * `skewed` — a block of near-dense columns contributed by most of
//!   the matrices followed by a wide hypersparse tail contributed by a
//!   few; chunks differ in both density and effective k, so no single
//!   kernel fits both regions and the adaptive driver should mix (SPA
//!   family on the dense block, heap on the low-`k_eff` tail) and beat
//!   whichever global kernel the forced runs crown;
//! * `compressed` — SpGEMM intermediates (`protein_collection` at
//!   `spgemm_reduce`'s shape: 2¹⁷ rows, k = 64, cf ≈ 19): sparse output
//!   columns, but every output entry absorbs many inputs, so the
//!   scorer's compressed corner should send the chunks to the SPA and
//!   beat the collection-level hash choice.
//!
//! Modes per workload: `adaptive` (Auto, per-chunk scoring), `pinned`
//! (the algorithm `choose_algorithm` picks for the whole collection,
//! forced — Fig 2's collection-level choice), and the five forced k-way
//! kernels. The summary reports adaptive vs the best
//! forced/pinned time and the kernel histogram the adaptive run
//! produced; on the skewed workload the histogram must name ≥ 2
//! kernels, on the compressed one it must name the SPA. `--rows` sizes
//! the uniform and skewed workloads only. Emits a human table plus a
//! machine-readable `spk_obs.run_report.v1` JSON report to `--out`
//! (default `BENCH_adaptive.json` in the working directory, which for
//! `cargo bench` is `crates/bench`; the checked-in baseline at the repo
//! root was recorded with `--threads 2 --reps 10 --out
//! ../../BENCH_adaptive.json`).
//!
//! Usage: `cargo bench -p spk_bench --bench adaptive_selection --
//! [--rows R] [--reps N] [--threads T] [--out FILE]`

use spk_bench::{print_table, refs, Args};
use spk_gen::{generate_collection, protein_collection, Pattern, ProteinConfig};
use spk_obs::{Json, RunReport};
use spk_sparse::CscMatrix;
use spkadd::{
    choose_algorithm, numeric_entry_bytes, Algorithm, CacheConfig, KernelCounts, NumericKernel,
    SpkAdd,
};

struct Row {
    workload: &'static str,
    mode: String,
    secs: f64,
    kernels: String,
    distinct: usize,
    throughput: f64,
}

/// A skewed collection whose column regions differ in *both* density
/// and effective k: `dense_k` matrices populate only the first
/// `dense_cols` columns (near-dense), and `tail_k` different matrices
/// populate only the remaining `tail_cols` (hypersparse, nearly
/// disjoint). Chunks over the dense block see `k_eff = dense_k` and a
/// dense output (SPA territory); chunks over the tail see
/// `k_eff = tail_k` narrow disjoint merges (heap territory). No global
/// kernel fits both regions.
#[allow(clippy::too_many_arguments)]
fn skewed_collection(
    rows: usize,
    dense_cols: usize,
    d_dense: usize,
    dense_k: usize,
    tail_cols: usize,
    d_tail: usize,
    tail_k: usize,
    seed: u64,
) -> Vec<CscMatrix<f64>> {
    let ncols = dense_cols + tail_cols;
    let mut dense = generate_collection(Pattern::Er, rows, dense_cols, d_dense, dense_k, seed);
    let mut tail = generate_collection(Pattern::Er, rows, tail_cols, d_tail, tail_k, seed ^ 0x7A11);
    for m in dense.iter_mut().chain(tail.iter_mut()) {
        m.sort_columns();
    }
    let mut out = Vec::with_capacity(dense_k + tail_k);
    for d in dense {
        // Dense block in place, empty tail columns.
        let (_, _, mut colptr, rowsv, vals) = d.into_parts();
        colptr.resize(ncols + 1, *colptr.last().unwrap());
        out.push(CscMatrix::try_new(rows, ncols, colptr, rowsv, vals).unwrap());
    }
    for t in tail {
        // Empty dense columns, tail shifted into place.
        let (_, _, tail_ptr, rowsv, vals) = t.into_parts();
        let mut colptr = vec![0usize; dense_cols];
        colptr.extend_from_slice(&tail_ptr);
        out.push(CscMatrix::try_new(rows, ncols, colptr, rowsv, vals).unwrap());
    }
    out
}

fn main() {
    let args = Args::parse();
    let m = args.get("rows", 1 << 23);
    let reps = args.get("reps", 5usize).max(1);
    let threads = args.get("threads", 1usize);
    let k = args.get("k", 8usize);
    let out_path = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_adaptive.json".to_string());
    // Pin the machine model so the decision surface (and therefore the
    // histogram in the checked-in baseline) is host-independent. Sized
    // for a large-LLC server part: at 8M rows a one-thread f64 SPA
    // panel (96 MB) still fits, so dense chunks score as plain SPA.
    let cache = CacheConfig {
        llc_bytes: 256 << 20,
        l1_bytes: 32 << 10,
    };

    let uniform = {
        let mut mats = generate_collection(Pattern::Er, m, 512, 8, k, 42);
        for mat in &mut mats {
            mat.sort_columns();
        }
        mats
    };
    // 12 matrices own two near-dense columns, 4 others own a wide
    // hypersparse tail: dense chunks score as k_eff=12 SPA panels, tail
    // chunks as k_eff=4 near-disjoint heap merges.
    let skewed = skewed_collection(m, 2, m / 16, 12, 32766, 8, 4, 42);
    let compressed_cfg = ProteinConfig {
        nrows: 1 << 17,
        ncols: 1024,
        d: 64,
        k: 64,
        cf: 22.6,
        skew: 0.6,
    };
    let compressed = protein_collection(&compressed_cfg, 42);

    let mut rows_out: Vec<Row> = Vec::new();
    let mut summary: Vec<(String, Json)> = Vec::new();

    for (workload, mats) in [
        ("uniform", &uniform),
        ("skewed", &skewed),
        ("compressed", &compressed),
    ] {
        let mrefs = refs(mats);
        let (nrows, ncols) = mrefs[0].shape();
        let total_nnz: usize = mats.iter().map(|a| a.nnz()).sum();
        println!(
            "{workload}: rows={nrows}, cols={ncols}, k={}, total input nnz {total_nnz}, \
             threads={threads}, reps={reps}",
            mrefs.len()
        );

        // The collection-level pick `Auto` resolves before it scores
        // chunks, with the plan's resolved worker count.
        let workers = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        let pinned = choose_algorithm(
            mrefs.len(),
            total_nnz / ncols.max(1),
            numeric_entry_bytes::<f64>(),
            workers,
            &cache,
        );
        // (mode label, algorithm)
        let modes: Vec<(String, Algorithm)> = [
            ("adaptive".to_string(), Algorithm::Auto),
            ("pinned".to_string(), pinned),
        ]
        .into_iter()
        .chain(
            [
                Algorithm::Hash,
                Algorithm::SlidingHash,
                Algorithm::Spa,
                Algorithm::SlidingSpa,
                Algorithm::Heap,
            ]
            .into_iter()
            .map(|alg| (format!("forced-{alg}"), alg)),
        )
        .collect();

        let mut adaptive_secs = f64::INFINITY;
        let mut adaptive_counts = KernelCounts::default();
        let mut best_global = ("-".to_string(), f64::INFINITY);
        for (mode, alg) in modes {
            let mut plan = SpkAdd::new(nrows, ncols)
                .algorithm(alg)
                .threads(threads)
                .cache(cache)
                .build::<f64>()
                .expect("plan build failed");
            let mut sum = CscMatrix::zeros(nrows, ncols);
            // Prime: builds the retained workspaces outside the timing.
            let mut stats = plan
                .execute_into_timed(&mrefs, &mut sum)
                .expect("prime failed");
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t = std::time::Instant::now();
                stats = plan
                    .execute_into_timed(&mrefs, &mut sum)
                    .expect("execute failed");
                best = best.min(t.elapsed().as_secs_f64());
            }
            if mode == "adaptive" {
                adaptive_secs = best;
                adaptive_counts = stats.kernel_counts;
            } else if best < best_global.1 {
                best_global = (mode.clone(), best);
            }
            rows_out.push(Row {
                workload,
                mode,
                secs: best,
                kernels: format!("{}", stats.kernel_counts),
                distinct: stats.kernel_counts.distinct(),
                throughput: total_nnz as f64 / best,
            });
        }

        if workload == "skewed" {
            assert!(
                adaptive_counts.distinct() >= 2,
                "the skewed workload must mix kernels, got {adaptive_counts}"
            );
        }
        if workload == "compressed" {
            assert!(
                adaptive_counts.get(NumericKernel::Spa) > 0,
                "the compressed workload must reach the SPA, got {adaptive_counts}"
            );
        }
        let ratio = adaptive_secs / best_global.1;
        println!(
            "{workload}: adaptive {:.3} ms ({adaptive_counts}) vs best global \
             '{}' {:.3} ms → {ratio:.2}x",
            adaptive_secs * 1e3,
            best_global.0,
            best_global.1 * 1e3
        );
        summary.push((
            format!("{workload}_adaptive_secs"),
            Json::from(adaptive_secs),
        ));
        summary.push((
            format!("{workload}_best_global_mode"),
            Json::from(best_global.0.as_str()),
        ));
        summary.push((
            format!("{workload}_best_global_secs"),
            Json::from(best_global.1),
        ));
        summary.push((
            format!("{workload}_adaptive_over_best_global"),
            Json::from(ratio),
        ));
        summary.push((
            format!("{workload}_adaptive_kernels"),
            Json::from(format!("{adaptive_counts}")),
        ));
        summary.push((
            format!("{workload}_adaptive_distinct_kernels"),
            Json::from(adaptive_counts.distinct()),
        ));
    }

    let mut table = vec![vec![
        "workload".to_string(),
        "mode".to_string(),
        "time (ms)".to_string(),
        "kernels".to_string(),
        "throughput (nnz/s)".to_string(),
    ]];
    for r in &rows_out {
        table.push(vec![
            r.workload.to_string(),
            r.mode.clone(),
            format!("{:.3}", r.secs * 1e3),
            r.kernels.clone(),
            format!("{:.2e}", r.throughput),
        ]);
    }
    print_table(&table);

    let mut report = RunReport::new("adaptive_selection");
    report
        .threads(threads)
        .config("rows", m)
        .config("k", k)
        .config("threads", threads)
        .config("reps", reps)
        .config("llc_bytes", cache.llc_bytes)
        .config("compressed_rows", compressed_cfg.nrows)
        .config("compressed_k", compressed_cfg.k);
    for r in &rows_out {
        report.result(
            spk_obs::Row::new()
                .with("workload", r.workload)
                .with("mode", r.mode.as_str())
                .with("secs", r.secs)
                .with("kernels", r.kernels.as_str())
                .with("distinct_kernels", r.distinct)
                .with("throughput", r.throughput)
                .with("unit", "input_nnz_per_s"),
        );
    }
    for (key, value) in summary {
        report.summary(&key, value);
    }
    report
        .write_json_file(&out_path)
        .expect("writing benchmark JSON failed");
    eprintln!("wrote {out_path}");
}
