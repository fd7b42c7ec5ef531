//! Fig 4: runtime of the sliding-hash algorithm as a function of the hash
//! table size (the per-thread table budget in entries), split into
//! symbolic / computation / total — cases (a)–(d) on the host machine.
//!
//! The paper's cases (e) and (f) contrast a 32 MB-LLC Skylake with an
//! 8 MB-LLC EPYC. One host cannot be two machines, so the contrast is
//! reproduced with the trace-driven cache simulator: the same sweep is
//! replayed under a Skylake-like and an EPYC-like hierarchy and the
//! last-level misses per table size are printed (their minima move with
//! the cache size, which is the figure's point).
//!
//! Usage: `cargo run --release -p spk_bench --bin fig4 [--sizes 64,...]
//! [--threads T] [--reps N] [--skip-sim]`

use spk_bench::{fmt_secs, print_table, refs, time_best, workloads, Args};
use spk_cachesim::CacheHierarchy;
use spk_sparse::CscMatrix;
use spkadd::metered::trace_spkadd;
use spkadd::{Algorithm, Options};

struct Case {
    name: &'static str,
    mats: Vec<CscMatrix<f64>>,
    sizes: Vec<usize>,
}

fn main() {
    let args = Args::parse();
    let threads = args.get("threads", 0usize);
    let reps = args.get("reps", 1usize);

    let cases = vec![
        Case {
            name: "(a) ER d=16 k=32, cf≈1.0 (small tables, L1 regime)",
            mats: workloads::er_collection(1 << 16, 64, 16, 32, 42),
            sizes: args.get_list("sizes", &[64, 128, 256, 512, 1024, 4096, 16384]),
        },
        Case {
            name: "(b) ER d=512 k=64, cf≈1.1 (large tables, LLC regime)",
            mats: workloads::er_collection(1 << 18, 64, 512, 64, 43),
            sizes: args.get_list("sizes", &[256, 1024, 4096, 16384, 65536, 262144]),
        },
        Case {
            name: "(c) RMAT d=128 k=64 (skewed)",
            mats: workloads::rmat_collection(1 << 17, 128, 128, 64, 44),
            sizes: args.get_list("sizes", &[256, 1024, 4096, 16384, 65536]),
        },
        Case {
            name: "(d) Eukarya-like cf≈22.6 d=60 k=64 (symbolic-dominated)",
            mats: workloads::eukarya_like(1 << 16, 128, 60, 64, 45),
            sizes: args.get_list("sizes", &[64, 256, 1024, 4096, 16384]),
        },
    ];

    for case in &cases {
        let mrefs = refs(&case.mats);
        println!(
            "\nFig 4 {}: input nnz = {}",
            case.name,
            workloads::total_nnz(&case.mats)
        );
        let mut rows = vec![vec![
            "table entries".to_string(),
            "symbolic".to_string(),
            "computation".to_string(),
            "total".to_string(),
        ]];
        for &size in &case.sizes {
            let mut opts = Options::default();
            opts.threads = threads;
            opts.validate_sorted = false;
            opts.forced_table_entries = Some(size);
            // One plan per sweep point, reused across the reps: the table
            // budget is fixed at plan build, so only the first rep pays
            // the workspace setup.
            let (m, n) = (case.mats[0].nrows(), case.mats[0].ncols());
            let mut plan = spkadd::SpkAdd::new(m, n)
                .algorithm(Algorithm::SlidingHash)
                .options(opts)
                .build::<f64>()
                .expect("plan build failed");
            let (timings, _) = time_best(reps, || {
                let mut out = CscMatrix::zeros(0, 0);
                plan.execute_into_timed(&mrefs, &mut out)
                    .expect("sliding hash failed")
            });
            rows.push(vec![
                size.to_string(),
                fmt_secs(timings.symbolic),
                fmt_secs(timings.numeric),
                fmt_secs(timings.total()),
            ]);
        }
        print_table(&rows);
    }

    if args.flag("skip-sim") {
        return;
    }
    // Cases (e)/(f): machine contrast via the cache simulator, on a
    // workload whose tables genuinely exceed the smaller LLC. Simulated
    // LLCs are scaled 1:16 with the workloads (2 MB "Skylake" vs 1 MB
    // "EPYC", both above their fixed inner levels so the hierarchy stays
    // monotone).
    println!("\nFig 4 (e)/(f): simulated LL misses vs table size (machine contrast)");
    let sim_mats = workloads::er_collection(1 << 20, 16, 2048, 128, 46);
    let sim_sizes = args.get_list("sim-sizes", &[4096, 16384, 65536, 131072, 262144]);
    {
        let mrefs = refs(&sim_mats);
        println!(
            "\n  workload: ER d=2048 k=128 over 1M rows ({} input nnz)",
            workloads::total_nnz(&sim_mats)
        );
        let mut rows = vec![vec![
            "table entries".to_string(),
            "Skylake-like LL misses".to_string(),
            "EPYC-like LL misses".to_string(),
        ]];
        let mut best = (usize::MAX, u64::MAX, usize::MAX, u64::MAX);
        for &size in &sim_sizes {
            let mut sky = CacheHierarchy::skylake_like(2 << 20);
            trace_spkadd(&mrefs, Algorithm::SlidingHash, size, &mut sky).expect("trace failed");
            let mut epyc = CacheHierarchy::epyc_like(1 << 20);
            trace_spkadd(&mrefs, Algorithm::SlidingHash, size, &mut epyc).expect("trace failed");
            let (s, e) = (sky.ll_stats().misses(), epyc.ll_stats().misses());
            if s < best.1 {
                best.0 = size;
                best.1 = s;
            }
            if e < best.3 {
                best.2 = size;
                best.3 = e;
            }
            rows.push(vec![size.to_string(), s.to_string(), e.to_string()]);
        }
        print_table(&rows);
        println!(
            "  optimum: Skylake-like at {} entries, EPYC-like at {} entries \
             (smaller cache → smaller or equal optimal table, as in the paper)",
            best.0, best.2
        );
    }
}
