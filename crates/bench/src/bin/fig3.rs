//! Fig 3: strong scaling of the SpKAdd algorithms on three workloads:
//! (a) ER, (b) RMAT, (c) Eukarya-like SpGEMM intermediates (cf ≈ 22.6).
//!
//! Prints, per workload, time vs thread count and parallel efficiency for
//! each algorithm. The thread sweep defaults to 1..#cores of the host
//! (the paper sweeps 1..48 on Skylake).
//!
//! Usage: `cargo run --release -p spk_bench --bin fig3 [--rows R]
//! [--cols C] [--k K] [--threads-list 1,2,4] [--reps N]`

use spk_bench::{fmt_secs, print_table, refs, time_best, workloads, Args};
use spk_sparse::CscMatrix;
use spkadd::{Algorithm, Options};

const ALGS: [Algorithm; 6] = [
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::TwoWayTree,
    Algorithm::LibTree,
    Algorithm::Spa,
    Algorithm::Heap,
];

fn main() {
    let args = Args::parse();
    let cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2);
    let default_threads: Vec<usize> = {
        let mut t = vec![1usize];
        while *t.last().unwrap() * 2 <= cores {
            t.push(t.last().unwrap() * 2);
        }
        t
    };
    let threads_list = args.get_list("threads-list", &default_threads);
    let reps = args.get("reps", 1usize);
    let m = args.get("rows", 1 << 17);
    let k = args.get("k", 64usize);

    let workload_specs: Vec<(&str, Vec<CscMatrix<f64>>)> = vec![
        (
            "(a) ER d=128",
            workloads::er_collection(m, args.get("cols", 256), 128, k, 42),
        ),
        (
            "(b) RMAT d=64",
            workloads::rmat_collection(m, args.get("cols", 256), 64, k, 43),
        ),
        (
            "(c) Eukarya-like SpGEMM intermediates (cf≈22.6) d=60",
            workloads::eukarya_like(m / 2, args.get("cols", 256), 60, k, 44),
        ),
    ];

    for (name, mats) in &workload_specs {
        let mrefs = refs(mats);
        println!(
            "\nFig 3 {name}: rows={}, cols={}, k={}, input nnz={}",
            mats[0].nrows(),
            mats[0].ncols(),
            mats.len(),
            workloads::total_nnz(mats)
        );
        let mut header = vec!["Algorithm".to_string()];
        for &t in &threads_list {
            header.push(format!("T={t}"));
        }
        header.push("efficiency".to_string());
        let mut rows = vec![header];
        for alg in ALGS {
            let mut row = vec![alg.name().to_string()];
            let mut first = 0.0f64;
            let mut last = 0.0f64;
            for (i, &t) in threads_list.iter().enumerate() {
                let mut opts = Options::default();
                opts.threads = t;
                opts.validate_sorted = false;
                // One plan per (algorithm, T) cell: budgets resolve for
                // that thread count once, reps reuse the workspaces.
                let mut plan = spkadd::SpkAdd::new(mats[0].nrows(), mats[0].ncols())
                    .algorithm(alg)
                    .options(opts)
                    .build::<f64>()
                    .expect("plan build failed");
                let (_, secs) = time_best(reps, || plan.execute(&mrefs).expect("spkadd failed"));
                if i == 0 {
                    first = secs;
                }
                last = secs;
                row.push(fmt_secs(secs));
            }
            let tmax = *threads_list.last().unwrap() as f64;
            let eff = if last > 0.0 { first / last / tmax } else { 0.0 };
            row.push(format!("{:.0}%", eff * 100.0));
            rows.push(row);
        }
        print_table(&rows);
    }
    println!("\nefficiency = speedup(Tmax) / Tmax relative to T=1.");
}
