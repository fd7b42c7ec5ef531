//! Fig 2: the best-performing algorithm as a function of the number of
//! matrices (k) and their per-column density (d), for ER and RMAT inputs.
//!
//! Prints one winner grid per pattern (the paper's colored heatmaps).
//! Legend: H = Hash, SH = Sliding Hash, 2T = 2-way Tree,
//! 2I = 2-way Incremental, HP = Heap, SP = SPA.
//!
//! Usage: `cargo run --release -p spk_bench --bin fig2 [--rows R]
//! [--cols C] [--k 4,8,...] [--d 16,...] [--threads T] [--guard OPS]`

use spk_bench::{print_table, refs, time_best, workloads, Args};
use spkadd::{Algorithm, Options};

const CONTENDERS: [(Algorithm, &str); 6] = [
    (Algorithm::Hash, "H"),
    (Algorithm::SlidingHash, "SH"),
    (Algorithm::TwoWayTree, "2T"),
    (Algorithm::TwoWayIncremental, "2I"),
    (Algorithm::Heap, "HP"),
    (Algorithm::Spa, "SP"),
];

fn main() {
    let args = Args::parse();
    let m = args.get("rows", 1 << 16);
    let n = args.get("cols", 32usize);
    let ks = args.get_list("k", &[4, 8, 16, 32, 64, 128]);
    let ds = args.get_list("d", &[16, 64, 256, 1024]);
    let threads = args.get("threads", 0usize);
    let guard: f64 = args.get("guard", 1.0e9);
    let reps = args.get("reps", 3usize);

    let mut opts = Options::default();
    opts.threads = threads;
    opts.validate_sorted = false;

    type Gen = fn(usize, usize, usize, usize, u64) -> Vec<spk_sparse::CscMatrix<f64>>;
    for (pattern, gen) in [
        ("ER", workloads::er_collection as Gen),
        ("RMAT", workloads::rmat_collection as Gen),
    ] {
        println!("\nFig 2 ({pattern}): winner per (d, k); rows={m}, cols={n}");
        let mut header = vec!["d \\ k".to_string()];
        header.extend(ks.iter().map(|k| k.to_string()));
        let mut rows_out = vec![header];
        for &d in &ds {
            let mut row = vec![d.to_string()];
            for &k in &ks {
                let mats = gen(m, n, d, k, 42);
                let mrefs = refs(&mats);
                let inz = workloads::total_nnz(&mats) as f64;
                let mut best = ("?", f64::INFINITY);
                for (alg, tag) in CONTENDERS {
                    let est = spk_bench::tables::estimated_work(alg, inz, k);
                    if est > guard {
                        continue;
                    }
                    // One plan per contender cell, reused across reps.
                    let mut plan = spkadd::SpkAdd::new(m, n)
                        .algorithm(alg)
                        .options(opts.clone())
                        .build::<f64>()
                        .expect("plan build failed");
                    let (_, secs) =
                        time_best(reps, || plan.execute(&mrefs).expect("spkadd failed"));
                    if secs < best.1 {
                        best = (tag, secs);
                    }
                }
                row.push(best.0.to_string());
            }
            rows_out.push(row);
        }
        print_table(&rows_out);
    }
    println!("\nLegend: H=Hash SH=SlidingHash 2T=2-wayTree 2I=2-wayIncr HP=Heap SP=SPA");
}
