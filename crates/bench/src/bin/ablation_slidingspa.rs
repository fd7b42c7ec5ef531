//! §IV-B(b) ablation: the row-partitioned (sliding) SPA.
//!
//! The paper observes that "the benefits of sliding hash can also be
//! observed in the SPA algorithm if we partition the SPA array based on
//! row indices \[16\]". This harness compares plain SPA, sliding SPA, hash,
//! and sliding hash on workloads with growing row counts — plain SPA's
//! O(m)-per-thread array falls out of cache as m grows, which is exactly
//! when partitioning pays.
//!
//! It is also a check: every k-way kernel folds duplicate rows in
//! operand order, so each algorithm's output must equal SPA's bit for
//! bit, and the harness panics if one differs.
//!
//! Usage: `cargo run --release -p spk_bench --bin ablation_slidingspa
//! [--cols C] [--d D] [--k K] [--threads T] [--reps N]`

use spk_bench::{fmt_secs, print_table, refs, time_best, workloads, Args};
use spkadd::{Algorithm, Options};

fn main() {
    let args = Args::parse();
    let n = args.get("cols", 64usize);
    let d = args.get("d", 256usize);
    let k = args.get("k", 64usize);
    let threads = args.get("threads", 0usize);
    let reps = args.get("reps", 3usize);

    println!("Sliding-SPA ablation: cols={n}, d={d}, k={k} (ER splits), growing rows");
    let mut rows_out = vec![vec![
        "rows".to_string(),
        "SPA (s)".to_string(),
        "Sliding SPA (s)".to_string(),
        "Hash (s)".to_string(),
        "Sliding Hash (s)".to_string(),
    ]];
    for shift in [16usize, 18, 20, 22] {
        let m = 1usize << shift;
        let mats = workloads::er_collection(m, n, d, k, 42 + shift as u64);
        let mrefs = refs(&mats);
        let mut opts = Options::default();
        opts.threads = threads;
        opts.validate_sorted = false;
        let mut row = vec![format!("2^{shift}")];
        let mut reference: Option<spk_sparse::CscMatrix<f64>> = None;
        for alg in [
            Algorithm::Spa,
            Algorithm::SlidingSpa,
            Algorithm::Hash,
            Algorithm::SlidingHash,
        ] {
            // One plan per (rows, algorithm) cell, reused across reps.
            let mut plan = spkadd::SpkAdd::new(m, n)
                .algorithm(alg)
                .options(opts.clone())
                .build::<f64>()
                .expect("plan build failed");
            let (out, secs) = time_best(reps, || plan.execute(&mrefs).expect("spkadd failed"));
            match &reference {
                None => reference = Some(out),
                Some(r) => assert!(out == *r, "{alg} differs from SPA at 2^{shift} rows"),
            }
            row.push(fmt_secs(secs));
        }
        rows_out.push(row);
    }
    print_table(&rows_out);
    println!(
        "\nExpected: plain SPA degrades as rows grow past the cache while \
         sliding SPA tracks the hash family — the paper's §IV-B(b) \
         prediction."
    );
}
