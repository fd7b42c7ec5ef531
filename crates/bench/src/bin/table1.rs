//! Table I: empirical validation of the work and I/O complexity summary.
//!
//! The paper's Table I is analytic; this harness measures it. Every
//! algorithm runs single-threaded under a `CountingModel` across a sweep
//! of k, and the growth exponent of ops (work) and bytes (I/O) in k is
//! fitted from consecutive doublings:
//!
//! * 2-way Incremental → work/I-O exponent ≈ 2 (O(k²nd));
//! * 2-way Tree        → ≈ 1 + lg-factor (O(knd·lg k)) in both;
//! * Heap              → work ≈ lg-factor, I/O ≈ 1 (streams inputs once);
//! * SPA / Hash / Sliding Hash → ≈ 1 in both (work- and I/O-optimal).
//!
//! Usage: `cargo run --release -p spk_bench --bin table1 [--rows R]
//! [--cols C] [--d D] [--k 2,4,...]`

use spk_bench::{print_table, refs, workloads, Args};
use spkadd::metered::meter_spkadd;
use spkadd::Algorithm;

const ALGS: [Algorithm; 6] = [
    Algorithm::TwoWayIncremental,
    Algorithm::TwoWayTree,
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
];

fn main() {
    let args = Args::parse();
    let m = args.get("rows", 1 << 14);
    let n = args.get("cols", 32usize);
    let d = args.get("d", 16usize);
    let ks = args.get_list("k", &[4, 8, 16, 32, 64]);
    let budget = args.get("budget", 1usize << 12);

    println!("Table I empirical check: ER rows={m}, cols={n}, d={d}; per-entry counters");

    // measurements[alg][ki] = (ops, bytes)
    let mut measurements: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ALGS.len()];
    for &k in &ks {
        let mats = workloads::er_collection(m, n, d, k, 42);
        let mrefs = refs(&mats);
        for (ai, alg) in ALGS.iter().enumerate() {
            let (_, c) = meter_spkadd(&mrefs, *alg, budget).expect("meter failed");
            measurements[ai].push((c.ops, c.bytes_total()));
        }
    }

    let mut rows = vec![vec![
        "Algorithm".to_string(),
        "ops@kmax".to_string(),
        "bytes@kmax".to_string(),
        "work exp".to_string(),
        "I/O exp".to_string(),
        "paper work".to_string(),
        "paper I/O".to_string(),
    ]];
    for (ai, alg) in ALGS.iter().enumerate() {
        let series = &measurements[ai];
        let last = series.last().unwrap();
        let (wexp, ioexp) = (
            fit_exponent(&ks, series.iter().map(|s| s.0).collect()),
            fit_exponent(&ks, series.iter().map(|s| s.1).collect()),
        );
        let (paper_work, paper_io) = match alg {
            Algorithm::TwoWayIncremental => ("O(k^2 nd)", "O(k^2 nd)"),
            Algorithm::TwoWayTree => ("O(knd lg k)", "O(knd lg k)"),
            Algorithm::Heap => ("O(knd lg k)", "O(knd)"),
            _ => ("O(knd)", "O(knd)"),
        };
        rows.push(vec![
            alg.name().to_string(),
            last.0.to_string(),
            last.1.to_string(),
            format!("{wexp:.2}"),
            format!("{ioexp:.2}"),
            paper_work.to_string(),
            paper_io.to_string(),
        ]);
    }
    print_table(&rows);
    println!(
        "\nexp = least-squares slope of log(metric) vs log(k); 1.0 = linear \
         in k (work/I-O optimal), 2.0 = quadratic. lg-k terms show up as \
         exponents slightly above 1."
    );
}

/// Least-squares slope of log2(value) against log2(k).
fn fit_exponent(ks: &[usize], values: Vec<u64>) -> f64 {
    let pts: Vec<(f64, f64)> = ks
        .iter()
        .zip(&values)
        .map(|(&k, &v)| ((k as f64).ln(), (v.max(1) as f64).ln()))
        .collect();
    let nf = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (nf * sxy - sx * sy) / (nf * sxx - sx * sx)
}
