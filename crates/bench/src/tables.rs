//! Shared driver for the runtime tables (Table III = ER, Table IV = RMAT):
//! all eight SpKAdd algorithms across a (k, d) grid, fastest per column
//! starred, quadratic algorithms skipped past a work guard (the paper's
//! "could not run" entries).
//!
//! Each (algorithm, d, k) cell holds one `SpkAddPlan` across its reps, so
//! repeated timings measure the steady-state (workspace-reused) path.
//! `--algorithms hash,sliding-hash,...` restricts the rows (names parsed
//! with `Algorithm::from_str`).
//!
//! The tables are a check as well: in every cell, the algorithms that add
//! each output entry in input order (the incremental folds, Heap, SPA and
//! Sliding Hash) must `==` Hash's result, and 2-way Tree must `==` Lib
//! Tree's; the harness panics otherwise. Rows not run are not compared.

use crate::{fmt_secs, print_table, refs, time_best, workloads, Args};
use spk_sparse::CscMatrix;
use spkadd::{Algorithm, Options, SpkAdd};

/// Runs one runtime table and prints it.
///
/// * `gen` — collection generator `(m, n, d, k, seed)`;
/// * `default_d` / `full_d` — the d sweep at harness/paper scale.
pub fn run_runtime_table(
    args: &Args,
    pattern: &str,
    gen: fn(usize, usize, usize, usize, u64) -> Vec<CscMatrix<f64>>,
    default_d: &[usize],
    full_d: &[usize],
) {
    let full = args.flag("full");
    let m = args.get("rows", if full { 1 << 22 } else { 1 << 16 });
    let n = args.get("cols", if full { 1024 } else { 64 });
    let ks = args.get_list("k", &[4, 32, 128]);
    let ds = args.get_list("d", if full { full_d } else { default_d });
    let threads = args.get("threads", 0usize);
    let reps = args.get("reps", 1usize);
    let guard: f64 = args.get("guard", 1.5e9);

    let mut opts = Options::default();
    opts.threads = threads;
    opts.validate_sorted = false; // generated inputs are sorted

    let algs = algorithms_filter(args);

    println!(
        "Runtime table (sec): pattern={pattern}, rows={m}, cols={n}, threads={}",
        if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        }
    );

    let mut header = vec!["Algorithm".to_string()];
    for &d in &ds {
        for &k in &ks {
            header.push(format!("d={d},k={k}"));
        }
    }
    let mut rows_out: Vec<Vec<String>> = vec![header];
    let mut cells: Vec<Vec<Option<f64>>> = vec![Vec::new(); algs.len()];

    for &d in &ds {
        for &k in &ks {
            let mats = gen(m, n, d, k, 42);
            let mrefs = refs(&mats);
            let inz = workloads::total_nnz(&mats) as f64;
            let mut outs = Vec::new();
            for (ai, alg) in algs.iter().enumerate() {
                let est = estimated_work(*alg, inz, k);
                if est > guard {
                    cells[ai].push(None);
                    continue;
                }
                // One plan per cell, reused across the reps: the timing
                // measures the steady-state (workspace-retained) path.
                let mut plan = SpkAdd::new(m, n)
                    .algorithm(*alg)
                    .options(opts.clone())
                    .build::<f64>()
                    .expect("plan build failed");
                let (out, secs) = time_best(reps, || plan.execute(&mrefs).expect("spkadd failed"));
                cells[ai].push(Some(secs));
                outs.push((*alg, out));
            }
            check_cell(&outs, d, k);
        }
    }

    // Mark the fastest algorithm per column with '*' (the paper's green).
    let ncols = cells[0].len();
    let mut best = vec![f64::INFINITY; ncols];
    for row in &cells {
        for (c, v) in row.iter().enumerate() {
            if let Some(t) = v {
                best[c] = best[c].min(*t);
            }
        }
    }
    for (ai, alg) in algs.iter().enumerate() {
        let mut row = vec![alg.name().to_string()];
        for (c, v) in cells[ai].iter().enumerate() {
            row.push(match v {
                Some(t) if *t == best[c] => format!("{}*", fmt_secs(*t)),
                Some(t) => fmt_secs(*t),
                None => "—".to_string(),
            });
        }
        rows_out.push(row);
    }
    print_table(&rows_out);
    println!("(* = fastest in column; — = skipped by the work guard)");
}

/// Asserts that one cell's results agree where their sums are exactly
/// equal: every algorithm that adds in input order with Hash, and the two
/// trees with each other. A comparison with a row not run is skipped.
fn check_cell(outs: &[(Algorithm, CscMatrix<f64>)], d: usize, k: usize) {
    use Algorithm::*;
    let find = |alg| outs.iter().find(|(a, _)| *a == alg).map(|(_, out)| out);
    for (alg, reference) in [
        (TwoWayIncremental, Hash),
        (LibIncremental, Hash),
        (Heap, Hash),
        (Spa, Hash),
        (SlidingHash, Hash),
        (TwoWayTree, LibTree),
    ] {
        if let (Some(out), Some(expect)) = (find(alg), find(reference)) {
            assert!(
                out == expect,
                "d={d}, k={k}: {alg} differs from {reference}"
            );
        }
    }
}

/// The algorithm rows to run: the paper's eight, or the comma-separated
/// `--algorithms` subset (parsed via `Algorithm::from_str`, so both the
/// kebab tokens and the table names are accepted).
pub fn algorithms_filter(args: &Args) -> Vec<Algorithm> {
    match args.get("algorithms", String::new()) {
        s if s.is_empty() => Algorithm::ALL.to_vec(),
        s => s
            .split(',')
            .map(|tok| {
                tok.parse::<Algorithm>()
                    .unwrap_or_else(|e| panic!("--algorithms: {e}"))
            })
            .collect(),
    }
}

/// Rough work estimate used for the "could not run" guard.
pub fn estimated_work(alg: Algorithm, total_input_nnz: f64, k: usize) -> f64 {
    match alg {
        Algorithm::TwoWayIncremental => total_input_nnz * k as f64 / 2.0,
        Algorithm::LibIncremental => total_input_nnz * k as f64 * 2.0,
        Algorithm::LibTree => total_input_nnz * (k as f64).log2().max(1.0) * 4.0,
        _ => total_input_nnz * (k as f64).log2().max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithms_filter_parses_subset() {
        let a = Args::from_vec(vec!["--algorithms".into(), "hash,Sliding Hash".into()]);
        assert_eq!(
            algorithms_filter(&a),
            vec![Algorithm::Hash, Algorithm::SlidingHash]
        );
        let none = Args::from_vec(vec![]);
        assert_eq!(algorithms_filter(&none), Algorithm::ALL.to_vec());
    }

    #[test]
    fn guard_orders_algorithms() {
        let inz = 1e6;
        assert!(
            estimated_work(Algorithm::LibIncremental, inz, 64)
                > estimated_work(Algorithm::TwoWayIncremental, inz, 64)
        );
        assert!(
            estimated_work(Algorithm::TwoWayIncremental, inz, 64)
                > estimated_work(Algorithm::Hash, inz, 64)
        );
    }
}
