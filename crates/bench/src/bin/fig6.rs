//! Fig 6: effect of the SpKAdd algorithm on the computational phases of
//! distributed SpGEMM (simulated sparse SUMMA; communication excluded, as
//! in the paper).
//!
//! Two protein-similarity-like workloads (`A·A`, the HipMCL/Markov-
//! clustering pattern) are run on a `q × q` process grid with the three
//! reduction configurations the paper compares: Heap (sorted multiplies +
//! heap SpKAdd), Sorted Hash, and Unsorted Hash (multiplies skip their
//! per-column sort because hash SpKAdd accepts unsorted inputs).
//!
//! Usage: `cargo run --release -p spk_bench --bin fig6 [--grid Q]
//! [--n N] [--deg D] [--threads T] [--stages K] [--d D]`
//!
//! Per-process times are single-worker times (the processes, not the
//! multiplies inside them, are what runs in parallel), so the "sum"
//! columns are not comparable with runs that predate that change. The
//! workers claim processes heaviest first; "Imbalance" is the busiest
//! worker's busy time over the mean worker's (1.00 = balanced).
//! "Multiply ns/flop" is the summed local-multiply time over the summed
//! local-multiply flops (`Σ_s flops(A(i,s)·B(s,j))` per process): the cost
//! of one multiply-add inside the local SpGEMM.

use spk_bench::{fmt_secs, print_table, Args};
use spk_gen::protein_similarity_matrix;
use spk_summa::{run_summa, ReductionKind, SummaConfig};

fn main() {
    let args = Args::parse();
    let grid = args.get("grid", 4usize);
    let threads = args.get("threads", 0usize);

    let workload_specs = [
        (
            "Metaclust50-like",
            args.get("n", 8192usize),
            args.get("deg", 16usize),
            128usize,
            0.85,
        ),
        (
            "Isolates-like",
            args.get("n", 8192usize) / 2,
            args.get("deg", 24usize),
            32usize,
            0.9,
        ),
    ];

    for (name, n, deg, clusters, in_cluster) in workload_specs {
        let a = protein_similarity_matrix(n, deg, clusters, in_cluster, 42);
        println!(
            "\nFig 6 {name}: A is {n}x{n} with {} nnz; C = A·A on a {grid}x{grid} grid \
             ({} simulated processes, k = {grid} intermediates each)",
            a.nnz(),
            grid * grid
        );
        let mut rows = vec![vec![
            "Reduction".to_string(),
            "Local Multiply (s, sum)".to_string(),
            "SpKAdd (s, sum)".to_string(),
            "Total (s)".to_string(),
            "Multiply ns/flop".to_string(),
            "Imbalance".to_string(),
        ]];
        let mut reference: Option<spk_sparse::CscMatrix<f64>> = None;
        for reduction in [
            ReductionKind::Heap,
            ReductionKind::SortedHash,
            ReductionKind::UnsortedHash,
        ] {
            let report = run_summa(
                &a,
                &a,
                &SummaConfig {
                    grid,
                    reduction,
                    threads,
                },
            )
            .expect("summa failed");
            match &reference {
                None => reference = Some(report.result.clone()),
                Some(r) => assert!(
                    report.result.approx_eq(r, 1e-6),
                    "{} reduction changed the product",
                    reduction.name()
                ),
            }
            let (mul, add) = (report.multiply_total(), report.spkadd_total());
            let flops: usize = report.per_process.iter().map(|t| t.flops).sum();
            rows.push(vec![
                reduction.name().to_string(),
                fmt_secs(mul),
                fmt_secs(add),
                fmt_secs(mul + add),
                format!("{:.1}", mul * 1e9 / flops.max(1) as f64),
                format!("{:.2}", report.imbalance()),
            ]);
        }
        print_table(&rows);
        println!("  (all three reductions verified to produce the same product)");
    }
    // Part 2: the per-process SpKAdd at paper-scale stage counts. The
    // paper's runs used 4096–16384 processes (64–128 SUMMA stages), so
    // each process reduced k = 64 Eukarya SpGEMM intermediates with
    // cf ≈ 22.6 — exactly the Fig 3(c)/Fig 4(d) workload, which the
    // generator reproduces directly. The heap's lg k work factor and its
    // need for sorted inputs both bite in this regime.
    let k = args.get("stages", 64usize);
    let d = args.get("d", 240usize);
    let inter = spk_bench::workloads::eukarya_like(1 << 17, 1024, d, k, 46);
    let total_nnz: usize = inter.iter().map(|m| m.nnz()).sum();
    println!(
        "\nFig 6 (per-process reduction at paper-scale k): {} Eukarya-like \
         SpGEMM intermediates, {} input nnz, cf≈22.6",
        k, total_nnz
    );
    // The unsorted variant reduces column-reversed copies — what an
    // unsorted local multiply hands to the reduction.
    let unsorted: Vec<spk_sparse::CscMatrix<f64>> = inter
        .iter()
        .map(|m| {
            let (rows_n, cols_n, colptr, mut ridx, mut vals) = m.clone().into_parts();
            for j in 0..cols_n {
                ridx[colptr[j]..colptr[j + 1]].reverse();
                vals[colptr[j]..colptr[j + 1]].reverse();
            }
            spk_sparse::CscMatrix::from_parts(rows_n, cols_n, colptr, ridx, vals)
        })
        .collect();

    let mut rows = vec![vec![
        "Reduction".to_string(),
        "SpKAdd (s)".to_string(),
        "vs Heap".to_string(),
    ]];
    let mut opts = spkadd::Options::default();
    opts.threads = threads;
    opts.validate_sorted = false;
    let sorted_refs: Vec<&spk_sparse::CscMatrix<f64>> = inter.iter().collect();
    let unsorted_refs: Vec<&spk_sparse::CscMatrix<f64>> = unsorted.iter().collect();
    let mut heap_time = 0.0f64;
    let mut reference: Option<spk_sparse::CscMatrix<f64>> = None;
    for (reduction, mrefs) in [
        (ReductionKind::Heap, &sorted_refs),
        (ReductionKind::SortedHash, &sorted_refs),
        (ReductionKind::UnsortedHash, &unsorted_refs),
    ] {
        let mut inputs_sorted_opts = opts.clone();
        if reduction == ReductionKind::UnsortedHash {
            // Let the driver know it cannot assume sorted inputs.
            inputs_sorted_opts.validate_sorted = true;
        }
        let (_, t_add) = spk_bench::time_best(3, || {
            spkadd::spkadd_with(mrefs, reduction.algorithm(), &inputs_sorted_opts)
                .expect("reduction failed")
        });
        let sum = spkadd::spkadd_with(mrefs, reduction.algorithm(), &inputs_sorted_opts)
            .expect("reduction failed");
        match &reference {
            None => reference = Some(sum),
            Some(r) => assert!(sum.approx_eq(r, 1e-6)),
        }
        if reduction == ReductionKind::Heap {
            heap_time = t_add;
        }
        rows.push(vec![
            reduction.name().to_string(),
            fmt_secs(t_add),
            format!("{:.2}x", heap_time / t_add),
        ]);
    }
    print_table(&rows);
    println!(
        "\nExpected shape (paper Fig 6): hash SpKAdd well under heap SpKAdd \
         at paper-scale k (the paper reports ~10x with CombBLAS's heap \
         implementation); unsorted inputs cost hash little, while heap \
         cannot accept them at all."
    );
}
