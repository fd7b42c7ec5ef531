//! Introduction-claim ablation: communication-avoiding (3D) SpGEMM uses
//! SpKAdd at *two* phases — within each 2D grid and across grids.
//!
//! This harness sweeps the replication factor (layer count) of the 3D
//! SUMMA simulator and reports, per configuration: local multiply time,
//! intra-layer SpKAdd, inter-layer SpKAdd, and simulated broadcast
//! volume. The simulation keeps a fixed per-layer grid, so it
//! demonstrates the *phase structure* (reduction work appearing at both
//! levels, correctness across layer counts) rather than the
//! communication saving, which comes from shrinking the per-layer grid
//! as layers grow on a fixed process budget.
//!
//! Usage: `cargo run --release -p spk_bench --bin ablation_3d
//! [--n N] [--deg D] [--grid Q] [--layers 1,2,4,8] [--threads T]`

use spk_bench::{fmt_secs, print_table, Args};
use spk_gen::protein_similarity_matrix;
use spk_summa::{run_summa_3d, ReductionKind, SummaConfig};

fn main() {
    let args = Args::parse();
    let n = args.get("n", 8192usize);
    let deg = args.get("deg", 16usize);
    let grid = args.get("grid", 4usize);
    let layers_list = args.get_list("layers", &[1, 2, 4, 8]);
    let threads = args.get("threads", 0usize);

    let a = protein_similarity_matrix(n, deg, 128, 0.85, 42);
    println!(
        "3D SUMMA ablation: C = A·A, A {n}x{n} ({} nnz), {grid}x{grid} grid per layer",
        a.nnz()
    );
    let mut rows = vec![vec![
        "layers".to_string(),
        "multiply (s)".to_string(),
        "SpKAdd intra (s)".to_string(),
        "SpKAdd inter (s)".to_string(),
        "broadcast (MB)".to_string(),
    ]];
    let mut reference: Option<spk_sparse::CscMatrix<f64>> = None;
    for &layers in &layers_list {
        let report = run_summa_3d(
            &a,
            &a,
            &SummaConfig {
                grid,
                reduction: ReductionKind::SortedHash,
                threads,
            },
            layers,
        )
        .expect("3d summa failed");
        match &reference {
            None => reference = Some(report.result),
            Some(r) => assert!(
                report.result.approx_eq(r, 1e-6),
                "{layers}-layer run changed the product"
            ),
        }
        rows.push(vec![
            layers.to_string(),
            fmt_secs(report.multiply_total),
            fmt_secs(report.spkadd_intra_total),
            fmt_secs(report.spkadd_inter_total),
            format!("{:.1}", report.bytes_broadcast as f64 / 1e6),
        ]);
    }
    print_table(&rows);
    println!(
        "\nExpected: the inter-layer SpKAdd grows from ~zero as layers are \
         added while the intra-layer share shrinks — SpKAdd appears at \
         both phases of the 3D algorithm, as the paper's introduction \
         claims. (Total broadcast bytes stay roughly flat here because the \
         per-layer grid is fixed; the real communication saving comes from \
         shrinking it as layers grow.)"
    );
}
