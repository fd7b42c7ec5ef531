//! Quickstart: add a collection of sparse matrices four ways and verify
//! they agree — including the plan/execute front door, which reuses its
//! kernel workspaces across repeated executions.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spkadd_suite::gen::{generate_collection, Pattern};
use spkadd_suite::sparse::CscMatrix;
use spkadd_suite::{spkadd_with, Algorithm, Options, SpkAdd};

fn main() {
    // 16 sparse matrices, 65 536 × 64, ~32 nonzeros per column — the
    // paper's ER workload in miniature.
    let mats = generate_collection(Pattern::Er, 1 << 16, 64, 32, 16, 42);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let total_in: usize = mats.iter().map(|m| m.nnz()).sum();
    println!(
        "adding k={} matrices of {}x{}, {} input nonzeros",
        mats.len(),
        mats[0].nrows(),
        mats[0].ncols(),
        total_in
    );

    let opts = Options::default();

    // 1. The paper's winner: hash SpKAdd.
    let t = spk_obs::now();
    let hash = spkadd_with(&refs, Algorithm::Hash, &opts).expect("hash spkadd");
    println!(
        "hash:        {} output nnz (cf = {:.3}) in {:.1} ms",
        hash.nnz(),
        total_in as f64 / hash.nnz() as f64,
        t.elapsed().as_secs_f64() * 1e3
    );

    // 2. The classic baseline: a balanced tree of pairwise merges.
    let t = spk_obs::now();
    let tree = spkadd_with(&refs, Algorithm::TwoWayTree, &opts).expect("tree spkadd");
    println!(
        "2-way tree:  {} output nnz in {:.1} ms",
        tree.nnz(),
        t.elapsed().as_secs_f64() * 1e3
    );

    // 3. Let the library pick (Fig 2 decision surface).
    let t = spk_obs::now();
    let auto = spkadd_with(&refs, Algorithm::Auto, &opts).expect("auto spkadd");
    println!(
        "auto:        {} output nnz in {:.1} ms",
        auto.nnz(),
        t.elapsed().as_secs_f64() * 1e3
    );

    // 4. The front door for repeat callers: build a plan once, execute it
    //    many times — hash tables and scratch persist between calls.
    let (nrows, ncols) = (mats[0].nrows(), mats[0].ncols());
    let mut plan = SpkAdd::new(nrows, ncols)
        .algorithm(Algorithm::Auto)
        .build()
        .expect("plan");
    let t = spk_obs::now();
    let first = plan.execute(&refs).expect("planned spkadd");
    let t_first = t.elapsed().as_secs_f64();
    let t = spk_obs::now();
    let second = plan.execute(&refs).expect("planned spkadd");
    let t_second = t.elapsed().as_secs_f64();
    println!(
        "plan:        {} output nnz in {:.1} ms cold, {:.1} ms warm \
         ({} workspace builds total across {} executions)",
        first.nnz(),
        t_first * 1e3,
        t_second * 1e3,
        plan.workspace_allocations(),
        plan.executions()
    );

    assert!(hash.approx_eq(&tree, 1e-9), "hash and tree must agree");
    assert!(hash.approx_eq(&auto, 1e-9), "hash and auto must agree");
    assert!(hash.approx_eq(&first, 1e-9), "hash and plan must agree");
    assert!(first.approx_eq(&second, 0.0), "plan must be deterministic");
    println!("all four paths agree ✓");
}
