//! Table IV: runtime of all eight SpKAdd algorithms on RMAT (Graph500)
//! collections across a (k, d) grid — the skewed counterpart of Table III.
//!
//! Usage: `cargo run --release -p spk_bench --bin table4 [--full]
//! [--rows R] [--cols C] [--k 4,32,128] [--d 16,64,512] [--threads T]
//! [--reps N] [--guard OPS]`

use spk_bench::tables::run_runtime_table;
use spk_bench::{workloads, Args};

fn main() {
    let args = Args::parse();
    run_runtime_table(
        &args,
        "RMAT",
        workloads::rmat_collection,
        &[16, 64, 512],
        &[16, 64, 512],
    );
}
