//! Table III: runtime of all eight SpKAdd algorithms on ER collections
//! across a (k, d) grid.
//!
//! Usage: `cargo run --release -p spk_bench --bin table3 [--full]
//! [--rows R] [--cols C] [--k 4,32,128] [--d 16,256,2048] [--threads T]
//! [--reps N] [--guard OPS]`
//!
//! `--full` switches to the paper's parameters (4M rows, d up to 8192) —
//! only sensible on a machine with tens of GB of RAM.

use spk_bench::tables::run_runtime_table;
use spk_bench::{workloads, Args};

fn main() {
    let args = Args::parse();
    run_runtime_table(
        &args,
        "ER",
        workloads::er_collection,
        &[16, 256, 2048],
        &[16, 1024, 8192],
    );
}
