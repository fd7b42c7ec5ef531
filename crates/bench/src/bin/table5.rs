//! Table V: last-level cache misses of hash vs sliding-hash SpKAdd on the
//! Fig 4 workloads, measured with the trace-driven cache simulator
//! (standing in for Cachegrind; see DESIGN.md substitution 4).
//!
//! Like Cachegrind, the trace is single-threaded; the multi-thread LLC
//! contention of the real runs is modelled by giving the simulated thread
//! a 1/T share of the LLC (`--llc-kb`, default 512 KB ≈ 32 MB / 64
//! hardware threads at paper scale).
//!
//! Usage: `cargo run --release -p spk_bench --bin table5 [--llc-kb KB]`

use spk_bench::{print_table, refs, workloads, Args};
use spk_cachesim::CacheHierarchy;
use spk_sparse::CscMatrix;
use spkadd::metered::trace_spkadd;
use spkadd::Algorithm;

fn main() {
    let args = Args::parse();
    // The simulated LL share must stay above the fixed 1 MB L2 of the
    // Skylake-like hierarchy, or the outer level would never be reached.
    let llc = (args.get("llc-kb", 2048usize) << 10).max(2 << 20);
    // Numeric entries are 12 bytes (u32 + f64); symbolic 4. The shared
    // budget uses the numeric size, the conservative choice.
    let budget = (llc / 12).max(64);

    // Cases (b) and (c) are sized so the per-column tables (≈ d·k output
    // entries, 12 B each) exceed the simulated LL share — the paper's
    // out-of-cache regime; (a) and (d) fit comfortably.
    let cases: Vec<(&str, Vec<CscMatrix<f64>>)> = vec![
        (
            "(a) ER d=16 k=32 (small tables)",
            workloads::er_collection(1 << 16, 64, 16, 32, 42),
        ),
        (
            "(b) ER d=2048 k=128 (large tables)",
            workloads::er_collection(1 << 20, 32, 2048, 128, 43),
        ),
        (
            "(c) RMAT d=512 k=128 (skewed)",
            workloads::rmat_collection(1 << 20, 32, 512, 128, 44),
        ),
        (
            "(d) Eukarya-like cf≈22.6 (high compression)",
            workloads::eukarya_like(1 << 16, 128, 60, 64, 45),
        ),
    ];

    println!(
        "Table V: simulated LL misses (LLC share = {} KB, sliding budget = {} entries)",
        llc >> 10,
        budget
    );
    let mut rows = vec![vec![
        "Case".to_string(),
        "Sliding Hash".to_string(),
        "Hash".to_string(),
        "ratio".to_string(),
    ]];
    for (name, mats) in &cases {
        let mrefs = refs(mats);
        let mut h_plain = CacheHierarchy::skylake_like(llc);
        trace_spkadd(&mrefs, Algorithm::Hash, usize::MAX, &mut h_plain).expect("trace failed");
        let mut h_slide = CacheHierarchy::skylake_like(llc);
        trace_spkadd(&mrefs, Algorithm::SlidingHash, budget, &mut h_slide).expect("trace failed");
        let (p, s) = (h_plain.ll_stats().misses(), h_slide.ll_stats().misses());
        rows.push(vec![
            name.to_string(),
            s.to_string(),
            p.to_string(),
            format!("{:.2}x", p as f64 / s.max(1) as f64),
        ]);
    }
    print_table(&rows);
    println!(
        "\nExpected shape (paper Table V): sliding ≪ hash for (b), sliding < \
         hash for (c), parity for (a) and (d) where tables fit anyway."
    );
}
