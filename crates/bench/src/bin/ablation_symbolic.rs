//! §II-D ablation: symbolic-phase strategies across compression factors.
//!
//! The symbolic phase sizes its tables by *input* entries — `cf×` more
//! than the output — so high-cf collections stress it disproportionately
//! (the paper's Fig 4(d) observation: "the symbolic phase needed hash
//! tables that are 27× larger"). This harness times the hash numeric
//! phase under five symbolic strategies (hash, sliding hash, SPA, heap —
//! the protein inputs are sorted — and the upper-bound/no-symbolic path
//! with post-compaction) for collections with cf ∈ {1.5, 4, 16}.
//!
//! It is also a check: every execution of every strategy must return the
//! same matrix, bit for bit, as the `Hash` strategy (the symbolic phase
//! sizes the output and must never change it), or the run panics. CI
//! runs it small: `--rows 4096 --cols 64 --d 8 --k 8`.
//!
//! Usage: `cargo run --release -p spk_bench --bin ablation_symbolic
//! [--rows R] [--cols C] [--d D] [--k K] [--threads T]`

use spk_bench::{fmt_secs, print_table, refs, Args};
use spk_gen::{protein_collection, ProteinConfig};
use spk_sparse::CscMatrix;
use spkadd::{Algorithm, Options, SymbolicStrategy};

fn main() {
    let args = Args::parse();
    let m = args.get("rows", 1 << 15);
    let n = args.get("cols", 256usize);
    let d = args.get("d", 32usize);
    let k = args.get("k", 32usize);
    let threads = args.get("threads", 0usize);

    println!("Symbolic ablation: rows={m}, cols={n}, d={d}, k={k} (hash numeric phase)");
    let mut rows = vec![vec![
        "cf".to_string(),
        "strategy".to_string(),
        "symbolic (s)".to_string(),
        "numeric (s)".to_string(),
        "total (s)".to_string(),
        "output nnz".to_string(),
    ]];
    for cf in [1.5f64, 4.0, 16.0] {
        let mats = protein_collection(
            &ProteinConfig {
                nrows: m,
                ncols: n,
                d,
                k,
                cf,
                skew: 0.4,
            },
            42,
        );
        let mrefs = refs(&mats);
        // Warm up allocator and page cache so the first strategy row is
        // not penalized.
        let mut warm = Options::default();
        warm.validate_sorted = false;
        let _ = spkadd::spkadd_with(&mrefs, Algorithm::Hash, &warm).expect("warmup failed");
        // The first `Hash` execution's output, which every later one of
        // every strategy must equal.
        let mut reference: Option<CscMatrix<f64>> = None;
        for strategy in [
            SymbolicStrategy::Hash,
            SymbolicStrategy::SlidingHash,
            SymbolicStrategy::Spa,
            SymbolicStrategy::Heap,
            SymbolicStrategy::UpperBound,
        ] {
            let mut opts = Options::default();
            opts.threads = threads;
            opts.validate_sorted = false;
            opts.symbolic = strategy;
            // One plan and one output sink per strategy, reused across the
            // three reps: the steady state, where the compacting path
            // refills the sink in place.
            let mut plan = spkadd::SpkAdd::new(m, n)
                .algorithm(Algorithm::Hash)
                .options(opts)
                .build::<f64>()
                .expect("plan build failed");
            let mut out = CscMatrix::zeros(0, 0);
            // Best of three to damp scheduler noise.
            let mut best: Option<spkadd::ExecuteStats> = None;
            for _ in 0..3 {
                let timings = plan
                    .execute_into_timed(&mrefs, &mut out)
                    .expect("spkadd failed");
                let expect = reference.get_or_insert_with(|| out.clone());
                assert_eq!(
                    &out, expect,
                    "cf {cf}: the {strategy:?} symbolic strategy changed the output"
                );
                if best.is_none_or(|b| timings.total() < b.total()) {
                    best = Some(timings);
                }
            }
            let timings = best.unwrap();
            rows.push(vec![
                format!("{cf}"),
                format!("{strategy:?}"),
                fmt_secs(timings.symbolic),
                fmt_secs(timings.numeric),
                fmt_secs(timings.total()),
                out.nnz().to_string(),
            ]);
        }
    }
    print_table(&rows);
    println!(
        "\nExpected: symbolic share of total grows with cf; UpperBound \
         trades the symbolic pass for over-allocation plus compaction.\n\
         Every strategy's output equals the Hash strategy's."
    );
}
