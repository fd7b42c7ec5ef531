//! Offline validation of the per-partition kernel scorer: for every
//! column chunk of a skewed collection, compare the kernel the
//! [`ChunkScorer`] *predicts* against the kernel the trace-driven cache
//! simulator *measures* as cheapest (fewest last-level misses).
//!
//! Each chunk's column range is sliced out of every input matrix
//! (colptr rebased, row/value slices shared shape), then all five k-way
//! numeric kernels run over the slice through a fresh Skylake-like
//! hierarchy via `trace_spkadd`. The scorer sees exactly what the
//! driver's dispatcher sees — `ChunkProfile` built from the input and
//! output colptrs — so this checks the decision surface, not the
//! plumbing.
//!
//! Agreement is judged at kernel-*family* granularity (SPA panel, hash
//! table, heap stream): cache traffic is what separates the families at
//! a given chunk shape, and that is the axis a trace simulator can
//! validate. The plain↔sliding split *within* a family trades traffic
//! against recomputation and is tuned in wall-clock terms by the LLC
//! budget heuristic (covered by the `adaptive_selection` bench); at a
//! single window the two siblings are the same algorithm and differ
//! only in emission bookkeeping; one-panel Sliding SPA is the SPA
//! kernel itself and meters SPA's exact work and bytes (the metered
//! `sliding_spa_meters_like_spa` test). A prediction agrees when the best
//! simulated member of its family is within 10% of the per-chunk miss
//! floor.
//!
//! Usage: `cargo run --release -p spk_bench --bin adaptive_cachesim
//! [--llc-kb KB] [--rows R]`

use spk_bench::{print_table, refs, Args};
use spk_cachesim::CacheHierarchy;
use spk_gen::{generate_collection, Pattern};
use spk_sparse::CscMatrix;
use spkadd::metered::trace_spkadd;
use spkadd::{Algorithm, ChunkProfile, ChunkScorer, NumericKernel, SpkAdd};

/// The trace driver speaks `Algorithm`; the scorer speaks `NumericKernel`.
fn kernel_algorithm(kernel: NumericKernel) -> Algorithm {
    match kernel {
        NumericKernel::Hash => Algorithm::Hash,
        NumericKernel::SlidingHash => Algorithm::SlidingHash,
        NumericKernel::Spa => Algorithm::Spa,
        NumericKernel::SlidingSpa => Algorithm::SlidingSpa,
        NumericKernel::Heap => Algorithm::Heap,
    }
}

/// Accumulator family: what the cache-traffic comparison distinguishes.
fn family(kernel: NumericKernel) -> &'static str {
    match kernel {
        NumericKernel::Hash | NumericKernel::SlidingHash => "hash table",
        NumericKernel::Spa | NumericKernel::SlidingSpa => "SPA panel",
        NumericKernel::Heap => "heap stream",
    }
}

/// Copies columns `[lo, hi)` of `mat` into a standalone matrix with a
/// rebased colptr, preserving per-column order (slices of sorted
/// columns stay sorted, so the heap kernel remains eligible).
fn slice_columns(mat: &CscMatrix<f64>, lo: usize, hi: usize) -> CscMatrix<f64> {
    let colptr = mat.colptr();
    let (start, end) = (colptr[lo], colptr[hi]);
    let rebased: Vec<usize> = colptr[lo..=hi].iter().map(|p| p - start).collect();
    CscMatrix::try_new(
        mat.shape().0,
        hi - lo,
        rebased,
        mat.rowidx()[start..end].to_vec(),
        mat.values()[start..end].to_vec(),
    )
    .expect("column slice is structurally valid")
}

fn main() {
    let args = Args::parse();
    let rows = args.get("rows", 1 << 16);
    // Default LL share comfortably holds the 786 KB SPA panel plus the
    // streaming inputs, matching the scorer's panel-fits-LLC reasoning.
    let llc = (args.get("llc-kb", 8192usize) << 10).max(2 << 20);
    let budget = (llc / 12).max(64);

    // Three column regions, each owned by a different group of
    // matrices, so chunks hit all three scorer branches:
    // * dense  — 8 matrices, two fully-dense columns (high duplication,
    //   input traffic dominates, SPA panel amortized);
    // * mid    — 8 matrices, sparse columns (k_eff too high for the
    //   heap rule, output too sparse for the panel: hash regime);
    // * tail   — 4 matrices, hypersparse near-disjoint columns (heap).
    let (dense_cols, mid_cols, tail_cols) = (2usize, 256usize, 256usize);
    let ncols = dense_cols + mid_cols + tail_cols;
    // Places a column block at `offset`, padding empty columns around it.
    let embed = |block: CscMatrix<f64>, offset: usize| -> CscMatrix<f64> {
        let (_, _, ptr, ridx, vals) = block.into_parts();
        let mut colptr = vec![0usize; offset];
        colptr.extend_from_slice(&ptr);
        colptr.resize(ncols + 1, *colptr.last().unwrap());
        CscMatrix::try_new(rows, ncols, colptr, ridx, vals).unwrap()
    };
    let mut mats: Vec<CscMatrix<f64>> = Vec::new();
    for d in generate_collection(Pattern::Er, rows, dense_cols, rows, 8, 42) {
        mats.push(embed(d, 0));
    }
    for s in generate_collection(Pattern::Er, rows, mid_cols, 8, 8, 42 ^ 0x111D) {
        mats.push(embed(s, dense_cols));
    }
    for t in generate_collection(Pattern::Er, rows, tail_cols, 8, 4, 42 ^ 0x7A11) {
        mats.push(embed(t, dense_cols + mid_cols));
    }
    for m in &mut mats {
        m.sort_columns();
    }
    let mrefs = refs(&mats);

    // The exact output colptr, as the symbolic phase hands the dispatcher.
    let sum = SpkAdd::new(rows, ncols)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .build::<f64>()
        .unwrap()
        .execute(&mrefs)
        .expect("reference sum failed");
    let out_colptr = sum.colptr();

    // One chunk per region plus a split, mirroring weight-balanced
    // column chunks.
    let mid_end = dense_cols + mid_cols;
    let chunks: Vec<(usize, usize)> = vec![
        (0, dense_cols),
        (dense_cols, dense_cols + mid_cols / 2),
        (dense_cols + mid_cols / 2, mid_end),
        (mid_end, mid_end + tail_cols / 2),
        (mid_end + tail_cols / 2, ncols),
    ];

    let scorer = ChunkScorer {
        rows,
        entry_bytes: 12,
        threads: 1,
        llc_bytes: llc,
        heap_allowed: true,
    };

    println!(
        "Per-chunk predicted kernel vs simulated LL misses \
         (rows={rows}, LLC share {} KB, budget {budget} entries)",
        llc >> 10
    );
    let mut table = vec![vec![
        "chunk".to_string(),
        "k_eff".to_string(),
        "nnz_in".to_string(),
        "nnz_out".to_string(),
        "predicted".to_string(),
        "sim best".to_string(),
        "family misses".to_string(),
        "best misses".to_string(),
        "agree".to_string(),
    ]];
    let mut disagreements = 0usize;
    for &(lo, hi) in &chunks {
        let nnz_in: usize = mats.iter().map(|m| m.colptr()[hi] - m.colptr()[lo]).sum();
        let k_eff = mats
            .iter()
            .filter(|m| m.colptr()[hi] > m.colptr()[lo])
            .count();
        let profile = ChunkProfile {
            cols: hi - lo,
            k_eff,
            nnz_in,
            nnz_out: out_colptr[hi] - out_colptr[lo],
        };
        let predicted = scorer.choose(&profile);

        let slices: Vec<CscMatrix<f64>> = mats.iter().map(|m| slice_columns(m, lo, hi)).collect();
        let srefs = refs(&slices);
        let mut misses = Vec::new();
        for kernel in NumericKernel::ALL {
            let mut hier = CacheHierarchy::skylake_like(llc);
            trace_spkadd(&srefs, kernel_algorithm(kernel), budget, &mut hier)
                .expect("trace failed");
            misses.push((kernel, hier.ll_stats().misses()));
        }
        let &(sim_best, best_misses) = misses.iter().min_by_key(|(_, m)| *m).unwrap();
        let pred_misses = misses
            .iter()
            .filter(|(k, _)| family(*k) == family(predicted))
            .map(|&(_, m)| m)
            .min()
            .unwrap();
        // Family floor within 10% of the global floor; see module doc.
        let agree = pred_misses as f64 <= best_misses as f64 * 1.10;
        if !agree {
            disagreements += 1;
        }
        table.push(vec![
            format!("cols {lo}..{hi}"),
            profile.k_eff.to_string(),
            profile.nnz_in.to_string(),
            profile.nnz_out.to_string(),
            format!("{predicted:?}"),
            format!("{sim_best:?}"),
            pred_misses.to_string(),
            best_misses.to_string(),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(&table);
    println!(
        "\n{}/{} chunks: predicted kernel family within 10% of the simulated miss floor.",
        chunks.len() - disagreements,
        chunks.len()
    );
    assert_eq!(
        disagreements, 0,
        "the scorer picked a kernel family with >10% more simulated LL \
         misses than the per-chunk best on {disagreements} chunk(s)"
    );
}
