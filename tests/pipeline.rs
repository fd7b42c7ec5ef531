//! Pipeline integration: SpGEMM → SpKAdd → SUMMA, plus file I/O — the
//! full system the paper's distributed experiments exercise.

use spkadd_suite::cachesim::CacheHierarchy;
use spkadd_suite::gen::{er, protein_similarity_matrix};
use spkadd_suite::kadd::metered::trace_spkadd;
use spkadd_suite::sparse::{io, CscMatrix, DenseMatrix};
use spkadd_suite::spgemm::{spgemm_hash, SpgemmOptions};
use spkadd_suite::summa::{process_intermediates, run_summa, ReductionKind, SummaConfig};
use spkadd_suite::{spkadd_with, Algorithm, Options};

#[test]
fn spgemm_agrees_with_dense_oracle() {
    let a = er(96, 64, 4, 11);
    let b = er(64, 48, 4, 12);
    let dense = DenseMatrix::from_csc(&a)
        .matmul(&DenseMatrix::from_csc(&b))
        .unwrap();
    let hash = spgemm_hash(&a, &b, &SpgemmOptions::default()).unwrap();
    assert!(DenseMatrix::from_csc(&hash).max_abs_diff(&dense) < 1e-9);
}

#[test]
fn summa_grid_sizes_agree() {
    let a = protein_similarity_matrix(256, 8, 16, 0.8, 21);
    let direct = spgemm_hash(&a, &a, &SpgemmOptions::default()).unwrap();
    for grid in [1usize, 2, 4] {
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
                    threads: 0,
                },
            )
            .unwrap();
            assert!(
                report.result.approx_eq(&direct, 1e-9),
                "grid={grid} {} diverged",
                reduction.name()
            );
        }
    }
}

#[test]
fn unsorted_spgemm_feeds_hash_spkadd() {
    // The Fig 6 fast path: unsorted intermediates reduced by hash SpKAdd
    // must equal sorted intermediates reduced by heap SpKAdd.
    let a = protein_similarity_matrix(512, 8, 16, 0.8, 22);
    let unsorted = process_intermediates(&a, &a, 4, false).unwrap();
    let sorted = process_intermediates(&a, &a, 4, true).unwrap();
    let urefs: Vec<&CscMatrix<f64>> = unsorted.iter().collect();
    let srefs: Vec<&CscMatrix<f64>> = sorted.iter().collect();

    let via_hash = spkadd_with(&urefs, Algorithm::Hash, &Options::default()).unwrap();
    let via_heap = spkadd_with(&srefs, Algorithm::Heap, &Options::default()).unwrap();
    assert!(via_hash.approx_eq(&via_heap, 1e-9));

    // And the heap algorithm must *reject* the unsorted ones (if any
    // column is actually unsorted).
    if unsorted.iter().any(|m| !m.is_sorted()) {
        assert!(spkadd_with(&urefs, Algorithm::Heap, &Options::default()).is_err());
    }
}

#[test]
fn matrix_market_round_trip_via_tempfile() {
    let a = er(64, 32, 4, 33);
    let path = std::env::temp_dir().join("spkadd_suite_roundtrip.mtx");
    io::write_matrix_market(&path, &a).unwrap();
    let back = io::read_matrix_market(&path)
        .unwrap()
        .to_csc_sum_duplicates();
    std::fs::remove_file(&path).ok();
    assert!(back.approx_eq(&a, 1e-9));
}

#[test]
fn cachesim_traces_full_algorithms() {
    // The cache simulator must run the real algorithms end to end and
    // observe strictly more LL traffic for more data.
    let small = vec![er(256, 8, 4, 41), er(256, 8, 4, 42)];
    let big = vec![er(4096, 32, 16, 43), er(4096, 32, 16, 44)];
    let misses = |mats: &Vec<CscMatrix<f64>>| {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut h = CacheHierarchy::skylake_like(256 << 10);
        trace_spkadd(&refs, Algorithm::Hash, usize::MAX, &mut h).unwrap();
        h.ll_stats().misses()
    };
    assert!(misses(&big) > misses(&small));
}

#[test]
fn spkadd_reduces_spgemm_partials_like_direct_product() {
    // Σ_s A(:,s-block)·B(s-block,:) over column/row slabs equals A·B —
    // the algebra behind SUMMA's reduction, checked with the library's
    // own pieces.
    let a = er(128, 64, 4, 51);
    let b = er(64, 96, 4, 52);
    let q = 4;
    let opts = SpgemmOptions::default();
    let mut partials = Vec::new();
    for s in 0..q {
        let c1 = s * a.ncols() / q;
        let c2 = (s + 1) * a.ncols() / q;
        let a_slab = a.slice_cols(c1, c2);
        let b_slab = b.slice_rows(c1, c2);
        partials.push(spgemm_hash(&a_slab, &b_slab, &opts).unwrap());
    }
    let refs: Vec<&CscMatrix<f64>> = partials.iter().collect();
    let summed = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
    let direct = spgemm_hash(&a, &b, &opts).unwrap();
    assert!(summed.approx_eq(&direct, 1e-9));
}
