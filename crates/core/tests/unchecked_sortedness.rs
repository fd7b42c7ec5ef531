//! `validate_sorted: false` skips the up-front sortedness scan, so the
//! plan trusts the inputs to be sorted and the sliding kernels carve row
//! panels by binary search. The hash and SPA families accept unsorted
//! inputs, though, so an unsorted (but valid) collection must still add
//! correctly through them: the panelling must notice columns that
//! binary search cannot split and fall back to bucketing.

use spk_sparse::{CscMatrix, DenseMatrix};
use spkadd::{Algorithm, Options, SpkAdd};

/// A valid 64 × `cols` matrix whose every column lists its rows in
/// *descending* order — the reverse of the canonical form.
fn column_reversed(cols: usize, stride: usize, scale: f64) -> CscMatrix<f64> {
    let rows = 64;
    let mut colptr = vec![0usize];
    let mut rowidx = Vec::new();
    let mut values = Vec::new();
    for j in 0..cols {
        for r in (0..rows as u32)
            .rev()
            .filter(|r| (*r as usize + j).is_multiple_of(stride))
        {
            rowidx.push(r);
            values.push(scale * (r as f64 + 1.0));
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::try_new(rows, cols, colptr, rowidx, values).unwrap()
}

#[test]
fn sliding_kernels_add_unsorted_inputs_when_validation_is_off() {
    let a = column_reversed(3, 1, 1.0);
    let b = column_reversed(3, 3, 0.5);
    assert!(!a.is_sorted() && !b.is_sorted());
    let mut want = DenseMatrix::from_csc(&a);
    want.add_assign(&DenseMatrix::from_csc(&b)).unwrap();
    for alg in [
        Algorithm::SlidingSpa,
        Algorithm::SlidingHash,
        Algorithm::Spa,
        Algorithm::Hash,
    ] {
        let out = SpkAdd::new(64, 3)
            .algorithm(alg)
            .options(Options {
                // An 8-entry budget forces eight row panels.
                forced_table_entries: Some(8),
                validate_sorted: false,
                ..Options::default()
            })
            .threads(1)
            .build::<f64>()
            .unwrap()
            .execute(&[&a, &b])
            .unwrap();
        assert!(out.is_sorted(), "{alg}: output columns must be sorted");
        assert_eq!(
            DenseMatrix::from_csc(&out),
            want,
            "{alg}: wrong sum on unsorted inputs"
        );
    }
}
