//! Property tests for the sparse containers: conversions are lossless,
//! canonicalization is idempotent, slicing composes, and the Matrix
//! Market codec round-trips.

use proptest::prelude::*;
use spk_sparse::{io, CooMatrix, CscMatrix, DenseMatrix};

/// Strategy: a random matrix built from triplets (duplicates summed).
fn matrix_strategy() -> impl Strategy<Value = CscMatrix<f64>> {
    (1usize..32, 1usize..16).prop_flat_map(|(m, n)| {
        let entry = (0..m as u32, 0..n as u32, -16i32..16);
        proptest::collection::vec(entry, 0..64).prop_map(move |trips| {
            let mut coo = CooMatrix::new(m, n);
            for (r, c, v) in trips {
                coo.push(r, c, v as f64);
            }
            coo.to_csc_sum_duplicates()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_is_an_involution(m in matrix_strategy()) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_swaps_entries(m in matrix_strategy()) {
        let t = m.transpose();
        prop_assert_eq!(t.shape(), (m.ncols(), m.nrows()));
        for (r, c, v) in m.iter() {
            prop_assert_eq!(t.get(c as usize, r as usize).unwrap(), v);
        }
    }

    #[test]
    fn canonicalize_is_idempotent(m in matrix_strategy()) {
        let mut once = m.clone();
        once.canonicalize();
        let mut twice = once.clone();
        twice.canonicalize();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.is_sorted());
    }

    #[test]
    fn coo_round_trip_is_lossless(m in matrix_strategy()) {
        prop_assert!(m.to_coo().to_csc_sum_duplicates().approx_eq(&m, 0.0));
    }

    #[test]
    fn dense_round_trip_drops_only_zeros(m in matrix_strategy()) {
        let mut pruned = m.clone();
        pruned.prune_zeros();
        prop_assert!(DenseMatrix::from_csc(&m).to_csc().approx_eq(&pruned, 0.0));
    }

    #[test]
    fn column_slices_tile_the_matrix(m in matrix_strategy()) {
        let n = m.ncols();
        let cut = n / 2;
        let left = m.slice_cols(0, cut);
        let right = m.slice_cols(cut, n);
        prop_assert_eq!(left.nnz() + right.nnz(), m.nnz());
        for j in 0..cut {
            prop_assert_eq!(left.col_nnz(j), m.col_nnz(j));
        }
        for j in cut..n {
            prop_assert_eq!(right.col_nnz(j - cut), m.col_nnz(j));
        }
    }

    #[test]
    fn row_slices_partition_entries(m in matrix_strategy()) {
        let rows = m.nrows();
        let cut = rows / 2;
        let top = m.slice_rows(0, cut);
        let bottom = m.slice_rows(cut, rows);
        prop_assert_eq!(top.nnz() + bottom.nnz(), m.nnz());
        for (r, c, v) in top.iter() {
            prop_assert_eq!(m.get(r as usize, c as usize).unwrap(), v);
        }
        for (r, c, v) in bottom.iter() {
            prop_assert_eq!(m.get(r as usize + cut, c as usize).unwrap(), v);
        }
    }

    #[test]
    fn matrix_market_round_trip(m in matrix_strategy()) {
        let mut buf = Vec::new();
        io::write_matrix_market_to(&mut buf, &m).unwrap();
        let back = io::read_matrix_market_from(&buf[..]).unwrap().to_csc_sum_duplicates();
        prop_assert!(back.approx_eq(&m, 1e-9));
    }

    #[test]
    fn sort_columns_preserves_multiset(m in matrix_strategy()) {
        // Destroy order, then sort; per-column entry multisets must match.
        let (rows_n, cols_n, colptr, mut ridx, mut vals) = m.clone().into_parts();
        for j in 0..cols_n {
            ridx[colptr[j]..colptr[j + 1]].reverse();
            vals[colptr[j]..colptr[j + 1]].reverse();
        }
        let mut shuffled = CscMatrix::try_new(rows_n, cols_n, colptr, ridx, vals).unwrap();
        shuffled.sort_columns();
        prop_assert!(shuffled.is_sorted_with_duplicates());
        prop_assert!(shuffled.approx_eq(&m, 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `row_slice` along any contiguous partition, then `vstack`, is the
    /// identity — the invariant the sharded aggregation service rests on.
    #[test]
    fn row_slice_vstack_round_trips(
        m in matrix_strategy(),
        shards in 1usize..6,
    ) {
        let rows = m.nrows();
        let slabs: Vec<CscMatrix<f64>> = (0..shards)
            .map(|s| m.row_slice(s * rows / shards, (s + 1) * rows / shards))
            .collect();
        let refs: Vec<&CscMatrix<f64>> = slabs.iter().collect();
        let back = CscMatrix::vstack(&refs).unwrap();
        prop_assert_eq!(&back, &m, "vstack ∘ row_slice must be the identity");
    }

    /// Stacking preserves per-column entry counts and shifts row indices
    /// by the height of everything stacked above.
    #[test]
    fn vstack_offsets_and_counts(a in matrix_strategy(), b in matrix_strategy()) {
        // Give b the same column count as a by slicing the wider one.
        let n = a.ncols().min(b.ncols());
        let a = a.slice_cols(0, n);
        let b = b.slice_cols(0, n);
        let s = CscMatrix::vstack(&[&a, &b]).unwrap();
        prop_assert_eq!(s.shape(), (a.nrows() + b.nrows(), n));
        prop_assert_eq!(s.nnz(), a.nnz() + b.nnz());
        for j in 0..n {
            prop_assert_eq!(s.col_nnz(j), a.col_nnz(j) + b.col_nnz(j));
        }
        for (r, c, v) in b.iter() {
            prop_assert_eq!(s.get(r as usize + a.nrows(), c as usize).unwrap(), v);
        }
    }

    /// The one-pass multi-way split produces exactly the slabs the
    /// per-range `row_slice` calls would.
    #[test]
    fn row_split_agrees_with_row_slice(
        m in matrix_strategy(),
        shards in 1usize..6,
    ) {
        let rows = m.nrows();
        let bounds: Vec<usize> = (0..=shards).map(|s| s * rows / shards).collect();
        let slabs = m.row_split(&bounds);
        prop_assert_eq!(slabs.len(), shards);
        for (p, slab) in slabs.iter().enumerate() {
            prop_assert_eq!(slab, &m.row_slice(bounds[p], bounds[p + 1]));
        }
    }
}
