//! Property tests for the SpKAdd data structures against simple oracle
//! models: the hash accumulator vs a BTreeMap, the SPA vs a dense array,
//! the k-way heap vs a sort-based merge, and the partitioners'
//! tiling invariants.

use proptest::prelude::*;
use spk_sparse::ColView;
use spkadd::hashtab::{HashAccumulator, SymbolicHashTable};
use spkadd::heap::KwayHeap;
use spkadd::mem::NullModel;
use spkadd::monoid::Plus;
use spkadd::parallel::{equal_ranges, exclusive_prefix_sum, weighted_ranges};
use spkadd::spa::Spa;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// HashAccumulator behaves exactly like a BTreeMap<row, sum>.
    #[test]
    fn hash_accumulator_matches_btreemap(
        entries in proptest::collection::vec((0u32..64, -8i32..8), 0..80)
    ) {
        let mut ht = HashAccumulator::<f64>::with_capacity(entries.len());
        let mut oracle: BTreeMap<u32, f64> = BTreeMap::new();
        let mut mem = NullModel;
        for &(r, v) in &entries {
            ht.insert_combine(r, v as f64, Plus::new(), &mut mem);
            *oracle.entry(r).or_insert(0.0) += v as f64;
        }
        prop_assert_eq!(ht.len(), oracle.len());
        let mut rows = vec![0u32; oracle.len()];
        let mut vals = vec![0.0f64; oracle.len()];
        let n = ht.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        prop_assert_eq!(n, oracle.len());
        for (i, (&r, &v)) in oracle.iter().enumerate() {
            prop_assert_eq!(rows[i], r);
            prop_assert_eq!(vals[i], v);
        }
    }

    /// The symbolic table counts exactly the distinct keys.
    #[test]
    fn symbolic_table_counts_distinct(
        keys in proptest::collection::vec(0u32..256, 0..200)
    ) {
        let mut ht = SymbolicHashTable::with_capacity(keys.len());
        let mut mem = NullModel;
        let mut fresh = 0usize;
        for &k in &keys {
            if ht.insert(k, &mut mem) {
                fresh += 1;
            }
        }
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(fresh, unique.len());
        prop_assert_eq!(ht.len(), unique.len());
    }

    /// The SPA matches a dense accumulation array.
    #[test]
    fn spa_matches_dense_array(
        entries in proptest::collection::vec((0u32..48, -8i32..8), 0..100)
    ) {
        let m = 48usize;
        let mut spa = Spa::<f64>::new(m);
        let mut dense = vec![0.0f64; m];
        let mut touched = vec![false; m];
        let mut mem = NullModel;
        for &(r, v) in &entries {
            spa.scatter_combine(r, v as f64, Plus::new(), &mut mem);
            dense[r as usize] += v as f64;
            touched[r as usize] = true;
        }
        let count = touched.iter().filter(|&&t| t).count();
        let mut rows = vec![0u32; count];
        let mut vals = vec![0.0f64; count];
        let n = spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        prop_assert_eq!(n, count);
        for (r, v) in rows.iter().zip(&vals) {
            prop_assert_eq!(*v, dense[*r as usize]);
        }
    }

    /// The k-way heap merge equals a sort-and-sum over the same entries.
    #[test]
    fn heap_merge_matches_sort_based_merge(
        cols in proptest::collection::vec(
            proptest::collection::btree_map(0u32..64, -8i32..8, 0..16),
            1..6
        )
    ) {
        let data: Vec<(Vec<u32>, Vec<f64>)> = cols
            .iter()
            .map(|m| {
                let rows: Vec<u32> = m.keys().copied().collect();
                let vals: Vec<f64> = m.values().map(|&v| v as f64).collect();
                (rows, vals)
            })
            .collect();
        let views: Vec<ColView<'_, f64>> = data
            .iter()
            .map(|(r, v)| ColView { rows: r, vals: v })
            .collect();
        let mut oracle: BTreeMap<u32, f64> = BTreeMap::new();
        for (rows, vals) in &data {
            for (r, v) in rows.iter().zip(vals) {
                *oracle.entry(*r).or_insert(0.0) += v;
            }
        }
        let cap: usize = data.iter().map(|(r, _)| r.len()).sum();
        let mut out_rows = vec![0u32; cap.max(1)];
        let mut out_vals = vec![0.0f64; cap.max(1)];
        let mut heap = KwayHeap::<f64>::new(views.len());
        let n = heap.add_column(&views, &mut out_rows, &mut out_vals, Plus::new(), &mut NullModel);
        prop_assert_eq!(n, oracle.len());
        for (i, (&r, &v)) in oracle.iter().enumerate() {
            prop_assert_eq!(out_rows[i], r);
            prop_assert_eq!(out_vals[i], v);
        }
        // Symbolic agrees.
        prop_assert_eq!(heap.count_column(&views, &mut NullModel), oracle.len());
    }

    /// Range planners tile [0, n) contiguously with no gaps or overlaps.
    #[test]
    fn partitioners_tile_exactly(
        weights in proptest::collection::vec(0usize..100, 1..64),
        parts in 1usize..12
    ) {
        for ranges in [
            weighted_ranges(&weights, parts),
            equal_ranges(weights.len(), parts),
        ] {
            prop_assert_eq!(ranges.first().unwrap().start, 0);
            prop_assert_eq!(ranges.last().unwrap().end, weights.len());
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            prop_assert!(ranges.len() <= parts.max(1));
        }
    }

    /// Weighted ranges achieve ≤ 2× the ideal max-range weight whenever
    /// no single element exceeds the ideal (the greedy-cut guarantee).
    #[test]
    fn weighted_ranges_are_balanced(
        weights in proptest::collection::vec(1usize..50, 4..64),
    ) {
        let parts = 4usize;
        let total: usize = weights.iter().sum();
        let ideal = total.div_ceil(parts);
        let max_single = *weights.iter().max().unwrap();
        let ranges = weighted_ranges(&weights, parts);
        let heaviest = ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum::<usize>())
            .max()
            .unwrap();
        prop_assert!(
            heaviest <= 2 * ideal + max_single,
            "heaviest range {} vs ideal {} (max single {})",
            heaviest, ideal, max_single
        );
    }

    /// Prefix sums are monotone and end at the total.
    #[test]
    fn prefix_sum_invariants(counts in proptest::collection::vec(0usize..1000, 0..64)) {
        let p = exclusive_prefix_sum(&counts);
        prop_assert_eq!(p.len(), counts.len() + 1);
        prop_assert_eq!(p[0], 0);
        prop_assert_eq!(*p.last().unwrap(), counts.iter().sum::<usize>());
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(p[i + 1] - p[i], *c);
        }
    }
}
