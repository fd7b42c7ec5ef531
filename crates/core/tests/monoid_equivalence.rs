//! End-to-end monoid equivalence over the full driver stack.
//!
//! Two families of pins:
//!
//! 1. **`Plus<f64>` is the scalar path, bit for bit.** A plan built with
//!    `build_with_monoid(Plus::new())` must produce *exactly* the matrix
//!    of the one-shot `spkadd_with` for every algorithm — both run the
//!    same monomorphized code, so even float rounding must agree.
//! 2. **Non-`+` monoids match independent dense reference folds.** OR
//!    union, tropical min, and the thresholded (filtering) plus are
//!    each checked against a model built with plain loops.
//!
//! Filtering monoids are checked against the one-pass filter through the
//! k-way algorithms only: the 2-way/library folds apply `keep` at every
//! pairwise merge, a semantically different (documented) reduction once
//! there is more than one merge. Their order is pinned instead against
//! dense models of the left fold and the level-by-level tree.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::{CscMatrix, Element};
use spkadd::{spkadd_with, Algorithm, Min, Monoid, Options, Or, Plus, SpkAdd, ThresholdedPlus};

/// One reduction under `monoid` through a throwaway plan.
fn reduce<T: Element, O: Monoid<Value = T>>(
    mats: &[&CscMatrix<T>],
    monoid: O,
    alg: Algorithm,
    opts: &Options,
) -> CscMatrix<T> {
    let (m, n) = mats[0].shape();
    SpkAdd::new(m, n)
        .algorithm(alg)
        .options(opts.clone())
        .build_with_monoid(monoid)
        .unwrap()
        .execute(mats)
        .unwrap()
}

const ALL_ALGORITHMS: [Algorithm; 10] = [
    Algorithm::TwoWayIncremental,
    Algorithm::TwoWayTree,
    Algorithm::LibIncremental,
    Algorithm::LibTree,
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
    Algorithm::Auto,
];

/// K-way single-fold algorithms — safe for filtering monoids.
const KWAY_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
];

fn collection() -> Vec<CscMatrix<f64>> {
    generate_collection(Pattern::Rmat, 64, 32, 4, 6, 0xA11CE)
}

/// Same structure, small integer values — exact fp arithmetic, so dense
/// reference folds are order-independent.
fn integer_valued(mats: &[CscMatrix<f64>]) -> Vec<CscMatrix<f64>> {
    mats.iter()
        .map(|m| {
            let (nr, nc, colptr, rows, vals) = m.clone().into_parts();
            let vals = (0..vals.len())
                .map(|i| (i % 7) as f64 - 3.0)
                .collect::<Vec<_>>();
            CscMatrix::from_parts(nr, nc, colptr, rows, vals)
        })
        .collect()
}

/// Same structure, all-`true` boolean snapshots.
fn boolean_valued(mats: &[CscMatrix<f64>]) -> Vec<CscMatrix<bool>> {
    mats.iter()
        .map(|m| {
            let (nr, nc, colptr, rows, vals) = m.clone().into_parts();
            CscMatrix::from_parts(nr, nc, colptr, rows, vec![true; vals.len()])
        })
        .collect()
}

#[test]
fn plus_is_bitwise_identical_to_scalar_path_for_every_algorithm() {
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let opts = Options::default();
    for alg in ALL_ALGORITHMS {
        let scalar = spkadd_with(&refs, alg, &opts).unwrap();
        let monoid = reduce(&refs, Plus::new(), alg, &opts);
        assert_eq!(monoid, scalar, "{alg:?}: Plus must be the scalar path");
    }
}

#[test]
fn or_union_matches_dense_reference_for_every_algorithm() {
    let mats = boolean_valued(&collection());
    let refs: Vec<&CscMatrix<bool>> = mats.iter().collect();
    let (m, n) = refs[0].shape();
    let mut dense = vec![false; m * n];
    for mat in &refs {
        for (r, c, v) in mat.iter() {
            dense[c as usize * m + r as usize] |= v;
        }
    }
    let opts = Options::default();
    for alg in ALL_ALGORITHMS {
        let union = reduce(&refs, Or, alg, &opts);
        for j in 0..n {
            let col = union.col(j);
            let expect: Vec<u32> = (0..m as u32)
                .filter(|&r| dense[j * m + r as usize])
                .collect();
            assert_eq!(col.rows, expect.as_slice(), "{alg:?}: column {j} union");
            assert!(col.vals.iter().all(|&v| v), "{alg:?}: union is all true");
        }
    }
}

#[test]
fn tropical_min_matches_dense_reference() {
    let mats = integer_valued(&collection());
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (m, n) = refs[0].shape();
    // Dense reference: min over *structurally present* entries.
    let mut best = vec![f64::INFINITY; m * n];
    let mut present = vec![false; m * n];
    for mat in &refs {
        for (r, c, v) in mat.iter() {
            let idx = c as usize * m + r as usize;
            best[idx] = best[idx].min(v);
            present[idx] = true;
        }
    }
    let opts = Options::default();
    for alg in ALL_ALGORITHMS {
        let out = reduce(&refs, Min::<f64>::new(), alg, &opts);
        for j in 0..n {
            let col = out.col(j);
            let expect: Vec<(u32, f64)> = (0..m as u32)
                .filter(|&r| present[j * m + r as usize])
                .map(|r| (r, best[j * m + r as usize]))
                .collect();
            let got: Vec<(u32, f64)> = col.iter().collect();
            assert_eq!(got, expect, "{alg:?}: column {j} tropical min");
        }
    }
}

#[test]
fn thresholded_plus_matches_filtered_dense_reference() {
    let mats = integer_valued(&collection());
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let (m, n) = refs[0].shape();
    let eps = 1.5f64;
    // Dense reference: exact integer sums, then one global |sum| >= eps
    // filter — the single-fold semantics the k-way algorithms implement.
    let mut sums = vec![0.0f64; m * n];
    let mut present = vec![false; m * n];
    for mat in &refs {
        for (r, c, v) in mat.iter() {
            let idx = c as usize * m + r as usize;
            sums[idx] += v;
            present[idx] = true;
        }
    }
    let monoid = ThresholdedPlus { eps };
    let opts = Options::default();
    for alg in KWAY_ALGORITHMS {
        let out = reduce(&refs, monoid, alg, &opts);
        for j in 0..n {
            let col = out.col(j);
            let expect: Vec<(u32, f64)> = (0..m as u32)
                .filter(|&r| {
                    let idx = j * m + r as usize;
                    present[idx] && sums[idx].abs() >= eps
                })
                .map(|r| (r, sums[j * m + r as usize]))
                .collect();
            let got: Vec<(u32, f64)> = col.iter().collect();
            assert_eq!(got, expect, "{alg:?}: column {j} thresholded sum");
        }
        assert!(
            out.nnz() < refs.iter().map(|r| r.nnz()).sum::<usize>(),
            "{alg:?}: the threshold must actually drop entries"
        );
    }
}

#[test]
fn thresholded_plus_drops_cancelling_entries() {
    // Two matrices whose overlapping entries cancel exactly: the sum at
    // (0,0) is 0.0, which |.| >= eps drops; the non-overlapping entries
    // survive. Exercises the count→upper-bound→compaction route.
    let a = CscMatrix::try_new(4, 2, vec![0, 2, 3], vec![0, 2, 1], vec![5.0, 1.0, 2.0]).unwrap();
    let b = CscMatrix::try_new(4, 2, vec![0, 1, 2], vec![0, 3], vec![-5.0, 4.0]).unwrap();
    let monoid = ThresholdedPlus { eps: 0.5 };
    let opts = Options::default();
    for alg in KWAY_ALGORITHMS {
        let out = reduce(&[&a, &b], monoid, alg, &opts);
        assert_eq!(out.nnz(), 3, "{alg:?}: cancelled entry must vanish");
        assert_eq!(out.col(0).rows, &[2], "{alg:?}");
        assert_eq!(out.col(1).rows, &[1, 3], "{alg:?}");
    }
}

#[test]
fn thresholded_plus_compacts_the_pairwise_folds() {
    // On one pair every fold is a single merge, so per-level filtering is
    // the global filter. The 2-way merge sizes its windows from a
    // value-free count (an upper bound here) and must squeeze out the
    // cancelled slot: compare the exact structure, not just the sum.
    let a = CscMatrix::try_new(4, 2, vec![0, 2, 3], vec![0, 2, 1], vec![5.0, 1.0, 2.0]).unwrap();
    let b = CscMatrix::try_new(4, 2, vec![0, 1, 2], vec![0, 3], vec![-5.0, 4.0]).unwrap();
    let expect =
        CscMatrix::try_new(4, 2, vec![0, 1, 3], vec![2, 1, 3], vec![1.0, 2.0, 4.0]).unwrap();
    let monoid = ThresholdedPlus { eps: 0.5 };
    let opts = Options::default();
    for alg in [
        Algorithm::TwoWayTree,
        Algorithm::TwoWayIncremental,
        Algorithm::LibTree,
        Algorithm::LibIncremental,
    ] {
        let out = reduce(&[&a, &b], monoid, alg, &opts);
        assert_eq!(
            out, expect,
            "{alg:?}: cancelled slot must be compacted away"
        );
    }
}

/// A matrix as dense column-major cells; `None` is a structural zero.
fn cells(a: &CscMatrix<f64>) -> Vec<Option<f64>> {
    let m = a.nrows();
    let mut out = vec![None; m * a.ncols()];
    for (r, c, v) in a.iter() {
        out[c as usize * m + r as usize] = Some(v);
    }
    out
}

/// One filtered pairwise merge of dense cells: `a + b` where both are
/// stored, else the one stored side, then `keep` on every result.
fn merge_cells(a: &[Option<f64>], b: &[Option<f64>], monoid: ThresholdedPlus) -> Vec<Option<f64>> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| match (x, y) {
            (Some(x), Some(y)) => Some(x + y),
            (x, None) | (None, x) => x,
        })
        .map(|v| v.filter(|v| monoid.keep(v)))
        .collect()
}

/// Dense cells back to a CSC matrix with ascending rows.
fn from_cells(m: usize, n: usize, cells: &[Option<f64>]) -> CscMatrix<f64> {
    let (mut colptr, mut rows, mut vals) = (vec![0], Vec::new(), Vec::new());
    for j in 0..n {
        for r in 0..m {
            if let Some(v) = cells[j * m + r] {
                rows.push(r as u32);
                vals.push(v);
            }
        }
        colptr.push(rows.len());
    }
    CscMatrix::try_new(m, n, colptr, rows, vals).unwrap()
}

#[test]
fn filtering_folds_keep_their_merge_order() {
    // Under a threshold, where the filter runs changes the result, so
    // each pairwise fold must match a model of its own merge order: the
    // incremental folds filter after every step from an unfiltered first
    // operand; the trees pair neighbours level by level and carry an odd
    // last matrix up unfiltered. k = 7 has odd levels, k = 8 has none.
    let monoid = ThresholdedPlus::new(1.5);
    let opts = Options::default();
    for k in [7, 8] {
        let mats = generate_collection(Pattern::Er, 256, 32, 8, k, 3);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let (m, n) = refs[0].shape();

        let mut left = cells(refs[0]);
        for a in &refs[1..] {
            left = merge_cells(&left, &cells(a), monoid);
        }
        let mut level: Vec<Vec<Option<f64>>> = refs.iter().map(|a| cells(a)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|p| match p {
                    [a, b] => merge_cells(a, b, monoid),
                    [a] => a.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
        let (left, tree) = (from_cells(m, n, &left), from_cells(m, n, &level[0]));
        assert_ne!(left, tree, "k={k}: the two merge orders must differ here");

        for (alg, expect) in [
            (Algorithm::TwoWayIncremental, &left),
            (Algorithm::LibIncremental, &left),
            (Algorithm::TwoWayTree, &tree),
            (Algorithm::LibTree, &tree),
        ] {
            let out = reduce(&refs, monoid, alg, &opts);
            assert_eq!(&out, expect, "k={k}, {alg:?}: fold order changed");
        }
    }
}
