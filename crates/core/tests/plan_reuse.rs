//! Plan-reuse contract: one `SpkAddPlan` executed over many random
//! collections must match a fresh one-shot `spkadd_with` **bit for bit**
//! for every algorithm (plus `Auto`), and the steady-state path must
//! perform zero workspace allocations after the first execution.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::CscMatrix;
use spkadd::{
    spkadd_with, Algorithm, Monoid, Options, Plus, SpkAdd, SpkaddError, SymbolicStrategy,
    ThresholdedPlus,
};

const ROWS: usize = 48;
const COLS: usize = 12;

/// Deterministic "random" collection for case `i`: k, density, pattern,
/// and sortedness all vary with the case number.
fn collection(i: u64) -> (Vec<CscMatrix<f64>>, bool) {
    let k = 1 + (i % 6) as usize;
    let d = 1 + ((i * 7) % 11) as usize;
    let pattern = if i.is_multiple_of(2) {
        Pattern::Er
    } else {
        Pattern::Rmat
    };
    let mut mats = generate_collection(pattern, ROWS, COLS, d, k, 1000 + i);
    let scramble = i.is_multiple_of(3);
    if scramble {
        // Reverse every column's entries: unsorted wherever a column has
        // more than one entry.
        for m in &mut mats {
            let (rows, cols, colptr, mut ridx, mut vals) =
                std::mem::replace(m, CscMatrix::zeros(ROWS, COLS)).into_parts();
            for j in 0..cols {
                ridx[colptr[j]..colptr[j + 1]].reverse();
                vals[colptr[j]..colptr[j + 1]].reverse();
            }
            *m = CscMatrix::try_new(rows, cols, colptr, ridx, vals).unwrap();
        }
    }
    (mats, scramble)
}

#[test]
fn one_plan_matches_fresh_oneshot_over_50_random_collections() {
    let opts = Options::default();
    for alg in Algorithm::ALL
        .into_iter()
        .chain(Algorithm::EXTENSIONS)
        .chain([Algorithm::Auto])
    {
        let mut plan = SpkAdd::new(ROWS, COLS)
            .algorithm(alg)
            .build::<f64>()
            .unwrap();
        for case in 0..50u64 {
            let (mats, _) = collection(case);
            let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
            let planned = plan.execute(&refs);
            let oneshot = spkadd_with(&refs, alg, &opts);
            match (planned, oneshot) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{alg} case {case}: plan != one-shot (bit-for-bit)")
                }
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{alg} case {case}: error mismatch"
                ),
                (a, b) => panic!(
                    "{alg} case {case}: plan and one-shot disagree on success: \
                     plan={a:?} oneshot={b:?}"
                ),
            }
        }
        assert_eq!(plan.executions() + count_rejected(alg), 50);
    }
}

/// Executions that error (unsorted inputs for the sorted-only
/// algorithms) don't count as completed plan executions.
fn count_rejected(alg: Algorithm) -> u64 {
    if !alg.needs_sorted_inputs() {
        return 0;
    }
    (0..50u64)
        .filter(|&case| {
            let (mats, _) = collection(case);
            mats.iter().any(|m| !m.is_sorted())
        })
        .count() as u64
}

#[test]
fn sorted_only_algorithms_reject_then_keep_working() {
    // A plan that errors on an unsorted collection stays usable.
    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Heap)
        .build::<f64>()
        .unwrap();
    let (unsorted, scrambled) = collection(0); // case 0 is scrambled
    assert!(scrambled);
    let refs: Vec<&CscMatrix<f64>> = unsorted.iter().collect();
    assert!(matches!(
        plan.execute(&refs),
        Err(SpkaddError::UnsortedInput { .. })
    ));
    let (sorted, scrambled) = collection(1);
    assert!(!scrambled);
    let refs: Vec<&CscMatrix<f64>> = sorted.iter().collect();
    let out = plan.execute(&refs).unwrap();
    assert_eq!(
        out,
        spkadd_with(&refs, Algorithm::Heap, &Options::default()).unwrap()
    );
}

#[test]
fn steady_state_executes_with_zero_workspace_allocations() {
    // Small forced budget so the sliding kernels genuinely panel (and
    // exercise their scratch), single worker so the count is exact.
    for (alg, forced) in [
        (Algorithm::Hash, None),
        (Algorithm::SlidingHash, Some(8)),
        (Algorithm::Spa, None),
        (Algorithm::SlidingSpa, Some(8)),
        (Algorithm::Heap, None),
        (Algorithm::TwoWayTree, None),
    ] {
        let mats = generate_collection(Pattern::Er, ROWS, COLS, 6, 4, 7);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let mut plan = SpkAdd::new(ROWS, COLS)
            .algorithm(alg)
            .options(Options {
                forced_table_entries: forced,
                ..Options::default()
            })
            .threads(1)
            .build::<f64>()
            .unwrap();
        let first = plan.execute(&refs).unwrap();
        let after_first = plan.workspace_allocations();
        let mut sink = first.clone();
        for _ in 0..5 {
            plan.execute_into_timed(&refs, &mut sink).unwrap();
            assert_eq!(sink, first, "{alg}: repeat execution differs");
        }
        assert_eq!(
            plan.workspace_allocations(),
            after_first,
            "{alg}: steady-state executions must not allocate workspaces"
        );
        assert_eq!(plan.executions(), 6);
    }
}

/// Executes Hash with `opts` and `monoid` twice into one sink at a steady
/// shape: the second execution must refill the sink's own buffers, and
/// both must equal a fresh plan's one-shot result.
fn compacting_execution_refills_the_sink<O: Monoid<Value = f64>>(
    opts: Options,
    monoid: O,
    label: &str,
) {
    let mats = generate_collection(Pattern::Er, ROWS, COLS, 6, 5, 17);
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let build = || {
        SpkAdd::new(ROWS, COLS)
            .algorithm(Algorithm::Hash)
            .options(opts.clone())
            .threads(1)
            .build_with_monoid::<f64, O>(monoid)
            .unwrap()
    };
    let expect = build().execute(&refs).unwrap();
    let upper_bound: usize = mats.iter().map(|m| m.nnz()).sum();
    assert!(expect.nnz() < upper_bound, "{label}: nothing to compact");

    let mut plan = build();
    let mut sink = CscMatrix::zeros(0, 0);
    plan.execute_into_timed(&refs, &mut sink).unwrap();
    assert_eq!(sink, expect, "{label}: first execution");
    let ptrs = (
        sink.colptr().as_ptr(),
        sink.rowidx().as_ptr(),
        sink.values().as_ptr(),
    );
    plan.execute_into_timed(&refs, &mut sink).unwrap();
    assert_eq!(sink, expect, "{label}: repeat execution");
    assert_eq!(
        (
            sink.colptr().as_ptr(),
            sink.rowidx().as_ptr(),
            sink.values().as_ptr(),
        ),
        ptrs,
        "{label}: the compacting path must reuse the sink's buffers"
    );
}

#[test]
fn compacting_executions_reuse_the_sink() {
    let upper = Options {
        symbolic: SymbolicStrategy::UpperBound,
        ..Options::default()
    };
    compacting_execution_refills_the_sink(upper, Plus::new(), "UpperBound");
    // A filtering monoid demotes even exact counts to upper bounds.
    compacting_execution_refills_the_sink(
        Options::default(),
        ThresholdedPlus::new(1.0),
        "ThresholdedPlus",
    );
}

#[test]
fn auto_plan_adapts_across_collection_shapes() {
    let mut plan = SpkAdd::new(ROWS, COLS).build::<f64>().unwrap();
    // k = 2 (pairwise regime) and k = 6 (k-way regime) through one plan.
    for k in [2usize, 6, 2, 6] {
        let mats = generate_collection(Pattern::Er, ROWS, COLS, 4, k, 99 + k as u64);
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        let out = plan.execute(&refs).unwrap();
        let expect = spkadd_with(&refs, Algorithm::Auto, &Options::default()).unwrap();
        assert_eq!(out, expect);
    }
}
