//! The sliding kernels: the paper's sliding hash (Algorithms 7 and 8) and
//! its §IV-B(b) sliding SPA.
//!
//! Plain hash SpKAdd goes out of cache when the per-thread tables exceed
//! the shared last-level cache: with `T` threads and `b` bytes per entry,
//! a column whose table needs more than `M / (b·T)` entries starts missing
//! in LLC on every random probe. The sliding scheme splits the row space
//! `[0, m)` into `parts = ⌈needed·b·T / M⌉` equal ranges and runs the plain
//! hash kernel once per range, so each table stays cache-resident and the
//! output is produced range by range ("sliding" down the column). The
//! sliding SPA applies the same scheme to the dense accumulator: a SPA of
//! `budget` rows, reused for `⌈m / budget⌉` panels with rows rebased to
//! each panel's first row.
//!
//! All three kernels (the hash symbolic, the hash numeric and the SPA
//! numeric) keep a one-panel fast path that is the plain kernel, and walk
//! their panels through one function, `for_each_panel`, which owns the
//! panel bounds and how a panel is found. Row panels are located by
//! binary search when the input columns are sorted (the paper's method).
//! For unsorted inputs — which plain hash accepts and sliding hash should
//! too — a single bucketing pass scatters entries into per-part scratch
//! buffers instead, preserving the O(nnz) per-column cost. Sortedness may
//! be an unchecked caller promise (`validate_sorted: false`), so
//! `search_panels` confirms it column by column before binary search is
//! trusted.

use crate::hashtab::{HashAccumulator, SymbolicHashTable};
use crate::kernels::{hash_add_column, hash_symbolic_column, spa_add_column, stream_column};
use crate::mem::MemModel;
use crate::monoid::Monoid;
use crate::spa::Spa;
use spk_sparse::{ColView, Element};

/// Per-thread hash-table budget in *entries*, derived from the machine
/// model (Alg 7/8 line 3 rearranged): `M / (b·T)`.
#[inline]
pub fn budget_entries(llc_bytes: usize, entry_bytes: usize, threads: usize) -> usize {
    (llc_bytes / (entry_bytes.max(1) * threads.max(1))).max(16)
}

/// Number of row panels needed so each panel's table fits the budget
/// (Alg 7 line 3 with the budget substituted): `⌈needed / budget⌉`.
#[inline]
pub fn num_parts(needed_entries: usize, budget: usize) -> usize {
    needed_entries.div_ceil(budget.max(1)).max(1)
}

/// Reusable scratch for the unsorted bucketing path.
#[derive(Debug, Default)]
pub struct SlidingScratch<T> {
    rows: Vec<Vec<u32>>,
    vals: Vec<Vec<T>>,
}

impl<T: Element> SlidingScratch<T> {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn prepare(&mut self, parts: usize) {
        while self.rows.len() < parts {
            self.rows.push(Vec::new());
            self.vals.push(Vec::new());
        }
        for p in 0..parts {
            self.rows[p].clear();
            self.vals[p].clear();
        }
    }
}

/// Whether binary search may carve row panels out of `cols`: the inputs
/// are said to be sorted (`inputs_sorted`) and every column here is. On an
/// unsorted column binary search returns slices that drop entries,
/// repeat them, or hold rows outside the panel, so a broken promise
/// would give a wrong sum or an out-of-range panel index. The check is
/// one streaming compare over the row indices; columns that fail it are
/// bucketed, which is correct for any order.
#[inline]
fn search_panels<T>(inputs_sorted: bool, cols: &[ColView<'_, T>]) -> bool {
    inputs_sorted && cols.iter().all(|c| c.rows.is_sorted())
}

/// Panel boundary for part `i` of `parts` over `m` rows (Alg 7 line 9).
#[inline]
fn panel_bound(i: usize, parts: usize, m: usize) -> u32 {
    ((i as u64 * m as u64) / parts as u64) as u32
}

/// The panel loop of Algorithms 7 and 8, shared by the three sliding
/// kernels: walks `cols` in `parts` row panels tiling `[0, m)` and calls
/// `panel(views, first_row)` once per panel, in ascending row order.
/// Sorted columns are cut by binary search into one view per input
/// column; otherwise (see [`search_panels`]) one bucketing pass copies
/// the entries into `scratch`, and each panel is one view of its bucket,
/// in input order. `panel` is a `dyn` closure, so the walk is built once
/// per element type, not once per kernel (see DESIGN.md, "Driver
/// plumbing, and what codegen placement allows").
fn for_each_panel<T: Element>(
    cols: &[ColView<'_, T>],
    m: usize,
    parts: usize,
    inputs_sorted: bool,
    scratch: &mut SlidingScratch<T>,
    panel: &mut dyn FnMut(&[ColView<'_, T>], u32),
) {
    let bounds: Vec<u32> = (0..=parts).map(|i| panel_bound(i, parts, m)).collect();
    if search_panels(inputs_sorted, cols) {
        let mut sub: Vec<ColView<'_, T>> = Vec::with_capacity(cols.len());
        for w in bounds.windows(2) {
            sub.clear();
            sub.extend(cols.iter().map(|c| c.row_range(w[0], w[1])));
            panel(&sub, w[0]);
        }
    } else {
        scratch.prepare(parts);
        for col in cols {
            for (r, v) in col.iter() {
                let p = bounds.partition_point(|&b| b <= r) - 1;
                scratch.rows[p].push(r);
                scratch.vals[p].push(v);
            }
        }
        for (p, &r1) in bounds[..parts].iter().enumerate() {
            let view = ColView {
                rows: &scratch.rows[p],
                vals: &scratch.vals[p],
            };
            panel(&[view], r1);
        }
    }
}

/// The paper's budget semantics for one panel's table: allocate at most
/// `budget` entries; a panel with more distinct rows grows on demand.
#[inline]
fn panel_table_entries<T: Element>(panel: &[ColView<'_, T>], budget: usize) -> usize {
    panel.iter().map(|c| c.nnz()).sum::<usize>().min(budget)
}

/// Sliding-hash symbolic phase for one column (Algorithm 7): counts
/// `nnz(B(:,j))` using tables of at most `budget` entries.
///
/// `inputs_sorted` selects binary-search panelling (paper) vs bucketing
/// (see `search_panels`).
#[allow(clippy::too_many_arguments)]
pub fn sliding_symbolic_column<T: Element, M: MemModel>(
    cols: &[ColView<'_, T>],
    m: usize,
    budget: usize,
    ht: &mut SymbolicHashTable,
    inputs_sorted: bool,
    scratch: &mut SlidingScratch<T>,
    mem: &mut M,
) -> usize {
    let inz: usize = cols.iter().map(|c| c.nnz()).sum();
    let parts = num_parts(inz, budget);
    if parts == 1 {
        ht.reserve_for(inz);
        return hash_symbolic_column(cols, ht, mem);
    }
    let mut nz = 0usize;
    for_each_panel(cols, m, parts, inputs_sorted, scratch, &mut |panel, _| {
        ht.reserve_for(panel_table_entries(panel, budget));
        nz += hash_symbolic_column(panel, ht, mem);
    });
    nz
}

/// Sliding-hash addition for one column (Algorithm 8): fills the output
/// slices panel by panel using tables of at most `budget` entries.
/// `onz` is the column's output size from the symbolic phase. Returns the
/// entries written.
///
/// Panels cover ascending row ranges, so when `sorted` is requested each
/// panel is emitted sorted and the concatenation is globally sorted.
/// Duplicate rows fold with `monoid`; with a filtering monoid the symbolic
/// `onz` is only an upper bound, so fewer than `onz` entries may be
/// written.
#[allow(clippy::too_many_arguments)]
pub fn sliding_add_column<T: Element, O: Monoid<Value = T>, M: MemModel>(
    cols: &[ColView<'_, T>],
    m: usize,
    budget: usize,
    onz: usize,
    ht: &mut HashAccumulator<T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    sorted: bool,
    inputs_sorted: bool,
    monoid: O,
    scratch: &mut SlidingScratch<T>,
    mem: &mut M,
) -> usize {
    let parts = num_parts(onz, budget);
    if parts == 1 {
        ht.reserve_for(onz);
        return hash_add_column(cols, ht, out_rows, out_vals, sorted, monoid, mem);
    }
    let mut written = 0usize;
    for_each_panel(cols, m, parts, inputs_sorted, scratch, &mut |panel, _| {
        ht.reserve_for(panel_table_entries(panel, budget));
        let (rows, vals) = (&mut out_rows[written..], &mut out_vals[written..]);
        written += hash_add_column(panel, ht, rows, vals, sorted, monoid, mem);
    });
    debug_assert!(if O::MAY_FILTER {
        written <= onz
    } else {
        written == onz
    });
    written
}

/// Sliding (row-partitioned) SPA addition for one column — the paper's
/// §IV-B(b) suggestion: "the benefits of sliding hash can also be
/// observed in the SPA algorithm if we partition the SPA array based on
/// row indices".
///
/// The dense accumulator covers only `budget_rows` rows at a time; the
/// row space is swept in `⌈m / budget_rows⌉` panels, each using the same
/// cache-resident SPA segment with indices rebased to the panel. Requires
/// `spa.num_rows() ≥ min(m, budget_rows)`. Duplicate rows fold with
/// `monoid`. One panel is [`spa_add_column`] itself; with more, each
/// panel's views are streamed into `mem` as that kernel streams its
/// input columns, so both meter the same input traffic.
#[allow(clippy::too_many_arguments)]
pub fn sliding_spa_add_column<T: Element, O: Monoid<Value = T>, M: MemModel>(
    cols: &[ColView<'_, T>],
    m: usize,
    budget_rows: usize,
    spa: &mut Spa<T>,
    out_rows: &mut [u32],
    out_vals: &mut [T],
    sorted: bool,
    inputs_sorted: bool,
    monoid: O,
    scratch: &mut SlidingScratch<T>,
    mem: &mut M,
) -> usize {
    let parts = num_parts(m, budget_rows);
    if parts == 1 {
        return spa_add_column(cols, spa, out_rows, out_vals, sorted, monoid, mem);
    }
    debug_assert!(spa.num_rows() >= budget_rows);
    let mut written = 0usize;
    for_each_panel(cols, m, parts, inputs_sorted, scratch, &mut |panel, r1| {
        for col in panel {
            stream_column(col, mem);
            for (r, v) in col.iter() {
                spa.scatter_combine(r - r1, v, monoid, mem);
            }
        }
        let (rows, vals) = (&mut out_rows[written..], &mut out_vals[written..]);
        let n = spa.drain_into(rows, vals, sorted, monoid, mem);
        // Rebase panel-local rows to global indices.
        for slot in &mut rows[..n] {
            *slot += r1;
        }
        written += n;
    });
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;

    fn mk_cols() -> (Vec<u32>, Vec<f64>, Vec<u32>, Vec<f64>) {
        // Two columns over m = 64 rows with overlap in every panel.
        let r1: Vec<u32> = (0..64).step_by(2).collect(); // evens
        let v1 = vec![1.0f64; r1.len()];
        let r2: Vec<u32> = (0..64).step_by(3).collect(); // multiples of 3
        let v2 = vec![2.0f64; r2.len()];
        (r1, v1, r2, v2)
    }

    #[test]
    fn budget_and_parts_arithmetic() {
        // 32 MB LLC, 8-byte entries, 48 threads → ~87k entries (Fig 2's
        // example: 128·512 = 65 536 output entries fits; ×12 bytes spills).
        let b = budget_entries(32 << 20, 8, 48);
        assert_eq!(b, (32 << 20) / (8 * 48));
        assert_eq!(num_parts(100, 100), 1);
        assert_eq!(num_parts(101, 100), 2);
        assert_eq!(num_parts(0, 100), 1);
        assert!(budget_entries(0, 8, 4) >= 16, "floor keeps tables usable");
    }

    #[test]
    fn sliding_matches_plain_hash_sorted_path() {
        let (r1, v1, r2, v2) = mk_cols();
        let cols = vec![
            ColView {
                rows: &r1,
                vals: &v1,
            },
            ColView {
                rows: &r2,
                vals: &v2,
            },
        ];
        let mut mem = NullModel;
        // Plain hash reference.
        let mut ht = HashAccumulator::<f64>::with_capacity(64);
        let mut ref_rows = vec![0u32; 64];
        let mut ref_vals = vec![0.0f64; 64];
        let n_ref = crate::kernels::hash_add_column(
            &cols,
            &mut ht,
            &mut ref_rows,
            &mut ref_vals,
            true,
            Plus::new(),
            &mut mem,
        );

        // Sliding with a tiny budget forces many panels.
        let mut sht = SymbolicHashTable::with_capacity(4);
        let mut scratch = SlidingScratch::new();
        let onz = sliding_symbolic_column(&cols, 64, 8, &mut sht, true, &mut scratch, &mut mem);
        assert_eq!(onz, n_ref);
        let mut ht2 = HashAccumulator::<f64>::with_capacity(4);
        let mut rows = vec![0u32; onz];
        let mut vals = vec![0.0f64; onz];
        let n = sliding_add_column(
            &cols,
            64,
            8,
            onz,
            &mut ht2,
            &mut rows,
            &mut vals,
            true,
            true,
            Plus::new(),
            &mut scratch,
            &mut mem,
        );
        assert_eq!(n, n_ref);
        assert_eq!(&rows[..], &ref_rows[..n_ref]);
        assert_eq!(&vals[..], &ref_vals[..n_ref]);
    }

    #[test]
    fn sliding_bucket_path_matches_sorted_path() {
        let (r1, v1, r2, v2) = mk_cols();
        // Shuffle the first column to make it unsorted.
        let mut ru: Vec<u32> = r1.clone();
        ru.reverse();
        let mut vu = v1.clone();
        vu.reverse();
        let sorted_cols = vec![
            ColView {
                rows: &r1,
                vals: &v1,
            },
            ColView {
                rows: &r2,
                vals: &v2,
            },
        ];
        let unsorted_cols = vec![
            ColView {
                rows: &ru,
                vals: &vu,
            },
            ColView {
                rows: &r2,
                vals: &v2,
            },
        ];
        let mut mem = NullModel;
        let mut scratch = SlidingScratch::new();
        let mut sht = SymbolicHashTable::with_capacity(4);
        let onz_sorted =
            sliding_symbolic_column(&sorted_cols, 64, 8, &mut sht, true, &mut scratch, &mut mem);
        let onz_unsorted = sliding_symbolic_column(
            &unsorted_cols,
            64,
            8,
            &mut sht,
            false,
            &mut scratch,
            &mut mem,
        );
        assert_eq!(onz_sorted, onz_unsorted);

        let mut ht = HashAccumulator::<f64>::with_capacity(4);
        let mut rows_a = vec![0u32; onz_sorted];
        let mut vals_a = vec![0.0f64; onz_sorted];
        sliding_add_column(
            &sorted_cols,
            64,
            8,
            onz_sorted,
            &mut ht,
            &mut rows_a,
            &mut vals_a,
            true,
            true,
            Plus::new(),
            &mut scratch,
            &mut mem,
        );
        let mut rows_b = vec![0u32; onz_unsorted];
        let mut vals_b = vec![0.0f64; onz_unsorted];
        sliding_add_column(
            &unsorted_cols,
            64,
            8,
            onz_unsorted,
            &mut ht,
            &mut rows_b,
            &mut vals_b,
            true,
            false,
            Plus::new(),
            &mut scratch,
            &mut mem,
        );
        assert_eq!(rows_a, rows_b);
        assert_eq!(vals_a, vals_b);
    }

    #[test]
    fn single_part_falls_back_to_plain_hash() {
        let (r1, v1, ..) = mk_cols();
        let cols = vec![ColView {
            rows: &r1,
            vals: &v1,
        }];
        let mut sht = SymbolicHashTable::with_capacity(4);
        let mut scratch = SlidingScratch::new();
        let onz = sliding_symbolic_column(
            &cols,
            64,
            1 << 20,
            &mut sht,
            true,
            &mut scratch,
            &mut NullModel,
        );
        assert_eq!(onz, r1.len());
    }

    #[test]
    fn panel_bounds_tile_row_space() {
        let parts = 7;
        let m = 100;
        assert_eq!(panel_bound(0, parts, m), 0);
        assert_eq!(panel_bound(parts, parts, m), 100);
        for i in 0..parts {
            assert!(panel_bound(i, parts, m) <= panel_bound(i + 1, parts, m));
        }
    }

    #[test]
    fn sliding_spa_matches_plain_spa() {
        let m = 64usize;
        let r1: Vec<u32> = (0..64).step_by(2).collect();
        let v1 = vec![1.0f64; r1.len()];
        let r2: Vec<u32> = (0..64).step_by(3).collect();
        let v2 = vec![2.0f64; r2.len()];
        let cols = vec![
            ColView {
                rows: &r1,
                vals: &v1,
            },
            ColView {
                rows: &r2,
                vals: &v2,
            },
        ];
        let mut mem = NullModel;
        // Plain SPA reference.
        let mut plain = Spa::<f64>::new(m);
        let mut ref_rows = vec![0u32; 64];
        let mut ref_vals = vec![0.0f64; 64];
        for col in &cols {
            for (r, v) in col.iter() {
                plain.scatter_combine(r, v, Plus::new(), &mut mem);
            }
        }
        let n_ref = plain.drain_into(&mut ref_rows, &mut ref_vals, true, Plus::new(), &mut mem);

        // Sliding SPA with an 8-row panel, both panelling paths.
        let mut scratch = SlidingScratch::new();
        for inputs_sorted in [true, false] {
            let mut spa = Spa::<f64>::new(8);
            let mut rows = vec![0u32; n_ref];
            let mut vals = vec![0.0f64; n_ref];
            let n = sliding_spa_add_column(
                &cols,
                m,
                8,
                &mut spa,
                &mut rows,
                &mut vals,
                true,
                inputs_sorted,
                Plus::new(),
                &mut scratch,
                &mut mem,
            );
            assert_eq!(n, n_ref, "sorted={inputs_sorted}");
            assert_eq!(&rows[..], &ref_rows[..n_ref]);
            assert_eq!(&vals[..], &ref_vals[..n_ref]);
        }
    }

    #[test]
    fn sliding_spa_single_panel_fallback() {
        let rows_in: Vec<u32> = vec![1, 5, 9];
        let vals_in = vec![1.0f64, 2.0, 3.0];
        let cols = vec![ColView {
            rows: &rows_in,
            vals: &vals_in,
        }];
        let mut spa = Spa::<f64>::new(16);
        let mut rows = vec![0u32; 3];
        let mut vals = vec![0.0f64; 3];
        let n = sliding_spa_add_column(
            &cols,
            16,
            1 << 20,
            &mut spa,
            &mut rows,
            &mut vals,
            true,
            true,
            Plus::new(),
            &mut SlidingScratch::new(),
            &mut NullModel,
        );
        assert_eq!(n, 3);
        assert_eq!(rows, vec![1, 5, 9]);
    }
}
