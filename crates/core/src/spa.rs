//! Sparse accumulator (SPA) — Algorithm 4 of the paper.
//!
//! A SPA is a dense array of length `m` (the number of matrix rows) plus a
//! list of touched indices. The paper represents validity with the `idx`
//! membership list; this implementation uses the classic *generation
//! stamp* refinement (one `u32` epoch per slot) so that clearing between
//! columns is O(entries touched) rather than O(m), while the O(m) memory
//! footprint the paper analyses — the SPA's defining cost at high thread
//! counts, Fig 3 — is preserved (in fact made explicit: `2·m` words per
//! thread-private SPA).

use crate::mem::MemModel;
use crate::monoid::Monoid;
use spk_sparse::{ColView, Element};

/// Thread-private sparse accumulator over `m` rows.
#[derive(Debug, Clone)]
pub struct Spa<T> {
    vals: Vec<T>,
    stamps: Vec<u32>,
    epoch: u32,
    idx: Vec<u32>,
}

impl<T: Element> Spa<T> {
    /// A SPA for matrices with `m` rows.
    pub fn new(m: usize) -> Self {
        Self {
            vals: vec![T::default(); m],
            stamps: vec![0; m],
            epoch: 1,
            idx: Vec::new(),
        }
    }

    /// Number of rows this SPA covers.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.vals.len()
    }

    /// Number of distinct rows touched in the current column.
    #[inline]
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// `true` when the current column has no entries yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Scatters `v` into row `r`, folding with `monoid` on repeat touches
    /// (Alg 4 lines 5–7, generalized from `+=`).
    #[inline]
    pub fn scatter_combine<O: Monoid<Value = T>, M: MemModel>(
        &mut self,
        r: u32,
        v: T,
        monoid: O,
        mem: &mut M,
    ) {
        let ri = r as usize;
        debug_assert!(ri < self.vals.len(), "row index out of SPA range");
        mem.op(1);
        mem.read(self.stamps.as_ptr() as usize + ri * 4, 4);
        if self.stamps[ri] == self.epoch {
            mem.read(
                self.vals.as_ptr() as usize + ri * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
            monoid.combine(&mut self.vals[ri], v);
        } else {
            self.stamps[ri] = self.epoch;
            self.vals[ri] = v;
            self.idx.push(r);
            mem.write(self.stamps.as_ptr() as usize + ri * 4, 4);
        }
        mem.write(
            self.vals.as_ptr() as usize + ri * std::mem::size_of::<T>(),
            std::mem::size_of::<T>(),
        );
    }

    /// Marks row `r` as touched without consuming a value — the symbolic
    /// phase's scatter. Issues the same memory traffic as
    /// [`Spa::scatter_combine`] so the instrumentation models observe an
    /// identical address stream, but never reads a value: symbolic output
    /// structure is monoid-independent.
    #[inline]
    pub fn scatter_mark<M: MemModel>(&mut self, r: u32, mem: &mut M) {
        let ri = r as usize;
        debug_assert!(ri < self.vals.len(), "row index out of SPA range");
        mem.op(1);
        mem.read(self.stamps.as_ptr() as usize + ri * 4, 4);
        if self.stamps[ri] == self.epoch {
            mem.read(
                self.vals.as_ptr() as usize + ri * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
        } else {
            self.stamps[ri] = self.epoch;
            self.idx.push(r);
            mem.write(self.stamps.as_ptr() as usize + ri * 4, 4);
        }
        mem.write(
            self.vals.as_ptr() as usize + ri * std::mem::size_of::<T>(),
            std::mem::size_of::<T>(),
        );
    }

    /// Emits the accumulated column (Alg 4 lines 8–10), optionally sorting
    /// the index list first, advances the epoch, and returns the entry
    /// count. Entries failing [`Monoid::keep`] are dropped at this flush
    /// point (compiled out for monoids that never filter).
    pub fn drain_into<O: Monoid<Value = T>, M: MemModel>(
        &mut self,
        out_rows: &mut [u32],
        out_vals: &mut [T],
        sorted: bool,
        monoid: O,
        mem: &mut M,
    ) -> usize {
        if sorted {
            self.idx.sort_unstable();
        }
        let n = self.idx.len();
        let mut written = 0usize;
        for &r in self.idx.iter() {
            let v = self.vals[r as usize];
            mem.read(
                self.vals.as_ptr() as usize + r as usize * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
            if O::MAY_FILTER && !monoid.keep(&v) {
                continue;
            }
            out_rows[written] = r;
            out_vals[written] = v;
            mem.write(out_rows.as_ptr() as usize + written * 4, 4);
            mem.write(
                out_vals.as_ptr() as usize + written * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
            written += 1;
        }
        mem.op(n as u64);
        debug_assert!(out_rows.len() >= written && out_vals.len() >= written);
        self.idx.clear();
        self.advance_epoch();
        written
    }

    /// Counts-only variant for the symbolic phase: number of distinct rows,
    /// then reset.
    pub fn drain_count(&mut self) -> usize {
        let n = self.idx.len();
        self.idx.clear();
        self.advance_epoch();
        n
    }

    fn advance_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: one O(m) wipe every 2³²−1 columns.
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// Sliding (row-partitioned) SPA addition for one column — the paper's
/// §IV-B(b) suggestion: "the benefits of sliding hash can also be
/// observed in the SPA algorithm if we partition the SPA array based on
/// row indices".
///
/// The dense accumulator covers only `budget_rows` rows at a time; the
/// row space is swept in `⌈m / budget_rows⌉` panels, each using the same
/// cache-resident SPA segment with indices rebased to the panel. Requires
/// `spa.num_rows() ≥ min(m, budget_rows)`. Sorted inputs use binary-search
/// panelling; unsorted inputs, including columns that break an unchecked
/// sortedness promise (`sliding::search_panels`), use the shared
/// bucketing scratch. Duplicate rows fold with `monoid`.
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
    scratch: &mut crate::sliding::SlidingScratch<T>,
    mem: &mut M,
) -> usize {
    let budget_rows = budget_rows.max(1);
    let parts = m.div_ceil(budget_rows).max(1);
    if parts == 1 {
        let mut written = 0usize;
        for col in cols {
            for (r, v) in col.iter() {
                spa.scatter_combine(r, v, monoid, mem);
            }
        }
        written += spa.drain_into(out_rows, out_vals, sorted, monoid, mem);
        return written;
    }
    debug_assert!(spa.num_rows() >= budget_rows);
    let mut written = 0usize;
    if crate::sliding::search_panels(inputs_sorted, cols) {
        for p in 0..parts {
            let r1 = ((p as u64 * m as u64) / parts as u64) as u32;
            let r2 = (((p + 1) as u64 * m as u64) / parts as u64) as u32;
            for col in cols {
                for (r, v) in col.row_range(r1, r2).iter() {
                    spa.scatter_combine(r - r1, v, monoid, mem);
                }
            }
            let n = spa.drain_into(
                &mut out_rows[written..],
                &mut out_vals[written..],
                sorted,
                monoid,
                mem,
            );
            // Rebase panel-local rows to global indices.
            for slot in &mut out_rows[written..written + n] {
                *slot += r1;
            }
            written += n;
        }
    } else {
        scratch.prepare_parts(parts);
        let bounds: Vec<u32> = (0..=parts)
            .map(|i| ((i as u64 * m as u64) / parts as u64) as u32)
            .collect();
        for col in cols {
            for (r, v) in col.iter() {
                let p = bounds.partition_point(|&b| b <= r) - 1;
                scratch.push(p, r, v);
            }
        }
        for (p, &r1) in bounds[..parts].iter().enumerate() {
            let (rows, vals) = scratch.part(p);
            for (r, v) in rows.iter().zip(vals) {
                spa.scatter_combine(*r - r1, *v, monoid, mem);
            }
            let n = spa.drain_into(
                &mut out_rows[written..],
                &mut out_vals[written..],
                sorted,
                monoid,
                mem,
            );
            for slot in &mut out_rows[written..written + n] {
                *slot += r1;
            }
            written += n;
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NullModel;
    use crate::monoid::Plus;

    #[test]
    fn scatter_accumulates_and_drains_sorted() {
        let mut spa = Spa::<f64>::new(10);
        let mut mem = NullModel;
        spa.scatter_combine(7, 1.0, Plus::new(), &mut mem);
        spa.scatter_combine(2, 2.0, Plus::new(), &mut mem);
        spa.scatter_combine(7, 3.0, Plus::new(), &mut mem);
        assert_eq!(spa.len(), 2);
        let mut rows = [0u32; 2];
        let mut vals = [0.0f64; 2];
        let n = spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(n, 2);
        assert_eq!(rows, [2, 7]);
        assert_eq!(vals, [2.0, 4.0]);
    }

    #[test]
    fn unsorted_drain_preserves_first_touch_order() {
        let mut spa = Spa::<f64>::new(10);
        let mut mem = NullModel;
        spa.scatter_combine(7, 1.0, Plus::new(), &mut mem);
        spa.scatter_combine(2, 2.0, Plus::new(), &mut mem);
        let mut rows = [0u32; 2];
        let mut vals = [0.0f64; 2];
        spa.drain_into(&mut rows, &mut vals, false, Plus::new(), &mut mem);
        assert_eq!(rows, [7, 2]);
    }

    #[test]
    fn epoch_isolates_columns() {
        let mut spa = Spa::<f64>::new(4);
        let mut mem = NullModel;
        spa.scatter_combine(1, 5.0, Plus::new(), &mut mem);
        let mut rows = [0u32; 1];
        let mut vals = [0.0f64; 1];
        spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        // Next column: row 1 must start from zero, not 5.0.
        spa.scatter_combine(1, 2.0, Plus::new(), &mut mem);
        spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(vals[0], 2.0);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut spa = Spa::<f64>::new(2);
        spa.epoch = u32::MAX; // force the wrap path
        let mut mem = NullModel;
        spa.scatter_combine(0, 1.0, Plus::new(), &mut mem);
        let mut rows = [0u32; 1];
        let mut vals = [0.0f64; 1];
        spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(spa.epoch, 1);
        // Stale stamp (u32::MAX) must not be considered valid after reset.
        spa.scatter_combine(0, 9.0, Plus::new(), &mut mem);
        spa.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(vals[0], 9.0);
    }

    #[test]
    fn sliding_spa_matches_plain_spa() {
        use crate::sliding::SlidingScratch;
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
        use crate::sliding::SlidingScratch;
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

    #[test]
    fn drain_count_matches_distinct_rows() {
        let mut spa = Spa::<f64>::new(8);
        let mut mem = NullModel;
        for r in [1u32, 1, 2, 3, 3, 3] {
            spa.scatter_combine(r, 1.0, Plus::new(), &mut mem);
        }
        assert_eq!(spa.drain_count(), 3);
        assert_eq!(spa.len(), 0);
    }
}
