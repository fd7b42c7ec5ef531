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
use spk_sparse::Element;

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
