//! Open-addressing hash accumulators — the data structure behind the
//! paper's winning HashSpKAdd algorithm (Algorithms 5 and 6).
//!
//! Both tables use the paper's multiplicative masking scheme
//! `HASH(r) = (a · r) & (2^q − 1)` with a prime multiplier `a` and a
//! power-of-two table of size `2^q`, resolving collisions by linear
//! probing. The numeric table ([`HashAccumulator`]) stores `(row, value)`
//! pairs; the symbolic table ([`SymbolicHashTable`]) stores row keys only
//! (4 bytes per entry vs 4 + sizeof(T), which is why the paper's symbolic
//! phase benefits from the sliding scheme earlier — §III-B).
//!
//! One deviation from the paper's pseudocode, standard in production hash
//! SpGEMM codes: instead of re-scanning the whole table to emit the output
//! column (Alg 5 line 13), the tables keep a list of occupied slots, so
//! emission and reset cost O(nnz of the column), not O(table capacity).
//! The table can therefore be sized once per task and reused across
//! columns without an O(capacity) wipe per column.

use crate::mem::MemModel;
use crate::monoid::Monoid;
use spk_sparse::Element;

/// The paper's prime multiplier `a`. 2654435761 = ⌊2³²/φ⌋ (Knuth's
/// multiplicative constant), which is prime and spreads consecutive row
/// indices across the table.
pub const HASH_PRIME: u32 = 2_654_435_761;

/// Sentinel row key marking an empty slot (`-1` in the paper's i32 tables).
pub const EMPTY_KEY: u32 = u32::MAX;

/// Multiplicative hash of a row index into a table of size `mask + 1`.
#[inline(always)]
pub fn hash_row(r: u32, mask: usize) -> usize {
    (r.wrapping_mul(HASH_PRIME)) as usize & mask
}

/// Smallest valid table capacity.
const MIN_CAPACITY: usize = 4;

/// Returns the paper's table size for an expected entry count: the smallest
/// power of two *strictly greater* than `entries` (Alg 5 line 2).
#[inline]
pub fn table_size_for(entries: usize) -> usize {
    (entries + 1).next_power_of_two().max(MIN_CAPACITY)
}

/// Numeric-phase hash table: accumulates `(row, value)` pairs (Alg 5).
#[derive(Debug, Clone)]
pub struct HashAccumulator<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
    occupied: Vec<u32>,
    mask: usize,
    /// Scratch for sorted emission, reused across columns: packed
    /// `(row << 32) | slot` keys.
    sort_scratch: Vec<u64>,
}

impl<T: Element> HashAccumulator<T> {
    /// A table able to hold at least `entries` rows.
    pub fn with_capacity(entries: usize) -> Self {
        let cap = table_size_for(entries);
        Self {
            keys: vec![EMPTY_KEY; cap],
            vals: vec![T::default(); cap],
            occupied: Vec::with_capacity(entries.min(1 << 20)),
            mask: cap - 1,
            sort_scratch: Vec::new(),
        }
    }

    /// Current capacity (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of distinct rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` when no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Resizes so at least `entries` rows fit: grows when too small,
    /// shrinks when oversized by 4× or more (so a table grown for one
    /// outlier sliding panel returns to the cache budget afterwards). The
    /// table must be empty — this is a between-columns operation.
    ///
    /// Resizing moves only the mask: the `keys`/`vals` allocation is kept
    /// and replaced only when the new capacity exceeds it, so columns whose
    /// sizes alternate do not reallocate the table each time. An empty
    /// table holds `EMPTY_KEY` in every slot, so the slots a shrink leaves
    /// beyond the mask, or a grow brings back inside it, are all free.
    pub fn reserve_for(&mut self, entries: usize) {
        debug_assert!(self.occupied.is_empty(), "reserve_for on non-empty table");
        let want = table_size_for(entries);
        if want > self.capacity() || want * 4 <= self.capacity() {
            if want > self.keys.len() {
                self.keys = vec![EMPTY_KEY; want];
                self.vals = vec![T::default(); want];
            }
            self.mask = want - 1;
        }
    }

    /// Inserts `v` at row `r`, folding with `monoid` if the row is
    /// present (Alg 5 lines 5–12, generalized from `+=` to any
    /// commutative monoid — `insert_combine(…, Plus, …)` compiles to the
    /// exact loop the hard-coded addition produced).
    ///
    /// The table grows (doubling + rehash) when the load factor would
    /// exceed 7/8, so callers may size it by an *estimate* — the sliding
    /// algorithm reserves the cache budget and lets skewed panels grow
    /// past it only when they genuinely hold more distinct rows.
    #[inline]
    pub fn insert_combine<O: Monoid<Value = T>, M: MemModel>(
        &mut self,
        r: u32,
        v: T,
        monoid: O,
        mem: &mut M,
    ) {
        if (self.occupied.len() + 1) * 8 > self.capacity() * 7 {
            self.grow_rehash(mem);
        }
        let mut h = hash_row(r, self.mask);
        loop {
            mem.op(1);
            mem.read(self.keys.as_ptr() as usize + h * 4, 4);
            let k = self.keys[h];
            if k == EMPTY_KEY {
                self.keys[h] = r;
                self.vals[h] = v;
                self.occupied.push(h as u32);
                mem.write(self.keys.as_ptr() as usize + h * 4, 4);
                mem.write(
                    self.vals.as_ptr() as usize + h * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
                return;
            } else if k == r {
                mem.read(
                    self.vals.as_ptr() as usize + h * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
                monoid.combine(&mut self.vals[h], v);
                mem.write(
                    self.vals.as_ptr() as usize + h * std::mem::size_of::<T>(),
                    std::mem::size_of::<T>(),
                );
                return;
            }
            // Hash conflict: linear probing (Alg 5 line 11-12).
            h = (h + 1) & self.mask;
        }
    }

    /// Emits all stored `(row, value)` pairs into the output slices,
    /// optionally sorted by row (Alg 5 lines 13–15), resets the table for
    /// the next column, and returns the number of entries written.
    ///
    /// Entries failing [`Monoid::keep`] are dropped at this flush point;
    /// for monoids with `MAY_FILTER == false` the check is compiled out.
    pub fn drain_into<O: Monoid<Value = T>, M: MemModel>(
        &mut self,
        out_rows: &mut [u32],
        out_vals: &mut [T],
        sorted: bool,
        monoid: O,
        mem: &mut M,
    ) -> usize {
        let n = self.occupied.len();
        let mut written = 0usize;
        if sorted {
            // Rows are distinct within a column, so sorting the packed
            // keys orders by row alone; the slot half then locates the
            // value without moving it through the sort.
            self.sort_scratch.clear();
            for &slot in &self.occupied {
                let s = slot as usize;
                self.sort_scratch
                    .push((u64::from(self.keys[s]) << 32) | u64::from(slot));
                self.keys[s] = EMPTY_KEY;
            }
            self.sort_scratch.sort_unstable();
            mem.op(n as u64); // emission pass; sorting cost grows n lg n
            for &key in self.sort_scratch.iter() {
                let (r, v) = ((key >> 32) as u32, self.vals[key as u32 as usize]);
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
        } else {
            for &slot in self.occupied.iter() {
                let s = slot as usize;
                let (r, v) = (self.keys[s], self.vals[s]);
                self.keys[s] = EMPTY_KEY;
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
        }
        debug_assert!(out_rows.len() >= written && out_vals.len() >= written);
        self.occupied.clear();
        written
    }

    /// Doubles the capacity and rehashes the live entries.
    #[cold]
    fn grow_rehash<M: MemModel>(&mut self, mem: &mut M) {
        let new_cap = self.capacity() * 2;
        let mask = new_cap - 1;
        let mut keys = vec![EMPTY_KEY; new_cap];
        let mut vals = vec![T::default(); new_cap];
        let mut occupied = Vec::with_capacity(self.occupied.len() + 16);
        for &slot in &self.occupied {
            let (r, v) = (self.keys[slot as usize], self.vals[slot as usize]);
            let mut h = hash_row(r, mask);
            while keys[h] != EMPTY_KEY {
                h = (h + 1) & mask;
            }
            keys[h] = r;
            vals[h] = v;
            occupied.push(h as u32);
            mem.op(1);
            mem.write(keys.as_ptr() as usize + h * 4, 4);
            mem.write(
                vals.as_ptr() as usize + h * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
        }
        self.keys = keys;
        self.vals = vals;
        self.mask = mask;
        self.occupied = occupied;
    }
}

/// Symbolic-phase hash table: row keys only, counts distinct rows (Alg 6).
#[derive(Debug, Clone)]
pub struct SymbolicHashTable {
    keys: Vec<u32>,
    occupied: Vec<u32>,
    mask: usize,
}

impl SymbolicHashTable {
    /// A table able to hold at least `entries` distinct rows.
    pub fn with_capacity(entries: usize) -> Self {
        let cap = table_size_for(entries);
        Self {
            keys: vec![EMPTY_KEY; cap],
            occupied: Vec::with_capacity(entries.min(1 << 20)),
            mask: cap - 1,
        }
    }

    /// Current capacity (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of distinct rows seen since the last reset.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` when no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Resizes so at least `entries` rows fit (grows when too small,
    /// shrinks when ≥4× oversized); table must be empty. Like
    /// [`HashAccumulator::reserve_for`] it moves only the mask, and
    /// reallocates only to grow past the current allocation.
    pub fn reserve_for(&mut self, entries: usize) {
        debug_assert!(self.occupied.is_empty(), "reserve_for on non-empty table");
        let want = table_size_for(entries);
        if want > self.capacity() || want * 4 <= self.capacity() {
            if want > self.keys.len() {
                self.keys = vec![EMPTY_KEY; want];
            }
            self.mask = want - 1;
        }
    }

    /// Registers row `r`; returns `true` the first time `r` is seen
    /// (Alg 6 lines 6–12). Grows at load factor 7/8 like
    /// [`HashAccumulator::insert_combine`].
    #[inline]
    pub fn insert<M: MemModel>(&mut self, r: u32, mem: &mut M) -> bool {
        if (self.occupied.len() + 1) * 8 > self.capacity() * 7 {
            self.grow_rehash(mem);
        }
        let mut h = hash_row(r, self.mask);
        loop {
            mem.op(1);
            mem.read(self.keys.as_ptr() as usize + h * 4, 4);
            let k = self.keys[h];
            if k == EMPTY_KEY {
                self.keys[h] = r;
                self.occupied.push(h as u32);
                mem.write(self.keys.as_ptr() as usize + h * 4, 4);
                return true;
            } else if k == r {
                return false;
            }
            h = (h + 1) & self.mask;
        }
    }

    /// Resets for the next column in O(distinct rows).
    pub fn reset(&mut self) {
        for &slot in &self.occupied {
            self.keys[slot as usize] = EMPTY_KEY;
        }
        self.occupied.clear();
    }

    /// Doubles the capacity and rehashes the live keys.
    #[cold]
    fn grow_rehash<M: MemModel>(&mut self, mem: &mut M) {
        let new_cap = self.capacity() * 2;
        let mask = new_cap - 1;
        let mut keys = vec![EMPTY_KEY; new_cap];
        let mut occupied = Vec::with_capacity(self.occupied.len() + 16);
        for &slot in &self.occupied {
            let r = self.keys[slot as usize];
            let mut h = hash_row(r, mask);
            while keys[h] != EMPTY_KEY {
                h = (h + 1) & mask;
            }
            keys[h] = r;
            occupied.push(h as u32);
            mem.op(1);
            mem.write(keys.as_ptr() as usize + h * 4, 4);
        }
        self.keys = keys;
        self.mask = mask;
        self.occupied = occupied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{CountingModel, NullModel};
    use crate::monoid::Plus;

    #[test]
    fn table_size_strictly_greater_po2() {
        assert_eq!(table_size_for(0), 4);
        assert_eq!(table_size_for(3), 4);
        assert_eq!(table_size_for(4), 8, "strictly greater than entries");
        assert_eq!(table_size_for(8), 16);
        assert_eq!(table_size_for(1000), 1024);
        assert_eq!(table_size_for(1024), 2048);
    }

    #[test]
    fn accumulate_and_drain_sorted() {
        let mut ht = HashAccumulator::<f64>::with_capacity(8);
        let mut mem = NullModel;
        ht.insert_combine(5, 1.0, Plus::new(), &mut mem);
        ht.insert_combine(1, 2.0, Plus::new(), &mut mem);
        ht.insert_combine(5, 3.0, Plus::new(), &mut mem);
        ht.insert_combine(9, 4.0, Plus::new(), &mut mem);
        assert_eq!(ht.len(), 3);
        let mut rows = [0u32; 3];
        let mut vals = [0.0f64; 3];
        let n = ht.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(n, 3);
        assert_eq!(rows, [1, 5, 9]);
        assert_eq!(vals, [2.0, 4.0, 4.0]);
        assert!(ht.is_empty(), "drain resets the table");
        // Table is reusable afterwards.
        ht.insert_combine(7, 1.5, Plus::new(), &mut mem);
        let mut r2 = [0u32; 1];
        let mut v2 = [0.0f64; 1];
        assert_eq!(
            ht.drain_into(&mut r2, &mut v2, true, Plus::new(), &mut mem),
            1
        );
        assert_eq!((r2[0], v2[0]), (7, 1.5));
    }

    #[test]
    fn drain_unsorted_first_touch_order() {
        let mut ht = HashAccumulator::<f64>::with_capacity(8);
        let mut mem = NullModel;
        ht.insert_combine(9, 1.0, Plus::new(), &mut mem);
        ht.insert_combine(2, 2.0, Plus::new(), &mut mem);
        ht.insert_combine(9, 1.0, Plus::new(), &mut mem);
        let mut rows = [0u32; 2];
        let mut vals = [0.0f64; 2];
        ht.drain_into(&mut rows, &mut vals, false, Plus::new(), &mut mem);
        assert_eq!(rows, [9, 2], "unsorted emission is first-touch order");
        assert_eq!(vals, [2.0, 2.0]);
    }

    #[test]
    fn collisions_resolved_by_linear_probing() {
        // Fill a tiny table almost completely so probes must wrap.
        let mut ht = HashAccumulator::<f64>::with_capacity(6); // capacity 8
        let mut mem = NullModel;
        for r in 0..7u32 {
            ht.insert_combine(r, r as f64, Plus::new(), &mut mem);
        }
        assert_eq!(ht.len(), 7);
        // Re-accumulate every key; counts must not grow.
        for r in 0..7u32 {
            ht.insert_combine(r, 1.0, Plus::new(), &mut mem);
        }
        assert_eq!(ht.len(), 7);
        let mut rows = vec![0u32; 7];
        let mut vals = vec![0.0f64; 7];
        ht.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        assert_eq!(rows, (0..7).collect::<Vec<_>>());
        for (r, v) in rows.iter().zip(vals) {
            assert_eq!(v, *r as f64 + 1.0);
        }
    }

    #[test]
    fn reserve_resizes_hysteretically() {
        let mut ht = HashAccumulator::<f64>::with_capacity(4);
        let cap = ht.capacity();
        ht.reserve_for(2);
        assert_eq!(ht.capacity(), cap, "small shrinks are skipped");
        ht.reserve_for(100);
        assert!(ht.capacity() > 100);
        ht.reserve_for(2);
        assert_eq!(ht.capacity(), 4, "4x-oversized tables shrink back");
    }

    /// Alternating column sizes move the capacity by the hysteresis rule
    /// above, but the allocation is kept: the table is empty between
    /// columns, so a shrink or regrow within it only moves the mask.
    #[test]
    fn reserve_moves_the_mask_and_keeps_the_allocation() {
        let mut mem = NullModel;
        let mut ht = HashAccumulator::<f64>::with_capacity(4);
        ht.reserve_for(100);
        let (keys, vals) = (ht.keys.as_ptr(), ht.vals.as_ptr());
        let mut sym = SymbolicHashTable::with_capacity(4);
        sym.reserve_for(100);
        let sym_keys = sym.keys.as_ptr();
        for round in 0..3u32 {
            for (entries, cap) in [(100usize, 128usize), (2, 4), (60, 64)] {
                ht.reserve_for(entries);
                sym.reserve_for(entries);
                assert_eq!(ht.capacity(), cap, "round {round}, reserve_for({entries})");
                assert_eq!(sym.capacity(), cap, "round {round}, reserve_for({entries})");
                assert_eq!(ht.keys.as_ptr(), keys);
                assert_eq!(ht.vals.as_ptr(), vals);
                assert_eq!(sym.keys.as_ptr(), sym_keys);
                // Fill up to the 7/8 load limit (less one: every insert,
                // also one that combines, checks the load first): every
                // slot inside the mask must read free, whatever the
                // previous capacity was.
                let fill = entries.min(cap * 7 / 8 - 1);
                let rows: Vec<u32> = (0..fill as u32).map(|r| r * 37 + round).collect();
                for &r in &rows {
                    ht.insert_combine(r, 1.0, Plus::new(), &mut mem);
                    ht.insert_combine(r, 2.0, Plus::new(), &mut mem);
                    assert!(sym.insert(r, &mut mem));
                    assert!(!sym.insert(r, &mut mem));
                }
                assert_eq!(ht.capacity(), cap, "no rehash at the reserved size");
                let mut out_rows = vec![0u32; fill];
                let mut out_vals = vec![0.0f64; fill];
                let n = ht.drain_into(&mut out_rows, &mut out_vals, true, Plus::new(), &mut mem);
                assert_eq!(n, fill);
                assert_eq!(out_rows, rows);
                assert!(out_vals.iter().all(|&v| v == 3.0));
                assert_eq!(sym.len(), fill);
                sym.reset();
            }
        }
    }

    #[test]
    fn tables_grow_past_initial_capacity() {
        let mut ht = HashAccumulator::<f64>::with_capacity(2);
        let mut mem = NullModel;
        for r in 0..500u32 {
            ht.insert_combine(r, r as f64, Plus::new(), &mut mem);
            ht.insert_combine(r, 1.0, Plus::new(), &mut mem);
        }
        assert_eq!(ht.len(), 500);
        assert!(ht.capacity() >= 500);
        let mut rows = vec![0u32; 500];
        let mut vals = vec![0.0f64; 500];
        ht.drain_into(&mut rows, &mut vals, true, Plus::new(), &mut mem);
        for (i, (r, v)) in rows.iter().zip(vals).enumerate() {
            assert_eq!(*r as usize, i);
            assert_eq!(v, i as f64 + 1.0);
        }

        let mut sym = SymbolicHashTable::with_capacity(2);
        for r in 0..300u32 {
            assert!(sym.insert(r, &mut mem));
            assert!(!sym.insert(r, &mut mem));
        }
        assert_eq!(sym.len(), 300);
    }

    /// Drains `inserts` through a table that starts at the minimum
    /// capacity (so it rehashes as it fills) and checks the sorted
    /// emission against an ordered-map oracle: same rows, same value
    /// bits, same filtering.
    fn check_sorted_drain_against_oracle<O: Monoid<Value = f64>>(inserts: &[(u32, f64)], m: O) {
        let mut oracle = std::collections::BTreeMap::new();
        for &(r, v) in inserts {
            m.combine(oracle.entry(r).or_insert(O::IDENTITY), v);
        }
        let expected: Vec<(u32, u64)> = oracle
            .into_iter()
            .filter(|(_, v)| m.keep(v))
            .map(|(r, v)| (r, v.to_bits()))
            .collect();

        let mut ht = HashAccumulator::<f64>::with_capacity(0);
        let initial = ht.capacity();
        let mut mem = NullModel;
        for &(r, v) in inserts {
            ht.insert_combine(r, v, m, &mut mem);
        }
        assert!(ht.capacity() > initial, "the table must have rehashed");
        let mut rows = vec![0u32; ht.len()];
        let mut vals = vec![0.0f64; ht.len()];
        let n = ht.drain_into(&mut rows, &mut vals, true, m, &mut mem);
        let got: Vec<(u32, u64)> = rows[..n]
            .iter()
            .zip(&vals[..n])
            .map(|(&r, v)| (r, v.to_bits()))
            .collect();
        assert_eq!(got, expected);
        assert!(ht.is_empty());
    }

    #[test]
    fn sorted_drain_matches_pair_sort_oracle() {
        use crate::monoid::ThresholdedPlus;
        // Deterministic scatter of rows, hot rows repeated, values with
        // mixed signs so some sums cancel below the threshold.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        let mut inserts = Vec::new();
        for _ in 0..600 {
            let r = next() % 257;
            let v = f64::from(next() % 9) - 4.0;
            inserts.push((r * 7, v));
        }
        // Rows at the top of the index range (u32::MAX is the empty key).
        for d in 1..40u32 {
            inserts.push((u32::MAX - d, f64::from(d)));
            inserts.push((u32::MAX - 1, 0.5));
        }
        inserts.push((0, 3.0));
        check_sorted_drain_against_oracle(&inserts, Plus::new());
        check_sorted_drain_against_oracle(&inserts, ThresholdedPlus::new(2.5));
    }

    #[test]
    fn symbolic_counts_distinct_rows() {
        let mut ht = SymbolicHashTable::with_capacity(16);
        let mut mem = NullModel;
        assert!(ht.insert(3, &mut mem));
        assert!(!ht.insert(3, &mut mem));
        assert!(ht.insert(4, &mut mem));
        assert_eq!(ht.len(), 2);
        ht.reset();
        assert_eq!(ht.len(), 0);
        assert!(ht.insert(3, &mut mem), "reset forgets previous keys");
    }

    #[test]
    fn memory_traffic_is_observed() {
        let mut ht = HashAccumulator::<f32>::with_capacity(8);
        let mut mem = CountingModel::new();
        ht.insert_combine(1, 1.0, Plus::new(), &mut mem);
        // One probe: key read, then key+val writes. f32 values are 4 bytes,
        // the paper's 8-bytes-per-entry numeric configuration.
        assert_eq!(mem.reads, 1);
        assert_eq!(mem.writes, 2);
        assert_eq!(mem.bytes_written, 8);
        ht.insert_combine(1, 1.0, Plus::new(), &mut mem);
        // Accumulation: key read, value read+write.
        assert_eq!(mem.reads, 3);
        assert_eq!(mem.writes, 3);
    }

    #[test]
    fn hash_row_uses_low_bits_only() {
        for r in [0u32, 1, 17, 123_456_789, u32::MAX - 1] {
            assert!(hash_row(r, 63) < 64);
        }
    }
}
