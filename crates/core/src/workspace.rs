//! Reusable per-thread kernel workspaces — the state a [`crate::SpkAddPlan`]
//! retains between executions.
//!
//! Every k-way SpKAdd needs thread-private scratch: a numeric hash table
//! (Alg 5), a symbolic hash table (Alg 6), an O(m) SPA (Alg 4), an O(k)
//! merge heap (Alg 3), and the bucketing scratch of the sliding kernels
//! (Alg 7/8). The one-shot drivers used to allocate these inside every
//! call; a [`Workspace`] owns them instead, building each component
//! lazily on first use and handing out borrows afterwards, so a plan
//! executed repeatedly at a steady shape performs **zero** workspace
//! allocations after its first execution. [`Workspace::allocations`]
//! counts component (re)builds, which is what the plan-reuse tests
//! assert on.
//!
//! A [`WorkspacePool`] holds one mutex-wrapped workspace per worker
//! thread; the drivers lock the slot matching their rayon worker index,
//! exactly as the old driver-local pools did (§III-A: thread-private
//! accumulators, shared nothing).
//!
//! Under `Algorithm::Auto`'s per-chunk kernel dispatch a single execution
//! may exercise **several kernel families** from the same pool: a worker
//! that draws a SPA chunk and then a hash chunk lazily materializes both
//! components in its one workspace. That is by
//! design — the components are independent fields, so mixing kernels
//! costs each family's one-time build and nothing more, and a steady
//! shape still reaches the zero-allocation regime even when every
//! execution mixes.

use crate::hashtab::{HashAccumulator, SymbolicHashTable};
use crate::heap::KwayHeap;
use crate::sliding::SlidingScratch;
use crate::spa::Spa;
use spk_sparse::Element;
use std::sync::{Mutex, MutexGuard};

/// Initial hash-table capacity; tables grow on demand via `reserve_for`.
const INITIAL_TABLE_CAPACITY: usize = 16;

/// Thread-private kernel state, sized per the paper's Table I memory
/// rows: heap O(k), SPA O(m), hash O(max column output), sliding
/// O(budget). All components are built lazily and kept for reuse.
#[derive(Debug, Default)]
pub struct Workspace<T> {
    hash: Option<HashAccumulator<T>>,
    sym_hash: Option<SymbolicHashTable>,
    spa: Option<Spa<T>>,
    heap: Option<KwayHeap<T>>,
    /// Capacity the heap was built for (KwayHeap does not expose it).
    heap_k: usize,
    scratch: Option<SlidingScratch<T>>,
    allocations: u64,
}

impl<T: Element> Workspace<T> {
    /// An empty workspace; components materialize on first use.
    pub fn new() -> Self {
        Self {
            hash: None,
            sym_hash: None,
            spa: None,
            heap: None,
            heap_k: 0,
            scratch: None,
            allocations: 0,
        }
    }

    /// Number of component builds/rebuilds so far. Stable across
    /// executions at a steady shape — the "zero per-execute
    /// allocations" property the reuse tests assert.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// The numeric hash accumulator (Alg 5); grows via `reserve_for`.
    pub fn hash(&mut self) -> &mut HashAccumulator<T> {
        if self.hash.is_none() {
            self.allocations += 1;
            self.hash = Some(HashAccumulator::with_capacity(INITIAL_TABLE_CAPACITY));
        }
        self.hash.as_mut().unwrap()
    }

    /// The symbolic hash table (Alg 6).
    pub fn sym_hash(&mut self) -> &mut SymbolicHashTable {
        if self.sym_hash.is_none() {
            self.allocations += 1;
            self.sym_hash = Some(SymbolicHashTable::with_capacity(INITIAL_TABLE_CAPACITY));
        }
        self.sym_hash.as_mut().unwrap()
    }

    /// A SPA covering at least `rows` rows; rebuilt only when a bigger
    /// one is required (a larger SPA serves a smaller panel unchanged).
    pub fn spa(&mut self, rows: usize) -> &mut Spa<T> {
        if self.spa.as_ref().is_none_or(|s| s.num_rows() < rows) {
            self.allocations += 1;
            self.spa = Some(Spa::new(rows));
        }
        self.spa.as_mut().unwrap()
    }

    /// A k-way merge heap for at least `k` operands.
    pub fn heap(&mut self, k: usize) -> &mut KwayHeap<T> {
        if self.heap.is_none() || self.heap_k < k {
            self.allocations += 1;
            self.heap = Some(KwayHeap::new(k));
            self.heap_k = k;
        }
        self.heap.as_mut().unwrap()
    }

    /// The sliding kernels' bucketing scratch.
    pub fn scratch(&mut self) -> &mut SlidingScratch<T> {
        if self.scratch.is_none() {
            self.allocations += 1;
            self.scratch = Some(SlidingScratch::new());
        }
        self.scratch.as_mut().unwrap()
    }

    /// Hash table and sliding scratch together (Alg 8 borrows both).
    pub fn hash_and_scratch(&mut self) -> (&mut HashAccumulator<T>, &mut SlidingScratch<T>) {
        self.hash();
        self.scratch();
        (self.hash.as_mut().unwrap(), self.scratch.as_mut().unwrap())
    }

    /// Symbolic table and sliding scratch together (Alg 7).
    pub fn sym_hash_and_scratch(&mut self) -> (&mut SymbolicHashTable, &mut SlidingScratch<T>) {
        self.sym_hash();
        self.scratch();
        (
            self.sym_hash.as_mut().unwrap(),
            self.scratch.as_mut().unwrap(),
        )
    }

    /// SPA panel and sliding scratch together (the §IV-B(b) extension).
    pub fn spa_and_scratch(&mut self, rows: usize) -> (&mut Spa<T>, &mut SlidingScratch<T>) {
        self.spa(rows);
        self.scratch();
        (self.spa.as_mut().unwrap(), self.scratch.as_mut().unwrap())
    }
}

/// One [`Workspace`] per worker thread, shared with the parallel drivers.
///
/// Slots are locked by rayon worker index. The rayon shim does no work
/// stealing: it gives each worker one contiguous share of a region's
/// tasks and runs nested regions inline on it, so a slot is only ever
/// locked by its own worker and the locks are uncontended (they exist so
/// the borrow checker agrees the state is exclusive). The zero-allocation
/// steady state relies on that fixed split: re-executed at a steady
/// shape, a plan hands each worker the same chunks as before, so every
/// component it needs is already built at the size it needs.
#[derive(Debug, Default)]
pub struct WorkspacePool<T> {
    slots: Vec<Mutex<Workspace<T>>>,
}

impl<T: Element> WorkspacePool<T> {
    /// A pool with one workspace per worker.
    pub fn new(workers: usize) -> Self {
        Self {
            slots: (0..workers.max(1))
                .map(|_| Mutex::new(Workspace::new()))
                .collect(),
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Locks the workspace slot for the calling rayon worker.
    pub(crate) fn for_current_thread(&self) -> MutexGuard<'_, Workspace<T>> {
        let tid = rayon::current_thread_index().unwrap_or(0) % self.slots.len();
        self.slots[tid].lock().expect("workspace mutex poisoned")
    }

    /// Total component builds across all slots (see
    /// [`Workspace::allocations`]).
    pub fn allocations(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.lock().expect("workspace mutex poisoned").allocations)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_build_once_and_are_reused() {
        let mut ws = Workspace::<f64>::new();
        assert_eq!(ws.allocations(), 0);
        ws.hash();
        ws.hash();
        assert_eq!(ws.allocations(), 1, "hash table built exactly once");
        ws.sym_hash();
        ws.scratch();
        assert_eq!(ws.allocations(), 3);
        ws.hash_and_scratch();
        assert_eq!(ws.allocations(), 3, "paired accessor reuses both");
    }

    #[test]
    fn spa_and_heap_rebuild_only_when_growing() {
        let mut ws = Workspace::<f64>::new();
        ws.spa(100);
        ws.spa(50);
        assert_eq!(ws.allocations(), 1, "smaller panel reuses the SPA");
        ws.spa(200);
        assert_eq!(ws.allocations(), 2, "larger panel rebuilds");
        ws.heap(4);
        ws.heap(3);
        assert_eq!(ws.allocations(), 3);
        ws.heap(8);
        assert_eq!(ws.allocations(), 4);
    }

    #[test]
    fn pool_has_one_slot_per_worker() {
        let pool = WorkspacePool::<f64>::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.allocations(), 0);
        pool.for_current_thread().hash();
        assert_eq!(pool.allocations(), 1);
        let zero = WorkspacePool::<f64>::new(0);
        assert_eq!(zero.workers(), 1, "at least one slot");
    }
}
