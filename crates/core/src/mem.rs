//! Memory-access modelling for kernel instrumentation.
//!
//! Every SpKAdd column kernel is generic over a [`MemModel`], and so are
//! the parallel drivers that run them: each driver task asks a
//! crate-private `TaskModels` handle for its model. In production the
//! handle and the model are [`NullModel`], whose methods are
//! `#[inline(always)]` no-ops that vanish at compile time, so the shipping
//! drivers pay nothing. [`crate::metered`] runs the same drivers on one
//! worker with a caller-owned model, which the handle lends to each task
//! in turn. Two such models exist:
//!
//! * [`CountingModel`] — tallies abstract work operations and bytes moved,
//!   used by the Table I harness to validate the paper's work/I-O
//!   complexity claims empirically;
//! * `spk-cachesim::CacheHierarchy` — a set-associative cache simulator
//!   that replays the kernels' *actual* address streams to reproduce the
//!   paper's Cachegrind LL-miss measurements (Table V).
//!
//! Addresses passed to the model are real pointer values, so spatial
//! locality (the property the sliding-hash algorithm exists to exploit) is
//! faithfully visible to the simulator.

use std::sync::Mutex;

/// Observer of a kernel's memory traffic and abstract work.
pub trait MemModel {
    /// A load of `bytes` bytes at `addr`.
    fn read(&mut self, addr: usize, bytes: usize);
    /// A store of `bytes` bytes at `addr`.
    fn write(&mut self, addr: usize, bytes: usize);
    /// `n` abstract work operations (comparisons, probes, heap swaps…).
    fn op(&mut self, n: u64);
}

/// The zero-cost production model: every hook is an empty inline function.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullModel;

impl MemModel for NullModel {
    #[inline(always)]
    fn read(&mut self, _addr: usize, _bytes: usize) {}
    #[inline(always)]
    fn write(&mut self, _addr: usize, _bytes: usize) {}
    #[inline(always)]
    fn op(&mut self, _n: u64) {}
}

/// Supplies the memory model each parallel task of a driver reports to.
/// [`NullModel`] gives every task a fresh no-op model; `Mutex<&mut M>`
/// lends one caller-owned model to each task in turn.
pub(crate) trait TaskModels: Sync {
    /// The model a task reports to.
    type Model: MemModel;
    /// Runs one task against its model.
    fn lend<R>(&self, task: impl FnOnce(&mut Self::Model) -> R) -> R;
}

impl TaskModels for NullModel {
    type Model = NullModel;
    #[inline(always)]
    fn lend<R>(&self, task: impl FnOnce(&mut NullModel) -> R) -> R {
        task(&mut NullModel)
    }
}

impl<'m, M: MemModel + Send> TaskModels for Mutex<&'m mut M> {
    type Model = &'m mut M;
    fn lend<R>(&self, task: impl FnOnce(&mut &'m mut M) -> R) -> R {
        task(&mut *self.lock().expect("model mutex poisoned"))
    }
}

/// Tallies operations and bytes; the empirical work/I-O meter of Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingModel {
    /// Number of load events observed.
    pub reads: u64,
    /// Number of store events observed.
    pub writes: u64,
    /// Total bytes loaded.
    pub bytes_read: u64,
    /// Total bytes stored.
    pub bytes_written: u64,
    /// Abstract work operations.
    pub ops: u64,
}

impl CountingModel {
    /// Fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes moved in either direction — the paper's "I/O" metric.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &CountingModel) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.ops += other.ops;
    }
}

impl MemModel for CountingModel {
    #[inline]
    fn read(&mut self, _addr: usize, bytes: usize) {
        self.reads += 1;
        self.bytes_read += bytes as u64;
    }
    #[inline]
    fn write(&mut self, _addr: usize, bytes: usize) {
        self.writes += 1;
        self.bytes_written += bytes as u64;
    }
    #[inline]
    fn op(&mut self, n: u64) {
        self.ops += n;
    }
}

/// Forwards to a mutable reference, so `&mut M` is itself a model. This is
/// what lets a driver thread hand one model to several kernel calls.
impl<M: MemModel> MemModel for &mut M {
    #[inline(always)]
    fn read(&mut self, addr: usize, bytes: usize) {
        (**self).read(addr, bytes);
    }
    #[inline(always)]
    fn write(&mut self, addr: usize, bytes: usize) {
        (**self).write(addr, bytes);
    }
    #[inline(always)]
    fn op(&mut self, n: u64) {
        (**self).op(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_model_tallies() {
        let mut c = CountingModel::new();
        c.read(0x1000, 4);
        c.read(0x1004, 8);
        c.write(0x2000, 12);
        c.op(5);
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.bytes_read, 12);
        assert_eq!(c.bytes_written, 12);
        assert_eq!(c.bytes_total(), 24);
        assert_eq!(c.ops, 5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CountingModel::new();
        a.read(0, 4);
        let mut b = CountingModel::new();
        b.write(0, 8);
        b.op(3);
        a.merge(&b);
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert_eq!(a.bytes_total(), 12);
        assert_eq!(a.ops, 3);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = CountingModel::new();
        {
            fn takes_model<M: MemModel>(mut m: M) {
                m.read(0, 4);
                m.op(1);
            }
            takes_model(&mut c);
        }
        assert_eq!(c.reads, 1);
        assert_eq!(c.ops, 1);
    }
}
