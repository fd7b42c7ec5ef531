//! # spkadd-suite — facade crate
//!
//! Re-exports the whole SpKAdd reproduction workspace behind one dependency:
//!
//! * [`sparse`] — CSC/COO containers and I/O ([`spk_sparse`]);
//! * [`kadd`] — the SpKAdd algorithms themselves ([`spkadd`]);
//! * [`gen`] — deterministic workload generators ([`spk_gen`]);
//! * [`spgemm`] — local sparse matrix-matrix multiply ([`spk_spgemm`]);
//! * [`summa`] — the simulated distributed sparse SUMMA pipeline
//!   ([`spk_summa`]);
//! * [`cachesim`] — the trace-driven cache simulator ([`spk_cachesim`]);
//! * [`server`] — the sharded, concurrent SpKAdd aggregation service
//!   ([`spk_server`]);
//! * [`obs`] — span tracing, metrics registry, and machine-readable run
//!   reports ([`spk_obs`]).
//!
//! See `examples/quickstart.rs` for a three-minute tour and DESIGN.md for
//! the map from paper sections to modules.

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

pub use spk_cachesim as cachesim;
pub use spk_gen as gen;
pub use spk_obs as obs;
pub use spk_server as server;
pub use spk_sparse as sparse;
pub use spk_spgemm as spgemm;
pub use spk_summa as summa;
pub use spkadd as kadd;

/// The front door, re-exported at the top level: build a reusable
/// execution plan once ([`SpkAdd`] → [`SpkAddPlan`]), execute it over as
/// many collections as you like — workspaces are retained across calls.
/// [`SpkAddPlan::execute`] returns the sum;
/// [`SpkAddPlan::execute_into_timed`] recycles an output buffer and
/// returns the [`ExecuteStats`].
pub use spkadd::{SpkAdd, SpkAddPlan};

/// The one-shot shim over a throwaway plan: add a collection with an
/// explicitly chosen algorithm ([`Algorithm::Auto`] picks with the
/// paper's Fig 2 heuristics).
pub use spkadd::{spkadd_with, Algorithm, Options};

/// Per-execution instrumentation: phase timings plus the pattern-cache
/// outcome ([`PatternOutcome::Hit`] means the symbolic phase was skipped
/// entirely and the cached output structure was reused).
pub use spkadd::{ExecuteStats, PatternCacheStats, PatternOutcome};

/// Monoid-generic reduction: the same SpKAdd machinery folding under
/// any associative combine — `Or` for structural unions, `Min`/
/// [`MaxPlus`] for tropical semirings, [`ThresholdedPlus`] for filtered
/// merges. Build the plan with
/// [`SpkAdd::build_with_monoid`](spkadd::SpkAdd::build_with_monoid);
/// [`SpkAdd::build`](spkadd::SpkAdd::build) is that with [`Plus`].
pub use spkadd::{MaxPlus, Min, Monoid, Or, Plus, SaturatingCount, ThresholdedPlus};
