//! Helpers shared by the integration tests.

use spk_sparse::{CscMatrix, Element};
use spkadd::{ExecuteStats, Monoid, SpkAddPlan};

/// Executes `plan` into a fresh output, returning it with the stats.
pub fn run_timed<T: Element, O: Monoid<Value = T>>(
    plan: &mut SpkAddPlan<T, O>,
    mats: &[&CscMatrix<T>],
) -> (CscMatrix<T>, ExecuteStats) {
    let mut out = CscMatrix::zeros(0, 0);
    let stats = plan.execute_into_timed(mats, &mut out).unwrap();
    (out, stats)
}
