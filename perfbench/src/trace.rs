//! Benchmark-owned spans and the traced run's span bookkeeping.
//!
//! Every call into a module's public API goes through [`call`], which
//! opens a `bench.<module>.<call>` span around it and returns the same
//! call's wall time. With tracing off the span is a single atomic load.
//! The traced run drains the program's own spans (`spkadd.*`,
//! `stream.flush`, `kway.dispatch.*`) after each op and folds them into
//! [`PhaseSums`]; [`TraceLog`] writes everything out at the end as one
//! `spk_obs.trace.v1` document.

use spk_obs::{SpanKind, SpanRecord};
use spkadd::NumericKernel;
use std::path::Path;

/// Runs `f` inside a `name` span and returns its result with its wall
/// time in seconds.
pub fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let span = spk_obs::span!(name);
    let t0 = spk_obs::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

/// Per-layer time and counts read off the program's own spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseSums {
    /// `spkadd.fingerprint` + `spkadd.pattern_insert` seconds.
    pub fingerprint: f64,
    pub symbolic: f64,
    pub numeric: f64,
    /// `spkadd.execute` seconds not covered by its phase spans.
    pub execute_self: f64,
    /// `kway.dispatch.<kernel>` events, in [`NumericKernel::ALL`] order.
    pub chunks: [u64; NumericKernel::COUNT],
}

impl PhaseSums {
    pub fn of(spans: &[SpanRecord]) -> Self {
        let mut sums = PhaseSums::default();
        for rec in spans {
            let secs = rec.dur_ns as f64 * 1e-9;
            if rec.kind == SpanKind::Event {
                if let Some(k) = NumericKernel::ALL
                    .iter()
                    .position(|k| rec.name.strip_prefix("kway.dispatch.") == Some(k.token()))
                {
                    sums.chunks[k] += 1;
                }
                continue;
            }
            match rec.name {
                "spkadd.fingerprint" | "spkadd.pattern_insert" => sums.fingerprint += secs,
                "spkadd.symbolic" => sums.symbolic += secs,
                "spkadd.numeric" => sums.numeric += secs,
                "spkadd.execute" => sums.execute_self += secs - child_secs(spans, rec),
                _ => {}
            }
        }
        sums
    }

    pub fn add(&mut self, other: &PhaseSums) {
        self.fingerprint += other.fingerprint;
        self.symbolic += other.symbolic;
        self.numeric += other.numeric;
        self.execute_self += other.execute_self;
        for (a, b) in self.chunks.iter_mut().zip(other.chunks) {
            *a += b;
        }
    }
}

/// Seconds covered by `parent`'s direct child spans (same thread, one
/// level deeper, starting inside its interval).
fn child_secs(spans: &[SpanRecord], parent: &SpanRecord) -> f64 {
    let end = parent.start_ns + parent.dur_ns;
    spans
        .iter()
        .filter(|c| {
            c.kind == SpanKind::Span
                && c.thread == parent.thread
                && c.depth == parent.depth + 1
                && (parent.start_ns..end).contains(&c.start_ns)
        })
        .map(|c| c.dur_ns as f64 * 1e-9)
        .sum()
}

/// Every span drained during the traced phase, kept in memory until the
/// benchmark ends.
#[derive(Debug, Default)]
pub struct TraceLog {
    spans: Vec<SpanRecord>,
}

impl TraceLog {
    /// Drains the span rings, keeps the records, and returns this
    /// drain's records for per-op attribution.
    pub fn drain(&mut self) -> Vec<SpanRecord> {
        let fresh = spk_obs::take_spans();
        self.spans.extend_from_slice(&fresh);
        fresh
    }

    /// Writes the `spk_obs.trace.v1` document, refusing one that
    /// `obs-check` would reject.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let doc = spk_obs::trace_json(&self.spans, spk_obs::dropped_spans());
        spk_obs::schema::validate_json(&doc).map_err(|e| format!("trace document invalid: {e}"))?;
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, depth: u16, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            thread: 0,
            depth,
            kind: if dur == 0 {
                SpanKind::Event
            } else {
                SpanKind::Span
            },
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn execute_self_time_excludes_its_phases() {
        let spans = [
            rec("spkadd.execute", 1, 100, 1000),
            rec("spkadd.symbolic", 2, 110, 300),
            rec("spkadd.numeric", 2, 420, 600),
            rec("kway.dispatch.hash", 0, 500, 0),
            rec("kway.dispatch.spa", 0, 510, 0),
            rec("kway.dispatch.hash", 0, 520, 0),
            // A later span at the same depth is not a child.
            rec("spkadd.numeric", 2, 5000, 50),
        ];
        let s = PhaseSums::of(&spans);
        assert!((s.execute_self - 100e-9).abs() < 1e-15);
        assert!((s.symbolic - 300e-9).abs() < 1e-15);
        assert!((s.numeric - 650e-9).abs() < 1e-15);
        assert_eq!(s.chunks, [2, 0, 1, 0, 0]);
        let mut total = s;
        total.add(&s);
        assert_eq!(total.chunks[0], 4);
    }

    #[test]
    fn call_times_the_closure() {
        let (v, secs) = call("bench.test.call", || 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
