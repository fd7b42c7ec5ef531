//! Observability integration: the plan's phase spans and kernel events
//! line up with `ExecuteStats`, the pattern-cache counters move on the
//! global registry, and the disabled path stays allocation-free at
//! steady state.
//!
//! Tracing state is process-global, so the tests serialize on one lock
//! and filter drained spans per test where needed.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::CscMatrix;
use spkadd::{Algorithm, PatternOutcome, SpkAdd};
use std::sync::Mutex;

mod common;
use common::run_timed;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const ROWS: usize = 1 << 10;
const COLS: usize = 24;

fn collection() -> Vec<CscMatrix<f64>> {
    let mut mats = generate_collection(Pattern::Rmat, ROWS, COLS, 6, 6, 11);
    for m in &mut mats {
        m.sort_columns();
    }
    mats
}

fn names(spans: &[spk_obs::SpanRecord]) -> Vec<&'static str> {
    spans.iter().map(|s| s.name).collect()
}

#[test]
fn execute_emits_phase_spans_and_kernel_events() {
    let _g = lock();
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .build::<f64>()
        .unwrap();
    spk_obs::set_tracing(true);
    spk_obs::take_spans();
    let stats = run_timed(&mut plan, &refs).1;
    spk_obs::set_tracing(false);
    let spans: Vec<_> = spk_obs::take_spans()
        .into_iter()
        .filter(|s| s.name.starts_with("spkadd.") || s.name.starts_with("kway."))
        .collect();
    let n = names(&spans);
    assert!(n.contains(&"spkadd.execute"), "got {n:?}");
    assert!(n.contains(&"spkadd.symbolic"), "got {n:?}");
    assert!(n.contains(&"spkadd.numeric"), "got {n:?}");
    assert!(
        n.iter().any(|s| s.starts_with("kway.dispatch.")),
        "kernel dispatch events missing: {n:?}"
    );
    // The trace and ExecuteStats are the same measurement, not two
    // clocks: the numeric span IS stats.numeric.
    let numeric = spans.iter().find(|s| s.name == "spkadd.numeric").unwrap();
    assert_eq!(numeric.dur_ns, (stats.numeric * 1e9).round() as u64);
    let symbolic = spans.iter().find(|s| s.name == "spkadd.symbolic").unwrap();
    assert_eq!(symbolic.dur_ns, (stats.symbolic * 1e9).round() as u64);
    // Phases nest under the execute root.
    let execute = spans.iter().find(|s| s.name == "spkadd.execute").unwrap();
    assert_eq!(execute.depth, 0);
    assert_eq!(numeric.depth, 1);
    // Without a pattern cache the sortedness scan is serial and named.
    let validate = spans.iter().find(|s| s.name == "spkadd.validate");
    assert_eq!(validate.map(|s| s.depth), Some(1), "got {n:?}");
}

#[test]
fn pattern_hit_skips_the_symbolic_span() {
    let _g = lock();
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    // Cold execute inserts the pattern (untraced).
    let stats = run_timed(&mut plan, &refs).1;
    assert_eq!(stats.pattern, PatternOutcome::Miss);

    spk_obs::set_tracing(true);
    spk_obs::take_spans();
    let stats = run_timed(&mut plan, &refs).1;
    spk_obs::set_tracing(false);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    assert!(stats.symbolic_skipped);
    let spans: Vec<_> = spk_obs::take_spans()
        .into_iter()
        .filter(|s| s.name.starts_with("spkadd."))
        .collect();
    let n = names(&spans);
    assert!(n.contains(&"spkadd.execute"));
    assert!(n.contains(&"spkadd.fingerprint"));
    assert!(n.contains(&"spkadd.numeric"));
    assert!(
        !n.contains(&"spkadd.symbolic"),
        "a cache hit must skip the symbolic phase entirely: {n:?}"
    );
    assert!(
        !n.contains(&"spkadd.pattern_insert"),
        "a hit inserts nothing: {n:?}"
    );
}

#[test]
fn first_hit_builds_the_scatter_map_once_inside_numeric() {
    let _g = lock();
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    let traced_hit = |plan: &mut spkadd::SpkAddPlan<f64>| {
        spk_obs::set_tracing(true);
        spk_obs::take_spans();
        let stats = run_timed(plan, &refs).1;
        spk_obs::set_tracing(false);
        assert_eq!(stats.pattern, PatternOutcome::Hit);
        spk_obs::take_spans()
            .into_iter()
            .filter(|s| s.name.starts_with("spkadd."))
            .collect::<Vec<_>>()
    };
    let build = "spkadd.pattern.scatter_build";
    // The miss inserts the structure but builds no map.
    spk_obs::set_tracing(true);
    spk_obs::take_spans();
    run_timed(&mut plan, &refs);
    spk_obs::set_tracing(false);
    assert!(
        !names(&spk_obs::take_spans()).contains(&build),
        "a miss builds no map"
    );

    let spans = traced_hit(&mut plan);
    let builds: Vec<_> = spans.iter().filter(|s| s.name == build).collect();
    assert_eq!(
        builds.len(),
        1,
        "the first hit builds the map: {:?}",
        names(&spans)
    );
    let numeric = spans.iter().find(|s| s.name == "spkadd.numeric").unwrap();
    // Inside the numeric phase's interval, on its thread. (`timed`
    // phases record at the depth they ran at without deepening the
    // stack, so the build shares numeric's depth.)
    let b = builds[0];
    assert_eq!((b.thread, b.depth), (numeric.thread, numeric.depth));
    assert!(b.start_ns >= numeric.start_ns);
    assert!(b.start_ns + b.dur_ns <= numeric.start_ns + numeric.dur_ns);

    let spans = traced_hit(&mut plan);
    assert!(
        !names(&spans).contains(&build),
        "the second hit reuses the map: {:?}",
        names(&spans)
    );
}

#[test]
fn a_repeating_hit_traces_its_one_sweep_as_both_phases() {
    let _g = lock();
    // Wide enough for a parallel fingerprint sweep, which a guess needs.
    const WIDE: usize = 6000;
    let mut mats = generate_collection(Pattern::Rmat, ROWS, WIDE, 6, 6, 11);
    for m in &mut mats {
        m.sort_columns();
    }
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(ROWS, WIDE)
        .algorithm(Algorithm::Hash)
        .threads(2)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    // Miss, then two hits on the same pattern: the next execution
    // fingerprints and scatters in one region.
    let (_, cold) = run_timed(&mut plan, &refs);
    for _ in 0..2 {
        run_timed(&mut plan, &refs);
    }
    spk_obs::set_tracing(true);
    spk_obs::take_spans();
    let stats = run_timed(&mut plan, &refs).1;
    spk_obs::set_tracing(false);
    assert_eq!(stats.pattern, PatternOutcome::Hit);
    let spans = spk_obs::take_spans();
    let phase = |name: &str| -> Vec<&spk_obs::SpanRecord> {
        spans.iter().filter(|s| s.name == name).collect()
    };
    let n = names(&spans);
    assert!(phase("spkadd.symbolic").is_empty(), "{n:?}");
    assert!(phase("spkadd.pattern.scatter_build").is_empty(), "{n:?}");
    // One numeric span, the stats' own measurement, starting where the
    // sweep's share of the region ends.
    let numeric = phase("spkadd.numeric");
    assert_eq!(numeric.len(), 1, "{n:?}");
    assert_eq!(numeric[0].dur_ns, (stats.numeric * 1e9).round() as u64);
    let fingerprint = phase("spkadd.fingerprint");
    assert!(
        fingerprint
            .iter()
            .any(|f| f.start_ns + f.dur_ns == numeric[0].start_ns),
        "the sweep's span ends where numeric starts: {fingerprint:?} {numeric:?}"
    );
    let fp_ns: u64 = fingerprint.iter().map(|f| f.dur_ns).sum();
    assert!(fp_ns.abs_diff((stats.fingerprint * 1e9).round() as u64) <= 2);
    // The replayed decisions still emit one event per chunk.
    let events = n.iter().filter(|s| s.starts_with("kway.dispatch.")).count() as u64;
    assert_eq!(events, stats.kernel_counts.total());
    assert_eq!(stats.kernel_counts, cold.kernel_counts);
}

#[test]
fn pattern_counters_move_on_the_global_registry() {
    let _g = lock();
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let read = |name: &str| {
        spk_obs::global()
            .snapshot()
            .counter(name)
            .unwrap_or_default()
    };
    let hits0 = read("spkadd.pattern.hits");
    let misses0 = read("spkadd.pattern.misses");
    let inserts0 = read("spkadd.pattern.insertions");

    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Spa)
        .threads(1)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    plan.execute(&refs).unwrap(); // miss + insert
    plan.execute(&refs).unwrap(); // hit
    plan.execute(&refs).unwrap(); // hit

    assert_eq!(read("spkadd.pattern.misses"), misses0 + 1);
    assert_eq!(read("spkadd.pattern.insertions"), inserts0 + 1);
    assert_eq!(read("spkadd.pattern.hits"), hits0 + 2);
}

#[test]
fn disabled_tracing_stays_allocation_free_at_steady_state() {
    let _g = lock();
    spk_obs::set_tracing(false);
    let mats = collection();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let mut plan = SpkAdd::new(ROWS, COLS)
        .algorithm(Algorithm::Hash)
        .threads(1)
        .pattern_cache(2)
        .build::<f64>()
        .unwrap();
    // First execute builds workspaces and inserts the pattern.
    let first = plan.execute(&refs).unwrap();
    let workspace = plan.workspace_allocations();
    let obs = spk_obs::allocations();
    let mut sink = first.clone();
    for _ in 0..5 {
        plan.execute_into_timed(&refs, &mut sink).unwrap();
        assert_eq!(sink, first);
    }
    assert_eq!(
        plan.workspace_allocations(),
        workspace,
        "steady-state executes must not rebuild workspaces"
    );
    assert_eq!(
        spk_obs::allocations(),
        obs,
        "disabled tracing must add zero obs-layer allocations to the execute path"
    );
}
