//! Streaming accumulation in batches — the paper's closing remark: when
//! the k matrices do not fit in memory at once (graph snapshots arriving
//! over time), "we can still arrange input matrices in multiple batches
//! and then use SpKAdd for each batch".
//!
//! A stream of 256 graph-update matrices is folded in batches of 16: each
//! batch is reduced through **one retained `SpkAddPlan`** (the hash
//! tables built for batch 1 serve all 16 batches), and the running total
//! is merged in with one more 2-way add. The result is verified against
//! a one-shot SpKAdd over the whole stream.
//!
//! ```text
//! cargo run --release --example streaming_batches
//! ```

use spkadd_suite::gen::{generate_collection, Pattern};
use spkadd_suite::kadd::add_pair;
use spkadd_suite::sparse::CscMatrix;
use spkadd_suite::{spkadd_with, Algorithm, Options, Plus, SpkAdd};

fn main() {
    let (m, n, d) = (1 << 15, 64, 8);
    let stream = generate_collection(Pattern::Rmat, m, n, d, 256, 42);
    println!(
        "streaming {} update matrices ({} total nnz) in batches of 16",
        stream.len(),
        stream.iter().map(|s| s.nnz()).sum::<usize>()
    );

    let opts = Options::default();
    let mut plan = SpkAdd::new(m, n)
        .algorithm(Algorithm::Hash)
        .build()
        .expect("plan");
    let mut running: Option<CscMatrix<f64>> = None;
    let t = spk_obs::now();
    for (i, batch) in stream.chunks(16).enumerate() {
        let refs: Vec<&CscMatrix<f64>> = batch.iter().collect();
        let batch_sum = plan.execute(&refs).expect("batch spkadd");
        running = Some(match running.take() {
            None => batch_sum,
            Some(acc) => add_pair(&acc, &batch_sum, 0, Default::default(), Plus::new()),
        });
        if (i + 1) % 4 == 0 {
            println!(
                "  after batch {:>2}: accumulated nnz = {}",
                i + 1,
                running.as_ref().unwrap().nnz()
            );
        }
    }
    let streamed = running.unwrap();
    let t_stream = t.elapsed().as_secs_f64();
    println!(
        "  {} batch reductions through one plan, {} workspace builds total",
        plan.executions(),
        plan.workspace_allocations()
    );

    // Oracle: one-shot SpKAdd over the entire stream.
    let refs: Vec<&CscMatrix<f64>> = stream.iter().collect();
    let t = spk_obs::now();
    let oneshot = spkadd_with(&refs, Algorithm::Hash, &opts).expect("one-shot spkadd");
    let t_oneshot = t.elapsed().as_secs_f64();

    assert!(streamed.approx_eq(&oneshot, 1e-9));
    println!(
        "\nstreamed total matches one-shot SpKAdd ✓  \
         (streamed {:.1} ms, one-shot {:.1} ms; batching trades peak memory \
         for a modest time overhead)",
        t_stream * 1e3,
        t_oneshot * 1e3
    );
}
