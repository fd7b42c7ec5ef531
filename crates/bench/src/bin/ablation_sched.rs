//! §III-A ablation: static vs dynamic (weight-balanced) column scheduling
//! on skewed inputs.
//!
//! The paper: "for matrices with skewed nonzero distributions such as
//! RMAT matrices … a static scheduling of threads hurts the parallel
//! performance". This harness times the hash algorithm under both
//! policies on an RMAT collection and, as a control, on a uniform ER
//! collection where the policies should tie.
//!
//! Usage: `cargo run --release -p spk_bench --bin ablation_sched
//! [--rows R] [--cols C] [--d D] [--k K] [--threads T] [--reps N]`

use spk_bench::{fmt_secs, print_table, refs, time_best, workloads, Args};
use spkadd::{Algorithm, Options, Scheduling};

fn main() {
    let args = Args::parse();
    let m = args.get("rows", 1 << 16);
    let n = args.get("cols", 512usize);
    let d = args.get("d", 64usize);
    let k = args.get("k", 64usize);
    let threads = args.get("threads", 0usize);
    let reps = args.get("reps", 3usize);

    println!(
        "Scheduling ablation: rows={m}, cols={n}, d={d}, k={k}, threads={}",
        if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        }
    );
    let mut rows = vec![vec![
        "Workload".to_string(),
        "Static (s)".to_string(),
        "Dynamic (s)".to_string(),
        "Static/Dynamic".to_string(),
    ]];
    for (name, mats) in [
        ("RMAT (skewed)", workloads::rmat_collection(m, n, d, k, 42)),
        ("ER (uniform)", workloads::er_collection(m, n, d, k, 43)),
    ] {
        let mrefs = refs(&mats);
        let mut static_opts = Options::default();
        static_opts.threads = threads;
        static_opts.validate_sorted = false;
        static_opts.scheduling = Scheduling::Static;
        let mut dynamic_opts = static_opts.clone();
        dynamic_opts.scheduling = Scheduling::Dynamic {
            chunks_per_thread: 8,
        };
        // One plan per scheduling policy, reused across reps.
        let mut static_plan = spkadd::SpkAdd::new(m, n)
            .algorithm(Algorithm::Hash)
            .options(static_opts)
            .build::<f64>()
            .expect("plan build failed");
        let mut dynamic_plan = spkadd::SpkAdd::new(m, n)
            .algorithm(Algorithm::Hash)
            .options(dynamic_opts)
            .build::<f64>()
            .expect("plan build failed");
        let (_, t_static) = time_best(reps, || static_plan.execute(&mrefs).expect("spkadd failed"));
        let (_, t_dynamic) = time_best(reps, || {
            dynamic_plan.execute(&mrefs).expect("spkadd failed")
        });
        rows.push(vec![
            name.to_string(),
            fmt_secs(t_static),
            fmt_secs(t_dynamic),
            format!("{:.2}x", t_static / t_dynamic),
        ]);
    }
    print_table(&rows);
    println!("\nExpected: ratio > 1 on RMAT (dynamic wins), ≈ 1 on ER.");
}
