//! Criterion benchmarks of the 2-way building blocks: a single pairwise
//! add, incremental vs tree reduction, and the library-style baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use spk_gen::{generate_collection, Pattern};
use spkadd::libstyle::lib_add_pair;
use spkadd::monoid::Plus;
use spkadd::parallel::Scheduling;
use spkadd::twoway::{add_pair, spkadd_incremental, spkadd_tree};

fn bench_twoway(c: &mut Criterion) {
    let mats = generate_collection(Pattern::Er, 1 << 14, 32, 64, 8, 42);
    let refs: Vec<&spk_sparse::CscMatrix<f64>> = mats.iter().collect();

    let mut group = c.benchmark_group("twoway");
    group.sample_size(15);
    group.bench_function("add_pair", |b| {
        b.iter(|| add_pair(refs[0], refs[1], 0, Scheduling::default(), Plus::new()));
    });
    group.bench_function("lib_add_pair", |b| {
        b.iter(|| lib_add_pair(refs[0], refs[1], Plus::new()));
    });
    group.bench_function("incremental_k8", |b| {
        b.iter(|| spkadd_incremental(&refs, 0, Scheduling::default(), Plus::new()));
    });
    group.bench_function("tree_k8", |b| {
        b.iter(|| spkadd_tree(&refs, 0, Scheduling::default(), Plus::new()));
    });
    group.finish();
}

criterion_group!(benches, bench_twoway);
criterion_main!(benches);
