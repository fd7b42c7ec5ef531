//! Criterion micro-benchmarks of the per-column k-way kernels
//! (hash / SPA / heap) on one synthetic merged column — the innermost
//! loops every SpKAdd algorithm is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spk_sparse::ColView;
use spkadd::hashtab::HashAccumulator;
use spkadd::heap::KwayHeap;
use spkadd::kernels::{hash_add_column, heap_add_column, spa_add_column};
use spkadd::mem::NullModel;
use spkadd::monoid::Plus;
use spkadd::spa::Spa;

/// Builds k sorted pseudo-random columns of ~d entries over m rows.
fn make_columns(m: usize, d: usize, k: usize) -> Vec<(Vec<u32>, Vec<f64>)> {
    (0..k)
        .map(|i| {
            let mut rows: Vec<u32> = (0..d)
                .map(|j| (((j * k + i) * 2654435761usize) % m) as u32)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            let vals = vec![1.0f64; rows.len()];
            (rows, vals)
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let m = 1 << 16;
    let mut group = c.benchmark_group("colkernels");
    group.sample_size(20);
    for &(d, k) in &[(64usize, 8usize), (256, 32)] {
        let cols_data = make_columns(m, d, k);
        let views: Vec<ColView<'_, f64>> = cols_data
            .iter()
            .map(|(r, v)| ColView { rows: r, vals: v })
            .collect();
        let out_cap = d * k;
        let mut out_rows = vec![0u32; out_cap];
        let mut out_vals = vec![0.0f64; out_cap];

        group.bench_function(BenchmarkId::new("hash", format!("d{d}_k{k}")), |b| {
            let mut ht = HashAccumulator::<f64>::with_capacity(out_cap);
            b.iter(|| {
                hash_add_column(
                    &views,
                    &mut ht,
                    &mut out_rows,
                    &mut out_vals,
                    true,
                    Plus::new(),
                    &mut NullModel,
                )
            });
        });
        group.bench_function(BenchmarkId::new("spa", format!("d{d}_k{k}")), |b| {
            let mut spa = Spa::<f64>::new(m);
            b.iter(|| {
                spa_add_column(
                    &views,
                    &mut spa,
                    &mut out_rows,
                    &mut out_vals,
                    true,
                    Plus::new(),
                    &mut NullModel,
                )
            });
        });
        group.bench_function(BenchmarkId::new("heap", format!("d{d}_k{k}")), |b| {
            let mut heap = KwayHeap::<f64>::new(k);
            b.iter(|| {
                heap_add_column(
                    &views,
                    &mut heap,
                    &mut out_rows,
                    &mut out_vals,
                    Plus::new(),
                    &mut NullModel,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
