//! Criterion bench for the Table 1 experiment: the cost of the full CRED
//! pipeline (rate-optimal retiming of minimum span, register compaction,
//! code generation, and VM verification) per DSP benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    for (name, g) in cred_kernels::all_benchmarks() {
        group.bench_function(name, |b| {
            b.iter(|| black_box(cred_bench::table1_row(name, black_box(&g), 101)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
