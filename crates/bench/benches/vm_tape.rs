//! Criterion bench for the VM executor pair: the tree-walking reference
//! interpreter against the preresolved instruction tape (compile +
//! execute, so the tape side pays its own lowering cost — exactly what
//! the verification oracle pays per generated program).
//!
//! The program under execution is each bundled kernel's CRED
//! retime+unfold output at f = 2 — the guard-heaviest generator, i.e.
//! the most guard windows for the tape compiler to precompute.

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::{DecMode, LoopProgram};
use cred_explore::cache::compute_plan;
use cred_vm::{cross_check_executors, execute, execute_tape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const N: u64 = 512;
const F: usize = 2;

fn programs() -> Vec<(&'static str, LoopProgram)> {
    [
        ("iir", cred_kernels::iir_filter()),
        ("allpole", cred_kernels::all_pole_filter()),
        ("lattice", cred_kernels::lattice_filter()),
        ("volterra", cred_kernels::volterra_filter()),
        ("elliptic", cred_kernels::elliptic_filter()),
    ]
    .into_iter()
    .map(|(name, g)| {
        let r = compute_plan(&g, F).projected;
        (name, cred_retime_unfold(&g, &r, F, N, DecMode::Bulk))
    })
    .collect()
}

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_tape");
    group.sample_size(10);
    for (name, p) in &programs() {
        // The pair must agree before it is worth timing.
        cross_check_executors(p).expect("executors diverge");
        group.bench_with_input(BenchmarkId::new("tree", name), p, |b, p| {
            b.iter(|| black_box(execute(p).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("tape", name), p, |b, p| {
            b.iter(|| black_box(execute_tape(p).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
