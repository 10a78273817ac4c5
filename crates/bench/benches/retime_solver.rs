//! Criterion bench for the retiming solver layer: the dense reference path
//! (full `ConstraintSystem` + edge-list Bellman–Ford per probe) against the
//! warm-started incremental solver (CSR constraint graph + SPFA +
//! feasible-solution reuse across the period/span binary searches), per
//! bundled kernel size, plus the unfolding sweep on the largest kernel
//! (elliptic, 34 nodes). In the sweep each side runs on the W/D matrices
//! explore gives it: the reference on the full form of the built
//! unfolding, the incremental solver on the original graph with the
//! residue form (one period row per original node, the unfolding never
//! built), reusing its scratch arena between factors.

use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;
use cred_retime::minperiod::min_period_retiming_reference;
use cred_retime::span::min_span_retiming_reference;
use cred_retime::{RetimeSolver, SolverScratch};
use cred_unfold::unfold;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SWEEP_MAX_F: usize = 4;

fn kernels() -> Vec<(&'static str, Dfg)> {
    vec![
        ("iir", cred_kernels::iir_filter()),
        ("allpole", cred_kernels::all_pole_filter()),
        ("lattice", cred_kernels::lattice_filter()),
        ("volterra", cred_kernels::volterra_filter()),
        ("elliptic", cred_kernels::elliptic_filter()),
    ]
}

/// Cold vs warm on a single graph: the full min-period search plus span
/// minimization at the optimum — the per-factor work of an exploration
/// sweep. W/D is precomputed outside the timed region for both sides so
/// the bench isolates the solver layer.
fn bench_single_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("retime_solver");
    group.sample_size(10);
    for (name, g) in &kernels() {
        let wd = WdMatrices::compute(g);
        group.bench_with_input(BenchmarkId::new("reference", name), g, |b, g| {
            b.iter(|| {
                let opt = min_period_retiming_reference(g, &wd);
                black_box(min_span_retiming_reference(g, &wd, opt.period).unwrap());
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", name), g, |b, g| {
            b.iter(|| {
                let mut solver = RetimeSolver::new(g, &wd);
                let opt = solver.min_period();
                black_box(solver.min_span_from_base(opt.period, &opt.retiming));
            });
        });
    }
    group.finish();
}

/// The exploration engine's inner loop on the largest kernel: solve every
/// unfolding factor 1..=SWEEP_MAX_F back to back. The incremental side
/// passes one scratch arena from factor to factor, so steady-state solves
/// allocate nothing.
fn bench_unfold_sweep(c: &mut Criterion) {
    let g = cred_kernels::elliptic_filter();
    let graphs: Vec<(Dfg, WdMatrices, WdMatrices)> = (1..=SWEEP_MAX_F)
        .map(|f| {
            let u = unfold(&g, f).graph;
            let full = WdMatrices::compute(&u);
            let residue = WdMatrices::compute_unfolded(&g, f);
            (u, full, residue)
        })
        .collect();
    let mut group = c.benchmark_group("retime_solver_sweep");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("reference", "elliptic"), |b| {
        b.iter(|| {
            for (u, full, _) in &graphs {
                let opt = min_period_retiming_reference(u, full);
                black_box(min_span_retiming_reference(u, full, opt.period).unwrap());
            }
        });
    });
    group.bench_function(BenchmarkId::new("incremental", "elliptic"), |b| {
        b.iter(|| {
            let mut scratch = SolverScratch::new();
            for (_, _, wd) in &graphs {
                let mut solver = RetimeSolver::with_scratch(&g, wd, scratch);
                let opt = solver.min_period();
                black_box(solver.min_span_from_base(opt.period, &opt.retiming));
                scratch = solver.into_scratch();
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_single_kernel, bench_unfold_sweep);
criterion_main!(benches);
