//! Criterion bench for the retiming solver layer: the dense reference path
//! (full `ConstraintSystem` + edge-list Bellman–Ford per probe: a period
//! search, a span bisection, then compaction against the dense system)
//! against the warm-started incremental solver (CSR constraint graph +
//! SPFA + feasible-solution reuse across the probes of its period search,
//! whose answer already has minimum span, then compaction on the same
//! solver), per bundled kernel size, plus the unfolding sweep on the
//! largest kernel (elliptic, 34 nodes). Both sides return the same
//! retiming and compaction. In the sweep the reference runs on the full-form
//! W/D of the built unfolding, the incremental solver on the original graph
//! with the residue form, one solver per factor. W/D is computed outside the
//! timed region, but the incremental side's `RetimeSolver::new` sorts the
//! pairs it keeps (`activation_from`). The sweep also times the FEAS
//! planner the exploration engine plans with, which needs no W/D at all.

use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;
use cred_retime::minperiod::{constraints_for_period, min_period_retiming_reference};
use cred_retime::span::{compact_values_with, min_span_retiming_reference};
use cred_retime::{FeasPlanner, RetimeSolver, Retiming};
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

/// The reference side on `g` (a graph or a built unfolding) and its
/// full-form W/D matrices: the retiming and its compaction.
fn reference_plan(g: &Dfg, wd: &WdMatrices) -> (Retiming, Retiming) {
    let opt = min_period_retiming_reference(g, wd);
    let r = min_span_retiming_reference(g, wd, opt.period).unwrap();
    let sys = constraints_for_period(g, wd, opt.period as i64);
    (compact_values_with(&sys, &r), r)
}

/// The incremental side, as explore plans a factor.
fn incremental_plan(solver: &mut RetimeSolver) -> (Retiming, Retiming) {
    let opt = solver.min_period();
    (solver.compact(opt.period, &opt.retiming), opt.retiming)
}

/// The FEAS side on the `f`-unfolding of `g`, as explore plans a factor.
fn feas_plan(planner: &mut FeasPlanner, g: &Dfg, f: usize) -> (Retiming, Retiming) {
    let opt = planner.min_period(g, f);
    (planner.compact(opt.period, &opt.retiming), opt.retiming)
}

/// Cold vs warm on a single graph: the compacted minimum-span retiming of
/// the optimal period — the per-factor solve of an exploration sweep. W/D
/// is precomputed outside the timed region for both sides so the bench
/// isolates the solver layer.
fn bench_single_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("retime_solver");
    group.sample_size(10);
    for (name, g) in &kernels() {
        let wd = WdMatrices::compute(g);
        // The pair must agree before it is worth timing.
        assert_eq!(
            incremental_plan(&mut RetimeSolver::new(g, &wd)),
            reference_plan(g, &wd),
            "{name}: the solvers diverge"
        );
        group.bench_with_input(BenchmarkId::new("reference", name), g, |b, g| {
            b.iter(|| black_box(reference_plan(g, &wd)));
        });
        group.bench_with_input(BenchmarkId::new("incremental", name), g, |b, g| {
            b.iter(|| black_box(incremental_plan(&mut RetimeSolver::new(g, &wd))));
        });
    }
    group.finish();
}

/// The exploration engine's inner loop on the largest kernel: solve every
/// unfolding factor 1..=SWEEP_MAX_F back to back. The FEAS side keeps one
/// planner for the sweep, as an explore request does.
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
    for (f, (u, full, residue)) in (1..).zip(&graphs) {
        assert_eq!(
            incremental_plan(&mut RetimeSolver::new(&g, residue)),
            reference_plan(u, full),
            "elliptic f = {f}: the solvers diverge"
        );
        assert_eq!(
            feas_plan(&mut FeasPlanner::new(), &g, f),
            reference_plan(u, full),
            "elliptic f = {f}: FEAS diverges"
        );
    }
    let mut group = c.benchmark_group("retime_solver_sweep");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("reference", "elliptic"), |b| {
        b.iter(|| {
            for (u, full, _) in &graphs {
                black_box(reference_plan(u, full));
            }
        });
    });
    group.bench_function(BenchmarkId::new("incremental", "elliptic"), |b| {
        b.iter(|| {
            for (_, _, wd) in &graphs {
                black_box(incremental_plan(&mut RetimeSolver::new(&g, wd)));
            }
        });
    });
    group.bench_function(BenchmarkId::new("feas", "elliptic"), |b| {
        let mut planner = FeasPlanner::with_capacity(&g, SWEEP_MAX_F);
        b.iter(|| {
            for f in 1..=SWEEP_MAX_F {
                black_box(feas_plan(&mut planner, &g, f));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_single_kernel, bench_unfold_sweep);
criterion_main!(benches);
