//! The explore fast path's retiming layers and closed-form code sizes
//! against their oracles on the graphs the pipeline feeds them: every
//! committed kernel's f-unfolding for f = 1..8.

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::unfolded::retime_unfold_program;
use cred_codegen::DecMode;
use cred_dfg::algo::WdMatrices;
use cred_explore::cache::{compute_plan, compute_plan_budgeted, PlanSource, SweepCache};
use cred_explore::suite::load_kernels;
use cred_explore::ExploreRequest;
use cred_resilience::Budget;
use cred_retime::RetimeSolver;
use cred_unfold::unfold;
use std::path::Path;

fn kernels() -> Vec<(String, cred_dfg::Dfg)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).unwrap();
    assert_eq!(kernels.len(), 10, "expected the 10 bundled kernels");
    kernels
}

#[test]
fn wd_sweep_matches_floyd_warshall_on_every_kernel_unfolding() {
    for (name, g) in &kernels() {
        for f in 1..=8 {
            let u = unfold(g, f).graph;
            let reference = WdMatrices::compute_reference(&u);
            assert_eq!(
                WdMatrices::compute(&u).first_mismatch(&reference),
                None,
                "{name} f={f}"
            );
            assert_eq!(
                WdMatrices::compute_unfolded(g, f).first_mismatch(&reference),
                None,
                "{name} f={f} (residue form)"
            );
        }
    }
}

/// A 0-unit work budget exhausts the fast path at once, so the ladder
/// hands the factor to the dense reference pipeline (full-form W/D of the
/// built unfolding, Bellman–Ford, dense compaction), which shares no code
/// with the path it is compared with: the residue-form solver on the
/// original graph, which never builds the unfolding.
///
/// The engine's points take both code sizes from closed forms; they must
/// equal the sizes of the programs generated from the reference plan, in
/// both modes and on both sides of Theorem 4.5's boundary `n - M_r = f`:
/// `n = M_r + f - 1` (no kernel chunk fits, straight-line code) and
/// `n = M_r + f` (one chunk), plus `n = 3` and `n = 101`.
#[test]
fn fast_plan_equals_degraded_reference_plan_on_every_kernel() {
    let starved = Budget::unlimited().with_work_limit(0);
    for (name, g) in &kernels() {
        let cache = SweepCache::new();
        let (mut degenerate, mut chunked) = (0, 0);
        for f in 1..=8 {
            let (reference, source) = compute_plan_budgeted(g, f, &starved).unwrap();
            assert!(
                matches!(source, PlanSource::Reference(_)),
                "{name} f={f}: {source:?}"
            );
            assert_eq!(compute_plan(g, f), reference, "{name} f={f}");
            let r = &reference.projected;
            let m = r.max_value() as u64;
            for n in [m + f as u64 - 1, m + f as u64, 3, 101] {
                if (n as i64 - m as i64) < f as i64 {
                    degenerate += 1;
                } else {
                    chunked += 1;
                }
                for mode in [DecMode::Bulk, DecMode::PerCopy] {
                    let points = ExploreRequest::new(g.clone())
                        .max_f(f)
                        .trip_count(n)
                        .mode(mode)
                        .run_with(&cache)
                        .expect("unlimited budget cannot exhaust")
                        .points;
                    let at = format!("{name} f={f} n={n} {mode:?}");
                    assert_eq!(
                        points[f - 1].plain_size,
                        retime_unfold_program(g, r, f, n).code_size(),
                        "{at}: plain size"
                    );
                    assert_eq!(
                        points[f - 1].objectives.cred_size,
                        cred_retime_unfold(g, r, f, n, mode).code_size(),
                        "{at}: CRED size"
                    );
                }
            }
        }
        assert!(
            degenerate > 0 && chunked > 0,
            "{name}: {degenerate} degenerate and {chunked} chunked windows"
        );
    }
}

/// The period search starts at the first candidate at or above the
/// solver's closed-walk bound. On every kernel unfolding that candidate is
/// already the optimum, so the cold path pays one feasible probe and no
/// infeasible one; a weaker bound would bring the infeasible probes back.
#[test]
fn closed_walk_bound_lands_on_the_optimal_period_on_every_kernel() {
    for (name, g) in &kernels() {
        for f in 1..=8 {
            let wd = WdMatrices::compute_unfolded(g, f);
            let bound = RetimeSolver::new(g, &wd).period_lower_bound() as i64;
            let first = wd.candidate_periods().into_iter().find(|&c| c >= bound);
            assert_eq!(
                first,
                Some(compute_plan(g, f).period as i64),
                "{name} f={f}: bound {bound}"
            );
        }
    }
}
