//! # cred-explore — design-space exploration
//!
//! The paper closes §4 with the trade-off machinery CRED enables: given a
//! code-size requirement `L_req`, the maximum unfolding factor is
//! `M_f = floor(L_req/L) - M_r`; given an unfolding factor, the maximum
//! retiming depth is `M_r = floor(L_req/L) - f`; and designers can explore
//! (code size, performance, registers) jointly. This crate implements that
//! exploration with the paper's closed-form code sizes (Theorem 4.5 and §4,
//! [`cred_codegen::ExpectedCounts`]); the reference sweep measures the
//! generated programs instead, and the differential tests hold the two
//! equal:
//!
//! * [`ExploreRequest`] / [`ExploreResponse`] — **the** exploration API:
//!   a builder holding the kernel, the sweep parameters, and the resource
//!   limits, evaluated into one [`ParetoPoint`] per unfolding factor —
//!   each carrying the four [`Objectives`] (CRED code size, iteration
//!   period, conditional registers `P_r`, data-register pressure
//!   `maxlive`) — plus the non-dominated frontier over all four axes,
//!   the per-factor outcome report, and cache statistics. The CLI, the
//!   suite runner, and the `cred-service` evaluation server all go
//!   through it;
//! * [`frontier`] — filter to the non-dominated set over the four
//!   objective axes, optionally capped by a total-register budget;
//! * [`best_under_code_budget`] / [`best_under_register_budget`] — the two
//!   constrained searches the paper sketches ("find the maximum
//!   performance when the number of conditional registers are limited");
//! * [`sweep_reference`] — the independent per-point reference pipeline,
//!   kept as the differential-testing oracle and benchmark baseline;
//! * [`suite`] — batch exploration over a directory of `.loop` kernels
//!   with machine-readable JSON output;
//! * [`CredError`] — the unified front-end error type with stable
//!   machine-readable codes.
//!
//! A cold request allocates per request, not per factor or per token.
//! [`ExploreRequest::from_source`] parses with `cred_lang::parse`, whose
//! tokens and syntax tree borrow the source, so it allocates per node of
//! the graph. Each sweep worker then plans every factor it claims in one
//! workspace that owns the buffers of the W/D sweep, the solver and the
//! maxlive count (see [`cache`]), and maxlive is counted on one copy of
//! the sequential kernel, whose pressure is the same at every factor (the
//! proof is in [`cred_schedule::maxlive`]).

pub mod api;
pub mod cache;
pub mod error;
pub mod suite;

pub use api::{
    exact_json, point_json, CacheStats, ExactSummary, ExploreOptions, ExploreRequest,
    ExploreResponse, MAX_MAX_F, MAX_N,
};
pub use error::CredError;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::unfolded::retime_unfold_program;
use cred_codegen::{DecMode, ExpectedCounts};
use cred_dfg::algo::WdMatrices;
use cred_dfg::{Dfg, Ratio};
use cred_resilience::{failpoint, panic_message, Budget, DegradationEvent};
use cred_retime::minperiod::constraints_for_period;
use cred_retime::span::compact_values_with;
use cred_retime::{min_period_retiming, RetimeSolver};
use cred_schedule::{sequential_maxlive, KernelSchedule, MaxliveScratch};
use cred_unfold::orders::{project_copies, project_retiming};
use cred_unfold::unfold;

use cache::{FactorPlan, PlanSource, PlanWorkspace, SweepCache};

/// The four objective axes of one evaluated configuration, all minimized.
///
/// `cred_size` and `iteration_period` are the paper's own trade-off;
/// `cond_registers` is the paper's `P_r` (conditional registers CRED
/// needs); `maxlive` is the steady-state data-register pressure of the
/// scheduled kernel ([`cred_schedule::maxlive`]). Dominance and the
/// [`frontier`] are defined over all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objectives {
    /// Code size with CRED, given the chosen decrement mode.
    pub cred_size: usize,
    /// Achieved iteration period (unfolded cycle period / f), exact.
    pub iteration_period: Ratio,
    /// Conditional registers CRED needs (the paper's `P_r`).
    pub cond_registers: usize,
    /// Maximum simultaneously live data values over the kernel cycles.
    pub maxlive: usize,
}

impl Objectives {
    /// Total register demand: conditional registers plus peak data
    /// pressure — the quantity [`ExploreOptions::max_registers`] caps.
    pub fn total_registers(&self) -> usize {
        self.cond_registers + self.maxlive
    }

    /// `self` dominates `other` iff it is at least as good on every axis
    /// and strictly better on at least one (all axes minimized).
    pub fn dominates(&self, other: &Objectives) -> bool {
        let le = self.cred_size <= other.cred_size
            && self.iteration_period <= other.iteration_period
            && self.cond_registers <= other.cond_registers
            && self.maxlive <= other.maxlive;
        le && (self.cred_size < other.cred_size
            || self.iteration_period < other.iteration_period
            || self.cond_registers < other.cond_registers
            || self.maxlive < other.maxlive)
    }
}

/// One evaluated configuration of the (retime, unfold, CRED) pipeline:
/// the identifying sweep coordinates plus its [`Objectives`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Unfolding factor.
    pub f: usize,
    /// Maximum normalized retiming value of the projected retiming.
    pub m_r: i64,
    /// Code size without CRED (retime-then-unfold baseline).
    pub plain_size: usize,
    /// The four objective axes this configuration achieves.
    pub objectives: Objectives,
}

/// The retiming used per factor: rate-optimal on the unfolded graph,
/// projected back (Theorem 4.5), span-minimized and register-compacted.
///
/// This is the *reference* pipeline: each retiming pass recomputes its own
/// full-form W/D matrices of the built unfolding from scratch, and
/// compaction checks the dense [`cred_retime::ConstraintSystem`], both
/// code sizes are measured on the generated programs, and maxlive is
/// counted on the `f`-copy kernel. The [`ExploreRequest`] engine reaches
/// the same points through [`cache::compute_plan`], which shares one
/// residue-form W/D computation across the passes, and through the closed
/// forms of [`point_from_plan`]; keeping this path independent makes it a
/// differential-testing oracle (and the benchmark baseline) for the
/// memoized engine.
fn point_for_factor(g: &Dfg, f: usize, n: u64, mode: DecMode) -> ParetoPoint {
    let u = unfold(g, f);
    let opt = min_period_retiming(&u.graph);
    let wd = WdMatrices::compute(&u.graph);
    let sys = constraints_for_period(&u.graph, &wd, opt.period as i64);
    let r_f = compact_values_with(&sys, &opt.retiming);
    let projected = project_retiming(&u, &r_f);
    let plain = retime_unfold_program(g, &projected, f, n).code_size();
    let cred = cred_retime_unfold(g, &projected, f, n, mode).code_size();
    let maxlive = KernelSchedule::sequential(g, &projected, f)
        .maxlive()
        .maxlive;
    let plan = FactorPlan {
        projected,
        period: opt.period,
    };
    point_with(f, &plan, plain, cred, maxlive)
}

/// Materialize a [`ParetoPoint`] from a (possibly cached) plan, with both
/// code sizes from their closed forms: the plain retime-then-unfold size
/// of Theorem 4.5 ([`ExpectedCounts::retime_unfold`]) and the CRED size
/// `f·L + P_r·(f+1)` or `f·L + 2·P_r` ([`ExpectedCounts::cred_retime_unfold`]),
/// and maxlive from one copy of the sequential kernel
/// ([`sequential_maxlive`]: every factor's kernel has one copy's
/// pressure), counted in `scratch`. Oracle layer 1 checks both size forms
/// against every generated program, and [`sweep_reference`] measures the
/// programs and counts the `f`-copy kernel. The sizes and the maxlive
/// analysis are deterministic, so identical plans give identical points,
/// which is what lets [`SweepCache`] keep them.
fn point_from_plan(
    g: &Dfg,
    f: usize,
    plan: &FactorPlan,
    n: u64,
    mode: DecMode,
    scratch: &mut MaxliveScratch,
) -> ParetoPoint {
    let plain = ExpectedCounts::retime_unfold(g, &plan.projected, f, n).code_size;
    let cred = ExpectedCounts::cred_retime_unfold(g, &plan.projected, f, n, mode).code_size;
    let maxlive = sequential_maxlive(g, &plan.projected, f, scratch).maxlive;
    point_with(f, plan, plain, cred, maxlive)
}

/// The [`ParetoPoint`] of `plan` with the given code sizes and maxlive.
fn point_with(
    f: usize,
    plan: &FactorPlan,
    plain_size: usize,
    cred_size: usize,
    maxlive: usize,
) -> ParetoPoint {
    ParetoPoint {
        f,
        m_r: plan.projected.max_value(),
        plain_size,
        objectives: Objectives {
            cred_size,
            iteration_period: Ratio::new(plan.period as i64, f as i64),
            cond_registers: plan.projected.register_count(),
            maxlive,
        },
    }
}

/// Evaluate unfolding factors `1..=max_f` through the *reference*
/// pipeline: every point recomputes its own W/D matrices and solves from
/// scratch, with no cache, no warm starts, and no panic isolation.
///
/// This is deliberately the slow path. It exists as the differential
/// oracle the engine ([`ExploreRequest`]) is tested against and as the
/// baseline the benchmarks measure speedups from — do not "optimize" it
/// onto the shared engine, or the differential tests stop testing
/// anything.
pub fn sweep_reference(g: &Dfg, max_f: usize, n: u64, mode: DecMode) -> Vec<ParetoPoint> {
    (1..=max_f)
        .map(|f| point_for_factor(g, f, n, mode))
        .collect()
}

/// How one unfolding factor fared in a resilient sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus {
    /// The fast path produced the point within budget.
    Ok,
    /// The point exists but something gave way on the road there — the
    /// fast solver degraded to the reference solver, or the budget cut
    /// this factor off before any solver ran (then there is no point,
    /// only the event).
    Degraded(DegradationEvent),
    /// The worker panicked even on the fallback path; the panic was
    /// isolated to this factor and the rest of the sweep is unaffected.
    Failed(String),
}

/// One factor's outcome: its status plus the point, when one exists.
/// `point` is `Some` for [`PointStatus::Ok`] and for degradations that
/// still produced a (bit-identical, reference-solved) plan; `None` for
/// budget-truncated factors and failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// Unfolding factor this outcome describes.
    pub f: usize,
    /// Status of the computation for this factor.
    pub status: PointStatus,
    /// The evaluated point, when one was produced.
    pub point: Option<ParetoPoint>,
}

/// Everything a resilient sweep observed: per-factor outcomes in factor
/// order, plus tallies for quick triage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// One outcome per requested factor, sorted by `f`.
    pub outcomes: Vec<PointOutcome>,
}

impl SweepReport {
    /// The successfully produced points (ok or degraded-with-point), in
    /// factor order.
    pub fn points(&self) -> Vec<ParetoPoint> {
        self.outcomes
            .iter()
            .filter_map(|o| o.point.clone())
            .collect()
    }

    /// Factors that degraded (with or without a point).
    pub fn degraded(&self) -> Vec<&PointOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, PointStatus::Degraded(_)))
            .collect()
    }

    /// Factors whose workers panicked.
    pub fn failed(&self) -> Vec<&PointOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, PointStatus::Failed(_)))
            .collect()
    }

    /// `true` when every factor finished on the fast path.
    pub fn is_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o.status, PointStatus::Ok))
    }
}

/// The engine core behind [`ExploreRequest`] and [`best_under_code_budget`]:
/// the budgeted, panic-isolating, work-stealing sweep.
///
/// Per factor, the ladder is:
///
/// 1. the point memoized in the shared `cache`, or else one built from
///    the budgeted fast path's plan ([`cache::compute_plan_budgeted`]
///    through the cache) — [`PointStatus::Ok`] when it finishes;
/// 2. on fast-path exhaustion or panic, the dense reference solver —
///    [`PointStatus::Degraded`] with a bit-identical point;
/// 3. on budget exhaustion *before* any solving (deadline already past,
///    budget cancelled mid-sweep) — [`PointStatus::Degraded`] with no
///    point: the sweep's coverage shrank, gracefully;
/// 4. on a panic that even the reference path cannot absorb —
///    [`PointStatus::Failed`] carrying the panic message; other factors
///    keep going.
///
/// The returned outcomes are deterministic for a given budget *except*
/// for deadline/cancellation timing, which may truncate different factors
/// on different runs; work-unit budgets are fully deterministic.
///
/// `fingerprint` is `g`'s [`Dfg::fingerprint`], computed once by the
/// caller rather than once per factor; `opts` supplies `max_f`, `n`,
/// `mode`, and `threads`.
pub(crate) fn resilient_sweep(
    g: &Dfg,
    fingerprint: u64,
    opts: &ExploreOptions,
    cache: &SweepCache,
    budget: &Budget,
) -> SweepReport {
    let ExploreOptions { max_f, n, mode, .. } = *opts;
    let threads = opts.threads.clamp(1, max_f.max(1));
    let next = AtomicUsize::new(1);
    let solve_one = |f: usize, ws: &mut PlanWorkspace| -> PointOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cache.point_budgeted(g, fingerprint, f, (n, mode), budget, ws)
        }));
        match result {
            Ok(Ok((point, PlanSource::Solver))) => PointOutcome {
                f,
                status: PointStatus::Ok,
                point: Some(point),
            },
            Ok(Ok((point, PlanSource::Reference(event)))) => PointOutcome {
                f,
                status: PointStatus::Degraded(event),
                point: Some(point),
            },
            Ok(Err(exhausted)) => PointOutcome {
                f,
                status: PointStatus::Degraded(DegradationEvent {
                    site: format!("explore.sweep f={f}"),
                    cause: cred_resilience::DegradeCause::Exhausted(exhausted),
                }),
                point: None,
            },
            Err(payload) => PointOutcome {
                f,
                status: PointStatus::Failed(panic_message(payload.as_ref())),
                point: None,
            },
        }
    };
    // Each worker plans its factors in one workspace of its own.
    let mut outcomes: Vec<PointOutcome> = if threads == 1 {
        let mut ws = PlanWorkspace::new(max_f);
        (1..=max_f).map(|f| solve_one(f, &mut ws)).collect()
    } else {
        // A fault plan armed on the caller covers the sweep's workers too.
        let plan = failpoint::current();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let _plan = failpoint::adopt(plan.clone());
                        let mut ws = PlanWorkspace::new(max_f);
                        let mut out = Vec::new();
                        loop {
                            let f = next.fetch_add(1, Ordering::Relaxed);
                            if f > max_f {
                                break;
                            }
                            out.push(solve_one(f, &mut ws));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| {
                    // solve_one already isolates panics per point; a panic
                    // escaping the worker loop itself would be a bug in
                    // this crate, not in a solver, and must not vanish.
                    w.join().expect("resilient sweep scaffolding panicked")
                })
                .collect()
        })
    };
    outcomes.sort_unstable_by_key(|o| o.f);
    SweepReport { outcomes }
}

/// The non-dominated subset of `points` over the four [`Objectives`]
/// axes, optionally restricted to points whose
/// [`total_registers`](Objectives::total_registers) fits `max_registers`.
/// A point is kept iff no other eligible point [dominates] it; input
/// (factor) order is preserved.
///
/// [dominates]: Objectives::dominates
pub fn frontier(points: &[ParetoPoint], max_registers: Option<usize>) -> Vec<ParetoPoint> {
    let fits =
        |p: &ParetoPoint| max_registers.is_none_or(|cap| p.objectives.total_registers() <= cap);
    points
        .iter()
        .filter(|p| fits(p))
        .filter(|p| {
            !points
                .iter()
                .any(|q| fits(q) && q.objectives.dominates(&p.objectives))
        })
        .cloned()
        .collect()
}

/// Best (lowest) iteration period reachable with CRED code size at most
/// `l_req`, scanning factors up to `max_f`. Returns `None` if even `f = 1`
/// busts the budget.
///
/// # Panics
/// Panics if some factor's plan panics even on the reference fallback,
/// so that no factor silently drops out of the search.
pub fn best_under_code_budget(
    g: &Dfg,
    l_req: usize,
    max_f: usize,
    n: u64,
    mode: DecMode,
) -> Option<ParetoPoint> {
    let opts = ExploreOptions {
        max_f,
        n,
        mode,
        ..ExploreOptions::default()
    };
    let cache = SweepCache::new();
    let report = resilient_sweep(g, g.fingerprint(), &opts, &cache, &Budget::unlimited());
    for o in &report.outcomes {
        if let PointStatus::Failed(msg) = &o.status {
            panic!("sweep worker panicked at f = {}: {msg}", o.f);
        }
    }
    report
        .points()
        .into_iter()
        .filter(|p| p.objectives.cred_size <= l_req)
        .min_by(|a, b| {
            a.objectives
                .iteration_period
                .cmp(&b.objectives.iteration_period)
        })
}

/// Best iteration period with at most `p_max` conditional registers.
///
/// If the rate-optimal retiming needs too many registers, the search
/// relaxes the period upward (coarser retimings need fewer distinct
/// values) before giving up at the trivial zero retiming. Every
/// configuration needs at least one conditional register, so `p_max = 0`
/// gives `None`.
pub fn best_under_register_budget(
    g: &Dfg,
    p_max: usize,
    max_f: usize,
    n: u64,
    mode: DecMode,
) -> Option<ParetoPoint> {
    if p_max == 0 {
        return None;
    }
    let mut best: Option<ParetoPoint> = None;
    let mut maxlive = MaxliveScratch::default();
    for f in 1..=max_f {
        // One W/D computation of the unfolding, which is never built, and
        // one solver serve the period search and every probe and
        // compaction of the candidate scan below; the first probe, at the
        // optimum, reads the search's own fixpoint.
        let wd = WdMatrices::compute_unfolded(g, f);
        let mut solver = RetimeSolver::new(g, &wd);
        let opt = solver.min_period();
        // Scan candidate periods upward until the register budget holds.
        let cands: Vec<u64> = solver.candidate_periods().collect();
        for c in cands.into_iter().filter(|&c| c >= opt.period) {
            let Some(r_f) = solver.retime_to_period(c) else {
                continue;
            };
            let r_f = solver.compact(c, &r_f);
            let projected = project_copies(f, &r_f);
            if projected.register_count() > p_max {
                continue;
            }
            let plan = FactorPlan {
                projected,
                period: c,
            };
            let point = point_from_plan(g, f, &plan, n, mode, &mut maxlive);
            let better = best
                .as_ref()
                .is_none_or(|b| point.objectives.iteration_period < b.objectives.iteration_period);
            if better {
                best = Some(point);
            }
            break; // larger periods at this f are never better
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;
    use cred_vm::check_against_reference;

    fn sample() -> Dfg {
        gen::chain_with_feedback(6, 3) // bound 2
    }

    #[test]
    fn sweep_reports_monotone_period_improvement() {
        let g = sample();
        let pts = sweep_reference(&g, 4, 60, DecMode::Bulk);
        assert_eq!(pts.len(), 4);
        // Iteration period is non-increasing in f (more parallelism can
        // only help when rate-optimal retiming is applied each time).
        for w in pts.windows(2) {
            assert!(w[1].objectives.iteration_period <= w[0].objectives.iteration_period);
        }
        // CRED always at most the plain size, and both register axes are
        // populated.
        for p in &pts {
            assert!(p.objectives.cred_size <= p.plain_size.max(p.objectives.cred_size));
            assert!(p.objectives.cond_registers >= 1);
            assert!(p.objectives.maxlive >= 1);
            assert!(p.objectives.total_registers() > p.objectives.maxlive);
        }
    }

    #[test]
    fn cred_size_grows_linearly_with_f() {
        let g = sample();
        let pts = sweep_reference(&g, 4, 60, DecMode::Bulk);
        let l = g.node_count();
        for p in &pts {
            assert_eq!(
                p.objectives.cred_size,
                p.f * l + 2 * p.objectives.cond_registers
            );
        }
    }

    #[test]
    fn maxlive_matches_the_schedule_replay_oracle() {
        let g = sample();
        for p in sweep_reference(&g, 3, 60, DecMode::Bulk) {
            // Recompute the plan's projected retiming independently and
            // replay its kernel by brute-force interval simulation.
            let u = unfold(&g, p.f);
            let opt = min_period_retiming(&u.graph);
            let r_f = cred_retime::span::compact_values(&u.graph, opt.period, &opt.retiming);
            let projected = project_retiming(&u, &r_f);
            let sched = KernelSchedule::sequential(&g, &projected, p.f);
            assert_eq!(p.objectives.maxlive, sched.replay_maxlive(), "f = {}", p.f);
        }
    }

    #[test]
    fn frontier_removes_dominated_points() {
        let g = sample();
        let pts = sweep_reference(&g, 4, 60, DecMode::Bulk);
        let front = frontier(&pts, None);
        assert!(!front.is_empty());
        assert!(front.len() <= pts.len());
        // No frontier point dominates another frontier point.
        for a in &front {
            for b in &front {
                assert!(!b.objectives.dominates(&a.objectives));
            }
        }
        // Every dropped point is dominated by some surviving point.
        for p in &pts {
            if !front.contains(p) {
                assert!(front.iter().any(|q| q.objectives.dominates(&p.objectives)));
            }
        }
    }

    #[test]
    fn frontier_register_cap_restricts_and_never_helps_period() {
        let g = sample();
        let pts = sweep_reference(&g, 4, 60, DecMode::Bulk);
        let caps: Vec<usize> = pts.iter().map(|p| p.objectives.total_registers()).collect();
        let tight = *caps.iter().min().unwrap();
        let capped = frontier(&pts, Some(tight));
        for p in &capped {
            assert!(p.objectives.total_registers() <= tight);
        }
        // Tightening the cap can only lose configurations, so the best
        // achievable period is monotone in the cap.
        let best = |front: &[ParetoPoint]| {
            front
                .iter()
                .map(|p| p.objectives.iteration_period)
                .min()
                .unwrap()
        };
        let unlimited = frontier(&pts, None);
        assert!(best(&unlimited) <= best(&capped));
        // An impossible cap empties the frontier.
        assert!(frontier(&pts, Some(0)).is_empty());
    }

    #[test]
    fn code_budget_limits_factor() {
        let g = sample();
        let l = g.node_count();
        // Budget for about two bodies: factor 1 (maybe 2) only.
        let p = best_under_code_budget(&g, 2 * l + 4, 4, 60, DecMode::Bulk).unwrap();
        assert!(p.objectives.cred_size <= 2 * l + 4);
        // An enormous budget admits the best (f = 4) period.
        let q = best_under_code_budget(&g, 100 * l, 4, 60, DecMode::Bulk).unwrap();
        assert!(q.objectives.iteration_period <= p.objectives.iteration_period);
    }

    #[test]
    fn impossible_code_budget_is_none() {
        let g = sample();
        assert!(best_under_code_budget(&g, 3, 4, 60, DecMode::Bulk).is_none());
    }

    #[test]
    fn register_budget_respected() {
        let g = sample();
        for p_max in 1..=4 {
            if let Some(p) = best_under_register_budget(&g, p_max, 3, 60, DecMode::Bulk) {
                assert!(p.objectives.cond_registers <= p_max, "budget {p_max}");
            }
        }
        // More registers never hurt the achievable period.
        let p1 = best_under_register_budget(&g, 1, 3, 60, DecMode::Bulk);
        let p4 = best_under_register_budget(&g, 4, 3, 60, DecMode::Bulk);
        if let (Some(a), Some(b)) = (p1, p4) {
            assert!(b.objectives.iteration_period <= a.objectives.iteration_period);
        }
        // No configuration runs without a conditional register.
        assert!(best_under_register_budget(&g, 0, 3, 60, DecMode::Bulk).is_none());
    }

    #[test]
    fn cancellation_stops_the_sweep_without_points() {
        // Cancellation is not degraded around: every factor reports the
        // typed exhaustion and produces nothing. (`ExploreRequest` refuses
        // an already-cancelled budget before the sweep starts.)
        let tok = cred_resilience::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_cancel(tok);
        let opts = ExploreOptions {
            max_f: 3,
            n: 60,
            threads: 2,
            ..ExploreOptions::default()
        };
        let g = sample();
        let report = resilient_sweep(&g, g.fingerprint(), &opts, &SweepCache::new(), &budget);
        assert!(report.points().is_empty(), "{report:?}");
        assert!(report.failed().is_empty());
        assert_eq!(report.degraded().len(), 3);
    }

    #[test]
    fn unlimited_register_budget_is_the_first_min_period_point() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
        let kernels = suite::load_kernels(&dir).expect("bundled kernels parse");
        assert_eq!(kernels.len(), 10);
        for (name, g) in &kernels {
            for mode in [DecMode::Bulk, DecMode::PerCopy] {
                let want = sweep_reference(g, 4, 60, mode)
                    .into_iter()
                    .min_by_key(|p| p.objectives.iteration_period);
                let got = best_under_register_budget(g, usize::MAX, 4, 60, mode);
                assert_eq!(got, want, "kernel {name}, {mode:?}");
            }
        }
    }

    #[test]
    fn swept_configurations_all_verify() {
        let g = sample();
        for p in sweep_reference(&g, 3, 31, DecMode::PerCopy) {
            // Re-generate and verify the winning configuration end-to-end.
            let u = unfold(&g, p.f);
            let opt = min_period_retiming(&u.graph);
            let projected = project_retiming(&u, &opt.retiming);
            let prog = cred_retime_unfold(&g, &projected, p.f, 31, DecMode::PerCopy);
            check_against_reference(&g, &prog).unwrap();
        }
    }
}
