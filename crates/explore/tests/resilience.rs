//! Chaos-plan integration tests for the explore layer: every fault a
//! plan can inject at the explore sites must surface as a *typed*
//! degradation or an isolated per-point failure — never a hang, never a
//! silently wrong point. Compiled with the `failpoints` feature (see
//! `[dev-dependencies]`), so the registry is live; each test installs its
//! plan under the process-global install lock, which also serializes the
//! tests against each other.
//!
//! Every sweep goes through [`ExploreRequest::run_with`] with an explicit
//! cache, so the tests can inspect the cache afterwards.

use std::sync::Arc;
use std::time::Duration;

use cred_codegen::DecMode;
use cred_dfg::gen;
use cred_explore::cache::{compute_plan, SweepCache};
use cred_explore::{sweep_reference, ExploreRequest, ParetoPoint, PointStatus, SweepReport};
use cred_resilience::failpoint::{install, sites, ChaosPlan, FaultAction};
use cred_resilience::DegradeCause;

fn sample() -> cred_dfg::Dfg {
    gen::chain_with_feedback(6, 3)
}

/// A request over [`sample`] at trip count 60 with `max_f` factors on
/// `threads` workers; callers add resource limits.
fn request(max_f: usize, threads: usize) -> ExploreRequest {
    ExploreRequest::new(sample())
        .max_f(max_f)
        .trip_count(60)
        .mode(DecMode::Bulk)
        .threads(threads)
}

/// Run `req` over `cache` and return its per-factor report.
fn report(req: &ExploreRequest, cache: &SweepCache) -> SweepReport {
    req.run_with(cache)
        .expect("some factor produced a point or failed without exhausting")
        .report
}

/// The expected (fault-free) sweep, for bit-identical comparison.
fn expected_points(g: &cred_dfg::Dfg, max_f: usize) -> Vec<ParetoPoint> {
    sweep_reference(g, max_f, 60, DecMode::Bulk)
}

#[test]
fn injected_solver_error_degrades_to_reference_bit_identically() {
    let g = sample();
    let _guard = install(ChaosPlan::new().trip(sites::EXPLORE_PLAN_FAST, FaultAction::Error));
    let report = report(&request(3, 2), &SweepCache::new());
    drop(_guard);
    // Every factor degraded (the fast path is armed), every point exists,
    // and the points match the fault-free sweep exactly.
    assert_eq!(report.degraded().len(), 3, "{report:?}");
    assert!(report.failed().is_empty());
    for o in &report.outcomes {
        match &o.status {
            PointStatus::Degraded(ev) => assert!(
                matches!(ev.cause, DegradeCause::Exhausted(_)),
                "f={} cause: {ev}",
                o.f
            ),
            other => panic!("f={} expected degraded, got {other:?}", o.f),
        }
    }
    assert_eq!(report.points(), expected_points(&g, 3));
}

#[test]
fn injected_solver_panic_degrades_to_reference() {
    let g = sample();
    let _guard = install(ChaosPlan::new().trip(sites::EXPLORE_PLAN_FAST, FaultAction::Panic));
    let report = report(&request(2, 2), &SweepCache::new());
    drop(_guard);
    assert_eq!(report.degraded().len(), 2, "{report:?}");
    for o in &report.outcomes {
        match &o.status {
            PointStatus::Degraded(ev) => assert!(
                matches!(ev.cause, DegradeCause::Panicked(_)),
                "f={} cause: {ev}",
                o.f
            ),
            other => panic!("f={} expected degraded, got {other:?}", o.f),
        }
    }
    assert_eq!(report.points(), expected_points(&g, 2));
}

#[test]
fn reference_panic_is_isolated_per_point() {
    // Both rungs of the ladder armed: the fast path errors, the reference
    // fallback panics. Nothing is left to absorb the failure, so each
    // point fails — in isolation, with the panic message captured.
    let _guard = install(
        ChaosPlan::new()
            .trip(sites::EXPLORE_PLAN_FAST, FaultAction::Error)
            .trip(sites::EXPLORE_PLAN_REFERENCE, FaultAction::Panic),
    );
    let report = report(&request(3, 2), &SweepCache::new());
    drop(_guard);
    assert_eq!(report.failed().len(), 3, "{report:?}");
    assert!(report.points().is_empty());
    for o in &report.outcomes {
        match &o.status {
            PointStatus::Failed(msg) => {
                assert!(msg.contains(sites::EXPLORE_PLAN_REFERENCE), "{msg}")
            }
            other => panic!("f={} expected failed, got {other:?}", o.f),
        }
    }
}

#[test]
fn cache_insert_panic_poisons_and_recovers() {
    let g = sample();
    let cache = SweepCache::new();
    // First lookup panics inside the locked insert section, deliberately
    // poisoning the cache mutex.
    {
        let _guard =
            install(ChaosPlan::new().trip(sites::EXPLORE_CACHE_INSERT, FaultAction::Panic));
        let report = report(&request(1, 1), &cache);
        assert_eq!(report.failed().len(), 1, "{report:?}");
    }
    // Plan disarmed; the cache must recover the poisoned lock (clearing
    // the table) and serve correct plans again instead of panicking.
    let plan = cache.plan(&g, 1);
    assert_eq!(*plan, compute_plan(&g, 1));
    assert_eq!(cache.poison_recoveries(), 1);
    // And it keeps memoizing normally afterwards.
    let again = cache.plan(&g, 1);
    assert!(Arc::ptr_eq(&plan, &again));
}

#[test]
fn injected_delay_trips_deadline_into_degradation() {
    let g = sample();
    let _guard = install(ChaosPlan::new().trip(
        sites::RETIME_MIN_PERIOD,
        FaultAction::Delay(Duration::from_millis(50)),
    ));
    // The deadline is far shorter than the injected delay, so the fast
    // path's first post-delay budget check exhausts; the reference
    // fallback (no armed sites) still delivers every point.
    let req = request(2, 1).deadline(Duration::from_millis(5));
    let report = report(&req, &SweepCache::new());
    drop(_guard);
    assert!(report.failed().is_empty(), "{report:?}");
    assert!(
        !report.is_clean(),
        "the delay must have tripped the deadline"
    );
    // Points that were produced are bit-identical to the fault-free sweep.
    let expected = expected_points(&g, 2);
    for o in &report.outcomes {
        if let Some(p) = &o.point {
            assert_eq!(p, &expected[o.f - 1]);
        }
    }
}

#[test]
fn clean_run_with_registry_compiled_in_is_unaffected() {
    // The feature is on but no plan is installed: the resilient sweep
    // must be clean and identical to the plain parallel sweep.
    let g = sample();
    let cache = SweepCache::new();
    let report = report(&request(4, 3), &cache);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.points(), expected_points(&g, 4));
    assert_eq!(cache.poison_recoveries(), 0);
    assert_eq!(cache.evictions(), 0);
}

#[test]
fn work_budget_truncates_sweep_gracefully() {
    let g = sample();
    // A budget generous enough for some factors but shared across the
    // whole sweep: once spent, later factors degrade to the reference
    // solver (exhaustion, not cancellation), and nothing panics.
    let report = report(&request(4, 1).work_limit(40), &SweepCache::new());
    assert!(report.failed().is_empty(), "{report:?}");
    // Whatever was produced matches the fault-free sweep bit for bit.
    let expected = expected_points(&g, 4);
    for o in &report.outcomes {
        if let Some(p) = &o.point {
            assert_eq!(p, &expected[o.f - 1], "f = {}", o.f);
        }
    }
    // With a shared 40-unit budget at least one factor cannot finish on
    // the fast path.
    assert!(!report.is_clean(), "{report:?}");
}
