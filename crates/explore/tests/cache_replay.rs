//! Satellite of the differential-verification subsystem: a [`SweepCache`]
//! *hit* must hand back a plan whose generated code executes
//! trace-identically to a cold solve — for every bundled kernel and every
//! unfolding factor. A cache that returned a stale or structurally
//! different plan would produce a different guard-state trace even if the
//! final arrays happened to agree. A hit on a memoized point must be the
//! true point too, even after the entry was corrupted.

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::DecMode;
use cred_explore::cache::{compute_plan, SweepCache};
use cred_explore::suite::load_kernels;
use cred_explore::{sweep_reference, ExploreRequest};
use cred_vm::{execute, trace_loop};
use std::path::Path;

const N: u64 = 60;

#[test]
fn cache_hit_plans_replay_identically_on_all_kernels() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).unwrap();
    assert_eq!(kernels.len(), 10, "expected the 10 bundled kernels");

    for (name, g) in &kernels {
        for f in 1..=3usize {
            // Cold: a fresh end-to-end solve.
            let cold = compute_plan(g, f);

            // Warm: prime a cache, then take the plan from a hit.
            let cache = SweepCache::new();
            let _primed = cache.plan(g, f);
            let hits_before = cache.hits();
            let warm = cache.plan(g, f);
            assert!(
                cache.hits() > hits_before,
                "{name} f={f}: second lookup must be a cache hit"
            );

            assert_eq!(cold.period, warm.period, "{name} f={f}: period");
            assert_eq!(
                cold.projected, warm.projected,
                "{name} f={f}: projected retiming"
            );

            // Both plans through codegen + CRED collapse + the VM: the
            // guard-state traces and final memories must be identical.
            let p_cold = cred_retime_unfold(g, &cold.projected, f, N, DecMode::Bulk);
            let p_warm = cred_retime_unfold(g, &warm.projected, f, N, DecMode::Bulk);
            assert_eq!(
                trace_loop(&p_cold),
                trace_loop(&p_warm),
                "{name} f={f}: guard-state traces diverge"
            );
            let r_cold = execute(&p_cold).unwrap();
            let r_warm = execute(&p_warm).unwrap();
            assert_eq!(r_cold.arrays, r_warm.arrays, "{name} f={f}: final arrays");
            assert_eq!(r_cold.computes_executed, r_warm.computes_executed);
            assert_eq!(r_cold.computes_nullified, r_warm.computes_nullified);
        }
    }
}

#[test]
fn corrupted_memoized_point_is_evicted_and_recomputed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).unwrap();
    let (name, g) = &kernels[0];
    let cache = SweepCache::new();
    let req = ExploreRequest::new(g.clone()).max_f(3).trip_count(N);
    let truth = sweep_reference(g, 3, N, DecMode::Bulk);
    assert_eq!(req.run_with(&cache).unwrap().points, truth, "{name}");
    // Every point of the request is memoized now; corrupt f = 2's.
    assert!(cache.corrupt_entry_for_test(g, 2));
    let again = req.run_with(&cache).unwrap();
    assert_eq!(again.points, truth, "{name}: the true point is served");
    assert_eq!(cache.evictions(), 1, "the corrupted entry is evicted");
    assert_eq!(
        (again.cache.hits, again.cache.misses),
        (2, 4),
        "f = 1 and 3 hit; f = 2 is solved again"
    );
    // The recomputed entry serves hits again.
    req.run_with(&cache).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (5, 4));
}
