//! Mutation test for the exact scheduler's reservation tables.
//!
//! The mutant site `exact.mutant.reservation_slack`
//! (`sites::MUTANT_RESERVATION_SLACK`) injects an off-by-one into the
//! solver's per-class conflict check: armed, the search believes every
//! functional-unit class has one more unit than the machine model
//! declares, so it packs ops the real machine cannot issue together.
//! The fifth oracle layer re-validates every schedule with the
//! *independent* checker in `cred_exact::check` (which never reads the
//! mutant), so the fuzzer must catch the mutant — and the greedy shrinker
//! must reduce the kill to a handful of nodes, mirroring the PR 3
//! guard-offset mutation test for the code generators.
//!
//! The mutant is armed on this test's thread only, so no other test sees
//! it. The panic hook is silent on armed threads, so the test asserts
//! after dropping its guard.

use cred_resilience::failpoint::{install, sites, ChaosPlan, FaultAction};
use cred_verify::{fuzz_suite, FailureKind, FuzzConfig};

#[test]
fn reservation_off_by_one_is_caught_and_shrinks_small() {
    let report = {
        let _mutant =
            install(ChaosPlan::new().trip(sites::MUTANT_RESERVATION_SLACK, FaultAction::Error));
        fuzz_suite(&FuzzConfig {
            cases: 300,
            seed: 0,
            shrink_failures: true,
            ..FuzzConfig::default()
        })
    };
    // The mutant must be killed, and by the layer that owns it.
    let kill = report
        .failures
        .iter()
        .find(|f| f.error.kind == FailureKind::Exact)
        .unwrap_or_else(|| {
            panic!(
                "reservation off-by-one survived 300 fuzz cases ({} other failures)",
                report.failures.len()
            )
        });
    // Every failure in this run is the mutant's doing — no other layer
    // may misattribute it.
    for f in &report.failures {
        assert_eq!(f.error.kind, FailureKind::Exact, "{}: {}", f.case, f.error);
    }
    // The shrinker reduces the kill to a tiny reproducer: a couple of
    // same-class ops on a constrained machine is all it takes.
    let (small, small_err) = kill.shrunk.as_ref().expect("shrinking was requested");
    assert_eq!(small_err.kind, FailureKind::Exact, "{small_err}");
    assert!(
        small.graph.node_count() <= 4,
        "shrunk reproducer still has {} nodes: {small}",
        small.graph.node_count()
    );
    // Slack only matters when a per-class cap exists, so the minimized
    // case must have kept its machine constraint.
    assert!(
        !small.machine.is_unconstrained(),
        "shrunk case lost the machine constraint: {small}"
    );
}
