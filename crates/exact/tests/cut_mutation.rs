//! Mutation tests for the search's two whole-kernel cuts: the slot-refined
//! walk bounds and the packing screen.
//!
//! Each mutant can only cut. `exact.mutant.walk_tightening`
//! (`sites::MUTANT_WALK_TIGHTENING`) makes every walk bound one stage too
//! strict, so the search drops branches that still complete and reports
//! an `Exhausted` rung the oracle cannot refute.
//! `exact.mutant.packing_window` (`sites::MUTANT_PACKING_WINDOW`) makes
//! the packing screen see a window one cycle short, so it rejects rungs
//! whose ops pack only by using the last cycle; the oracle's checker
//! would refute that `Packing` witness, but the II itself must be caught
//! without it. So, as for the waste mutant, the brute-force differential
//! sweep of `brute_force.rs` must catch each one, and only ever as an II
//! that is too high (or as no II at all, when the mutant cuts even the
//! sequential schedule and the solver panics).
//!
//! Each mutant is armed on its test's thread only, so no other test sees
//! it. The panic hook is silent on armed threads, so the tests assert
//! after dropping their guards.

mod reference;

use cred_resilience::failpoint::{install, sites, ChaosPlan, FaultAction};

/// Arm `site` for one sweep and assert that it disagrees with the
/// brute-force reference somewhere, never with an II below it.
fn assert_caught_as_too_high(site: &str) {
    let graphs = reference::graphs(300);
    assert!(reference::disagreements(&graphs).is_empty());

    let bad = {
        let _mutant = install(ChaosPlan::new().trip(site, FaultAction::Error));
        reference::disagreements(&graphs)
    };
    assert!(!bad.is_empty(), "{site} survived the sweep");
    for (i, machine, exact, brute) in &bad {
        // `None`: the mutant cut every rung up to the sequential schedule.
        assert!(
            exact.is_none_or(|ii| ii > *brute),
            "graph {i} on {machine}: {site} can only cut, yet II {exact:?} < {brute}"
        );
    }
}

#[test]
fn walk_bound_off_by_one_is_caught_by_the_brute_force_sweep() {
    assert_caught_as_too_high(sites::MUTANT_WALK_TIGHTENING);
}

#[test]
fn packing_window_off_by_one_is_caught_by_the_brute_force_sweep() {
    assert_caught_as_too_high(sites::MUTANT_PACKING_WINDOW);
}
