//! Mutation test for the search's one-unit waste check.
//!
//! The mutant site `exact.mutant.waste_tightening`
//! (`sites::MUTANT_WASTE_TIGHTENING`) takes one cycle off the slack
//! the check allows, so the search cuts branches that still complete and
//! reports an II above the true minimum. The oracle's independent checks
//! cannot see that: the schedule it returns is legal and the extra rung
//! is an `Exhausted` one. The brute-force differential sweep of
//! `brute_force.rs` must catch it, and only ever as an II that is too
//! high (or as no II at all, when the search cuts even the sequential
//! schedule and the solver panics).
//!
//! The mutant is armed on this test's thread only, so no other test sees
//! it. The panic hook is silent on armed threads, so the test asserts
//! after dropping its guard.

mod reference;

use cred_resilience::failpoint::{install, sites, ChaosPlan, FaultAction};

#[test]
fn waste_bound_off_by_one_is_caught_by_the_brute_force_sweep() {
    let graphs = reference::graphs(300);
    assert!(reference::disagreements(&graphs).is_empty());

    let bad = {
        let _mutant =
            install(ChaosPlan::new().trip(sites::MUTANT_WASTE_TIGHTENING, FaultAction::Error));
        reference::disagreements(&graphs)
    };
    assert!(!bad.is_empty(), "the waste off-by-one survived the sweep");
    for (i, machine, exact, brute) in &bad {
        // `None`: the mutant cut every rung up to the sequential schedule.
        assert!(
            exact.is_none_or(|ii| ii > *brute),
            "graph {i} on {machine}: the mutant can only cut, yet II {exact:?} < {brute}"
        );
    }
}
