//! Mutation test for the search's one-unit waste check.
//!
//! `cred_exact::hooks::WASTE_TIGHTENING` takes one cycle off the slack
//! the check allows, so the search cuts branches that still complete and
//! reports an II above the true minimum. The oracle's independent checks
//! cannot see that: the schedule it returns is legal and the extra rung
//! is an `Exhausted` one. The brute-force differential sweep of
//! `brute_force.rs` must catch it, and only ever as an II that is too
//! high (or as no II at all, when the search cuts even the sequential
//! schedule and the solver panics).
//!
//! The hook is a process-global atomic, so this test lives alone in its
//! own integration-test binary.

mod reference;

use std::sync::atomic::Ordering;

/// Restore the hook even if an assertion unwinds.
struct TighteningGuard;
impl Drop for TighteningGuard {
    fn drop(&mut self) {
        cred_exact::hooks::WASTE_TIGHTENING.store(0, Ordering::SeqCst);
    }
}

#[test]
fn waste_bound_off_by_one_is_caught_by_the_brute_force_sweep() {
    let graphs = reference::graphs(300);
    assert!(reference::disagreements(&graphs).is_empty());

    cred_exact::hooks::WASTE_TIGHTENING.store(1, Ordering::SeqCst);
    let _guard = TighteningGuard;
    let bad = reference::disagreements(&graphs);
    assert!(!bad.is_empty(), "the waste off-by-one survived the sweep");
    for (i, machine, exact, brute) in &bad {
        // `None`: the mutant cut every rung up to the sequential schedule.
        assert!(
            exact.is_none_or(|ii| ii > *brute),
            "graph {i} on {machine}: the mutant can only cut, yet II {exact:?} < {brute}"
        );
    }
}
