//! Exhaustion soundness: a budgeted solver run never produces a partial
//! or incorrect retiming. Under *any* work limit — including limits tiny
//! enough to interrupt the very first SPFA — the solver either finishes
//! with a result bit-identical to the dense reference oracle, or returns
//! the typed [`Exhausted`] error and leaves its warm state intact.

use cred_dfg::algo::WdMatrices;
use cred_dfg::{gen, Dfg};
use cred_resilience::{Budget, Exhausted};
use cred_retime::minperiod::min_period_retiming_reference;
use cred_retime::span::min_span_retiming_reference;
use cred_retime::RetimeSolver;
use cred_unfold::unfold;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn graph_from(seed: u64, nodes: usize) -> Dfg {
    gen::random_dfg(
        &mut StdRng::seed_from_u64(seed),
        &gen::RandomDfgConfig {
            nodes,
            forward_edge_prob: 0.35,
            back_edges: (nodes / 2).max(1),
            max_delay: 3,
            max_time: 3,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiny_work_budget_is_all_or_nothing(
        seed in any::<u64>(), nodes in 2..10usize, limit in 0..60u64
    ) {
        let g = graph_from(seed, nodes);
        let wd = WdMatrices::compute(&g);
        let mut solver = RetimeSolver::new(&g, &wd);
        let budget = Budget::unlimited().with_work_limit(limit);
        match solver.min_period_budgeted(&budget) {
            Ok(res) => {
                // Finished within budget: must be bit-identical to the
                // dense reference oracle.
                let slow = min_period_retiming_reference(&g, &wd);
                prop_assert_eq!(res.period, slow.period);
                prop_assert_eq!(res.retiming, slow.retiming);
            }
            Err(Exhausted::WorkUnits { limit: l }) => prop_assert_eq!(l, limit),
            Err(other) => prop_assert!(false, "unexpected exhaustion kind: {}", other),
        }
        // Exhaustion must not corrupt the solver: an unlimited re-solve on
        // the same instance still matches the reference exactly.
        let res = solver.min_period();
        let slow = min_period_retiming_reference(&g, &wd);
        prop_assert_eq!(res.period, slow.period);
        prop_assert_eq!(res.retiming, slow.retiming);
    }

    #[test]
    fn budgeted_minimum_span_solve_is_all_or_nothing(
        seed in any::<u64>(), nodes in 2..9usize, limit in 0..120u64
    ) {
        // A cold solve at the optimal period, whose answer is the
        // minimum-span retiming of that period.
        let g = graph_from(seed.wrapping_add(77), nodes);
        let wd = WdMatrices::compute(&g);
        let opt = min_period_retiming_reference(&g, &wd);
        let slow = min_span_retiming_reference(&g, &wd, opt.period).unwrap();
        let mut solver = RetimeSolver::new(&g, &wd);
        let budget = Budget::unlimited().with_work_limit(limit);
        match solver.retime_to_period_budgeted(opt.period, &budget) {
            Ok(Some(fast)) => prop_assert_eq!(fast, slow.clone()),
            Ok(None) => prop_assert!(false, "optimal period must be feasible"),
            Err(Exhausted::WorkUnits { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected exhaustion kind: {}", other),
        }
        // And the solver still answers correctly afterwards.
        prop_assert_eq!(solver.retime_to_period(opt.period).unwrap(), slow);
    }

    #[test]
    fn work_charged_grows_with_progress(seed in any::<u64>(), nodes in 3..9usize) {
        // Sanity on the charging scheme itself: an unlimited-but-counted
        // budget observes the same deterministic unit count on identical
        // runs (the proptest above relies on this determinism).
        let g = graph_from(seed.wrapping_add(31), nodes);
        let wd = WdMatrices::compute(&g);
        let count = |g: &Dfg| {
            let budget = Budget::unlimited().with_work_limit(u64::MAX);
            let mut solver = RetimeSolver::new(g, &wd);
            solver.min_period_budgeted(&budget).unwrap();
            budget.work_used()
        };
        let a = count(&g);
        let b = count(&g);
        prop_assert_eq!(a, b);
        prop_assert!(a > 0, "a real solve must charge at least one unit");
    }
}

#[test]
fn cancellation_interrupts_a_solve() {
    let g = gen::chain_with_feedback(8, 3);
    let wd = WdMatrices::compute(&g);
    let mut solver = RetimeSolver::new(&g, &wd);
    let tok = cred_resilience::CancelToken::new();
    tok.cancel();
    let budget = Budget::unlimited().with_cancel(tok);
    assert_eq!(
        solver.min_period_budgeted(&budget).unwrap_err(),
        Exhausted::Cancelled
    );
    // Still usable without the budget.
    let res = solver.min_period();
    assert_eq!(res.period, min_period_retiming_reference(&g, &wd).period);
}

/// The period search on `chain_with_feedback(6, 3)` at f = 3 (residue
/// form) starts at the largest candidate, which activates no constraint,
/// and the optimal retiming there has span 0, so no probe relaxes
/// anything. The bound's scan must still charge, and every work limit up
/// to the full count must end in the reference plan or in `Exhausted`.
#[test]
fn bound_scan_charges_even_when_no_probe_does() {
    let g = gen::chain_with_feedback(6, 3);
    let u = unfold(&g, 3).graph;
    let residue = WdMatrices::compute_unfolded(&g, 3);
    let plan = |budget: &Budget| {
        let opt = RetimeSolver::new(&g, &residue).min_period_budgeted(budget)?;
        Ok::<_, Exhausted>((opt.period, opt.retiming))
    };
    let counted = Budget::unlimited().with_work_limit(u64::MAX);
    plan(&counted).unwrap();
    let units = counted.work_used();
    assert!(units > 0, "a plan must charge at least one unit");

    let full = WdMatrices::compute(&u);
    let opt = min_period_retiming_reference(&u, &full);
    let reference = (
        opt.period,
        min_span_retiming_reference(&u, &full, opt.period).unwrap(),
    );
    for limit in 0..=units {
        match plan(&Budget::unlimited().with_work_limit(limit)) {
            Ok(got) => assert_eq!(got, reference, "limit {limit}"),
            Err(Exhausted::WorkUnits { limit: l }) => assert_eq!(l, limit),
            Err(other) => panic!("limit {limit}: unexpected exhaustion kind: {other}"),
        }
    }
}
