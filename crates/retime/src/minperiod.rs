//! OPT: minimum cycle-period retiming (Leiserson–Saxe algorithm OPT,
//! transcribed to the paper's sign convention).
//!
//! A clock period `c` is achievable by retiming iff the difference
//! constraints
//!
//! * `r(v) - r(u) <= d(e)` for every edge `e(u -> v)` (legality), and
//! * `r(v) - r(u) <= W(u, v) - 1` for every node pair with `D(u, v) > c`
//!   (every too-slow path must receive at least one delay)
//!
//! are satisfiable. The optimal period is found by search over the
//! distinct entries of `D`, which are exactly the candidate periods: the
//! W/D solver ([`crate::RetimeSolver`]) starts at a proven lower bound,
//! and the reference ([`min_period_retiming_reference`]) bisects the
//! whole list. The exploration engine plans unfoldings with
//! [`crate::FeasPlanner`] instead, which decides each period from the
//! retimed graph and needs no W/D matrices; [`min_period_retiming`] on a
//! built unfolding is the independent check of its plans.

use crate::{ConstraintSystem, Retiming};
use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;

/// Result of [`min_period_retiming`].
#[derive(Debug, Clone)]
pub struct MinPeriodResult {
    /// A normalized retiming achieving the period, of minimum span among
    /// them (see [`crate::RetimeSolver::retime_to_period`]).
    pub retiming: Retiming,
    /// The minimum achievable cycle period.
    pub period: u64,
}

/// Build the feasibility constraint system for period `c`.
pub fn constraints_for_period(g: &Dfg, wd: &WdMatrices, c: i64) -> ConstraintSystem {
    let n = g.node_count();
    let mut sys = ConstraintSystem::new(n);
    for e in g.edge_ids() {
        let ed = g.edge(e);
        sys.add(ed.dst.index(), ed.src.index(), ed.delay as i64);
    }
    for u in 0..n {
        for v in 0..n {
            if let (Some(w), Some(d)) = (wd.w(u, v), wd.d(u, v)) {
                if d > c {
                    sys.add(v, u, w - 1);
                }
            }
        }
    }
    sys
}

/// Find a legal retiming achieving cycle period `<= c`, if one exists.
///
/// The returned retiming is normalized (minimum value zero) and has the
/// minimum span of period `c` ([`crate::RetimeSolver::retime_to_period`]
/// proves it). Runs the incremental SPFA solver; callers probing many
/// periods on one graph should hold a solver directly to keep its W/D
/// matrices and warm state across probes.
pub fn retime_to_period(g: &Dfg, c: u64) -> Option<Retiming> {
    let wd = WdMatrices::compute(g);
    crate::RetimeSolver::new(g, &wd).retime_to_period(c)
}

/// The dense reference path of [`retime_to_period`]: build the full
/// [`ConstraintSystem`] and solve it with edge-list Bellman–Ford. Kept as
/// the differential-testing oracle for the incremental solver; results are
/// bit-identical.
pub fn retime_to_period_reference(g: &Dfg, wd: &WdMatrices, c: u64) -> Option<Retiming> {
    let sys = constraints_for_period(g, wd, c as i64);
    let sol = sys.solve()?;
    let mut r = Retiming::from_values(sol);
    r.normalize();
    debug_assert!(r.is_legal(g));
    debug_assert!(cred_dfg::algo::cycle_period(&r.apply(g)) <= Some(c));
    Some(r)
}

/// Compute the minimum cycle period achievable by retiming, and a
/// normalized retiming realizing it.
///
/// # Panics
/// Panics on an empty or malformed graph.
pub fn min_period_retiming(g: &Dfg) -> MinPeriodResult {
    let wd = WdMatrices::compute(g);
    min_period_retiming_with(g, &wd)
}

/// [`min_period_retiming`] with a precomputed W/D matrix, for callers that
/// run several retiming passes over the same graph. With
/// [`WdMatrices::compute_unfolded`]`(g, f)` it solves the `f`-unfolding of
/// `g` without building it, over the unfolding's node ids (the contract of
/// [`crate::RetimeSolver`]); the exploration engine computes those
/// matrices once per factor and shares them between the period search and
/// register compaction. The search runs on the warm-started incremental
/// solver, which starts at a proven lower bound on the period (see
/// [`crate::RetimeSolver::period_lower_bound`]) and reuses the previous
/// feasible solution on each tightening probe.
pub fn min_period_retiming_with(g: &Dfg, wd: &WdMatrices) -> MinPeriodResult {
    crate::RetimeSolver::new(g, wd).min_period()
}

/// The dense reference path of [`min_period_retiming_with`]: every probe
/// rebuilds the full constraint system and solves from scratch. Kept as
/// the differential-testing oracle; bit-identical to the incremental path.
pub fn min_period_retiming_reference(g: &Dfg, wd: &WdMatrices) -> MinPeriodResult {
    g.validate()
        .expect("min_period_retiming requires a well-formed DFG");
    let cands = wd.candidate_periods();
    assert!(!cands.is_empty());
    // Feasibility is monotone in c, so binary search over sorted candidates.
    let mut lo = 0usize; // lowest untested index
    let mut hi = cands.len() - 1; // known feasible? the max D is always feasible
    debug_assert!(
        retime_to_period_reference(g, wd, cands[hi] as u64).is_some(),
        "the maximum D entry must always be feasible (zero retiming)"
    );
    let mut best = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        if let Some(r) = retime_to_period_reference(g, wd, cands[mid] as u64) {
            best = Some((r, cands[mid] as u64));
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let (retiming, period) = best.expect("at least the maximum candidate is feasible");
    MinPeriodResult { retiming, period }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{algo, gen, DfgBuilder, OpKind};

    #[test]
    fn figure1_min_period_is_one() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        let g = b.build().unwrap();
        let res = min_period_retiming(&g);
        assert_eq!(res.period, 1);
        assert!(res.retiming.is_legal(&g));
        assert_eq!(algo::cycle_period(&res.retiming.apply(&g)), Some(1));
    }

    #[test]
    fn chain_with_enough_delays_reaches_unit_period() {
        // 5-node zero-delay chain, feedback with 5 delays: every node can
        // get its own pipeline stage.
        let g = gen::chain_with_feedback(5, 5);
        let res = min_period_retiming(&g);
        assert_eq!(res.period, 1);
    }

    #[test]
    fn chain_with_few_delays_is_limited_by_bound() {
        // 6-node chain, 2 delays on feedback: B = 6/2 = 3, so the best
        // integer period is >= 3; retiming achieves exactly 3.
        let g = gen::chain_with_feedback(6, 2);
        let res = min_period_retiming(&g);
        assert_eq!(res.period, 3);
    }

    #[test]
    fn min_period_never_beats_iteration_bound() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    max_time: 4,
                    ..Default::default()
                },
            );
            let res = min_period_retiming(&g);
            if let Some(b) = algo::iteration_bound(&g) {
                assert!(
                    cred_dfg::Ratio::integer(res.period as i64) >= b,
                    "period {} below iteration bound {b}",
                    res.period
                );
            }
            // And the retiming really achieves the period it claims.
            let gr = res.retiming.apply(&g);
            assert_eq!(algo::cycle_period(&gr), Some(res.period));
        }
    }

    #[test]
    fn min_period_is_minimal_among_candidates() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..15 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 7,
                    max_time: 3,
                    ..Default::default()
                },
            );
            let res = min_period_retiming(&g);
            // No strictly smaller candidate period may be feasible.
            if res.period > 1 {
                assert!(retime_to_period(&g, res.period - 1).is_none());
            }
        }
    }

    #[test]
    fn acyclic_graph_retimes_to_max_node_time() {
        // A zero-delay chain of unit nodes with NO cycle can't be retimed at
        // all (no delays to move): min period = chain length. With delays on
        // each edge it is 1. Here: edges carry one delay each => period 1...
        // except the largest single node time is the floor.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 4, OpKind::Add(0));
        let c = b.node("B", 2, OpKind::Add(0));
        let d = b.node("C", 1, OpKind::Add(0));
        b.edge(a, c, 1);
        b.edge(c, d, 1);
        let g = b.build().unwrap();
        let res = min_period_retiming(&g);
        assert_eq!(res.period, 4);
    }

    #[test]
    fn feed_forward_chain_can_be_fully_pipelined() {
        // Pure feed-forward zero-delay chain: retiming may insert delays
        // freely (no cycles), reaching the max node time.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 2, OpKind::Add(0));
        let c = b.node("B", 3, OpKind::Add(0));
        let d = b.node("C", 2, OpKind::Add(0));
        b.edge(a, c, 0);
        b.edge(c, d, 0);
        let g = b.build().unwrap();
        let res = min_period_retiming(&g);
        assert_eq!(res.period, 3);
        assert!(res.retiming.is_legal(&g));
    }

    #[test]
    fn result_retiming_is_normalized() {
        let g = gen::chain_with_feedback(4, 4);
        let res = min_period_retiming(&g);
        assert!(res.retiming.is_normalized());
    }

    #[test]
    fn precomputed_wd_gives_identical_result() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    ..Default::default()
                },
            );
            let fresh = min_period_retiming(&g);
            let wd = WdMatrices::compute(&g);
            let memo = min_period_retiming_with(&g, &wd);
            assert_eq!(fresh.period, memo.period);
            assert_eq!(fresh.retiming, memo.retiming);
        }
    }

    #[test]
    fn incremental_path_matches_reference_oracle() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..15 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            let wd = WdMatrices::compute(&g);
            let fast = min_period_retiming_with(&g, &wd);
            let slow = min_period_retiming_reference(&g, &wd);
            assert_eq!(fast.period, slow.period);
            assert_eq!(fast.retiming, slow.retiming);
        }
    }

    #[test]
    fn fixed_period_infeasible_below_bound() {
        let g = gen::chain_with_feedback(6, 2); // bound 3
        assert!(retime_to_period(&g, 2).is_none());
        assert!(retime_to_period(&g, 3).is_some());
        assert!(retime_to_period(&g, 100).is_some());
    }
}
