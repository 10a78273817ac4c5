//! Span and register post-passes of a feasible retiming:
//!
//! * the span `M_r = max r - min r` sizes the pipelined loop (`L + |V| *
//!   M_r`) and the `(M_r + f) * L` term of the retime-then-unfold loop
//!   (Theorem 4.5), but needs no pass: the solver's answer at a period
//!   already has that period's minimum span (see
//!   [`crate::RetimeSolver::retime_to_period`]).
//!   [`min_span_retiming_reference`] bisects the span over dense
//!   constraints, the independent oracle of that claim;
//! * [`compact_values`] — greedily merge retiming values to reduce
//!   `|N_r|`, the number of conditional registers CRED needs (Theorem 4.3),
//!   without breaking legality or the period.

use crate::incremental::PeriodEdge;
use crate::minperiod::constraints_for_period;
use crate::{ConstraintSystem, Retiming};
use cred_dfg::algo::{unfolded_edges, WdMatrices};
use cred_dfg::Dfg;

/// A retiming achieving cycle period `<= c` with the minimum possible
/// span `max r - min r`, or `None` if `c` is infeasible, by a binary search
/// on the span `s`: every probe materializes the full `O(V^2)` pairwise
/// constraints `r(u) - r(v) <= s` on top of the period system and solves
/// from scratch with Bellman–Ford. The differential-testing oracle of
/// [`crate::RetimeSolver::retime_to_period`], whose answer it equals.
pub fn min_span_retiming_reference(g: &Dfg, wd: &WdMatrices, c: u64) -> Option<Retiming> {
    let base = constraints_for_period(g, wd, c as i64);
    let base_sol = base.solve()?;
    let mut base_r = Retiming::from_values(base_sol);
    base_r.normalize();
    let mut lo = 0i64;
    let mut hi = base_r.span(); // feasible by construction
    let mut best = base_r;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match solve_with_span(g, wd, c as i64, mid) {
            Some(r) => {
                best = r;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    debug_assert!(best.is_legal(g));
    Some(best)
}

fn solve_with_span(g: &Dfg, wd: &WdMatrices, c: i64, span: i64) -> Option<Retiming> {
    let n = g.node_count();
    let mut sys = constraints_for_period(g, wd, c);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                sys.add(u, v, span);
            }
        }
    }
    let sol = sys.solve()?;
    let mut r = Retiming::from_values(sol);
    r.normalize();
    debug_assert!(r.span() <= span);
    Some(r)
}

/// Greedily reduce the number of distinct retiming values of `r` while
/// keeping every constraint of the period-`c` system satisfied.
///
/// For each node (most-isolated values first), try to move its value to
/// another value already in use, preferring the most popular ones; accept
/// a move if the whole assignment still satisfies the system. Runs to a
/// fixpoint. Heuristic: minimizing `|N_r|` exactly is a set-cover-like
/// problem; the greedy pass recovers the common cases (e.g. a stray value
/// used by one node that can slide to a neighbour).
pub fn compact_values(g: &Dfg, c: u64, r: &Retiming) -> Retiming {
    let wd = WdMatrices::compute(g);
    compact_values_wd(g, &wd, c, r)
}

/// [`compact_values`] for a retiming `r` of the `f`-unfolding of `g`,
/// given that unfolding's W/D matrices, `f = wd.factor()`:
/// [`WdMatrices::compute_unfolded`]`(g, f)`, or [`WdMatrices::compute`]`(g)`
/// for `g` itself (the contract of [`crate::RetimeSolver`]).
///
/// Each trial move is checked against the unfolding's legality edges
/// ([`unfolded_edges`]) and the copies of the activation entries with
/// `D > c`, the same constraints the [`crate::RetimeSolver`] relaxes at
/// period `c`, so neither the unfolding nor a dense [`ConstraintSystem`]
/// is built. The result equals [`compact_values_with`] on
/// [`constraints_for_period`] of the built unfolding: that system keeps
/// the tightest bound per pair, and an assignment meets it exactly when it
/// meets every constraint listed here.
pub fn compact_values_wd(g: &Dfg, wd: &WdMatrices, c: u64, r: &Retiming) -> Retiming {
    let f = wd.factor();
    assert_eq!(
        wd.len(),
        g.node_count() * f,
        "W/D matrices belong to a different graph"
    );
    let mut legality = Vec::with_capacity(g.edge_count() * f);
    unfolded_edges(g, f).for_each(|(src, dst, delay)| legality.push((dst, src, delay as i64)));
    let f = f as u32;
    let act = wd.activation_by_d();
    let period: Vec<(usize, PeriodEdge)> = act[..act.partition_point(|&(d, _, _)| d > c as i64)]
        .iter()
        .map(|&(_, u, t)| (u as usize * f as usize, PeriodEdge::new(wd, u, t)))
        .collect();
    compact_greedy(r, |x| {
        legality.iter().all(|&(a, b, d)| x[a] - x[b] <= d)
            && period.iter().all(|&(u, e)| {
                (0..f).all(|i| {
                    let (v, w) = e.shifted(i, f);
                    x[v] - x[u + i as usize] <= w
                })
            })
    })
}

/// [`compact_values`] against an explicit constraint system: the dense
/// reference the degradation fallback and the reference sweep use, and
/// the oracle of [`compact_values_wd`].
pub fn compact_values_with(sys: &ConstraintSystem, r: &Retiming) -> Retiming {
    compact_greedy(r, |x| sys.satisfied_by(x))
}

/// The greedy pass of [`compact_values`], with `satisfied` deciding
/// whether an assignment meets the period-`c` system.
fn compact_greedy(r: &Retiming, satisfied: impl Fn(&[i64]) -> bool) -> Retiming {
    let mut vals = r.values().to_vec();
    debug_assert!(satisfied(&vals));
    loop {
        let mut counts = std::collections::BTreeMap::<i64, usize>::new();
        for &v in &vals {
            *counts.entry(v).or_insert(0) += 1;
        }
        if counts.len() <= 1 {
            break;
        }
        // Try to eliminate the rarest value entirely by moving each of its
        // nodes to some other in-use value.
        let mut order: Vec<(usize, i64)> = counts.iter().map(|(&v, &c)| (c, v)).collect();
        order.sort_unstable();
        let mut improved = false;
        'outer: for &(_, victim) in &order {
            let movers: Vec<usize> = (0..vals.len()).filter(|&i| vals[i] == victim).collect();
            let targets: Vec<i64> = {
                let mut t: Vec<(usize, i64)> = counts
                    .iter()
                    .filter(|(&v, _)| v != victim)
                    .map(|(&v, &c)| (c, v))
                    .collect();
                t.sort_unstable_by(|a, b| b.cmp(a)); // most popular first
                t.into_iter().map(|(_, v)| v).collect()
            };
            let snapshot = vals.clone();
            for &t in &targets {
                for &i in &movers {
                    vals[i] = t;
                }
                if satisfied(&vals) {
                    improved = true;
                    break 'outer;
                }
                vals.copy_from_slice(&snapshot);
            }
        }
        if !improved {
            break;
        }
    }
    let mut out = Retiming::from_values(vals);
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minperiod::min_period_retiming;
    use cred_dfg::{algo, gen, DfgBuilder};

    #[test]
    fn min_span_matches_period() {
        let g = gen::chain_with_feedback(6, 3); // bound 2
        let wd = WdMatrices::compute(&g);
        let r = min_span_retiming_reference(&g, &wd, 2).expect("period 2 feasible");
        assert_eq!(algo::cycle_period(&r.apply(&g)), Some(2));
        assert_eq!(crate::retime_to_period(&g, 2), Some(r));
    }

    #[test]
    fn min_span_never_exceeds_default_solution() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            let opt = min_period_retiming(&g);
            let wd = WdMatrices::compute(&g);
            let tight = min_span_retiming_reference(&g, &wd, opt.period).unwrap();
            assert!(tight.span() <= opt.retiming.span());
            assert!(tight.is_legal(&g));
            assert_eq!(
                algo::cycle_period(&tight.apply(&g)),
                Some(opt.period),
                "span minimization must not lose the period"
            );
            // The period search's answer is already that tight.
            assert_eq!(opt.retiming, tight);
        }
    }

    #[test]
    fn warm_and_cold_answers_match_the_dense_span_search() {
        use crate::RetimeSolver;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..25 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 9,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            let wd = WdMatrices::compute(&g);
            let opt = min_period_retiming(&g);
            // Probe both the optimal period and a relaxed one, pitting the
            // solver against the dense span bisection: warm after the
            // period search, and cold from a fresh solver.
            for c in [opt.period, opt.period + 1] {
                let reference = min_span_retiming_reference(&g, &wd, c).unwrap();
                let mut solver = RetimeSolver::new(&g, &wd);
                solver.min_period();
                let warm = solver.retime_to_period(c).unwrap();
                assert_eq!(reference, warm, "warm, period {c}");
                let cold = RetimeSolver::new(&g, &wd).retime_to_period(c).unwrap();
                assert_eq!(reference, cold, "cold, period {c}");
                assert_eq!(Some(reference), crate::retime_to_period(&g, c));
            }
        }
    }

    #[test]
    fn min_span_infeasible_period_is_none() {
        let g = gen::chain_with_feedback(6, 2); // bound 3
        let wd = WdMatrices::compute(&g);
        assert!(min_span_retiming_reference(&g, &wd, 2).is_none());
    }

    #[test]
    fn zero_span_when_no_retiming_needed() {
        let g = gen::chain_with_feedback(3, 1);
        let r = crate::retime_to_period(&g, 3).unwrap();
        assert_eq!(r.span(), 0);
    }

    #[test]
    fn compact_values_reduces_register_count() {
        // A feed-forward diamond where the default solution spreads values
        // but period allows collapsing them.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let x = b.unit("X");
        let y = b.unit("Y");
        let z = b.unit("Z");
        b.edge(a, x, 1);
        b.edge(x, y, 1);
        b.edge(y, z, 1);
        let g = b.build().unwrap();
        // Hand-build a legal-but-wasteful retiming for period 1:
        // values {0, 1, 2, 3} all distinct.
        let r = Retiming::from_values(vec![3, 2, 1, 0]);
        assert!(r.is_legal(&g));
        let compacted = compact_values(&g, 1, &r);
        assert!(compacted.register_count() <= r.register_count());
        assert!(compacted.is_legal(&g));
        // Period 1 is kept.
        assert!(algo::cycle_period(&compacted.apply(&g)).unwrap() <= 1);
    }

    #[test]
    fn prefix_checked_compaction_equals_the_dense_system() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..30 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 9,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            let wd = WdMatrices::compute(&g);
            let opt = min_period_retiming(&g);
            // The period solution and a looser one, both spread out, so
            // the greedy pass has values to merge and moves to reject.
            for c in [opt.period, opt.period + 2] {
                let r = crate::retime_to_period(&g, c).unwrap();
                let dense = compact_values_with(&constraints_for_period(&g, &wd, c as i64), &r);
                assert_eq!(compact_values_wd(&g, &wd, c, &r), dense, "period {c}");
            }
        }
    }

    #[test]
    fn compact_values_preserves_feasibility_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 10,
                    max_delay: 2,
                    ..Default::default()
                },
            );
            let opt = min_period_retiming(&g);
            let compacted = compact_values(&g, opt.period, &opt.retiming);
            assert!(compacted.is_legal(&g));
            assert!(algo::cycle_period(&compacted.apply(&g)).unwrap() <= opt.period);
            assert!(compacted.register_count() <= opt.retiming.register_count());
        }
    }
}
