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

use crate::minperiod::constraints_for_period;
use crate::{ConstraintSystem, RetimeSolver, Retiming};
use cred_dfg::algo::WdMatrices;
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
/// for `g` itself (the contract of [`RetimeSolver`]). It builds a solver
/// for them and runs [`RetimeSolver::compact`]; a caller that already
/// holds the solver of the period search compacts on it instead.
pub fn compact_values_wd(g: &Dfg, wd: &WdMatrices, c: u64, r: &Retiming) -> Retiming {
    RetimeSolver::new(g, wd).compact(c, r)
}

/// [`compact_values`] against an explicit constraint system: the dense
/// reference the degradation fallback and the reference sweep use, and
/// the oracle of [`RetimeSolver::compact`].
pub fn compact_values_with(sys: &ConstraintSystem, r: &Retiming) -> Retiming {
    compact_greedy(r, |x| sys.satisfied_by(x), &mut CompactScratch::default())
}

/// The working sets of [`compact_greedy`]. They carry capacity only;
/// every pass resets them.
#[derive(Debug, Default, Clone)]
pub(crate) struct CompactScratch {
    /// The assignment being compacted.
    vals: Vec<i64>,
    /// `vals` sorted, to count its values.
    sorted: Vec<i64>,
    /// `(value, count)` of every value in use, ascending by value.
    counts: Vec<(i64, usize)>,
    /// `(count, value)`, the rarest value first.
    order: Vec<(usize, i64)>,
    /// `(count, value)` of the values a victim's nodes may move to, the
    /// most popular first.
    targets: Vec<(usize, i64)>,
    /// The nodes holding the victim value.
    movers: Vec<usize>,
}

impl CompactScratch {
    /// Working sets for a retiming of `n` values.
    pub(crate) fn with_capacity(n: usize) -> Self {
        CompactScratch {
            vals: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n),
            counts: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            targets: Vec::with_capacity(n),
            movers: Vec::with_capacity(n),
        }
    }
}

/// The greedy pass of [`compact_values`], with `satisfied` deciding
/// whether an assignment meets the period-`c` system and `scratch`
/// holding its working sets, so a pass allocates only its result.
pub(crate) fn compact_greedy(
    r: &Retiming,
    mut satisfied: impl FnMut(&[i64]) -> bool,
    scratch: &mut CompactScratch,
) -> Retiming {
    let CompactScratch {
        vals,
        sorted,
        counts,
        order,
        targets,
        movers,
    } = scratch;
    vals.clear();
    vals.extend_from_slice(r.values());
    debug_assert!(satisfied(vals));
    loop {
        sorted.clear();
        sorted.extend_from_slice(vals);
        sorted.sort_unstable();
        counts.clear();
        for &v in sorted.iter() {
            match counts.last_mut() {
                Some((last, c)) if *last == v => *c += 1,
                _ => counts.push((v, 1)),
            }
        }
        if counts.len() <= 1 {
            break;
        }
        // Try to eliminate the rarest value entirely by moving each of its
        // nodes to some other in-use value.
        order.clear();
        order.extend(counts.iter().map(|&(v, c)| (c, v)));
        order.sort_unstable();
        let mut improved = false;
        'outer: for &(_, victim) in order.iter() {
            movers.clear();
            movers.extend((0..vals.len()).filter(|&i| vals[i] == victim));
            targets.clear();
            targets.extend(
                counts
                    .iter()
                    .filter(|&&(v, _)| v != victim)
                    .map(|&(v, c)| (c, v)),
            );
            targets.sort_unstable_by(|a, b| b.cmp(a)); // most popular first
            for &(_, t) in targets.iter() {
                for &i in movers.iter() {
                    vals[i] = t;
                }
                if satisfied(vals) {
                    improved = true;
                    break 'outer;
                }
                for &i in movers.iter() {
                    vals[i] = victim;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let mut out = Retiming::from_values(vals.clone());
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
