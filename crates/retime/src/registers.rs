//! Exact minimization of the conditional-register count `|N_r|`.
//!
//! Theorem 4.3 charges one register per distinct retiming value, so among
//! all retimings achieving a period, the one with the fewest distinct
//! values yields the smallest CRED program (`L + 2 * |N_r|`). The greedy
//! [`crate::span::compact_values`] pass usually finds it; this module adds
//! an exact branch-and-bound search for small graphs:
//!
//! * values can be restricted WLOG to `{0, ..., S}` where `S` is the
//!   minimum feasible span at the period;
//! * for `k = 1, 2, ...` try every size-`k` subset of `{0..S}` as the
//!   allowed value set and solve the restricted difference-constraint
//!   CSP by backtracking with forward checking;
//! * the first feasible `k` is optimal.
//!
//! A node budget bounds the worst case; on exhaustion the greedy result is
//! returned (flagged in [`RegisterSearch::exact`]).

use crate::minperiod::constraints_for_period;
use crate::span::compact_values_with;
use crate::{ConstraintSystem, RetimeSolver, Retiming};
use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;

/// Result of [`min_registers_retiming`].
#[derive(Debug, Clone)]
pub struct RegisterSearch {
    /// The best retiming found (normalized, legal, period-preserving).
    pub retiming: Retiming,
    /// True if the result is provably register-minimal; false when the
    /// search budget ran out and the greedy fallback was returned.
    pub exact: bool,
    /// Backtracking nodes expended.
    pub nodes_expanded: u64,
}

struct Csp<'a> {
    sys: &'a ConstraintSystem,
    /// Per-variable constraint adjacency: (other, bound, var_is_a).
    adj: Vec<Vec<(usize, i64, bool)>>,
    allowed: Vec<i64>,
    budget: u64,
    expanded: u64,
}

impl<'a> Csp<'a> {
    fn new(sys: &'a ConstraintSystem, allowed: Vec<i64>, budget: u64) -> Self {
        let mut adj = vec![Vec::new(); sys.num_vars()];
        for &(a, b, c) in sys.constraints() {
            // x_a - x_b <= c
            adj[a].push((b, c, true));
            adj[b].push((a, c, false));
        }
        Csp {
            sys,
            adj,
            allowed,
            budget,
            expanded: 0,
        }
    }

    fn search(&mut self, assignment: &mut Vec<Option<i64>>, var: usize) -> Option<bool> {
        if var == assignment.len() {
            return Some(true);
        }
        self.expanded += 1;
        if self.expanded > self.budget {
            return None; // budget exhausted: unknown
        }
        'next_value: for idx in 0..self.allowed.len() {
            let val = self.allowed[idx];
            // Check constraints against already-assigned neighbours.
            for &(other, c, var_is_a) in &self.adj[var] {
                if let Some(ov) = assignment[other] {
                    let ok = if var_is_a {
                        val - ov <= c
                    } else {
                        ov - val <= c
                    };
                    if !ok {
                        continue 'next_value;
                    }
                } else if other == var {
                    // Self-constraint: x - x <= c, i.e. c >= 0 must hold.
                    if var_is_a && c < 0 {
                        continue 'next_value;
                    }
                }
            }
            assignment[var] = Some(val);
            match self.search(assignment, var + 1) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            assignment[var] = None;
        }
        Some(false)
    }

    fn solve(&mut self) -> Option<Option<Vec<i64>>> {
        let mut assignment = vec![None; self.sys.num_vars()];
        match self.search(&mut assignment, 0) {
            Some(true) => Some(Some(assignment.into_iter().map(Option::unwrap).collect())),
            Some(false) => Some(None),
            None => None,
        }
    }
}

fn subsets_with_zero(max: i64, k: usize) -> Vec<Vec<i64>> {
    // All size-k subsets of {0..=max} containing 0 (a normalized retiming
    // always uses value 0).
    let mut out = Vec::new();
    let rest: Vec<i64> = (1..=max).collect();
    let mut idxs: Vec<usize> = (0..k.saturating_sub(1)).collect();
    if k == 0 {
        return out;
    }
    if k == 1 {
        return vec![vec![0]];
    }
    if rest.len() < k - 1 {
        return out;
    }
    loop {
        let mut s = vec![0i64];
        s.extend(idxs.iter().map(|&i| rest[i]));
        out.push(s);
        // Next combination.
        let mut i = k - 2;
        loop {
            if idxs[i] < rest.len() - (k - 1 - i) {
                idxs[i] += 1;
                for j in i + 1..k - 1 {
                    idxs[j] = idxs[j - 1] + 1;
                }
                break;
            }
            if i == 0 {
                return out;
            }
            i -= 1;
        }
    }
}

/// Find a retiming achieving period `<= c` with provably minimal
/// `|N_r|` (subject to a backtracking `budget`; on exhaustion, the greedy
/// compaction of the minimum-span retiming is returned with `exact:
/// false`).
pub fn min_registers_retiming(g: &Dfg, c: u64, budget: u64) -> Option<RegisterSearch> {
    let wd = WdMatrices::compute(g);
    // One solve checks feasibility, and its answer has the minimum span
    // `S` (see `RetimeSolver::retime_to_period`); the dense system is only
    // built for the CSP itself.
    let base = RetimeSolver::new(g, &wd).retime_to_period(c)?;
    let sys = constraints_for_period(g, &wd, c as i64);
    let greedy = compact_values_with(&sys, &base);
    let span = base.span();
    let mut expanded_total = 0u64;
    for k in 1..=greedy.register_count() {
        for allowed in subsets_with_zero(span, k) {
            let mut csp = Csp::new(&sys, allowed, budget.saturating_sub(expanded_total));
            match csp.solve() {
                Some(Some(vals)) => {
                    let mut r = Retiming::from_values(vals);
                    r.normalize();
                    debug_assert!(r.is_legal(g));
                    debug_assert!(r.register_count() <= k);
                    return Some(RegisterSearch {
                        retiming: r,
                        exact: true,
                        nodes_expanded: expanded_total + csp.expanded,
                    });
                }
                Some(None) => expanded_total += csp.expanded,
                None => {
                    // Budget gone: fall back to the greedy result.
                    return Some(RegisterSearch {
                        retiming: greedy,
                        exact: false,
                        nodes_expanded: expanded_total + csp.expanded,
                    });
                }
            }
        }
    }
    // k reached the greedy count: the greedy result is optimal.
    Some(RegisterSearch {
        retiming: greedy,
        exact: true,
        nodes_expanded: expanded_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_period_retiming;
    use cred_dfg::{algo, gen};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets_with_zero(3, 1), vec![vec![0]]);
        let s2 = subsets_with_zero(3, 2);
        assert_eq!(s2, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let s3 = subsets_with_zero(3, 3);
        assert_eq!(s3, vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 3]]);
        assert!(subsets_with_zero(1, 3).is_empty());
    }

    #[test]
    fn exact_matches_or_beats_greedy() {
        let mut rng = StdRng::seed_from_u64(5150);
        for _ in 0..25 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            let opt = min_period_retiming(&g);
            let search = min_registers_retiming(&g, opt.period, 2_000_000).unwrap();
            assert!(search.retiming.is_legal(&g));
            assert!(algo::cycle_period(&search.retiming.apply(&g)).unwrap() <= opt.period);
            let greedy = crate::span::compact_values(&g, opt.period, &opt.retiming);
            assert!(
                search.retiming.register_count() <= greedy.register_count(),
                "exact ({}) must not lose to greedy ({})",
                search.retiming.register_count(),
                greedy.register_count()
            );
            if search.exact && search.retiming.register_count() > 1 {
                // Optimality spot check: one fewer register must be
                // infeasible — re-run capped at k-1 by shrinking the span
                // subsets manually.
                let wd = WdMatrices::compute(&g);
                let sys = constraints_for_period(&g, &wd, opt.period as i64);
                let span = opt.retiming.span();
                let k = search.retiming.register_count() - 1;
                for allowed in subsets_with_zero(span, k) {
                    let mut csp = Csp::new(&sys, allowed, 2_000_000);
                    assert!(
                        matches!(csp.solve(), Some(None)),
                        "a {k}-register solution exists but was not found"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_period_is_none() {
        let g = gen::chain_with_feedback(6, 2); // bound 3
        assert!(min_registers_retiming(&g, 2, 10_000).is_none());
    }

    #[test]
    fn single_register_when_no_retiming_needed() {
        let g = gen::chain_with_feedback(4, 1);
        let s = min_registers_retiming(&g, 4, 10_000).unwrap();
        assert!(s.exact);
        assert_eq!(s.retiming.register_count(), 1); // all zeros
    }

    #[test]
    fn tiny_budget_falls_back_to_greedy() {
        let g = gen::chain_with_feedback(8, 4);
        let s = min_registers_retiming(&g, 2, 1).unwrap();
        // With a 1-node budget the search cannot finish k=1; either it
        // proves k=1 infeasible within a node or falls back.
        assert!(s.retiming.is_legal(&g));
    }
}
