//! Property tests for the retiming engine.

use cred_dfg::algo::WdMatrices;
use cred_dfg::{algo, gen, Dfg, Ratio};
use cred_resilience::Budget;
use cred_retime::feas::Verdict;
use cred_retime::minperiod::{
    constraints_for_period, min_period_retiming_reference, retime_to_period_reference,
};
use cred_retime::span::{
    compact_values, compact_values_wd, compact_values_with, min_span_retiming_reference,
};
use cred_retime::{min_period_retiming, retime_to_period, FeasPlanner, RetimeSolver, Retiming};
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

/// The larger random graphs the FEAS differential runs on: up to 16
/// nodes, delays up to 4 and times up to 5.
fn wide_graph_from(seed: u64, nodes: usize) -> Dfg {
    gen::random_dfg(
        &mut StdRng::seed_from_u64(seed),
        &gen::RandomDfgConfig {
            nodes,
            forward_edge_prob: 0.3,
            back_edges: (nodes / 2).max(1),
            max_delay: 4,
            max_time: 5,
        },
    )
}

/// The FEAS planner on the `f`-unfolding of `g` against the W/D solver on
/// its residue-form matrices: the same period, pre-compaction retiming and
/// compacted retiming. The search probes at most `⌈log2 t_max⌉ + 1`
/// periods, refuses exactly those below the optimum, and refuses each by
/// the round cap or by a cycle of forcing constraints whose weights sum
/// above zero. Each constraint of such a cycle names a path `s ~> v` of
/// `1 - w` delays and time above the probe; the W/D matrices must admit
/// it: `W(s, v) <= 1 - w`, and `D(s, v)` above the probe when the path
/// has the minimum delay count.
fn assert_feas_matches_wd(
    g: &Dfg,
    f: usize,
    planner: &mut FeasPlanner,
) -> Result<(), TestCaseError> {
    let wd = WdMatrices::compute_unfolded(g, f);
    let mut solver = RetimeSolver::new(g, &wd);
    let slow = solver.min_period();
    let fast = planner.min_period(g, f);
    prop_assert_eq!(fast.period, slow.period, "f = {}", f);
    prop_assert_eq!(&fast.retiming, &slow.retiming, "f = {}", f);
    prop_assert_eq!(
        planner.compact(fast.period, &fast.retiming),
        solver.compact(slow.period, &slow.retiming),
        "f = {}",
        f
    );
    let t_max = g.node_ids().map(|v| g.node(v).time).max().unwrap() as u64;
    let most = t_max.next_power_of_two().trailing_zeros() as usize + 1;
    let probes = planner.probes();
    prop_assert!(probes.len() <= most, "f = {}: {:?}", f, probes);
    for probe in probes {
        let c = probe.period;
        prop_assert_eq!(
            probe.verdict == Verdict::Feasible,
            c >= slow.period,
            "f = {}: {:?}",
            f,
            probe
        );
        match probe.verdict {
            Verdict::Feasible => {}
            Verdict::RoundCap => prop_assert_eq!(probe.rounds as usize, g.node_count() * f),
            Verdict::Certificate { .. } => {
                let cycle = planner.certificate(probe);
                prop_assert!(!cycle.is_empty());
                for (i, k) in cycle.iter().enumerate() {
                    prop_assert_eq!(k.s, cycle[(i + 1) % cycle.len()].v, "{:?}", cycle);
                    let (s, v, delays) = (k.s as usize, k.v as usize, 1 - k.w);
                    let w = wd.w(s, v).expect("the path exists");
                    prop_assert!(w <= delays, "{:?}: W = {}", k, w);
                    prop_assert!(w < delays || wd.d(s, v).unwrap() > c as i64, "{:?}", k);
                }
                prop_assert!(cycle.iter().map(|k| k.w).sum::<i64>() > 0, "{:?}", cycle);
            }
        }
    }
    Ok(())
}

/// The minimum-span predicate: `r`, the solver's answer at period `c`, is
/// what the dense span bisection returns at `c` on `u` and its full-form
/// W/D matrices `full`, `u` being the graph (or the unfolding) the solver
/// solved.
fn matches_span_oracle(u: &Dfg, full: &WdMatrices, c: u64, r: &Retiming) -> bool {
    min_span_retiming_reference(u, full, c).as_ref() == Some(r)
}

/// Probe `solver` at the largest candidate period below its closed-walk
/// bound, if there is one: it must answer `None` without charging a work
/// unit, as the dense reference does on `u` and its full-form W/D matrices
/// `full`, `u` being the graph (or the unfolding) the solver solves.
fn probe_below_bound(
    solver: &mut RetimeSolver,
    u: &Dfg,
    full: &WdMatrices,
) -> Result<(), TestCaseError> {
    let bound = solver.period_lower_bound() as i64;
    let Some(c) = full
        .candidate_periods()
        .into_iter()
        .rev()
        .find(|&c| c < bound)
    else {
        return Ok(());
    };
    let budget = Budget::unlimited().with_work_limit(u64::MAX);
    let fast = solver.retime_to_period_budgeted(c as u64, &budget);
    prop_assert!(
        matches!(fast, Ok(None)),
        "period {} below bound {}: {:?}",
        c,
        bound,
        fast
    );
    prop_assert_eq!(budget.work_used(), 0, "period {} below bound {}", c, bound);
    prop_assert_eq!(
        retime_to_period_reference(u, full, c as u64),
        None,
        "period {}",
        c
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn opt_result_is_legal_normalized_and_achieves_period(
        seed in any::<u64>(), nodes in 2..12usize
    ) {
        let g = graph_from(seed, nodes);
        let res = min_period_retiming(&g);
        prop_assert!(res.retiming.is_legal(&g));
        prop_assert!(res.retiming.is_normalized());
        prop_assert_eq!(algo::cycle_period(&res.retiming.apply(&g)), Some(res.period));
    }

    #[test]
    fn opt_never_beats_iteration_bound(seed in any::<u64>(), nodes in 2..12usize) {
        let g = graph_from(seed, nodes);
        let res = min_period_retiming(&g);
        if let Some(b) = algo::iteration_bound(&g) {
            prop_assert!(Ratio::integer(res.period as i64) >= b);
        }
    }

    #[test]
    fn retiming_preserves_iteration_bound(seed in any::<u64>(), nodes in 2..10usize) {
        // The iteration bound is a cycle invariant: retiming moves delays
        // around cycles but conserves their totals.
        let g = graph_from(seed, nodes);
        let res = min_period_retiming(&g);
        let gr = res.retiming.apply(&g);
        prop_assert_eq!(algo::iteration_bound(&g), algo::iteration_bound(&gr));
    }

    #[test]
    fn retiming_conserves_cycle_delays(seed in any::<u64>(), nodes in 2..10usize) {
        // total_delays may change (non-cycle edges), but re-retiming back
        // by the negation restores the original graph exactly.
        let g = graph_from(seed, nodes);
        let res = min_period_retiming(&g);
        let gr = res.retiming.apply(&g);
        let neg = Retiming::from_values(
            res.retiming.values().iter().map(|&v| -v).collect(),
        );
        prop_assert!(neg.is_legal(&gr));
        let back = neg.apply(&gr);
        for e in g.edge_ids() {
            prop_assert_eq!(back.edge(e).delay, g.edge(e).delay);
        }
    }

    #[test]
    fn feasibility_is_monotone_in_period(seed in any::<u64>(), nodes in 2..9usize) {
        let g = graph_from(seed, nodes);
        let opt = min_period_retiming(&g);
        for delta in 1..4u64 {
            prop_assert!(retime_to_period(&g, opt.period + delta).is_some());
        }
    }

    #[test]
    fn min_span_is_minimal(seed in any::<u64>(), nodes in 2..9usize) {
        // Exactness check: no legal retiming at the same period has a
        // smaller span than the period search's answer (verified by the
        // dense span bisection, whose every probe below its answer's span
        // is infeasible).
        let g = graph_from(seed, nodes);
        let opt = min_period_retiming(&g);
        let wd = WdMatrices::compute(&g);
        let tight = min_span_retiming_reference(&g, &wd, opt.period).unwrap();
        prop_assert!(tight.is_legal(&g));
        prop_assert_eq!(tight.span(), opt.retiming.span());
        prop_assert_eq!(
            algo::cycle_period(&tight.apply(&g)),
            Some(opt.period)
        );
    }

    #[test]
    fn compaction_never_increases_registers(seed in any::<u64>(), nodes in 2..10usize) {
        let g = graph_from(seed, nodes);
        let opt = min_period_retiming(&g);
        let c = compact_values(&g, opt.period, &opt.retiming);
        prop_assert!(c.register_count() <= opt.retiming.register_count());
        prop_assert!(c.is_legal(&g));
        prop_assert!(algo::cycle_period(&c.apply(&g)).unwrap() <= opt.period);
    }

    #[test]
    fn incremental_min_period_is_bit_identical_to_reference(
        seed in any::<u64>(), nodes in 2..12usize
    ) {
        // The warm-started SPFA solver must reproduce the dense
        // Bellman–Ford oracle exactly: same period, same retiming values.
        let g = graph_from(seed, nodes);
        let wd = WdMatrices::compute(&g);
        let fast = RetimeSolver::new(&g, &wd).min_period();
        let slow = min_period_retiming_reference(&g, &wd);
        prop_assert_eq!(fast.period, slow.period);
        prop_assert_eq!(&fast.retiming, &slow.retiming);
        // So must the FEAS planner, which reads no W/D matrices.
        let feas = FeasPlanner::new().min_period(&g, 1);
        prop_assert_eq!(feas.period, slow.period);
        prop_assert_eq!(feas.retiming, slow.retiming);
    }

    #[test]
    fn incremental_fixed_period_probes_are_bit_identical(
        seed in any::<u64>(), nodes in 2..10usize
    ) {
        // Sweep every candidate period tightening (the warm path), then
        // loosen back: each probe must match the cold reference solve.
        let g = graph_from(seed, nodes);
        let wd = WdMatrices::compute(&g);
        let mut solver = RetimeSolver::new(&g, &wd);
        let cands = wd.candidate_periods();
        for &c in cands.iter().rev() {
            let fast = solver.retime_to_period(c as u64);
            let slow = retime_to_period_reference(&g, &wd, c as u64);
            prop_assert_eq!(fast, slow, "period {}", c);
        }
        let c = cands[cands.len() - 1];
        prop_assert_eq!(
            solver.retime_to_period(c as u64),
            retime_to_period_reference(&g, &wd, c as u64),
            "re-loosened period {}", c
        );
    }

    #[test]
    fn incremental_min_span_is_bit_identical_to_reference(
        seed in any::<u64>(), nodes in 2..10usize
    ) {
        // The solver's answer at the optimum (its period search's own
        // fixpoint) and at looser periods is the dense span bisection's.
        let g = graph_from(seed, nodes);
        let wd = WdMatrices::compute(&g);
        let mut solver = RetimeSolver::new(&g, &wd);
        let opt = solver.min_period();
        for c in [opt.period, opt.period + 1, opt.period + 2] {
            let fast = solver.retime_to_period(c).unwrap();
            prop_assert!(matches_span_oracle(&g, &wd, c, &fast), "period {}: {:?}", c, fast);
        }
    }

    #[test]
    fn period_lower_bound_never_exceeds_the_optimum(seed in any::<u64>(), nodes in 2..9usize) {
        // The solver's closed-walk bound, read through the residue-form
        // W/D of each unfolding of `g` (never built), against the dense
        // reference search on the full-form W/D of the built unfolding
        // (f = 1 is the graph itself). A probe below the bound is refused
        // for free, and one at the optimum afterwards is the oracle's.
        let g = graph_from(seed, nodes);
        for f in 1..=6 {
            let u = unfold(&g, f).graph;
            let residue = WdMatrices::compute_unfolded(&g, f);
            let full = WdMatrices::compute(&u);
            let mut solver = RetimeSolver::new(&g, &residue);
            let bound = solver.period_lower_bound();
            let opt = min_period_retiming_reference(&u, &full);
            prop_assert!(
                bound <= opt.period,
                "f {}: bound {} above the optimum {}", f, bound, opt.period
            );
            probe_below_bound(&mut solver, &u, &full)?;
            prop_assert_eq!(
                solver.retime_to_period(opt.period), Some(opt.retiming), "f = {}", f
            );
        }
    }

    #[test]
    fn min_span_on_unfolded_graph_matches_reference(seed in any::<u64>(), nodes in 2..7usize) {
        // The warm-started solver on `(g, residue-form W/D)`, which never
        // builds the unfolding, must stay bit-identical to the dense
        // Bellman–Ford reference on the built unfolding and its full-form
        // W/D — the shape the exploration pipeline feeds it (f copies per
        // node, delays spread across copy boundaries).
        let g = graph_from(seed, nodes);
        for f in 1..=6 {
            let u = unfold(&g, f).graph;
            let residue = WdMatrices::compute_unfolded(&g, f);
            let full = WdMatrices::compute(&u);
            let mut solver = RetimeSolver::new(&g, &residue);
            probe_below_bound(&mut solver, &u, &full)?;
            let opt = solver.min_period();
            let slow = min_period_retiming_reference(&u, &full);
            prop_assert_eq!(opt.period, slow.period, "f = {}", f);
            prop_assert_eq!(&opt.retiming, &slow.retiming, "f = {}", f);
            let feas = FeasPlanner::new().min_period(&g, f);
            prop_assert_eq!(feas.period, slow.period, "f = {}", f);
            prop_assert_eq!(&feas.retiming, &slow.retiming, "f = {}", f);
            let c = opt.period;
            for c in [c, c + 1] {
                let fast = solver.retime_to_period(c).unwrap();
                prop_assert!(
                    matches_span_oracle(&u, &full, c, &fast),
                    "f = {}, period {}: {:?}", f, c, fast
                );
                prop_assert!(fast.is_legal(&u));
            }
            // The prefix-checked compaction agrees with the dense system,
            // at the optimum and at a looser period whose solution is
            // spread out.
            for c in [c, c + 2] {
                let r = RetimeSolver::new(&g, &residue).retime_to_period(c).unwrap();
                prop_assert_eq!(
                    compact_values_wd(&g, &residue, c, &r),
                    compact_values_with(&constraints_for_period(&u, &full, c as i64), &r),
                    "f = {}, period {}", f, c
                );
            }
        }
    }

    #[test]
    fn feas_plans_are_bit_identical_to_the_wd_solver(seed in any::<u64>(), nodes in 2..=16usize) {
        // Larger graphs than the dense reference can afford: the W/D
        // solver, itself held to that reference above, is the oracle. One
        // planner serves every factor, as in an explore request.
        let g = wide_graph_from(seed, nodes);
        let mut planner = FeasPlanner::new();
        for f in 1..=8 {
            assert_feas_matches_wd(&g, f, &mut planner)?;
        }
    }

    #[test]
    fn prologue_plus_epilogue_is_v_times_m(seed in any::<u64>(), nodes in 2..12usize) {
        // The identity behind Table 1: sum r + sum (M - r) = |V| * M.
        let g = graph_from(seed, nodes);
        let r = min_period_retiming(&g).retiming;
        prop_assert_eq!(
            r.prologue_size() + r.epilogue_size(),
            g.node_count() as i64 * r.max_value()
        );
    }
}

/// Mutation check of [`matches_span_oracle`]: lowering a sink SCC (one with
/// no edges out to other SCCs) of the solver's answer by one leaves every
/// retimed delay non-negative and the period at most `c`, since only edges
/// into that SCC change, and they gain delays. The mutant is a legal answer
/// but not the maximal fixpoint, and the predicate must reject it.
#[test]
fn span_oracle_rejects_a_legal_non_maximal_answer() {
    let mut mutants = 0;
    for seed in 0..64u64 {
        let g = graph_from(seed, 2 + seed as usize % 8);
        // Tarjan lists the components in reverse topological order, so the
        // first one is a sink.
        let sccs = algo::strongly_connected_components(&g);
        if sccs.len() < 2 {
            continue;
        }
        let wd = WdMatrices::compute(&g);
        let opt = RetimeSolver::new(&g, &wd).min_period();
        assert!(matches_span_oracle(&g, &wd, opt.period, &opt.retiming));
        let mut values = opt.retiming.values().to_vec();
        for v in &sccs[0] {
            values[v.index()] -= 1;
        }
        let mut mutant = Retiming::from_values(values);
        mutant.normalize();
        assert!(
            mutant.is_legal(&g),
            "seed {seed}: the mutant must stay legal"
        );
        assert!(
            algo::cycle_period(&mutant.apply(&g)).unwrap() <= opt.period,
            "seed {seed}: the mutant must keep the period"
        );
        assert!(
            !matches_span_oracle(&g, &wd, opt.period, &mutant),
            "seed {seed}: the oracle accepted the mutant {mutant:?}"
        );
        mutants += 1;
    }
    assert!(mutants >= 32, "only {mutants} graphs had two SCCs");
}

/// Figure 8 of Chao–Sha: times 1, 4, 5, 7 and 10 on one cycle of two
/// delays, B = 27/2. At odd factors the first probe, `⌈f·27/2⌉`, is one
/// below the optimum, so the search bisects and the refusal is checked.
#[test]
fn fig8_first_probe_is_one_below_the_optimum_at_odd_factors() {
    let g = gen::ring(&[1, 4, 5, 7, 10], &[0, 0, 1, 0, 1]);
    assert_eq!(algo::iteration_bound(&g), Some(Ratio::new(27, 2)));
    let mut planner = FeasPlanner::new();
    for f in [1, 3, 5, 7] {
        assert_feas_matches_wd(&g, f, &mut planner).unwrap();
        let first = planner.probes()[0];
        assert_eq!(first.period, (27 * f as u64).div_ceil(2), "f = {f}");
        assert_ne!(first.verdict, Verdict::Feasible, "f = {f}");
        let opt = planner.min_period(&g, f);
        assert_eq!(opt.period, first.period + 1, "f = {f}");
    }
}
