//! Property tests for the four-axis Pareto frontier.
//!
//! Two laws pin the frontier semantics:
//!
//! 1. **Non-domination** — every returned [`ParetoPoint`] is undominated
//!    among the cap-eligible points, every *excluded* eligible point is
//!    dominated by some survivor, and order is preserved;
//! 2. **Cap monotonicity** — tightening `max_registers` never improves
//!    the best achievable iteration period (a cap can only remove
//!    options, never add them).

use cred_codegen::DecMode;
use cred_dfg::gen::{self, RandomDfgConfig};
use cred_dfg::Ratio;
use cred_explore::{frontier, sweep_reference, ExploreRequest, ParetoPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    a.objectives.dominates(&b.objectives)
}

/// Decode an `Option<usize>` cap from a plain integer (the bundled
/// proptest shim has no `option` combinator): 0 = uncapped, k = cap k-1.
fn decode_cap(raw: usize) -> Option<usize> {
    raw.checked_sub(1)
}

fn eligible(p: &ParetoPoint, cap: Option<usize>) -> bool {
    cap.is_none_or(|c| p.objectives.total_registers() <= c)
}

/// Best period reachable under a register cap, straight off the sweep.
fn best_period_under(points: &[ParetoPoint], cap: Option<usize>) -> Option<Ratio> {
    points
        .iter()
        .filter(|p| eligible(p, cap))
        .map(|p| p.objectives.iteration_period)
        .min()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_frontier_point_is_non_dominated(
        seed in 0..u64::MAX,
        nodes in 3..9usize,
        back_edges in 1..3usize,
        max_f in 1..5usize,
        raw_cap in 0..13usize,
    ) {
        let cap = decode_cap(raw_cap);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(
            &mut rng,
            &RandomDfgConfig { nodes, back_edges, ..Default::default() },
        );
        let points = sweep_reference(&g, max_f, 60, DecMode::Bulk);
        let front = frontier(&points, cap);

        // Every survivor is eligible and undominated by ANY point
        // (dominators outside the cap still count as dominators only if
        // eligible — the frontier is over the eligible subset).
        for p in &front {
            prop_assert!(eligible(p, cap), "over-cap point on the frontier");
            for q in points.iter().filter(|q| eligible(q, cap)) {
                prop_assert!(!dominates(q, p),
                    "frontier point f={} is dominated by f={}", p.f, q.f);
            }
        }
        // Every eligible point left out is dominated by some survivor.
        for q in points.iter().filter(|q| eligible(q, cap)) {
            if !front.contains(q) {
                prop_assert!(front.iter().any(|p| dominates(p, q)),
                    "excluded point f={} has no dominator", q.f);
            }
        }
        // The frontier preserves sweep (factor) order.
        let factors: Vec<_> = front.iter().map(|p| p.f).collect();
        let mut sorted = factors.clone();
        sorted.sort_unstable();
        prop_assert_eq!(factors, sorted);
    }

    #[test]
    fn tightening_the_register_cap_never_improves_the_period(
        seed in 0..u64::MAX,
        nodes in 3..9usize,
        max_f in 1..5usize,
        cap_a in 0..14usize,
        cap_b in 0..14usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(&mut rng, &RandomDfgConfig { nodes, ..Default::default() });
        let points = sweep_reference(&g, max_f, 60, DecMode::Bulk);
        let (loose, tight) = (cap_a.max(cap_b), cap_a.min(cap_b));
        // Uncapped is at least as fast as any cap, and a looser cap is at
        // least as fast as a tighter one. `None` when the cap excludes
        // everything — which a looser cap can only un-exclude.
        let unbounded = best_period_under(&points, None);
        let under_loose = best_period_under(&points, Some(loose));
        let under_tight = best_period_under(&points, Some(tight));
        match (under_tight, under_loose) {
            (Some(t), Some(l)) => prop_assert!(l <= t, "loosening the cap slowed the loop"),
            (Some(_), None) => prop_assert!(false, "loosening the cap emptied the frontier"),
            _ => {}
        }
        if let (Some(l), Some(u)) = (under_loose, unbounded) {
            prop_assert!(u <= l);
        }
        // The frontier agrees with the raw sweep on the best period.
        let front = frontier(&points, Some(tight));
        prop_assert_eq!(
            front.iter().map(|p| p.objectives.iteration_period).min(),
            under_tight,
            "frontier lost the best eligible period"
        );
    }

    #[test]
    fn response_frontier_matches_the_free_function(
        seed in 0..u64::MAX,
        nodes in 3..8usize,
        raw_cap in 0..11usize,
    ) {
        let cap = decode_cap(raw_cap);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(&mut rng, &RandomDfgConfig { nodes, ..Default::default() });
        let mut req = ExploreRequest::new(g).max_f(3).trip_count(60);
        if let Some(c) = cap {
            req = req.max_registers(c);
        }
        let resp = req.run().unwrap();
        prop_assert_eq!(&resp.frontier, &frontier(&resp.points, cap));
    }
}
