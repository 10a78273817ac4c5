//! Property tests for unfolding and the transformation orders.

use cred_dfg::{algo, gen, Dfg};
use cred_unfold::orders::{project_retiming, retime_then_unfold, unfold_then_retime_min};
use cred_unfold::unfold;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn graph_from(seed: u64, nodes: usize) -> Dfg {
    gen::random_dfg(
        &mut StdRng::seed_from_u64(seed),
        &gen::RandomDfgConfig {
            nodes,
            forward_edge_prob: 0.3,
            back_edges: (nodes / 2).max(1),
            max_delay: 3,
            max_time: 3,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn unfolding_scales_counts(seed in any::<u64>(), nodes in 1..10usize, f in 1..5usize) {
        let g = graph_from(seed, nodes);
        let u = unfold(&g, f);
        prop_assert_eq!(u.graph.node_count(), g.node_count() * f);
        prop_assert_eq!(u.graph.edge_count(), g.edge_count() * f);
        prop_assert!(u.graph.validate().is_ok());
    }

    #[test]
    fn unfolding_conserves_total_delays(seed in any::<u64>(), nodes in 1..10usize, f in 1..5usize) {
        let g = graph_from(seed, nodes);
        let u = unfold(&g, f);
        prop_assert_eq!(u.graph.total_delays(), g.total_delays());
    }

    #[test]
    fn unfolding_scales_iteration_bound(seed in any::<u64>(), nodes in 2..8usize, f in 1..4usize) {
        let g = graph_from(seed, nodes);
        let u = unfold(&g, f);
        match (algo::iteration_bound(&g), algo::iteration_bound(&u.graph)) {
            (Some(b), Some(bf)) => prop_assert_eq!(bf, b.scale(f as i64)),
            (None, None) => {}
            (a, b) => prop_assert!(false, "bound mismatch {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn wd_sweep_matches_floyd_warshall_on_unfoldings(
        seed in any::<u64>(),
        nodes in 1..16usize,
        edge_pct in 10..=70u32,
        max_delay in 0..=5u32,
        max_time in 1..=7u32,
        f in 1..=4usize,
    ) {
        // Unfolding spreads each delay over the copies, so the unfolded
        // graphs have long zero-delay chains and few delay layers.
        let g = gen::random_dfg(
            &mut StdRng::seed_from_u64(seed),
            &gen::RandomDfgConfig {
                nodes,
                forward_edge_prob: edge_pct as f64 / 100.0,
                back_edges: (nodes / 2).max(1),
                max_delay,
                max_time,
            },
        );
        let u = unfold(&g, f).graph;
        prop_assert_eq!(algo::WdMatrices::compute(&u), algo::WdMatrices::compute_reference(&u));
    }

    #[test]
    fn provenance_is_a_bijection(seed in any::<u64>(), nodes in 1..8usize, f in 1..5usize) {
        let g = graph_from(seed, nodes);
        let u = unfold(&g, f);
        let mut seen = vec![false; u.graph.node_count()];
        for orig in g.node_ids() {
            for j in 0..f {
                let c = u.copy_id(orig, j);
                prop_assert_eq!(u.origin(c), (orig, j));
                prop_assert!(!seen[c.index()]);
                seen[c.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn projection_is_legal_and_matches_period(seed in any::<u64>(), nodes in 2..7usize, f in 2..4usize) {
        let g = graph_from(seed, nodes);
        let ur = unfold_then_retime_min(&g, f);
        let projected = project_retiming(&ur.unfolded, &ur.retiming);
        prop_assert!(projected.is_legal(&g), "Theorem 4.5 legality");
        let ru = retime_then_unfold(&g, &projected, f);
        prop_assert_eq!(ru.period, ur.period, "Chao-Sha period equivalence");
    }

    #[test]
    fn projected_max_bounded_by_f_times_max(seed in any::<u64>(), nodes in 2..7usize, f in 2..5usize) {
        // max_u sum_i r(u_i) <= f * max r: the inequality behind
        // S_{r,f} <= S_{f,r}.
        let g = graph_from(seed, nodes);
        let ur = unfold_then_retime_min(&g, f);
        let projected = project_retiming(&ur.unfolded, &ur.retiming);
        prop_assert!(projected.max_value() <= ur.retiming.max_value() * f as i64);
    }

    #[test]
    fn unfolded_semantics_match_original(seed in any::<u64>(), nodes in 1..7usize, f in 1..4usize, k in 1..8usize) {
        // Copy j at unfolded iteration m computes original iteration
        // f*(m-1)+j+1 (checked through the executable reference).
        let g = graph_from(seed, nodes);
        // Skip graphs with Input ops: their value depends on the raw
        // iteration index, which unfolded graphs renumber.
        let has_input = g
            .node_ids()
            .any(|v| matches!(g.node(v).op, cred_dfg::OpKind::Input(_)));
        prop_assume!(!has_input);
        let u = unfold(&g, f);
        let n_orig = k * f;
        let reference = g.reference_execution(n_orig);
        let unf = u.graph.reference_execution(k);
        for v in g.node_ids() {
            for j in 0..f {
                let cv = u.copy_id(v, j);
                for m in 0..k {
                    prop_assert_eq!(unf[cv.index()][m], reference[v.index()][f * m + j]);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn min_span_on_unfolded_graph_matches_reference(
        seed in any::<u64>(),
        nodes in 2..7usize,
        f in 2..5usize,
    ) {
        // The warm-started incremental span minimizer must stay
        // bit-identical to the dense Bellman–Ford reference on *unfolded*
        // graphs — the shape the exploration pipeline actually feeds it
        // (f copies per node, delays spread across copy boundaries).
        let g = graph_from(seed, nodes);
        let u = unfold(&g, f);
        let wd = cred_dfg::algo::WdMatrices::compute(&u.graph);
        let c = cred_retime::min_period_retiming_with(&u.graph, &wd).period;
        let fast = cred_retime::span::min_span_retiming_with(&u.graph, &wd, c);
        let dense = cred_retime::span::min_span_retiming_reference(&u.graph, &wd, c);
        prop_assert_eq!(&fast, &dense);
        let fast = fast.unwrap();
        prop_assert!(fast.is_legal(&u.graph));
        // And the compacted register assignment agrees too.
        let a = cred_retime::span::compact_values_wd(&u.graph, &wd, c, &fast);
        let b = cred_retime::span::compact_values_wd(&u.graph, &wd, c, &dense.unwrap());
        prop_assert_eq!(a, b);
    }
}
