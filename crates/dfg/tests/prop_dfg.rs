//! Property tests for the DFG substrate: invariants of the analyses on
//! randomly generated well-formed graphs.

use cred_dfg::{algo, gen, Dfg, Ratio};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn graph_from(seed: u64, nodes: usize, max_delay: u32, max_time: u32) -> Dfg {
    gen::random_dfg(
        &mut StdRng::seed_from_u64(seed),
        &gen::RandomDfgConfig {
            nodes,
            forward_edge_prob: 0.35,
            back_edges: (nodes / 2).max(1),
            max_delay,
            max_time,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_validate(seed in any::<u64>(), nodes in 1..20usize) {
        let g = graph_from(seed, nodes, 3, 4);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn cycle_period_at_least_max_node_time(seed in any::<u64>(), nodes in 1..15usize) {
        let g = graph_from(seed, nodes, 3, 5);
        let phi = algo::cycle_period(&g).unwrap();
        let max_t = g.node_ids().map(|v| g.node(v).time as u64).max().unwrap();
        prop_assert!(phi >= max_t);
        prop_assert!(phi <= g.total_time());
    }

    #[test]
    fn iteration_bound_bounded_by_extremes(seed in any::<u64>(), nodes in 2..12usize) {
        let g = graph_from(seed, nodes, 3, 4);
        if let Some(b) = algo::iteration_bound(&g) {
            // Any cycle ratio lies in [min_t / total_d, total_t].
            prop_assert!(b > Ratio::integer(0));
            prop_assert!(b <= Ratio::integer(g.total_time() as i64));
        }
    }

    #[test]
    fn scc_partitions_nodes(seed in any::<u64>(), nodes in 1..25usize) {
        let g = graph_from(seed, nodes, 2, 2);
        let sccs = algo::strongly_connected_components(&g);
        let mut seen = vec![false; g.node_count()];
        for comp in &sccs {
            for v in comp {
                prop_assert!(!seen[v.index()], "node in two components");
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn topo_order_respects_zero_delay_edges(seed in any::<u64>(), nodes in 1..20usize) {
        let g = graph_from(seed, nodes, 3, 2);
        let order = algo::zero_delay_topo_order(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for e in g.edge_ids() {
            let ed = g.edge(e);
            if ed.delay == 0 {
                prop_assert!(pos[ed.src.index()] < pos[ed.dst.index()]);
            }
        }
    }

    #[test]
    fn wd_diagonal_and_symmetric_sanity(seed in any::<u64>(), nodes in 1..10usize) {
        let g = graph_from(seed, nodes, 2, 3);
        let wd = algo::WdMatrices::compute(&g);
        for v in 0..g.node_count() {
            prop_assert_eq!(wd.w(v, v), Some(0));
            prop_assert_eq!(wd.d(v, v), Some(g.node(cred_dfg::NodeId(v as u32)).time as i64));
        }
        // W is a shortest-path metric: triangle inequality.
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if let (Some(ab), Some(bc), Some(ac)) = (wd.w(a, b), wd.w(b, c), wd.w(a, c)) {
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }

    #[test]
    fn wd_sweep_matches_floyd_warshall(
        seed in any::<u64>(),
        nodes in 1..40usize,
        edge_pct in 10..=70u32,
        max_delay in 0..=5u32,
        max_time in 1..=7u32,
    ) {
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
        let wd = algo::WdMatrices::compute(&g);
        prop_assert_eq!(wd.first_mismatch(&algo::WdMatrices::compute_reference(&g)), None);
    }

    #[test]
    fn reference_execution_deterministic(seed in any::<u64>(), nodes in 1..10usize, n in 1..30usize) {
        let g = graph_from(seed, nodes, 2, 1);
        let a = g.reference_execution(n);
        let b = g.reference_execution(n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reference_execution_prefix_stable(seed in any::<u64>(), nodes in 1..8usize, n in 2..25usize) {
        // Computing more iterations never changes earlier ones.
        let g = graph_from(seed, nodes, 2, 1);
        let long = g.reference_execution(n);
        let short = g.reference_execution(n - 1);
        for v in 0..g.node_count() {
            prop_assert_eq!(&long[v][..n - 1], &short[v][..]);
        }
    }
}
