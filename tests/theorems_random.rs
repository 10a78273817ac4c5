//! The paper's theorems, property-tested over random DFGs (the benchmark
//! instantiation lives in `cred-core`'s unit tests).

use cred::core::theorems;
use cred::dfg::{gen, Dfg};
use cred::retime::min_period_retiming;
use cred::retime::span::compact_values;
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
            max_time: 1,
        },
    )
}

fn tuned(g: &Dfg) -> cred::retime::Retiming {
    let opt = min_period_retiming(g);
    compact_values(g, opt.period, &opt.retiming)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn theorem_4_1_prologue_replacement(seed in any::<u64>(), nodes in 2..8usize, n in 1..40u64) {
        let g = graph_from(seed, nodes);
        let r = tuned(&g);
        prop_assert!(theorems::theorem_4_1(&g, &r, n).is_ok());
    }

    #[test]
    fn theorem_4_2_epilogue_replacement(seed in any::<u64>(), nodes in 2..8usize, n in 1..40u64) {
        let g = graph_from(seed, nodes);
        let r = tuned(&g);
        // The epilogue window claim needs the windows not to overlap
        // (n >= M_r); smaller n is covered by the VM equivalence tests.
        prop_assume!(n as i64 >= r.max_value());
        prop_assert!(theorems::theorem_4_2(&g, &r, n).is_ok());
    }

    #[test]
    fn theorem_4_3_total_reduction(seed in any::<u64>(), nodes in 2..8usize, n in 1..30u64) {
        let g = graph_from(seed, nodes);
        let r = tuned(&g);
        prop_assert!(theorems::theorem_4_3(&g, &r, n).is_ok());
    }

    #[test]
    fn theorem_4_4_unfold_retime_size(seed in any::<u64>(), nodes in 2..7usize, f in 2..4usize) {
        let g = graph_from(seed, nodes);
        prop_assert!(theorems::theorem_4_4(&g, f, 120).is_ok());
    }

    #[test]
    fn theorem_4_5_retime_unfold_size(seed in any::<u64>(), nodes in 2..7usize, f in 2..4usize) {
        let g = graph_from(seed, nodes);
        prop_assert!(theorems::theorem_4_5(&g, f, 120).is_ok());
    }

    #[test]
    fn theorem_4_6_hidden_prologue(seed in any::<u64>(), nodes in 2..7usize, f in 2..4usize) {
        let g = graph_from(seed, nodes);
        let r = tuned(&g);
        prop_assert!(theorems::theorem_4_6(&g, &r, f, 60).is_ok());
    }

    #[test]
    fn theorem_4_7_register_preservation(seed in any::<u64>(), nodes in 2..7usize, f in 2..5usize) {
        let g = graph_from(seed, nodes);
        let r = tuned(&g);
        prop_assert!(theorems::theorem_4_7(&g, &r, f, 60).is_ok());
    }
}
