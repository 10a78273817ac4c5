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
    fn shared_edge_list_is_the_built_unfoldings_edges(seed in any::<u64>(), nodes in 1..10usize) {
        // `unfolded_edges` lists the edges the solver and compaction read
        // without building the unfolding. It must be `unfold`'s edges in
        // id order, and each entry must follow the rule the residue-form
        // W/D sweeps by: the edge from copy `i` of `u` over an original
        // edge of `d` delays reaches copy `(i + d) mod f` of `v` after
        // `⌊(i + d) / f⌋` delays.
        let g = graph_from(seed, nodes);
        for f in 1..=6 {
            let u = unfold(&g, f).graph;
            let built: Vec<(usize, usize, u32)> = u
                .edge_ids()
                .map(|e| (u.edge(e).src.index(), u.edge(e).dst.index(), u.edge(e).delay))
                .collect();
            let listed: Vec<(usize, usize, u32)> = algo::unfolded_edges(&g, f).collect();
            prop_assert_eq!(&listed, &built, "f = {}", f);
            for (k, &(src, dst, delay)) in listed.iter().enumerate() {
                let e = g.edge(g.edge_ids().nth(k / f).unwrap());
                let (i, d) = (src % f, e.delay as usize);
                prop_assert_eq!((src / f, dst / f), (e.src.index(), e.dst.index()));
                prop_assert_eq!(dst % f, (i + d) % f, "f = {}, edge {}", f, k);
                prop_assert_eq!(delay as usize, (i + d) / f, "f = {}, edge {}", f, k);
            }
        }
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
        f in 1..=6usize,
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
        // Both the sweep over the built unfolding and the residue form
        // built from `g` equal the oracle on the built unfolding.
        let u = unfold(&g, f).graph;
        let reference = algo::WdMatrices::compute_reference(&u);
        prop_assert_eq!(algo::WdMatrices::compute(&u).first_mismatch(&reference), None);
        prop_assert_eq!(
            algo::WdMatrices::compute_unfolded(&g, f).first_mismatch(&reference),
            None
        );
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

/// The residue form against Floyd–Warshall on the built unfolding, on
/// graphs the random generator does not make: parallel edges, a delayed
/// self-loop and a zero-time node; a time and a delay of 2^31; and
/// unfoldings whose rank count sits around the 64-bit word boundary of
/// the sweep's layer bitset.
#[test]
fn residue_wd_matches_reference_on_edge_cases() {
    use cred_dfg::{DfgBuilder, OpKind};
    let mut b = DfgBuilder::new();
    let a = b.node("A", 2, OpKind::Add(0));
    let x = b.node("X", 0, OpKind::Add(0));
    let c = b.node("C", 5, OpKind::Add(0));
    b.edge(a, x, 0);
    b.edge(a, x, 1);
    b.edge(x, c, 0);
    b.edge(c, a, 2);
    b.edge(c, c, 1);
    let big = 1u32 << 31;
    let mut graphs = vec![
        (b.build_unchecked(), 1..=5),
        (gen::ring(&[big, 1, 3, 2], &[big, 0, 1, 0]), 1..=3),
    ];
    // At f = 2, 3 and 5 these fill exactly 64 ranks, leave one free, and
    // spill one rank into a second word.
    for (seed, nodes) in [(1, 32), (2, 13), (3, 21)] {
        graphs.push((graph_from(seed, nodes), 1..=5));
    }
    for (g, factors) in &graphs {
        for f in factors.clone() {
            let reference = algo::WdMatrices::compute_reference(&unfold(g, f).graph);
            let residue = algo::WdMatrices::compute_unfolded(g, f);
            assert_eq!(residue.factor(), f);
            assert_eq!(residue.first_mismatch(&reference), None, "f = {f}");
        }
    }
}
