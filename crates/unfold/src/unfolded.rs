//! The unfolding transformation with copy/origin provenance.

use cred_dfg::algo::unfolded_edges;
use cred_dfg::{Dfg, NodeId};

/// An unfolded DFG together with the provenance mapping back to the
/// original graph.
///
/// Copy `j` (`0 <= j < f`) of original node `u` computes original iteration
/// `f*(k-1) + j + 1` at new-loop iteration `k`. Node ids are laid out as
/// `orig_index * f + j`.
#[derive(Debug, Clone)]
pub struct Unfolded {
    /// The unfolded graph `G_f`.
    pub graph: Dfg,
    /// The unfolding factor `f >= 1`.
    pub factor: usize,
    /// `|V|` of the original graph.
    pub original_nodes: usize,
}

impl Unfolded {
    /// The id of copy `j` of original node `u`.
    #[inline]
    pub fn copy_id(&self, u: NodeId, j: usize) -> NodeId {
        debug_assert!(j < self.factor);
        NodeId((u.index() * self.factor + j) as u32)
    }

    /// The original node and copy index of an unfolded node.
    #[inline]
    pub fn origin(&self, v: NodeId) -> (NodeId, usize) {
        (
            NodeId((v.index() / self.factor) as u32),
            v.index() % self.factor,
        )
    }

    /// Iterate the copies of original node `u`.
    pub fn copies(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.factor).map(move |j| self.copy_id(u, j))
    }
}

/// Unfold `g` by factor `f`.
///
/// # Panics
/// Panics if `f == 0`.
pub fn unfold(g: &Dfg, f: usize) -> Unfolded {
    assert!(f >= 1, "unfolding factor must be at least 1");
    let mut out = Dfg::new();
    for u in g.node_ids() {
        let nd = g.node(u);
        for j in 0..f {
            out.add_node(format!("{}.{j}", nd.name), nd.time, nd.op);
        }
    }
    // Copy j of v reads u produced d original iterations earlier.
    for (src, dst, delay) in unfolded_edges(g, f) {
        out.add_edge(NodeId(src as u32), NodeId(dst as u32), delay);
    }
    Unfolded {
        graph: out,
        factor: f,
        original_nodes: g.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{algo, gen, DfgBuilder, OpKind, Ratio};

    fn simple_loop() -> Dfg {
        // Figure 4: A[i] = B[i-3]*3; B[i] = A[i]+7; C[i] = B[i]*2.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Mul(3));
        let bb = b.node("B", 1, OpKind::Add(7));
        let c = b.node("C", 1, OpKind::Mul(2));
        b.edge(a, bb, 0);
        b.edge(bb, c, 0);
        b.edge(bb, a, 3);
        b.build().unwrap()
    }

    #[test]
    fn factor_one_is_isomorphic() {
        let g = simple_loop();
        let u = unfold(&g, 1);
        assert_eq!(u.graph.node_count(), g.node_count());
        assert_eq!(u.graph.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            assert_eq!(u.graph.edge(e).delay, g.edge(e).delay);
        }
    }

    #[test]
    fn node_and_edge_counts_scale_by_f() {
        let g = simple_loop();
        for f in 2..=5 {
            let u = unfold(&g, f);
            assert_eq!(u.graph.node_count(), g.node_count() * f);
            assert_eq!(u.graph.edge_count(), g.edge_count() * f);
        }
    }

    #[test]
    fn delay_conservation_per_original_edge() {
        let g = simple_loop();
        for f in 1..=6 {
            let u = unfold(&g, f);
            // Edges are emitted per original edge in copy order, so chunk by f.
            let delays: Vec<u64> = u
                .graph
                .edge_ids()
                .map(|e| u.graph.edge(e).delay as u64)
                .collect();
            for (orig_e, chunk) in g.edge_ids().zip(delays.chunks(f)) {
                assert_eq!(
                    chunk.iter().sum::<u64>(),
                    g.edge(orig_e).delay as u64,
                    "delays of the {f} copies must sum to the original"
                );
            }
        }
    }

    #[test]
    fn provenance_roundtrip() {
        let g = simple_loop();
        let u = unfold(&g, 3);
        for orig in g.node_ids() {
            for j in 0..3 {
                let c = u.copy_id(orig, j);
                assert_eq!(u.origin(c), (orig, j));
                assert_eq!(u.graph.node(c).name, format!("{}.{j}", g.node(orig).name));
            }
        }
    }

    #[test]
    fn zero_delay_edges_stay_within_copy() {
        // d = 0: copy j feeds copy j with delay 0.
        let g = simple_loop();
        let u = unfold(&g, 3);
        let a = g.find_node("A").unwrap();
        let b = g.find_node("B").unwrap();
        for j in 0..3 {
            let bj = u.copy_id(b, j);
            let has = u
                .graph
                .in_edges(bj)
                .iter()
                .any(|&e| u.graph.edge(e).src == u.copy_id(a, j) && u.graph.edge(e).delay == 0);
            assert!(has, "A.{j} -> B.{j} zero-delay expected");
        }
    }

    #[test]
    fn delay_three_with_factor_three_wraps_once() {
        // B -> A delay 3, f = 3: A_j reads B_j with delay 1 for every j.
        let g = simple_loop();
        let u = unfold(&g, 3);
        let a = g.find_node("A").unwrap();
        let b = g.find_node("B").unwrap();
        for j in 0..3 {
            let aj = u.copy_id(a, j);
            let has = u
                .graph
                .in_edges(aj)
                .iter()
                .any(|&e| u.graph.edge(e).src == u.copy_id(b, j) && u.graph.edge(e).delay == 1);
            assert!(has);
        }
    }

    #[test]
    fn iteration_bound_scales_by_f() {
        // B(G_f) = f * B(G): the per-new-iteration bound covers f original
        // iterations.
        let g = gen::ring(&[1, 4, 5, 7, 10], &[0, 0, 1, 0, 1]); // B = 27/2
        for f in 1..=4usize {
            let u = unfold(&g, f);
            assert_eq!(
                algo::iteration_bound(&u.graph),
                Some(Ratio::new(27 * f as i64, 2)),
                "factor {f}"
            );
        }
    }

    #[test]
    fn unfolded_graph_is_well_formed() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 7,
                    max_delay: 3,
                    ..Default::default()
                },
            );
            for f in 1..=4 {
                let u = unfold(&g, f);
                assert!(u.graph.validate().is_ok(), "factor {f}");
            }
        }
    }

    #[test]
    fn unfolded_execution_matches_original() {
        // Semantics check: copy j of node v at new iteration k computes the
        // same value as the original node at iteration f*(k-1)+j+1.
        let g = simple_loop();
        let n_orig = 12;
        let f = 3;
        let reference = g.reference_execution(n_orig);
        let u = unfold(&g, f);
        let unf_vals = u.graph.reference_execution(n_orig / f);
        for v in g.node_ids() {
            for j in 0..f {
                let cv = u.copy_id(v, j);
                #[allow(clippy::needless_range_loop)] // index used in the formula below
                for k in 0..n_orig / f {
                    let orig_iter = f * k + j; // 0-based
                    assert_eq!(
                        unf_vals[cv.index()][k],
                        reference[v.index()][orig_iter],
                        "node {} copy {j} iteration {k}",
                        g.node(v).name
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn factor_zero_panics() {
        let g = simple_loop();
        let _ = unfold(&g, 0);
    }
}
