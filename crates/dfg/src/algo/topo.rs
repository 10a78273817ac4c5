//! Topological ordering of the zero-delay subgraph.
//!
//! A legal static schedule of one iteration must respect every intra-
//! iteration (zero-delay) dependence, so the zero-delay subgraph must be a
//! DAG. Its topological order is the evaluation order used by the reference
//! executor and by the schedulers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Dfg, EdgeId, NodeId};

/// Kahn's algorithm restricted to zero-delay edges.
///
/// Ready nodes are drained smallest-id-first, so the order is deterministic
/// and coincides with insertion order whenever dependencies allow — code
/// generators rely on this to reproduce the paper's instruction listings.
///
/// Returns `None` if the zero-delay subgraph contains a cycle (the DFG is
/// then malformed: no legal schedule exists).
pub fn zero_delay_topo_order(g: &Dfg) -> Option<Vec<NodeId>> {
    let mut order = Vec::with_capacity(g.node_count());
    let zero = |e: EdgeId| g.edge(e).delay == 0;
    zero_delay_order_into(g, zero, &mut TopoScratch::default(), &mut order).then_some(order)
}

/// The reusable buffers of [`zero_delay_order_into`]: in-degrees and the
/// ready heap. They carry capacity only; every call resets them.
#[derive(Debug, Default, Clone)]
pub struct TopoScratch {
    indeg: Vec<u32>,
    ready: BinaryHeap<Reverse<u32>>,
}

/// [`zero_delay_topo_order`] with `zero(e)` deciding which edges count as
/// zero-delay, written to `order` (cleared first) with `scratch`'s
/// buffers. With `zero(e)` testing a retiming's delay `d_r(e) = 0`, it
/// orders the retimed graph exactly as `zero_delay_topo_order` orders a
/// built copy of it, without building one. Returns `false` on a cycle of
/// such edges, leaving a partial order.
pub fn zero_delay_order_into(
    g: &Dfg,
    zero: impl Fn(EdgeId) -> bool,
    scratch: &mut TopoScratch,
    order: &mut Vec<NodeId>,
) -> bool {
    let n = g.node_count();
    let TopoScratch { indeg, ready } = scratch;
    indeg.clear();
    indeg.resize(n, 0);
    for e in g.edge_ids() {
        if zero(e) {
            indeg[g.edge(e).dst.index()] += 1;
        }
    }
    ready.clear();
    ready.extend(
        g.node_ids()
            .filter(|v| indeg[v.index()] == 0)
            .map(|v| Reverse(v.0)),
    );
    order.clear();
    while let Some(Reverse(v)) = ready.pop() {
        let v = NodeId(v);
        order.push(v);
        for &e in g.out_edges(v) {
            if zero(e) {
                let dst = g.edge(e).dst;
                let d = &mut indeg[dst.index()];
                *d -= 1;
                if *d == 0 {
                    ready.push(Reverse(dst.0));
                }
            }
        }
    }
    order.len() == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    #[test]
    fn chain_orders_correctly() {
        let mut b = DfgBuilder::new();
        let c = b.unit("C");
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, c, 0);
        let g = b.build_unchecked();
        let order = zero_delay_topo_order(&g).unwrap();
        let pos = |v| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(a) < pos(bb));
        assert!(pos(bb) < pos(c));
    }

    #[test]
    fn delayed_back_edge_does_not_block() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 1); // inter-iteration: not a zero-delay cycle
        let g = b.build_unchecked();
        assert!(zero_delay_topo_order(&g).is_some());
    }

    #[test]
    fn zero_delay_cycle_detected() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 0);
        let g = b.build_unchecked();
        assert!(zero_delay_topo_order(&g).is_none());
    }

    #[test]
    fn empty_graph_has_empty_order() {
        let g = DfgBuilder::new().build_unchecked();
        assert_eq!(zero_delay_topo_order(&g), Some(vec![]));
    }

    #[test]
    fn parallel_zero_delay_edges_handled() {
        // Multigraph: two zero-delay edges A -> B must both be drained.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(a, bb, 0);
        let g = b.build_unchecked();
        let order = zero_delay_topo_order(&g).unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn operation_kind_is_irrelevant_to_order() {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 3, OpKind::Mul(0));
        let c = b.node("C", 2, OpKind::Input(0));
        b.edge(c, a, 0);
        let g = b.build_unchecked();
        let order = zero_delay_topo_order(&g).unwrap();
        assert_eq!(order, vec![c, a]);
    }
}
