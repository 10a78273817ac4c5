//! Cycle period `Phi(G)`: the maximum total computation time along a
//! zero-delay path.
//!
//! The cycle period equals the minimum schedule length of one iteration when
//! resources are unconstrained, and is the quantity min-period retiming
//! minimizes.

use crate::{Dfg, NodeId};

/// For every node `v`, the maximum total computation time of a zero-delay
/// path *ending at* `v` (inclusive of `t(v)`), the `Delta(v)` of
/// Leiserson–Saxe.
///
/// Returns `None` if the zero-delay subgraph is cyclic.
fn zero_delay_longest_path_to(g: &Dfg) -> Option<Vec<u64>> {
    let order = super::topo::zero_delay_topo_order(g)?;
    let mut delta = vec![0u64; g.node_count()];
    for &v in &order {
        let mut best = 0u64;
        for &e in g.in_edges(v) {
            let ed = g.edge(e);
            if ed.delay == 0 {
                best = best.max(delta[ed.src.index()]);
            }
        }
        delta[v.index()] = best + g.node(v).time as u64;
    }
    Some(delta)
}

/// The cycle period `Phi(G) = max_v Delta(v)`.
///
/// Returns `None` for a malformed graph (zero-delay cycle) and `Some(0)`
/// only for the empty graph.
pub fn cycle_period(g: &Dfg) -> Option<u64> {
    let delta = zero_delay_longest_path_to(g)?;
    Some(delta.into_iter().max().unwrap_or(0))
}

/// The set of nodes on some critical (longest zero-delay) path.
///
/// A node is *critical* if it lies on a zero-delay path of total time
/// `Phi(G)`. Used by rotation scheduling diagnostics and tests.
pub fn critical_nodes(g: &Dfg) -> Option<Vec<NodeId>> {
    let delta = zero_delay_longest_path_to(g)?;
    let phi = delta.iter().copied().max().unwrap_or(0);
    // Longest zero-delay path *from* v (inclusive): compute on the reversed
    // subgraph.
    let order = super::topo::zero_delay_topo_order(g)?;
    let mut from = vec![0u64; g.node_count()];
    for &v in order.iter().rev() {
        let mut best = 0u64;
        for &e in g.out_edges(v) {
            let ed = g.edge(e);
            if ed.delay == 0 {
                best = best.max(from[ed.dst.index()]);
            }
        }
        from[v.index()] = best + g.node(v).time as u64;
    }
    Some(
        g.node_ids()
            .filter(|v| delta[v.index()] + from[v.index()] - g.node(*v).time as u64 == phi)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    #[test]
    fn single_node() {
        let mut b = DfgBuilder::new();
        b.node("A", 3, OpKind::Add(0));
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(3));
    }

    #[test]
    fn figure1a_period_two() {
        // A -> B zero-delay, B -> A two delays: Phi = t(A)+t(B) = 2.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(2));
    }

    #[test]
    fn figure1b_period_one() {
        // Retimed Figure 1(b): both edges carry delays; Phi = 1.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 1);
        b.edge(bb, a, 1);
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(1));
    }

    #[test]
    fn non_unit_times_accumulate() {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 2, OpKind::Add(0));
        let c = b.node("B", 5, OpKind::Add(0));
        let d = b.node("C", 4, OpKind::Add(0));
        b.edge(a, c, 0);
        b.edge(c, d, 0);
        b.edge(d, a, 1);
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(11));
    }

    #[test]
    fn delayed_edges_break_paths() {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 10, OpKind::Add(0));
        let c = b.node("B", 10, OpKind::Add(0));
        b.edge(a, c, 1);
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(10));
    }

    #[test]
    fn diamond_takes_longer_branch() {
        let mut b = DfgBuilder::new();
        let s = b.node("S", 1, OpKind::Add(0));
        let l = b.node("L", 7, OpKind::Add(0));
        let r = b.node("R", 2, OpKind::Add(0));
        let t = b.node("T", 1, OpKind::Add(0));
        b.edge(s, l, 0);
        b.edge(s, r, 0);
        b.edge(l, t, 0);
        b.edge(r, t, 0);
        let g = b.build().unwrap();
        assert_eq!(cycle_period(&g), Some(9));
    }

    #[test]
    fn critical_nodes_on_longest_path() {
        let mut b = DfgBuilder::new();
        let s = b.node("S", 1, OpKind::Add(0));
        let l = b.node("L", 7, OpKind::Add(0));
        let r = b.node("R", 2, OpKind::Add(0));
        let t = b.node("T", 1, OpKind::Add(0));
        b.edge(s, l, 0);
        b.edge(s, r, 0);
        b.edge(l, t, 0);
        b.edge(r, t, 0);
        let g = b.build().unwrap();
        let crit = critical_nodes(&g).unwrap();
        assert!(crit.contains(&s) && crit.contains(&l) && crit.contains(&t));
        assert!(!crit.contains(&r));
    }

    #[test]
    fn malformed_graph_yields_none() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        b.edge(a, a, 0);
        let g = b.build_unchecked();
        assert_eq!(cycle_period(&g), None);
        assert!(critical_nodes(&g).is_none());
    }
}
