//! Iteration bound `B(G) = max_{cycles C} T(C) / D(C)`, computed exactly.
//!
//! Every dependence cycle imposes a lower bound `T(C)/D(C)` on the average
//! time per iteration; the maximum over all cycles is the *iteration bound*.
//! A schedule is rate-optimal when its iteration period equals `B(G)`.
//!
//! The maximum cycle ratio is found by cycle-ratio iteration. For a ratio
//! `lambda = p/q`, some cycle has ratio `> lambda` iff the graph with edge
//! weights `w(e) = q * t(src(e)) - p * d(e)` has a positive cycle (every
//! cycle carries at least one delay in a well-formed DFG, so `D(C)` is
//! never zero). Each step runs Bellman–Ford longest-path relaxation from
//! an all-zero start and watches the predecessor graph: a cycle there has
//! positive weight, so its exact ratio `T(C)/D(C)` exceeds `lambda`, and
//! `lambda` becomes that ratio. When no positive cycle remains, `lambda`
//! is the largest ratio of any cycle. Each step raises `lambda` to the
//! ratio of a cycle, and there are finitely many, so the iteration ends;
//! on DSP loops it takes a few steps, against the dozens of probes a
//! bisection on the rationals needs to pin the same value.
//!
//! A cycle of the predecessor graph is positive: when the edge `u -> v`
//! that closes it was relaxed, `v`'s label rose strictly above its
//! predecessor's label plus the edge weight it held before, while every
//! other edge of the cycle had `label(y) <= label(x) + w(x, y)` (labels
//! only rise after a predecessor is set). Summing around the cycle gives
//! `0 < sum of w`.

use crate::{Dfg, EdgeId, Ratio};

/// No predecessor edge.
const NONE: u32 = u32::MAX;

/// The buffers of the iteration: labels, predecessor edges, and the
/// stamps of the predecessor-graph walk.
struct Search<'g> {
    g: &'g Dfg,
    dist: Vec<i128>,
    pred: Vec<u32>,
    stamp: Vec<u32>,
}

impl Search<'_> {
    /// A cycle whose ratio `T(C)/D(C)` exceeds `lambda`, as that ratio, or
    /// `None` when no cycle does.
    ///
    /// # Panics
    /// Panics if the cycle it finds has no delay: a zero-delay cycle.
    fn cycle_above(&mut self, lambda: Ratio) -> Option<Ratio> {
        let g = self.g;
        let n = g.node_count();
        let (p, q) = (lambda.num() as i128, lambda.den() as i128);
        self.dist.clear();
        self.dist.resize(n, 0);
        self.pred.clear();
        self.pred.resize(n, NONE);
        // Relaxation stops changing within n rounds unless a positive
        // cycle exists, and then the predecessor graph holds one by round
        // n + 1 at the latest; it is checked after every round.
        for _ in 0..=n {
            let mut changed = false;
            for e in g.edge_ids() {
                let ed = g.edge(e);
                let (u, v) = (ed.src.index(), ed.dst.index());
                let cand = self.dist[u] + q * g.node(ed.src).time as i128 - p * ed.delay as i128;
                if cand > self.dist[v] {
                    self.dist[v] = cand;
                    self.pred[v] = e.index() as u32;
                    changed = true;
                }
            }
            if !changed {
                return None;
            }
            if let Some(ratio) = self.predecessor_cycle() {
                return Some(ratio);
            }
        }
        unreachable!("Bellman–Ford relaxed past n + 1 rounds without a predecessor cycle")
    }

    /// The ratio of a cycle of the predecessor graph, if it has one. Each
    /// node starts at most one walk, and a walk stops at a node an earlier
    /// walk visited, so the check costs `O(V)`.
    fn predecessor_cycle(&mut self) -> Option<Ratio> {
        let g = self.g;
        self.stamp.clear();
        self.stamp.resize(g.node_count(), NONE);
        for start in 0..g.node_count() {
            let mut v = start;
            while self.stamp[v] == NONE {
                self.stamp[v] = start as u32;
                match self.pred[v] {
                    NONE => break,
                    e => v = g.edge(EdgeId(e)).src.index(),
                }
            }
            if self.stamp[v] == start as u32 && self.pred[v] != NONE {
                return Some(self.ratio_of_cycle_at(v));
            }
        }
        None
    }

    /// `T(C)/D(C)` of the predecessor cycle through `v`.
    fn ratio_of_cycle_at(&self, v: usize) -> Ratio {
        let g = self.g;
        let (mut time, mut delays, mut x) = (0i64, 0i64, v);
        loop {
            let ed = g.edge(EdgeId(self.pred[x]));
            time += g.node(ed.src).time as i64;
            delays += ed.delay as i64;
            x = ed.src.index();
            if x == v {
                break;
            }
        }
        assert!(
            delays > 0,
            "iteration_bound requires a well-formed DFG: a zero-delay cycle"
        );
        Ratio::new(time, delays)
    }
}

/// Compute the iteration bound `B(G)` exactly.
///
/// Returns `None` for an acyclic graph (no cycle constrains the rate; the
/// iteration bound is conventionally zero / absent).
///
/// # Panics
/// Panics if the graph contains a zero-delay cycle (malformed; validate
/// first).
pub fn iteration_bound(g: &Dfg) -> Option<Ratio> {
    let mut search = Search {
        g,
        dist: Vec::new(),
        pred: Vec::new(),
        stamp: Vec::new(),
    };
    // lambda = 0: a positive cycle exists iff the graph has any cycle at all
    // (all computation times are >= 1).
    let mut bound = search.cycle_above(Ratio::integer(0))?;
    while let Some(higher) = search.cycle_above(bound) {
        debug_assert!(higher > bound, "{higher} does not exceed {bound}");
        bound = higher;
    }
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    /// Brute-force iteration bound by enumerating all simple cycles (DFS
    /// from each start node, only visiting nodes >= start to avoid
    /// duplicates). Test oracle for small graphs.
    fn brute_force_bound(g: &Dfg) -> Option<Ratio> {
        use crate::NodeId;
        let mut best: Option<Ratio> = None;
        let n = g.node_count();
        // stack of (node, time-so-far, delay-so-far)
        fn dfs(
            g: &Dfg,
            start: NodeId,
            v: NodeId,
            t_acc: i64,
            d_acc: i64,
            visited: &mut Vec<bool>,
            best: &mut Option<Ratio>,
        ) {
            for &e in g.out_edges(v) {
                let ed = g.edge(e);
                let w = ed.dst;
                let t2 = t_acc + g.node(v).time as i64;
                let d2 = d_acc + ed.delay as i64;
                if w == start {
                    if d2 > 0 {
                        let r = Ratio::new(t2, d2);
                        if best.is_none_or(|b| r > b) {
                            *best = Some(r);
                        }
                    }
                } else if w > start && !visited[w.index()] {
                    visited[w.index()] = true;
                    dfs(g, start, w, t2, d2, visited, best);
                    visited[w.index()] = false;
                }
            }
        }
        for start in g.node_ids() {
            let mut visited = vec![false; n];
            visited[start.index()] = true;
            dfs(g, start, start, 0, 0, &mut visited, &mut best);
        }
        best
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 1);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), None);
    }

    #[test]
    fn two_node_cycle() {
        // T = 2, D = 2 => B = 1.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::integer(1)));
    }

    #[test]
    fn fractional_bound_27_over_2() {
        // A cycle of 5 nodes with times summing to 27 over 2 delays — the
        // reconstructed Figure 8 shape: B = 27/2 = 13.5.
        let mut b = DfgBuilder::new();
        let times = [1u32, 4, 5, 7, 10];
        let nodes: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| b.node(format!("n{i}"), t, OpKind::Add(0)))
            .collect();
        for i in 0..5 {
            let d = if i == 4 || i == 2 { 1 } else { 0 };
            b.edge(nodes[i], nodes[(i + 1) % 5], d);
        }
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(27, 2)));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle 1: T=2, D=2 (ratio 1). Cycle 2: T=9, D=3 (ratio 3).
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        let x = b.node("X", 4, OpKind::Add(0));
        let y = b.node("Y", 5, OpKind::Add(0));
        b.edge(x, y, 1);
        b.edge(y, x, 2);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::integer(3)));
    }

    #[test]
    fn self_loop_bound() {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 7, OpKind::Add(0));
        b.edge(a, a, 3);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(7, 3)));
    }

    /// A random graph of `n` nodes with times in `1..=8`: random forward
    /// zero-delay edges, then `min_extra..=n + more` delayed edges,
    /// forward only when `acyclic`.
    fn random_graph(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        (min_extra, more): (usize, usize),
        acyclic: bool,
    ) -> Dfg {
        use rand::RngExt;
        let mut b = DfgBuilder::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| b.node(format!("n{i}"), rng.random_range(1..9u32), OpKind::Add(0)))
            .collect();
        // Random zero-delay DAG edges (forward) + random delayed edges.
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.random_bool(0.4) {
                    b.edge(nodes[i], nodes[j], 0);
                }
            }
        }
        let extra = rng.random_range(min_extra..=n + more);
        for _ in 0..extra {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            let (i, j) = if acyclic && i > j { (j, i) } else { (i, j) };
            if !(acyclic && i == j) {
                b.edge(nodes[i], nodes[j], rng.random_range(1..4u32));
            }
        }
        b.build_unchecked()
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for case in 0..60 {
            let n = rng.random_range(2..7usize);
            let g = random_graph(&mut rng, n, (1, 0), false);
            if g.validate().is_err() {
                continue;
            }
            assert_eq!(
                iteration_bound(&g),
                brute_force_bound(&g),
                "mismatch on case {case}"
            );
        }
        // 480 more, up to nine nodes with times up to 8: every fourth one
        // is acyclic by construction, and so are those whose delayed edges
        // all point forward (273 cyclic and 207 acyclic in all).
        let mut rng = StdRng::seed_from_u64(0xB0_17D);
        let (mut cyclic, mut acyclic) = (0, 0);
        for case in 0..480 {
            let n = rng.random_range(1..10usize);
            let g = random_graph(&mut rng, n, (0, 2), case % 4 == 3);
            let expected = brute_force_bound(&g);
            assert_eq!(iteration_bound(&g), expected, "mismatch on case {case}");
            match expected {
                Some(_) => cyclic += 1,
                None => acyclic += 1,
            }
        }
        assert!(
            cyclic >= 250 && acyclic >= 150,
            "{cyclic} cyclic, {acyclic} acyclic"
        );
    }
}
