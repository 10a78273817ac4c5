//! The Leiserson–Saxe `W` and `D` matrices.
//!
//! For a DFG `G` and nodes `u, v`:
//!
//! * `W(u, v)` — the minimum delay count over all paths `u ~> v`;
//! * `D(u, v)` — the maximum total computation time (including both
//!   endpoints) over the minimum-delay paths `u ~> v`.
//!
//! These drive the OPT min-period retiming algorithm: a clock period `c` is
//! achievable iff the difference constraints `r(u) - r(v) <= d(e)` for every
//! edge and `r(u) - r(v) <= W(u, v) - 1` for every pair with `D(u, v) > c`
//! are simultaneously satisfiable, and the candidate optimal periods are
//! exactly the entries of `D`.
//!
//! Both matrices are one all-pairs shortest-path problem over the
//! lexicographic path weight `(delay count, -time of every node but the
//! last)`, the standard reduction from the retiming paper.
//! [`WdMatrices::compute`] solves it with one single-source sweep per node,
//! which settles nodes in increasing `W`, one *delay layer* at a time:
//!
//! * a binary heap holds the nodes reached over positive-delay edges,
//!   keyed by their tentative `W`, and yields the next layer;
//! * inside a layer every edge taken is zero-delay, and the zero-delay
//!   subgraph of a well-formed DFG is a DAG, so visiting the layer in
//!   zero-delay topological rank (a bitset over ranks) reaches every
//!   same-layer predecessor of a node before the node itself.
//!
//! A node's `W` and `D` are therefore final when it is visited, and every
//! edge is relaxed once per source. That costs `O(V + E log V)` per source
//! plus one pass over `⌈V/64⌉` bitset words per delay layer, so
//! `O(V·(V + E log V))` in all for graphs with few distinct delays per
//! source, as DSP loops and their unfoldings are, instead of the `O(V³)`
//! of dense Floyd–Warshall, which survives as
//! [`WdMatrices::compute_reference`], the differential-testing oracle.
//!
//! One heap keyed by `(W, rank)` would settle nodes in the same order with
//! no bitset, but it pushes and pops every node reached over a zero-delay
//! edge. In ten alternated `perfbench` `explore_cold` pairs on a 2-vCPU
//! host it lost 16% throughput and raised the latency tail mean by 32%.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::algo::zero_delay_topo_order;
use crate::Dfg;

const INF: i64 = i64::MAX / 4;

/// Dense `W`/`D` matrices for all node pairs, stored flat with an `INF`
/// sentinel (`v` unreachable from `u`); the `Option` accessors translate
/// the sentinel at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WdMatrices {
    n: usize,
    /// Lexicographic shortest-path weight: (delay, -time-of-path-minus-dst).
    w: Vec<i64>,
    neg_t: Vec<i64>,
    times: Vec<i64>,
    /// Every reachable pair as `(D(u, v), u, v)`, sorted by `D` descending
    /// (ties by `(u, v)` ascending). The period-`c` feasibility constraints
    /// are exactly the pairs with `D > c`, so this is the *activation
    /// order*: tightening `c` activates a longer prefix of this list. The
    /// incremental retiming solver consumes it verbatim.
    activation: Vec<(i64, u32, u32)>,
}

impl WdMatrices {
    /// Compute both matrices with one delay-layer sweep per source node
    /// (see the [module docs](self)): `O(V·(V + E log V))` time on DSP loop
    /// graphs, and `O(V²)` space for the matrices and the activation order
    /// plus `O(V + E)` scratch.
    ///
    /// # Panics
    /// Panics if the zero-delay subgraph has a cycle: the matrices are only
    /// defined for a well-formed DFG (see [`Dfg::validate`]).
    pub fn compute(g: &Dfg) -> Self {
        let n = g.node_count();
        let order = zero_delay_topo_order(g).expect(
            "WdMatrices::compute requires a well-formed DFG: the zero-delay subgraph has a cycle",
        );
        let mut rank = vec![0u32; n];
        for (r, v) in order.iter().enumerate() {
            rank[v.index()] = r as u32;
        }
        // The edges leaving the node of rank `r` are
        // `arcs[first[r]..first[r + 1]]`, as (head, head's rank, delay).
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(g.edge_count());
        first.push(0);
        for &v in &order {
            arcs.extend(g.out_edges(v).iter().map(|&e| {
                let ed = g.edge(e);
                (ed.dst.0, rank[ed.dst.index()], ed.delay as i64)
            }));
            first.push(arcs.len());
        }
        let times: Vec<i64> = g.node_ids().map(|v| g.node(v).time as i64).collect();

        let mut w = vec![INF; n * n];
        let mut neg_t = vec![INF; n * n];
        let mut activation = Vec::new();
        // The ranks reached over positive-delay edges keyed by their
        // tentative `W`, and the current layer as a bitset over ranks.
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
        let words = n.div_ceil(64);
        let mut layer = vec![0u64; words];
        for (s, &sr) in rank.iter().enumerate() {
            // Row `s` holds the tentative `(W, -time)` of every node. A
            // settled entry is optimal, so no later candidate beats it.
            let w_row = &mut w[s * n..(s + 1) * n];
            let nt_row = &mut neg_t[s * n..(s + 1) * n];
            w_row[s] = 0;
            nt_row[s] = 0;
            heap.push(Reverse((0, sr)));
            while let Some(&Reverse((wl, _))) = heap.peek() {
                // The layer at `W = wl`: every node the heap holds at that
                // key, skipping entries a smaller `W` made stale.
                let mut word = words;
                while let Some(&Reverse((k, xr))) = heap.peek() {
                    if k != wl {
                        break;
                    }
                    heap.pop();
                    let xr = xr as usize;
                    if w_row[order[xr].index()] == wl {
                        layer[xr / 64] |= 1 << (xr % 64);
                        word = word.min(xr / 64);
                    }
                }
                // Visit it in topological rank. Every set bit sits at or
                // after `word`: a zero-delay edge only sets a higher rank.
                while word < words {
                    let bits = layer[word];
                    if bits == 0 {
                        word += 1;
                        continue;
                    }
                    layer[word] = bits & (bits - 1);
                    let r = word * 64 + bits.trailing_zeros() as usize;
                    let v = order[r].index();
                    let tail = nt_row[v] - times[v];
                    for &(x, xr, delay) in &arcs[first[r]..first[r + 1]] {
                        let x = x as usize;
                        let cand = (wl + delay, tail);
                        if cand < (w_row[x], nt_row[x]) {
                            if delay > 0 {
                                heap.push(Reverse((cand.0, xr)));
                            } else {
                                layer[xr as usize / 64] |= 1 << (xr % 64);
                            }
                            w_row[x] = cand.0;
                            nt_row[x] = cand.1;
                        }
                    }
                }
            }
            activation.extend(
                nt_row
                    .iter()
                    .zip(&times)
                    .enumerate()
                    .filter(|&(_, (&nt, _))| nt < INF)
                    .map(|(v, (&nt, &t))| (t - nt, s as u32, v as u32)),
            );
        }
        // The pairs went in in `(u, v)` order, and a stable sort keeps it
        // among equal `D`.
        activation.sort_by_key(|&(d, _, _)| Reverse(d));
        WdMatrices {
            n,
            w,
            neg_t,
            times,
            activation,
        }
    }

    /// The same matrices by dense Floyd–Warshall over the lexicographic
    /// pair weights, in `O(V³)` time, with the activation order from a
    /// three-key sort. This is the differential-testing oracle of
    /// [`WdMatrices::compute`], which must agree with it exactly on every
    /// well-formed DFG; only tests call it. On a DFG with a zero-delay
    /// cycle its result is meaningless.
    pub fn compute_reference(g: &Dfg) -> Self {
        let n = g.node_count();
        let mut w = vec![INF; n * n];
        let mut neg_t = vec![INF; n * n];
        let at = |i: usize, j: usize| i * n + j;
        for u in 0..n {
            w[at(u, u)] = 0;
            neg_t[at(u, u)] = 0;
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let (i, j) = (ed.src.index(), ed.dst.index());
            let cand = (ed.delay as i64, -(g.node(ed.src).time as i64));
            if cand < (w[at(i, j)], neg_t[at(i, j)]) {
                w[at(i, j)] = cand.0;
                neg_t[at(i, j)] = cand.1;
            }
        }
        for k in 0..n {
            for i in 0..n {
                if w[at(i, k)] >= INF {
                    continue;
                }
                let (wik, tik) = (w[at(i, k)], neg_t[at(i, k)]);
                for j in 0..n {
                    if w[at(k, j)] >= INF {
                        continue;
                    }
                    let cand = (wik + w[at(k, j)], tik + neg_t[at(k, j)]);
                    if cand < (w[at(i, j)], neg_t[at(i, j)]) {
                        w[at(i, j)] = cand.0;
                        neg_t[at(i, j)] = cand.1;
                    }
                }
            }
        }
        let times: Vec<i64> = g.node_ids().map(|v| g.node(v).time as i64).collect();
        let mut activation = Vec::new();
        for u in 0..n {
            for v in 0..n {
                let nt = neg_t[at(u, v)];
                if nt < INF {
                    activation.push((times[v] - nt, u as u32, v as u32));
                }
            }
        }
        activation.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        WdMatrices {
            n,
            w,
            neg_t,
            times,
            activation,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `W(u, v)`: minimum path delay count, `None` if unreachable.
    pub fn w(&self, u: usize, v: usize) -> Option<i64> {
        let x = self.w[u * self.n + v];
        (x < INF).then_some(x)
    }

    /// `D(u, v)`: maximum computation time over minimum-delay paths
    /// (both endpoints included), `None` if unreachable.
    pub fn d(&self, u: usize, v: usize) -> Option<i64> {
        let x = self.neg_t[u * self.n + v];
        (x < INF).then_some(self.times[v] - x)
    }

    /// All reachable pairs as `(D(u, v), u, v)` sorted by `D` descending —
    /// the order in which the period-`c` constraints `r(v) - r(u) <=
    /// W(u, v) - 1` activate as `c` tightens (a pair is active iff
    /// `D > c`, so every period selects a prefix of this list).
    pub fn activation_by_d(&self) -> &[(i64, u32, u32)] {
        &self.activation
    }

    /// All distinct finite `D` values, sorted ascending — the candidate
    /// clock periods for min-period retiming. Derived from the precomputed
    /// activation order, so this is a linear scan, not an `O(V^2)` re-sort.
    pub fn candidate_periods(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.activation.iter().rev().map(|&(d, _, _)| d).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, DfgBuilder, OpKind};
    use rand::{rngs::StdRng, SeedableRng};

    fn correlator() -> (Dfg, Vec<crate::NodeId>) {
        // A 4-node ring: v0 -t=1-> v1 -> v2 -> v3, back edge with 3 delays.
        let mut b = DfgBuilder::new();
        let times = [3u32, 3, 3, 3];
        let nodes: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| b.node(format!("v{i}"), t, OpKind::Add(0)))
            .collect();
        b.edge(nodes[0], nodes[1], 1);
        b.edge(nodes[1], nodes[2], 1);
        b.edge(nodes[2], nodes[3], 1);
        b.edge(nodes[3], nodes[0], 0);
        let g = b.build().unwrap();
        (g, nodes)
    }

    use crate::Dfg;

    #[test]
    fn diagonal_is_trivial_path() {
        let (g, nodes) = correlator();
        let wd = WdMatrices::compute(&g);
        for v in &nodes {
            assert_eq!(wd.w(v.index(), v.index()), Some(0));
            assert_eq!(wd.d(v.index(), v.index()), Some(g.node(*v).time as i64));
        }
    }

    #[test]
    fn ring_w_and_d() {
        let (_, nodes) = correlator();
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let (v0, v1, v3) = (nodes[0].index(), nodes[1].index(), nodes[3].index());
        // v0 -> v1 direct: 1 delay, times 3 + 3 = 6.
        assert_eq!(wd.w(v0, v1), Some(1));
        assert_eq!(wd.d(v0, v1), Some(6));
        // v3 -> v0: zero-delay edge, times 3 + 3.
        assert_eq!(wd.w(v3, v0), Some(0));
        assert_eq!(wd.d(v3, v0), Some(6));
        // v0 -> v3: 3 delays, all four nodes on the path.
        assert_eq!(wd.w(v0, v3), Some(3));
        assert_eq!(wd.d(v0, v3), Some(12));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 1);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(c.index(), a.index()), None);
        assert_eq!(wd.d(c.index(), a.index()), None);
        assert_eq!(wd.w(a.index(), c.index()), Some(1));
    }

    #[test]
    fn min_delay_path_preferred_over_shorter_time() {
        // Two paths a -> b: direct with 2 delays, and via x with 0 delays.
        // W must pick the zero-delay route even though it is "longer" in time.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(0));
        let x = b.node("X", 10, OpKind::Add(0));
        let c = b.node("B", 1, OpKind::Add(0));
        b.edge(a, c, 2);
        b.edge(a, x, 0);
        b.edge(x, c, 0);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(a.index(), c.index()), Some(0));
        assert_eq!(wd.d(a.index(), c.index()), Some(12)); // 1 + 10 + 1
    }

    #[test]
    fn tie_on_delay_takes_max_time() {
        // Two zero-delay paths a -> b; D takes the slower one.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(0));
        let x = b.node("X", 10, OpKind::Add(0));
        let y = b.node("Y", 2, OpKind::Add(0));
        let c = b.node("B", 1, OpKind::Add(0));
        b.edge(a, x, 0);
        b.edge(x, c, 0);
        b.edge(a, y, 0);
        b.edge(y, c, 0);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(a.index(), c.index()), Some(0));
        assert_eq!(wd.d(a.index(), c.index()), Some(12));
    }

    #[test]
    fn candidate_periods_sorted_unique() {
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let cands = wd.candidate_periods();
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        assert!(cands.contains(&3)); // single node
        assert!(cands.contains(&12)); // whole ring
    }

    #[test]
    fn activation_order_is_sorted_and_complete() {
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let act = wd.activation_by_d();
        // Sorted: D descending, ties broken by (u, v) ascending.
        assert!(act.windows(2).all(|w| w[0].0 >= w[1].0));
        assert!(act
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].1, w[0].2) < (w[1].1, w[1].2)));
        // Complete and consistent: exactly the reachable pairs, with the
        // matrix accessors' D values.
        let n = g.node_count();
        let reachable: Vec<(i64, u32, u32)> = (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .filter_map(|(u, v)| wd.d(u, v).map(|d| (d, u as u32, v as u32)))
            .collect();
        assert_eq!(act.len(), reachable.len());
        let mut sorted = reachable;
        sorted.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        assert_eq!(act, &sorted[..]);
    }

    #[test]
    fn d_upper_bounds_cycle_period() {
        // The cycle period (longest zero-delay path) must appear among
        // candidate periods: it is D over a zero-delay path.
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let phi = crate::algo::cycle_period(&g).unwrap() as i64;
        assert!(wd.candidate_periods().contains(&phi));
    }

    /// The search equals the Floyd–Warshall oracle exactly, `INF`
    /// sentinels and activation order included.
    fn assert_matches_reference(g: &Dfg) -> WdMatrices {
        let wd = WdMatrices::compute(g);
        assert_eq!(wd, WdMatrices::compute_reference(g));
        wd
    }

    #[test]
    fn hand_built_graphs_match_reference() {
        assert_matches_reference(&correlator().0);
        // Parallel edges, a delayed self-loop, and a zero-time node (only
        // reachable through `build_unchecked`).
        let mut b = DfgBuilder::new();
        let a = b.node("A", 2, OpKind::Add(0));
        let x = b.node("X", 0, OpKind::Add(0));
        let c = b.node("C", 5, OpKind::Add(0));
        b.edge(a, x, 0);
        b.edge(a, x, 1);
        b.edge(x, c, 0);
        b.edge(c, a, 2);
        b.edge(c, c, 1);
        assert_matches_reference(&b.build_unchecked());
    }

    #[test]
    fn random_graphs_across_bitset_words_match_reference() {
        // Sizes around the 64-rank word boundary exercise the layer
        // cursor; several delays per source exercise the heap.
        for (seed, nodes) in [(1, 1), (2, 7), (3, 63), (4, 64), (5, 65), (6, 130)] {
            let g = gen::random_dfg(
                &mut StdRng::seed_from_u64(seed),
                &gen::RandomDfgConfig {
                    nodes,
                    forward_edge_prob: 0.08,
                    back_edges: nodes / 2 + 1,
                    max_delay: 4,
                    max_time: 6,
                },
            );
            assert_matches_reference(&g);
        }
    }

    #[test]
    fn huge_time_and_delay_match_reference() {
        // One node time and one delay of 2^31: no allocation is sized by
        // `D` or by a delay, and the sums stay exact.
        let big = 1u32 << 31;
        let g = gen::ring(&[big, 1, 3, 2], &[big, 0, 1, 0]);
        let wd = assert_matches_reference(&g);
        assert_eq!(wd.w(0, 1), Some(big as i64));
        assert_eq!(wd.d(0, 1), Some(big as i64 + 1));
        assert_eq!(wd.w(1, 0), Some(1));
        assert_eq!(wd.d(1, 0), Some(big as i64 + 6));
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn zero_delay_cycle_panics() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 0);
        let _ = WdMatrices::compute(&b.build_unchecked());
    }

    #[test]
    fn empty_graph_gives_empty_matrices() {
        let g = DfgBuilder::new().build_unchecked();
        let wd = assert_matches_reference(&g);
        assert!(wd.is_empty());
        assert!(wd.activation_by_d().is_empty());
        assert!(wd.candidate_periods().is_empty());
    }
}
