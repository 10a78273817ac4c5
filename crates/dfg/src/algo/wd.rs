//! The Leiserson–Saxe `W` and `D` matrices, of a graph or of its
//! `f`-unfolding.
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
//! [`WdMatrices::compute_unfolded`] solves it with one single-source sweep
//! per source, which settles nodes in increasing `W`, one *delay layer* at
//! a time:
//!
//! * a binary heap holds the nodes reached over positive-delay edges,
//!   keyed by their tentative `W`, and yields the next layer;
//! * inside a layer every edge taken is zero-delay, and the zero-delay
//!   subgraph of a well-formed DFG is a DAG, so visiting the layer in
//!   zero-delay topological rank (a bitset over ranks) reaches every
//!   same-layer predecessor of a node before the node itself.
//!
//! A node's `W` and `D` are therefore final when it is visited, and every
//! edge is relaxed once per source.
//!
//! ## Residue form
//!
//! The `f`-unfolding `G_f` has `fV` nodes, copy `j` of original node `v`
//! at id `v * f + j`, and each original edge `u -> v` of `d` delays
//! becomes the `f` edges `u_i -> v_((i + d) mod f)` of `⌊(i + d) / f⌋`
//! delays. A path from `u_i` therefore ends in copy `(i + d_path) mod f`
//! with `⌊(i + d_path) / f⌋` delays, and with `r = (j - i) mod f`
//!
//! ```text
//! W_f(u_i, v_j) = W_f(u_0, v_r) + [j < i]        D_f(u_i, v_j) = D_f(u_0, v_r)
//! ```
//!
//! Only the `f·V²` entries of the copy-0 rows are distinct, so the matrices
//! keep just those rows: one sweep per original node over the unfolding,
//! whose arcs are derived from the original graph's edges, so the symmetry
//! holds by construction. That costs `O(f·V·(V + E log(fV)))` time on graphs with
//! few distinct delays per source, as DSP loops are, plus one pass over
//! `⌈fV/64⌉` bitset words per delay layer, and `O(f·V²)` space for the
//! rows. [`WdMatrices::compute`] is the `f = 1` case. The accessors take
//! unfolded node ids and relabel internally. The matrices keep no
//! activation order: [`WdMatrices::activation_from`] sorts the entries at
//! or above a floor on request. The retiming solver asks only for those
//! at or above its closed-walk bound, since no period it may probe
//! activates the others.
//! [`unfolded_edges`] lists the same edges in the order `cred_unfold::unfold`
//! numbers them, for everything else that reads the unfolding's edges
//! without building it: `unfold` itself, the retiming solver's legality
//! edges and compaction.
//! Dense Floyd–Warshall over the whole graph, `O(V³)` for a `V`-node
//! graph, survives as [`WdMatrices::compute_reference`], the
//! differential-testing oracle.
//!
//! One heap keyed by `(W, rank)` would settle nodes in the same order with
//! no bitset, but it pushes and pops every node reached over a zero-delay
//! edge. In ten alternated `perfbench` `explore_cold` pairs on a 2-vCPU
//! host it lost 16% throughput and raised the latency tail mean by 32%.
//!
//! A caller computing the matrices of many factors of one graph keeps one
//! value and one [`WdScratch`] and calls
//! [`WdMatrices::recompute_unfolded`], which allocates nothing once both
//! have held the largest unfolding; [`WdMatrices::compute_unfolded`] is the
//! allocating form of the same code.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::algo::{zero_delay_order_into, TopoScratch};
use crate::{Dfg, NodeId};

const INF: i64 = i64::MAX / 4;

/// The buffers of one delay-layer sweep: the zero-delay order and ranks,
/// the unfolding's arcs, the heap and the layer bitset. They carry
/// capacity only; [`WdMatrices::recompute_unfolded`] resets every one it
/// reads, so a sweep cut off half-way leaves nothing for the next.
#[derive(Debug, Default, Clone)]
pub struct WdScratch {
    topo: TopoScratch,
    order: Vec<NodeId>,
    orig_rank: Vec<usize>,
    node: Vec<usize>,
    first: Vec<usize>,
    arcs: Vec<(u32, u32, i64)>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    layer: Vec<u64>,
}

impl WdScratch {
    /// Buffers that hold the sweep of the `f`-unfolding of `g`, or of any
    /// smaller one, without growing (the heap holds what one source's
    /// sweep pushes: the source, then at most one entry per positive-delay
    /// arc).
    pub fn with_capacity_for(g: &Dfg, f: usize) -> Self {
        let (v, n) = (g.node_count(), g.node_count() * f);
        WdScratch {
            topo: TopoScratch::default(),
            order: Vec::with_capacity(v),
            orig_rank: Vec::with_capacity(v),
            node: Vec::with_capacity(n),
            first: Vec::with_capacity(n + 1),
            arcs: Vec::with_capacity(g.edge_count() * f),
            heap: BinaryHeap::with_capacity(g.edge_count() * f + 1),
            layer: Vec::with_capacity(n.div_ceil(64)),
        }
    }
}

/// The edges of the `f`-unfolding of `g` as `(src, dst, delay)` over its
/// node ids (copy `j` of node `v` at `v * f + j`), in the order
/// `cred_unfold::unfold` gives them ids: by original edge, then by the
/// copy `j` of the destination. Copy `j` of `v` reads copy `i = (j - d)
/// mod f` of `u` over an original edge `u -> v` of `d` delays, `(d + i -
/// j) / f` delays back: the edge from `u_i` reaches copy `(i + d) mod f`
/// after `⌊(i + d) / f⌋` delays, the rule [`WdMatrices::compute_unfolded`]
/// sweeps by. With `d = q·f + s`, `s < f`, that is `i = j + f - s` and
/// `q + 1` delays for `j < s`, and `i = j - s` and `q` delays otherwise.
///
/// # Panics
/// Panics if `f == 0`.
pub fn unfolded_edges(g: &Dfg, f: usize) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
    assert!(f >= 1, "unfolding factor must be at least 1");
    g.edge_ids().flat_map(move |e| {
        let ed = g.edge(e);
        let (q, s) = (ed.delay / f as u32, ed.delay as usize % f);
        let (u, v) = (ed.src.index() * f, ed.dst.index() * f);
        (0..f).map(move |j| {
            let wrap = (j < s) as usize;
            (u + j + wrap * f - s, v + j, q + wrap as u32)
        })
    })
}

/// `W`/`D` matrices for all node pairs of a graph or of its `f`-unfolding,
/// in residue form (see the [module docs](self)): row `u` holds the
/// entries from copy 0 of original node `u` to every node of the
/// unfolding, stored flat with an `INF` sentinel (unreachable). The
/// `Option` accessors relabel a pair of unfolded ids onto its row and
/// translate the sentinel. The matrices and nothing else: the activation
/// order is built on request ([`WdMatrices::activation_from`]).
///
/// Two values can describe the same matrices in different forms, so there
/// is no derived equality: compare them with
/// [`WdMatrices::first_mismatch`].
#[derive(Debug, Clone)]
pub struct WdMatrices {
    /// Nodes of the original graph: the number of rows.
    rows: usize,
    /// Unfolding factor `f`: each row has `rows * f` columns.
    f: usize,
    /// Copy index `a mod f` of every node id `a` of the unfolding.
    copy: Vec<u32>,
    /// Lexicographic shortest-path weight: (delay, -time-of-path-minus-dst).
    w: Vec<i64>,
    neg_t: Vec<i64>,
    /// Computation time of every node of the unfolding.
    times: Vec<i64>,
}

impl WdMatrices {
    /// Compute both matrices of `g` with one delay-layer sweep per node
    /// (see the [module docs](self)). The `f = 1` case of
    /// [`WdMatrices::compute_unfolded`].
    ///
    /// # Panics
    /// Panics if the zero-delay subgraph has a cycle: the matrices are only
    /// defined for a well-formed DFG (see [`Dfg::validate`]).
    pub fn compute(g: &Dfg) -> Self {
        Self::compute_unfolded(g, 1)
    }

    /// The matrices of the `f`-unfolding of `g`, in that unfolding's node
    /// layout (copy `j` of node `v` at id `v * f + j`, the layout of
    /// `cred_unfold::unfold`), without building it: one delay-layer sweep
    /// per node of `g` over the unfolding's arcs, which are derived from
    /// `g`'s edges. `O(f·V·(V + E log(fV)))` time on DSP loop graphs and
    /// `O(f·V²)` space for the rows, plus `O(f·(V + E))` scratch.
    ///
    /// # Panics
    /// Panics if `f == 0`, or if the zero-delay subgraph of `g` has a
    /// cycle (then so does every unfolding of it).
    pub fn compute_unfolded(g: &Dfg, f: usize) -> Self {
        let mut wd = Self::with_capacity_for(g, f);
        wd.recompute_unfolded(g, f, &mut WdScratch::with_capacity_for(g, f));
        wd
    }

    /// Empty matrices (of the empty graph) whose storage holds the
    /// matrices of the `f`-unfolding of `g`, or of any smaller one,
    /// without growing: the target of [`WdMatrices::recompute_unfolded`].
    pub fn with_capacity_for(g: &Dfg, f: usize) -> Self {
        let n = g.node_count() * f;
        WdMatrices {
            rows: 0,
            f: 1,
            copy: Vec::with_capacity(n),
            w: Vec::with_capacity(g.node_count() * n),
            neg_t: Vec::with_capacity(g.node_count() * n),
            times: Vec::with_capacity(n),
        }
    }

    /// Overwrite `self` with [`WdMatrices::compute_unfolded`]`(g, f)`,
    /// reusing `self`'s storage and `scratch`'s buffers: no allocation
    /// once both have held an unfolding at least this large. Nothing of
    /// the previous contents of either is read.
    ///
    /// # Panics
    /// As [`WdMatrices::compute_unfolded`].
    pub fn recompute_unfolded(&mut self, g: &Dfg, f: usize, scratch: &mut WdScratch) {
        assert!(f >= 1, "unfolding factor must be at least 1");
        let rows = g.node_count();
        let n = rows * f;
        let WdScratch {
            topo,
            order,
            orig_rank,
            node,
            first,
            arcs,
            heap,
            layer,
        } = scratch;
        assert!(
            zero_delay_order_into(g, |e| g.edge(e).delay == 0, topo, order),
            "WdMatrices::compute requires a well-formed DFG: the zero-delay subgraph has a cycle"
        );
        orig_rank.clear();
        orig_rank.resize(rows, 0);
        for (r, v) in order.iter().enumerate() {
            orig_rank[v.index()] = r;
        }
        // Ranks over the unfolding, copy-major: copy `j` of the original
        // node of rank `q` has rank `j * V + q`. A zero-delay edge of the
        // unfolding stays in its copy (an original zero-delay edge, which
        // raises `q`) or moves to a higher copy, so this is a topological
        // order of the unfolding's zero-delay subgraph.
        node.clear();
        // The edges leaving the node of rank `r` are
        // `arcs[first[r]..first[r + 1]]`, as (head, head's rank, delay).
        first.clear();
        arcs.clear();
        first.push(0);
        for j in 0..f {
            for &v in order.iter() {
                node.push(v.index() * f + j);
                arcs.extend(g.out_edges(v).iter().map(|&e| {
                    let ed = g.edge(e);
                    let s = j as u64 + ed.delay as u64;
                    let (hj, delay) = ((s % f as u64) as usize, (s / f as u64) as i64);
                    let head = ed.dst.index();
                    (
                        (head * f + hj) as u32,
                        (hj * rows + orig_rank[head]) as u32,
                        delay,
                    )
                }));
                first.push(arcs.len());
            }
        }
        self.rows = rows;
        self.f = f;
        let WdMatrices {
            copy,
            w,
            neg_t,
            times,
            ..
        } = self;
        copy.clear();
        copy.extend((0..n).map(|a| (a % f) as u32));
        times.clear();
        times.extend(
            g.node_ids()
                .flat_map(|v| std::iter::repeat_n(g.node(v).time as i64, f)),
        );
        w.clear();
        w.resize(rows * n, INF);
        neg_t.clear();
        neg_t.resize(rows * n, INF);
        // The ranks reached over positive-delay edges keyed by their
        // tentative `W`, and the current layer as a bitset over ranks.
        heap.clear();
        let words = n.div_ceil(64);
        layer.clear();
        layer.resize(words, 0);
        for (s, &sr) in orig_rank.iter().enumerate() {
            // Row `s` holds the tentative `(W, -time)` from copy 0 of `s`
            // to every node. A settled entry is optimal, so no later
            // candidate beats it. Copy 0 has the original rank.
            let w_row = &mut w[s * n..(s + 1) * n];
            let nt_row = &mut neg_t[s * n..(s + 1) * n];
            w_row[s * f] = 0;
            nt_row[s * f] = 0;
            heap.push(Reverse((0, sr as u32)));
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
                    if w_row[node[xr]] == wl {
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
                    let v = node[r];
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
        }
    }

    /// The matrices of `g` by dense Floyd–Warshall over the lexicographic
    /// pair weights, in `O(V³)` time. This is the differential-testing
    /// oracle of [`WdMatrices::compute_unfolded`], which must agree with
    /// it on every well-formed DFG and its unfoldings (see
    /// [`WdMatrices::first_mismatch`]). It treats `g` as a plain graph
    /// (`f = 1`) even when `g` is an unfolding. On a DFG with a zero-delay
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
        WdMatrices {
            rows: n,
            f: 1,
            copy: vec![0; n],
            w,
            neg_t,
            times: g.node_ids().map(|v| g.node(v).time as i64).collect(),
        }
    }

    /// Number of nodes the accessors range over: `f·V` for the
    /// `f`-unfolding of a `V`-node graph.
    pub fn len(&self) -> usize {
        self.copy.len()
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.copy.is_empty()
    }

    /// The unfolding factor `f` the matrices describe (1 for
    /// [`WdMatrices::compute`] and [`WdMatrices::compute_reference`]).
    pub fn factor(&self) -> usize {
        self.f
    }

    /// The flat row index of the pair `(a, b)`, and `[j < i]`, the delay
    /// the pair has over its copy-0 representative.
    #[inline]
    fn at(&self, a: usize, b: usize) -> (usize, i64) {
        let (i, j) = (self.copy[a] as usize, self.copy[b] as usize);
        let wrap = j < i;
        // `a - i` is `u * f`, so `(a - i) * rows` is the start of row `u`;
        // `b - i`, plus `f` on a wrap, is the column of `v_r`.
        (
            (a - i) * self.rows + b + wrap as usize * self.f - i,
            wrap as i64,
        )
    }

    /// `W(u, v)`: minimum path delay count, `None` if unreachable.
    pub fn w(&self, u: usize, v: usize) -> Option<i64> {
        let (at, wrap) = self.at(u, v);
        let x = self.w[at];
        (x < INF).then_some(x + wrap)
    }

    /// `D(u, v)`: maximum computation time over minimum-delay paths
    /// (both endpoints included), `None` if unreachable.
    pub fn d(&self, u: usize, v: usize) -> Option<i64> {
        let x = self.neg_t[self.at(u, v).0];
        (x < INF).then_some(self.times[v] - x)
    }

    /// The reachable entries `(D(u_0, t), u, t)` with `D >= floor`, sorted
    /// by `D` descending, ties by `(u, t)` ascending: `u` is a node of the
    /// original graph and `t` a node of the unfolding. The entry stands for
    /// the `f` pairs `(u_i, t_i)`, `i < f`, where `t_i` is `t` shifted `i`
    /// copies on (see the [module docs](self)); they share its `D`. For
    /// `f = 1` the entries are exactly the reachable pairs `(u, v)`.
    ///
    /// This is the *activation order*: the period-`c` constraints `r(v) -
    /// r(u) <= W(u, v) - 1` are the copies of the entries with `D > c`, so
    /// every period at or above `floor` selects a prefix of the list. One
    /// pass over the `f·V²` entries, then a sort of those it keeps; the
    /// retiming solver asks only for the entries at or above its
    /// closed-walk bound, which on DSP loops are a small share of them.
    pub fn activation_from(&self, floor: i64) -> Vec<(i64, u32, u32)> {
        let mut out = Vec::new();
        self.activation_into(floor, &mut out);
        out
    }

    /// [`WdMatrices::activation_from`] written to `out`, which is cleared
    /// first, so a caller that keeps `out` reuses its storage.
    pub fn activation_into(&self, floor: i64, out: &mut Vec<(i64, u32, u32)>) {
        let n = self.len();
        out.clear();
        for u in 0..self.rows {
            for (t, (&nt, &time)) in self.neg_t[u * n..(u + 1) * n]
                .iter()
                .zip(&self.times)
                .enumerate()
            {
                if nt < INF && time - nt >= floor {
                    out.push((time - nt, u as u32, t as u32));
                }
            }
        }
        // The entries went in in `(u, t)` order, and a stable sort keeps
        // it among equal `D`. An unstable sort on `(D, u, t)` gives the
        // same order without a buffer, but it was slower: on perfbench's
        // traced oracle_fuzz (seed 7) `retime.solve_us` read 6.0 µs
        // against 5.3 with this sort.
        out.sort_by_key(|&(d, _, _)| Reverse(d));
    }

    /// All distinct finite `D` values, sorted ascending — the candidate
    /// clock periods for min-period retiming.
    pub fn candidate_periods(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self
            .activation_from(i64::MIN)
            .iter()
            .rev()
            .map(|&(d, _, _)| d)
            .collect();
        out.dedup();
        out
    }

    /// Copy `i` of an activation entry `(u, t)` whose target lies in copy
    /// `r = t mod f`: the target of the pair from `u_i`, which is `t`
    /// moved `i` copies on, and the delay that pair has over the entry,
    /// `W(u_i, t_i) - W(u_0, t) = [r + i >= f]`. Everything that expands
    /// the activation order into pairs uses this one rule.
    #[inline]
    pub fn shifted(t: u32, r: u32, i: u32, f: u32) -> (usize, i64) {
        let wrap = (r + i >= f) as u32;
        ((t + i - wrap * f) as usize, wrap as i64)
    }

    /// The activation order with every entry expanded into the `f` pairs
    /// it stands for, as `(D, u, v)` over node ids of the unfolding,
    /// sorted by `D` descending, then `(u, v)` ascending.
    fn expanded_activation(&self) -> Vec<(i64, u32, u32)> {
        let f = self.f as u32;
        let activation = self.activation_from(i64::MIN);
        let mut out = Vec::with_capacity(activation.len() * self.f);
        for &(d, u, t) in &activation {
            for i in 0..f {
                let (v, _) = Self::shifted(t, self.copy[t as usize], i, f);
                out.push((d, u * f + i, v as u32));
            }
        }
        out.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        out
    }

    /// The first place where `self` and `other` describe different
    /// matrices, or `None` when they agree: on the node count, on `W` and
    /// `D` at every pair, on the candidate periods, and on the pairs of the
    /// activation order once each entry is expanded into its copies. The
    /// two may hold different forms of the same matrices (a residue-form
    /// unfolding against [`WdMatrices::compute_reference`] of the built
    /// unfolding), so this checks entry by entry through the accessors
    /// rather than comparing storage.
    pub fn first_mismatch(&self, other: &WdMatrices) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!("{} nodes against {}", self.len(), other.len()));
        }
        for u in 0..self.len() {
            for v in 0..self.len() {
                let (a, b) = ((self.w(u, v), self.d(u, v)), (other.w(u, v), other.d(u, v)));
                if a != b {
                    return Some(format!("(W, D)({u}, {v}): {a:?} against {b:?}"));
                }
            }
        }
        let (a, b) = (self.candidate_periods(), other.candidate_periods());
        if a != b {
            return Some(format!("candidate periods {a:?} against {b:?}"));
        }
        let (a, b) = (self.expanded_activation(), other.expanded_activation());
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            return Some(format!(
                "activation pair {i}: {:?} against {:?}",
                a.get(i),
                b.get(i)
            ));
        }
        None
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

    /// The activation order is sorted (`D` descending, ties by `(u, t)`
    /// ascending) and lists exactly the reachable entries of the copy-0
    /// rows, with the accessors' `D`; from a floor it keeps exactly the
    /// entries at or above it.
    fn assert_activation_sorted_and_complete(wd: &WdMatrices) {
        let act = wd.activation_from(i64::MIN);
        for floor in wd.candidate_periods().into_iter().chain([i64::MAX]) {
            let above: Vec<_> = act
                .iter()
                .copied()
                .filter(|&(d, _, _)| d >= floor)
                .collect();
            assert_eq!(wd.activation_from(floor), above, "floor {floor}");
        }
        assert!(act.windows(2).all(|w| w[0].0 >= w[1].0));
        assert!(act
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].1, w[0].2) < (w[1].1, w[1].2)));
        let f = wd.factor();
        let reachable: Vec<(i64, u32, u32)> = (0..wd.len() / f)
            .flat_map(|u| (0..wd.len()).map(move |t| (u, t)))
            .filter_map(|(u, t)| wd.d(u * f, t).map(|d| (d, u as u32, t as u32)))
            .collect();
        assert_eq!(act.len(), reachable.len());
        let mut sorted = reachable;
        sorted.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        assert_eq!(act, sorted);
    }

    #[test]
    fn activation_order_is_sorted_and_complete() {
        let (g, _) = correlator();
        assert_activation_sorted_and_complete(&WdMatrices::compute(&g));
        for f in 1..=4 {
            assert_activation_sorted_and_complete(&WdMatrices::compute_unfolded(&g, f));
        }
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

    /// The search equals the Floyd–Warshall oracle entry by entry,
    /// unreachable pairs and activation pairs included. (The residue form
    /// of unfoldings is checked against the oracle on graphs built by
    /// `cred_unfold::unfold`, in that crate's tests.)
    fn assert_matches_reference(g: &Dfg) -> WdMatrices {
        let wd = WdMatrices::compute(g);
        assert_eq!(wd.first_mismatch(&WdMatrices::compute_reference(g)), None);
        wd
    }

    #[test]
    fn mismatch_names_the_first_differing_entry() {
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.first_mismatch(&wd.clone()), None);
        let mut other = g.clone();
        other.edge_mut(other.edge_ids().next().unwrap()).delay = 2;
        let diff = wd.first_mismatch(&WdMatrices::compute(&other)).unwrap();
        assert!(diff.starts_with("(W, D)(0, 1)"), "{diff}");
        let two = WdMatrices::compute_unfolded(&g, 2);
        assert_eq!(wd.first_mismatch(&two).unwrap(), "4 nodes against 8");
    }

    #[test]
    fn unfolded_rows_follow_the_shift_rule() {
        // v0 -> v1 carries one delay: at f = 2, copy 1 of v0 feeds copy 0
        // of v1 across the iteration boundary (one delay), and copy 0
        // feeds copy 1 within it (none).
        let (g, _) = correlator();
        let wd = WdMatrices::compute_unfolded(&g, 2);
        assert_eq!(wd.len(), 8);
        assert_eq!(wd.w(0, 3), Some(0));
        assert_eq!(wd.w(1, 2), Some(1));
        assert_eq!(wd.d(1, 2), Some(6));
        assert_eq!(wd.w(1, 1), Some(0));
        assert_eq!(wd.d(1, 1), Some(3));
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
    #[should_panic(expected = "at least 1")]
    fn factor_zero_panics() {
        let _ = WdMatrices::compute_unfolded(&correlator().0, 0);
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
        assert!(wd.activation_from(i64::MIN).is_empty());
        assert!(wd.candidate_periods().is_empty());
    }
}
