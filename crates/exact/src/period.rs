//! The period-`II` constraint system of the machine-effective graph: the
//! stage constraints every no-wrap schedule satisfies whatever the
//! resources, solved by one Bellman–Ford per rung (see the
//! [solver docs](crate::solver) for the soundness proof).
//!
//! Over stages `x`, the system has one constraint `x_v - x_u >= -d(e)`
//! per edge and one `x_v - x_u >= 1 - W(u, v)` per node pair whose
//! `D(u, v)` exceeds `II`, with `W`/`D` the Leiserson–Saxe matrices of the
//! graph under the machine's op times. It is the retiming feasibility
//! system at period `II`, so it is satisfiable exactly when `II` is at
//! least the machine-effective retiming bound. Below the bound a positive
//! cycle of it is the rung's [`PeriodCycle`](crate::Infeasible::PeriodCycle)
//! witness, each constraint expanded into the graph walk that justifies
//! it. At or above the bound its solution is a retiming, and the ASAP
//! slots of the retimed graph seed the search.

use cred_dfg::algo::WdMatrices;
use cred_dfg::{Dfg, EdgeId, MachineModel, NodeId};

const NONE: u32 = u32::MAX;

/// The constraint system of one `(graph, machine)` pair, built once per
/// solver call and re-solved per rung. The scratch vectors are reused.
pub(crate) struct PeriodSystem<'g> {
    g: &'g Dfg,
    /// Machine-effective time per node.
    t: &'g [u32],
    wd: WdMatrices,
    /// Their whole activation order (the rungs below the retiming bound
    /// need every pair for their witnesses), so the pairs with `D > II`
    /// are a prefix of it. A pair `(u, u)` has `D = t(u) <= II` once the
    /// window screen has passed, so it is never in that prefix.
    pairs: Vec<(i64, u32, u32)>,
    /// Stage values (longest paths from a virtual source).
    val: Vec<i64>,
    /// Constraint that last raised each node: an edge id below
    /// `edge_count`, a pair index offset by `edge_count` above it.
    pred: Vec<u32>,
    /// Kahn scratch for the ASAP slots.
    indeg: Vec<u32>,
    ready: Vec<u32>,
}

impl<'g> PeriodSystem<'g> {
    pub(crate) fn new(g: &'g Dfg, m: &MachineModel, t: &'g [u32]) -> Self {
        let n = g.node_count();
        let wd = WdMatrices::compute(&m.effective_graph(g));
        PeriodSystem {
            g,
            t,
            pairs: wd.activation_from(i64::MIN),
            wd,
            val: vec![0; n],
            pred: vec![NONE; n],
            indeg: vec![0; n],
            ready: Vec::with_capacity(n),
        }
    }

    /// Solve the system at `ii` (every op must fit the window, `t <= ii`).
    /// On success writes each node's ASAP slot in the retimed graph into
    /// `first`; otherwise returns the positive cycle as graph walks.
    pub(crate) fn solve(&mut self, ii: u64, first: &mut [u32]) -> Result<(), Vec<Vec<u32>>> {
        let g = self.g;
        let n = g.node_count();
        let active = self.pairs.partition_point(|&(d, _, _)| d > ii as i64);
        let ne = g.edge_count() as u32;
        self.val.iter_mut().for_each(|x| *x = 0);
        self.pred.iter_mut().for_each(|p| *p = NONE);
        // Round `n` is the `(n + 1)`-th over `n + 1` nodes (the virtual
        // source included): a change there proves a positive cycle.
        let mut last = None;
        for _ in 0..=n {
            last = None;
            for e in g.edge_ids() {
                let ed = g.edge(e);
                let cand = self.val[ed.src.index()] - ed.delay as i64;
                if cand > self.val[ed.dst.index()] {
                    self.val[ed.dst.index()] = cand;
                    self.pred[ed.dst.index()] = e.0;
                    last = Some(ed.dst.0);
                }
            }
            for (i, &(_, u, v)) in self.pairs[..active].iter().enumerate() {
                let (u, v) = (u as usize, v as usize);
                let w = self.wd.w(u, v).expect("activation pairs are reachable");
                let cand = self.val[u] + 1 - w;
                if cand > self.val[v] {
                    self.val[v] = cand;
                    self.pred[v] = ne + i as u32;
                    last = Some(v as u32);
                }
            }
            if last.is_none() {
                break;
            }
        }
        match last {
            None => {
                self.asap(ii, first);
                Ok(())
            }
            Some(x) => Err(self.cycle(x)),
        }
    }

    fn source(&self, c: u32) -> u32 {
        let ne = self.g.edge_count() as u32;
        if c < ne {
            self.g.edge(EdgeId(c)).src.0
        } else {
            self.pairs[(c - ne) as usize].1
        }
    }

    /// The positive cycle through the predecessor graph from `x`, a node
    /// still raised in the last round, as one walk per constraint.
    fn cycle(&self, mut x: u32) -> Vec<Vec<u32>> {
        let n = self.g.node_count();
        // A node raised in round `k` was raised through a node last raised
        // in round `k - 1` or later, so the `n` steps back from round `n`
        // never reach an unraised node. Among `n` nodes they must repeat
        // one, and every cycle of the predecessor graph is positive.
        for _ in 0..n {
            x = self.source(self.pred[x as usize]);
        }
        let start = x;
        let mut cons = Vec::new();
        loop {
            let c = self.pred[x as usize];
            cons.push(c);
            x = self.source(c);
            if x == start {
                break;
            }
        }
        cons.reverse();
        let ne = self.g.edge_count() as u32;
        cons.into_iter()
            .map(|c| {
                if c < ne {
                    vec![c]
                } else {
                    let (_, u, v) = self.pairs[(c - ne) as usize];
                    self.walk(u, v)
                }
            })
            .collect()
    }

    /// A minimum-delay, maximum-time path `u ~> v` (delay `W(u, v)`, time
    /// `D(u, v)`), rebuilt from the matrices one edge at a time: the next
    /// edge `x -> y` is one with `d + W(y, v) = W(x, v)` and `t(x) + D(y, v)
    /// = D(x, v)`. `D` falls by `t(x) >= 1` per step, so this terminates.
    fn walk(&self, u: u32, v: u32) -> Vec<u32> {
        let (wd, v) = (&self.wd, v as usize);
        let mut path = Vec::new();
        let mut x = u as usize;
        while x != v {
            let (wx, dx) = (wd.w(x, v), wd.d(x, v));
            let e = self
                .g
                .out_edges(NodeId(x as u32))
                .iter()
                .copied()
                .find(|&e| {
                    let ed = self.g.edge(e);
                    let y = ed.dst.index();
                    wd.w(y, v).map(|w| w + ed.delay as i64) == wx
                        && wd.d(y, v).map(|d| d + self.t[x] as i64) == dx
                })
                .expect("every W/D entry is realized by a path");
            path.push(e.0);
            x = self.g.edge(e).dst.index();
        }
        path
    }

    /// ASAP slots along the edges the solution retimes to zero delay,
    /// `d(e) + x_v - x_u = 0`. They form a DAG (every cycle keeps its
    /// positive delay), and the active pair constraints keep each of its
    /// paths within `ii`, so every slot fits the window.
    fn asap(&mut self, ii: u64, first: &mut [u32]) {
        let g = self.g;
        let zero = |e: EdgeId| {
            let ed = g.edge(e);
            ed.delay as i64 + self.val[ed.dst.index()] - self.val[ed.src.index()] == 0
        };
        self.indeg.iter_mut().for_each(|d| *d = 0);
        for e in g.edge_ids() {
            if zero(e) {
                self.indeg[g.edge(e).dst.index()] += 1;
            }
        }
        first.iter_mut().for_each(|s| *s = 0);
        self.ready.clear();
        self.ready.extend(
            g.node_ids()
                .filter(|v| self.indeg[v.index()] == 0)
                .map(|v| v.0),
        );
        while let Some(u) = self.ready.pop() {
            let end = first[u as usize] + self.t[u as usize];
            for &e in g.out_edges(NodeId(u)) {
                if zero(e) {
                    let w = g.edge(e).dst.index();
                    first[w] = first[w].max(end);
                    self.indeg[w] -= 1;
                    if self.indeg[w] == 0 {
                        self.ready.push(w as u32);
                    }
                }
            }
        }
        for (s, &t) in first.iter_mut().zip(self.t) {
            debug_assert!(
                u64::from(*s + t) <= ii,
                "retimed ASAP slot overflows the window"
            );
            *s = (*s).min(ii as u32 - t);
        }
    }
}
