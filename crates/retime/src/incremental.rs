//! Warm-started incremental solver for the retiming constraint systems:
//! the W/D implementation of minimum-period retiming.
//!
//! The exploration engine plans its factors with [`crate::FeasPlanner`],
//! which needs no W/D matrices. This solver is the independent W/D
//! implementation of the same answers: it serves
//! [`crate::min_period_retiming`] and its callers (the unfold-then-retime
//! order, `cred_explore::best_under_register_budget`, the oracle's Theorem
//! 4.5 layer, which now cross-checks every retime-unfold plan's period),
//! and the property tests hold the two bit-identical.
//!
//! The reference path ([`crate::ConstraintSystem`]) rebuilds the full
//! `O(V^2)` difference-constraint system and re-runs a dense edge-list
//! Bellman–Ford from an all-zero start for *every* feasibility probe of the
//! period search. But the constraint set for a smaller period `c` is a
//! strict superset of the one for a larger `c` (Leiserson–Saxe: the
//! period-`c` constraints are the pairs with `D(u, v) > c`), so this module
//! solves the whole search incrementally:
//!
//! * [`CsrConstraintGraph`] stores the unfolding's legality edges once in
//!   CSR form, read off [`unfolded_edges`] in the unfolding's edge order,
//!   and the period constraints as one row per *original* node, sorted by
//!   `D` descending: the W/D activation order of an `f`-unfolded graph has one
//!   entry per copy-0 pair `(u_0, t)`, standing for the `f` shifted pairs
//!   `(u_i, t_i)` (see [`WdMatrices`]), which share its `D`. So all `f`
//!   copies of `u` share row `u` and its activation counter, and a period
//!   `c` activates a *prefix* of each row (and of the activation order)
//!   instead of rebuilding anything. Relaxing row `u` from copy `u_i`
//!   relabels each entry on the fly ([`WdMatrices::shifted`]): for a
//!   target `t` in copy `r`, the target is `t` moved `i` copies on,
//!   `t + i - f·[r + i >= f]`, and the weight `W(u_0, t) - 1 +
//!   [r + i >= f]`. For a graph that is not unfolded (`f = 1`) both
//!   corrections are zero.
//! * The solver core is a queue-based SPFA (deque with smallest-label-first
//!   placement, an in-queue bitmap, and walk-length negative-cycle
//!   detection) over the CSR graph; its labels, queue and snapshot live in
//!   one arena per solver, so repeated solves allocate nothing.
//! * [`RetimeSolver`] warm-starts every probe: tightening `c` restores the
//!   last feasible fixpoint, activates the new constraint prefix, and seeds
//!   the queue with only the newly activated entries, each as its `f`
//!   copies. Because the systems are nested and relaxation fixpoints are
//!   unique, the warm solve converges to the *same* distance vector the
//!   cold reference computes, whatever order the seeds come in: results
//!   are bit-identical, which the differential property tests assert.
//!
//! That fixpoint already has minimum span among the retimings of its
//! period, so no span search follows the period search (see
//! [`RetimeSolver::retime_to_period`]).
//!
//! ## The `(g, wd)` contract
//!
//! Every entry point here takes a graph `g` and W/D matrices `wd` of `g`'s
//! `f`-unfolding, `f = wd.factor()`: [`WdMatrices::compute_unfolded`]`(g,
//! f)`, or [`WdMatrices::compute`]`(g)` for `f = 1`, where the unfolding is
//! `g` itself. The unfolding is never built. Its legality edges come from
//! [`unfolded_edges`], its node times are `g`'s, and retimings are over its
//! node ids (copy `j` of node `v` at `v * f + j`, `f·|V|` values).
//! `cred_unfold::orders::project_copies` projects them back to `g`. The
//! solver validates `g`, not the unfolding, and the two checks agree: a
//! zero-delay edge of the unfolding keeps or raises the copy index, so a
//! zero-delay cycle of the unfolding stays in one copy and is made of
//! zero-delay edges of `g`.
//!
//! ## Why warm starts stay exact
//!
//! The canonical solution is the pointwise-*maximal* non-positive solution
//! `x*`, i.e. the shortest-path distances from a virtual source. Relaxation
//! from any starting vector `d0` with `x* <= d0 <= 0` is monotone
//! non-increasing, never crosses below `x*` (induction over relaxations),
//! and any quiescent point is a solution, so it terminates exactly at `x*`.
//! Tightening the system (activating constraints) only lowers `x*`, so the
//! previous feasible fixpoint is always a valid `d0`. Infeasibility is
//! detected by walk length: a relaxation chain of `|vars|` edges visits
//! `|vars| + 1` vertices, so it revisits one, and a revisit with strict
//! improvement certifies a negative cycle.
//!
//! ## Where the search starts
//!
//! That certificate is the expensive answer: an infeasible probe pays for
//! a relaxation chain of `|vars|` edges before it can say no. So
//! [`RetimeSolver::min_period_budgeted`] does not bisect the whole
//! candidate list; it starts at a proven lower bound,
//! [`RetimeSolver::period_lower_bound`], which [`CsrConstraintGraph::build`]
//! reads off the legality edges and the W/D matrices (residue form
//! included) before it stores any period constraint: the larger of
//! `max t(v)` and, over every legality edge `e = x -> u`,
//! `⌈D(u, x) / (W(u, x) + d(e))⌉`.
//!
//! A minimum-delay path `u ~> x` of time `D(u, x)` followed by `e` is a
//! closed walk of time `D(u, x)` over `W(u, x) + d(e)` delays. A closed
//! walk splits into simple cycles, and retiming keeps the delay count of
//! every cycle. Under a retiming of period `c`, a cycle with `k` delays
//! splits into at most `k` zero-delay segments, each of time at most `c`,
//! so its time is at most `c·k`; summed over the walk's cycles,
//! `D(u, x) <= c·(W(u, x) + d(e))`. No retiming reaches a smaller period.
//! The scan costs one W/D lookup per legality edge, and the period search
//! charges one work unit per edge it read.
//!
//! So a pair with `D` below the bound is never active at any period a
//! retiming can reach, and the CSR graph sorts and stores only the entries
//! with `D >= bound` ([`WdMatrices::activation_from`]). On the bundled
//! kernels that is under a third of the entries, and on most of them the
//! live count stops growing by `f = 4` while the total grows as `f·V²`. A
//! probe below the bound is answered infeasible without a solve.
//!
//! The first probe is the first candidate at or above the bound, cold from
//! the legality fixpoint. Every smaller candidate lies below the bound, so
//! if that probe is feasible it is the optimum, and on every bundled
//! kernel at f = 1..8 it is. That candidate is the smallest stored `D`,
//! the last entry of the stored activation order, so the distinct
//! candidates ([`RetimeSolver::candidate_periods`]) are collected only
//! when the probe fails. Then the candidates above it are bisected with
//! the warm starts above. The fixpoint at the optimal period is unique, so
//! the result is the same as the reference search's, which bisects from
//! the bottom of the list.

use crate::minperiod::MinPeriodResult;
use crate::span::{compact_greedy, CompactScratch};
use crate::Retiming;
use cred_dfg::algo::{unfolded_edges, TopoScratch, WdMatrices};
use cred_dfg::{Dfg, NodeId};
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{Budget, Exhausted};
use std::collections::VecDeque;

/// Sentinel period: "no period constraints active" (legality edges only).
const NO_PERIOD: i64 = i64::MAX;

/// One period constraint of an original node's row: the copy-0 target
/// `t`, its copy `r`, and the weight `W(u_0, t) - 1`.
#[derive(Debug, Clone, Copy)]
struct PeriodEdge {
    t: u32,
    r: u32,
    w: i64,
}

impl PeriodEdge {
    /// The copy of this edge that leaves copy `i` of its row's node in an
    /// `f`-unfolded graph: its target and weight.
    #[inline]
    fn shifted(self, i: u32, f: u32) -> (usize, i64) {
        let (v, wrap) = WdMatrices::shifted(self.t, self.r, i, f);
        (v, self.w + wrap)
    }
}

/// The retiming constraint graph in compressed-sparse-row form.
///
/// Built once per `(graph, W/D)` pair, for the `f`-unfolding of the graph
/// the matrices describe (see the [module docs](self#the-g-wd-contract)).
/// Variables `0..n` are the retiming values of the unfolding's nodes. A
/// constraint `x[a] - x[b] <= c` is the edge `b -> a` with weight `c`:
///
/// * legality edges `src -> dst` with weight `d(e)` are static (always
///   active) and stored CSR-style in `leg_*`;
/// * period edges are stored once per *original* node `u`, as the copy-0
///   entries `u_0 -> t` with weight `W(u_0, t) - 1`, sorted by `D`
///   descending, so the active entries of row `u` for any period `c` are
///   the prefix of length `active[u]`; every copy `u_i` relaxes them
///   shifted by `i` copies (see the [module docs](self));
/// * `act_*` is the same entry set in global activation order (`D`
///   descending), which is what the warm-start walks when the period
///   tightens. Only the entries with `D` at or above the closed-walk bound
///   are stored: no period a retiming reaches activates the others (see
///   the [module docs](self#where-the-search-starts)).
#[derive(Debug, Clone, Default)]
pub struct CsrConstraintGraph {
    n: usize,
    /// The unfolding factor of the W/D matrices.
    f: u32,
    /// The closed-walk bound: no retiming reaches a smaller period, and
    /// only the entries with `D >= bound` are stored.
    bound: i64,
    /// Row (original node) and copy of every variable.
    var: Vec<(u32, u32)>,
    leg_row: Vec<u32>,
    leg_col: Vec<u32>,
    leg_w: Vec<i64>,
    per_row: Vec<u32>,
    per: Vec<PeriodEdge>,
    /// Activation order: entry `i` is `act[i] = (D, row, t)`, `D`
    /// non-increasing in `i`, and `act_edge[i]` indexes its slot in `per`.
    act: Vec<(i64, u32, u32)>,
    act_edge: Vec<u32>,
    /// Insertion cursors of the two counting sorts.
    cursor: Vec<u32>,
}

impl CsrConstraintGraph {
    /// Build the CSR graph for the `f`-unfolding of `g`, `f =
    /// wd.factor()`, from `g`'s edges and the unfolding's W/D matrices:
    /// [`WdMatrices::compute_unfolded`]`(g, f)`, or
    /// [`WdMatrices::compute`]`(g)` for `g` itself. It reads the
    /// closed-walk bound off the legality edges, then sorts and stores
    /// only the activation entries at or above it. Panics on a zero-delay
    /// cycle, which a well-formed DFG lacks.
    pub fn build(g: &Dfg, wd: &WdMatrices) -> Self {
        let mut csr = Self::default();
        csr.rebuild(g, wd);
        csr
    }

    /// Fill `self`, an empty graph, with [`CsrConstraintGraph::build`]`(g,
    /// wd)`.
    fn rebuild(&mut self, g: &Dfg, wd: &WdMatrices) {
        let f = wd.factor();
        let rows = g.node_count();
        let n = rows * f;
        assert_eq!(wd.len(), n, "W/D matrices belong to a different graph");
        self.n = n;
        self.f = f as u32;
        self.var.clear();
        self.var
            .extend((0..n).map(|x| ((x / f) as u32, (x % f) as u32)));
        // Legality edges of the unfolding, counting-sorted by source.
        let leg_row = &mut self.leg_row;
        leg_row.clear();
        leg_row.resize(n + 2, 0);
        unfolded_edges(g, f).for_each(|(src, _, _)| leg_row[src + 1] += 1);
        for i in 1..leg_row.len() {
            leg_row[i] += leg_row[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&leg_row[..n + 1]);
        self.leg_col.clear();
        self.leg_col.resize(g.edge_count() * f, 0);
        self.leg_w.clear();
        self.leg_w.resize(g.edge_count() * f, 0);
        unfolded_edges(g, f).for_each(|(src, dst, delay)| {
            let slot = self.cursor[src] as usize;
            self.cursor[src] += 1;
            self.leg_col[slot] = dst as u32;
            self.leg_w[slot] = delay as i64;
        });
        // The closed-walk bound: a minimum-delay path `u ~> x` closed by
        // the legality edge `x -> u`.
        let mut bound = g.node_ids().map(|v| g.node(v).time).max().unwrap_or(0) as i64;
        for x in 0..n {
            for i in self.leg_row[x] as usize..self.leg_row[x + 1] as usize {
                let u = self.leg_col[i] as usize;
                if let (Some(w), Some(d)) = (wd.w(u, x), wd.d(u, x)) {
                    let delays = w + self.leg_w[i];
                    assert!(
                        delays > 0,
                        "min_period_retiming requires a well-formed DFG: a zero-delay cycle"
                    );
                    bound = bound.max((d + delays - 1) / delays);
                }
            }
        }
        self.bound = bound;
        // Period edges: the live activation order is (D desc, u asc, t
        // asc), so distributing entries to rows in order leaves every row
        // sorted by D descending — each period's active set is a row prefix.
        wd.activation_into(bound, &mut self.act);
        let per_row = &mut self.per_row;
        per_row.clear();
        per_row.resize(rows + 1, 0);
        for &(_, u, _) in &self.act {
            per_row[u as usize + 1] += 1;
        }
        for i in 1..per_row.len() {
            per_row[i] += per_row[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&per_row[..rows]);
        self.per.clear();
        self.per
            .resize(self.act.len(), PeriodEdge { t: 0, r: 0, w: 0 });
        self.act_edge.clear();
        self.act_edge.resize(self.act.len(), 0);
        for (i, &(_, u, t)) in self.act.iter().enumerate() {
            let slot = self.cursor[u as usize];
            self.cursor[u as usize] += 1;
            let w = wd.w(u as usize * f, t as usize).expect("reachable pair");
            let r = t % f as u32;
            self.per[slot as usize] = PeriodEdge { t, r, w: w - 1 };
            self.act_edge[i] = slot;
        }
    }

    /// Number of retiming variables: the unfolding's nodes.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Total period constraints stored: every live activation entry (`D`
    /// at or above the closed-walk bound) counts once per copy.
    pub fn period_edge_count(&self) -> usize {
        self.act.len() * self.f as usize
    }

    /// Number of period rows (original nodes), each with one activation
    /// counter.
    fn rows(&self) -> usize {
        self.per_row.len() - 1
    }

    /// Length of the activation prefix for period `c` (entries with
    /// `D > c`): the whole active set when `c >= bound`.
    fn prefix_for(&self, c: i64) -> usize {
        self.act.partition_point(|&(d, _, _)| d > c)
    }
}

/// Every buffer a solver's solves need besides its constraint graph: the
/// distance labels, SPFA queue, in-queue bitmap, walk lengths, one
/// activation counter per period row (original node), the warm-start
/// snapshot, and compaction's working sets. It serves any number of
/// solves without reallocating once grown.
#[derive(Debug, Default, Clone)]
struct SolverScratch {
    /// The graph check's zero-delay order and its buffers.
    topo: TopoScratch,
    order: Vec<NodeId>,
    dist: Vec<i64>,
    walk: Vec<u32>,
    inq: Vec<u64>,
    queue: VecDeque<u32>,
    active: Vec<u32>,
    feas: Vec<i64>,
    compact: CompactScratch,
}

impl SolverScratch {
    /// Buffers for `nv` variables and `rows` period rows, zeroed.
    fn for_graph(nv: usize, rows: usize) -> Self {
        SolverScratch {
            dist: vec![0; nv],
            walk: vec![0; nv],
            inq: vec![0; nv.div_ceil(64)],
            active: vec![0; rows],
            feas: vec![0; nv],
            ..Self::default()
        }
    }

    #[inline]
    fn inq_test_set(&mut self, v: usize) -> bool {
        let (word, bit) = (v / 64, 1u64 << (v % 64));
        let was = self.inq[word] & bit != 0;
        self.inq[word] |= bit;
        was
    }

    #[inline]
    fn inq_clear(&mut self, v: usize) {
        self.inq[v / 64] &= !(1u64 << (v % 64));
    }
}

/// Incremental retiming solver over one `(graph, W/D)` pair: the
/// `f`-unfolding of the graph, without building it (see the [module
/// docs](self#the-g-wd-contract)).
///
/// Drives the whole period search through warm starts: the first probe
/// pays one queue-based SPFA from the legality fixpoint (all zeros — legal
/// because edge delays are non-negative), and every tightened probe
/// restarts from the last feasible fixpoint with only the newly activated
/// constraints seeded. Produces results bit-identical to the
/// [`crate::ConstraintSystem`] reference path.
#[derive(Debug)]
pub struct RetimeSolver<'a> {
    g: &'a Dfg,
    csr: CsrConstraintGraph,
    s: SolverScratch,
    /// `s.feas` is the exact fixpoint of the period-`feas_c` system.
    feas_c: i64,
    /// Currently materialized activation prefix (rows' `active` counters).
    act_prefix: usize,
}

impl<'a> RetimeSolver<'a> {
    /// Build a solver for the `wd.factor()`-unfolding of `g`.
    pub fn new(g: &'a Dfg, wd: &'a WdMatrices) -> Self {
        let csr = CsrConstraintGraph::build(g, wd);
        RetimeSolver {
            g,
            s: SolverScratch::for_graph(csr.n, csr.rows()),
            csr,
            // The all-zero vector is the exact fixpoint of the legality-only
            // system (every edge delay is >= 0), i.e. of period "infinity".
            feas_c: NO_PERIOD,
            act_prefix: 0,
        }
    }

    /// Move the materialized activation prefix (and the per-row active
    /// counters, one per original node) to `target`. Within each row the
    /// global activation order restricted to that row *is* the row order,
    /// so counters track exact row prefixes in both directions.
    fn materialize(&mut self, target: usize) {
        while self.act_prefix < target {
            self.s.active[self.csr.act[self.act_prefix].1 as usize] += 1;
            self.act_prefix += 1;
        }
        while self.act_prefix > target {
            self.act_prefix -= 1;
            self.s.active[self.csr.act[self.act_prefix].1 as usize] -= 1;
        }
    }

    /// SPFA from the seeded queue. Returns `Ok(false)` on a negative cycle.
    ///
    /// One work unit is charged to `budget` per dequeued vertex;
    /// exhaustion aborts the solve mid-relaxation without touching the
    /// warm-start snapshot (`s.feas`), so an exhausted solver stays valid
    /// for retry or fallback.
    fn run(&mut self, budget: &Budget) -> Result<bool, Exhausted> {
        failpoint::hit(sites::RETIME_SPFA).map_err(|f| Exhausted::Injected { site: f.site })?;
        let limit = self.csr.n as u32;
        while let Some(u) = self.s.queue.pop_front() {
            budget.charge(1)?;
            let u = u as usize;
            self.s.inq_clear(u);
            let du = self.s.dist[u];
            let wu = self.s.walk[u];
            macro_rules! relax {
                ($v:expr, $w:expr) => {{
                    let v = $v as usize;
                    let cand = du + $w;
                    if cand < self.s.dist[v] {
                        self.s.dist[v] = cand;
                        let wl = wu + 1;
                        self.s.walk[v] = wl;
                        if wl >= limit {
                            return Ok(false); // walk revisits a vertex: negative cycle
                        }
                        if !self.s.inq_test_set(v) {
                            // Smallest-label-first: likely-final labels are
                            // processed sooner, cutting re-relaxations.
                            match self.s.queue.front() {
                                Some(&f) if cand < self.s.dist[f as usize] => {
                                    self.s.queue.push_front(v as u32)
                                }
                                _ => self.s.queue.push_back(v as u32),
                            }
                        }
                    }
                }};
            }
            for i in self.csr.leg_row[u] as usize..self.csr.leg_row[u + 1] as usize {
                relax!(self.csr.leg_col[i], self.csr.leg_w[i]);
            }
            let (row, copy) = self.csr.var[u];
            let start = self.csr.per_row[row as usize] as usize;
            for k in start..start + self.s.active[row as usize] as usize {
                let (v, w) = self.csr.per[k].shifted(copy, self.csr.f);
                relax!(v, w);
            }
        }
        Ok(true)
    }

    /// Seed the queue by relaxing one explicit edge `u -> v` of weight `w`.
    /// Returns `false` if the walk-length bound certifies a negative cycle.
    fn seed_edge(&mut self, u: usize, v: usize, w: i64) -> bool {
        let limit = self.csr.n as u32;
        let cand = self.s.dist[u] + w;
        if cand < self.s.dist[v] {
            self.s.dist[v] = cand;
            let wl = self.s.walk[u] + 1;
            self.s.walk[v] = wl;
            if wl >= limit {
                return false;
            }
            if !self.s.inq_test_set(v) {
                self.s.queue.push_back(v as u32);
            }
        }
        true
    }

    /// Clear per-solve state (walk lengths, queue, bitmap).
    fn begin_solve(&mut self) {
        self.s.walk.fill(0);
        self.s.queue.clear();
        self.s.inq.fill(0);
    }

    /// Solve the period-`c` feasibility system, leaving the fixpoint in
    /// `s.dist` (and snapshotting it as the new warm-start state) when
    /// feasible.
    fn solve_period_raw(&mut self, c: i64, budget: &Budget) -> Result<bool, Exhausted> {
        if c < self.csr.bound {
            // No retiming reaches a period below the closed-walk bound.
            return Ok(false);
        }
        if c == self.feas_c {
            // Same system as the snapshot: the fixpoint is already known.
            self.s.dist.copy_from_slice(&self.s.feas);
            self.materialize(self.csr.prefix_for(c));
            return Ok(true);
        }
        self.begin_solve();
        // Warm start from the tightest feasible snapshot that is still an
        // upper bound of the target fixpoint: the nested-superset structure
        // makes any feasible solution for a *larger* period valid. For a
        // looser-than-snapshot period, fall back to the legality fixpoint
        // (all zeros) so the result stays the canonical maximal solution.
        let warm_c = if c <= self.feas_c {
            self.feas_c
        } else {
            NO_PERIOD
        };
        if warm_c == NO_PERIOD {
            self.s.dist.fill(0);
        } else {
            self.s.dist.copy_from_slice(&self.s.feas);
        }
        let from = if warm_c == NO_PERIOD {
            0
        } else {
            self.csr.prefix_for(warm_c)
        };
        let target = self.csr.prefix_for(c);
        self.materialize(target);
        // Seed only the newly activated constraints, each entry as its
        // `f` copies; everything already active is quiescent under the
        // warm-start vector.
        let f = self.csr.f;
        for i in from..target {
            let e = self.csr.per[self.csr.act_edge[i] as usize];
            let u = self.csr.act[i].1 as usize * f as usize;
            for copy in 0..f {
                budget.charge(1)?;
                let (v, w) = e.shifted(copy, f);
                if !self.seed_edge(u + copy as usize, v, w) {
                    return Ok(false);
                }
            }
        }
        if !self.run(budget)? {
            return Ok(false);
        }
        self.s.feas.copy_from_slice(&self.s.dist);
        self.feas_c = c;
        Ok(true)
    }

    /// A normalized legal retiming achieving period `<= c`, or `None`.
    /// Bit-identical to [`crate::minperiod::retime_to_period_reference`].
    ///
    /// # Minimum span
    ///
    /// Among all legal retimings of period `<= c`, the answer has the
    /// smallest span `max r - min r`, which sizes the pipelined loop
    /// (`L + |V|·M_r`) and the retime-then-unfold loop (`(M_r + f)·L + Q'`,
    /// Theorem 4.5). So no span search follows the period search.
    ///
    /// The answer is `x* - min x*`, where `x*` is the pointwise-maximal
    /// non-positive solution of the period-`c` system. Its maximum is `0`:
    /// were it `m < 0`, `x* - m` would be a larger non-positive solution.
    /// A retiming is legal with period `<= c` exactly when it solves that
    /// system, and solutions stay solutions under a shift. So take any
    /// such `y`, shifted so that `max y = 0`. It is a non-positive
    /// solution, hence `y <= x*` pointwise, hence `min y <= min x*`, and
    /// `span(y) = -min y >= -min x* = span(x*)`.
    ///
    /// Warm starts keep this: every feasible probe ends at `x*` itself.
    /// A probe starts from `0` or from the fixpoint of a looser period,
    /// which solves fewer constraints and so lies at or above `x*`;
    /// relaxation never goes below `x*`, and it stops only at a solution,
    /// which lies at or below `x*` (see the [module
    /// docs](self#why-warm-starts-stay-exact)). The dense oracle
    /// [`crate::span::min_span_retiming_reference`] bisects the span
    /// instead, and the property tests hold the two equal.
    pub fn retime_to_period(&mut self, c: u64) -> Option<Retiming> {
        unbudgeted(self.retime_to_period_budgeted(c, &Budget::unlimited()))
    }

    /// [`Self::retime_to_period`] under a budget. `Err` means the budget
    /// ran out mid-solve: no answer was produced (never a partial one),
    /// and the solver's warm state is untouched, so it remains valid for
    /// a retry with a larger budget or a different period. A period below
    /// [`Self::period_lower_bound`] is answered `None` at once, charging
    /// nothing and leaving the warm state as it was.
    pub fn retime_to_period_budgeted(
        &mut self,
        c: u64,
        budget: &Budget,
    ) -> Result<Option<Retiming>, Exhausted> {
        if !self.solve_period_raw(c as i64, budget)? {
            return Ok(None);
        }
        let mut r = Retiming::from_values(self.s.dist[..self.csr.n].to_vec());
        r.normalize();
        debug_assert!(self.satisfies(r.values()));
        Ok(Some(r))
    }

    /// Minimum achievable cycle period and a retiming realizing it, over
    /// the same `D` candidates as the reference OPT, starting at the first
    /// candidate at or above [`Self::period_lower_bound`] and bisecting
    /// the ones above it only when that probe is infeasible (see the
    /// [module docs](self#where-the-search-starts)); every tightening probe
    /// is warm-started. Bit-identical to
    /// [`crate::minperiod::min_period_retiming_reference`].
    ///
    /// # Panics
    /// Panics on an empty or malformed graph.
    pub fn min_period(&mut self) -> MinPeriodResult {
        unbudgeted(self.min_period_budgeted(&Budget::unlimited()))
    }

    /// [`Self::min_period`] under a budget. The budget spans the *whole*
    /// search: the bound's scan and all probes charge into the same
    /// counter. On `Err` no result is produced; the solver remains usable.
    ///
    /// # Panics
    /// Panics on an empty or malformed graph.
    pub fn min_period_budgeted(&mut self, budget: &Budget) -> Result<MinPeriodResult, Exhausted> {
        failpoint::hit(sites::RETIME_MIN_PERIOD)
            .map_err(|f| Exhausted::Injected { site: f.site })?;
        self.g
            .validate_with(&mut self.s.topo, &mut self.s.order)
            .expect("min_period_retiming requires a well-formed DFG");
        // The bound was read off at construction; charge its scan, one
        // work unit per legality edge.
        budget.charge(self.csr.leg_col.len() as u64)?;
        // Every candidate below the bound is infeasible, so a feasible
        // first probe at or above it is the optimum: the smallest stored
        // `D`, the last of the activation order.
        let first = self.candidate_periods().next();
        let first = first.expect("the bound never exceeds the largest candidate");
        if let Some(retiming) = self.retime_to_period_budgeted(first, budget)? {
            return Ok(MinPeriodResult {
                retiming,
                period: first,
            });
        }
        // Bisect the candidates above it; the largest is always feasible.
        let cands: Vec<u64> = self.candidate_periods().collect();
        let mut lo = 1;
        let mut hi = cands.len() - 1;
        let mut best = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            if let Some(r) = self.retime_to_period_budgeted(cands[mid], budget)? {
                best = Some((r, cands[mid]));
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        let (retiming, period) = best.expect("at least the maximum candidate is feasible");
        Ok(MinPeriodResult { retiming, period })
    }

    /// The candidate periods the search walks: the distinct `D` values at
    /// or above [`Self::period_lower_bound`], ascending. Every candidate
    /// below them is infeasible, and the largest is always feasible.
    pub fn candidate_periods(&self) -> impl Iterator<Item = u64> + '_ {
        let mut last = None;
        let rising = self.csr.act.iter().rev().map(|&(d, _, _)| d as u64);
        rising.filter(move |&d| last.replace(d) != Some(d))
    }

    /// A lower bound on the minimum period no retiming can beat: the
    /// larger of the longest node time and, over every legality edge
    /// `e = x -> u`, `⌈D(u, x) / (W(u, x) + d(e))⌉`, the time per delay of
    /// the closed walk that a minimum-delay path `u ~> x` and `e` make
    /// (see the [module docs](self#where-the-search-starts) for why it is
    /// sound). [`CsrConstraintGraph::build`] reads it off the legality
    /// edges and stores it, so this is a read; [`Self::min_period`] starts
    /// its search here.
    pub fn period_lower_bound(&self) -> u64 {
        self.csr.bound as u64
    }

    /// The minimum-span retiming at period `c`, given `base` = this
    /// solver's answer at `c`: `base` itself, since that answer already has
    /// minimum span (see [`Self::retime_to_period`]). Charges nothing to
    /// `budget`. perfbench's traced explore_cold still calls it where the
    /// span search used to run.
    pub fn min_span_from_base_budgeted(
        &mut self,
        _c: u64,
        base: &Retiming,
        _budget: &Budget,
    ) -> Result<Retiming, Exhausted> {
        Ok(base.clone())
    }

    /// [`crate::span::compact_values`] for `r`, a retiming of period `<= c`
    /// of the unfolding, checked against the rows the solver relaxes at
    /// `c` (legality and the active prefix), so neither the unfolding nor
    /// a dense [`crate::ConstraintSystem`] is built. It equals
    /// [`crate::span::compact_values_with`] on the dense system of the
    /// built unfolding, which keeps the tightest bound per pair. Panics if
    /// `c` is below [`Self::period_lower_bound`], which no retiming reaches.
    pub fn compact(&mut self, c: u64, r: &Retiming) -> Retiming {
        assert!(
            c as i64 >= self.csr.bound,
            "no retiming reaches period {c}, below the closed-walk bound {}",
            self.csr.bound
        );
        self.materialize(self.csr.prefix_for(c as i64));
        let (csr, s) = (&self.csr, &mut self.s);
        let active = &s.active;
        compact_greedy(r, |x| satisfies(csr, active, x), &mut s.compact)
    }

    /// Whether `x` meets every legality edge and every period constraint
    /// of the materialized prefix: the system the last solve or
    /// compaction answered.
    fn satisfies(&self, x: &[i64]) -> bool {
        satisfies(&self.csr, &self.s.active, x)
    }
}

/// Whether `x` meets every legality edge of `csr` and, for every row, the
/// first `active[row]` period constraints.
fn satisfies(csr: &CsrConstraintGraph, active: &[u32], x: &[i64]) -> bool {
    (0..csr.n).all(|u| {
        let (row, copy) = csr.var[u];
        let start = csr.per_row[row as usize] as usize;
        let active = &csr.per[start..start + active[row as usize] as usize];
        (csr.leg_row[u] as usize..csr.leg_row[u + 1] as usize)
            .all(|i| x[csr.leg_col[i] as usize] - x[u] <= csr.leg_w[i])
            && active.iter().all(|e| {
                let (v, w) = e.shifted(copy, csr.f);
                x[v] - x[u] <= w
            })
    })
}

/// Unwrap an unlimited-budget solve. An unlimited [`Budget`] cannot
/// exhaust, so the only possible `Err` is an injected fault from a chaos
/// plan — escalate it to a panic (the chaos harness catches and
/// classifies those).
fn unbudgeted<T>(res: Result<T, Exhausted>) -> T {
    res.unwrap_or_else(|e| panic!("unbudgeted solve interrupted: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minperiod::{
        constraints_for_period, min_period_retiming_reference, retime_to_period_reference,
    };
    use cred_dfg::gen;
    use rand::{rngs::StdRng, SeedableRng};

    fn random(seed: u64, nodes: usize) -> Dfg {
        gen::random_dfg(
            &mut StdRng::seed_from_u64(seed),
            &gen::RandomDfgConfig {
                nodes,
                max_delay: 3,
                max_time: 4,
                ..Default::default()
            },
        )
    }

    #[test]
    fn csr_counts_match_dense_system() {
        for seed in 0..10 {
            let g = random(seed, 9);
            for f in 1..=3 {
                let wd = WdMatrices::compute_unfolded(&g, f);
                let csr = RetimeSolver::new(&g, &wd).csr;
                // Every live entry, `D` at or above the bound, once per copy.
                let bound = csr.bound;
                let live = wd
                    .activation_from(i64::MIN)
                    .iter()
                    .filter(|&&(d, _, _)| d >= bound)
                    .count();
                assert_eq!(csr.period_edge_count(), f * live, "seed {seed}, f = {f}");
                assert_eq!(csr.num_vars(), f * g.node_count());
            }
        }
    }

    #[test]
    fn activation_prefix_matches_filter() {
        let mut at_bound = 0;
        for seed in 0..10 {
            let g = random(seed, 8);
            for f in 1..=3 {
                let wd = WdMatrices::compute_unfolded(&g, f);
                let solver = RetimeSolver::new(&g, &wd);
                let bound = solver.csr.bound;
                let all = wd.activation_from(i64::MIN);
                let above: Vec<i64> = wd
                    .candidate_periods()
                    .into_iter()
                    .filter(|&c| c >= bound)
                    .collect();
                at_bound += (above[0] == bound) as usize;
                // The solver walks exactly the candidates at or above the
                // bound, the bound itself included when it is a `D`.
                let walked: Vec<i64> = solver.candidate_periods().map(|c| c as i64).collect();
                assert_eq!(walked, above, "seed {seed}, f = {f}");
                for &c in &above {
                    let expect = all.iter().filter(|&&(d, _, _)| d > c).count();
                    assert_eq!(
                        solver.csr.prefix_for(c),
                        expect,
                        "seed {seed}, f = {f}, period {c}"
                    );
                }
            }
        }
        assert!(at_bound > 0, "no case had a candidate at the bound");
    }

    #[test]
    #[should_panic(expected = "well-formed DFG")]
    fn zero_delay_cycle_fails_as_malformed() {
        // Floyd–Warshall takes a zero-delay cycle, which the sweep
        // refuses; the bound's scan must not divide by its zero delays.
        let mut b = cred_dfg::DfgBuilder::new();
        let (x, y) = (b.unit("X"), b.unit("Y"));
        b.edge(x, y, 0);
        b.edge(y, x, 0);
        let g = b.build_unchecked();
        RetimeSolver::new(&g, &WdMatrices::compute_reference(&g)).min_period();
    }

    #[test]
    fn fixed_period_matches_reference_on_random_graphs() {
        for seed in 0..30 {
            let g = random(seed, 8);
            let wd = WdMatrices::compute(&g);
            let mut solver = RetimeSolver::new(&g, &wd);
            let cands = wd.candidate_periods();
            // Descending sweep (the warm path), then a loose re-probe.
            for &c in cands.iter().rev() {
                let fast = solver.retime_to_period(c as u64);
                let slow = retime_to_period_reference(&g, &wd, c as u64);
                assert_eq!(fast, slow, "seed {seed} period {c}");
            }
            let c = *cands.last().unwrap();
            assert_eq!(
                solver.retime_to_period(c as u64),
                retime_to_period_reference(&g, &wd, c as u64),
                "loosening back to {c}"
            );
        }
    }

    #[test]
    fn min_period_matches_reference() {
        for seed in 0..25 {
            let g = random(seed + 100, 9);
            let wd = WdMatrices::compute(&g);
            let fast = RetimeSolver::new(&g, &wd).min_period();
            let slow = min_period_retiming_reference(&g, &wd);
            assert_eq!(fast.period, slow.period, "seed {seed}");
            assert_eq!(fast.retiming, slow.retiming, "seed {seed}");
        }
    }

    #[test]
    fn infeasible_below_bound() {
        let g = gen::chain_with_feedback(6, 2); // bound 3
        let wd = WdMatrices::compute(&g);
        let mut solver = RetimeSolver::new(&g, &wd);
        assert!(solver.retime_to_period(2).is_none());
        assert!(solver.retime_to_period(3).is_some());
        // Warm state survives an infeasible probe.
        assert!(solver.retime_to_period(2).is_none());
        assert!(solver.retime_to_period(4).is_some());
    }

    #[test]
    fn period_answers_match_the_dense_span_search() {
        use crate::span::min_span_retiming_reference;
        for seed in 0..20 {
            let g = random(seed + 40, 8);
            let wd = WdMatrices::compute(&g);
            let mut solver = RetimeSolver::new(&g, &wd);
            let opt = solver.min_period();
            for c in [opt.period, opt.period + 1] {
                let fast = solver.retime_to_period(c).unwrap();
                let slow = min_span_retiming_reference(&g, &wd, c).unwrap();
                assert_eq!(fast, slow, "seed {seed} period {c}");
            }
        }
    }

    #[test]
    fn solutions_satisfy_the_dense_system() {
        for seed in 0..10 {
            let g = random(seed + 7, 8);
            let wd = WdMatrices::compute(&g);
            let mut solver = RetimeSolver::new(&g, &wd);
            let opt = solver.min_period();
            let sys = constraints_for_period(&g, &wd, opt.period as i64);
            // The raw fixpoint (pre-normalization snapshot) satisfies every
            // constraint of the dense reference system.
            assert!(sys.satisfied_by(&solver.s.feas[..g.node_count()]));
        }
    }
}
