//! Minimum-period retiming of an `f`-unfolding by Leiserson–Saxe FEAS,
//! with no W/D matrices.
//!
//! [`FeasPlanner`] plans what [`crate::RetimeSolver`] plans for the
//! exploration engine, the rate-optimal period of the `f`-unfolding of a
//! graph and the minimum-span retiming of that period, from the retimed
//! graph alone. It never builds the unfolding: its edges come from
//! [`unfolded_edges`], in one CSR array per factor, and retimings are over
//! the unfolding's node ids (copy `j` of node `v` at `v * f + j`), the
//! contract of [`crate::RetimeSolver`].
//!
//! ## FEAS
//!
//! FEAS works on *lags*, the Leiserson–Saxe retiming `lag = -r`: raising
//! `lag(v)` by one moves a delay from each edge out of `v` to each edge
//! into it, so an edge `e = u -> v` carries `d(e) + lag(v) - lag(u)`
//! delays. From the all-zero lag, each round computes every node's
//! arrival time `Δ(v)`, the largest time of a zero-delay path of the
//! retimed unfolding ending at `v`, and raises the lag of every node with
//! `Δ(v) > c` by one. It stops when no node is above `c`: then the
//! retimed unfolding is legal with period at most `c`.
//!
//! Every raise is forced in every solution. Let `lag* >= 0` be legal with
//! period at most `c`, and `lag <= lag*` pointwise. A node `v` with
//! `Δ(v) > c` ends a zero-delay path `p = s ~> v` of time above `c`, so
//! `d(p) = lag(s) - lag(v)`, and `lag*` puts a delay on it: `d(p) +
//! lag*(v) - lag*(s) >= 1`. Hence `lag*(v) >= lag(v) + 1 + (lag*(s) -
//! lag(s)) >= lag(v) + 1`, and `lag <= lag*` survives the round. So FEAS
//! ends at the least non-negative lag of period `c`. A raise also keeps
//! the graph legal: an edge out of `v` that carried no delay leads to a
//! node whose arrival is above `c` too, which rises with `v`.
//!
//! That least lag is the solver's answer. By Leiserson–Saxe's
//! characterization a retiming is legal with period at most `c` exactly
//! when it solves the W/D system of period `c`, so FEAS and the solver
//! search the same set. With `r = -lag`, the least non-negative lag is the
//! pointwise-maximal non-positive solution `x*` the solver's fixpoint
//! reaches, and `max lag - lag` is `x* - min x*`, its normalized answer,
//! which has the minimum span of the period (see
//! [`crate::RetimeSolver::retime_to_period`]).
//!
//! ## Where the search starts
//!
//! Retiming keeps every cycle's delays, and the unfolding multiplies the
//! iteration bound `B` of the graph by `f`, so no retiming of the
//! unfolding has a period below `⌈f·B⌉` or below the longest node time
//! `t_max`. And some retiming has a period below `f·B + t_max`, so the
//! optimum is one of the integers `max(t_max, ⌈f·B⌉) ..= ⌈f·B⌉ + t_max -
//! 1`. The search probes the bottom first, which is the optimum on most
//! graphs. If it is refused, it bisects the rest for the least feasible
//! period, probing the top too rather than assuming it: at most
//! `⌈log2 t_max⌉ + 1` probes in all. A top that is refused panics, and the
//! exploration engine degrades such a plan to its reference solver. Each
//! probe runs FEAS from the all-zero lag.
//!
//! ## Refusing a period
//!
//! Leiserson–Saxe bound FEAS by `|V_f| - 1` rounds of raises: a period
//! still missed after them is infeasible. That backstop is slow on a
//! large unfolding, so each raise also records its *forcing constraint*
//! `lag(v) >= lag(s) + 1 - d(p)`, for `p = s ~> v` the zero-delay path of
//! time above `c` that forced it, which every solution meets (see above).
//! A node keeps the constraint of its latest raise. Around a cycle of
//! these constraints the lags cancel, so a cycle whose weights `1 - d(p)`
//! sum above zero has no solution, and the period is refused. In fact
//! every cycle the latest constraints close is positive. A raise sets
//! `lag(v) = lag(s) + w` from the lags at the start of its round, and lags
//! only rise, so summing around the cycle gives `sum w >= 0`. Equality
//! needs each source's lag unchanged since the raise it forced, that is,
//! each node's latest raise in an earlier round than the raise it forced,
//! which no cycle allows.
//! The check still adds the weights up before it refuses. After each
//! round it walks the constraints from the nodes that round raised, in
//! `O(|V_f|)`.
//!
//! ## Cost
//!
//! A round computes the arrivals once, over the unfolding's `|V_f|` nodes
//! and `|E_f|` edges, and charges `|V_f| + |E_f|` work units. A search
//! allocates nothing once [`FeasPlanner::with_capacity`] has sized it for
//! the largest unfolding, except its answers.

use crate::minperiod::MinPeriodResult;
use crate::span::{compact_greedy, CompactScratch};
use crate::Retiming;
use cred_dfg::algo::{iteration_bound, unfolded_edges, TopoScratch};
use cred_dfg::{Dfg, NodeId, Ratio};
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{Budget, Exhausted};

/// No forcing constraint: the node was never raised.
const NONE: u32 = u32::MAX;

/// One forcing constraint `lag(v) >= lag(s) + w`, over node ids of the
/// unfolding: `w = 1 - d(p)` for the zero-delay path `p = s ~> v` of time
/// above the probed period that forced `v`'s raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forcing {
    /// The raised node.
    pub v: u32,
    /// The first node of the path that forced the raise.
    pub s: u32,
    /// `1 - d(p)`.
    pub w: i64,
}

/// How a probe ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// FEAS reached a lag of period at most the probed one.
    Feasible,
    /// `|V_f| - 1` rounds of raises passed with the period still above it.
    RoundCap,
    /// A cycle of forcing constraints whose weights sum above zero:
    /// [`FeasPlanner::certificate`] lists it.
    Certificate {
        /// Offset of the cycle in the planner's certificate list.
        start: u32,
        /// Constraints on the cycle.
        len: u32,
    },
}

/// One probe of the last search: the period, the rounds of arrival times
/// computed, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The probed period.
    pub period: u64,
    /// Rounds run, each one computation of the arrival times.
    pub rounds: u32,
    /// How the probe ended.
    pub verdict: Verdict,
}

/// The `f`-unfolding of a graph as the planner stores it: node times and
/// the edges in CSR form.
#[derive(Debug, Default)]
struct Unfolding {
    /// Computation time of every node of the unfolding.
    time: Vec<i64>,
    /// The edges leaving node `x` are `arcs[first[x]..first[x + 1]]`, as
    /// (head, delay).
    first: Vec<u32>,
    arcs: Vec<(u32, u32)>,
    /// The next free slot of each row while the edges are placed.
    cursor: Vec<u32>,
}

impl Unfolding {
    /// Nodes of the unfolding: `f·|V|`.
    fn len(&self) -> usize {
        self.time.len()
    }

    /// Store the `f`-unfolding of `g`. Each copy of a node has the node's
    /// out-degree, so the row starts come from `g`'s degrees, and one pass
    /// over [`unfolded_edges`] places every edge in its source's row.
    fn build(&mut self, g: &Dfg, f: usize) {
        self.time.clear();
        self.first.clear();
        self.first.push(0);
        let mut end = 0;
        for v in g.node_ids() {
            for _ in 0..f {
                self.time.push(g.node(v).time as i64);
                end += g.out_edges(v).len() as u32;
                self.first.push(end);
            }
        }
        self.arcs.clear();
        self.arcs.resize(end as usize, (0, 0));
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.first[..self.time.len()]);
        for (src, dst, delay) in unfolded_edges(g, f) {
            self.arcs[self.cursor[src] as usize] = (dst as u32, delay);
            self.cursor[src] += 1;
        }
    }
}

/// Arrival times of a retimed unfolding: the largest time of a zero-delay
/// path ending at each node, and the first node of one such path, found in
/// Kahn's order over the zero-delay edges.
#[derive(Debug, Default)]
struct Arrivals {
    time: Vec<i64>,
    source: Vec<u32>,
    indeg: Vec<u32>,
    queue: Vec<u32>,
}

impl Arrivals {
    /// Compute the arrivals of `u` retimed by `r` (the paper's sign, so
    /// an edge `x -> y` carries `d + r(x) - r(y)` delays). Returns `false`
    /// as soon as an edge's retimed delay is negative or an arrival
    /// exceeds `cap`, leaving the arrivals unfinished. A legal retiming
    /// leaves the zero-delay edges acyclic, since retiming keeps every
    /// cycle's delays, so Kahn's order reaches every node.
    fn run(&mut self, u: &Unfolding, r: &[i64], cap: i64) -> bool {
        let n = u.len();
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for x in 0..n {
            for &(y, d) in &u.arcs[u.first[x] as usize..u.first[x + 1] as usize] {
                match d as i64 + r[x] - r[y as usize] {
                    0 => self.indeg[y as usize] += 1,
                    slack if slack < 0 => return false,
                    _ => {}
                }
            }
        }
        self.time.clear();
        self.time.extend_from_slice(&u.time);
        self.source.clear();
        self.source.extend(0..n as u32);
        self.queue.clear();
        self.queue
            .extend((0..n as u32).filter(|&x| self.indeg[x as usize] == 0));
        let mut head = 0;
        while let Some(&x) = self.queue.get(head) {
            head += 1;
            let x = x as usize;
            for &(y, d) in &u.arcs[u.first[x] as usize..u.first[x + 1] as usize] {
                let y = y as usize;
                if d as i64 + r[x] != r[y] {
                    continue;
                }
                let cand = self.time[x] + u.time[y];
                if cand > self.time[y] {
                    if cand > cap {
                        return false;
                    }
                    self.time[y] = cand;
                    self.source[y] = self.source[x];
                }
                self.indeg[y] -= 1;
                if self.indeg[y] == 0 {
                    self.queue.push(y as u32);
                }
            }
        }
        debug_assert_eq!(self.queue.len(), n, "the zero-delay edges close a cycle");
        true
    }
}

/// The buffers and the last search of the FEAS planner (see the [module
/// docs](self)): the unfolding, the retiming, arrival times and forcing
/// constraints of a probe, and compaction's working sets. They carry
/// capacity only: every search and compaction resets what it reads, so one
/// cut off half-way leaves nothing for the next.
#[derive(Debug, Default)]
pub struct FeasPlanner {
    unfolding: Unfolding,
    arrivals: Arrivals,
    /// The probe's retiming in the paper's sign, `r = -lag`.
    r: Vec<i64>,
    /// The retiming of the last feasible probe.
    best: Vec<i64>,
    /// The period of the unfolding itself, which every probe's first round
    /// computes.
    unretimed: i64,
    /// The nodes a round raises.
    raised: Vec<u32>,
    /// The latest forcing constraint of every node, as `(s, w)`.
    forcing: Vec<(u32, i64)>,
    /// Walk stamps of the certificate check.
    stamp: Vec<u64>,
    probes: Vec<Probe>,
    certificates: Vec<Forcing>,
    /// The graph check's zero-delay order and its buffers.
    topo: TopoScratch,
    order: Vec<NodeId>,
    compact: CompactScratch,
}

impl FeasPlanner {
    /// An empty planner; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A planner whose buffers hold a search and a compaction on the
    /// `max_f`-unfolding of `g`, or on any smaller one, without growing.
    pub fn with_capacity(g: &Dfg, max_f: usize) -> Self {
        let (n, e) = (g.node_count() * max_f, g.edge_count() * max_f);
        FeasPlanner {
            unfolding: Unfolding {
                time: Vec::with_capacity(n),
                first: Vec::with_capacity(n + 1),
                arcs: Vec::with_capacity(e),
                cursor: Vec::with_capacity(n),
            },
            arrivals: Arrivals {
                time: Vec::with_capacity(n),
                source: Vec::with_capacity(n),
                indeg: Vec::with_capacity(n),
                queue: Vec::with_capacity(n),
            },
            r: Vec::with_capacity(n),
            best: Vec::with_capacity(n),
            unretimed: 0,
            raised: Vec::with_capacity(n),
            forcing: Vec::with_capacity(n),
            stamp: Vec::with_capacity(n),
            // The search probes at most ⌈log2 t_max⌉ + 1 periods.
            probes: Vec::with_capacity(34),
            certificates: Vec::with_capacity(n),
            topo: TopoScratch::default(),
            order: Vec::with_capacity(g.node_count()),
            compact: CompactScratch::with_capacity(n),
        }
    }

    /// The minimum period of the `f`-unfolding of `g` and the
    /// minimum-span retiming reaching it, over the unfolding's node ids.
    /// Equal to [`crate::RetimeSolver::min_period`] on
    /// [`cred_dfg::algo::WdMatrices::compute_unfolded`]`(g, f)`.
    ///
    /// # Panics
    /// Panics on an empty or malformed graph, or if `f == 0`.
    pub fn min_period(&mut self, g: &Dfg, f: usize) -> MinPeriodResult {
        let bound = iteration_bound(g);
        self.min_period_budgeted(g, f, bound, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("unbudgeted search interrupted: {e}"))
    }

    /// [`Self::min_period`] under `budget`, given `g`'s iteration bound
    /// `bound` ([`iteration_bound()`]), which a caller
    /// planning several factors of one graph computes once. It hits the
    /// `retime.min_period` fault site at entry and `retime.spfa` once per
    /// probe, and charges `|V_f| + |E_f|` work units per round. `Err`
    /// means the budget ran out or a fault was injected: no answer is
    /// produced, and the planner stays usable.
    ///
    /// # Panics
    /// Panics on an empty or malformed graph, or if `f == 0`.
    pub fn min_period_budgeted(
        &mut self,
        g: &Dfg,
        f: usize,
        bound: Option<Ratio>,
        budget: &Budget,
    ) -> Result<MinPeriodResult, Exhausted> {
        failpoint::hit(sites::RETIME_MIN_PERIOD)
            .map_err(|f| Exhausted::Injected { site: f.site })?;
        budget.check()?;
        g.validate_with(&mut self.topo, &mut self.order)
            .expect("min_period_retiming requires a well-formed DFG");
        self.unfolding.build(g, f);
        self.unretimed = i64::MAX;
        self.probes.clear();
        self.certificates.clear();
        let t_max = g.node_ids().map(|v| g.node(v).time).max().unwrap_or(0) as i64;
        let fb = bound.map_or(0, |b| Ratio::new(b.num() * f as i64, b.den()).ceil());
        let first = t_max.max(fb);
        let top = first.max(fb + t_max - 1);
        if !self.probe(first, budget)? {
            // The least feasible period above `first`, with `hi = top + 1`
            // standing for "none found yet".
            let (mut lo, mut hi) = (first, top + 1);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if self.probe(mid, budget)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            assert!(
                hi <= top,
                "no period up to ⌈f·B⌉ + t_max - 1 = {top} is feasible"
            );
            return Ok(self.answer(hi));
        }
        Ok(self.answer(first))
    }

    /// The probes of the last search, in order.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// The cycle of forcing constraints that refused `probe`, each
    /// constraint's `s` the next one's `v` and the last one's `s` the
    /// first one's `v`; empty unless the verdict is
    /// [`Verdict::Certificate`].
    pub fn certificate(&self, probe: &Probe) -> &[Forcing] {
        match probe.verdict {
            Verdict::Certificate { start, len } => {
                &self.certificates[start as usize..(start + len) as usize]
            }
            _ => &[],
        }
    }

    /// [`crate::span::compact_values`] for `r`, a retiming of period at
    /// most `c` of the unfolding the last search planned, with the
    /// predicate "legal and `Φ(G_r) <= c`", which accepts exactly the
    /// assignments that solve the W/D system of period `c`. So it equals
    /// [`crate::RetimeSolver::compact`] on the same unfolding. Merging the
    /// last two values leaves a constant retiming, the unfolding as it is,
    /// whose period the search already found: on every bundled kernel at
    /// `f >= 2` those are the only assignments compaction tries.
    ///
    /// # Panics
    /// Panics if `r` does not have one value per node of that unfolding.
    pub fn compact(&mut self, c: u64, r: &Retiming) -> Retiming {
        let u = &self.unfolding;
        assert_eq!(r.len(), u.len(), "a retiming of another unfolding");
        let (arrivals, unretimed) = (&mut self.arrivals, self.unretimed);
        let satisfied = |x: &[i64]| match x.iter().all(|&v| v == x[0]) {
            // A constant retiming leaves every delay where it is.
            true => unretimed <= c as i64,
            false => arrivals.run(u, x, c as i64),
        };
        compact_greedy(r, satisfied, &mut self.compact)
    }

    /// Run FEAS at period `c` from the all-zero lag, log the probe, and
    /// keep the retiming in `best` when it is feasible.
    fn probe(&mut self, c: i64, budget: &Budget) -> Result<bool, Exhausted> {
        failpoint::hit(sites::RETIME_SPFA).map_err(|f| Exhausted::Injected { site: f.site })?;
        let n = self.unfolding.len();
        self.r.clear();
        self.r.resize(n, 0);
        self.forcing.clear();
        self.forcing.resize(n, (NONE, 0));
        self.stamp.clear();
        self.stamp.resize(n, 0);
        let mut stamp = 0;
        let work = (n + self.unfolding.arcs.len()) as u64;
        let mut rounds = 0;
        let verdict = loop {
            budget.charge(work)?;
            let legal = self.arrivals.run(&self.unfolding, &self.r, i64::MAX);
            debug_assert!(legal, "a raise broke legality");
            rounds += 1;
            let arrival = &self.arrivals.time;
            if rounds == 1 {
                self.unretimed = arrival.iter().copied().max().unwrap_or(0);
            }
            self.raised.clear();
            self.raised
                .extend((0..n as u32).filter(|&v| arrival[v as usize] > c));
            if self.raised.is_empty() {
                break Verdict::Feasible;
            }
            if rounds as usize >= n {
                // `|V_f| - 1` rounds of raises are done.
                break Verdict::RoundCap;
            }
            for &v in &self.raised {
                let (v, s) = (v as usize, self.arrivals.source[v as usize]);
                // The path `s ~> v` carries `lag(s) - lag(v) = r(v) - r(s)`
                // delays.
                self.forcing[v] = (s, 1 - (self.r[v] - self.r[s as usize]));
            }
            for &v in &self.raised {
                self.r[v as usize] -= 1;
            }
            if let Some(cycle) = self.positive_cycle(&mut stamp) {
                break cycle;
            }
        };
        self.probes.push(Probe {
            period: c as u64,
            rounds,
            verdict,
        });
        let feasible = verdict == Verdict::Feasible;
        if feasible {
            self.best.clear();
            self.best.extend_from_slice(&self.r);
        }
        Ok(feasible)
    }

    /// A cycle of forcing constraints through a node the last round
    /// raised whose weights sum above zero, recorded as a certificate. One
    /// walk per raised node follows the latest constraints, each step to
    /// the constraint's source, and stops at a node never raised or one an
    /// earlier walk of this round visited: those walks found no cycle
    /// there. Only this round's raises changed a constraint, so every new
    /// cycle passes through one of them.
    fn positive_cycle(&mut self, stamp: &mut u64) -> Option<Verdict> {
        let base = *stamp;
        for i in 0..self.raised.len() {
            *stamp += 1;
            let mut x = self.raised[i] as usize;
            loop {
                if self.stamp[x] == *stamp {
                    match self.certify(x) {
                        Some(verdict) => return Some(verdict),
                        None => break,
                    }
                }
                if self.stamp[x] > base {
                    break;
                }
                self.stamp[x] = *stamp;
                match self.forcing[x].0 {
                    NONE => break,
                    s => x = s as usize,
                }
            }
        }
        None
    }

    /// Record the cycle of forcing constraints through `x` and return it
    /// as a certificate when its weights sum above zero.
    fn certify(&mut self, x: usize) -> Option<Verdict> {
        let start = self.certificates.len();
        let (mut v, mut sum) = (x, 0);
        loop {
            let (s, w) = self.forcing[v];
            self.certificates.push(Forcing { v: v as u32, s, w });
            sum += w;
            v = s as usize;
            if v == x {
                break;
            }
        }
        if sum > 0 {
            let len = (self.certificates.len() - start) as u32;
            return Some(Verdict::Certificate {
                start: start as u32,
                len,
            });
        }
        self.certificates.truncate(start);
        None
    }

    /// The answer at period `c` from the retiming of its feasible probe:
    /// `r - min r`, which is `max lag - lag`.
    fn answer(&self, c: i64) -> MinPeriodResult {
        let min = self.best.iter().copied().min().unwrap_or(0);
        MinPeriodResult {
            retiming: Retiming::from_values(self.best.iter().map(|&x| x - min).collect()),
            period: c as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RetimeSolver;
    use cred_dfg::algo::WdMatrices;
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
    fn plans_match_the_wd_solver() {
        let mut planner = FeasPlanner::new();
        for seed in 0..30 {
            let g = random(seed, 3 + seed as usize % 8);
            for f in 1..=4 {
                let wd = WdMatrices::compute_unfolded(&g, f);
                let mut solver = RetimeSolver::new(&g, &wd);
                let slow = solver.min_period();
                let fast = planner.min_period(&g, f);
                assert_eq!(fast.period, slow.period, "seed {seed}, f = {f}");
                assert_eq!(fast.retiming, slow.retiming, "seed {seed}, f = {f}");
                assert_eq!(
                    planner.compact(fast.period, &fast.retiming),
                    solver.compact(slow.period, &slow.retiming),
                    "seed {seed}, f = {f}"
                );
            }
        }
    }

    #[test]
    fn a_ring_above_its_bound_is_refused_by_a_certificate() {
        // Two nodes of time 2 on one delay, B = 4, and a chain of four
        // nodes off it, so that the round cap is 6 rounds of raises. At
        // period 3 FEAS raises B, then A, and the two constraints close a
        // positive cycle.
        let mut b = cred_dfg::DfgBuilder::new();
        let (a, c) = (
            b.node("A", 2, cred_dfg::OpKind::Add(0)),
            b.node("B", 2, cred_dfg::OpKind::Add(0)),
        );
        b.edge(a, c, 0);
        b.edge(c, a, 1);
        let mut tail = a;
        for i in 0..4 {
            let x = b.unit(format!("X{i}"));
            b.edge(tail, x, 1);
            tail = x;
        }
        let g = b.build().unwrap();
        let mut planner = FeasPlanner::new();
        let opt = planner.min_period(&g, 1);
        assert_eq!(opt.period, 4);
        assert_eq!(planner.probes().len(), 1, "{:?}", planner.probes());
        // Probing 3 directly (below ⌈B⌉) needs a bound that admits it.
        let res = planner.min_period_budgeted(&g, 1, Some(Ratio::integer(3)), &Budget::unlimited());
        assert_eq!(res.unwrap().period, 4);
        let refused = planner.probes()[0];
        assert_eq!(refused.period, 3);
        let cycle = planner.certificate(&refused);
        assert!(matches!(refused.verdict, Verdict::Certificate { .. }));
        assert_eq!(cycle.len(), 2, "{cycle:?}");
        assert!(cycle.iter().map(|c| c.w).sum::<i64>() > 0);
    }

    #[test]
    fn a_search_cut_off_half_way_leaves_the_planner_usable() {
        let g = random(5, 9);
        let mut planner = FeasPlanner::with_capacity(&g, 3);
        let expected = planner.min_period(&g, 3);
        let bound = iteration_bound(&g);
        let starved = Budget::unlimited().with_work_limit(1);
        assert!(planner.min_period_budgeted(&g, 3, bound, &starved).is_err());
        let again = planner.min_period(&g, 3);
        assert_eq!(
            (again.period, again.retiming),
            (expected.period, expected.retiming)
        );
    }
}
