//! The branch-and-bound exact scheduler and its optimality certificates.
//!
//! ## Problem
//!
//! Find the smallest initiation interval `II` for which the kernel admits
//! a *no-wrap* modulo schedule `sigma(v) = stage(v) * II + slot(v)` on
//! the given [`MachineModel`]:
//!
//! * **window** — `0 <= slot(v)` and `slot(v) + t(v) <= II` (every op
//!   runs inside one II window; `t` is the machine-effective time),
//! * **dependences** — for every edge `e(u -> v)` with `d(e)` delays,
//!   `sigma(v) >= sigma(u) + t(u) - II * d(e)`,
//! * **resources** — at most `units(c)` ops of class `c` in flight in
//!   any cycle (an op occupies one unit of its class for slots
//!   `slot(v) .. slot(v) + t(v)`), and at most `issue_width` ops with
//!   the same `slot` (one VLIW word issues per cycle).
//!
//! On the unconstrained machine the no-wrap model is *equivalent* to
//! retiming: a retiming with period `<= c` yields a no-wrap schedule at
//! `II = c` (take `stage = -r`, `slot =` ASAP start in the retimed
//! graph), and conversely `stage(v) = floor(sigma(v) / II)` turns any
//! no-wrap schedule into a legal retiming with period `<= II` (for an
//! edge, `II * d_r(e) >= slot(u) + t(u) - slot(v) > -II` forces
//! `d_r(e) >= 0`, and `d_r(e) = 0` forces `slot(v) >= slot(u) + t(u)`).
//! Hence the minimal `II` here equals `RetimeSolver::min_period` exactly
//! — the headline differential-test invariant.
//!
//! ## Search
//!
//! The solver walks the II ladder from 1 upward. Each rung is first
//! screened by arithmetic bounds (window, per-class occupancy, issue
//! width — each rejection is a closed-form [`Infeasible`] witness).
//!
//! A rung that passes the screens is then checked against the *period
//! constraints* of the machine-effective graph (the kernel with every
//! node's time replaced by [`MachineModel::op_time`]): one Bellman–Ford
//! over the stage constraints `stage(v) - stage(u) >= -d(e)` per edge and
//! `stage(v) - stage(u) >= 1 - W(u, v)` per pair with `D(u, v) > II`. The
//! `W`/`D` matrices are computed once per call, when a rung first gets
//! this far. This is the retiming feasibility system at period `II`, so
//! it is unsatisfiable exactly below the machine-effective retiming
//! bound; there a positive cycle of it is the rung's
//! [`PeriodCycle`](Infeasible::PeriodCycle) witness, each constraint
//! spelled out as the graph walk that implies it. Such a rung is never
//! searched, so [`Infeasible::Exhausted`] occurs only at or above the
//! bound.
//!
//! **Soundness.** Let `p: u ~> v` be a walk with `d(p)` delays and time
//! `t(p)` summed over its nodes, both ends included. Summing the
//! dependence constraints of its edges gives `sigma(v) - sigma(u) >=
//! t(p) - t(v) - II * d(p)`. Writing `sigma = stage * II + slot`, the
//! window bounds `slot(u) >= 0` and `slot(v) + t(v) <= II` give
//! `sigma(v) + t(v) - sigma(u) <= (stage(v) - stage(u) + 1) * II`.
//! Together, `(stage(v) - stage(u) + 1 + d(p)) * II >= t(p)`, and as
//! stages are integers, `stage(v) - stage(u) >= ceil(t(p) / II) - 1 -
//! d(p)`, which is at least `[t(p) > II] - d(p)` because `t(p) >= 1`.
//! Every no-wrap schedule therefore satisfies `stage(u) - stage(v) <=
//! d(p) - [t(p) > II]` along every walk, whatever the resources. Walks
//! that close up into a cycle sum their left sides to zero, so bounds
//! summing below zero rule the rung out. The `W`/`D` pair constraint is
//! this bound on the min-delay, max-time path, and the edge constraint is
//! its weakening `stage(u) - stage(v) <= d(e)`.
//!
//! When the system is satisfiable its solution is a retiming of period
//! at most `II`, and the ASAP slots along the edges it retimes to zero
//! delay form a schedule of the resource-free problem. Each node's ASAP
//! slot is where the search starts trying its slots, wrapping round the
//! window after it; on a machine that caps nothing this finds a schedule
//! with one trial per node.
//!
//! The search is exhaustive: branch on `slot(v)` per node (on-cycle
//! nodes first), check the modulo reservation table incrementally, and
//! assert the induced stage constraint `stage(v) - stage(u) >= q(e) -
//! d(e)` (where `q(e) = 1` iff `slot(v) < slot(u) + t(u)`, the exact
//! value of `ceil((slot(u) + t(u) - slot(v)) / II)` under the window
//! bounds) into a [`DiffEngine`] — DPLL-style propagation with trail
//! rollback on backtrack. After each placement two resource checks look
//! ahead over bitsets of the window, and a branch that fails either is
//! cut:
//!
//! * every unplaced op still has a slot where its class has a unit free
//!   for its whole time and the issue slot is free;
//! * for a class with one unit, the cycles no completion can cover fit
//!   the rung's slack `II - occupancy(class)`. A free run of the class
//!   holds at most the largest subset sum of the unplaced ops' times that
//!   fits in it, and the cycles at the head of a run whose issue slots
//!   are full stay empty, because an op covering one would have to start
//!   in that head.
//!
//! The ladder terminates: `II = sum_v t(v)` always admits the sequential
//! schedule (distinct slots in zero-delay topological order).
//!
//! Branch-and-bound work charges the [`Budget`] one unit per slot trial
//! and passes the `exact.branch` fail-point, so exhaustion and chaos
//! testing compose the same way as in the retiming solver.

use cred_dfg::{algo, Dfg, MachineModel, NodeId, OpClass, OP_CLASSES};
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{Budget, Exhausted};
use cred_retime::diff::DiffEngine;
use cred_retime::Retiming;
use std::fmt;

use crate::period::PeriodSystem;

/// Why one rung of the II ladder admits no schedule. Every variant is a
/// certificate: the first four are closed-form arithmetic facts
/// re-checkable without running the solver (see
/// [`check_witness`](crate::check::check_witness)), the last records
/// that a complete search exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Infeasible {
    /// Node `node`'s machine-effective time exceeds the II window:
    /// `time > ii`.
    OpExceedsWindow {
        /// Node index.
        node: u32,
        /// Machine-effective computation time of that node.
        time: u32,
    },
    /// Class `class` needs more unit-cycles per iteration than the
    /// machine has: `occupancy > ii * units`.
    ResourceCap {
        /// The oversubscribed class.
        class: OpClass,
        /// `sum` of machine-effective times over ops of the class.
        occupancy: u64,
        /// Units of the class per cycle.
        units: u32,
    },
    /// More ops than issue slots: `ops > ii * width`.
    IssueWidth {
        /// Total op count.
        ops: u64,
        /// VLIW issue width.
        width: u32,
    },
    /// A cycle of period constraints (see the [module docs](self)). Each
    /// segment is a walk `p: u ~> v` of graph edge ids that bounds
    /// `stage(u) - stage(v) <= d(p) - [t(p) > ii]`, where `d(p)` sums the
    /// edge delays and `t(p)` the machine-effective times of the walk's
    /// nodes, both ends included. Each segment ends where the next one
    /// starts, the last ends where the first starts, and the bounds sum
    /// below zero.
    PeriodCycle {
        /// The walks, in cycle order.
        segments: Vec<Vec<u32>>,
    },
    /// The branch-and-bound search visited the entire slot space and
    /// found no schedule (certificate by exhaustion).
    Exhausted {
        /// Slot trials performed on this rung.
        branches: u64,
    },
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Infeasible::OpExceedsWindow { node, time } => {
                write!(f, "op-window n{node} time {time}")
            }
            Infeasible::ResourceCap {
                class,
                occupancy,
                units,
            } => write!(
                f,
                "resource-cap {class} occupancy {occupancy} units {units}"
            ),
            Infeasible::IssueWidth { ops, width } => {
                write!(f, "issue-width ops {ops} width {width}")
            }
            Infeasible::PeriodCycle { segments } => {
                write!(f, "period-cycle")?;
                for (i, walk) in segments.iter().enumerate() {
                    write!(f, "{}", if i == 0 { " " } else { " / " })?;
                    for (j, e) in walk.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "e{e}")?;
                    }
                }
                Ok(())
            }
            Infeasible::Exhausted { branches } => {
                write!(f, "exhausted after {branches} branches")
            }
        }
    }
}

/// One rejected rung of the II ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedII {
    /// The initiation interval that was proven infeasible.
    pub ii: u64,
    /// The certificate.
    pub witness: Infeasible,
}

/// The product of the exact scheduler: the minimal-II schedule plus the
/// proof of minimality (one witness per rejected rung below `ii`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSchedule {
    /// The achieved (minimal) initiation interval.
    pub ii: u64,
    /// Issue slot per node, `0 <= slot(v) <= ii - t(v)`.
    pub slot: Vec<u32>,
    /// Pipeline stage per node (the difference-constraint solution).
    pub stage: Vec<i64>,
    /// Witnesses for every II in `1 .. ii`, in ladder order.
    pub rejected: Vec<RejectedII>,
    /// Total slot trials across all rungs.
    pub branches: u64,
}

impl ExactSchedule {
    /// The absolute schedule time `sigma(v) = stage(v) * ii + slot(v)`.
    pub fn sigma(&self, v: NodeId) -> i64 {
        self.stage[v.index()] * self.ii as i64 + self.slot[v.index()] as i64
    }

    /// The retiming this schedule's stages induce (normalized): delays
    /// pushed forward through ops of later stages. Legal for the graph
    /// whenever the schedule's dependences are legal, which is what
    /// plugs the exact scheduler into the CRED code generators and the
    /// VM oracle.
    pub fn stage_retiming(&self) -> Retiming {
        Retiming::from_stages(&self.stage)
    }
}

/// The resource-blind lower bound on the exact scheduler's II: the
/// minimum retiming period of `m`'s [machine-effective
/// graph](MachineModel::effective_graph) of `g`. No schedule on `m` has a
/// smaller II, and on a machine that caps no class and no issue width the
/// exact II equals it.
pub fn retiming_bound(g: &Dfg, m: &MachineModel) -> u64 {
    cred_retime::min_period_retiming(&m.effective_graph(g)).period
}

/// Schedule `g` on `m` with no budget. Panics only if a chaos plan
/// injects a fault (mirrors `RetimeSolver`'s unbudgeted entry points).
pub fn exact_schedule(g: &Dfg, m: &MachineModel) -> ExactSchedule {
    exact_schedule_budgeted(g, m, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("unbudgeted exact schedule interrupted: {e}"))
}

/// Schedule `g` on `m`, charging one budget unit per branch-and-bound
/// slot trial. On `Err` no partial schedule is returned — exhaustion is
/// all-or-nothing, the caller's state is untouched, and the solver
/// scratch is reusable.
pub fn exact_schedule_budgeted(
    g: &Dfg,
    m: &MachineModel,
    budget: &Budget,
) -> Result<ExactSchedule, Exhausted> {
    let t: Vec<u32> = g.node_ids().map(|v| m.op_time(g, v)).collect();
    Searcher::new(g, m, &t).run(budget)
}

/// 64 bits of `bits` from bit `pos` on, zeros past the end.
#[inline]
fn bits_from(bits: &[u64], pos: usize) -> u64 {
    let (w, b) = (pos / 64, pos % 64);
    let lo = bits.get(w).map_or(0, |x| x >> b);
    if b == 0 {
        lo
    } else {
        lo | bits.get(w + 1).map_or(0, |x| x << (64 - b))
    }
}

/// The first position at or after `from` whose bit equals `one`, or
/// `limit` if none comes before it.
#[inline]
fn next_bit(bits: &[u64], from: usize, limit: usize, one: bool) -> usize {
    let flip = if one { 0 } else { u64::MAX };
    let mut w = from / 64;
    let mut x = match bits.get(w) {
        Some(&b) => (b ^ flip) & (u64::MAX << (from % 64)),
        None => return limit,
    };
    loop {
        if x != 0 {
            return (w * 64 + x.trailing_zeros() as usize).min(limit);
        }
        w += 1;
        match bits.get(w) {
            Some(&b) => x = b ^ flip,
            None => return limit,
        }
    }
}

#[inline]
fn bit(bits: &[u64], pos: usize) -> bool {
    bits[pos / 64] >> (pos % 64) & 1 == 1
}

/// Per-run search state. The graph-shaped vectors are sized once; the
/// II-shaped tables are resized per rung.
struct Searcher<'g> {
    g: &'g Dfg,
    m: &'g MachineModel,
    /// Machine-effective time per node.
    t: &'g [u32],
    /// Class index per node.
    class: Vec<usize>,
    /// Units per class the reservation table enforces; `None` = uncapped.
    cap: [Option<u32>; OP_CLASSES],
    issue_width: Option<u32>,
    /// Branch order: on-cycle nodes first, zero-delay topological
    /// within each half (cycle nodes are where conflicts live; off-cycle
    /// nodes never force backtracking on unconstrained machines).
    order: Vec<u32>,
    /// Assigned slot per node; `-1` = unassigned.
    slot: Vec<i64>,
    /// First slot the search tries per node: the ASAP slot of the period
    /// system's retiming.
    first: Vec<u32>,
    /// Stage difference constraints (DPLL(T)-style theory core).
    engine: DiffEngine,
    /// The period constraints, built when a rung first passes the screens.
    period: Option<PeriodSystem<'g>>,
    /// Modulo reservation table: `occ[c * ii + s]` ops of class `c`
    /// in flight at slot `s`.
    occ: Vec<u32>,
    /// Ops issued per slot.
    issue: Vec<u32>,
    /// Forward checking is on: the machine caps some class or the issue
    /// width.
    lookahead: bool,
    /// Bitsets over the window, `words` words each: `free[c * words ..]`
    /// holds the slots where class `c` has a unit left, `issue_free` those
    /// with an issue slot left.
    words: usize,
    free: Vec<u64>,
    issue_free: Vec<u64>,
    /// Distinct `(class, time)` of the nodes, and `left[d * keys.len() +
    /// k]` = nodes of key `k` in `order[d..]`.
    keys: Vec<(usize, u32)>,
    left: Vec<u32>,
    /// Total time per class.
    occupancy: [u64; OP_CLASSES],
    /// For a one-unit class `c`: `n + 1` equal rows, row `d` the bitset of
    /// subset sums of the times of class-`c` nodes in `order[d..]`. Empty
    /// for the other classes.
    sums: [Vec<u64>; OP_CLASSES],
    /// Slot trials on the current rung / across the run.
    rung_branches: u64,
    total_branches: u64,
    /// The schedule found at a leaf.
    found: Option<(Vec<u32>, Vec<i64>)>,
}

impl<'g> Searcher<'g> {
    fn new(g: &'g Dfg, m: &'g MachineModel, t: &'g [u32]) -> Self {
        let n = g.node_count();
        let class: Vec<usize> = g.node_ids().map(|v| g.node(v).op.class().index()).collect();
        let topo = algo::topo::zero_delay_topo_order(g)
            .expect("exact scheduling requires a well-formed DFG");
        let sccs = algo::scc::strongly_connected_components(g);
        let mut order: Vec<u32> = topo
            .iter()
            .filter(|&&v| algo::scc::is_on_cycle(g, &sccs, v))
            .map(|v| v.0)
            .collect();
        order.extend(
            topo.iter()
                .filter(|&&v| !algo::scc::is_on_cycle(g, &sccs, v))
                .map(|v| v.0),
        );
        debug_assert_eq!(order.len(), n);
        // One phantom unit per class only while a mutation test arms the
        // `<=`-for-`<` off-by-one in the conflict check.
        let slack = u32::from(failpoint::armed(sites::MUTANT_RESERVATION_SLACK));
        let cap = OpClass::ALL.map(|c| m.units(c).map(|u| u + slack));
        let mut occupancy = [0u64; OP_CLASSES];
        for v in 0..n {
            occupancy[class[v]] += t[v] as u64;
        }
        let mut s = Searcher {
            g,
            m,
            t,
            class,
            cap,
            issue_width: m.issue_width,
            order,
            slot: vec![-1; n],
            first: vec![0; n],
            engine: DiffEngine::new(n),
            period: None,
            occ: Vec::new(),
            issue: Vec::new(),
            lookahead: m.issue_width.is_some() || cap.iter().any(Option::is_some),
            words: 0,
            free: Vec::new(),
            issue_free: Vec::new(),
            keys: Vec::new(),
            left: Vec::new(),
            occupancy,
            sums: Default::default(),
            rung_branches: 0,
            total_branches: 0,
            found: None,
        };
        if s.lookahead {
            s.index_unplaced();
        }
        s
    }

    /// Tabulate, per search depth, what the unplaced nodes `order[d..]`
    /// still need: node counts per `(class, time)` key, and subset sums of
    /// the times per one-unit class.
    fn index_unplaced(&mut self) {
        let n = self.order.len();
        for &v in &self.order {
            let key = (self.class[v as usize], self.t[v as usize]);
            if !self.keys.contains(&key) {
                self.keys.push(key);
            }
        }
        let nk = self.keys.len();
        self.left = vec![0; (n + 1) * nk];
        for d in (0..n).rev() {
            let v = self.order[d] as usize;
            let (head, tail) = self.left.split_at_mut((d + 1) * nk);
            head[d * nk..].copy_from_slice(&tail[..nk]);
            let k = self
                .keys
                .iter()
                .position(|&k| k == (self.class[v], self.t[v]));
            head[d * nk + k.expect("every node has a key")] += 1;
        }
        for c in 0..OP_CLASSES {
            if self.cap[c] != Some(1) {
                continue;
            }
            let sw = (self.occupancy[c] as usize + 1).div_ceil(64);
            let mut sums = vec![0u64; (n + 1) * sw];
            sums[n * sw] = 1;
            for d in (0..n).rev() {
                let v = self.order[d] as usize;
                let (head, tail) = sums.split_at_mut((d + 1) * sw);
                let (row, next) = (&mut head[d * sw..], &tail[..sw]);
                row.copy_from_slice(next);
                if self.class[v] == c {
                    // row |= next << t(v)
                    let t = self.t[v] as usize;
                    for (w, x) in row.iter_mut().enumerate() {
                        *x |= match (w * 64).checked_sub(t) {
                            Some(p) => bits_from(next, p),
                            None => next[0].checked_shl((t - w * 64) as u32).unwrap_or(0),
                        };
                    }
                }
            }
            self.sums[c] = sums;
        }
    }

    fn run(mut self, budget: &Budget) -> Result<ExactSchedule, Exhausted> {
        let n = self.g.node_count();
        assert!(n > 0, "exact scheduling requires a non-empty DFG");
        // Guaranteed-feasible ceiling: the sequential schedule.
        let ii_max: u64 = self.t.iter().map(|&t| t as u64).sum();
        let mut rejected = Vec::new();
        for ii in 1..=ii_max {
            match self.try_rung(ii, budget)? {
                Ok((slot, stage)) => {
                    return Ok(ExactSchedule {
                        ii,
                        slot,
                        stage,
                        rejected,
                        branches: self.total_branches,
                    });
                }
                Err(witness) => rejected.push(RejectedII { ii, witness }),
            }
        }
        unreachable!("II = sum of op times always admits the sequential schedule");
    }

    /// The closed-form screens of one rung.
    fn screen(&self, ii: u64) -> Option<Infeasible> {
        // Window screen.
        if let Some(v) = (0..self.t.len()).max_by_key(|&v| self.t[v]) {
            if self.t[v] as u64 > ii {
                return Some(Infeasible::OpExceedsWindow {
                    node: v as u32,
                    time: self.t[v],
                });
            }
        }
        // Per-class occupancy screen.
        for class in OpClass::ALL {
            let occupancy = self.occupancy[class.index()];
            if let Some(units) = self.m.units(class) {
                if occupancy > ii * units as u64 {
                    return Some(Infeasible::ResourceCap {
                        class,
                        occupancy,
                        units,
                    });
                }
            }
        }
        // Issue-width screen.
        if let Some(width) = self.issue_width {
            let ops = self.t.len() as u64;
            if ops > ii * width as u64 {
                return Some(Infeasible::IssueWidth { ops, width });
            }
        }
        None
    }

    /// One rung: static screens, the period constraints, then exhaustive
    /// search. The outer `Result` is budget exhaustion; the inner is rung
    /// feasibility.
    #[allow(clippy::type_complexity)]
    fn try_rung(
        &mut self,
        ii: u64,
        budget: &Budget,
    ) -> Result<Result<(Vec<u32>, Vec<i64>), Infeasible>, Exhausted> {
        if let Some(w) = self.screen(ii) {
            return Ok(Err(w));
        }
        let (g, m, t) = (self.g, self.m, self.t);
        let period = self
            .period
            .get_or_insert_with(|| PeriodSystem::new(g, m, t));
        if let Err(segments) = period.solve(ii, &mut self.first) {
            return Ok(Err(Infeasible::PeriodCycle { segments }));
        }
        // Exhaustive search.
        let n = self.g.node_count();
        let ii_us = ii as usize;
        self.slot.iter_mut().for_each(|s| *s = -1);
        self.engine.reset(n);
        self.occ.clear();
        self.occ.resize(OP_CLASSES * ii_us, 0);
        self.issue.clear();
        self.issue.resize(ii_us, 0);
        if self.lookahead {
            let words = ii_us.div_ceil(64);
            let window = |w: usize| match ii_us - w * 64 {
                r if r >= 64 => u64::MAX,
                r => (1 << r) - 1,
            };
            self.words = words;
            self.issue_free.clear();
            self.issue_free.extend((0..words).map(window));
            self.free.clear();
            self.free
                .extend((0..OP_CLASSES * words).map(|i| window(i % words)));
        }
        self.rung_branches = 0;
        self.found = None;
        let feasible = self.dfs(0, ii, budget)?;
        self.total_branches += self.rung_branches;
        if feasible {
            return Ok(Ok(self.found.take().expect("dfs success records a leaf")));
        }
        Ok(Err(Infeasible::Exhausted {
            branches: self.rung_branches,
        }))
    }

    fn dfs(&mut self, depth: usize, ii: u64, budget: &Budget) -> Result<bool, Exhausted> {
        if depth == self.order.len() {
            self.found = Some((
                self.slot.iter().map(|&s| s as u32).collect(),
                self.engine.values().to_vec(),
            ));
            return Ok(true);
        }
        let v = self.order[depth] as usize;
        let span = ii as i64 - self.t[v] as i64 + 1;
        let first = self.first[v] as i64;
        for k in 0..span {
            let s = if first + k < span {
                first + k
            } else {
                first + k - span
            };
            failpoint::hit(sites::EXACT_BRANCH)
                .map_err(|f| Exhausted::Injected { site: f.site })?;
            budget.charge(1)?;
            self.rung_branches += 1;
            if !self.reserve(v, s, ii) {
                continue;
            }
            if self.lookahead_ok(depth + 1, ii) {
                let cp = self.engine.checkpoint();
                if self.assert_edges(v, s) {
                    self.slot[v] = s;
                    if self.dfs(depth + 1, ii, budget)? {
                        return Ok(true);
                    }
                    self.slot[v] = -1;
                }
                self.engine.rollback(cp);
            }
            self.release(v, s);
        }
        Ok(false)
    }

    /// Try to reserve the modulo reservation table for `v` at slot `s`:
    /// one unit of `v`'s class for `s .. s + t(v)` plus one issue slot
    /// at `s`. Returns false (table untouched) on conflict.
    fn reserve(&mut self, v: usize, s: i64, ii: u64) -> bool {
        let ci = self.class[v];
        let (s, t) = (s as usize, self.t[v] as usize);
        let base = ci * ii as usize;
        if let Some(cap) = self.cap[ci] {
            if self.occ[base + s..base + s + t]
                .iter()
                .any(|&o| o + 1 > cap)
            {
                return false;
            }
        }
        if let Some(width) = self.issue_width {
            if self.issue[s] + 1 > width {
                return false;
            }
        }
        for q in s..s + t {
            self.occ[base + q] += 1;
            if self.lookahead && Some(self.occ[base + q]) == self.cap[ci] {
                self.free[ci * self.words + q / 64] &= !(1 << (q % 64));
            }
        }
        self.issue[s] += 1;
        if self.lookahead && Some(self.issue[s]) == self.issue_width {
            self.issue_free[s / 64] &= !(1 << (s % 64));
        }
        true
    }

    fn release(&mut self, v: usize, s: i64) {
        let ci = self.class[v];
        let (s, t) = (s as usize, self.t[v] as usize);
        let base = ci * self.issue.len();
        for q in s..s + t {
            self.occ[base + q] -= 1;
        }
        self.issue[s] -= 1;
        if self.lookahead {
            for q in s..s + t {
                self.free[ci * self.words + q / 64] |= 1 << (q % 64);
            }
            self.issue_free[s / 64] |= 1 << (s % 64);
        }
    }

    /// Resource forward checking for the nodes `order[d..]` still
    /// unplaced (see the module docs): false if some of them has no slot
    /// left, or a one-unit class must leave more cycles empty than the
    /// rung's slack allows.
    fn lookahead_ok(&self, d: usize, ii: u64) -> bool {
        if !self.lookahead || d == self.order.len() {
            return true;
        }
        let nk = self.keys.len();
        let words = self.words;
        for (&(c, t), &left) in self.keys.iter().zip(&self.left[d * nk..(d + 1) * nk]) {
            if left == 0 || (self.cap[c].is_none() && self.issue_width.is_none()) {
                continue;
            }
            let free = &self.free[c * words..(c + 1) * words];
            let fits = (0..words).any(|w| {
                let mut starts = self.issue_free[w];
                for k in 0..t as usize {
                    if starts == 0 {
                        break;
                    }
                    starts &= bits_from(free, w * 64 + k);
                }
                starts != 0
            });
            if !fits {
                return false;
            }
        }
        for c in 0..OP_CLASSES {
            if self.sums[c].is_empty() {
                continue;
            }
            let sw = self.sums[c].len() / (self.order.len() + 1);
            let sums = &self.sums[c][d * sw..(d + 1) * sw];
            if sums[0] == 1 && sums[1..].iter().all(|&x| x == 0) {
                continue; // nothing of the class left to place
            }
            // A mutation test can arm a bound one cycle too strict.
            let tightening = i64::from(failpoint::armed(sites::MUTANT_WASTE_TIGHTENING));
            let slack = ii as i64 - self.occupancy[c] as i64 - tightening;
            if self.waste(c, ii as usize, sums) > slack {
                return false;
            }
        }
        true
    }

    /// A lower bound on the cycles a one-unit class `c` leaves empty in
    /// any completion, given the subset sums of its unplaced ops' times.
    fn waste(&self, c: usize, ii: usize, sums: &[u64]) -> i64 {
        let free = &self.free[c * self.words..(c + 1) * self.words];
        let mut waste = 0usize;
        let mut pos = 0;
        loop {
            let a = next_bit(free, pos, ii, true);
            if a >= ii {
                break;
            }
            let b = next_bit(free, a, ii, false);
            let mut head = a;
            if self.issue_width.is_some() {
                while head < b && !bit(&self.issue_free, head) {
                    head += 1;
                }
            }
            // The largest subset sum that fits the rest of the run.
            let len = b - head;
            let top = len.min(sums.len() * 64 - 1);
            let mut w = top / 64;
            let mut x = sums[w] & (u64::MAX >> (63 - top % 64));
            while x == 0 {
                w -= 1;
                x = sums[w];
            }
            let best = w * 64 + 63 - x.leading_zeros() as usize;
            waste += b - a - best;
            pos = b;
        }
        waste as i64
    }

    /// Assert the stage constraints of every edge between `v` (slot `s`)
    /// and an already-assigned endpoint. On conflict returns false, and
    /// the caller rolls back to its checkpoint.
    fn assert_edges(&mut self, v: usize, s: i64) -> bool {
        for &e in self.g.in_edges(NodeId(v as u32)) {
            let ed = self.g.edge(e);
            let u = ed.src.index();
            let su = if u == v { s } else { self.slot[u] };
            if su < 0 {
                continue;
            }
            let q = i64::from(s < su + self.t[u] as i64);
            if !self.engine.assert_ge(u, v, q - ed.delay as i64) {
                return false;
            }
        }
        for &e in self.g.out_edges(NodeId(v as u32)) {
            let ed = self.g.edge(e);
            let w = ed.dst.index();
            if w == v {
                continue; // self-loop handled above
            }
            let sw = self.slot[w];
            if sw < 0 {
                continue;
            }
            let q = i64::from(sw < s + self.t[v] as i64);
            if !self.engine.assert_ge(v, w, q - ed.delay as i64) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{DfgBuilder, OpKind};

    /// Figure 1(a): A -> B (0 delays), B -> A (2 delays), unit times.
    fn two_node() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        let bb = b.node("B", 1, OpKind::Mul(2));
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        b.build().unwrap()
    }

    #[test]
    fn unconstrained_matches_retiming_min_period() {
        let g = two_node();
        let m = MachineModel::unconstrained();
        let s = exact_schedule(&g, &m);
        let opt = cred_retime::min_period_retiming(&g);
        assert_eq!(s.ii, opt.period as u64);
        assert_eq!(s.ii, 1);
        assert!(s.rejected.is_empty());
        crate::check::check_schedule(&g, &m, &s).unwrap();
    }

    #[test]
    fn scalar_machine_serializes_the_two_ops() {
        // One ALU + one MAC but issue width 1: the two ops cannot issue
        // in the same cycle, so II = 1 is impossible and II = 2 works.
        let g = two_node();
        let m = MachineModel::builtin("scalar").unwrap();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 2);
        assert_eq!(s.rejected.len(), 1);
        assert_eq!(
            s.rejected[0].witness,
            Infeasible::IssueWidth { ops: 2, width: 1 }
        );
        crate::check::check_schedule(&g, &m, &s).unwrap();
    }

    #[test]
    fn resource_cap_witnessed() {
        // Three independent MACs on one MAC unit with unlimited issue.
        let mut b = DfgBuilder::new();
        for i in 0..3 {
            let v = b.node(format!("M{i}"), 1, OpKind::Mul(0));
            b.edge(v, v, 1);
        }
        let g = b.build().unwrap();
        let mut m = MachineModel::unconstrained();
        m.set_units(OpClass::Mac, Some(1));
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 3);
        for r in &s.rejected {
            assert!(matches!(
                r.witness,
                Infeasible::ResourceCap {
                    class: OpClass::Mac,
                    occupancy: 3,
                    units: 1,
                }
            ));
            crate::check::check_witness(&g, &m, r).unwrap();
        }
        crate::check::check_schedule(&g, &m, &s).unwrap();
    }

    #[test]
    fn period_cycle_witnessed_without_search() {
        // Self-loop with time 4, one delay: II 1..3 reject via the window
        // screen, which sees every op longer than the II first.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 4, OpKind::Add(0));
        b.edge(a, a, 1);
        let g = b.build().unwrap();
        let m = MachineModel::unconstrained();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 4);
        for r in &s.rejected {
            assert!(matches!(r.witness, Infeasible::OpExceedsWindow { .. }));
            crate::check::check_witness(&g, &m, r).unwrap();
        }
        // A two-node cycle with total time 4, one delay: II 2..3 reject
        // via the period constraints, not the window, and are never
        // searched.
        let mut b = DfgBuilder::new();
        let x = b.node("X", 2, OpKind::Add(0));
        let y = b.node("Y", 2, OpKind::Add(0));
        b.edge(x, y, 0);
        b.edge(y, x, 1);
        let g = b.build().unwrap();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 4);
        assert_eq!(s.rejected.len(), 3);
        for r in &s.rejected[1..] {
            assert!(
                matches!(r.witness, Infeasible::PeriodCycle { .. }),
                "ii {} got {:?}",
                r.ii,
                r.witness
            );
            crate::check::check_witness(&g, &m, r).unwrap();
        }
        crate::check::check_schedule(&g, &m, &s).unwrap();
        // The seeded search places each node on its first trial.
        assert_eq!(s.branches, 2);
    }

    #[test]
    fn latency_override_lengthens_mac_ops() {
        // vliw2 gives MACs latency 2; a single MAC self-loop with 1
        // delay then needs II = 2 even though the node claims time 1.
        let mut b = DfgBuilder::new();
        let v = b.node("M", 1, OpKind::Mac(0));
        b.edge(v, v, 1);
        let g = b.build().unwrap();
        let m = MachineModel::builtin("vliw2").unwrap();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 2);
        crate::check::check_schedule(&g, &m, &s).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_all_or_nothing() {
        let g = two_node();
        let m = MachineModel::builtin("scalar").unwrap();
        let full = exact_schedule(&g, &m);
        // Find the exact trial count, then starve one unit below it.
        // (A fully unlimited budget skips the counter, so set a limit.)
        let need = {
            let b = Budget::unlimited().with_work_limit(u64::MAX);
            exact_schedule_budgeted(&g, &m, &b).unwrap();
            b.work_used()
        };
        assert_eq!(need, full.branches);
        for limit in [0, 1, need - 1] {
            let b = Budget::unlimited().with_work_limit(limit);
            match exact_schedule_budgeted(&g, &m, &b) {
                Err(Exhausted::WorkUnits { limit: l }) => assert_eq!(l, limit),
                other => panic!("expected WorkUnits exhaustion, got {other:?}"),
            }
        }
        let b = Budget::unlimited().with_work_limit(need);
        assert_eq!(exact_schedule_budgeted(&g, &m, &b).unwrap(), full);
    }

    #[test]
    fn retiming_bound_uses_machine_times() {
        // A single ALU self-loop of claimed time 15: the bound follows the
        // latency override, not the kernel's own time.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 15, OpKind::Add(0));
        b.edge(a, a, 1);
        let g = b.build().unwrap();
        assert_eq!(retiming_bound(&g, &MachineModel::unconstrained()), 15);
        let mut m = MachineModel::unconstrained();
        m.set_latency(OpClass::Alu, Some(1));
        assert_eq!(retiming_bound(&g, &m), 1);
    }

    #[test]
    fn stage_retiming_is_legal_and_matches_period() {
        let g = two_node();
        let s = exact_schedule(&g, &MachineModel::unconstrained());
        let r = s.stage_retiming();
        assert!(r.is_legal(&g));
        let gr = r.apply(&g);
        assert!(algo::cycle_period(&gr).unwrap() <= s.ii);
    }
}
