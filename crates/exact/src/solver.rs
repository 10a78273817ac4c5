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
//! **Walk bounds.** On a machine that caps something, placing `v` at slot
//! `s` also bounds `v` against every placed `u` along whole walks, both
//! ways. The soundness argument above, with both slots known instead of
//! bounded by the window, gives on the min-delay, max-time walk `u ~> v`
//! the *slot-refined* bound
//!
//! `stage(v) - stage(u) >= ceil((slot(u) - s + D(u, v) - t(v)) / II) - W(u, v)`.
//!
//! The window bounds keep the numerator above `D(u, v) - II`, so this is
//! never weaker than the slot-free `[D(u, v) > II] - W(u, v)`; the search
//! asserts it into the engine where it is tighter than that and the
//! current stages violate it. It reaches through nodes not yet placed,
//! which an edge constraint cannot. Every constraint the engine holds runs
//! along a walk of the graph, so a cycle of them, the only way they can
//! conflict, stays inside one strongly connected component: only pairs
//! that reach each other get walk bounds. `W`/`D` come from the period
//! system, read once per call into a dense table. On a machine that caps
//! nothing the seeded search never backtracks, so it skips them.
//!
//! **Packing screen.** Before a rung that passes the period constraints is
//! searched, a second search asks whether the ops fit the window at all
//! under the unit caps and the issue width, with every dependence ignored.
//! It walks the slots in order and starts at each slot a multiset of ops
//! of the rung's `(class, time)` keys (ops of one key are interchangeable,
//! so each multiset is tried once), longest ops first. Before it moves
//! past a slot it checks that every op left can still start in time, and
//! that neither a capped class's time nor the op count exceeds the
//! unit-cycles and issue slots left. An op holds a unit of its class in
//! the cycle it issues, so when the issue width is unlimited, or every
//! class is capped and the caps sum to at most the width, the width never
//! binds and each capped class is packed by a search of its own (one
//! joint search would try every placement of one class before each dead
//! end of the other). If nothing fits, the rung is rejected with a
//! [`Packing`](Infeasible::Packing) witness, which
//! [`check_witness`](crate::check::check_witness) re-derives by its own
//! enumeration; [`Exhausted`](Infeasible::Exhausted) therefore means that
//! the ops pack but the dependences rule every packing out.
//!
//! **Schedules are unchanged by both cuts.** Every complete schedule meets
//! every walk bound and is a packing, so the cuts remove only branches
//! with no schedule below them, and the search tries the slots in the
//! same order: it reaches the same first leaf. The stages there are the
//! engine's least solution of what was asserted, and once every node is
//! placed the edge constraints imply every walk bound (summing them along
//! the walk, a sum of ceilings is at least the ceiling of the sum), so
//! the stages are the least solution of the edge constraints alone, as
//! before. Only trial counts change, and the witness of a rung that no
//! packing fits.
//!
//! The ladder terminates: `II = sum_v t(v)` always admits the sequential
//! schedule (distinct slots in zero-delay topological order).
//!
//! Branch-and-bound work charges the [`Budget`] one unit per packing or
//! slot trial and passes the `exact.branch` fail-point, so exhaustion and
//! chaos testing compose the same way as in the retiming solver.

use cred_dfg::{algo, Dfg, MachineModel, NodeId, OpClass, OP_CLASSES};
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{Budget, Exhausted};
use cred_retime::diff::DiffEngine;
use cred_retime::Retiming;
use std::fmt;

use crate::period::PeriodSystem;

/// Why one rung of the II ladder admits no schedule. Every variant is a
/// certificate: the first five are facts re-checkable without running the
/// solver (see [`check_witness`](crate::check::check_witness)), the last
/// records that a complete search exhausted.
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
    /// The ops do not fit the window even with every dependence ignored:
    /// no assignment of slots to the rung's `(class, time)` multiset
    /// keeps within the unit caps and the issue width.
    Packing {
        /// Packing trials performed on this rung.
        branches: u64,
    },
    /// The branch-and-bound search visited the entire slot space and
    /// found no schedule, although the ops alone pack: the dependences
    /// rule every packing out (certificate by exhaustion).
    Exhausted {
        /// Packing and slot trials performed on this rung.
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
            Infeasible::Packing { branches } => {
                write!(f, "packing after {branches} branches")
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
    /// Total packing and slot trials across all rungs.
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
/// packing or slot trial. On `Err` no partial schedule is returned —
/// exhaustion is all-or-nothing, the caller's state is untouched, and the
/// solver scratch is reusable.
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
    /// The strongly connected components of two or more nodes.
    components: Vec<Vec<NodeId>>,
    /// `(W(u, v), D(u, v))` at `u * n + v` for each pair `u != v` of one
    /// component, read from the period system when it is built. Left empty
    /// when the machine caps nothing.
    walks: Vec<Option<(i64, i64)>>,
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
    /// The packing screen's key order (longest time first), and its count
    /// of ops left per key and in all.
    pack_order: Vec<usize>,
    pack_left: Vec<u32>,
    pack_rest: u32,
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
        let components = sccs.into_iter().filter(|c| c.len() > 1).collect();
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
            components,
            walks: Vec::new(),
            occ: Vec::new(),
            issue: Vec::new(),
            lookahead: m.issue_width.is_some() || cap.iter().any(Option::is_some),
            words: 0,
            free: Vec::new(),
            issue_free: Vec::new(),
            keys: Vec::new(),
            left: Vec::new(),
            pack_order: Vec::new(),
            pack_left: Vec::new(),
            pack_rest: 0,
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
        self.pack_order = (0..nk).collect();
        self.pack_order
            .sort_by_key(|&k| (std::cmp::Reverse(self.keys[k].1), self.keys[k].0));
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
        if self.period.is_none() {
            let period = PeriodSystem::new(self.g, self.m, self.t);
            if self.lookahead {
                self.walks = period.walks(&self.components);
            }
            self.period = Some(period);
        }
        let period = self.period.as_mut().expect("built above");
        if let Err(segments) = period.solve(ii, &mut self.first) {
            return Ok(Err(Infeasible::PeriodCycle { segments }));
        }
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
        if self.lookahead && !self.packs(ii, budget)? {
            self.total_branches += self.rung_branches;
            return Ok(Err(Infeasible::Packing {
                branches: self.rung_branches,
            }));
        }
        // Exhaustive search.
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
            self.trial(budget)?;
            if !self.reserve(v, s, ii) {
                continue;
            }
            if self.lookahead_ok(depth + 1, ii) {
                let cp = self.engine.checkpoint();
                if self.assert_edges(v, s) && self.assert_walks(v, s, depth, ii) {
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

    /// Charge one packing or slot trial.
    #[inline(always)]
    fn trial(&mut self, budget: &Budget) -> Result<(), Exhausted> {
        failpoint::hit(sites::EXACT_BRANCH).map_err(|f| Exhausted::Injected { site: f.site })?;
        budget.charge(1)?;
        self.rung_branches += 1;
        Ok(())
    }

    /// The packing screen (see the module docs): whether the ops fit the
    /// window of `ii` under the unit caps and the issue width with every
    /// dependence ignored. Leaves the reservation table as it found it.
    fn packs(&mut self, ii: u64, budget: &Budget) -> Result<bool, Exhausted> {
        // A mutation test can arm a window one cycle short.
        let short = usize::from(failpoint::armed(sites::MUTANT_PACKING_WINDOW));
        let end = ii as usize - short;
        // An op holds a unit of its class in the cycle it issues, so when
        // the width is unlimited, or every class is capped and the caps sum
        // to at most the width, the width never binds and each capped class
        // packs on its own.
        let units: Option<u64> = self.cap.iter().map(|c| c.map(u64::from)).sum();
        if self
            .issue_width
            .is_some_and(|w| units.is_none_or(|u| u > u64::from(w)))
        {
            return self.pack_class(None, end, budget);
        }
        for c in 0..OP_CLASSES {
            if self.cap[c].is_some() && !self.pack_class(Some(c), end, budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Run the packing search over the ops of `class`, or of every class.
    fn pack_class(
        &mut self,
        class: Option<usize>,
        end: usize,
        budget: &Budget,
    ) -> Result<bool, Exhausted> {
        self.pack_left.clear();
        self.pack_left
            .extend(self.keys.iter().zip(&self.left).map(|(&(c, _), &left)| {
                if class.is_none_or(|k| k == c) {
                    left
                } else {
                    0
                }
            }));
        self.pack_rest = self.pack_left.iter().sum();
        self.pack(0, 0, end, budget)
    }

    /// Start at slot `s` one more op of a key at or after `pack_order[from]`
    /// (so each multiset of starts is tried once), or close the slot and
    /// go on to the next. `ii` is the end of the window.
    fn pack(
        &mut self,
        mut s: usize,
        mut from: usize,
        ii: usize,
        budget: &Budget,
    ) -> Result<bool, Exhausted> {
        loop {
            if self.pack_rest == 0 {
                return Ok(true);
            }
            for i in from..self.pack_order.len() {
                let k = self.pack_order[i];
                let (c, t) = (self.keys[k].0, self.keys[k].1 as usize);
                if self.pack_left[k] == 0 || s + t > ii || !self.pack_fits(c, t, s) {
                    continue;
                }
                self.trial(budget)?;
                self.pack_take(k, s, true);
                let fits = self.pack(s, i, ii, budget)?;
                self.pack_take(k, s, false);
                if fits {
                    return Ok(true);
                }
            }
            if s + 1 >= ii || !self.pack_bound(s + 1, ii) {
                return Ok(false);
            }
            (s, from) = (s + 1, 0);
        }
    }

    /// Whether an op of class `c` and time `t` can start at slot `s`.
    fn pack_fits(&self, c: usize, t: usize, s: usize) -> bool {
        let base = c * self.issue.len();
        self.issue_width.is_none_or(|w| self.issue[s] < w)
            && self.cap[c]
                .is_none_or(|cap| self.occ[base + s..base + s + t].iter().all(|&o| o < cap))
    }

    /// Start (or, with `take` false, withdraw) one op of key `k` at slot
    /// `s`.
    fn pack_take(&mut self, k: usize, s: usize, take: bool) {
        let (c, t) = (self.keys[k].0, self.keys[k].1 as usize);
        let base = c * self.issue.len();
        let step = |x: &mut u32| if take { *x += 1 } else { *x -= 1 };
        self.occ[base + s..base + s + t].iter_mut().for_each(step);
        step(&mut self.issue[s]);
        if take {
            self.pack_left[k] -= 1;
            self.pack_rest -= 1;
        } else {
            self.pack_left[k] += 1;
            self.pack_rest += 1;
        }
    }

    /// Whether the ops left can still fit slots `s .. ii`: each can start
    /// by the window's end, and neither a capped class's time nor the op
    /// count exceeds the unit-cycles and issue slots those slots have
    /// free.
    fn pack_bound(&self, s: usize, ii: usize) -> bool {
        let mut need = [0u64; OP_CLASSES];
        for (k, &left) in self.pack_left.iter().enumerate() {
            let (c, t) = self.keys[k];
            if left > 0 && s + t as usize > ii {
                return false;
            }
            need[c] += u64::from(left) * u64::from(t);
        }
        let cycles = self.issue.len();
        let classes_fit = (0..OP_CLASSES).all(|c| {
            self.cap[c].is_none_or(|cap| {
                let busy: u64 = self.occ[c * cycles + s..c * cycles + ii]
                    .iter()
                    .map(|&o| u64::from(o))
                    .sum();
                need[c] + busy <= u64::from(cap) * (ii - s) as u64
            })
        });
        classes_fit
            && self
                .issue_width
                .is_none_or(|w| u64::from(self.pack_rest) <= u64::from(w) * (ii - s) as u64)
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

    /// Assert the slot-refined walk bound between `v` (slot `s`) and each
    /// of the `depth` nodes placed before it, both ways, wherever it is
    /// tighter than the slot-free bound and the current stages violate it.
    /// On conflict returns false, and the caller rolls back to its
    /// checkpoint.
    fn assert_walks(&mut self, v: usize, s: i64, depth: usize, ii: u64) -> bool {
        if self.walks.is_empty() {
            return true;
        }
        let (n, ii) = (self.t.len(), ii as i64);
        // A mutation test can arm a bound one stage too strict.
        let tightening = i64::from(failpoint::armed(sites::MUTANT_WALK_TIGHTENING));
        for &u in &self.order[..depth] {
            let u = u as usize;
            let su = self.slot[u];
            for (a, b, sa, sb) in [(u, v, su, s), (v, u, s, su)] {
                let Some((w, d)) = self.walks[a * n + b] else {
                    continue;
                };
                // `sa - sb + d - t(b) > -ii` by the window bounds, so this is
                // the ceiling of its quotient by `ii`.
                let q = (sa - sb + d - self.t[b] as i64 + ii - 1) / ii + tightening;
                if q > i64::from(d > ii)
                    && self.engine.value(b) - self.engine.value(a) < q - w
                    && !self.engine.assert_ge(a, b, q - w)
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{DfgBuilder, OpKind};
    use rand::SeedableRng;

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

    /// Two ALU and two MAC ops of time 2, each on its own one-delay ring.
    fn four_twos() -> Dfg {
        let mut b = DfgBuilder::new();
        for (i, op) in [
            OpKind::Add(0),
            OpKind::Add(0),
            OpKind::Mul(0),
            OpKind::Mul(0),
        ]
        .into_iter()
        .enumerate()
        {
            let v = b.node(format!("V{i}"), 2, op);
            b.edge(v, v, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn packing_witnessed_without_slot_search() {
        // On the scalar machine II 4 passes every closed-form screen
        // (occupancy 4 per class, 4 ops on width 1) and the period
        // constraints, but each class must then be busy every cycle while
        // only one op issues per cycle: one class idles at cycle 0. II 5
        // fits (ALU at 0 and 2, MAC at 1 and 3).
        let g = four_twos();
        let m = MachineModel::builtin("scalar").unwrap();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 5);
        let rung = &s.rejected[3];
        assert_eq!(rung.ii, 4);
        assert!(
            matches!(rung.witness, Infeasible::Packing { branches } if branches > 0),
            "{}",
            rung.witness
        );
        for r in &s.rejected {
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
    fn packing_screen_splits_classes_the_issue_width_cannot_couple() {
        // A 14-node random graph on vliw4: its ALU ops (four of time 3,
        // three of time 4) must tile both ALU units for all 12 cycles. Two
        // units per class never fill the 4-wide issue, so each class packs
        // on its own; packing both classes in one search tried every MAC
        // placement before each ALU dead end, 183,921 trials in all.
        let cfg = cred_dfg::gen::RandomDfgConfig {
            nodes: 14,
            forward_edge_prob: 0.3,
            back_edges: 3,
            max_delay: 3,
            max_time: 4,
        };
        let g = cred_dfg::gen::random_dfg(&mut rand::rngs::StdRng::seed_from_u64(234), &cfg);
        let m = MachineModel::builtin("vliw4").unwrap();
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 12);
        assert!(s.branches <= 1_000, "{} trials", s.branches);
        crate::check::check_schedule(&g, &m, &s).unwrap();
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
