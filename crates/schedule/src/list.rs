//! ASAP and resource-constrained list scheduling of one loop iteration.
//!
//! Only intra-iteration (zero-delay) dependencies constrain the schedule of
//! a single iteration; inter-iteration edges are honored by the loop
//! structure itself. The schedule length of the zero-retiming schedule
//! equals the cycle period `Phi(G)` when resources are unlimited.

use crate::assert_units_only;
use cred_dfg::{algo, Dfg, MachineModel, NodeId, OpClass, OP_CLASSES};

/// A static schedule: a start control step per node. Node `v` occupies
/// steps `start(v) .. start(v) + t(v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticSchedule {
    starts: Vec<u64>,
    length: u64,
}

impl StaticSchedule {
    /// Start step of `v`.
    #[inline]
    pub fn start(&self, v: NodeId) -> u64 {
        self.starts[v.index()]
    }

    /// Total schedule length (control steps for one iteration).
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Raw start times, indexed by node.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// Nodes that start in the first control step — the candidates rotation
    /// scheduling retimes.
    pub fn first_row(&self) -> Vec<NodeId> {
        (0..self.starts.len() as u32)
            .map(NodeId)
            .filter(|v| self.starts[v.index()] == 0)
            .collect()
    }

    /// Group nodes by start step (for display and tests).
    pub fn rows(&self) -> Vec<Vec<NodeId>> {
        let mut rows = vec![Vec::new(); self.length as usize];
        for (i, &s) in self.starts.iter().enumerate() {
            rows[s as usize].push(NodeId(i as u32));
        }
        rows
    }

    /// Verify the schedule against `g` and `m`: every zero-delay edge's
    /// consumer starts after its producer finishes, and no control step
    /// oversubscribes a bounded class (a node occupies its unit for
    /// `t(v)` consecutive steps).
    ///
    /// # Panics
    /// Panics if `m` sets an issue width or a latency override.
    pub fn verify(&self, g: &Dfg, m: &MachineModel) -> Result<(), String> {
        assert_units_only(m, "schedule verification");
        for e in g.edge_ids() {
            let ed = g.edge(e);
            if ed.delay == 0 {
                let fin = self.start(ed.src) + g.node(ed.src).time as u64;
                if self.start(ed.dst) < fin {
                    return Err(format!(
                        "zero-delay dependence violated: {} finishes at {fin}, {} starts at {}",
                        g.node(ed.src).name,
                        g.node(ed.dst).name,
                        self.start(ed.dst)
                    ));
                }
            }
        }
        let mut usage = vec![[0u64; OP_CLASSES]; self.length as usize];
        for v in g.node_ids() {
            let class = g.node(v).op.class();
            let Some(limit) = m.units(class) else {
                continue;
            };
            for step in self.start(v)..self.start(v) + g.node(v).time as u64 {
                let used = &mut usage[step as usize][class.index()];
                *used += 1;
                if *used > limit as u64 {
                    return Err(format!(
                        "step {step} uses {used} {class} units, limit {limit}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// ASAP schedule without resource constraints. Its length equals the cycle
/// period `Phi(G)`.
pub fn asap_schedule(g: &Dfg) -> StaticSchedule {
    let order = algo::zero_delay_topo_order(g).expect("well-formed DFG");
    let mut starts = vec![0u64; g.node_count()];
    let mut length = 0;
    for &v in &order {
        let mut s = 0;
        for &e in g.in_edges(v) {
            let ed = g.edge(e);
            if ed.delay == 0 {
                s = s.max(starts[ed.src.index()] + g.node(ed.src).time as u64);
            }
        }
        starts[v.index()] = s;
        length = length.max(s + g.node(v).time as u64);
    }
    StaticSchedule { starts, length }
}

/// Resource-constrained list scheduling.
///
/// Priority: the *height* of a node (longest zero-delay path from the node
/// to any sink, inclusive) — critical-path-first. Units are non-pipelined:
/// a node occupies one unit of its class for `t(v)` consecutive steps.
/// A class without a cap never delays an op, so on a machine that caps
/// nothing the result is the [`asap_schedule`].
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override.
pub fn list_schedule(g: &Dfg, m: &MachineModel) -> StaticSchedule {
    assert_units_only(m, "list scheduling");
    let order = algo::zero_delay_topo_order(g).expect("well-formed DFG");
    // Heights for priority.
    let mut height = vec![0u64; g.node_count()];
    for &v in order.iter().rev() {
        let mut h = 0;
        for &e in g.out_edges(v) {
            let ed = g.edge(e);
            if ed.delay == 0 {
                h = h.max(height[ed.dst.index()]);
            }
        }
        height[v.index()] = h + g.node(v).time as u64;
    }
    let n = g.node_count();
    let mut remaining_preds = vec![0usize; n];
    for e in g.edge_ids() {
        let ed = g.edge(e);
        if ed.delay == 0 {
            remaining_preds[ed.dst.index()] += 1;
        }
    }
    // ready_at[v]: earliest step v may start given finished predecessors.
    let mut ready_at = vec![0u64; n];
    let mut ready: Vec<NodeId> = g
        .node_ids()
        .filter(|v| remaining_preds[v.index()] == 0)
        .collect();
    let mut starts = vec![u64::MAX; n];
    let mut scheduled = 0usize;
    let mut step: u64 = 0;
    // units[class]: the step each unit of the class is busy until. No
    // more units than the class has ops can ever be busy at once, so the
    // table never grows with the machine's unit count.
    let mut class_ops = [0usize; OP_CLASSES];
    for v in g.node_ids() {
        class_ops[g.node(v).op.class().index()] += 1;
    }
    let mut units: [Vec<u64>; OP_CLASSES] = OpClass::ALL.map(|c| {
        let ops = class_ops[c.index()];
        vec![0u64; m.units(c).map_or(ops, |u| ops.min(u as usize))]
    });
    let mut length = 0u64;
    while scheduled < n {
        // Issue as many ready ops as resources allow at `step`,
        // critical-path-first.
        ready.sort_unstable_by_key(|v| std::cmp::Reverse(height[v.index()]));
        let mut next_ready: Vec<NodeId> = Vec::new();
        let mut newly_ready: Vec<NodeId> = Vec::new();
        for &v in &ready {
            if ready_at[v.index()] > step {
                next_ready.push(v);
                continue;
            }
            let class = g.node(v).op.class();
            let t = g.node(v).time as u64;
            let slot = units[class.index()].iter_mut().find(|busy| **busy <= step);
            match slot {
                Some(busy) => {
                    *busy = step + t;
                    starts[v.index()] = step;
                    length = length.max(step + t);
                    scheduled += 1;
                    for &e in g.out_edges(v) {
                        let ed = g.edge(e);
                        if ed.delay == 0 {
                            let d = &mut remaining_preds[ed.dst.index()];
                            *d -= 1;
                            ready_at[ed.dst.index()] = ready_at[ed.dst.index()].max(step + t);
                            if *d == 0 {
                                newly_ready.push(ed.dst);
                            }
                        }
                    }
                }
                None => next_ready.push(v),
            }
        }
        ready = next_ready;
        ready.extend(newly_ready);
        step += 1;
        debug_assert!(step <= g.total_time() * 2 + n as u64, "scheduler stuck");
    }
    StaticSchedule { starts, length }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{gen, DfgBuilder, OpKind};

    fn units(alu: u32, mac: u32) -> MachineModel {
        MachineModel::with_units(alu, mac)
    }
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn asap_length_equals_cycle_period() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 12,
                    max_time: 4,
                    ..Default::default()
                },
            );
            let s = asap_schedule(&g);
            assert_eq!(Some(s.length()), algo::cycle_period(&g));
            s.verify(&g, &MachineModel::unconstrained()).unwrap();
            assert_eq!(list_schedule(&g, &MachineModel::unconstrained()), s);
        }
    }

    #[test]
    fn figure2_static_schedule() {
        // Figure 1(a)/2(a): A then B, two control steps.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        let g = b.build().unwrap();
        let s = asap_schedule(&g);
        assert_eq!(s.length(), 2);
        assert_eq!(s.start(a), 0);
        assert_eq!(s.start(bb), 1);
        assert_eq!(s.first_row(), vec![a]);
    }

    #[test]
    fn retimed_figure2_single_step() {
        // Figure 1(b)/2(b): after retiming, A and B are independent.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 1);
        b.edge(bb, a, 1);
        let g = b.build().unwrap();
        let s = asap_schedule(&g);
        assert_eq!(s.length(), 1);
        assert_eq!(s.rows(), vec![vec![a, bb]]);
    }

    #[test]
    fn resource_limit_serializes_independent_ops() {
        // 4 independent unit adds on 1 ALU take 4 steps; on 2 ALUs, 2 steps.
        let mut b = DfgBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.unit(format!("a{i}"))).collect();
        b.edge(n[0], n[0], 1); // keep graph cyclic-free but add a delay edge
        let g = b.build().unwrap();
        let s1 = list_schedule(&g, &units(1, 1));
        assert_eq!(s1.length(), 4);
        s1.verify(&g, &units(1, 1)).unwrap();
        let s2 = list_schedule(&g, &units(2, 1));
        assert_eq!(s2.length(), 2);
        s2.verify(&g, &units(2, 1)).unwrap();
    }

    #[test]
    fn mixed_classes_do_not_contend() {
        // 2 adds + 2 muls on a (1 ALU, 1 MUL) machine: 2 steps.
        let mut b = DfgBuilder::new();
        b.node("a0", 1, OpKind::Add(0));
        b.node("a1", 1, OpKind::Add(0));
        b.node("m0", 1, OpKind::Mul(0));
        let m1 = b.node("m1", 1, OpKind::Mul(0));
        b.edge(m1, m1, 1);
        let g = b.build().unwrap();
        let s = list_schedule(&g, &units(1, 1));
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn non_unit_times_occupy_units() {
        // Two independent 3-cycle muls on one multiplier: length 6.
        let mut b = DfgBuilder::new();
        b.node("m0", 3, OpKind::Mul(0));
        let m1 = b.node("m1", 3, OpKind::Mul(0));
        b.edge(m1, m1, 1);
        let g = b.build().unwrap();
        let s = list_schedule(&g, &units(1, 1));
        assert_eq!(s.length(), 6);
        s.verify(&g, &units(1, 1)).unwrap();
    }

    #[test]
    fn dependences_respected_under_pressure() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 15,
                    max_time: 3,
                    forward_edge_prob: 0.35,
                    ..Default::default()
                },
            );
            for m in [units(1, 1), units(2, 1), units(3, 2)] {
                let s = list_schedule(&g, &m);
                s.verify(&g, &m).expect("schedule must verify");
                // Resource-constrained length is never shorter than ASAP.
                assert!(s.length() >= asap_schedule(&g).length());
            }
        }
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn issue_capped_machine_is_refused() {
        // The builtin scalar core issues one op per cycle; list scheduling
        // caps units only, so it must refuse the model, not ignore the cap.
        let g = gen::chain_with_feedback(3, 1);
        let _ = list_schedule(&g, &MachineModel::builtin("scalar").unwrap());
    }

    #[test]
    #[should_panic(expected = "latency overrides")]
    fn latency_override_is_refused() {
        let mut m = units(1, 1);
        m.set_latency(OpClass::Mac, Some(2));
        let g = gen::chain_with_feedback(3, 1);
        let _ = list_schedule(&g, &m);
    }

    #[test]
    fn more_units_never_hurt() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 12,
                    ..Default::default()
                },
            );
            let narrow = list_schedule(&g, &units(1, 1)).length();
            let wide = list_schedule(&g, &units(4, 4)).length();
            assert!(wide <= narrow);
            // The busy table is sized by ops, not by the unit count, and
            // never binds at the largest count a machine holds.
            let huge = list_schedule(&g, &units(u32::MAX, u32::MAX));
            assert_eq!(huge, asap_schedule(&g));
        }
    }
}
