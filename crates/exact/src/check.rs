//! Independent validation of schedules and infeasibility witnesses.
//!
//! Everything here is written straight from the definitions in the
//! [`solver`](crate::solver) docs — no shared code with the search, no
//! reservation tables, no difference engine — so `cred-verify` can use
//! it as the fifth oracle layer without inheriting solver bugs (the
//! mutation tests depend on this independence).
//!
//! A [`PeriodCycle`](Infeasible::PeriodCycle) witness is re-derived from
//! the graph and [`MachineModel::op_time`] alone: each segment must be a
//! walk of consecutive edges, each must end where the next begins (the
//! last where the first begins), and the per-walk bounds `delay - [time >
//! ii]`, with `time` counting both ends of the walk, must sum below zero.
//! The `W`/`D` matrices and the Bellman–Ford run that found the cycle are
//! never consulted. The soundness argument is in the
//! [`solver`](crate::solver) docs.

use cred_dfg::{Dfg, EdgeId, MachineModel, NodeId, OpClass, OP_CLASSES};

use crate::solver::{ExactSchedule, Infeasible, RejectedII};

/// Check that `sched` is a legal schedule of `g` on `m`: window bounds,
/// per-class and issue-width resource limits, and every dependence.
/// Returns a human-readable description of the first violation.
pub fn check_schedule(g: &Dfg, m: &MachineModel, sched: &ExactSchedule) -> Result<(), String> {
    let n = g.node_count();
    let ii = sched.ii;
    if ii < 1 {
        return Err("ii must be at least 1".into());
    }
    if sched.slot.len() != n || sched.stage.len() != n {
        return Err(format!(
            "schedule covers {} slots / {} stages for {n} nodes",
            sched.slot.len(),
            sched.stage.len()
        ));
    }
    // Window bounds.
    for v in g.node_ids() {
        let t = m.op_time(g, v) as u64;
        let s = sched.slot[v.index()] as u64;
        if s + t > ii {
            return Err(format!(
                "node {v} at slot {s} with time {t} overflows the II window {ii}"
            ));
        }
    }
    // Resources, rebuilt from scratch.
    let mut occ = vec![0u32; OP_CLASSES * ii as usize];
    let mut issue = vec![0u32; ii as usize];
    for v in g.node_ids() {
        let ci = g.node(v).op.class().index();
        let s = sched.slot[v.index()] as usize;
        for q in s..s + m.op_time(g, v) as usize {
            occ[ci * ii as usize + q] += 1;
        }
        issue[s] += 1;
    }
    for class in OpClass::ALL {
        if let Some(units) = m.units(class) {
            for s in 0..ii as usize {
                let used = occ[class.index() * ii as usize + s];
                if used > units {
                    return Err(format!("slot {s} runs {used} {class} ops on {units} units"));
                }
            }
        }
    }
    if let Some(width) = m.issue_width {
        for (s, &used) in issue.iter().enumerate() {
            if used > width {
                return Err(format!("slot {s} issues {used} ops on width {width}"));
            }
        }
    }
    // Dependences: sigma(v) >= sigma(u) + t(u) - ii * d(e).
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let su = sched.sigma(ed.src);
        let sv = sched.sigma(ed.dst);
        let t = m.op_time(g, ed.src) as i64;
        if sv < su + t - ii as i64 * ed.delay as i64 {
            return Err(format!(
                "edge {e} ({} -> {}) violated: sigma {sv} < {su} + {t} - {ii} * {}",
                ed.src, ed.dst, ed.delay
            ));
        }
    }
    Ok(())
}

/// Check one rejected rung's certificate arithmetically. Closed-form and
/// period-cycle witnesses are fully re-derived from the graph and
/// machine; an [`Infeasible::Exhausted`] witness is certificate-by-search
/// and only its plausibility (at least one trial) is checkable.
pub fn check_witness(g: &Dfg, m: &MachineModel, rejected: &RejectedII) -> Result<(), String> {
    let ii = rejected.ii;
    match &rejected.witness {
        Infeasible::OpExceedsWindow { node, time } => {
            let v = NodeId(*node);
            if *node as usize >= g.node_count() {
                return Err(format!("witness node n{node} out of range"));
            }
            if m.op_time(g, v) != *time {
                return Err(format!(
                    "witness time {time} != machine time {} of {v}",
                    m.op_time(g, v)
                ));
            }
            if u64::from(*time) <= ii {
                return Err(format!("time {time} fits the II window {ii}"));
            }
            Ok(())
        }
        Infeasible::ResourceCap {
            class,
            occupancy,
            units,
        } => {
            if m.units(*class) != Some(*units) {
                return Err(format!("machine has {:?} {class} units", m.units(*class)));
            }
            let actual: u64 = g
                .node_ids()
                .filter(|&v| g.node(v).op.class() == *class)
                .map(|v| m.op_time(g, v) as u64)
                .sum();
            if actual != *occupancy {
                return Err(format!(
                    "witness occupancy {occupancy} != actual {actual} for {class}"
                ));
            }
            if *occupancy <= ii * u64::from(*units) {
                return Err(format!(
                    "occupancy {occupancy} fits {ii} cycles of {units} {class} units"
                ));
            }
            Ok(())
        }
        Infeasible::IssueWidth { ops, width } => {
            if m.issue_width != Some(*width) {
                return Err(format!("machine issue width is {:?}", m.issue_width));
            }
            if *ops != g.node_count() as u64 {
                return Err(format!("witness ops {ops} != {} nodes", g.node_count()));
            }
            if *ops <= ii * u64::from(*width) {
                return Err(format!("{ops} ops fit {ii} cycles of width {width}"));
            }
            Ok(())
        }
        Infeasible::PeriodCycle { segments } => check_period_cycle(g, m, ii, segments),
        Infeasible::Exhausted { branches } => {
            if *branches == 0 {
                return Err("exhausted search performed no trials".into());
            }
            Ok(())
        }
    }
}

/// The [`Infeasible::PeriodCycle`] arm of [`check_witness`]: every walk
/// is consecutive, each ends where the next begins (cyclically), and the
/// per-walk bounds `delay - [time > ii]` sum below zero, with `time`
/// counting both ends of the walk.
fn check_period_cycle(
    g: &Dfg,
    m: &MachineModel,
    ii: u64,
    segments: &[Vec<u32>],
) -> Result<(), String> {
    if segments.is_empty() {
        return Err("empty period cycle".into());
    }
    let mut ends = Vec::with_capacity(segments.len());
    let mut sum = 0i64;
    for (i, walk) in segments.iter().enumerate() {
        let Some((&first, _)) = walk.split_first() else {
            return Err(format!("segment {i} is an empty walk"));
        };
        if let Some(&e) = walk.iter().find(|&&e| e as usize >= g.edge_count()) {
            return Err(format!("witness edge e{e} out of range"));
        }
        let start = g.edge(EdgeId(first)).src;
        let mut at = start;
        let mut time = 0u64;
        let mut delay = 0i64;
        for &e in walk {
            let ed = g.edge(EdgeId(e));
            if ed.src != at {
                return Err(format!(
                    "segment {i} broken: e{e} starts at {} but the walk is at {at}",
                    ed.src
                ));
            }
            time += u64::from(m.op_time(g, at));
            delay += i64::from(ed.delay);
            at = ed.dst;
        }
        time += u64::from(m.op_time(g, at));
        sum += delay - i64::from(time > ii);
        ends.push((start, at));
    }
    for (i, &(_, end)) in ends.iter().enumerate() {
        let next = ends[(i + 1) % ends.len()].0;
        if end != next {
            return Err(format!(
                "segments do not close: segment {i} ends at {end} but the next starts at {next}"
            ));
        }
    }
    if sum >= 0 {
        return Err(format!("period bounds sum to {sum}, not below zero"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::exact_schedule;
    use cred_dfg::{DfgBuilder, OpKind};

    fn two_node() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        let bb = b.node("B", 1, OpKind::Mul(2));
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        b.build().unwrap()
    }

    #[test]
    fn checker_rejects_tampered_schedules() {
        let g = two_node();
        let m = MachineModel::builtin("scalar").unwrap();
        let good = exact_schedule(&g, &m);
        check_schedule(&g, &m, &good).unwrap();

        // Same slot for both ops: issue width 1 violated.
        let mut bad = good.clone();
        bad.slot = vec![0, 0];
        assert!(check_schedule(&g, &m, &bad).is_err());

        // Slot past the window.
        let mut bad = good.clone();
        bad.slot[0] = bad.ii as u32;
        assert!(check_schedule(&g, &m, &bad).is_err());

        // Stage tampering that breaks the zero-delay dependence.
        let mut bad = good.clone();
        bad.stage[1] -= 1;
        assert!(check_schedule(&g, &m, &bad).is_err());
    }

    #[test]
    fn checker_rejects_tampered_witnesses() {
        let g = two_node();
        let m = MachineModel::builtin("scalar").unwrap();
        let s = exact_schedule(&g, &m);
        let good = &s.rejected[0];
        check_witness(&g, &m, good).unwrap();

        // Claiming the same witness one rung higher must fail (2 ops fit
        // two cycles of width 1).
        let mut bad = good.clone();
        bad.ii = 2;
        assert!(check_witness(&g, &m, &bad).is_err());

        // Lying about the machine.
        let wrong = MachineModel::builtin("vliw4").unwrap();
        assert!(check_witness(&g, &wrong, good).is_err());
    }

    /// X -> Y (0 delays), Y -> X (1 delay), both of time 2: the cycle needs
    /// II 4, so II 2 and 3 fail the period constraints.
    fn slow_ring() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.node("X", 2, OpKind::Add(0));
        let y = b.node("Y", 2, OpKind::Add(0));
        b.edge(x, y, 0);
        b.edge(y, x, 1);
        b.build().unwrap()
    }

    #[test]
    fn checker_rejects_tampered_period_cycles() {
        let g = slow_ring();
        let m = MachineModel::unconstrained();
        let ok = |segments: Vec<Vec<u32>>, ii: u64| {
            check_witness(
                &g,
                &m,
                &RejectedII {
                    ii,
                    witness: Infeasible::PeriodCycle { segments },
                },
            )
        };
        // Two walks X -> Y (e0: delay 0, time 4 > 3, bound -1) and Y -> X
        // (e1: delay 1, time 4 > 3, bound 0) sum to -1.
        ok(vec![vec![0], vec![1]], 3).unwrap();
        // A wrong II: at 4 neither walk's time exceeds it, so the bounds
        // are 0 and 1.
        assert!(ok(vec![vec![0], vec![1]], 4).is_err());
        // A broken walk: e0 ends at Y, and e0 again starts at X.
        assert!(ok(vec![vec![0, 0], vec![1]], 3).is_err());
        // Walks that do not close: X -> Y only, and X -> Y twice.
        assert!(ok(vec![vec![0]], 3).is_err());
        assert!(ok(vec![vec![0], vec![0]], 3).is_err());
        // An edge that does not exist, and empty walks.
        assert!(ok(vec![vec![0], vec![7]], 3).is_err());
        assert!(ok(vec![vec![0], vec![]], 3).is_err());
        assert!(ok(vec![], 3).is_err());
        // A wrong sum: the whole cycle as one walk X -> Y -> X has delay 1
        // and time 6 > 3, so its bound is 0, not below zero.
        assert!(ok(vec![vec![0, 1]], 3).is_err());
        // The solver's own witnesses re-check.
        let s = exact_schedule(&g, &m);
        assert_eq!(s.ii, 4);
        for r in &s.rejected[1..] {
            assert!(matches!(r.witness, Infeasible::PeriodCycle { .. }));
            check_witness(&g, &m, r).unwrap();
        }
    }
}
