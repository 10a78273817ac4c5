//! Rotation scheduling (Chao–Sha): schedule-driven software pipelining.
//!
//! Each rotation takes the nodes in the first control step of the current
//! schedule and pushes one delay forward through them (`r(v) += 1` in the
//! paper's convention) — legal because first-row nodes have no zero-delay
//! incoming edges, so every incoming edge carries a delay to draw from.
//! The retimed graph is rescheduled; the shortest schedule seen wins.
//! Every rotation is a retiming, hence a software-pipelining step; the
//! resulting retiming feeds the CRED code generator exactly like one
//! produced by OPT.

use crate::list::{list_schedule, StaticSchedule};
use cred_dfg::{Dfg, MachineModel};
use cred_retime::Retiming;

/// Result of [`rotation_schedule`].
#[derive(Debug, Clone)]
pub struct RotationResult {
    /// The normalized retiming accumulated by the winning rotation count.
    pub retiming: Retiming,
    /// The winning schedule (of the retimed graph).
    pub schedule: StaticSchedule,
    /// Schedule length of the winning schedule.
    pub length: u64,
}

/// Run rotation scheduling for up to `rounds` rotations and return the best
/// (shortest) schedule found together with its retiming.
///
/// `rounds` is typically `|V| * Phi(G)`; rotation cycles through
/// configurations, so more rounds only cost time.
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override, like
/// [`list_schedule`].
pub fn rotation_schedule(g: &Dfg, m: &MachineModel, rounds: usize) -> RotationResult {
    let mut r = Retiming::zero(g.node_count());
    let sched0 = list_schedule(g, m);
    let mut best = RotationResult {
        length: sched0.length(),
        schedule: sched0,
        retiming: r.clone(),
    };
    let mut current = g.clone();
    for _ in 0..rounds {
        let sched = list_schedule(&current, m);
        // Rotate: push a delay through every first-row node.
        let first = sched.first_row();
        if first.len() == g.node_count() {
            // Whole body in one step: rotation is a no-op cycle.
            break;
        }
        for &v in &first {
            r.set(v, r.get(v) + 1);
        }
        debug_assert!(r.is_legal(g), "rotation must stay legal");
        current = r.apply(g);
        let sched = list_schedule(&current, m);
        if sched.length() < best.length {
            best = RotationResult {
                length: sched.length(),
                schedule: sched,
                retiming: r.clone(),
            };
        }
    }
    best.retiming.normalize();
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::{algo, gen, DfgBuilder};
    use cred_retime::min_period_retiming;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn figure1_rotation_reaches_period_one() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let bb = b.unit("B");
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        let g = b.build().unwrap();
        let res = rotation_schedule(&g, &MachineModel::unconstrained(), 8);
        assert_eq!(res.length, 1);
        // The winning retiming is Figure 1's r(A)=1, r(B)=0 (normalized).
        assert_eq!(res.retiming.get(a), 1);
        assert_eq!(res.retiming.get(bb), 0);
    }

    #[test]
    fn rotation_bounded_by_opt_and_initial_on_chains() {
        // Rotation is a heuristic: it always improves on (or matches) the
        // initial schedule and can never beat the OPT retiming period.
        for (k, d) in [(4usize, 4u32), (6, 2), (6, 3), (8, 4)] {
            let g = gen::chain_with_feedback(k, d);
            let opt = min_period_retiming(&g);
            let init = list_schedule(&g, &MachineModel::unconstrained()).length();
            let rot = rotation_schedule(&g, &MachineModel::unconstrained(), k * 8);
            assert!(rot.length >= opt.period, "chain ({k},{d})");
            assert!(rot.length <= init, "chain ({k},{d})");
        }
    }

    #[test]
    fn rotation_reaches_opt_when_delays_are_plentiful() {
        // With one delay per edge available, each rotation peels one row:
        // the heuristic reaches the optimal unit period.
        let g = gen::chain_with_feedback(4, 4);
        let opt = min_period_retiming(&g);
        assert_eq!(opt.period, 1);
        let rot = rotation_schedule(&g, &MachineModel::unconstrained(), 32);
        assert_eq!(rot.length, 1);
    }

    #[test]
    fn rotation_never_worse_than_initial_schedule() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..15 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 10,
                    max_time: 3,
                    ..Default::default()
                },
            );
            for m in [
                MachineModel::unconstrained(),
                MachineModel::with_units(2, 1),
            ] {
                let init = list_schedule(&g, &m).length();
                let rot = rotation_schedule(&g, &m, 40);
                assert!(rot.length <= init);
                // And the reported schedule verifies on the retimed graph.
                let gr = rot.retiming.apply(&g);
                rot.schedule.verify(&gr, &m).unwrap();
            }
        }
    }

    #[test]
    fn rotation_retiming_is_legal_and_normalized() {
        let g = gen::chain_with_feedback(5, 5);
        let res = rotation_schedule(&g, &MachineModel::unconstrained(), 30);
        assert!(res.retiming.is_legal(&g));
        assert!(res.retiming.is_normalized());
    }

    #[test]
    fn rotation_respects_resource_constraints() {
        // 5-node chain, plenty of delays, but only 1 ALU: the body can never
        // go below 5 steps regardless of retiming.
        let g = gen::chain_with_feedback(5, 5);
        let res = rotation_schedule(&g, &MachineModel::with_units(1, 1), 40);
        assert_eq!(res.length, 5);
    }

    #[test]
    fn rotation_length_lower_bounded_by_iteration_bound() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 8,
                    ..Default::default()
                },
            );
            let res = rotation_schedule(&g, &MachineModel::unconstrained(), 50);
            if let Some(b) = algo::iteration_bound(&g) {
                assert!(cred_dfg::Ratio::integer(res.length as i64) >= b);
            }
        }
    }
}
