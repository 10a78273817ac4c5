//! Incremental difference-constraint engine with checkpoint/rollback.
//!
//! This is the propagation core `cred-exact`'s branch-and-bound scheduler
//! runs its dependence side on, factored into `cred-retime` because it is
//! the same mathematical object the retiming solvers work over: a system
//! of constraints `x_v - x_u >= w` is feasible iff its constraint graph
//! (edge `u -> v` of weight `w`) has no positive-weight cycle, exactly the
//! dual of the `r(u) - r(v) <= d(e) - 1`-style systems `ConstraintSystem`
//! and `RetimeSolver` solve in batch.
//!
//! The difference from those solvers is the *access pattern*: a
//! backtracking search asserts constraints one at a time, learns that some
//! branch is infeasible, and must cheaply restore the exact solver state
//! of an earlier decision level — the shape of difference-logic theory
//! solvers inside DPLL(T) SMT cores. [`DiffEngine`] therefore maintains a
//! satisfying assignment under single-constraint *assertion* via
//! queue-based incremental relaxation (values only ever increase), records
//! every value change on a trail, and exposes [`DiffEngine::checkpoint`] /
//! [`DiffEngine::rollback`] to unwind to any earlier level in time
//! proportional to the work being undone.
//!
//! ## Why assertion-time cycle detection is sound
//!
//! The engine keeps the invariant that `val` satisfies every asserted
//! constraint. Asserting `x_v - x_u >= w` when `val[v] < val[u] + w`
//! raises `val[v]` and propagates: a constraint can only become violated
//! because its source node was raised, so every propagation chain traces
//! back to the new edge `u -> v`. If the old system was feasible, any
//! positive cycle in the new system must use the new edge, i.e. pass
//! through `u` — so propagation raising `u` *is* the infeasibility proof.
//! Conversely if `u` is never raised, relaxation converges to the
//! longest-path fixpoint (values are bounded by longest paths from `v`,
//! which exist without positive cycles) and the invariant is restored.

use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Con {
    u: u32,
    v: u32,
    w: i64,
}

/// Undo record: `node` had `val` before it was raised.
#[derive(Debug, Clone, Copy)]
struct Trail {
    node: u32,
    val: i64,
}

/// A restore point for [`DiffEngine::rollback`]. Checkpoints must be
/// rolled back in LIFO order (a rollback invalidates every checkpoint
/// taken after the one being restored).
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    cons_len: usize,
    trail_len: usize,
}

/// Incremental solver for difference constraints `x_v - x_u >= w` over
/// variables `x_0 .. x_{n-1}`, maintaining a satisfying assignment (the
/// least one above the initial all-zero point) under assertion and
/// supporting trail-based rollback. See the module docs for the
/// algorithm; `cred-exact` drives this during branch-and-bound, and its
/// scratch (`Vec`s, queue) is reused across II ladder rungs via
/// [`DiffEngine::reset`].
#[derive(Debug, Default)]
pub struct DiffEngine {
    val: Vec<i64>,
    /// Outgoing constraint ids per source node.
    out: Vec<Vec<u32>>,
    cons: Vec<Con>,
    trail: Vec<Trail>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
}

impl DiffEngine {
    /// An engine over `n` variables, all starting at value 0.
    pub fn new(n: usize) -> Self {
        let mut e = Self::default();
        e.reset(n);
        e
    }

    /// Clear all constraints and values, resize to `n` variables, and
    /// keep the allocations (the warm-scratch idiom `RetimeSolver` uses).
    pub fn reset(&mut self, n: usize) {
        self.val.clear();
        self.val.resize(n, 0);
        for adj in &mut self.out {
            adj.clear();
        }
        self.out.resize(n, Vec::new());
        self.out.truncate(n);
        self.cons.clear();
        self.trail.clear();
        self.queue.clear();
        self.in_queue.clear();
        self.in_queue.resize(n, false);
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.val.len()
    }

    /// True if the engine has no variables.
    pub fn is_empty(&self) -> bool {
        self.val.is_empty()
    }

    /// Current value of `x_v`. The values form the least satisfying
    /// assignment with every variable `>= 0` — for `cred-exact` these are
    /// the pipeline stage numbers directly.
    #[inline]
    pub fn value(&self, v: usize) -> i64 {
        self.val[v]
    }

    /// The full current assignment.
    pub fn values(&self) -> &[i64] {
        &self.val
    }

    /// Number of constraints currently asserted.
    pub fn constraint_count(&self) -> usize {
        self.cons.len()
    }

    /// Take a restore point at the current decision level.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            cons_len: self.cons.len(),
            trail_len: self.trail.len(),
        }
    }

    /// Restore the engine to `cp`: retract every constraint asserted
    /// after it and unwind every value change, in reverse order.
    pub fn rollback(&mut self, cp: Checkpoint) {
        debug_assert!(cp.cons_len <= self.cons.len());
        debug_assert!(cp.trail_len <= self.trail.len());
        while self.trail.len() > cp.trail_len {
            let t = self.trail.pop().expect("trail length checked");
            self.val[t.node as usize] = t.val;
        }
        while self.cons.len() > cp.cons_len {
            let c = self.cons.pop().expect("cons length checked");
            let popped = self.out[c.u as usize].pop();
            debug_assert_eq!(popped, Some(self.cons.len() as u32));
        }
    }

    /// Assert `x_v - x_u >= w`.
    ///
    /// Returns true if the system stays feasible (the maintained
    /// assignment now satisfies the new constraint too). On infeasibility
    /// returns false and leaves the engine exactly as it was before the
    /// call — a failed assertion never needs a caller-side rollback.
    #[must_use]
    pub fn assert_ge(&mut self, u: usize, v: usize, w: i64) -> bool {
        debug_assert!(u < self.val.len() && v < self.val.len());
        if u == v {
            // x_u - x_u >= w: vacuous for w <= 0, a one-node positive
            // cycle otherwise.
            return w <= 0;
        }
        let cp = self.checkpoint();
        let cid = self.cons.len() as u32;
        self.cons.push(Con {
            u: u as u32,
            v: v as u32,
            w,
        });
        self.out[u].push(cid);
        if self.val[v] >= self.val[u] + w {
            return true; // already satisfied; nothing to propagate
        }
        self.raise(v as u32, self.val[u] + w);
        // Queue-based relaxation. Every queued node was raised; only its
        // outgoing constraints can have become violated. (The queue can
        // hold leftovers from a prior early-terminated propagation.)
        self.queue.clear();
        self.in_queue.iter_mut().for_each(|b| *b = false);
        self.queue.push_back(v as u32);
        self.in_queue[v] = true;
        while let Some(x) = self.queue.pop_front() {
            self.in_queue[x as usize] = false;
            for i in 0..self.out[x as usize].len() {
                let c = self.cons[self.out[x as usize][i] as usize];
                let target = self.val[c.u as usize] + c.w;
                if self.val[c.v as usize] < target {
                    if c.v as usize == u {
                        // Propagation reached the new edge's source:
                        // positive cycle through the new constraint.
                        self.rollback(cp);
                        return false;
                    }
                    self.raise(c.v, target);
                    if !self.in_queue[c.v as usize] {
                        self.queue.push_back(c.v);
                        self.in_queue[c.v as usize] = true;
                    }
                }
            }
        }
        true
    }

    fn raise(&mut self, node: u32, to: i64) {
        self.trail.push(Trail {
            node,
            val: self.val[node as usize],
        });
        self.val[node as usize] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_propagates_values() {
        let mut e = DiffEngine::new(3);
        assert!(e.assert_ge(0, 1, 2)); // x1 >= x0 + 2
        assert!(e.assert_ge(1, 2, 3)); // x2 >= x1 + 3
        assert_eq!(e.values(), &[0, 2, 5]);
        // Tighten the first hop; the chain re-propagates.
        assert!(e.assert_ge(0, 1, 4));
        assert_eq!(e.values(), &[0, 4, 7]);
    }

    #[test]
    fn zero_weight_cycle_is_feasible() {
        let mut e = DiffEngine::new(2);
        assert!(e.assert_ge(0, 1, 3));
        assert!(e.assert_ge(1, 0, -3));
        assert_eq!(e.value(1) - e.value(0), 3);
    }

    #[test]
    fn positive_cycle_detected() {
        let mut e = DiffEngine::new(3);
        assert!(e.assert_ge(0, 1, 1));
        assert!(e.assert_ge(1, 2, 1));
        let before = e.values().to_vec();
        assert!(!e.assert_ge(2, 0, -1));
        // Failed assertion must leave no trace.
        assert_eq!(e.values(), &before[..]);
        assert_eq!(e.constraint_count(), 2);
        // And the engine stays usable.
        assert!(e.assert_ge(2, 0, -2));
    }

    #[test]
    fn self_loop_positive_is_infeasible() {
        let mut e = DiffEngine::new(1);
        assert!(e.assert_ge(0, 0, 0));
        assert!(e.assert_ge(0, 0, -5));
        assert!(!e.assert_ge(0, 0, 2));
    }

    #[test]
    fn rollback_restores_values_and_constraints() {
        let mut e = DiffEngine::new(3);
        assert!(e.assert_ge(0, 1, 1));
        let cp = e.checkpoint();
        assert!(e.assert_ge(1, 2, 5));
        assert!(e.assert_ge(0, 1, 7));
        assert_eq!(e.values(), &[0, 7, 12]);
        e.rollback(cp);
        assert_eq!(e.values(), &[0, 1, 0]);
        assert_eq!(e.constraint_count(), 1);
        // A constraint retracted by rollback no longer propagates.
        assert!(e.assert_ge(0, 1, 2));
        assert_eq!(e.values(), &[0, 2, 0]);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut e = DiffEngine::new(2);
        assert!(e.assert_ge(0, 1, 9));
        e.reset(4);
        assert_eq!(e.len(), 4);
        assert_eq!(e.values(), &[0, 0, 0, 0]);
        assert_eq!(e.constraint_count(), 0);
        assert!(e.assert_ge(3, 0, 1));
        assert_eq!(e.value(0), 1);
    }

    /// Randomized cross-check against a dense Bellman–Ford ground truth:
    /// feasibility must agree at every step, and the maintained assignment
    /// must satisfy every accepted constraint.
    #[test]
    fn randomized_against_dense_reference() {
        // Tiny deterministic LCG; no external RNG needed here.
        let mut state = 0x12345678u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            let n = 2 + next(5) as usize;
            let mut e = DiffEngine::new(n);
            let mut kept: Vec<(usize, usize, i64)> = Vec::new();
            for _ in 0..12 {
                let u = next(n as u64) as usize;
                let v = next(n as u64) as usize;
                let w = next(7) as i64 - 3;
                let feasible_with = dense_feasible(n, kept.iter().copied().chain([(u, v, w)]));
                if e.assert_ge(u, v, w) {
                    assert!(feasible_with, "engine accepted an infeasible system");
                    kept.push((u, v, w));
                    for (i, (a, b, ww)) in kept.iter().copied().enumerate() {
                        assert!(
                            e.value(b) - e.value(a) >= ww,
                            "constraint {i} violated by maintained assignment"
                        );
                    }
                } else {
                    assert!(!feasible_with, "engine rejected a feasible system");
                }
            }
        }
    }

    fn dense_feasible(n: usize, cons: impl IntoIterator<Item = (usize, usize, i64)>) -> bool {
        let cons: Vec<_> = cons.into_iter().collect();
        let mut val = vec![0i64; n];
        for _ in 0..=cons.len() * n {
            let mut changed = false;
            for &(u, v, w) in &cons {
                if val[v] < val[u] + w {
                    val[v] = val[u] + w;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }
}
