//! Machine-checkable per-transformation expectations.
//!
//! Every generator in this crate has closed-form static *and* dynamic
//! instruction counts implied by the paper's theorems: code size (§4),
//! register count (Theorem 4.3/4.7), loop trip count, and — for the
//! guarded CRED forms — exactly `n` enabled executions per node with the
//! rest nullified (Theorems 4.1/4.2/4.6). [`ExpectedCounts`] packages
//! those predictions so an external oracle (`cred-verify`) can compare
//! them against the generated [`LoopProgram`] and against what `cred-vm`
//! actually executed, with no hand-written per-case numbers.

use crate::cred::DecMode;
use crate::ir::LoopProgram;
use cred_dfg::Dfg;
use cred_retime::Retiming;
use cred_unfold::Unfolded;

/// Closed-form predictions for one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// Static instruction count ([`LoopProgram::code_size`]).
    pub code_size: usize,
    /// Static compute-instruction count ([`LoopProgram::compute_count`]).
    pub compute_count: usize,
    /// Distinct conditional registers ([`LoopProgram::register_count`]).
    pub registers: usize,
    /// Loop trip count (0 when the program has no loop).
    pub trip_count: u64,
    /// Guard-enabled compute executions: always `n * |V|`.
    pub computes_executed: u64,
    /// Guard-disabled compute executions (0 for unguarded programs).
    pub computes_nullified: u64,
}

/// Instances of the slot `s` that land in `1..=n` under retiming `r` —
/// the clipping rule shared by every prologue/epilogue emitter.
fn slot_count(g: &Dfg, r: &Retiming, s: i64, n: i64) -> usize {
    g.node_ids()
        .filter(|&v| (1..=n).contains(&(s + r.get(v))))
        .count()
}

impl ExpectedCounts {
    /// [`crate::pipeline::original_program`]: code size `L`, no guards.
    pub fn original(g: &Dfg, n: u64) -> ExpectedCounts {
        let l = g.node_count();
        ExpectedCounts {
            code_size: l,
            compute_count: l,
            registers: 0,
            trip_count: n,
            computes_executed: n * l as u64,
            computes_nullified: 0,
        }
    }

    /// [`crate::pipeline::pipelined_program`]: explicit prologue/kernel/
    /// epilogue; `L + |V| * M_r` for `n >= M_r`, clipped below that.
    pub fn pipelined(g: &Dfg, r: &Retiming, n: u64) -> ExpectedCounts {
        let l = g.node_count();
        let m = r.max_value();
        let n_i = n as i64;
        let pre: usize = ((1 - m)..=0).map(|s| slot_count(g, r, s, n_i)).sum();
        let trip = (n_i - m).max(0) as u64;
        let kernel = if trip > 0 { l } else { 0 };
        let post: usize = ((n_i - m + 1).max(1)..=n_i)
            .map(|s| slot_count(g, r, s, n_i))
            .sum();
        let size = pre + kernel + post;
        ExpectedCounts {
            code_size: size,
            compute_count: size,
            registers: 0,
            trip_count: trip,
            computes_executed: n * l as u64,
            computes_nullified: 0,
        }
    }

    /// [`crate::cred::cred_retime_unfold`]: guarded kernel only; size
    /// `f*L + P*(f+1)` (per-copy) or `f*L + 2P` (bulk); the loop visits
    /// `ceil((n + M_r + Q_head)/f)` iterations of `f*L` guarded computes,
    /// exactly `n*L` of which execute.
    pub fn cred_retime_unfold(
        g: &Dfg,
        r: &Retiming,
        f: usize,
        n: u64,
        mode: DecMode,
    ) -> ExpectedCounts {
        let l = g.node_count();
        let p = r.register_count();
        let m = r.max_value();
        let f_i = f as i64;
        let qhead = (f_i - m.rem_euclid(f_i)) % f_i;
        let total_slots = n as i64 + m + qhead;
        let trip = (total_slots + f_i - 1).div_euclid(f_i).max(0) as u64;
        let decs = match mode {
            DecMode::PerCopy => f * p,
            DecMode::Bulk => p,
        };
        let visited = trip * (f * l) as u64;
        let executed = n * l as u64;
        ExpectedCounts {
            code_size: f * l + p + decs,
            compute_count: f * l,
            registers: p,
            trip_count: trip,
            computes_executed: executed,
            computes_nullified: visited - executed,
        }
    }

    /// [`crate::cred::cred_pipelined`]: the `f = 1`, bulk special case —
    /// `L + 2 * P_r` (Theorem 4.3's `S_ret`).
    pub fn cred_pipelined(g: &Dfg, r: &Retiming, n: u64) -> ExpectedCounts {
        ExpectedCounts::cred_retime_unfold(g, r, 1, n, DecMode::Bulk)
    }

    /// [`crate::cred::cred_rotating`]: bulk CRED with hardware auto-
    /// decrement — all explicit decrements removed, `f*L + P`.
    pub fn cred_rotating(g: &Dfg, r: &Retiming, f: usize, n: u64) -> ExpectedCounts {
        let mut c = ExpectedCounts::cred_retime_unfold(g, r, f, n, DecMode::Bulk);
        c.code_size -= c.registers; // the P explicit Dec instructions
        c
    }

    /// [`crate::unfolded::retime_unfold_program`] (zero retiming:
    /// [`crate::unfolded::unfolded_program`]): prologue, `f`-copy kernel
    /// running `floor((n - M_r)/f)` times, leftover + epilogue
    /// straight-line. Every one of the `n·L` instances lands in exactly one
    /// slot, and the kernel stands for the `f·L` of each chunk, so the size
    /// is Theorem 4.5's `(M_r + f + (n - M_r) mod f)·L` when a chunk fits
    /// (`n - M_r >= f`), and `n·L` of straight-line code otherwise.
    ///
    /// # Panics
    /// Panics if `r` is not normalized, as the generator does.
    pub fn retime_unfold(g: &Dfg, r: &Retiming, f: usize, n: u64) -> ExpectedCounts {
        assert!(r.is_normalized(), "retiming must be normalized");
        let l = g.node_count();
        let m = r.max_value();
        let n_i = n as i64;
        let f_i = f as i64;
        let chunks = (n_i - m).max(0) / f_i;
        let size = if chunks >= 1 {
            (m + f_i + (n_i - m) % f_i) as usize * l
        } else {
            n as usize * l
        };
        ExpectedCounts {
            code_size: size,
            compute_count: size,
            registers: 0,
            trip_count: chunks.max(0) as u64,
            computes_executed: n * l as u64,
            computes_nullified: 0,
        }
    }

    /// [`crate::unfolded::unfold_retime_program`]: software-pipelined
    /// unfolded loop (`N = floor(n/f)` iterations) plus `n mod f`
    /// straight-line remainder iterations — Theorem 4.4's baseline.
    pub fn unfold_retime(g: &Dfg, u: &Unfolded, r_f: &Retiming, n: u64) -> ExpectedCounts {
        let l = g.node_count();
        let f_i = u.factor as i64;
        let big_n = n as i64 / f_i;
        let m = r_f.max_value();
        let pre: usize = ((1 - m)..=0)
            .map(|s| slot_count(&u.graph, r_f, s, big_n))
            .sum();
        let trip = (big_n - m).max(0) as u64;
        let kernel = if trip > 0 { u.factor * l } else { 0 };
        let epi: usize = ((big_n - m + 1).max(1)..=big_n)
            .map(|s| slot_count(&u.graph, r_f, s, big_n))
            .sum();
        let remainder = (n as usize % u.factor) * l;
        let size = pre + kernel + epi + remainder;
        ExpectedCounts {
            code_size: size,
            compute_count: size,
            registers: 0,
            trip_count: trip,
            computes_executed: n * l as u64,
            computes_nullified: 0,
        }
    }

    /// [`crate::cred::cred_unfold_retime`]: guarded unfolded kernel
    /// running `N + M_{f,r}` times plus straight-line remainder — size
    /// `f*L + 2*P_f + (n mod f)*L`; `M_{f,r} * f * L` computes nullified.
    pub fn cred_unfold_retime(g: &Dfg, u: &Unfolded, r_f: &Retiming, n: u64) -> ExpectedCounts {
        let l = g.node_count();
        let f = u.factor;
        let p_f = r_f.register_count();
        let big_n = n as i64 / f as i64;
        let m = r_f.max_value();
        let trip = (big_n + m).max(0) as u64;
        let remainder = (n as usize % f) * l;
        let visited = trip * (f * l) as u64;
        let in_loop = big_n as u64 * (f * l) as u64;
        ExpectedCounts {
            code_size: f * l + 2 * p_f + remainder,
            compute_count: f * l + remainder,
            registers: p_f,
            trip_count: trip,
            computes_executed: in_loop + remainder as u64,
            computes_nullified: visited - in_loop,
        }
    }

    /// Compare the static predictions against a generated program.
    pub fn check_static(&self, p: &LoopProgram) -> Result<(), String> {
        let mismatch = |what: &str, got: u64, want: u64| {
            Err(format!(
                "{}: {what} = {got}, closed form says {want}",
                p.name
            ))
        };
        if p.code_size() != self.code_size {
            return mismatch("code_size", p.code_size() as u64, self.code_size as u64);
        }
        if p.compute_count() != self.compute_count {
            return mismatch(
                "compute_count",
                p.compute_count() as u64,
                self.compute_count as u64,
            );
        }
        if p.register_count() != self.registers {
            return mismatch(
                "register_count",
                p.register_count() as u64,
                self.registers as u64,
            );
        }
        let trip = p.body.as_ref().map_or(0, |l| l.trip_count());
        if trip != self.trip_count {
            return mismatch("trip_count", trip, self.trip_count);
        }
        Ok(())
    }

    /// Compare the dynamic predictions against what the VM reported
    /// (`ExecResult::computes_executed` / `computes_nullified`).
    pub fn check_dynamic(&self, executed: u64, nullified: u64) -> Result<(), String> {
        if executed != self.computes_executed {
            return Err(format!(
                "computes_executed = {executed}, closed form says {}",
                self.computes_executed
            ));
        }
        if nullified != self.computes_nullified {
            return Err(format!(
                "computes_nullified = {nullified}, closed form says {}",
                self.computes_nullified
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{
        cred_pipelined, cred_retime_unfold, cred_rotating, cred_unfold_retime, cred_unfolded,
    };
    use crate::pipeline::{original_program, pipelined_program};
    use crate::unfolded::{retime_unfold_program, unfold_retime_program, unfolded_program};
    use cred_unfold::unfold;

    fn figure3_graph() -> Dfg {
        crate::pipeline::tests::figure3_graph().0
    }

    #[test]
    fn static_predictions_match_generators() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let zero = Retiming::zero(g.node_count());
        // Small n exercises the clipped (n < M_r) paths too.
        for n in [0u64, 1, 2, 3, 5, 10, 101] {
            ExpectedCounts::original(&g, n)
                .check_static(&original_program(&g, n))
                .unwrap();
            ExpectedCounts::pipelined(&g, &r, n)
                .check_static(&pipelined_program(&g, &r, n))
                .unwrap();
            ExpectedCounts::cred_pipelined(&g, &r, n)
                .check_static(&cred_pipelined(&g, &r, n))
                .unwrap();
            for f in 1..=4usize {
                for mode in [DecMode::PerCopy, DecMode::Bulk] {
                    ExpectedCounts::cred_retime_unfold(&g, &r, f, n, mode)
                        .check_static(&cred_retime_unfold(&g, &r, f, n, mode))
                        .unwrap();
                    ExpectedCounts::cred_retime_unfold(&g, &zero, f, n, mode)
                        .check_static(&cred_unfolded(&g, f, n, mode))
                        .unwrap();
                }
                ExpectedCounts::cred_rotating(&g, &r, f, n)
                    .check_static(&cred_rotating(&g, &r, f, n))
                    .unwrap();
                ExpectedCounts::retime_unfold(&g, &r, f, n)
                    .check_static(&retime_unfold_program(&g, &r, f, n))
                    .unwrap();
                ExpectedCounts::retime_unfold(&g, &zero, f, n)
                    .check_static(&unfolded_program(&g, f, n))
                    .unwrap();
                let u = unfold(&g, f);
                let opt = cred_retime::min_period_retiming(&u.graph);
                ExpectedCounts::unfold_retime(&g, &u, &opt.retiming, n)
                    .check_static(&unfold_retime_program(&g, &u, &opt.retiming, n))
                    .unwrap();
                ExpectedCounts::cred_unfold_retime(&g, &u, &opt.retiming, n)
                    .check_static(&cred_unfold_retime(&g, &u, &opt.retiming, n))
                    .unwrap();
            }
        }
    }

    #[test]
    fn dynamic_predictions_are_internally_consistent() {
        // Guarded visits = trip * body computes must decompose into
        // exactly n*L executed plus the predicted nullified count.
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        for n in [0u64, 3, 10, 101] {
            for f in 1..=4usize {
                let c = ExpectedCounts::cred_retime_unfold(&g, &r, f, n, DecMode::Bulk);
                assert_eq!(
                    c.computes_executed + c.computes_nullified,
                    c.trip_count * (f * g.node_count()) as u64
                );
                assert_eq!(c.computes_executed, n * g.node_count() as u64);
            }
        }
    }

    #[test]
    fn check_static_reports_deviations() {
        let g = figure3_graph();
        let n = 10;
        let mut p = original_program(&g, n);
        p.body.as_mut().unwrap().hi += 1; // one extra iteration
        let err = ExpectedCounts::original(&g, n)
            .check_static(&p)
            .unwrap_err();
        assert!(err.contains("trip_count"), "{err}");
    }

    #[test]
    fn check_dynamic_reports_deviations() {
        let g = figure3_graph();
        let c = ExpectedCounts::original(&g, 10);
        assert!(c.check_dynamic(50, 0).is_ok());
        assert!(c.check_dynamic(49, 0).unwrap_err().contains("executed"));
        assert!(c.check_dynamic(50, 1).unwrap_err().contains("nullified"));
    }
}
