//! A static cycle model on top of the VLIW bundler: estimated execution
//! cycles = words(pre) + trips * words(body) + words(post) (single-cycle
//! fetch packets, perfect memory). Used to check the paper's "without
//! jeopardizing the performance" claim with end-to-end numbers rather
//! than free-slot counting alone.

use crate::bundle::{bundle, BundleStats};
use crate::ir::LoopProgram;
use cred_dfg::MachineModel;

/// Cycle estimate for one program on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEstimate {
    /// Static word counts per region.
    pub words: BundleStats,
    /// Loop trip count.
    pub trips: u64,
    /// Total estimated cycles.
    pub cycles: u64,
}

/// Estimate execution cycles of `p` on machine `m`.
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override, like
/// [`bundle`].
pub fn estimate_cycles(p: &LoopProgram, m: &MachineModel) -> CycleEstimate {
    let words = bundle(p, m);
    let trips = p.body.as_ref().map_or(0, |l| l.trip_count());
    CycleEstimate {
        words,
        trips,
        cycles: words.pre_words as u64 + trips * words.body_words as u64 + words.post_words as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{cred_pipelined, cred_rotating};
    use crate::pipeline::tests::{figure3_graph, figure3_retiming};
    use crate::pipeline::{original_program, pipelined_program};
    use cred_retime::Retiming;

    fn figure3() -> (cred_dfg::Dfg, Retiming) {
        (figure3_graph().0, figure3_retiming())
    }

    #[test]
    fn pipelining_speeds_up_the_loop() {
        // Original: 4 words/iteration; pipelined: 1 word/iteration.
        let (g, r) = figure3();
        let n = 1000u64;
        let m = &MachineModel::with_units(6, 2);
        let orig = estimate_cycles(&original_program(&g, n), m);
        let pip = estimate_cycles(&pipelined_program(&g, &r, n), m);
        assert!(pip.cycles * 3 < orig.cycles, "~4x speedup expected");
    }

    #[test]
    fn cred_performance_close_to_pipelined() {
        // The paper's claim: CRED costs little performance. Here the CRED
        // kernel needs one extra word for the decrements (the ALU slots
        // are nearly full) and runs M_r extra iterations.
        let (g, r) = figure3();
        let n = 1000u64;
        let m = &MachineModel::with_units(6, 2);
        let pip = estimate_cycles(&pipelined_program(&g, &r, n), m);
        let cred = estimate_cycles(&cred_pipelined(&g, &r, n), m);
        // Within 2.1x here (1 -> 2 words per iteration on this tiny
        // kernel); on real kernels with slack the gap vanishes — see the
        // rotating variant below and the perf_model experiment.
        assert!(cred.cycles <= pip.cycles * 21 / 10);
    }

    #[test]
    fn rotating_cred_matches_pipelined_performance() {
        // With hardware auto-decrement there are no decrement
        // instructions: the kernel word count equals the pipelined one,
        // so the only cost is M_r extra (guarded) iterations.
        let (g, r) = figure3();
        let n = 1000u64;
        let m = &MachineModel::with_units(6, 2);
        let pip = estimate_cycles(&pipelined_program(&g, &r, n), m);
        let rot = estimate_cycles(&cred_rotating(&g, &r, 1, n), m);
        assert_eq!(rot.words.body_words, 1);
        // n+M iterations at 1 word vs prologue+kernel+epilogue words.
        assert!(rot.cycles <= pip.cycles + 3);
    }

    #[test]
    fn estimate_is_linear_in_trip_count() {
        let (g, r) = figure3();
        let m = &MachineModel::with_units(6, 2);
        let c1 = estimate_cycles(&cred_pipelined(&g, &r, 100), m);
        let c2 = estimate_cycles(&cred_pipelined(&g, &r, 200), m);
        assert_eq!(c2.cycles - c1.cycles, 100 * c1.words.body_words as u64);
    }
}
