//! Partial code collapsing — the ad-hoc baseline the paper improves on.
//!
//! Its reference \[4\] (Granston et al., the TMS320C6000 production flow)
//! collapses only *part* of the expansion: e.g. keep the prologue as
//! straight-line code and let predication absorb the epilogue, or vice
//! versa. These generators implement both halves so the benefit of total
//! reduction (Theorem 4.3) can be quantified against them:
//!
//! | form | code size |
//! |---|---|
//! | full pipelined | `L + sum r + sum (M - r)` |
//! | [`collapse_epilogue`] | `L + sum r + 2 P` |
//! | [`collapse_prologue`] | `L + sum (M - r) + 2 P` |
//! | full CRED | `L + 2 P` |
//!
//! Tail masking uses per-register *bounds*: stage `rho`'s register is
//! `setup p = 0 : -(n - rho)` and counts down, so its instructions turn
//! off exactly after original iteration `n - rho` — the window test the
//! paper's `-LC` comparison hardware performs, with a per-register `LC`.

use crate::cred::assign_registers as registers_by_value;
use crate::ir::{Guard, Index, Inst, LoopProgram, LoopSpec};
use crate::pipeline::{array_names, instance};
use cred_dfg::{algo, Dfg};
use cred_retime::Retiming;

/// Keep the prologue straight-line; run the kernel for all `n` base
/// iterations with guards masking only the epilogue overrun.
/// Code size `L + sum_v r(v) + 2 P`.
///
/// # Panics
/// Panics when `n < M_r`: a straight-line half requires the pipeline to
/// fill completely (use full CRED for shorter trip counts).
pub fn collapse_epilogue(g: &Dfg, r: &Retiming, n: u64) -> LoopProgram {
    assert!(r.is_normalized() && r.is_legal(g));
    assert!(
        n as i64 >= r.max_value(),
        "collapse_epilogue requires n >= M_r"
    );
    let gr = r.apply(g);
    let order = algo::zero_delay_topo_order(&gr).expect("well-formed");
    let n_i = n as i64;
    let m = r.max_value();
    let regs = registers_by_value(r);

    let mut pre = Vec::new();
    // Straight-line prologue (as in the plain pipelined form).
    for s in (1 - m)..=0 {
        for &v in &order {
            let idx = s + r.get(v);
            if (1..=n_i).contains(&idx) {
                pre.push(instance(g, v, Index::Const(idx), None));
            }
        }
    }
    // Tail-masking registers: value 0, per-register bound -(n - rho).
    for (&rho, &reg) in regs.iter().rev() {
        pre.push(Inst::Setup {
            reg,
            init: 0,
            bound: -(n_i - rho),
        });
    }
    let mut body: Vec<Inst> = order
        .iter()
        .map(|&v| {
            let rho = r.get(v);
            instance(
                g,
                v,
                Index::i_plus(rho),
                Some(Guard {
                    reg: regs[&rho],
                    offset: 0,
                }),
            )
        })
        .collect();
    for &reg in regs.values() {
        body.push(Inst::Dec { reg, by: 1 });
    }
    LoopProgram {
        name: "collapse-epilogue".into(),
        n,
        arrays: array_names(g),
        pre,
        body: Some(LoopSpec {
            lo: 1,
            hi: n_i,
            step: 1,
            body,
            auto_dec: None,
        }),
        post: Vec::new(),
    }
}

/// Guard away the prologue (head masking, as in full CRED) but emit the
/// epilogue straight-line. Code size `L + sum_v (M_r - r(v)) + 2 P`.
///
/// # Panics
/// Panics when `n < M_r` (see [`collapse_epilogue`]).
pub fn collapse_prologue(g: &Dfg, r: &Retiming, n: u64) -> LoopProgram {
    assert!(r.is_normalized() && r.is_legal(g));
    assert!(
        n as i64 >= r.max_value(),
        "collapse_prologue requires n >= M_r"
    );
    let gr = r.apply(g);
    let order = algo::zero_delay_topo_order(&gr).expect("well-formed");
    let n_i = n as i64;
    let m = r.max_value();
    let regs = registers_by_value(r);

    // Head-masking registers: the full-CRED window init, but the loop
    // stops at i = n - M (the straight-line epilogue takes over), so only
    // the head of the window is ever exercised.
    let pre: Vec<Inst> = regs
        .iter()
        .rev()
        .map(|(&rho, &reg)| Inst::Setup {
            reg,
            init: m - rho,
            bound: -n_i,
        })
        .collect();
    let mut body: Vec<Inst> = order
        .iter()
        .map(|&v| {
            let rho = r.get(v);
            instance(
                g,
                v,
                Index::i_plus(rho),
                Some(Guard {
                    reg: regs[&rho],
                    offset: 0,
                }),
            )
        })
        .collect();
    for &reg in regs.values() {
        body.push(Inst::Dec { reg, by: 1 });
    }
    let mut post = Vec::new();
    for s in (n_i - m + 1).max(1)..=n_i {
        for &v in &order {
            let idx = s + r.get(v);
            if (1..=n_i).contains(&idx) {
                post.push(instance(g, v, Index::NPlus(idx - n_i), None));
            }
        }
    }
    LoopProgram {
        name: "collapse-prologue".into(),
        n,
        arrays: array_names(g),
        pre,
        body: Some(LoopSpec {
            lo: 1 - m,
            hi: n_i - m,
            step: 1,
            body,
            auto_dec: None,
        }),
        post,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::cred_pipelined;
    use crate::pipeline::pipelined_program;
    use crate::pipeline::tests::{figure3_graph, figure3_retiming};

    fn figure3() -> (Dfg, Retiming) {
        (figure3_graph().0, figure3_retiming())
    }

    #[test]
    fn collapse_accounting_and_the_papers_point() {
        let (g, r) = figure3();
        let n = 20u64;
        let pip = pipelined_program(&g, &r, n).code_size();
        let full = cred_pipelined(&g, &r, n).code_size();
        let epi = collapse_epilogue(&g, &r, n).code_size();
        let pro = collapse_prologue(&g, &r, n).code_size();
        // Exact accounting: L + sum r + 2P and L + sum (M - r) + 2P.
        assert_eq!(epi, 5 + 8 + 8);
        assert_eq!(pro, 5 + 7 + 8);
        // Full CRED always dominates either half measure (Theorem 4.3's
        // "quality guaranteed" claim)...
        assert!(full < epi && full < pro);
        // ...while a half measure may even LOSE to plain pipelining when
        // the removed half is smaller than the register overhead — here
        // the epilogue (7 instructions) costs 2P = 8 to mask, exactly the
        // paper's complaint that the ad-hoc techniques of \[4\] "could not
        // be guaranteed".
        assert_eq!(pip, 20);
        assert!(epi > pip, "epilogue collapse is counterproductive here");
        assert!(pro == pip, "prologue collapse only breaks even here");
    }

    #[test]
    fn partial_collapses_are_correct_programs() {
        // VM-checked in the integration battery; sanity-check counts here.
        let (g, r) = figure3();
        let epi = collapse_epilogue(&g, &r, 20);
        let pro = collapse_prologue(&g, &r, 20);
        assert_eq!(epi.register_count(), 4);
        assert_eq!(pro.register_count(), 4);
        assert_eq!(epi.body.as_ref().unwrap().trip_count(), 20);
        assert_eq!(pro.body.as_ref().unwrap().trip_count(), 20);
    }
}
