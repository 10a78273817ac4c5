//! The CRED transformation: code-size reduction with conditional registers.
//!
//! One conditional register per distinct retiming value (Theorem 4.3); the
//! guarded kernel subsumes prologue, epilogue, and remainder iterations
//! (Theorems 4.1, 4.2, 4.6, 4.7). The register guarding retiming value
//! `rho` is initialized to `M_r + Q_head - rho` with hardware bound `-n`
//! and is decremented so that, at original-iteration slot `s`, its
//! effective value is `1 - rho - s`: the guarded instance `v[s + r(v)]`
//! executes exactly when `1 <= s + r(v) <= n`.

use crate::ir::{Guard, Index, Inst, LoopProgram, LoopSpec, PredId};
use crate::pipeline::{array_names, instance};
use cred_dfg::{algo, Dfg};
use cred_retime::Retiming;
use cred_unfold::Unfolded;
use std::collections::BTreeMap;

/// Where the conditional-register decrements are placed in an unfolded
/// body. Both modes appear in the paper's own accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecMode {
    /// Decrement every register by 1 after each of the `f` body copies
    /// (Figure 7(a)); guards need no static offset. Overhead per program:
    /// `P` setups + `f * P` decrements (Table 2's accounting).
    PerCopy,
    /// Decrement every register by `f` once per iteration; the guard of
    /// copy `j` carries the static offset `j`, compared by hardware
    /// (Tables 3–4's accounting). Overhead: `P` setups + `P` decrements.
    Bulk,
}

/// Assign conditional registers to distinct retiming values, largest value
/// first (the paper's `p1` guards the most-retimed node A in Figure 3(b)).
pub(crate) fn assign_registers(r: &Retiming) -> BTreeMap<i64, PredId> {
    let mut distinct: Vec<i64> = r.distinct_values().into_iter().collect();
    distinct.reverse();
    distinct
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, PredId(i as u32)))
        .collect()
}

/// CRED for a retimed-then-unfolded loop (the general case; `f = 1` is the
/// plain software-pipelined loop of Figure 3(b)).
///
/// The loop body is the unfolded kernel only — no prologue, epilogue, or
/// remainder code exists. The loop runs `ceil((n + M_r + Q_head)/f)` times
/// starting at slot `1 - M_r - Q_head`, where
/// `Q_head = (f - M_r mod f) mod f` pads the pipeline fill to a whole
/// unfolded iteration (Theorem 4.6); guards disable the pad and the
/// trailing overrun.
///
/// Code size: `f*L + P*(f+1)` ([`DecMode::PerCopy`]) or `f*L + 2*P`
/// ([`DecMode::Bulk`]), with `P = |N_r|` registers — identical to the
/// register count of the un-unfolded retimed loop (Theorem 4.7).
pub fn cred_retime_unfold(g: &Dfg, r: &Retiming, f: usize, n: u64, mode: DecMode) -> LoopProgram {
    // No error channel here: an injected `Error` escalates to a panic,
    // which the resilient sweep isolates per point.
    cred_resilience::failpoint::hit_infallible(cred_resilience::failpoint::sites::CODEGEN_CRED);
    assert!(f >= 1);
    assert!(r.is_normalized(), "retiming must be normalized");
    assert!(r.is_legal(g), "retiming must be legal");
    let gr = r.apply(g);
    let order = algo::zero_delay_topo_order(&gr).expect("retimed graph well-formed");
    let m = r.max_value();
    let n_i = n as i64;
    let f_i = f as i64;
    let qhead = (f_i - m.rem_euclid(f_i)) % f_i;
    let regs = assign_registers(r);

    let pre: Vec<Inst> = regs
        .iter()
        .rev() // emit p1 (largest value) first, like the paper
        .map(|(&rho, &reg)| Inst::Setup {
            reg,
            init: m + qhead - rho,
            bound: -n_i,
        })
        .collect();

    let mut body = Vec::with_capacity(f * order.len() + regs.len() * f);
    for j in 0..f_i {
        for &v in &order {
            let rho = r.get(v);
            body.push(instance(
                g,
                v,
                Index::i_plus(j + rho),
                Some(Guard {
                    reg: regs[&rho],
                    offset: if mode == DecMode::Bulk { j } else { 0 },
                }),
            ));
        }
        if mode == DecMode::PerCopy {
            for &reg in regs.values() {
                body.push(Inst::Dec { reg, by: 1 });
            }
        }
    }
    if mode == DecMode::Bulk {
        for &reg in regs.values() {
            body.push(Inst::Dec { reg, by: f_i });
        }
    }

    let lo = 1 - m - qhead;
    let total_slots = n_i + m + qhead;
    let iters = (total_slots + f_i - 1) / f_i;
    let hi = lo + f_i * (iters - 1);
    LoopProgram {
        name: if f == 1 {
            "cred".into()
        } else {
            "cred-retime-unfold".into()
        },
        n,
        arrays: array_names(g),
        pre,
        body: Some(LoopSpec {
            lo,
            hi,
            step: f_i,
            body,
            auto_dec: None,
        }),
        post: Vec::new(),
    }
}

/// CRED for a software-pipelined (retimed, not unfolded) loop —
/// Figure 3(b). Code size `L + 2 * P_r`; the loop runs `n + M_r` times.
pub fn cred_pipelined(g: &Dfg, r: &Retiming, n: u64) -> LoopProgram {
    cred_retime_unfold(g, r, 1, n, DecMode::Bulk)
}

/// CRED on an IA-64-style machine with *rotating* stage predicates: the
/// loop branch decrements every conditional register automatically
/// (`br.ctop`-like), so the body carries **no decrement instructions**.
/// Code size `f*L + P_r` — below the paper's TI-style optimum
/// `f*L + 2*P_r` (the paper cites IA-64 as an alternative conditional-
/// register implementation; this generator quantifies the difference).
pub fn cred_rotating(g: &Dfg, r: &Retiming, f: usize, n: u64) -> LoopProgram {
    let mut p = cred_retime_unfold(g, r, f, n, DecMode::Bulk);
    let body = p.body.as_mut().expect("CRED programs have a loop");
    body.body.retain(|i| !matches!(i, Inst::Dec { .. }));
    body.auto_dec = Some(f as i64);
    p.name = "cred-rotating".into();
    p
}

/// CRED for a plain unfolded loop — Figure 5(b), the zero-retiming case.
/// One conditional register removes all `(n mod f) * L` remainder
/// instructions; code size `f*L + 2` in [`DecMode::Bulk`].
pub fn cred_unfolded(g: &Dfg, f: usize, n: u64, mode: DecMode) -> LoopProgram {
    let mut p = cred_retime_unfold(g, &Retiming::zero(g.node_count()), f, n, mode);
    p.name = "cred-unfolded".into();
    p
}

/// CRED for an unfolded-then-retimed loop: the guarded kernel of the
/// pipelined unfolded loop replaces its prologue and epilogue; the
/// `n mod f` remainder iterations stay as straight-line code (the paper
/// notes this order may need more registers — one per distinct value over
/// `V_f` — and never tabulates a CR variant for it; removing the remainder
/// too would need per-copy cutoffs, i.e. up to `f * P` registers).
///
/// Code size: `f*L + 2*P_f + (n mod f)*L`.
pub fn cred_unfold_retime(g: &Dfg, u: &Unfolded, r_f: &Retiming, n: u64) -> LoopProgram {
    let f = u.factor;
    assert!(r_f.is_normalized() && r_f.is_legal(&u.graph));
    let gfr = r_f.apply(&u.graph);
    let order = algo::zero_delay_topo_order(&gfr).expect("retimed G_f well-formed");
    let n_i = n as i64;
    let f_i = f as i64;
    let big_n = n_i / f_i;
    let m = r_f.max_value();
    let regs = assign_registers(r_f);

    let pre: Vec<Inst> = regs
        .iter()
        .rev()
        .map(|(&rho, &reg)| Inst::Setup {
            reg,
            init: m - rho,
            bound: -big_n,
        })
        .collect();

    let mut body = Vec::with_capacity(order.len() + regs.len());
    for &w in &order {
        let rho = r_f.get(w);
        let (orig, j) = u.origin(w);
        body.push(instance(
            g,
            orig,
            Index::Loop {
                scale: f_i,
                offset: f_i * (rho - 1) + j as i64 + 1,
            },
            Some(Guard {
                reg: regs[&rho],
                offset: 0,
            }),
        ));
    }
    for &reg in regs.values() {
        body.push(Inst::Dec { reg, by: 1 });
    }

    // Remainder original iterations stay straight-line.
    let mut post = Vec::new();
    let orig_order = algo::zero_delay_topo_order(g).expect("well-formed");
    for it in (f_i * big_n + 1)..=n_i {
        for &v in &orig_order {
            post.push(instance(g, v, Index::NPlus(it - n_i), None));
        }
    }
    LoopProgram {
        name: "cred-unfold-retime".into(),
        n,
        arrays: array_names(g),
        pre,
        body: Some(LoopSpec {
            lo: 1 - m,
            hi: big_n,
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

    fn figure3_graph() -> Dfg {
        crate::pipeline::tests::figure3_graph().0
    }

    #[test]
    fn figure3b_structure() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let n = 100u64;
        let p = cred_pipelined(&g, &r, n);
        // 4 distinct values {0,1,2,3} -> 4 registers, size L + 2P = 13.
        assert_eq!(p.register_count(), 4);
        assert_eq!(p.code_size(), 5 + 8);
        // Loop from i = -2 to n: n + 3 iterations.
        let l = p.body.as_ref().unwrap();
        assert_eq!(l.lo, -2);
        assert_eq!(l.hi, 100);
        assert_eq!(l.trip_count(), n + 3);
        assert!(p.post.is_empty());
    }

    #[test]
    fn figure3b_setup_values() {
        // p1..p4 initialized to 0, 1, 2, 3 with bound -n.
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let p = cred_pipelined(&g, &r, 100);
        let setups: Vec<(u32, i64, i64)> = p
            .pre
            .iter()
            .map(|i| match i {
                Inst::Setup { reg, init, bound } => (reg.0, *init, *bound),
                _ => panic!("pre must be setups"),
            })
            .collect();
        assert_eq!(
            setups,
            vec![(0, 0, -100), (1, 1, -100), (2, 2, -100), (3, 3, -100)]
        );
    }

    #[test]
    fn cred_size_formula_per_mode() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let l = 5usize;
        let p_regs = 4usize;
        for f in 1..=4usize {
            let per = cred_retime_unfold(&g, &r, f, 101, DecMode::PerCopy);
            assert_eq!(per.code_size(), f * l + p_regs * (f + 1), "PerCopy f={f}");
            let bulk = cred_retime_unfold(&g, &r, f, 101, DecMode::Bulk);
            assert_eq!(bulk.code_size(), f * l + 2 * p_regs, "Bulk f={f}");
            assert_eq!(per.register_count(), p_regs);
            assert_eq!(bulk.register_count(), p_regs);
        }
    }

    #[test]
    fn cred_unfolded_single_register() {
        let g = figure3_graph();
        for f in 2..=4usize {
            let p = cred_unfolded(&g, f, 101, DecMode::Bulk);
            assert_eq!(p.register_count(), 1);
            assert_eq!(p.code_size(), f * 5 + 2);
        }
    }

    #[test]
    fn qhead_alignment() {
        // M = 3, f = 2: Q_head = 1; loop starts at slot 1 - 3 - 1 = -3 and
        // runs ceil((n + 4)/2) iterations.
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let p = cred_retime_unfold(&g, &r, 2, 10, DecMode::Bulk);
        let l = p.body.as_ref().unwrap();
        assert_eq!(l.lo, -3);
        assert_eq!(l.trip_count(), 7); // (10 + 3 + 1) / 2
        assert_eq!(l.step, 2);
    }

    #[test]
    fn qhead_zero_when_divisible() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let p = cred_retime_unfold(&g, &r, 3, 9, DecMode::Bulk);
        let l = p.body.as_ref().unwrap();
        assert_eq!(l.lo, -2); // 1 - M, no padding
        assert_eq!(l.trip_count(), 4); // (9 + 3)/3
    }

    #[test]
    fn bulk_guards_carry_copy_offsets() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let p = cred_retime_unfold(&g, &r, 3, 30, DecMode::Bulk);
        let body = &p.body.as_ref().unwrap().body;
        let mut offsets: Vec<i64> = body
            .iter()
            .filter_map(|i| match i {
                Inst::Compute {
                    guard: Some(gd), ..
                } => Some(gd.offset),
                _ => None,
            })
            .collect();
        offsets.dedup();
        assert_eq!(offsets, vec![0, 1, 2]);
    }

    #[test]
    fn percopy_guards_have_no_offsets() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        let p = cred_retime_unfold(&g, &r, 3, 30, DecMode::PerCopy);
        let body = &p.body.as_ref().unwrap().body;
        assert!(body.iter().all(|i| match i {
            Inst::Compute {
                guard: Some(gd), ..
            } => gd.offset == 0,
            Inst::Compute { guard: None, .. } => false,
            _ => true,
        }));
        // f decrement groups of P registers each.
        let decs = body
            .iter()
            .filter(|i| matches!(i, Inst::Dec { .. }))
            .count();
        assert_eq!(decs, 3 * 4);
    }

    #[test]
    fn rotating_mode_size_and_structure() {
        let g = figure3_graph();
        let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
        for f in 1..=3usize {
            let p = cred_rotating(&g, &r, f, 50);
            // f*L computes + P setups, zero decrements.
            assert_eq!(p.code_size(), f * 5 + 4, "f={f}");
            let body = p.body.as_ref().unwrap();
            assert!(body.body.iter().all(|i| !matches!(i, Inst::Dec { .. })));
            assert_eq!(body.auto_dec, Some(f as i64));
        }
    }

    #[test]
    fn cred_unfold_retime_size() {
        use cred_unfold::unfold;
        let g = figure3_graph();
        let f = 3usize;
        let n = 101u64;
        let u = unfold(&g, f);
        let opt = cred_retime::min_period_retiming(&u.graph);
        let p = cred_unfold_retime(&g, &u, &opt.retiming, n);
        let pf = opt.retiming.register_count();
        assert_eq!(p.code_size(), f * 5 + 2 * pf + ((n as usize) % f) * 5);
    }
}
