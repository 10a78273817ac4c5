//! The paper's theorems as executable, checked propositions.
//!
//! Each function instantiates its theorem on a concrete `(G, r, f, n)` and
//! verifies the claim mechanically (by tracing and executing the generated
//! programs), returning `Err(diagnostic)` if the claim fails. The
//! integration tests run these across the benchmark suite and random
//! graphs — this is what "we reproduce the theory" means operationally.

use cred_codegen::cred::{cred_pipelined, cred_retime_unfold};
use cred_codegen::unfolded::{retime_unfold_program, unfold_retime_program};
use cred_codegen::{DecMode, LoopProgram};
use cred_dfg::{Dfg, NodeId};
use cred_retime::{min_period_retiming, Retiming};
use cred_unfold::orders::{project_retiming, retime_then_unfold};
use cred_unfold::unfold;
use cred_vm::{check_against_reference, trace_loop};
use std::collections::BTreeMap;

type Check = Result<(), String>;

/// Array ids coincide with node indices, so the counts are keyed by node.
fn enabled_counts_in(
    p: &LoopProgram,
    pred: impl Fn(i64) -> bool,
) -> BTreeMap<NodeId, (u64, Option<i64>)> {
    // node -> (enabled count, first enabled loop index)
    let mut out: BTreeMap<NodeId, (u64, Option<i64>)> = BTreeMap::new();
    for e in trace_loop(p) {
        if !pred(e.i) {
            continue;
        }
        let entry = out.entry(NodeId(e.array)).or_insert((0, None));
        if e.enabled {
            entry.0 += 1;
            entry.1.get_or_insert(e.i);
        }
    }
    out
}

/// **Theorem 4.1** — the prologue can be replaced by conditionally
/// executing the loop body of `G_r` for `M_r` iterations, node `v`
/// executing `r(v)` times starting from the `(M_r - r(v) + 1)`-th of them.
pub fn theorem_4_1(g: &Dfg, r: &Retiming, n: u64) -> Check {
    let p = cred_pipelined(g, r, n);
    let m = r.max_value();
    let lo = p.body.as_ref().expect("cred has a loop").lo;
    debug_assert_eq!(lo, 1 - m);
    // The first M_r loop iterations are those with i <= 0.
    let counts = enabled_counts_in(&p, |i| i <= 0);
    for v in g.node_ids() {
        let name = &g.node(v).name;
        let rv = r.get(v).min(n as i64); // tiny n clips the window
        let (count, first) = counts.get(&v).copied().unwrap_or((0, None));
        if count != rv as u64 {
            return Err(format!(
                "Thm 4.1: {name} executed {count} times in the prologue window, expected r(v) = {rv}"
            ));
        }
        if rv > 0 {
            // (M_r - r(v) + 1)-th iteration is loop index 1 - r(v).
            let expect_first = 1 - r.get(v);
            if first != Some(expect_first) {
                return Err(format!(
                    "Thm 4.1: {name} first fired at {first:?}, expected {expect_first}"
                ));
            }
        }
    }
    Ok(())
}

/// **Theorem 4.2** — the epilogue can be replaced by conditionally
/// executing the loop body for `M_r` more iterations, node `v` executing
/// `M_r - r(v)` times in them.
pub fn theorem_4_2(g: &Dfg, r: &Retiming, n: u64) -> Check {
    let p = cred_pipelined(g, r, n);
    let m = r.max_value();
    let n_i = n as i64;
    // The last M_r loop iterations are those with i > n - M_r.
    let counts = enabled_counts_in(&p, |i| i > n_i - m);
    for v in g.node_ids() {
        let name = &g.node(v).name;
        let expect = (m - r.get(v)).min(n_i);
        let (count, _) = counts.get(&v).copied().unwrap_or((0, None));
        if count != expect as u64 {
            return Err(format!(
                "Thm 4.2: {name} executed {count} times in the epilogue window, expected M_r - r(v) = {expect}"
            ));
        }
    }
    Ok(())
}

/// **Theorem 4.3 (Total Code Reduction for Retimed Loop)** — `|N_r|`
/// conditional registers suffice to remove the prologue and epilogue
/// completely: the CRED program uses exactly `|N_r|` registers, has code
/// size `L + 2|N_r|`, and computes the same results.
pub fn theorem_4_3(g: &Dfg, r: &Retiming, n: u64) -> Check {
    let p = cred_pipelined(g, r, n);
    let want_regs = r.register_count();
    if p.register_count() != want_regs {
        return Err(format!(
            "Thm 4.3: program uses {} registers, |N_r| = {want_regs}",
            p.register_count()
        ));
    }
    let want_size = g.node_count() + 2 * want_regs;
    if p.code_size() != want_size {
        return Err(format!(
            "Thm 4.3: code size {} != L + 2 P = {want_size}",
            p.code_size()
        ));
    }
    check_against_reference(g, &p).map_err(|e| format!("Thm 4.3: {e}"))?;
    Ok(())
}

/// **Theorem 4.4** — the unfold-then-retime code size is
/// `(M_{f,r} + 1) * L * f + Q_f`.
pub fn theorem_4_4(g: &Dfg, f: usize, n: u64) -> Check {
    let u = unfold(g, f);
    let r_f = min_period_retiming(&u.graph).retiming;
    let p = unfold_retime_program(g, &u, &r_f, n);
    let l = g.node_count() as i64;
    let m = r_f.max_value();
    let big_n = (n as i64) / f as i64;
    if big_n - m < 1 {
        // Degenerate windows (pipeline at least as deep as the unfolded
        // trip count): no kernel is emitted and the whole schedule is
        // straight-line, so the closed form does not apply. The `m == N`
        // boundary case was found by cred-verify fuzzing.
        return Ok(());
    }
    let expect = (m + 1) * l * f as i64 + (n as i64 % f as i64) * l;
    if p.code_size() as i64 != expect {
        return Err(format!(
            "Thm 4.4: measured {} != (M+1)*L*f + Q_f = {expect} (M={m}, f={f}, n={n})",
            p.code_size()
        ));
    }
    Ok(())
}

/// **Theorem 4.5** — the projected retime-then-unfold code size is
/// `(max_u r_f(u) + f) * L + Q'` and never exceeds the unfold-then-retime
/// size at the same cycle period.
pub fn theorem_4_5(g: &Dfg, f: usize, n: u64) -> Check {
    let u = unfold(g, f);
    let ur = min_period_retiming(&u.graph);
    let projected = project_retiming(&u, &ur.retiming);
    if !projected.is_legal(g) {
        return Err("Thm 4.5: projected retiming must be legal".into());
    }
    let ru = retime_then_unfold(g, &projected, f);
    if ru.period != ur.period {
        return Err(format!(
            "Thm 4.5: projected period {} != optimum {}",
            ru.period, ur.period
        ));
    }
    let m = projected.max_value();
    let n_i = n as i64;
    if n_i - m < f as i64 {
        // Degenerate window: either the pipeline is deeper than the trip
        // count (m > n) or no full kernel chunk fits (n - m < f), so the
        // generator emits straight-line code of size n * L and the closed
        // form does not apply. (Found by cred-verify fuzzing.)
        return Ok(());
    }
    let l = g.node_count() as i64;
    let p = retime_unfold_program(g, &projected, f, n);
    let expect = (m + f as i64) * l + ((n_i - m).rem_euclid(f as i64)) * l;
    if p.code_size() as i64 != expect {
        return Err(format!(
            "Thm 4.5: measured {} != (M_r + f)*L + Q' = {expect}",
            p.code_size()
        ));
    }
    // S_{r,f} <= S_{f,r} modulo the (bounded) remainder-term difference.
    let s_fr = (ur.retiming.max_value() + 1) * l * f as i64;
    let s_rf = (m + f as i64) * l;
    if s_rf > s_fr {
        return Err(format!("Thm 4.5: S_rf = {s_rf} > S_fr = {s_fr}"));
    }
    Ok(())
}

/// **Theorem 4.6** — in the CRED retimed-unfolded loop, the prologue is
/// hidden in the first `(M_r + Q_head)/f` iterations: node `v` fires
/// exactly `r(v)` times before the steady-state slots begin.
pub fn theorem_4_6(g: &Dfg, r: &Retiming, f: usize, n: u64) -> Check {
    if r.max_value() > n as i64 {
        return Ok(()); // window clipped by a tiny trip count
    }
    let p = cred_retime_unfold(g, r, f, n, DecMode::Bulk);
    // Pre-steady iterations have base slot <= 0 (they contain all slots
    // s <= 0 plus up to f-1 steady slots; count only enabled instances at
    // slots <= 0 by checking the destination index against r(v)).
    // Array ids coincide with node indices.
    let mut fired: BTreeMap<NodeId, u64> = BTreeMap::new();
    for e in trace_loop(&p) {
        if !e.enabled {
            continue;
        }
        // Slot of this instance is idx - r(v); pre-steady means slot <= 0.
        let v = NodeId(e.array);
        if e.index - r.get(v) <= 0 {
            *fired.entry(v).or_insert(0) += 1;
        }
    }
    for v in g.node_ids() {
        let name = &g.node(v).name;
        let got = fired.get(&v).copied().unwrap_or(0);
        if got != r.get(v) as u64 {
            return Err(format!(
                "Thm 4.6: {name} fired {got} times in hidden-prologue slots, expected {}",
                r.get(v)
            ));
        }
    }
    check_against_reference(g, &p).map_err(|e| format!("Thm 4.6: {e}"))?;
    Ok(())
}

/// **Theorem 4.7 (Total Code Reduction for Retimed and Unfolded Loop)** —
/// CRED on the retimed-unfolded loop needs exactly as many conditional
/// registers as CRED on the retimed loop: `P_{r,f} = P_r`.
pub fn theorem_4_7(g: &Dfg, r: &Retiming, f: usize, n: u64) -> Check {
    let single = cred_pipelined(g, r, n);
    let combined = cred_retime_unfold(g, r, f, n, DecMode::Bulk);
    if single.register_count() != combined.register_count() {
        return Err(format!(
            "Thm 4.7: P_r = {} but P_r,f = {}",
            single.register_count(),
            combined.register_count()
        ));
    }
    check_against_reference(g, &combined).map_err(|e| format!("Thm 4.7: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_kernels::all_benchmarks;
    use cred_retime::span::{compact_values, min_span_retiming};

    fn tuned(g: &Dfg) -> Retiming {
        let opt = min_period_retiming(g);
        let r = min_span_retiming(g, opt.period).unwrap();
        compact_values(g, opt.period, &r)
    }

    #[test]
    fn theorems_hold_on_all_benchmarks() {
        for (name, g) in all_benchmarks() {
            let r = tuned(&g);
            for n in [1u64, 7, 101] {
                theorem_4_1(&g, &r, n).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
                theorem_4_2(&g, &r, n).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
                theorem_4_3(&g, &r, n).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            }
            for f in [2usize, 3] {
                theorem_4_4(&g, f, 101).unwrap_or_else(|e| panic!("{name} f={f}: {e}"));
                theorem_4_5(&g, f, 101).unwrap_or_else(|e| panic!("{name} f={f}: {e}"));
                theorem_4_6(&g, &r, f, 101).unwrap_or_else(|e| panic!("{name} f={f}: {e}"));
                theorem_4_7(&g, &r, f, 101).unwrap_or_else(|e| panic!("{name} f={f}: {e}"));
            }
        }
    }

    #[test]
    fn theorem_4_1_rejects_wrong_retiming_claim() {
        // A deliberately different retiming must change the prologue
        // counts: feed the checker inconsistent inputs and expect Err.
        let (_, g) = &all_benchmarks()[0];
        let r = tuned(g);
        if r.max_value() == 0 {
            return;
        }
        // Claim the zero retiming while the program uses `r`: the checker
        // itself generates from the given retiming, so instead corrupt by
        // comparing against a shifted copy.
        let mut wrong = r.clone();
        // Shift one node's value within legality if possible; otherwise skip.
        for v in g.node_ids() {
            let mut cand = wrong.clone();
            cand.set(v, cand.get(v) + 1);
            if cand.is_legal(g) && cand.normalized() != r {
                wrong = cand.normalized();
                break;
            }
        }
        if wrong == r {
            return;
        }
        // The theorem must hold for `wrong` itself (it is a legal
        // retiming!) — what fails is cross-claiming r's counts. So check
        // the *property*: counts follow whichever retiming generated the
        // program.
        theorem_4_1(g, &wrong, 23).unwrap();
    }
}
