//! Regenerate the paper's worked figures as text:
//!
//! * Figure 1 — the two-node DFG before/after retiming (DOT + periods);
//! * Figure 2 — its static schedules;
//! * Figure 3 — the five-node loop: software-pipelined code (a), the CRED
//!   code (b), and the execution sequence with guard values (c);
//! * Figure 5 — the three-node loop unfolded by 3 (a) and its CRED form
//!   removing the remainder iterations (b);
//! * Figures 6–7 — the retimed (`r(B) = 1`) and unfolded loop with its
//!   CRED form and the `n = 9` execution sequence (c).

use cred_codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfolded};
use cred_codegen::pipeline::pipelined_program;
use cred_codegen::pretty::render;
use cred_codegen::unfolded::{retime_unfold_program, unfolded_program};
use cred_codegen::DecMode;
use cred_dfg::{dot, DfgBuilder, OpKind};
use cred_retime::Retiming;
use cred_schedule::asap_schedule;
use cred_vm::{check_against_reference, trace_loop};

fn figure1_and_2() {
    println!("=== Figure 1: retiming a two-node DFG ===\n");
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1, OpKind::Add(1));
    let bb = b.node("B", 1, OpKind::Mul(0));
    b.edge(a, bb, 0);
    b.edge(bb, a, 2);
    let g = b.build().unwrap();
    println!("{}", dot::to_dot(&g, "figure1a"));
    let mut r = Retiming::zero(2);
    r.set(a, 1);
    let gr = r.apply(&g);
    println!("{}", dot::to_dot(&gr, "figure1b"));
    println!("=== Figure 2: static schedules ===\n");
    let s0 = asap_schedule(&g);
    let s1 = asap_schedule(&gr);
    println!(
        "original: {} control steps (A at {}, B at {})",
        s0.length(),
        s0.start(a),
        s0.start(bb)
    );
    println!(
        "retimed : {} control step  (A at {}, B at {})\n",
        s1.length(),
        s1.start(a),
        s1.start(bb)
    );
}

fn figure3() {
    println!("=== Figure 3: software-pipelined loop and its CRED form ===\n");
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1, OpKind::Add(9));
    let bb = b.node("B", 1, OpKind::Mul(5));
    let c = b.node("C", 1, OpKind::Add(0));
    let d = b.node("D", 1, OpKind::Mul(0));
    let e = b.node("E", 1, OpKind::Add(30));
    b.edge(e, a, 4);
    b.edge(a, bb, 0);
    b.edge(a, c, 0);
    b.edge(bb, c, 2);
    b.edge(a, d, 0);
    b.edge(c, d, 0);
    b.edge(d, e, 0);
    let g = b.build().unwrap();
    let r = Retiming::from_values(vec![3, 2, 2, 1, 0]);
    let n = 10u64;
    let pip = pipelined_program(&g, &r, n);
    let cred = cred_pipelined(&g, &r, n);
    check_against_reference(&g, &pip).expect("3(a) verifies");
    check_against_reference(&g, &cred).expect("3(b) verifies");
    println!("--- (a) prologue/kernel/epilogue ---");
    println!("{}", render(&pip));
    println!("--- (b) after removing prologue/epilogue ---");
    println!("{}", render(&cred));
    println!("--- (c) execution sequence (guard values in parentheses) ---");
    let events = trace_loop(&cred);
    let mut current = i64::MIN;
    for ev in events {
        if ev.i != current {
            current = ev.i;
            print!("\ni={current:>3}: ");
        }
        let mark = if ev.enabled { "" } else { "!" };
        print!("{}{} ", mark, ev.cell(&cred));
    }
    println!("\n('!' marks nullified instructions)\n");
}

fn figure5() {
    println!("=== Figure 5: unfolded loop (f = 3) and remainder removal ===\n");
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1, OpKind::Mul(3));
    let bb = b.node("B", 1, OpKind::Add(7));
    let c = b.node("C", 1, OpKind::Mul(2));
    b.edge(bb, a, 3);
    b.edge(a, bb, 0);
    b.edge(bb, c, 0);
    let g = b.build().unwrap();
    let n = 11u64; // n mod 3 = 2 remainder iterations
    let plain = unfolded_program(&g, 3, n);
    let cred = cred_unfolded(&g, 3, n, DecMode::Bulk);
    check_against_reference(&g, &plain).expect("5(a) verifies");
    check_against_reference(&g, &cred).expect("5(b) verifies");
    println!("--- (a) remainder outside the loop ---");
    println!("{}", render(&plain));
    println!("--- (b) one conditional register removes it ---");
    println!("{}", render(&cred));
}

fn figures6_7() {
    println!("=== Figures 6-7: retimed (r(B)=1) and unfolded (f = 3) ===\n");
    // Figure 6 reading with B[i] = A[i-1] + 7 (see codegen::unfolded tests).
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1, OpKind::Mul(3));
    let bb = b.node("B", 1, OpKind::Add(7));
    let c = b.node("C", 1, OpKind::Mul(2));
    b.edge(bb, a, 3);
    b.edge(a, bb, 1);
    b.edge(bb, c, 0);
    let g = b.build().unwrap();
    let mut r = Retiming::zero(3);
    r.set(bb, 1);
    let n = 9u64;
    let plain = retime_unfold_program(&g, &r, 3, n);
    let cred = cred_retime_unfold(&g, &r, 3, n, DecMode::PerCopy);
    check_against_reference(&g, &plain).expect("6(b) verifies");
    check_against_reference(&g, &cred).expect("7(b) verifies");
    println!("--- Figure 6(b): retimed then unfolded, remainder explicit ---");
    println!("{}", render(&plain));
    println!("--- Figure 7(b): CRED form, two registers ---");
    println!("{}", render(&cred));
    println!("--- Figure 7(c): execution sequence for n = 9 ---");
    let mut current = i64::MIN;
    for ev in trace_loop(&cred) {
        if ev.i != current {
            current = ev.i;
            print!("\ni={current:>3}: ");
        }
        if ev.enabled {
            print!("{} ", ev.dest(&cred));
        }
    }
    println!("\n");
}

fn main() {
    figure1_and_2();
    figure3();
    figure5();
    figures6_7();
}
