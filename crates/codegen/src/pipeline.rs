//! Baseline generators: the original loop and the software-pipelined
//! (retimed) loop with explicit prologue and epilogue — the code whose size
//! the paper sets out to reduce.

use crate::ir::{Index, Inst, LoopProgram, LoopSpec, Ref};
use cred_dfg::{algo, Dfg, NodeId};
use cred_retime::Retiming;

/// Shift an index expression by a constant (used to derive source indices
/// `I - d` from a destination index `I`).
pub(crate) fn shift(idx: Index, by: i64) -> Index {
    match idx {
        Index::Const(k) => Index::Const(k + by),
        Index::NPlus(k) => Index::NPlus(k + by),
        Index::Loop { scale, offset } => Index::Loop {
            scale,
            offset: offset + by,
        },
    }
}

/// Emit the compute instance "node `v` at original iteration `idx`":
/// `v[idx] = op_v(u[idx - d(e)] for each in-edge e(u -> v))`.
pub(crate) fn instance(g: &Dfg, v: NodeId, idx: Index, guard: Option<crate::ir::Guard>) -> Inst {
    let srcs = g
        .in_edges(v)
        .iter()
        .map(|&e| {
            let ed = g.edge(e);
            Ref {
                array: ed.src.0,
                index: shift(idx, -(ed.delay as i64)),
            }
        })
        .collect();
    Inst::Compute {
        guard,
        dest: Ref {
            array: v.0,
            index: idx,
        },
        op: g.node(v).op,
        srcs,
    }
}

pub(crate) fn array_names(g: &Dfg) -> Vec<String> {
    g.node_ids().map(|v| g.node(v).name.clone()).collect()
}

/// The plain (untransformed) loop: `for i = 1 to n { body }`, body in
/// zero-delay topological order. Code size `L = |V|`.
pub fn original_program(g: &Dfg, n: u64) -> LoopProgram {
    let order = algo::zero_delay_topo_order(g).expect("well-formed DFG");
    let body = order
        .iter()
        .map(|&v| instance(g, v, Index::i_plus(0), None))
        .collect();
    LoopProgram {
        name: "original".into(),
        n,
        arrays: array_names(g),
        pre: Vec::new(),
        body: Some(LoopSpec {
            lo: 1,
            hi: n as i64,
            step: 1,
            body,
            auto_dec: None,
        }),
        post: Vec::new(),
    }
}

/// The software-pipelined loop of a retimed DFG: explicit prologue, a
/// kernel executing `n - M_r` times, and an explicit epilogue
/// (Figure 3(a)). Code size `L + |V| * M_r` for `n >= M_r`.
///
/// The *kernel instance at loop index `i`* computes, for each node `v`,
/// original iteration `i + r(v)`; the prologue and epilogue are the kernel
/// instances at `i <= 0` and `i > n - M_r` with the out-of-range
/// computations removed. Instruction order inside one instance is the
/// zero-delay topological order of the *retimed* graph.
///
/// # Panics
/// Panics if `r` is not normalized or not legal for `g`.
pub fn pipelined_program(g: &Dfg, r: &Retiming, n: u64) -> LoopProgram {
    assert!(r.is_normalized(), "retiming must be normalized");
    assert!(r.is_legal(g), "retiming must be legal");
    let gr = r.apply(g);
    let order = algo::zero_delay_topo_order(&gr).expect("retimed graph is well-formed");
    let m = r.max_value();
    let n = n as i64;

    let emit_slot = |s: i64, mk: &dyn Fn(i64) -> Index, out: &mut Vec<Inst>| {
        for &v in &order {
            let idx = s + r.get(v);
            if (1..=n).contains(&idx) {
                out.push(instance(g, v, mk(idx), None));
            }
        }
    };

    // Prologue: all non-positive slots (the in-range filter inside
    // emit_slot makes this correct even when n < M_r).
    let mut pre = Vec::new();
    for s in (1 - m)..=0 {
        emit_slot(s, &|idx| Index::Const(idx), &mut pre);
    }
    // Kernel: slots 1 ..= n - M, where every node is in range.
    let body = if n - m >= 1 {
        Some(LoopSpec {
            lo: 1,
            hi: n - m,
            step: 1,
            body: order
                .iter()
                .map(|&v| instance(g, v, Index::i_plus(r.get(v)), None))
                .collect(),
            auto_dec: None,
        })
    } else {
        None
    };
    // Epilogue: slots beyond the kernel.
    let mut post = Vec::new();
    for s in (n - m + 1).max(1)..=n {
        emit_slot(s, &|idx| Index::NPlus(idx - n), &mut post);
    }
    LoopProgram {
        name: "pipelined".into(),
        n: n as u64,
        arrays: array_names(g),
        pre,
        body,
        post,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cred_dfg::{DfgBuilder, OpKind};

    /// The Figure 3 DFG: A[i]=E[i-4]+9; B[i]=A[i]*5; C[i]=A[i]+B[i-2];
    /// D[i]=A[i]*C[i]; E[i]=D[i]+30.
    pub(crate) fn figure3_graph() -> (Dfg, Vec<NodeId>) {
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
        (b.build().unwrap(), vec![a, bb, c, d, e])
    }

    pub(crate) fn figure3_retiming() -> Retiming {
        Retiming::from_values(vec![3, 2, 2, 1, 0])
    }

    #[test]
    fn original_size_is_l() {
        let (g, _) = figure3_graph();
        let p = original_program(&g, 100);
        assert_eq!(p.code_size(), 5);
        assert_eq!(p.body.as_ref().unwrap().trip_count(), 100);
    }

    #[test]
    fn figure3_pipelined_sizes() {
        let (g, _) = figure3_graph();
        let r = figure3_retiming();
        assert!(r.is_legal(&g));
        let p = pipelined_program(&g, &r, 100);
        // Prologue: sum r = 8; epilogue: sum (3 - r) = 7; kernel 5.
        assert_eq!(p.pre.len(), 8);
        assert_eq!(p.body.as_ref().unwrap().body.len(), 5);
        assert_eq!(p.post.len(), 7);
        assert_eq!(p.code_size(), 20);
        assert_eq!(p.code_size() as i64, r.pipelined_code_size(5));
        // Kernel runs n - M = 97 times.
        assert_eq!(p.body.as_ref().unwrap().trip_count(), 97);
    }

    #[test]
    fn figure3_prologue_matches_paper_listing() {
        // Figure 3(a) prologue: A[1]; A[2], B[1], C[1]; A[3], B[2], C[2], D[1].
        let (g, _) = figure3_graph();
        let p = pipelined_program(&g, &figure3_retiming(), 100);
        let rendered: Vec<String> = p
            .pre
            .iter()
            .map(|inst| match inst {
                Inst::Compute { dest, .. } => {
                    format!("{}[{}]", p.arrays[dest.array as usize], dest.index)
                }
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            rendered,
            ["A[1]", "A[2]", "B[1]", "C[1]", "A[3]", "B[2]", "C[2]", "D[1]"]
        );
    }

    #[test]
    fn figure3_epilogue_multiset_matches_paper() {
        let (g, _) = figure3_graph();
        let p = pipelined_program(&g, &figure3_retiming(), 100);
        let mut rendered: Vec<String> = p
            .post
            .iter()
            .map(|inst| match inst {
                Inst::Compute { dest, .. } => {
                    format!("{}[{}]", p.arrays[dest.array as usize], dest.index)
                }
                _ => unreachable!(),
            })
            .collect();
        rendered.sort();
        let mut expected = ["E[n]", "D[n]", "E[n-1]", "B[n]", "C[n]", "D[n-1]", "E[n-2]"]
            .map(String::from)
            .to_vec();
        expected.sort();
        assert_eq!(rendered, expected);
    }

    #[test]
    fn kernel_sources_use_original_delays() {
        // Kernel instance of A at i computes A[i+3] = E[i+3-4] = E[i-1].
        let (g, nodes) = figure3_graph();
        let p = pipelined_program(&g, &figure3_retiming(), 100);
        let body = &p.body.as_ref().unwrap().body;
        let a_inst = body
            .iter()
            .find_map(|inst| match inst {
                Inst::Compute { dest, srcs, .. } if dest.array == nodes[0].0 => Some(srcs.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(a_inst.len(), 1);
        assert_eq!(a_inst[0].array, nodes[4].0); // E
        assert_eq!(a_inst[0].index, Index::i_plus(-1));
    }

    #[test]
    fn zero_retiming_degenerates_to_original() {
        let (g, _) = figure3_graph();
        let r = Retiming::zero(5);
        let p = pipelined_program(&g, &r, 50);
        assert!(p.pre.is_empty());
        assert!(p.post.is_empty());
        assert_eq!(p.code_size(), 5);
        assert_eq!(p.body.as_ref().unwrap().trip_count(), 50);
    }

    #[test]
    fn tiny_trip_count_smaller_than_pipeline_depth() {
        // n = 2 < M = 3: no kernel; straight-line code computes each node
        // exactly twice.
        let (g, _) = figure3_graph();
        let p = pipelined_program(&g, &figure3_retiming(), 2);
        assert!(p.body.is_none());
        assert_eq!(p.compute_count(), 10); // 5 nodes x 2 iterations
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn unnormalized_retiming_rejected() {
        let (g, _) = figure3_graph();
        let r = Retiming::from_values(vec![2, 1, 1, 0, -1]);
        let _ = pipelined_program(&g, &r, 10);
    }
}
