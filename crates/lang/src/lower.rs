//! Lowering: classify each statement's expression shape onto a
//! [`cred_dfg::OpKind`] and build the DFG.

use crate::ast::{LoopKernel, Stmt, Term};
use cred_dfg::{Dfg, DfgBuilder, NodeId, OpKind};
use std::collections::BTreeMap;
use std::fmt;

/// Semantic lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// An array is defined more than once.
    Redefinition {
        /// Array name.
        name: String,
        /// Line of the second definition.
        line: u32,
    },
    /// A reference names an array no statement defines.
    Undefined {
        /// Referenced name.
        name: String,
        /// Line of the reference.
        line: u32,
    },
    /// The expression does not match any supported operation shape.
    UnsupportedShape {
        /// Defining array.
        name: String,
        /// Line of the statement.
        line: u32,
        /// Explanation.
        detail: String,
    },
    /// The resulting graph has a zero-delay dependence cycle.
    ZeroDelayCycle,
    /// The kernel has no statements.
    EmptyKernel,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Redefinition { name, line } => {
                write!(f, "line {line}: array '{name}' defined twice")
            }
            LowerError::Undefined { name, line } => {
                write!(f, "line {line}: reference to undefined array '{name}'")
            }
            LowerError::UnsupportedShape { name, line, detail } => {
                write!(
                    f,
                    "line {line}: unsupported expression for '{name}': {detail}"
                )
            }
            LowerError::ZeroDelayCycle => {
                write!(
                    f,
                    "the loop has a zero-delay dependence cycle (no legal schedule)"
                )
            }
            LowerError::EmptyKernel => write!(f, "the loop body has no statements"),
        }
    }
}

impl std::error::Error for LowerError {}

/// The operation `stmt`'s expression shape maps to. Its operands are the
/// references of its terms in source order (constant terms have none).
fn classify(stmt: &Stmt) -> Result<OpKind, LowerError> {
    let unsupported = |detail: &str| LowerError::UnsupportedShape {
        name: stmt.name.to_string(),
        line: stmt.line,
        detail: detail.to_string(),
    };
    let terms = &stmt.expr.terms;
    let c: i64 = terms
        .iter()
        .filter(|t| t.refs.is_empty())
        .map(|t| t.sign * t.coeff)
        .sum();
    let refs: Vec<&Term> = terms.iter().filter(|t| !t.refs.is_empty()).collect();
    match refs.as_slice() {
        [] => Ok(OpKind::Input(c)),
        [t] => {
            let k = t.sign * t.coeff;
            match (t.refs.len(), k) {
                (1, 1) => Ok(OpKind::Add(c)),
                (1, _) => Ok(OpKind::Scale(k, c)),
                (_, 1) => Ok(OpKind::Mul(c)),
                (_, _) => Ok(OpKind::ScaledMul(k, c)),
            }
        }
        [first, rest @ ..] => {
            let plain = |t: &Term| t.refs.len() == 1 && t.coeff == 1;
            if first.sign != 1 {
                return Err(unsupported("leading term must be positive"));
            }
            if plain(first) && rest.iter().all(|t| plain(t) && t.sign == 1) {
                return Ok(OpKind::Add(c));
            }
            if plain(first) && rest.iter().all(|t| plain(t) && t.sign == -1) {
                return Ok(OpKind::Sub(c));
            }
            if first.refs.len() == 2
                && first.coeff == 1
                && rest.iter().all(|t| plain(t) && t.sign == 1)
            {
                return Ok(OpKind::Mac(c));
            }
            Err(unsupported(
                "mixing scaled products with other terms (split the statement)",
            ))
        }
    }
}

/// Lower a parsed kernel to a validated DFG. Statement order becomes node
/// order; operand order becomes in-edge order (which [`OpKind::Sub`] and
/// [`OpKind::Mac`] depend on). Names are copied once, into the nodes.
pub fn lower(kernel: &LoopKernel) -> Result<Dfg, LowerError> {
    let mut b = DfgBuilder::new();
    let mut ids: BTreeMap<&str, NodeId> = BTreeMap::new();
    let mut nodes = Vec::with_capacity(kernel.stmts.len());
    for stmt in &kernel.stmts {
        let op = classify(stmt)?;
        if ids.contains_key(stmt.name) {
            return Err(LowerError::Redefinition {
                name: stmt.name.to_string(),
                line: stmt.line,
            });
        }
        let id = b.node(stmt.name, stmt.time, op);
        ids.insert(stmt.name, id);
        nodes.push(id);
    }
    for (stmt, &id) in kernel.stmts.iter().zip(&nodes) {
        for r in stmt.expr.terms.iter().flat_map(|t| &t.refs) {
            let src = *ids.get(r.name).ok_or_else(|| LowerError::Undefined {
                name: r.name.to_string(),
                line: stmt.line,
            })?;
            b.edge(src, id, r.delay);
        }
    }
    b.build().map_err(|e| match e {
        cred_dfg::DfgError::Empty => LowerError::EmptyKernel,
        // Times are validated by the parser and node ids by construction,
        // so the only other reachable failure is a zero-delay cycle.
        _ => LowerError::ZeroDelayCycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    fn lower_src(src: &str) -> Result<Dfg, LowerError> {
        lower(&parse_kernel(src).unwrap())
    }

    #[test]
    fn figure4_lowers() {
        let g = lower_src(
            "loop {
                A[i] = B[i-3] * 3;
                B[i] = A[i] + 7;
                C[i] = B[i] * 2;
            }",
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let a = g.find_node("A").unwrap();
        assert_eq!(g.node(a).op, OpKind::Scale(3, 0));
        let b2 = g.find_node("B").unwrap();
        assert_eq!(g.node(b2).op, OpKind::Add(7));
        assert_eq!(g.in_edges(a).len(), 1);
        assert_eq!(g.edge(g.in_edges(a)[0]).delay, 3);
    }

    #[test]
    fn classification_matrix() {
        let cases = [
            ("A[i] = 7;", OpKind::Input(7)),
            ("A[i] = B[i-1];", OpKind::Add(0)),
            ("A[i] = B[i-1] + 9;", OpKind::Add(9)),
            ("A[i] = 4 * B[i-1];", OpKind::Scale(4, 0)),
            ("A[i] = -B[i-1] + 1;", OpKind::Scale(-1, 1)),
            ("A[i] = B[i-1] * C[i-1];", OpKind::Mul(0)),
            ("A[i] = B[i-1] * C[i-1] + 2;", OpKind::Mul(2)),
            ("A[i] = 3 * B[i-1] * C[i-1];", OpKind::ScaledMul(3, 0)),
            ("A[i] = B[i-1] + C[i-1];", OpKind::Add(0)),
            ("A[i] = B[i-1] - C[i-1];", OpKind::Sub(0)),
            ("A[i] = B[i-1] - C[i-1] - D[i-1];", OpKind::Sub(0)),
            ("A[i] = B[i-1] * C[i-1] + D[i-1];", OpKind::Mac(0)),
            ("A[i] = B[i-1] * C[i-1] + D[i-1] + 5;", OpKind::Mac(5)),
        ];
        for (stmt, want) in cases {
            let src = format!("loop {{ {stmt} B[i] = 1; C[i] = 2; D[i] = 3; }}");
            let g = lower_src(&src).unwrap_or_else(|e| panic!("{stmt}: {e}"));
            let a = g.find_node("A").unwrap();
            assert_eq!(g.node(a).op, want, "{stmt}");
        }
    }

    #[test]
    fn sub_operand_order_preserved() {
        let g = lower_src("loop { A[i] = B[i-1] - C[i-2]; B[i] = 1; C[i] = 2; }").unwrap();
        let a = g.find_node("A").unwrap();
        let srcs: Vec<(String, u32)> = g
            .in_edges(a)
            .iter()
            .map(|&e| {
                let ed = g.edge(e);
                (g.node(ed.src).name.clone(), ed.delay)
            })
            .collect();
        assert_eq!(srcs, vec![("B".into(), 1), ("C".into(), 2)]);
    }

    #[test]
    fn semantics_match_hand_built_graph() {
        // The lowered figure-4 kernel computes the same streams as the
        // hand-built one in cred-kernels' style.
        let g = lower_src(
            "loop {
                A[i] = B[i-3] * 3;
                B[i] = A[i] + 7;
                C[i] = B[i] * 2;
            }",
        )
        .unwrap();
        let vals = g.reference_execution(6);
        // A[1] = 0*3 = 0; B[1] = 7; C[1] = 7*2? Mul over one input is the
        // input itself; C uses Scale(2). A = Scale(3,0).
        let a = g.find_node("A").unwrap().index();
        let b2 = g.find_node("B").unwrap().index();
        let c = g.find_node("C").unwrap().index();
        assert_eq!(vals[a][0], 0);
        assert_eq!(vals[b2][0], 7);
        assert_eq!(vals[c][0], 14);
        // A[4] = B[1]*3 = 21; B[4] = 28; C[4] = 56.
        assert_eq!(vals[a][3], 21);
        assert_eq!(vals[b2][3], 28);
        assert_eq!(vals[c][3], 56);
    }

    #[test]
    fn redefinition_rejected() {
        let e = lower_src("loop { A[i] = 1; A[i] = 2; }").unwrap_err();
        assert!(matches!(e, LowerError::Redefinition { .. }));
    }

    #[test]
    fn undefined_reference_rejected() {
        let e = lower_src("loop { A[i] = Z[i-1]; }").unwrap_err();
        assert!(matches!(e, LowerError::Undefined { .. }));
    }

    #[test]
    fn empty_kernel_rejected_with_specific_error() {
        let e = lower_src("loop { }").unwrap_err();
        assert_eq!(e, LowerError::EmptyKernel);
        assert!(e.to_string().contains("no statements"));
    }

    #[test]
    fn zero_delay_cycle_rejected() {
        let e = lower_src("loop { A[i] = B[i]; B[i] = A[i]; }").unwrap_err();
        assert_eq!(e, LowerError::ZeroDelayCycle);
    }

    #[test]
    fn unsupported_shapes_rejected() {
        for src in [
            "loop { A[i] = B[i-1] + 2 * C[i-1]; B[i] = 1; C[i] = 1; }",
            "loop { A[i] = -B[i-1] - C[i-1]; B[i] = 1; C[i] = 1; }",
            "loop { A[i] = B[i-1] * C[i-1] - D[i-1]; B[i] = 1; C[i] = 1; D[i] = 1; }",
        ] {
            assert!(
                matches!(lower_src(src), Err(LowerError::UnsupportedShape { .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn time_annotations_carried() {
        let g = lower_src("loop { A[i] = A[i-1] + 1 @ 7; }").unwrap();
        assert_eq!(g.node(g.find_node("A").unwrap()).time, 7);
    }
}
