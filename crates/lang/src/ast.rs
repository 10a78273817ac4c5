//! Abstract syntax of the loop-kernel language. Names borrow the source
//! text, so a kernel allocates per statement and per term, not per name.

/// A reference `Name[i - delay]` (delay 0 means `Name[i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ref<'a> {
    /// Array (node) name.
    pub name: &'a str,
    /// Delay `k` in `Name[i-k]`, `k >= 0`.
    pub delay: u32,
}

/// One multiplicative term: a product of references and an integer
/// coefficient (folded from literal factors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Term<'a> {
    /// `+1` or `-1`, from the additive context.
    pub sign: i64,
    /// Folded product of integer literal factors.
    pub coeff: i64,
    /// Reference factors, in source order.
    pub refs: Vec<Ref<'a>>,
}

/// A sum of terms (the right-hand side of a statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr<'a> {
    /// Terms in source order.
    pub terms: Vec<Term<'a>>,
}

/// `Name[i] = expr ;` with an optional `@ time` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt<'a> {
    /// Defined array.
    pub name: &'a str,
    /// Right-hand side.
    pub expr: Expr<'a>,
    /// Computation time (default 1).
    pub time: u32,
    /// 1-based source line, for diagnostics.
    pub line: u32,
}

/// A whole `loop { ... }` kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopKernel<'a> {
    /// Statements in source order.
    pub stmts: Vec<Stmt<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_types_construct() {
        let r = Ref {
            name: "A",
            delay: 2,
        };
        let t = Term {
            sign: 1,
            coeff: 3,
            refs: vec![r],
        };
        let e = Expr { terms: vec![t] };
        let s = Stmt {
            name: "B",
            expr: e,
            time: 1,
            line: 1,
        };
        let k = LoopKernel { stmts: vec![s] };
        assert_eq!(k.stmts.len(), 1);
        assert_eq!(k.stmts[0].expr.terms[0].refs[0].delay, 2);
    }
}
