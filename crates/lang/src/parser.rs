//! Recursive-descent parser: `loop { stmt* }` with
//! `stmt := Ident "[" "i" "]" "=" expr ("@" Int)? ";"`,
//! `expr := ("-")? term (("+"|"-") term)*`,
//! `term := factor ("*" factor)*`,
//! `factor := Int | Ident "[" "i" ("-" Int)? "]"`.

use crate::ast::{Expr, LoopKernel, Ref, Stmt, Term};
use crate::lexer::{tokenize, Token};
use std::fmt;

/// Syntax error with location and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (0 for end-of-input).
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "unexpected end of input: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    toks: Vec<(Token<'a>, u32)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                message: format!("expected '{want}', found '{t}'"),
            }),
            None => Err(self.err(format!("expected '{want}'"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                message: format!("expected identifier, found '{t}'"),
            }),
            None => Err(self.err("expected identifier")),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(n),
            Some(t) => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                message: format!("expected integer, found '{t}'"),
            }),
            None => Err(self.err("expected integer")),
        }
    }

    /// An integer literal that fits a `u32`, as delays and computation
    /// times must; `what` names it in the error.
    fn expect_u32(&mut self, what: &str) -> Result<u32, ParseError> {
        let n = self.expect_int()?;
        u32::try_from(n).map_err(|_| ParseError {
            line: self.toks[self.pos - 1].1,
            message: format!("{what} {n} out of range (at most {})", u32::MAX),
        })
    }

    /// `Ident "[" "i" ("-" Int)? "]"` after the identifier was consumed.
    fn finish_ref(&mut self, name: &'a str) -> Result<Ref<'a>, ParseError> {
        self.expect(Token::LBracket)?;
        let ivar = self.expect_ident()?;
        if ivar != "i" {
            return Err(self.err(format!("index variable must be 'i', found '{ivar}'")));
        }
        let delay = if self.peek() == Some(Token::Minus) {
            self.next();
            self.expect_u32("delay")?
        } else if self.peek() == Some(Token::Plus) {
            return Err(self.err("forward references 'Name[i+k]' are not allowed"));
        } else {
            0
        };
        self.expect(Token::RBracket)?;
        Ok(Ref { name, delay })
    }

    fn term(&mut self, sign: i64) -> Result<Term<'a>, ParseError> {
        let mut coeff: i64 = 1;
        let mut refs = Vec::new();
        loop {
            match self.next() {
                Some(Token::Int(n)) => coeff = coeff.wrapping_mul(n),
                Some(Token::Ident(name)) => refs.push(self.finish_ref(name)?),
                Some(t) => {
                    return Err(ParseError {
                        line: self.toks[self.pos - 1].1,
                        message: format!("expected factor, found '{t}'"),
                    })
                }
                None => return Err(self.err("expected factor")),
            }
            if self.peek() == Some(Token::Star) {
                self.next();
            } else {
                break;
            }
        }
        Ok(Term { sign, coeff, refs })
    }

    fn expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let mut terms = Vec::new();
        let first_sign = if self.peek() == Some(Token::Minus) {
            self.next();
            -1
        } else {
            1
        };
        terms.push(self.term(first_sign)?);
        loop {
            let sign = match self.peek() {
                Some(Token::Plus) => 1,
                Some(Token::Minus) => -1,
                _ => break,
            };
            self.next();
            terms.push(self.term(sign)?);
        }
        Ok(Expr { terms })
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, ParseError> {
        let line = self.line();
        let name = self.expect_ident()?;
        // Destination must be Name[i] (no delay).
        let dest = self.finish_ref(name)?;
        if dest.delay != 0 {
            return Err(self.err("destination must be indexed by plain 'i'"));
        }
        self.expect(Token::Eq)?;
        let expr = self.expr()?;
        let time = if self.peek() == Some(Token::At) {
            self.next();
            let t = self.expect_u32("computation time")?;
            if t < 1 {
                return Err(self.err("computation time must be >= 1"));
            }
            t
        } else {
            1
        };
        self.expect(Token::Semi)?;
        Ok(Stmt {
            name: dest.name,
            expr,
            time,
            line,
        })
    }

    fn kernel(&mut self) -> Result<LoopKernel<'a>, ParseError> {
        let kw = self.expect_ident()?;
        if kw != "loop" {
            return Err(self.err(format!("expected 'loop', found '{kw}'")));
        }
        self.expect(Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated loop body"));
            }
            stmts.push(self.stmt()?);
        }
        self.next(); // consume '}'
        if let Some(t) = self.peek() {
            return Err(self.err(format!("trailing input after loop body: '{t}'")));
        }
        Ok(LoopKernel { stmts })
    }
}

/// Parse a full `loop { ... }` kernel. Its names borrow `src`.
pub fn parse_kernel(src: &str) -> Result<LoopKernel<'_>, ParseError> {
    let toks = tokenize(src).map_err(|e| ParseError {
        line: e.line,
        message: e.kind.to_string(),
    })?;
    Parser { toks, pos: 0 }.kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure4() {
        let k = parse_kernel(
            "loop {
                A[i] = B[i-3] * 3;
                B[i] = A[i] + 7;
                C[i] = B[i] * 2;
            }",
        )
        .unwrap();
        assert_eq!(k.stmts.len(), 3);
        assert_eq!(k.stmts[0].name, "A");
        assert_eq!(k.stmts[0].expr.terms.len(), 1);
        assert_eq!(k.stmts[0].expr.terms[0].refs[0].delay, 3);
        assert_eq!(k.stmts[0].expr.terms[0].coeff, 3);
        assert_eq!(k.stmts[1].expr.terms.len(), 2);
    }

    #[test]
    fn parses_time_annotation() {
        let k = parse_kernel("loop { A[i] = A[i-1] + 1 @ 4; }").unwrap();
        assert_eq!(k.stmts[0].time, 4);
    }

    #[test]
    fn parses_subtraction_and_products() {
        let k =
            parse_kernel("loop { U[i] = U[i-1] - 3 * X[i] * U[i-2]; X[i] = X[i-1] + 1; }").unwrap();
        let t = &k.stmts[0].expr.terms[1];
        assert_eq!(t.sign, -1);
        assert_eq!(t.coeff, 3);
        assert_eq!(t.refs.len(), 2);
    }

    #[test]
    fn parses_leading_minus() {
        let k = parse_kernel("loop { A[i] = -B[i-1] + 2; }").unwrap();
        assert_eq!(k.stmts[0].expr.terms[0].sign, -1);
    }

    #[test]
    fn rejects_forward_reference() {
        let e = parse_kernel("loop { A[i] = B[i+1]; }").unwrap_err();
        assert!(e.message.contains("forward references"));
    }

    #[test]
    fn rejects_delayed_destination() {
        let e = parse_kernel("loop { A[i-1] = B[i]; }").unwrap_err();
        assert!(e.message.contains("destination"));
    }

    #[test]
    fn rejects_wrong_index_variable() {
        let e = parse_kernel("loop { A[j] = 1; }").unwrap_err();
        assert!(e.message.contains("index variable"));
    }

    #[test]
    fn rejects_missing_loop_keyword() {
        let e = parse_kernel("{ A[i] = 1; }").unwrap_err();
        assert!(e.message.contains("expected identifier") || e.message.contains("loop"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = parse_kernel("loop { A[i] = 1; } extra").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_kernel("loop {\n A[i] = 1;\n B[i] = ;\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_delay_literal_beyond_i64() {
        let e =
            parse_kernel("loop {\n A[i] = B[i-99999999999999999999];\n B[i] = 1;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("integer literal larger than"), "{e}");
    }

    #[test]
    fn rejects_delay_beyond_u32() {
        let e = parse_kernel("loop {\n B[i] = 1;\n A[i] = B[i-4294967297];\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("delay 4294967297 out of range"), "{e}");
    }

    #[test]
    fn rejects_time_beyond_u32() {
        let e = parse_kernel("loop {\n A[i] = A[i-1] + 1 @4294967297;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message
                .contains("computation time 4294967297 out of range"),
            "{e}"
        );
    }

    #[test]
    fn rejects_time_that_would_wrap_to_zero() {
        // 2^32 once truncated to time 0, which lowering then misreported
        // as a zero-delay dependence cycle.
        let e = parse_kernel("loop { A[i] = A[i-1] + 1 @4294967296; }").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(
            e.message
                .contains("computation time 4294967296 out of range"),
            "{e}"
        );
    }

    #[test]
    fn accepts_u32_max_delay_and_time() {
        let k = parse_kernel("loop { A[i] = A[i-4294967295] + 1 @4294967295; }").unwrap();
        assert_eq!(k.stmts[0].expr.terms[0].refs[0].delay, u32::MAX);
        assert_eq!(k.stmts[0].time, u32::MAX);
    }

    #[test]
    fn rejects_zero_time() {
        let e = parse_kernel("loop { A[i] = 1 @ 0; }").unwrap_err();
        assert!(e.message.contains("time"));
    }
}
