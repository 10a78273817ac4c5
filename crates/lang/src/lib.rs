//! # cred-lang — a textual loop-kernel language
//!
//! The paper presents its loops as code listings (`A[i] = E[i-4] + 9; ...`);
//! this crate parses that notation into `cred-dfg` graphs so the framework
//! can be driven from source text (see the `credc` CLI), and un-parses
//! graphs back for display.
//!
//! ## Syntax
//!
//! ```text
//! // y'' example — one statement per DFG node
//! loop {
//!     A[i] = E[i-4] + 9;
//!     B[i] = A[i] * 5;
//!     C[i] = A[i] + B[i-2];
//!     D[i] = A[i] * C[i];
//!     E[i] = D[i] + 30;        @ 2   // optional computation time
//! }
//! ```
//!
//! * every statement defines one array (= one DFG node); arrays are
//!   defined exactly once;
//! * references `Name[i-k]` with `k >= 1` are inter-iteration dependencies
//!   (k delays); `Name[i]` is an intra-iteration dependence;
//! * supported expression shapes mirror [`cred_dfg::OpKind`]:
//!   sums (`Add`), a leading term minus others (`Sub`), products (`Mul`),
//!   a two-factor product plus addends (`Mac`), and a bare constant with
//!   no references (`Input`, which evaluates iteration-dependently);
//! * integer literals fold into the operation constant;
//! * `//` comments and `@ t` time annotations are allowed.
//!
//! Round trip: [`parse`] -> [`cred_dfg::Dfg`] -> [`unparse`].

mod ast;
mod lexer;
mod lower;
mod parser;
mod unparse;

pub use ast::{Expr, LoopKernel, Ref, Stmt, Term};
pub use lexer::{LexError, LexErrorKind, Token};
pub use lower::{lower, LowerError};
pub use parser::{parse_kernel, ParseError};
pub use unparse::unparse;

/// Parse source text directly into a validated DFG.
///
/// ```
/// let g = cred_lang::parse("loop { A[i] = A[i-1] + 1; }").unwrap();
/// assert_eq!(g.node_count(), 1);
/// ```
pub fn parse(src: &str) -> Result<cred_dfg::Dfg, Error> {
    let kernel = parse_kernel(src)?;
    Ok(lower(&kernel)?)
}

/// Any front-end failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Tokenization or syntax failure.
    Parse(ParseError),
    /// Semantic failure while building the DFG.
    Lower(LowerError),
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<LowerError> for Error {
    fn from(e: LowerError) -> Self {
        Error::Lower(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}
