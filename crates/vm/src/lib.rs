//! # cred-vm — executable semantics and equivalence checking
//!
//! An interpreter for `cred-codegen`'s [`LoopProgram`]s with the paper's
//! conditional-register semantics: a register is a pair `(value, bound)`;
//! a guarded instruction executes iff `bound < value - offset <= 0`
//! (the hardware compares against `-LC`, §3.2).
//!
//! The VM is deliberately strict — it is the checker that turns the
//! paper's correctness theorems into executable tests:
//!
//! * every array element `v[1..=n]` must be written **exactly once**
//!   (Theorems 4.1/4.2/4.6: each node executes exactly `n` times);
//! * writes outside `1..=n` and double writes are errors (a guard that
//!   fails to mask a prologue/epilogue overrun is caught immediately);
//! * reads at indices `<= 0` return the initial value `0` (the paper's
//!   `E[-3]`), reads beyond `n` or of not-yet-written elements are errors
//!   (an instruction reordered across a dependence is caught);
//! * [`check_against_reference`] then compares every element against the
//!   direct DFG recurrence ([`cred_dfg::Dfg::reference_execution`]).
//!
//! Two executors share these semantics. [`execute`] tree-walks the
//! program directly and is the *reference* implementation. [`compile`]
//! lowers the program once into a flat [`Tape`] (operands preresolved,
//! CRED guards precomputed into enabled-iteration windows) when a
//! compile-time proof shows none of the checks above can fire, and
//! [`execute_tape`] runs that tape with the checks left out. Any other
//! program (a real fault, or a guard with no affine window) gets a
//! [`Tape`] that runs [`execute`] on it, so the tree-walker is also the
//! only fallback; [`Tape::preverified`] tells the two apart. The two
//! are held equivalent by [`cross_check_executors`] and the
//! differential proptests; the verification oracle runs the tape path
//! by default and requires every generated program to compile.
//!
//! [`LoopProgram`]: cred_codegen::LoopProgram

#![forbid(unsafe_code)]

mod compile;
mod machine;
mod trace;

pub use compile::{
    compile, cross_check_executors, diff_against_reference_tape, execute_tape, Tape,
};
pub use machine::{
    check_against_reference, diff_against_reference, execute, value_diff, DiffReport, ExecError,
    ExecResult, MismatchCell, Site,
};
pub use trace::{trace_loop, TraceEvent};
