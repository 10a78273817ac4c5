//! # cred-codegen — loop code generation and the CRED transformation
//!
//! Generates executable loop programs (see `cred-vm`) from DFGs in every
//! form the paper compares, and implements the paper's contribution: the
//! conditional-register code-size reduction (CRED).
//!
//! ## The instance principle
//!
//! Every compute instruction emitted by any generator is an *instance*
//! "node `v` of the original graph at original iteration `I`", where `I` is
//! affine in the loop induction variable. Its sources are, for each DFG
//! edge `e(u -> v)` with original delay `d`, the value of `u` at iteration
//! `I - d`. Correctness of each strategy then reduces to: every
//! `(v, I)` with `1 <= I <= n` executes exactly once, in an order
//! compatible with the zero-delay dependencies — which `cred-vm` checks
//! mechanically against the DFG recurrence.
//!
//! ## Generators
//!
//! | function | paper artifact | code size |
//! |---|---|---|
//! | [`pipeline::original_program`] | Figure 4-style plain loop | `L` |
//! | [`pipeline::pipelined_program`] | Figure 3(a) prologue/kernel/epilogue | `L + |V| * M_r` |
//! | [`cred::cred_pipelined`] | Figure 3(b) | `L + 2 P_r` |
//! | [`unfolded::unfolded_program`] | Figure 5(a) | `f L + (n mod f) L` |
//! | [`cred::cred_unfolded`] | Figure 5(b) | `f L + 2` |
//! | [`unfolded::retime_unfold_program`] | §3.4 baseline | `(M_r + f) L + Q_f` |
//! | [`cred::cred_retime_unfold`] | Figure 7(b) | `f L + P_r (f+1)` or `f L + 2 P_r` |
//! | [`unfolded::unfold_retime_program`] | Theorem 4.4 baseline | `(M_{f,r}+1) f L + Q_f` |
//!
//! Two [`cred::DecMode`]s reproduce the two overhead accountings present in
//! the paper's own tables (per-copy decrements in Table 2; bulk
//! decrement-by-`f` in Tables 3–4).
//!
//! [`bundle`] additionally packs any generated program into VLIW fetch
//! packets and measures code size in *words*, the C6x-style metric; the
//! packet widths are the per-class unit counts of a
//! [`cred_dfg::MachineModel`].

pub mod bundle;
pub mod collapse;
pub mod counts;
pub mod cred;
pub mod ir;
pub mod perf;
pub mod pipeline;
pub mod pretty;
pub mod size;
pub mod unfolded;

pub use counts::ExpectedCounts;
pub use cred::DecMode;
pub use ir::{Guard, Index, Inst, LoopProgram, LoopSpec, PredId, Ref};
