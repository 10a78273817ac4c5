//! # cred-retime — retiming engine
//!
//! Retiming redistributes the delays of a DFG to shorten its cycle period;
//! every retiming operation corresponds to a software-pipelining operation
//! on the loop (paper §2.2).
//!
//! ## Sign convention
//!
//! This crate follows the paper, *not* Leiserson–Saxe: `r(v)` is the number
//! of delays pushed **forward** through `v` (drawn from its incoming edges,
//! added to its outgoing edges), so for an edge `e(u -> v)`
//!
//! ```text
//! d_r(e) = d(e) + r(u) - r(v)
//! ```
//!
//! and a node with normalized retiming value `r(v)` contributes `r(v)`
//! instruction copies to the prologue and `M_r - r(v)` copies to the
//! epilogue, where `M_r = max_u r(u)` (paper §2.2). The Leiserson–Saxe `r`
//! is the negation of this one.
//!
//! ## Contents
//!
//! * [`Retiming`] — a retiming function with legality checking,
//!   normalization, application, and the prologue/epilogue bookkeeping the
//!   code-size theorems rest on;
//! * [`constraints`] — the reference difference-constraint solver
//!   (edge-list Bellman–Ford), kept as the differential-testing oracle;
//! * [`diff`] — the incremental difference-constraint engine (assert one
//!   constraint at a time, checkpoint/rollback on a trail, positive-cycle
//!   witnesses), the DPLL(T)-style theory core `cred-exact`'s
//!   branch-and-bound scheduler propagates its dependence side on;
//! * [`incremental`] — the production solver: CSR constraint graph with a
//!   period-activation prefix, queue-based SPFA, a period search that
//!   starts at a proven closed-walk lower bound, and warm starts across
//!   its probes (bit-identical to the reference); its answer at a period
//!   has the minimum span `M_r` of that period;
//! * [`minperiod`] — the OPT algorithm (search over W/D candidate
//!   periods) plus fixed-period retiming;
//! * [`span`] — the dense span search kept as the oracle of that minimum,
//!   and heuristic compaction of the number of distinct retiming values
//!   `|N_r|` (= conditional registers needed, Theorem 4.3);
//! * [`registers`] — exact branch-and-bound minimization of `|N_r|`.

pub mod constraints;
pub mod diff;
pub mod incremental;
pub mod minperiod;
pub mod registers;
mod retiming;
pub mod span;

pub use constraints::ConstraintSystem;
pub use diff::DiffEngine;
pub use incremental::{CsrConstraintGraph, RetimeSolver, SolverScratch};
pub use minperiod::{
    min_period_retiming, min_period_retiming_with, retime_to_period, MinPeriodResult,
};
pub use retiming::Retiming;
