//! # cred-exact — exact resource-constrained modulo scheduling
//!
//! The retiming solvers in `cred-retime` find the rate-optimal schedule
//! of a kernel assuming the machine can issue everything at once. Real
//! DSP datapaths cannot: they have a handful of functional units per
//! class and a fixed VLIW issue width, so the retiming-only period is an
//! optimistic lower bound. This crate solves the resource-constrained
//! problem *exactly*, in the style of SMT-based software pipelining
//! (Roorda's "Optimal Software Pipelining using an SMT-Solver") but with
//! a hand-rolled core — branch-and-bound over modulo reservation tables
//! for the resource side, incremental difference-constraint propagation
//! ([`cred_retime::diff`]) for the dependence side — and proves the
//! achieved initiation interval minimal by exhausting the II ladder with
//! a certified [`Infeasible`] witness per rejected rung.
//!
//! * [`MachineModel`] — per-op-class slot counts, VLIW issue width,
//!   optional per-class latency overrides; parsed from a small textual
//!   format (committed machine files live in `machines/`). It is defined
//!   in `cred-dfg`, shared with every other scheduler, and re-exported
//!   here;
//! * [`exact_schedule`] / [`exact_schedule_budgeted`] — the solver, the
//!   workspace's one modulo scheduler; budgeted search charges one work
//!   unit per slot trial and exhausts all-or-nothing like every other
//!   budgeted pass;
//! * [`retiming_bound`] — the resource-blind lower bound on the II;
//! * [`ExactSchedule`] — the product: `(ii, slot, stage)` plus the
//!   per-rung witnesses; [`ExactSchedule::stage_retiming`] adapts the
//!   stages into a legal [`cred_retime::Retiming`], which is how exact
//!   schedules flow into the CRED code generators and VM oracle;
//! * [`check`] — independent re-validation of schedules and witnesses,
//!   used by `cred-verify`'s fifth oracle layer.
//!
//! On [`MachineModel::unconstrained`] the solver degenerates to the
//! retiming problem and is differentially tested bit-identical in period
//! to `RetimeSolver` (see `tests/unconstrained_prop.rs`).

pub mod check;
mod period;
pub mod solver;

pub use cred_dfg::{MachineModel, MachineParseError};
pub use solver::{
    exact_schedule, exact_schedule_budgeted, retiming_bound, ExactSchedule, Infeasible, RejectedII,
};
