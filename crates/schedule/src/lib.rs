//! # cred-schedule — static scheduling substrate
//!
//! Turns DFGs into static schedules (control-step assignments) under
//! functional-unit resource constraints, and implements the schedule-driven
//! retiming generator the paper keywords: **rotation scheduling**
//! (Chao–Sha).
//!
//! Every scheduler here reads the workspace's one machine description,
//! [`cred_dfg::MachineModel`], indexed by [`cred_dfg::OpClass`]. They model
//! its per-class unit counts only, and refuse a model that sets an issue
//! width or a latency override. Modulo scheduling lives in `cred-exact`.
//!
//! * [`list`] — ASAP and resource-constrained list scheduling;
//! * [`rotation`] — rotation scheduling: repeatedly retime the first
//!   control step of the current schedule and reschedule, shortening the
//!   loop body under resource constraints (each rotation *is* a retiming,
//!   i.e. a software-pipelining step);
//! * [`vliw`] — VLIW word packing, used to check that the `setup` /
//!   decrement instructions CRED inserts fit into free slots of the long
//!   instruction words ("code size reduction does not hurt the performance
//!   of an optimized loop", paper §3.2);
//! * [`maxlive`] — steady-state data-register pressure of a cyclic
//!   kernel schedule (sequential retime+unfold kernels and exact modulo
//!   schedules), the fourth objective of the explore frontier.

pub mod list;
pub mod maxlive;
pub mod rotation;
pub mod vliw;

pub use list::{asap_schedule, list_schedule, StaticSchedule};
pub use maxlive::{sequential_maxlive, KernelSchedule, MaxliveReport, MaxliveScratch};
pub use rotation::{rotation_schedule, RotationResult};

use cred_dfg::{MachineModel, OpClass};

/// Refuse a machine that sets a field these schedulers do not model:
/// they cap units per class and read each node's own time.
fn assert_units_only(m: &MachineModel, pass: &str) {
    let latency = OpClass::ALL
        .iter()
        .any(|&c| m.latency_override(c).is_some());
    assert!(
        m.issue_width.is_none() && !latency,
        "{pass} models unit counts only, not issue width or latency overrides (machine {})",
        m.name
    );
}
