//! # cred — optimal code size reduction for software-pipelined and unfolded loops
//!
//! Façade crate re-exporting the whole workspace. See the individual crates
//! for the subsystems:
//!
//! * [`dfg`] — data-flow-graph substrate (graphs, iteration bounds, W/D),
//! * [`retime`] — retiming engine (OPT, fixed-period, span/register
//!   minimization),
//! * [`unfold`] — unfolding and retime/unfold ordering pipelines,
//! * [`schedule`] — static, rotation, and VLIW scheduling,
//! * [`exact`] — exact resource-constrained modulo scheduling, the one
//!   modulo scheduler; every scheduler shares [`dfg::MachineModel`],
//! * [`codegen`] — loop IR, software-pipelined/unfolded code generation and
//!   the CRED conditional-register transformation,
//! * [`vm`] — executable semantics and equivalence checking,
//! * [`kernels`] — the paper's DSP benchmark suite,
//! * [`explore`] — code-size/performance design-space exploration,
//! * [`core`] — the high-level [`core::CodeSizeReducer`] API and the
//!   paper's theorems as checked propositions.

pub use cred_codegen as codegen;
pub use cred_core as core;
pub use cred_dfg as dfg;
pub use cred_exact as exact;
pub use cred_explore as explore;
pub use cred_kernels as kernels;
pub use cred_retime as retime;
pub use cred_schedule as schedule;
pub use cred_unfold as unfold;
pub use cred_vm as vm;
