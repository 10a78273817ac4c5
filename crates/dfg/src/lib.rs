//! # cred-dfg — data-flow-graph substrate
//!
//! A data flow graph (DFG) `G = <V, E, d, t>` is a node-weighted,
//! edge-weighted directed multigraph:
//!
//! * `V` — computation nodes, each with a computation time `t(v) >= 1`
//!   and an executable operation ([`OpKind`]),
//! * `E` — dependence edges, each with a delay count `d(e) >= 0`;
//!   an edge `u -> v` with delay `d` means iteration `i` of `v` consumes
//!   the value produced by iteration `i - d` of `u`.
//!
//! Edges with `d(e) = 0` are intra-iteration dependencies; the zero-delay
//! subgraph must be acyclic for the graph to be well formed (every cycle
//! must carry at least one delay).
//!
//! This crate provides the graph representation plus the analyses the CRED
//! framework is built on:
//!
//! * [`algo::topo`] — topological order of the zero-delay subgraph,
//! * [`algo::cycle_period()`] — the cycle period `Phi(G)` (longest zero-delay
//!   path by computation time),
//! * [`algo::iteration_bound()`] — the iteration bound `B(G) = max_C T(C)/D(C)`
//!   over all cycles, computed exactly as a rational,
//! * [`algo::scc`] — strongly connected components (Tarjan),
//! * [`algo::wd`] — the Leiserson–Saxe `W`/`D` matrices used by min-period
//!   retiming,
//! * [`gen`] — structured and random DFG generators for tests and fuzzing,
//! * [`dot`] — Graphviz export,
//! * [`MachineModel`] — the one machine description (per-[`OpClass`] unit
//!   counts, VLIW issue width, latency overrides, the `.mach` text format)
//!   that the list, rotation, VLIW, bundling and exact schedulers share.
//!
//! The graph is an index-based arena ([`NodeId`], [`EdgeId`] are `u32`
//! newtypes) so all algorithms are allocation-light and cache friendly.

pub mod algo;
pub mod dot;
pub mod gen;
mod graph;
mod machine;
mod ratio;

pub use graph::{
    Dfg, DfgBuilder, DfgError, EdgeData, EdgeId, NodeData, NodeId, OpClass, OpKind, OP_CLASSES,
};
pub use machine::{MachineModel, MachineParseError};
pub use ratio::Ratio;
