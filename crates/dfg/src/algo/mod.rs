//! Graph analyses used by retiming, unfolding, scheduling, and codegen.

pub mod cycle_period;
pub mod iteration_bound;
pub mod scc;
pub mod topo;
pub mod wd;

pub use cycle_period::cycle_period;
pub use iteration_bound::iteration_bound;
pub use scc::strongly_connected_components;
pub use topo::{zero_delay_order_into, zero_delay_topo_order, TopoScratch};
pub use wd::{unfolded_edges, WdMatrices, WdScratch};
