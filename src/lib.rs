//! Workspace-level umbrella for the `rackfabric` reproduction.
//!
//! This crate only exists to host the repository's runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`); the library
//! surface is re-exported from the member crates. See `README.md` for the
//! project overview and its "Workspace layout" section for the system
//! inventory.

pub use rackfabric;
pub use rackfabric_netfpga as netfpga;
pub use rackfabric_phy as phy;
pub use rackfabric_scenario as scenario;
pub use rackfabric_sim as sim;
pub use rackfabric_sweep as sweep;
pub use rackfabric_switch as switch;
pub use rackfabric_topo as topo;
pub use rackfabric_workload as workload;
