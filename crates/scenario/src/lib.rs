//! # rackfabric-scenario
//!
//! A declarative, parallel **scenario-matrix engine** for the rack-scale
//! fabric: the layer that turns one-off hand-wired `Simulator` runs into
//! reproducible parameter sweeps with tail-latency statistics.
//!
//! The paper's claim — that an adaptive fabric beats static configurations —
//! only holds across a *space* of operating points (rack size, workload mix,
//! FEC mode, power policy, seeds). This crate expresses that space directly:
//!
//! * [`ScenarioSpec`] — one cell as plain data: topology,
//!   workload, PHY policy (FEC / lanes / power), controller policy, seed and
//!   horizon.
//! * [`Matrix`] — a base spec plus sweep [`Axis`]
//!   definitions (`racks × load × fec × N seeds`), expanded into a job list
//!   by pure cartesian product with seeds derived from one
//!   [`DetRng`](rackfabric_sim::rng::DetRng) stream.
//! * [`Runner`] — a work-stealing pool of OS threads running
//!   hundreds of independent single-threaded simulations; results are keyed
//!   by job index, so output is **bit-identical for 1 and N threads**.
//! * [`codec`] — the canonical spec JSON and its decoder, side by side:
//!   the job-key preimage, and what journals and daemon requests carry.
//! * [`aggregate`] / [`export`] — per-cell p50/p99/p999 latency (histograms
//!   merged across replicates via [`rackfabric_sim::stats`]), throughput,
//!   power and reconfiguration counts, rendered as CSV or JSON.
//!
//! ## Example
//!
//! ```
//! use rackfabric_scenario::prelude::*;
//! use rackfabric_sim::prelude::*;
//! use rackfabric::prelude::TopologySpec;
//!
//! let base = ScenarioSpec::new(
//!     "quickstart",
//!     TopologySpec::grid(3, 3, 2),
//!     WorkloadSpec::shuffle(Bytes::from_kib(2)),
//! )
//! .horizon(SimTime::from_millis(20));
//!
//! let matrix = Matrix::new(base)
//!     .axis("racks", vec![
//!         AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
//!         AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
//!     ])
//!     .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
//!     .replicates(2);
//!
//! let result = Runner::new(4).run(&matrix);
//! assert_eq!(result.cells.len(), 4);
//! assert_eq!(result.jobs.len(), 8);
//! println!("{}", result.to_csv());
//! ```

pub mod aggregate;
pub mod codec;
pub mod export;
pub mod matrix;
pub mod runner;
pub mod spec;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::aggregate::CellSummary;
    pub use crate::matrix::{Axis, AxisValue, Job, Matrix};
    pub use crate::runner::{JobOutcome, JobRecord, JobResult, MatrixResult, Runner};
    pub use crate::spec::{ControllerSpec, FecSetting, PhyPolicy, ScenarioSpec, WorkloadSpec};
}

pub use aggregate::CellSummary;
pub use matrix::{Axis, AxisValue, Job, Matrix};
pub use runner::{JobOutcome, JobRecord, JobResult, MatrixResult, Runner};
pub use spec::{ControllerSpec, FecSetting, PhyPolicy, ScenarioSpec, WorkloadSpec};
