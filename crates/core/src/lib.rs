//! # rackfabric
//!
//! A reproduction of **"High speed adaptive rack-scale fabrics"** (Sella,
//! Moore, Zilberman — SIGCOMM 2018): an adaptive rack-scale interconnect
//! built from *Physical Layer Primitives* (PLP) orchestrated by a *Closed
//! Ring Control* (CRC).
//!
//! The architecture's premise is that at rack scale the latency bottleneck is
//! packet switching itself, not the medium, and that the power budget of a
//! traditional rack must be respected. The fabric therefore exposes the
//! physical layer's reconfigurability (lane bundling/breaking, bypass,
//! power gating, adaptive FEC, per-lane statistics) as a uniform command set,
//! and closes a control loop over per-link telemetry to decide when spending
//! a reconfiguration is worth it.
//!
//! ## Crate layout
//!
//! * [`price`] — per-link price tags built from telemetry (latency,
//!   congestion, power, health) and the cost map handed to routing.
//! * [`policy`] — what the control loop optimises for (latency, power cap,
//!   congestion balance, hybrid).
//! * [`controller`] — the Closed Ring Control decision engine.
//! * [`breakeven`] — the minimum-flow-size-for-reconfiguration analysis.
//! * [`reconfigure`] — planning and applying whole-topology changes
//!   (e.g. grid → torus) as PLP command sequences.
//! * [`fabric`] — the discrete-event fabric simulation tying the physical
//!   layer, switching, workloads and the CRC together;
//!   [`FabricConfig::baseline`] is the same fabric with the CRC disabled
//!   (the static packet-switched comparison point).
//! * [`shard`] — the sharded multi-rack engine: the same fabric partitioned
//!   into rack groups, advanced in conservative time windows with
//!   bit-identical results for any shard count.
//! * [`metrics`] — per-run metrics and summaries.
//!
//! ## Quick start
//!
//! ```
//! use rackfabric::prelude::*;
//! use rackfabric_sim::prelude::*;
//! use rackfabric_workload::{MapReduceShuffle, Workload};
//!
//! // A 3x3 grid rack, two lanes per link, running a small shuffle.
//! let spec = TopologySpec::grid(3, 3, 2);
//! let flows = MapReduceShuffle::all_to_all(9, Bytes::from_kib(8))
//!     .generate(&mut DetRng::new(42));
//!
//! let mut config = FabricConfig::adaptive(spec);
//! config.sim = SimConfig::with_seed(42).horizon(SimTime::from_millis(100));
//! let fabric = run_fabric(config, flows);
//!
//! assert!(fabric.all_flows_complete());
//! let summary = fabric.metrics.summary();
//! assert!(summary.packet_latency.p99 > 0.0);
//! ```

pub mod breakeven;
mod control;
pub mod controller;
pub mod fabric;
pub mod metrics;
mod nic;
pub mod policy;
pub mod price;
pub mod reconfigure;
pub mod shard;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::breakeven::{evaluate as breakeven_evaluate, min_flow_size, BreakEvenInput};
    pub use crate::controller::{ClosedRingControl, CrcConfig, CrcDecision};
    pub use crate::fabric::{run_fabric, AdaptiveFabric, FabricConfig, FabricEvent};
    pub use crate::metrics::{FabricMetrics, RunSummary};
    pub use crate::policy::CrcPolicy;
    pub use crate::price::{LinkPrice, PriceBook, PriceNormalization, PriceWeights};
    pub use crate::reconfigure::{plan as plan_reconfiguration, ReconfigPlan};
    pub use crate::shard::{run_sharded, ShardedConfig, ShardedFabric, ShardedRun};
    pub use rackfabric_phy::{FecMode, PlpCommand, PlpTiming, PowerState};
    pub use rackfabric_topo::routing::RoutingAlgorithm;
    pub use rackfabric_topo::spec::TopologySpec;
}

pub use controller::{ClosedRingControl, CrcConfig};
pub use fabric::{run_fabric, AdaptiveFabric, FabricConfig};
pub use metrics::{FabricMetrics, RunSummary};
pub use policy::CrcPolicy;
pub use price::{PriceBook, PriceWeights};
