//! # rackfabric-sweep
//!
//! A **resumable, budget-aware sweep orchestrator** over the scenario
//! engine: the layer that turns one-shot matrix runs into long-running
//! experiment campaigns that survive interruption, skip work they have
//! already done, replicate seeds only until tail percentiles are
//! trustworthy, and render their own reports.
//!
//! * [`key`] — content-addressed [`JobKey`]s: a 128-bit hash of the
//!   canonical JSON of a fully resolved [`ScenarioSpec`], which
//!   `rackfabric_scenario::codec` writes (and decodes) and which excludes
//!   every proven result-neutral knob (scheduler, shard count, names).
//! * [`store`] — the on-disk [`ResultStore`]: one atomic JSON record per
//!   executed job, keyed by hash, holding exact (wall-clock-free)
//!   simulation output; [`ResultStore::gc`](store::ResultStore::gc)
//!   compacts away records orphaned by campaign edits.
//! * [`budget`] — [`BudgetPolicy`]: replicate each cell until the p99
//!   confidence interval converges below a target, instead of a fixed seed
//!   count.
//! * [`campaign`] — the [`Sweep`] orchestrator: store-first resolution,
//!   incremental dispatch through [`Runner::run_jobs`], a write-ahead hook
//!   per store miss, deterministic budgeted expansion, interruption via
//!   `max_new_jobs`.
//! * [`report`] / [`emit`] — dependency-free SVG line/CDF plots and a
//!   markdown campaign summary, all byte-deterministic.
//!
//! ## Example
//!
//! ```
//! use rackfabric::prelude::TopologySpec;
//! use rackfabric_scenario::prelude::*;
//! use rackfabric_sim::prelude::*;
//! use rackfabric_sweep::prelude::*;
//!
//! let base = ScenarioSpec::new(
//!     "quickstart",
//!     TopologySpec::grid(2, 2, 2),
//!     WorkloadSpec::shuffle(Bytes::from_kib(1)),
//! )
//! .horizon(SimTime::from_millis(20));
//! let matrix = Matrix::new(base)
//!     .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
//!     .replicates(2);
//!
//! let dir = std::env::temp_dir().join("rackfabric-sweep-doc");
//! let store = ResultStore::open(&dir).unwrap();
//! let sweep = Sweep::new(matrix);
//! let first = sweep.run(&store, &Runner::single_threaded()).unwrap();
//! let second = sweep.run(&store, &Runner::single_threaded()).unwrap();
//! assert_eq!(second.executed, 0, "warm store: every job is a cache hit");
//! assert_eq!(first.cells.len(), second.cells.len());
//! std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! [`ScenarioSpec`]: rackfabric_scenario::spec::ScenarioSpec
//! [`Runner::run_jobs`]: rackfabric_scenario::runner::Runner::run_jobs
//! [`JobKey`]: key::JobKey
//! [`ResultStore`]: store::ResultStore
//! [`BudgetPolicy`]: budget::BudgetPolicy
//! [`Sweep`]: campaign::Sweep

pub mod budget;
pub mod campaign;
pub mod cancel;
pub mod emit;
pub mod key;
pub mod lock;
pub mod report;
pub mod store;
pub mod testdir;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::budget::{BudgetPolicy, CellBudget, StopReason};
    pub use crate::campaign::{CellDistributions, Sweep, SweepOutcome};
    pub use crate::cancel::CancelToken;
    pub use crate::emit::{render_files, write_report};
    pub use crate::key::{canonical_spec_json, job_key, JobKey};
    pub use crate::lock::StoreLock;
    pub use crate::report::{cdf_plot, line_plot, PlotSeries};
    pub use crate::store::{outcome_from_json, outcome_to_json, GcStats, ResultStore, StoreStats};
}

pub use budget::{BudgetPolicy, CellBudget, StopReason};
pub use campaign::{CellDistributions, Sweep, SweepOutcome};
pub use cancel::CancelToken;
pub use key::{canonical_spec_json, job_key, JobKey};
pub use lock::StoreLock;
pub use store::{outcome_from_json, outcome_to_json, GcStats, ResultStore, StoreStats};
