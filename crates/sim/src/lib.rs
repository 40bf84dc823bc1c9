//! # rackfabric-sim
//!
//! A deterministic discrete-event simulation (DES) engine used as the
//! substrate for the `rackfabric` reproduction of *"High speed adaptive
//! rack-scale fabrics"* (SIGCOMM 2018).
//!
//! The paper evaluates its architecture in omnet++; this crate plays the same
//! role: it advances simulated time, delivers events in timestamp order, and
//! collects statistics. It is deliberately single threaded so that every run
//! with the same seed and configuration is bit-for-bit reproducible.
//!
//! ## Overview
//!
//! * [`time`] — picosecond-resolution [`SimTime`]/[`SimDuration`] arithmetic.
//! * [`units`] — physical units (bit rates, lengths, power) and the
//!   conversions into simulated durations (serialization, propagation).
//! * [`event`] — the [`Model`] trait implemented by anything
//!   the engine can drive, and the [`Context`] handed to it.
//! * [`queue`] — the [`Scheduler`] trait and the
//!   reference binary-heap pending-event set with FIFO tie-breaking.
//! * [`calendar`] — the two-level calendar-queue scheduler, the default
//!   engine since the hot-path refactor.
//! * [`engine`] — the [`Simulator`] main loop, generic
//!   over the scheduler.
//! * [`rng`] — a self-contained, versioned deterministic RNG plus the
//!   distributions the workloads need.
//! * [`stats`] — counters, histograms, time-weighted gauges, rate meters and
//!   series recorders used for every experiment's output.
//! * [`config`] — serde-serialisable simulation configuration.
//! * [`windowed`] — conservative time-window execution of sharded models:
//!   per-shard calendar queues, content-keyed event ordering, outbox
//!   mailboxes exchanged at barriers, and a sync hook for global control.
//! * [`json`] — a minimal dependency-free JSON reader/writer used for run
//!   provenance and scenario-matrix exports.
//!
//! ## Quick example
//!
//! ```
//! use rackfabric_sim::prelude::*;
//!
//! /// A model that counts ticks until the simulation horizon.
//! struct Ticker { period: SimDuration, ticks: u64 }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! struct Tick;
//!
//! impl Model for Ticker {
//!     type Event = Tick;
//!     fn init(&mut self, ctx: &mut Context<Tick>) {
//!         ctx.schedule_in(self.period, Tick);
//!     }
//!     fn handle(&mut self, ctx: &mut Context<Tick>, _ev: Tick) {
//!         self.ticks += 1;
//!         ctx.schedule_in(self.period, Tick);
//!     }
//! }
//!
//! let mut sim = Simulator::new(Ticker { period: SimDuration::from_nanos(100), ticks: 0 }, 42);
//! sim.run_until(SimTime::from_micros(1));
//! assert_eq!(sim.model().ticks, 10);
//! ```

pub mod calendar;
pub mod config;
pub mod engine;
pub mod event;
pub mod json;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;
pub mod windowed;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::calendar::CalendarQueue;
    pub use crate::config::SimConfig;
    pub use crate::engine::{RunOutcome, Simulator};
    pub use crate::event::{Context, Model};
    pub use crate::queue::{EventQueue, Scheduler};
    pub use crate::rng::DetRng;
    pub use crate::stats::{Counter, Histogram, Series, Summary, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{BitRate, Bytes, Length, Power};
    pub use crate::windowed::{ShardModel, SyncHook, WindowCtx, WindowedOutcome, WindowedSim};
}

pub use calendar::CalendarQueue;
pub use config::SimConfig;
pub use engine::{RunOutcome, Simulator};
pub use event::{Context, Model};
pub use queue::{EventQueue, Scheduler};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
