//! `rackfabricd` — the rack-fabric simulator as a long-running
//! multi-tenant service.
//!
//! The batch CLI executes one [`rackfabric_cmd::command::Command`] per
//! invocation; this crate keeps an [`rackfabric_cmd::executor::Executor`]
//! resident and serves the same instruction set over a line-delimited
//! canonical-JSON API on a localhost TCP socket:
//!
//! - [`proto`] — the wire protocol: requests (`submit`/`cancel`/`status`/
//!   `shutdown`) and events, each one canonical JSON line, so equal
//!   responses are byte-equal lines.
//! - [`sched`] — the scheduler: a bounded priority queue with single-flight
//!   deduplication (identical in-flight submissions share one execution),
//!   per-job [`rackfabric_sweep::cancel::CancelToken`]s and backpressure;
//!   it holds a job only until the job's last watcher has seen its end.
//! - [`service`] — the daemon itself: acceptor, connection threads that
//!   answer stored scenarios themselves, and a bounded worker pool, each
//!   worker a numbered `daemon worker` trace lane, gauges and a response
//!   latency histogram in the obs registry.
//! - [`client`] — a small blocking client for tests, the load generator
//!   and scripting, whose clones share a pool of idle connections.
//!
//! The determinism contract: a `done` event's `result` payload for a given
//! command is byte-identical to what the batch path produces for the same
//! command against the same store — warm or cold, one worker or eight.

pub mod client;
pub mod proto;
pub mod sched;
pub mod service;

/// Common imports for daemon users and tests.
pub mod prelude {
    pub use crate::client::{done_result_bytes, Client, SubmitReply};
    pub use crate::proto::{Event, Request, StatusCounts};
    pub use crate::sched::{JobEnd, Scheduler, Submitted};
    pub use crate::service::{execute_oneshot, Daemon, DaemonConfig, DAEMON_LANE_BASE};
}

pub use client::{Client, SubmitReply};
pub use proto::{Event, Request, StatusCounts};
pub use sched::{JobEnd, Scheduler, Submitted};
pub use service::{Daemon, DaemonConfig, DAEMON_LANE_BASE};
