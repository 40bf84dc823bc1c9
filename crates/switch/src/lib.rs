//! # rackfabric-switch
//!
//! Packet switching models for the rack-scale fabric.
//!
//! The paper's Figure 1 argument is that *packet switching, not the medium,
//! dominates latency at rack scale*: a state-of-the-art layer-2 cut-through
//! switch adds hundreds of nanoseconds per hop while 2 m of fibre adds ~10 ns.
//! This crate provides the models that quantify that claim and that the
//! adaptive fabric then works around:
//!
//! * [`packet`] — packets, flows, and per-packet latency breakdowns.
//! * [`queue`] — egress-port queues with tail-drop, the source of queueing
//!   delay and of the occupancy telemetry the Closed Ring Control prices
//!   links by.
//! * [`model`] — cut-through and store-and-forward switch datapath models
//!   (per-hop latency).
//! * [`train`] — packet trains: batches of back-to-back frames that move
//!   through the fabric with one event per link drain instead of one per
//!   packet, the event-collapsing core of the hot-path refactor.

pub mod model;
pub mod packet;
pub mod queue;
pub mod train;

pub use model::{SwitchKind, SwitchModel};
pub use packet::{FlowId, LatencyBreakdown, Packet, PacketId};
pub use queue::{EgressQueue, EnqueueOutcome, TrainAdmission};
pub use train::{train_frames, Train};
