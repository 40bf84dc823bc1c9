//! # rackfabric-phy
//!
//! The physical-layer substrate of the adaptive rack-scale fabric and, on
//! top of it, the paper's **Physical Layer Primitives (PLP)**.
//!
//! The paper (Section 3.1) assumes that a physical link is a bundle of
//! physical lanes — the canonical example being a 100 Gb/s link built from
//! four 25 Gb/s lanes — and defines five primitives over that substrate:
//!
//! 1. **Link breaking / bundling** — split a link of N lanes into k and N−k
//!    lanes, or merge two bundles back together.
//! 2. **High-speed bypass** — connect two links at the lowest possible
//!    physical level, skipping the switching logic entirely.
//! 3. **Turning a link on or off.**
//! 4. **Adaptive forward error correction.**
//! 5. **Per-lane statistics** — bit error rate, latency, effective bandwidth.
//!
//! This crate models lanes, lane bundles ([`link::Link`]), the media they run
//! over ([`media::Media`]), the signal-integrity chain that produces a
//! pre-FEC bit error rate ([`signal`]), the FEC codecs and the adaptive FEC
//! controller ([`fec`], [`adaptive_fec`]), the power model ([`power`]), the
//! bypass cross-connect ([`bypass`]), and finally the PLP command set and the
//! executor that applies commands to a rack's physical state with realistic
//! reconfiguration latencies ([`plp`]).
//!
//! The crate knows nothing about packets, switches or the Closed Ring
//! Control: it only exposes state, telemetry and commands. That separation is
//! one of the paper's stated goals (new physical-layer technology plugs in
//! underneath an unchanged control plane).

pub mod adaptive_fec;
pub mod bypass;
pub mod error;
pub mod fec;
pub mod lane;
pub mod link;
pub mod media;
pub mod plp;
pub mod power;
pub mod signal;
pub mod stats;

pub use adaptive_fec::AdaptiveFecController;
pub use bypass::{Bypass, BypassTable};
pub use error::PhyError;
pub use fec::FecMode;
pub use lane::{Lane, LaneId, LaneState};
pub use link::{Link, LinkId, LinkState};
pub use media::{Media, MediaKind};
pub use plp::{PhyState, PlpCommand, PlpCompletion, PlpExecutor, PlpTiming};
pub use power::{PowerModel, PowerState};
pub use stats::{LaneStats, LinkLoad, LinkTelemetry, TelemetryReport};
