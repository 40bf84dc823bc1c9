//! Packets, flows and latency accounting.

use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::Bytes;
use rackfabric_topo::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// Identifier of a flow (a transfer between one source and one destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// Standard Ethernet maximum transmission unit used throughout the
/// experiments.
pub const MTU: Bytes = Bytes::new(1500);
/// Bytes of header a cut-through switch must receive before it can make a
/// forwarding decision (DMAC + SMAC + EtherType + a shim).
pub const CUT_THROUGH_HEADER: Bytes = Bytes::new(64);

/// A packet in flight through the fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Frame size on the wire.
    pub size: Bytes,
    /// Time the packet was created at the sender.
    pub created_at: SimTime,
    /// Instant the packet finishes arriving at the next node. Packets travel
    /// in trains that fire one event per batch, so each packet's own arrival
    /// is tracked analytically here rather than by a dedicated event.
    pub arrived_at: SimTime,
    /// Accumulated latency breakdown.
    pub breakdown: LatencyBreakdown,
}

impl Packet {
    /// Creates a packet at `created_at`.
    pub fn new(
        id: PacketId,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: Bytes,
        created_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            size,
            created_at,
            arrived_at: created_at,
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// Total sojourn time if the packet is delivered at `now`.
    pub fn latency_at(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.created_at)
    }
}

/// Where a delivered packet's latency was spent, the decomposition plotted in
/// the paper's Figure 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Serialization onto the source's first link (a store-and-forward hop
    /// re-serialises within its switch traversal, charged to `switching`).
    pub serialization: SimDuration,
    /// Propagation through the medium.
    pub propagation: SimDuration,
    /// Switch pipeline traversals (the "switching logic" the paper targets).
    pub switching: SimDuration,
    /// Waiting in egress queues behind other packets.
    pub queueing: SimDuration,
    /// FEC encode/decode latency.
    pub fec: SimDuration,
    /// Bypass cross-connect retiming.
    pub bypass: SimDuration,
}

impl LatencyBreakdown {
    /// Sum of every component.
    pub fn total(&self) -> SimDuration {
        self.serialization
            + self.propagation
            + self.switching
            + self.queueing
            + self.fec
            + self.bypass
    }

    /// Fraction of the total spent in switching logic (0 when total is 0).
    pub fn switching_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.switching.ratio(total)
        }
    }

    /// Fraction of the total spent propagating through the medium (0 when
    /// total is 0) — the media share figure 1 compares switching against.
    pub fn propagation_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.propagation.ratio(total)
        }
    }

    /// Merges another breakdown into this one (used to aggregate per-flow).
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.serialization += other.serialization;
        self.propagation += other.propagation;
        self.switching += other.switching;
        self.queueing += other.queueing;
        self.fec += other.fec;
        self.bypass += other.bypass;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_latency_accounting() {
        let p = Packet::new(
            PacketId(1),
            FlowId(2),
            NodeId(0),
            NodeId(3),
            MTU,
            SimTime::from_nanos(100),
        );
        assert_eq!(
            p.latency_at(SimTime::from_nanos(600)),
            SimDuration::from_nanos(500)
        );
        // Delivery "before" creation saturates instead of panicking.
        assert_eq!(p.latency_at(SimTime::from_nanos(50)), SimDuration::ZERO);
        assert_eq!(p.arrived_at, SimTime::from_nanos(100));
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let mut b = LatencyBreakdown {
            serialization: SimDuration::from_nanos(120),
            propagation: SimDuration::from_nanos(10),
            switching: SimDuration::from_nanos(400),
            queueing: SimDuration::from_nanos(70),
            fec: SimDuration::ZERO,
            bypass: SimDuration::ZERO,
        };
        assert_eq!(b.total(), SimDuration::from_nanos(600));
        assert!((b.switching_fraction() - 400.0 / 600.0).abs() < 1e-9);
        let other = b;
        b.accumulate(&other);
        assert_eq!(b.total(), SimDuration::from_nanos(1200));
        assert_eq!(b.switching, SimDuration::from_nanos(800));
        assert!((b.switching_fraction() - 400.0 / 600.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        assert_eq!(LatencyBreakdown::default().switching_fraction(), 0.0);
    }

    #[test]
    fn frame_constants_are_ordered() {
        assert!(CUT_THROUGH_HEADER <= MTU);
    }
}
