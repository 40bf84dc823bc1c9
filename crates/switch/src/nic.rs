//! Host NIC injection path.
//!
//! Every node injects packets through a NIC with its own egress queue toward
//! its first-hop link. The NIC also tracks per-host counters used by the
//! workload layer to decide when a flow has finished sending.

use crate::packet::{FlowId, Packet, PacketId};
use crate::queue::{EgressQueue, EnqueueOutcome};
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_topo::NodeId;
use serde::{Deserialize, Serialize};

/// A host network interface with an injection queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nic {
    /// The node this NIC belongs to.
    pub node: NodeId,
    /// Injection queue in front of the first-hop link.
    pub queue: EgressQueue,
    /// Packets injected.
    pub packets_sent: u64,
    /// Packets received (delivered to this node).
    pub packets_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    next_packet_id: u64,
}

impl Nic {
    /// Creates a NIC with `buffer` bytes of injection queue.
    pub fn new(node: NodeId, buffer: Bytes) -> Self {
        Nic {
            node,
            queue: EgressQueue::new(buffer),
            packets_sent: 0,
            packets_received: 0,
            bytes_received: 0,
            next_packet_id: 0,
        }
    }

    /// Allocates the next node-scoped packet id (node index in the high
    /// bits, per-node sequence in the low 40).
    fn alloc_packet_id(&mut self) -> PacketId {
        let id = PacketId((self.node.as_u32() as u64) << 40 | self.next_packet_id);
        self.next_packet_id += 1;
        id
    }

    /// Builds the next packet of `flow` toward `dst` and offers it to the
    /// injection queue at `rate`. Returns the packet and the enqueue outcome
    /// (the packet is returned even when dropped, so the caller can decide to
    /// retry).
    pub fn inject(
        &mut self,
        now: SimTime,
        flow: FlowId,
        dst: NodeId,
        size: Bytes,
        rate: BitRate,
    ) -> (Packet, EnqueueOutcome) {
        let id = self.alloc_packet_id();
        let packet = Packet::new(id, flow, self.node, dst, size, now);
        let outcome = self.queue.enqueue(now, size, rate);
        if matches!(outcome, EnqueueOutcome::Accepted { .. }) {
            self.packets_sent += 1;
        }
        (packet, outcome)
    }

    /// Records delivery of `packet` to this node.
    pub fn deliver(&mut self, packet: &Packet) {
        debug_assert_eq!(packet.dst, self.node, "packet delivered to the wrong NIC");
        self.packets_received += 1;
        self.bytes_received += packet.size.as_u64();
    }

    /// Builds the next train of `flow` toward `dst` into `train` — one
    /// packet per size `sizes` yields, with node-scoped ids — without
    /// offering it to a queue. The fabric admits trains to the egress port
    /// of the route's first link (an arena-indexed queue this NIC does not
    /// own), so building and admission are separate steps;
    /// [`Nic::record_sent`] closes the loop once admission is known.
    pub fn build_train(
        &mut self,
        now: SimTime,
        flow: FlowId,
        dst: NodeId,
        sizes: impl IntoIterator<Item = Bytes>,
        train: &mut Vec<Packet>,
    ) {
        train.extend(sizes.into_iter().map(|size| {
            let id = self.alloc_packet_id();
            Packet::new(id, flow, self.node, dst, size, now)
        }));
    }

    /// Counts `n` packets as injected (train admission happens at the
    /// arena's port queue, outside the NIC).
    pub fn record_sent(&mut self, n: u64) {
        self.packets_sent += n;
    }

    /// Records delivery of a whole train's packets to this node.
    pub fn deliver_train(&mut self, packets: &[Packet]) {
        for packet in packets {
            self.deliver(packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_assigns_unique_ids_scoped_to_the_node() {
        let mut nic = Nic::new(NodeId(3), Bytes::from_kib(256));
        let (p1, o1) = nic.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(7),
            Bytes::new(1500),
            BitRate::from_gbps(100),
        );
        let (p2, _) = nic.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(7),
            Bytes::new(1500),
            BitRate::from_gbps(100),
        );
        assert_ne!(p1.id, p2.id);
        assert!(matches!(o1, EnqueueOutcome::Accepted { .. }));
        assert_eq!(nic.packets_sent, 2);
        assert_eq!(p1.src, NodeId(3));
        assert_eq!(p1.dst, NodeId(7));
    }

    #[test]
    fn ids_from_different_nodes_do_not_collide() {
        let mut a = Nic::new(NodeId(1), Bytes::from_kib(64));
        let mut b = Nic::new(NodeId(2), Bytes::from_kib(64));
        let (pa, _) = a.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(9),
            Bytes::new(64),
            BitRate::from_gbps(100),
        );
        let (pb, _) = b.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(9),
            Bytes::new(64),
            BitRate::from_gbps(100),
        );
        assert_ne!(pa.id, pb.id);
    }

    #[test]
    fn dropped_injections_do_not_count_as_sent() {
        let mut nic = Nic::new(NodeId(0), Bytes::new(1000));
        // First fits, second overflows the 1000-byte buffer.
        let (_, o1) = nic.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(1),
            Bytes::new(900),
            BitRate::from_gbps(10),
        );
        let (_, o2) = nic.inject(
            SimTime::ZERO,
            FlowId(0),
            NodeId(1),
            Bytes::new(900),
            BitRate::from_gbps(10),
        );
        assert!(matches!(o1, EnqueueOutcome::Accepted { .. }));
        assert_eq!(o2, EnqueueOutcome::Dropped);
        assert_eq!(nic.packets_sent, 1);
    }

    #[test]
    fn delivery_counters() {
        let mut src = Nic::new(NodeId(0), Bytes::from_kib(64));
        let mut dst = Nic::new(NodeId(5), Bytes::from_kib(64));
        let (p, _) = src.inject(
            SimTime::ZERO,
            FlowId(9),
            NodeId(5),
            Bytes::new(1200),
            BitRate::from_gbps(100),
        );
        dst.deliver(&p);
        assert_eq!(dst.packets_received, 1);
        assert_eq!(dst.bytes_received, 1200);
    }
}
