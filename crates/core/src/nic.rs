//! Host-side injection: a flow's source offering its next train to the
//! fabric.
//!
//! Every source node numbers the packets it builds from one sequence, so
//! packet ids are node-scoped: the node index in the high bits and the
//! node's sequence in the low 40. Both engines inject through
//! `LinkTable::inject`, which looks the route up, checks the first link and
//! hands that link's egress port to [`Source::offer_train`].

use crate::fabric::{FabricConfig, FlowProgress, LinkHot};
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::Bytes;
use rackfabric_switch::packet::{FlowId, Packet, PacketId};
use rackfabric_switch::queue::{EgressQueue, EnqueueOutcome, TrainAdmission};
use rackfabric_switch::train::train_frames;
use rackfabric_workload::Flow;

/// A flow's source-side state, as one injection reads and updates it.
pub(crate) struct Source<'a> {
    /// The flow's index, which its packets carry as their [`FlowId`].
    pub(crate) index: usize,
    pub(crate) flow: Flow,
    /// The flow's progress, kept where the flow is sourced.
    pub(crate) progress: &'a mut FlowProgress,
    /// The sequence number of the source node's next packet.
    pub(crate) next_packet: &'a mut u64,
}

impl Source<'_> {
    /// Bytes the flow has yet to inject.
    pub(crate) fn remaining(&self) -> u64 {
        self.flow
            .size
            .as_u64()
            .saturating_sub(self.progress.injected)
    }

    /// Offers the flow's next train at `now` to `port`, the egress port of
    /// its route's first link `link`, and returns the packets the port
    /// accepted with their admission.
    ///
    /// A train whose first frame the port has no room for is turned away
    /// before it is built: offering that frame alone drops it with the
    /// accounting `enqueue_train` would do, and takes neither a packet id
    /// nor a buffer from `spare`. Otherwise the train is sized by the link's
    /// rate window, built into a buffer from `spare` with its packets
    /// numbered from the source node's sequence, and offered back to back;
    /// the frames past the port's first tail-drop are cut off again, their
    /// ids spent.
    pub(crate) fn offer_train(
        &mut self,
        port: &mut EgressQueue,
        link: LinkHot,
        config: &FabricConfig,
        now: SimTime,
        spare: &mut Vec<Vec<Packet>>,
    ) -> Option<(Vec<Packet>, TrainAdmission)> {
        let remaining = self.remaining();
        let mtu = config.mtu.as_u64();
        let first = Bytes::new(remaining.min(mtu));
        if !port.admits(now, first) {
            let outcome = port.enqueue(now, first, link.capacity);
            debug_assert_eq!(outcome, EnqueueOutcome::Dropped);
            return None;
        }

        let budget = train_frames(link.capacity, config.train_window, config.mtu);
        let frames = budget.min(remaining.div_ceil(mtu)).max(1);
        let flow = self.flow;
        let (node_ids, flow_id) = ((flow.src.as_u32() as u64) << 40, FlowId(self.index as u64));
        let next_packet = &mut *self.next_packet;
        let mut left = remaining;
        let mut packets = spare.pop().unwrap_or_default();
        packets.extend((0..frames).map(|_| {
            let size = left.min(mtu);
            left -= size;
            let id = PacketId(node_ids | *next_packet);
            *next_packet += 1;
            Packet::new(id, flow_id, flow.src, flow.dst, Bytes::new(size), now)
        }));
        let admission = port.enqueue_train(
            &mut packets,
            link.capacity,
            link.propagation,
            link.fec,
            true,
        );
        packets.truncate(admission.accepted);
        debug_assert!(admission.accepted > 0, "the port admitted no first frame");
        Some((packets, admission))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::time::SimDuration;
    use rackfabric_sim::units::BitRate;
    use rackfabric_topo::spec::TopologySpec;
    use rackfabric_topo::NodeId;
    use rackfabric_workload::WorkloadFlowId;

    fn flow(src: u32, dst: u32, size: u64) -> Flow {
        Flow {
            id: WorkloadFlowId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            size: Bytes::new(size),
            start_at: SimTime::ZERO,
        }
    }

    /// Offers the first train of `flow` (index 0) at `now` to `port` over a
    /// 100 Gb/s link, numbering from its source node's sequence `seq`.
    fn offer(
        port: &mut EgressQueue,
        seq: &mut u64,
        flow: Flow,
        now: SimTime,
        spare: &mut Vec<Vec<Packet>>,
    ) -> Option<(Vec<Packet>, TrainAdmission)> {
        let link = LinkHot {
            capacity: BitRate::from_gbps(100),
            propagation: SimDuration::from_nanos(10),
            fec: SimDuration::ZERO,
            up: true,
        };
        let config = FabricConfig::adaptive(TopologySpec::line(2, 4));
        let mut progress = FlowProgress::default();
        let mut source = Source {
            index: 0,
            flow,
            progress: &mut progress,
            next_packet: seq,
        };
        source.offer_train(port, link, &config, now, spare)
    }

    #[test]
    fn injection_assigns_unique_ids_scoped_to_the_node() {
        let mut port = EgressQueue::new(Bytes::from_kib(256));
        let mut seq = 0;
        let now = SimTime::ZERO;
        // Two MTU frames fit one 1 µs train window at 100 Gb/s.
        let (packets, admission) = offer(&mut port, &mut seq, flow(3, 7, 3000), now, &mut vec![])
            .expect("an empty port admits the train");
        assert_eq!(admission.accepted, 2);
        let ids: Vec<PacketId> = packets.iter().map(|p| p.id).collect();
        assert_eq!(ids, [PacketId(3 << 40), PacketId(3 << 40 | 1)]);
        assert!(packets
            .iter()
            .all(|p| p.src == NodeId(3) && p.dst == NodeId(7)));
        assert_eq!(seq, 2);

        // The node's next train, of any of its flows, continues the sequence.
        let (next, _) = offer(&mut port, &mut seq, flow(3, 5, 64), now, &mut vec![])
            .expect("the port has room for one more frame");
        assert_eq!(next[0].id, PacketId(3 << 40 | 2));
        assert_eq!(seq, 3);
    }

    #[test]
    fn ids_from_different_nodes_do_not_collide() {
        let mut a = EgressQueue::new(Bytes::from_kib(64));
        let mut b = EgressQueue::new(Bytes::from_kib(64));
        let (mut seq_a, mut seq_b) = (0, 0);
        let now = SimTime::ZERO;
        let (pa, _) = offer(&mut a, &mut seq_a, flow(1, 9, 64), now, &mut vec![]).unwrap();
        let (pb, _) = offer(&mut b, &mut seq_b, flow(2, 9, 64), now, &mut vec![]).unwrap();
        assert_eq!((seq_a, seq_b), (1, 1));
        assert_ne!(pa[0].id, pb[0].id);
        assert_eq!(pa[0].id, PacketId(1 << 40));
        assert_eq!(pb[0].id, PacketId(2 << 40));
    }

    #[test]
    fn dropped_injections_do_not_count_as_sent() {
        let mut port = EgressQueue::new(Bytes::new(1000));
        let mut seq = 0;
        let now = SimTime::ZERO;
        let mut spare = vec![Vec::with_capacity(8)];
        // First fits, second overflows the 1000-byte buffer.
        let (sent, admission) =
            offer(&mut port, &mut seq, flow(0, 1, 900), now, &mut spare).unwrap();
        assert_eq!((sent.len(), admission.accepted), (1, 1));
        assert!(!admission.dropped);
        assert!(spare.is_empty(), "the admitted train took the spare buffer");

        spare.push(Vec::with_capacity(8));
        assert!(offer(&mut port, &mut seq, flow(0, 1, 900), now, &mut spare).is_none());
        assert_eq!(seq, 1, "the turned-away train took no packet id");
        assert_eq!(spare.len(), 1, "nor a buffer");
        assert_eq!(port.backlog_at(now), 900, "nor room in the port");
    }
}
