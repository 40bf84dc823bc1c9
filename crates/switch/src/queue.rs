//! Egress-port queues.
//!
//! Each directed use of a link has an egress queue at its transmitting node.
//! The queue serialises packets at the link's effective rate, tail-drops when
//! a configured buffer is exceeded, and exposes occupancy telemetry — the
//! congestion signal the Closed Ring Control prices links by.

use crate::packet::Packet;
use rackfabric_sim::stats::TimeWeighted;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes};
use serde::{Deserialize, Serialize};

/// The result of offering a packet to an egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnqueueOutcome {
    /// The packet was accepted; it will finish transmitting at the instant
    /// given, after waiting `queueing` behind earlier packets and taking
    /// `serialization` on the wire.
    Accepted {
        /// Time spent waiting behind earlier packets.
        queueing: SimDuration,
        /// Serialization time of this packet at the link rate.
        serialization: SimDuration,
        /// Absolute instant the last bit leaves the port.
        departs_at: SimTime,
    },
    /// The buffer was full; the packet is dropped.
    Dropped,
}

/// The result of offering a packet train to an egress queue via
/// [`EgressQueue::enqueue_train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainAdmission {
    /// Packets admitted — always a prefix of the offered train (the first
    /// tail-drop stops the batch; the source retries the remainder).
    pub accepted: usize,
    /// True if the packet following the accepted prefix was tail-dropped.
    /// The packets after it were not offered; the caller counts the cut as
    /// one loss.
    pub dropped: bool,
    /// Departure instant of the last accepted packet (only meaningful when
    /// `accepted > 0`).
    pub last_departs_at: SimTime,
    /// Arrival instant of the last accepted packet at the far end of the
    /// link (departure plus propagation and FEC).
    pub last_arrives_at: SimTime,
}

/// An egress port queue with tail-drop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EgressQueue {
    /// Buffer size in bytes (tail drop beyond this).
    pub buffer: Bytes,
    busy_until: SimTime,
    queued_bytes: u64,
    last_drain: SimTime,
    drain_rate: BitRate,
    occupancy: TimeWeighted,
}

impl EgressQueue {
    /// Creates a queue with `buffer` bytes of storage.
    pub fn new(buffer: Bytes) -> Self {
        EgressQueue {
            buffer,
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            last_drain: SimTime::ZERO,
            drain_rate: BitRate::ZERO,
            occupancy: TimeWeighted::new(),
        }
    }

    /// Bytes currently waiting or in transmission at `now` (drains as time
    /// advances past previously computed departures).
    pub fn backlog_at(&self, now: SimTime) -> u64 {
        if self.drain_rate.is_zero() || now <= self.last_drain {
            return self.queued_bytes;
        }
        let drained = self
            .drain_rate
            .bytes_in(now.saturating_since(self.last_drain));
        self.queued_bytes.saturating_sub(drained.as_u64())
    }

    /// True if a packet of `size` offered at `now` fits the buffer: the
    /// tail-drop test [`enqueue`](Self::enqueue) makes, without touching the
    /// queue.
    #[inline]
    pub fn admits(&self, now: SimTime, size: Bytes) -> bool {
        self.backlog_at(now) + size.as_u64() <= self.buffer.as_u64()
    }

    /// Offers a packet of `size` to the queue at `now`, transmitting at
    /// `rate` (the link's current effective capacity). A zero rate (link down
    /// or reconfiguring) drops the packet.
    ///
    /// `now` may lag the queue's accounting high-water mark: train events
    /// fire at their *last* frame's arrival, so trains converging from
    /// different upstream hops can offer frames whose readiness instants
    /// interleave out of order. The drain model only ever advances (never
    /// rewinds `last_drain`, which would double-drain the overlap), while
    /// queueing/departure for the packet itself are still measured from its
    /// own `now` through the monotone `busy_until` chain.
    pub fn enqueue(&mut self, now: SimTime, size: Bytes, rate: BitRate) -> EnqueueOutcome {
        if rate.is_zero() {
            return EnqueueOutcome::Dropped;
        }
        // Advance the drain model to now (monotonically).
        let backlog = self.backlog_at(now);
        self.queued_bytes = backlog;
        self.last_drain = self.last_drain.max(now);
        self.drain_rate = rate;

        if backlog + size.as_u64() > self.buffer.as_u64() {
            self.occupancy.set(self.last_drain, backlog as f64);
            return EnqueueOutcome::Dropped;
        }

        let serialization = rate.serialization_delay(size);
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let queueing = start.saturating_since(now);
        let departs_at = start + serialization;
        self.busy_until = departs_at;
        self.queued_bytes += size.as_u64();
        self.occupancy
            .set(self.last_drain, self.queued_bytes as f64);

        EnqueueOutcome::Accepted {
            queueing,
            serialization,
            departs_at,
        }
    }

    /// Offers a train of packets back-to-back, each at its **own** readiness
    /// instant — the packet's current [`Packet::arrived_at`] (callers add any
    /// switch traversal into it first). Pipelining across hops is preserved
    /// exactly: a frame that physically arrived earlier starts its next
    /// serialization earlier, even though the train fires a single event at
    /// its last frame's arrival. Each accepted packet's latency breakdown is
    /// updated and its `arrived_at` becomes its departure plus `propagation`
    /// and `fec`. Admission stops at the first tail-drop: the dropped packet
    /// and the rest of the train are left untouched for the source to retry.
    /// When `charge_serialization` is false the serialization delay still
    /// shapes departures but is not added to the breakdown (forwarding hops
    /// charge only queueing, matching the per-packet path).
    pub fn enqueue_train(
        &mut self,
        packets: &mut [Packet],
        rate: BitRate,
        propagation: SimDuration,
        fec: SimDuration,
        charge_serialization: bool,
    ) -> TrainAdmission {
        let mut admission = TrainAdmission {
            accepted: 0,
            dropped: false,
            last_departs_at: SimTime::ZERO,
            last_arrives_at: SimTime::ZERO,
        };
        for packet in packets.iter_mut() {
            match self.enqueue(packet.arrived_at, packet.size, rate) {
                EnqueueOutcome::Accepted {
                    queueing,
                    serialization,
                    departs_at,
                } => {
                    packet.breakdown.queueing += queueing;
                    if charge_serialization {
                        packet.breakdown.serialization += serialization;
                    }
                    packet.breakdown.propagation += propagation;
                    packet.breakdown.fec += fec;
                    packet.arrived_at = departs_at + propagation + fec;
                    admission.accepted += 1;
                    admission.last_departs_at = departs_at;
                    admission.last_arrives_at = packet.arrived_at;
                }
                EnqueueOutcome::Dropped => {
                    admission.dropped = true;
                    break;
                }
            }
        }
        admission
    }

    /// Mean queue occupancy in bytes over the observation window ending at
    /// `now`.
    pub fn mean_occupancy(&mut self, now: SimTime) -> f64 {
        self.occupancy.mean_until(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS100: BitRate = BitRate::from_gbps(100);

    #[test]
    fn empty_queue_has_no_queueing_delay() {
        let mut q = EgressQueue::new(Bytes::from_kib(256));
        let out = q.enqueue(SimTime::from_micros(1), Bytes::new(1500), GBPS100);
        match out {
            EnqueueOutcome::Accepted {
                queueing,
                serialization,
                departs_at,
            } => {
                assert_eq!(queueing, SimDuration::ZERO);
                assert_eq!(serialization.as_picos(), 120_000);
                assert_eq!(departs_at, SimTime::from_micros(1) + serialization);
            }
            EnqueueOutcome::Dropped => panic!("must accept"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut q = EgressQueue::new(Bytes::from_kib(256));
        let t = SimTime::from_micros(1);
        let first = q.enqueue(t, Bytes::new(1500), GBPS100);
        let second = q.enqueue(t, Bytes::new(1500), GBPS100);
        let (
            EnqueueOutcome::Accepted { departs_at: d1, .. },
            EnqueueOutcome::Accepted {
                queueing: q2,
                departs_at: d2,
                ..
            },
        ) = (first, second)
        else {
            panic!("both must be accepted");
        };
        assert_eq!(q2, SimDuration::from_nanos(120));
        assert_eq!(d2, d1 + SimDuration::from_nanos(120));
    }

    #[test]
    fn queue_drains_when_time_passes() {
        let mut q = EgressQueue::new(Bytes::from_kib(64));
        let t0 = SimTime::from_micros(1);
        q.enqueue(t0, Bytes::new(1500), GBPS100);
        assert!(q.backlog_at(t0) > 0);
        // 1 ms later everything has long drained.
        assert_eq!(q.backlog_at(SimTime::from_millis(2)), 0);
        let out = q.enqueue(SimTime::from_millis(2), Bytes::new(1500), GBPS100);
        assert!(matches!(out, EnqueueOutcome::Accepted { queueing, .. } if queueing.is_zero()));
    }

    #[test]
    fn overflow_drops_and_counts() {
        // Tiny 3 kB buffer fills after two MTUs.
        let mut q = EgressQueue::new(Bytes::new(3000));
        let t = SimTime::from_micros(1);
        assert!(matches!(
            q.enqueue(t, Bytes::new(1500), GBPS100),
            EnqueueOutcome::Accepted { .. }
        ));
        assert!(matches!(
            q.enqueue(t, Bytes::new(1500), GBPS100),
            EnqueueOutcome::Accepted { .. }
        ));
        assert_eq!(
            q.enqueue(t, Bytes::new(1500), GBPS100),
            EnqueueOutcome::Dropped
        );
        // Only the two accepted frames count towards the backlog and the
        // occupancy the port reports.
        assert_eq!(q.backlog_at(t), 3000);
        assert_eq!(q.mean_occupancy(t + SimDuration::from_nanos(10)), 3000.0);
    }

    /// Regression test: trains converging from different upstream hops can
    /// offer frames whose readiness instants go *backwards* relative to the
    /// port's accounting high-water mark. Rewinding `last_drain` would
    /// double-drain the overlap window and undercount backlog (missing
    /// tail-drops).
    #[test]
    fn out_of_order_enqueues_do_not_rewind_the_drain_model() {
        let mut q = EgressQueue::new(Bytes::new(3200));
        let t = |ns: u64| SimTime::from_nanos(ns);
        // Two MTUs at t=1000 ns: backlog 3000 B, drain mark at 1000 ns.
        q.enqueue(t(1000), Bytes::new(1500), GBPS100);
        q.enqueue(t(1000), Bytes::new(1500), GBPS100);
        // A converging train's frame ready at t=960 ns (before the mark).
        assert!(matches!(
            q.enqueue(t(960), Bytes::new(64), GBPS100),
            EnqueueOutcome::Accepted { .. }
        ));
        // At t=1010 ns only 10 ns have drained past the mark (125 B at
        // 100 Gb/s): 3064 - 125 + 500 > 3200 must tail-drop. A rewound
        // drain mark would fabricate 50 ns of drainage and accept it.
        assert_eq!(
            q.enqueue(t(1010), Bytes::new(500), GBPS100),
            EnqueueOutcome::Dropped,
            "rewound drain model under-counts backlog"
        );
    }

    #[test]
    fn train_enqueue_matches_sequential_enqueues() {
        use crate::packet::{FlowId, PacketId};
        use rackfabric_topo::NodeId;
        let t = SimTime::from_micros(1);
        let prop = SimDuration::from_nanos(10);
        let fec = SimDuration::from_nanos(100);

        // Reference: three sequential per-packet enqueues.
        let mut seq = EgressQueue::new(Bytes::from_kib(256));
        let mut reference = Vec::new();
        for _ in 0..3 {
            if let EnqueueOutcome::Accepted { departs_at, .. } =
                seq.enqueue(t, Bytes::new(1500), GBPS100)
            {
                reference.push(departs_at + prop + fec);
            }
        }

        // Batched: one train of three packets.
        let mut batched = EgressQueue::new(Bytes::from_kib(256));
        let mut packets: Vec<Packet> = (0..3)
            .map(|i| {
                Packet::new(
                    PacketId(i),
                    FlowId(0),
                    NodeId(0),
                    NodeId(1),
                    Bytes::new(1500),
                    t,
                )
            })
            .collect();
        let admission = batched.enqueue_train(&mut packets, GBPS100, prop, fec, true);
        assert_eq!(admission.accepted, 3);
        assert!(!admission.dropped);
        let arrivals: Vec<SimTime> = packets.iter().map(|p| p.arrived_at).collect();
        assert_eq!(arrivals, reference, "per-packet arrivals must be exact");
        assert_eq!(admission.last_arrives_at, *reference.last().unwrap());
        let later = t + SimDuration::from_nanos(500);
        assert_eq!(batched.backlog_at(t), seq.backlog_at(t));
        assert_eq!(batched.mean_occupancy(later), seq.mean_occupancy(later));
        // Breakdown accounting: the second packet queued behind the first.
        assert!(packets[1].breakdown.queueing > SimDuration::ZERO);
        assert_eq!(packets[1].breakdown.propagation, prop);
        assert_eq!(packets[1].breakdown.fec, fec);
        assert!(packets[1].breakdown.serialization > SimDuration::ZERO);
    }

    #[test]
    fn train_enqueue_stops_at_first_drop() {
        use crate::packet::{FlowId, PacketId};
        use rackfabric_topo::NodeId;
        // 3 kB buffer: two MTUs fit, the third tail-drops, the fourth is
        // left untouched for retry.
        let mut q = EgressQueue::new(Bytes::new(3000));
        let t = SimTime::from_micros(1);
        let mut packets: Vec<Packet> = (0..4)
            .map(|i| {
                Packet::new(
                    PacketId(i),
                    FlowId(0),
                    NodeId(0),
                    NodeId(1),
                    Bytes::new(1500),
                    t,
                )
            })
            .collect();
        let admission = q.enqueue_train(
            &mut packets,
            GBPS100,
            SimDuration::ZERO,
            SimDuration::ZERO,
            true,
        );
        assert_eq!(admission.accepted, 2);
        assert!(admission.dropped);
        assert_eq!(q.backlog_at(t), 3000, "only the accepted prefix is queued");
        // The untouched tail packet kept its pristine breakdown.
        assert_eq!(packets[3].breakdown.queueing, SimDuration::ZERO);
        assert_eq!(packets[3].arrived_at, t);
    }

    #[test]
    fn admits_is_the_tail_drop_test_of_enqueue() {
        let mut q = EgressQueue::new(Bytes::new(4_000));
        let t = |ns: u64| SimTime::from_nanos(ns);
        q.enqueue(t(1_000), Bytes::new(1_500), GBPS100);
        q.enqueue(t(1_000), Bytes::new(1_500), GBPS100);
        for ns in [990, 1_000, 1_004, 1_010, 1_030, 1_100] {
            for size in [64, 900, 1_000, 1_062, 1_063, 1_500] {
                let (at, size) = (t(ns), Bytes::new(size));
                let accepted = matches!(
                    q.clone().enqueue(at, size, GBPS100),
                    EnqueueOutcome::Accepted { .. }
                );
                assert_eq!(q.admits(at, size), accepted, "{size:?} at {at}");
            }
        }
    }

    /// Injection offers a train's first frame alone when `admits` says it
    /// does not fit; that must leave the port exactly as offering the whole
    /// train would have.
    #[test]
    fn a_train_whose_first_frame_does_not_fit_acts_as_that_frame_alone() {
        use crate::packet::{FlowId, PacketId};
        use rackfabric_topo::NodeId;
        let t = |ns: u64| SimTime::from_nanos(ns);
        let primed = || {
            let mut q = EgressQueue::new(Bytes::new(4_000));
            q.enqueue(t(1_000), Bytes::new(1_500), GBPS100);
            q.enqueue(t(1_000), Bytes::new(1_500), GBPS100);
            q
        };
        // 5 ns after two MTUs, 62 B have drained: 2,938 + 1,500 > 4,000.
        let now = t(1_005);
        let (mut whole, mut alone) = (primed(), primed());
        assert!(!whole.admits(now, Bytes::new(1_500)));
        let mut packets: Vec<Packet> = (0..3)
            .map(|i| {
                Packet::new(
                    PacketId(i),
                    FlowId(0),
                    NodeId(0),
                    NodeId(1),
                    Bytes::new(1_500),
                    now,
                )
            })
            .collect();
        let prop = SimDuration::from_nanos(10);
        let admission = whole.enqueue_train(&mut packets, GBPS100, prop, prop, true);
        assert_eq!((admission.accepted, admission.dropped), (0, true));
        assert_eq!(
            alone.enqueue(now, Bytes::new(1_500), GBPS100),
            EnqueueOutcome::Dropped
        );
        let same = |whole: &mut EgressQueue, alone: &mut EgressQueue| {
            for at in [now, t(1_010), t(1_020), t(1_100), t(5_000)] {
                assert_eq!(
                    whole.backlog_at(at),
                    alone.backlog_at(at),
                    "backlog at {at}"
                );
                assert_eq!(
                    whole.mean_occupancy(at),
                    alone.mean_occupancy(at),
                    "mean at {at}"
                );
            }
        };
        same(&mut whole, &mut alone);
        // The drain state matches too: later offers fare alike.
        for (ns, size) in [(1_012, 1_500), (1_013, 1_500), (1_040, 700)] {
            assert_eq!(
                whole.enqueue(t(ns), Bytes::new(size), GBPS100),
                alone.enqueue(t(ns), Bytes::new(size), GBPS100)
            );
        }
        same(&mut whole, &mut alone);
    }

    #[test]
    fn zero_rate_drops() {
        let mut q = EgressQueue::new(Bytes::from_kib(64));
        assert_eq!(
            q.enqueue(SimTime::ZERO, Bytes::new(100), BitRate::ZERO),
            EnqueueOutcome::Dropped
        );
    }

    #[test]
    fn utilization_and_occupancy_telemetry() {
        let mut q = EgressQueue::new(Bytes::from_kib(256));
        let mut now = SimTime::ZERO;
        let mut busy = SimDuration::ZERO;
        for _ in 0..100 {
            let EnqueueOutcome::Accepted {
                queueing,
                serialization,
                ..
            } = q.enqueue(now, Bytes::new(1500), GBPS100)
            else {
                panic!("an idle port accepts");
            };
            assert!(queueing.is_zero(), "at 50% load no frame waits");
            busy += serialization;
            now += SimDuration::from_nanos(240); // offered at 50% load
        }
        assert_eq!(busy.ratio(now.saturating_since(SimTime::ZERO)), 0.5);
        // Each offer finds the previous frame gone, so the occupancy steps
        // to one frame and holds it until the next offer.
        assert_eq!(q.mean_occupancy(now), 1500.0);
    }
}
