//! Packet trains: batched link transmission.
//!
//! Under load a flow emits long runs of back-to-back MTU frames whose
//! departure and arrival instants are fully determined by the egress queue's
//! serialization chain — simulating each frame with its own event buys no
//! fidelity and multiplies the event count. A [`Train`] groups the frames
//! that one injection (or one hop traversal) admits back-to-back, so the
//! simulation fires **one event per link drain** — sized by the link's rate
//! window — instead of one per packet. Per-packet latency accounting stays
//! exact: each packet's departure/arrival instants are computed analytically
//! by [`EgressQueue::enqueue_train`](crate::queue::EgressQueue::enqueue_train)
//! and carried on the packet itself ([`Packet::arrived_at`]).
//!
//! A train holds its route as a shared [`InternedRoute`] handle, and the
//! fabric recycles the packet buffer of every train that ends into the next
//! injection.

use crate::packet::Packet;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_topo::InternedRoute;

/// A batch of same-flow packets moving together along one route. The train's
/// event fires when its **last** packet finishes arriving; earlier packets'
/// arrival instants are carried per packet.
#[derive(Debug, Clone)]
pub struct Train {
    /// The route every packet in the train follows (shared, interned).
    pub route: InternedRoute,
    /// Index of the next node of `route` (see [`InternedRoute::node`]) the
    /// train arrives at.
    pub hop_index: usize,
    /// The packets, in injection order.
    pub packets: Vec<Packet>,
}

/// Maximum number of MTU frames one train may carry: the number of frames a
/// link at `rate` serialises within `window`, at least 1. This is the
/// event-collapsing factor of the batched drain.
pub fn train_frames(rate: BitRate, window: SimDuration, mtu: Bytes) -> u64 {
    if mtu.as_u64() == 0 {
        return 1;
    }
    (rate.bytes_in(window).as_u64() / mtu.as_u64()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_frames_scales_with_rate_window() {
        let mtu = Bytes::new(1500);
        // 100 Gb/s for 1 µs = 12.5 kB = 8 MTUs.
        assert_eq!(
            train_frames(BitRate::from_gbps(100), SimDuration::from_micros(1), mtu),
            8
        );
        // A slow link still sends at least one frame per train.
        assert_eq!(
            train_frames(BitRate::from_gbps(1), SimDuration::from_nanos(10), mtu),
            1
        );
        assert_eq!(
            train_frames(BitRate::ZERO, SimDuration::from_micros(1), mtu),
            1
        );
    }
}
