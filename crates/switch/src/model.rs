//! Switch datapath models.
//!
//! Two forwarding disciplines are modelled:
//!
//! * **Cut-through** — the switch starts transmitting on the egress port as
//!   soon as the header has been received and the forwarding decision made.
//!   Per-hop latency is the pipeline delay plus the serialization of the
//!   header bytes only. This is the "state-of-the-art layer-2 cut-through
//!   switch" of the paper's Figure 1.
//! * **Store-and-forward** — the whole frame is received before forwarding,
//!   so the full serialization delay is paid again at every hop.
//!
//! Both are parameterised by a pipeline latency; the default of 400 ns for
//! cut-through is in the range published for commodity rack switches of the
//! paper's era (300–500 ns port-to-port).

use crate::packet::CUT_THROUGH_HEADER;
use rackfabric_phy::Link;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};
use serde::{Deserialize, Serialize};

/// Forwarding discipline of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SwitchKind {
    /// Forwarding starts once the header is in.
    #[default]
    CutThrough,
    /// The full frame is buffered before forwarding.
    StoreAndForward,
}

/// A per-hop switch latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchModel {
    /// Forwarding discipline.
    pub kind: SwitchKind,
    /// Fixed pipeline latency (parsing, lookup, arbitration, SerDes).
    pub pipeline_latency: SimDuration,
}

impl Default for SwitchModel {
    fn default() -> Self {
        SwitchModel::cut_through()
    }
}

impl SwitchModel {
    /// A state-of-the-art cut-through rack switch (~400 ns port to port).
    pub fn cut_through() -> Self {
        SwitchModel {
            kind: SwitchKind::CutThrough,
            pipeline_latency: SimDuration::from_nanos(400),
        }
    }

    /// A store-and-forward switch with the same pipeline.
    pub fn store_and_forward() -> Self {
        SwitchModel {
            kind: SwitchKind::StoreAndForward,
            pipeline_latency: SimDuration::from_nanos(400),
        }
    }

    /// A cut-through model with an explicit pipeline latency.
    pub fn with_pipeline(pipeline_latency: SimDuration) -> Self {
        SwitchModel {
            kind: SwitchKind::CutThrough,
            pipeline_latency,
        }
    }

    /// The switching latency contributed by one traversal of this switch for
    /// a frame of `size` that will leave on `egress`. This is the latency in
    /// *addition* to the egress link's own serialization/propagation/FEC
    /// (which the caller charges separately), so:
    ///
    /// * cut-through pays the pipeline plus receiving the header,
    /// * store-and-forward pays the pipeline plus receiving the whole frame
    ///   at the egress link rate.
    pub fn traversal_latency(&self, size: Bytes, egress: &Link) -> SimDuration {
        self.traversal_latency_at(size, egress.capacity())
    }

    /// [`Self::traversal_latency`] against a raw egress capacity, for
    /// callers that cache link capacities in dense arrays instead of holding
    /// a [`Link`] reference on the hot path.
    pub fn traversal_latency_at(&self, size: Bytes, capacity: BitRate) -> SimDuration {
        match self.kind {
            SwitchKind::CutThrough => {
                let hdr = Bytes::new(size.as_u64().min(CUT_THROUGH_HEADER.as_u64()));
                self.pipeline_latency + capacity.serialization_delay(hdr)
            }
            SwitchKind::StoreAndForward => {
                self.pipeline_latency + capacity.serialization_delay(size)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_phy::link::LinkId;
    use rackfabric_phy::media::Media;
    use rackfabric_sim::units::{BitRate, Length};

    fn link_100g() -> Link {
        Link::new(
            LinkId(0),
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
            0,
        )
    }

    #[test]
    fn cut_through_latency_is_independent_of_frame_size() {
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let small = m.traversal_latency(Bytes::new(64), &link);
        let large = m.traversal_latency(Bytes::new(1500), &link);
        assert_eq!(small, large, "cut-through only waits for the header");
        // 400 ns pipeline + 64 B @ 100G (5.12 ns).
        let ns = large.as_nanos_f64();
        assert!((404.0..407.0).contains(&ns), "per-hop latency was {ns} ns");
    }

    #[test]
    fn store_and_forward_pays_full_serialization_per_hop() {
        let ct = SwitchModel::cut_through();
        let sf = SwitchModel::store_and_forward();
        let link = link_100g();
        let frame = Bytes::new(1500);
        assert!(sf.traversal_latency(frame, &link) > ct.traversal_latency(frame, &link));
        // The difference is the serialization of (frame - header).
        let diff = sf.traversal_latency(frame, &link) - ct.traversal_latency(frame, &link);
        let expected = link.capacity().serialization_delay(Bytes::new(1500 - 64));
        assert_eq!(diff, expected);
    }

    #[test]
    fn tiny_frames_never_pay_more_than_their_size() {
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let tiny = m.traversal_latency(Bytes::new(32), &link);
        let header = m.traversal_latency(Bytes::new(64), &link);
        assert!(tiny < header);
    }

    #[test]
    fn switching_dominates_media_at_rack_scale() {
        // The core claim behind Figure 1: one switch hop costs far more than
        // 2 m of fibre.
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let switch_hop = m.traversal_latency(Bytes::new(1500), &link);
        let media_hop = link.propagation_delay();
        assert!(switch_hop.as_nanos_f64() > 20.0 * media_hop.as_nanos_f64());
    }
}
