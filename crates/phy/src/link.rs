//! Links: bundles of lanes between two endpoints.
//!
//! A link is the object the Closed Ring Control prices and the Physical
//! Layer Primitives manipulate. It owns a set of [`Lane`]s, a [`Media`], a
//! physical length and a [`FecMode`]; its effective capacity, traversal
//! latency, error rate and power draw all derive from those.
//!
//! A link also memoises the SNR its worst pre-FEC BER inverts to
//! ([`Link::worst_pre_fec_snr_db`]), the one numerical step of its post-FEC
//! BER that is expensive. The memo is keyed by the BER itself, so no lane
//! edit has to invalidate it.

use crate::error::PhyError;
use crate::fec::{invert_ber_to_snr_db, FecMode};
use crate::lane::{Lane, LaneId, LaneState};
use crate::media::Media;
use crate::signal;
use crate::stats::LinkTelemetry;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes, Length, Power};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Identifier of a link within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u64);

/// Administrative/operational state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LinkState {
    /// Carrying traffic.
    #[default]
    Up,
    /// Administratively or operationally down (PLP #3 with `on = false`).
    Down,
    /// Mid-reconfiguration (splitting, bundling, retraining after an FEC
    /// change); traffic is paused until the PLP completion fires.
    Reconfiguring,
}

/// A physical link: a bundle of lanes over one medium between two endpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Fabric-wide identifier.
    pub id: LinkId,
    /// One endpoint (node index as assigned by the topology layer).
    pub endpoint_a: u32,
    /// The other endpoint.
    pub endpoint_b: u32,
    /// Medium this link runs over.
    pub media: Media,
    /// Physical length of the cable / trace.
    pub length: Length,
    /// The lanes bundled into this link.
    pub lanes: Vec<Lane>,
    /// FEC codec applied on every lane.
    pub fec: FecMode,
    /// Operational state.
    pub state: LinkState,
    /// The last [`Link::worst_pre_fec_snr_db`] answer: the BER's bits and
    /// the SNR they invert to.
    snr_memo: Cell<Option<(u64, f64)>>,
}

impl Link {
    /// Creates a link of `num_lanes` lanes, each at `lane_rate`, assigning
    /// lane ids starting from `first_lane_id`. BER is initialised from the
    /// signal-integrity model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: LinkId,
        endpoint_a: u32,
        endpoint_b: u32,
        media: Media,
        length: Length,
        num_lanes: usize,
        lane_rate: BitRate,
        first_lane_id: u64,
    ) -> Self {
        let lanes = (0..num_lanes)
            .map(|i| Lane::new(LaneId(first_lane_id + i as u64), lane_rate))
            .collect();
        let mut link = Link {
            id,
            endpoint_a,
            endpoint_b,
            media,
            length,
            lanes,
            fec: FecMode::None,
            state: LinkState::Up,
            snr_memo: Cell::new(None),
        };
        link.refresh_ber();
        link
    }

    /// True if the link connects `a` and `b` (in either orientation).
    pub fn connects(&self, a: u32, b: u32) -> bool {
        (self.endpoint_a == a && self.endpoint_b == b)
            || (self.endpoint_a == b && self.endpoint_b == a)
    }

    /// True if the link touches node `n`.
    pub fn touches(&self, n: u32) -> bool {
        self.endpoint_a == n || self.endpoint_b == n
    }

    /// Number of lanes currently usable (up).
    pub fn active_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.state.is_usable()).count()
    }

    /// Number of lanes physically attached.
    pub fn total_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Raw aggregate signalling rate of the usable lanes.
    pub fn raw_capacity(&self) -> BitRate {
        if self.state != LinkState::Up {
            return BitRate::ZERO;
        }
        self.lanes.iter().map(|l| l.usable_rate()).sum()
    }

    /// Effective capacity after FEC overhead.
    pub fn capacity(&self) -> BitRate {
        self.fec.effective_rate(self.raw_capacity())
    }

    /// Time to serialize `size` onto the link at its effective capacity.
    pub fn serialization_delay(&self, size: Bytes) -> SimDuration {
        self.capacity().serialization_delay(size)
    }

    /// Propagation delay across the link's medium and length.
    pub fn propagation_delay(&self) -> SimDuration {
        self.media.propagation_delay(self.length)
    }

    /// Latency added by the FEC encoder/decoder pair.
    pub fn fec_latency(&self) -> SimDuration {
        self.fec.added_latency()
    }

    /// One-way traversal latency of a frame of `size`: serialization +
    /// propagation + FEC. Queueing and switching are accounted by the switch
    /// layer, not here. A link without capacity (powered off, every lane
    /// down) never finishes serializing: its latency is
    /// [`SimDuration::MAX`].
    pub fn traversal_latency(&self, size: Bytes) -> SimDuration {
        self.serialization_delay(size)
            .saturating_add(self.propagation_delay() + self.fec_latency())
    }

    /// Recomputes each lane's pre-FEC BER from the signal-integrity model
    /// (media, length, per-lane rate, per-lane impairment).
    pub fn refresh_ber(&mut self) {
        for lane in &mut self.lanes {
            lane.pre_fec_ber =
                signal::lane_ber(&self.media, self.length, lane.rate, lane.impairment_db);
        }
    }

    /// Worst pre-FEC BER across usable lanes (1e-18 floor when no lanes).
    pub fn worst_pre_fec_ber(&self) -> f64 {
        self.lanes
            .iter()
            .filter(|l| l.state.is_usable())
            .map(|l| l.pre_fec_ber)
            .fold(1e-18, f64::max)
    }

    /// The received SNR equivalent to [`Link::worst_pre_fec_ber`], exactly
    /// as [`invert_ber_to_snr_db`] returns it.
    ///
    /// The inversion is a 64-step bisection, and the control loop asks for
    /// it every epoch (telemetry, then the FEC recommendation) while the BER
    /// moves only when the lanes do. So the link keeps its last answer,
    /// keyed by the BER's bits. The key is the inversion's own input: a lane
    /// edit of any kind (a PLP, [`Link::refresh_ber`], a direct write to
    /// `lanes`) yields different bits and so a fresh inversion, and nothing
    /// has to invalidate the memo.
    pub fn worst_pre_fec_snr_db(&self) -> f64 {
        let ber = self.worst_pre_fec_ber();
        let bits = ber.to_bits();
        match self.snr_memo.get() {
            Some((key, snr)) if key == bits => snr,
            _ => {
                let snr = invert_ber_to_snr_db(ber);
                self.snr_memo.set(Some((bits, snr)));
                snr
            }
        }
    }

    /// Post-FEC BER of the link with the currently configured codec (the
    /// same value as `fec.post_fec_ber_from_pre(worst_pre_fec_ber())`).
    pub fn post_fec_ber(&self) -> f64 {
        self.fec.post_fec_ber(self.worst_pre_fec_snr_db())
    }

    /// Changes the FEC mode. The caller (PLP executor) is responsible for
    /// modelling the retraining latency.
    pub fn set_fec(&mut self, mode: FecMode) {
        self.fec = mode;
    }

    /// Sets the number of usable lanes by powering lanes up or down, highest
    /// lane index first (PLP #1 at the "thin out a link" end, PLP #3 per
    /// lane). Requesting more usable lanes than physically attached is an
    /// error.
    pub fn set_active_lanes(&mut self, usable: usize) -> Result<(), PhyError> {
        if usable > self.lanes.len() {
            return Err(PhyError::NotEnoughLanes {
                link: self.id,
                requested: usable,
                available: self.lanes.len(),
            });
        }
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let want_up = i < usable;
            let is_up = lane.state.is_usable();
            if want_up && !is_up {
                lane.set_state(LaneState::Up);
            } else if !want_up && is_up {
                lane.set_state(LaneState::Off);
            }
        }
        Ok(())
    }

    /// Removes `k` lanes from the tail of the bundle and returns them (PLP
    /// #1: link breaking). The removed lanes keep their identities so they
    /// can be re-bundled onto another link.
    pub fn take_lanes(&mut self, k: usize) -> Result<Vec<Lane>, PhyError> {
        if k >= self.lanes.len() {
            return Err(PhyError::NotEnoughLanes {
                link: self.id,
                requested: k,
                available: self.lanes.len(),
            });
        }
        let at = self.lanes.len() - k;
        Ok(self.lanes.split_off(at))
    }

    /// Appends lanes to the bundle (PLP #1: bundling).
    pub fn add_lanes(&mut self, mut lanes: Vec<Lane>) {
        self.lanes.append(&mut lanes);
        self.refresh_ber();
    }

    /// Powers the whole link on or off (PLP #3).
    pub fn set_power(&mut self, on: bool) {
        self.state = if on { LinkState::Up } else { LinkState::Down };
        for lane in &mut self.lanes {
            lane.set_state(if on { LaneState::Up } else { LaneState::Off });
        }
    }

    /// Distributes `bytes` of carried traffic across the usable lanes (round
    /// robin by byte count is indistinguishable at this granularity).
    pub fn record_traffic(&mut self, now: SimTime, bytes: u64) {
        let usable: Vec<usize> = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state.is_usable())
            .map(|(i, _)| i)
            .collect();
        if usable.is_empty() {
            return;
        }
        let per_lane = bytes / usable.len() as u64;
        let mut remainder = bytes % usable.len() as u64;
        for idx in usable {
            let extra = if remainder > 0 {
                remainder -= 1;
                1
            } else {
                0
            };
            self.lanes[idx].record_traffic(now, per_lane + extra);
        }
    }

    /// Builds a telemetry snapshot. Utilization, queue occupancy and power
    /// are supplied by the switch layer and power model respectively, because
    /// the link itself does not know about queues or the power state machine.
    pub fn telemetry(
        &self,
        at: SimTime,
        utilization: f64,
        queue_occupancy_bytes: f64,
        power: Power,
    ) -> LinkTelemetry {
        LinkTelemetry {
            link: self.id,
            at,
            active_lanes: self.active_lanes(),
            total_lanes: self.total_lanes(),
            capacity: self.capacity(),
            utilization,
            worst_pre_fec_ber: self.worst_pre_fec_ber(),
            post_fec_ber: self.post_fec_ber(),
            fec_mode: self.fec,
            latency: self.traversal_latency(Bytes::new(1500)),
            queue_occupancy_bytes,
            power,
            up: self.state == LinkState::Up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_lane_link() -> Link {
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
    fn hundred_gig_link_from_four_lanes() {
        let link = four_lane_link();
        assert_eq!(link.total_lanes(), 4);
        assert_eq!(link.active_lanes(), 4);
        assert_eq!(link.raw_capacity(), BitRate::from_gbps(100));
        // With no FEC, effective == raw.
        assert_eq!(link.capacity(), BitRate::from_gbps(100));
        assert!(link.connects(0, 1) && link.connects(1, 0));
        assert!(link.touches(0) && !link.touches(7));
    }

    #[test]
    fn traversal_latency_components_add_up() {
        let link = four_lane_link();
        let frame = Bytes::new(1500);
        let total = link.traversal_latency(frame);
        let sum = link.serialization_delay(frame) + link.propagation_delay() + link.fec_latency();
        assert_eq!(total, sum);
        // 1500 B at 100 G is 120 ns; 2 m fibre is ~10 ns; no FEC.
        let ns = total.as_nanos_f64();
        assert!((125.0..140.0).contains(&ns), "traversal was {ns} ns");
    }

    #[test]
    fn fec_reduces_capacity_and_adds_latency_but_cleans_ber() {
        let mut link = Link::new(
            LinkId(1),
            0,
            1,
            Media::copper_dac(),
            Length::from_m(5),
            4,
            BitRate::from_gbps(50),
            0,
        );
        let ber_before = link.post_fec_ber();
        let cap_before = link.capacity();
        let lat_before = link.traversal_latency(Bytes::new(1500));
        link.set_fec(FecMode::Rs544);
        assert!(link.capacity() < cap_before);
        assert!(link.traversal_latency(Bytes::new(1500)) > lat_before);
        assert!(link.post_fec_ber() < ber_before);
    }

    #[test]
    fn set_active_lanes_halves_capacity() {
        let mut link = four_lane_link();
        link.set_active_lanes(2).unwrap();
        assert_eq!(link.active_lanes(), 2);
        assert_eq!(link.raw_capacity(), BitRate::from_gbps(50));
        link.set_active_lanes(4).unwrap();
        assert_eq!(link.raw_capacity(), BitRate::from_gbps(100));
        assert!(link.set_active_lanes(5).is_err());
    }

    #[test]
    fn take_and_add_lanes_preserve_identity() {
        let mut link = four_lane_link();
        let taken = link.take_lanes(2).unwrap();
        assert_eq!(taken.len(), 2);
        assert_eq!(link.total_lanes(), 2);
        assert_eq!(link.raw_capacity(), BitRate::from_gbps(50));
        let ids: Vec<u64> = taken.iter().map(|l| l.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        // Cannot take every lane: a link must keep at least one.
        assert!(link.take_lanes(2).is_err());
        link.add_lanes(taken);
        assert_eq!(link.total_lanes(), 4);
    }

    #[test]
    fn power_off_removes_capacity() {
        let mut link = four_lane_link();
        link.set_power(false);
        assert_eq!(link.state, LinkState::Down);
        assert_eq!(link.raw_capacity(), BitRate::ZERO);
        assert_eq!(link.capacity(), BitRate::ZERO);
        link.set_power(true);
        assert_eq!(link.raw_capacity(), BitRate::from_gbps(100));
    }

    #[test]
    fn ber_refresh_tracks_length_and_rate() {
        let short = Link::new(
            LinkId(0),
            0,
            1,
            Media::copper_dac(),
            Length::from_m(1),
            4,
            BitRate::from_gbps(25),
            0,
        );
        let long = Link::new(
            LinkId(1),
            0,
            1,
            Media::copper_dac(),
            Length::from_m(5),
            4,
            BitRate::from_gbps(50),
            4,
        );
        assert!(long.worst_pre_fec_ber() > short.worst_pre_fec_ber());
    }

    #[test]
    fn traffic_is_spread_across_usable_lanes() {
        let mut link = four_lane_link();
        link.set_active_lanes(3).unwrap();
        link.record_traffic(SimTime::from_micros(1), 10);
        let carried: Vec<u64> = link.lanes.iter().map(|l| l.stats.bytes_carried).collect();
        assert_eq!(carried.iter().sum::<u64>(), 10);
        assert_eq!(carried[3], 0, "the powered-down lane must carry nothing");
        assert!(carried[0] >= 3 && carried[0] <= 4);
    }

    #[test]
    fn traffic_on_fully_down_link_is_dropped_silently() {
        let mut link = four_lane_link();
        link.set_power(false);
        link.record_traffic(SimTime::from_micros(1), 1000);
        assert!(link.lanes.iter().all(|l| l.stats.bytes_carried == 0));
    }

    #[test]
    fn telemetry_snapshot_reflects_link_state() {
        let mut link = four_lane_link();
        link.set_fec(FecMode::Rs528);
        link.set_active_lanes(2).unwrap();
        let t = link.telemetry(SimTime::from_micros(3), 0.7, 12_000.0, Power::from_watts(2));
        assert_eq!(t.link, link.id);
        assert_eq!(t.active_lanes, 2);
        assert_eq!(t.total_lanes, 4);
        assert_eq!(t.fec_mode, FecMode::Rs528);
        assert!(t.up);
        assert!((t.utilization - 0.7).abs() < 1e-12);
        assert!(t.capacity < BitRate::from_gbps(50));
        assert!(t.latency > SimDuration::from_nanos(100));
    }
}
