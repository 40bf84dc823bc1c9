//! Per-lane and per-link telemetry — PLP #5.
//!
//! The paper's Closed Ring Control "uses feedback from the interconnect such
//! as latency, power consumption etc., to tag each link with a cost
//! function". These are the structures that carry that feedback: raw per-lane
//! counters ([`LaneStats`]), a per-link snapshot ([`LinkTelemetry`]) and the
//! rack-wide report ([`TelemetryReport`]) delivered to the controller on
//! every control epoch.

use crate::fec::FecMode;
use crate::link::LinkId;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Power};
use serde::{Deserialize, Serialize};

/// Raw counters kept by each lane (PLP #5: per-lane statistics).
///
/// The fabric engines charge every byte a link carried — switched or
/// bypassed, since both cross its lanes — once per control epoch, split
/// over the link's usable lanes by [`Link::record_traffic`](crate::Link::record_traffic).
/// The monolithic engine also charges the run's last, partial epoch. The
/// control loop reads none of these counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LaneStats {
    /// Total bytes carried by the lane.
    pub bytes_carried: u64,
    /// Expected number of bit errors accumulated (BER × bits).
    pub accumulated_bit_errors: f64,
    /// Number of state transitions (up/down/training/faulty).
    pub state_transitions: u64,
    /// Last instant the lane carried traffic.
    pub last_activity: SimTime,
}

/// One link's load over a control epoch, as the switching layer measured it
/// (the input [`PhyState::telemetry_report_by`](crate::PhyState::telemetry_report_by)
/// reads per link). The default is an idle link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkLoad {
    /// Offered load as a fraction of capacity.
    pub utilization: f64,
    /// Mean queue occupancy in bytes at the link's busier transmitting port.
    pub queue_bytes: f64,
    /// Carried throughput.
    pub throughput: BitRate,
}

/// A per-link telemetry snapshot, produced once per control epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Which link this snapshot describes.
    pub link: LinkId,
    /// Instant the snapshot was taken.
    pub at: SimTime,
    /// Number of usable lanes.
    pub active_lanes: usize,
    /// Total lanes physically attached to the link.
    pub total_lanes: usize,
    /// Effective (post-FEC-overhead) capacity.
    pub capacity: BitRate,
    /// Offered load over the last epoch as a fraction of capacity (0..1+,
    /// values above 1 indicate an overloaded link).
    pub utilization: f64,
    /// Worst pre-FEC bit error rate across the link's lanes.
    pub worst_pre_fec_ber: f64,
    /// Post-FEC bit error rate with the currently configured codec.
    pub post_fec_ber: f64,
    /// FEC mode currently configured.
    pub fec_mode: FecMode,
    /// One-way latency contributed by this link (serialization of an MTU +
    /// propagation + FEC), as measured over the last epoch.
    pub latency: SimDuration,
    /// Mean queue occupancy in bytes at the transmitting port over the epoch.
    pub queue_occupancy_bytes: f64,
    /// Electrical power currently drawn by the link's lanes and FEC engines.
    pub power: Power,
    /// True if the link is administratively up.
    pub up: bool,
}

impl LinkTelemetry {
    /// A congestion indicator in [0, 1]: how close the link is to saturation,
    /// blending utilization with queue build-up.
    pub fn congestion_score(&self, queue_reference_bytes: f64) -> f64 {
        let util = self.utilization.clamp(0.0, 2.0) / 2.0;
        let queue = if queue_reference_bytes > 0.0 {
            (self.queue_occupancy_bytes / queue_reference_bytes).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (0.6 * util + 0.4 * queue).clamp(0.0, 1.0)
    }

    /// A health indicator in [0, 1]: 1 is a clean link, 0 is unusable.
    pub fn health_score(&self, ber_target: f64) -> f64 {
        if !self.up || self.active_lanes == 0 {
            return 0.0;
        }
        if self.post_fec_ber <= ber_target {
            1.0
        } else {
            // Each decade above target halves the health.
            let decades = (self.post_fec_ber / ber_target).log10().max(0.0);
            (0.5f64.powf(decades)).clamp(0.0, 1.0)
        }
    }
}

/// The rack-wide telemetry report handed to the Closed Ring Control each
/// epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Instant the report was assembled.
    pub at: SimTime,
    /// Snapshot for every link in the fabric.
    pub links: Vec<LinkTelemetry>,
    /// Total power drawn by the interconnect at the snapshot instant.
    pub total_power: Power,
    /// Number of active bypasses.
    pub active_bypasses: usize,
}

impl TelemetryReport {
    /// Creates an empty report at `at`.
    pub fn new(at: SimTime) -> Self {
        TelemetryReport {
            at,
            links: Vec::new(),
            total_power: Power::ZERO,
            active_bypasses: 0,
        }
    }

    /// Looks up one link's snapshot.
    pub fn link(&self, id: LinkId) -> Option<&LinkTelemetry> {
        self.links.iter().find(|l| l.link == id)
    }

    /// Mean utilization across up links (0 when there are none).
    pub fn mean_utilization(&self) -> f64 {
        let up: Vec<&LinkTelemetry> = self.links.iter().filter(|l| l.up).collect();
        if up.is_empty() {
            0.0
        } else {
            up.iter().map(|l| l.utilization).sum::<f64>() / up.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(link: u64, util: f64, queue: f64) -> LinkTelemetry {
        LinkTelemetry {
            link: LinkId(link),
            at: SimTime::from_micros(10),
            active_lanes: 4,
            total_lanes: 4,
            capacity: BitRate::from_gbps(100),
            utilization: util,
            worst_pre_fec_ber: 1e-12,
            post_fec_ber: 1e-15,
            fec_mode: FecMode::Rs528,
            latency: SimDuration::from_nanos(200),
            queue_occupancy_bytes: queue,
            power: Power::from_watts(3),
            up: true,
        }
    }

    #[test]
    fn congestion_score_orders_links() {
        let idle = telemetry(0, 0.05, 0.0);
        let busy = telemetry(1, 0.9, 40_000.0);
        assert!(busy.congestion_score(64_000.0) > idle.congestion_score(64_000.0));
        assert!(idle.congestion_score(64_000.0) >= 0.0);
        assert!(busy.congestion_score(64_000.0) <= 1.0);
    }

    #[test]
    fn congestion_score_handles_zero_reference() {
        let t = telemetry(0, 0.5, 1000.0);
        let s = t.congestion_score(0.0);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn health_score_degrades_with_ber() {
        let mut t = telemetry(0, 0.1, 0.0);
        assert_eq!(t.health_score(1e-12), 1.0);
        t.post_fec_ber = 1e-10; // two decades above a 1e-12 target
        let h = t.health_score(1e-12);
        assert!(
            (0.2..0.3).contains(&h),
            "two decades over target ~0.25, got {h}"
        );
        t.up = false;
        assert_eq!(t.health_score(1e-12), 0.0);
    }

    #[test]
    fn report_lookup_and_aggregates() {
        let mut r = TelemetryReport::new(SimTime::from_micros(1));
        r.links.push(telemetry(0, 0.2, 0.0));
        r.links.push(telemetry(1, 0.8, 10_000.0));
        r.links.push(telemetry(2, 0.5, 0.0));
        assert!(r.link(LinkId(1)).is_some());
        assert!(r.link(LinkId(9)).is_none());
        assert!((r.mean_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let r = TelemetryReport::new(SimTime::ZERO);
        assert_eq!(r.mean_utilization(), 0.0);
    }
}
