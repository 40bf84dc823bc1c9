//! Power model.
//!
//! Rack-scale systems inherit the power budget of a traditional rack (the
//! paper lists power as one of the two first-order constraints alongside
//! latency), so every PLP decision is made against the power it adds or
//! saves. The model here charges each powered lane a static SerDes cost plus
//! a per-bit dynamic cost, each FEC engine its own cost, and each bypass a
//! small cross-connect cost; a powered-down lane costs (almost) nothing.

use crate::link::{Link, LinkState};
use rackfabric_sim::units::{BitRate, Power};
use serde::{Deserialize, Serialize};

/// Power state the CRC can put a link into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PowerState {
    /// Full power, all configured lanes active.
    #[default]
    Active,
    /// Low-power idle: lanes keep lock but transmit idles; reduced draw and
    /// instant (sub-microsecond) exit.
    LowPower,
    /// Completely off: zero dynamic and static draw, expensive to re-train.
    Off,
}

/// The coefficients of the power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static power of one active lane's SerDes pair (both ends).
    pub lane_static: Power,
    /// Dynamic energy cost expressed as power per Gb/s of carried traffic.
    pub dynamic_per_gbps: Power,
    /// Fraction of static power still drawn in low-power idle.
    pub low_power_fraction: f64,
    /// Power of an optical transceiver pair per lane (added for fibre media).
    pub optics_per_lane: Power,
    /// Power of one active bypass cross-connect.
    pub bypass_crossconnect: Power,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            // ~750 mW per 25G SerDes pair is typical of the generation the
            // paper targets.
            lane_static: Power::from_milliwatts(750),
            dynamic_per_gbps: Power::from_milliwatts(15),
            low_power_fraction: 0.25,
            optics_per_lane: Power::from_milliwatts(350),
            bypass_crossconnect: Power::from_milliwatts(450),
        }
    }
}

impl PowerModel {
    /// Power drawn by a link given its current state, configured FEC and the
    /// offered load (as achieved throughput).
    pub fn link_power(&self, link: &Link, throughput: BitRate, state: PowerState) -> Power {
        if state == PowerState::Off || link.state == LinkState::Down {
            return Power::ZERO;
        }
        let powered_lanes = link.lanes.iter().filter(|l| l.state.is_powered()).count() as u64;
        let is_optical = matches!(link.media.kind, crate::media::MediaKind::OpticalFiber);
        let mut static_power = self.lane_static * powered_lanes;
        if is_optical {
            static_power += self.optics_per_lane * powered_lanes;
        }
        static_power += link.fec.power_per_lane() * powered_lanes;

        match state {
            PowerState::Active => {
                let dynamic = self
                    .dynamic_per_gbps
                    .scale(throughput.as_gbps_f64().max(0.0));
                static_power + dynamic
            }
            PowerState::LowPower => static_power.scale(self.low_power_fraction),
            PowerState::Off => Power::ZERO,
        }
    }

    /// Power of `n` active bypass cross-connects.
    pub fn bypass_power(&self, active_bypasses: usize) -> Power {
        self.bypass_crossconnect * active_bypasses as u64
    }

    /// Estimated saving from dropping a link from `from_lanes` to `to_lanes`
    /// active lanes (static component only; used by the CRC when planning).
    pub fn lane_reduction_saving(&self, link: &Link, from_lanes: usize, to_lanes: usize) -> Power {
        if to_lanes >= from_lanes {
            return Power::ZERO;
        }
        let delta = (from_lanes - to_lanes) as u64;
        let is_optical = matches!(link.media.kind, crate::media::MediaKind::OpticalFiber);
        let mut per_lane = self.lane_static + link.fec.power_per_lane();
        if is_optical {
            per_lane += self.optics_per_lane;
        }
        per_lane * delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::FecMode;
    use crate::link::LinkId;
    use crate::media::Media;
    use rackfabric_sim::units::Length;

    fn link(media: Media, lanes: usize) -> Link {
        Link::new(
            LinkId(0),
            0,
            1,
            media,
            Length::from_m(2),
            lanes,
            BitRate::from_gbps(25),
            0,
        )
    }

    #[test]
    fn idle_link_draws_static_power_only() {
        let m = PowerModel::default();
        let l = link(Media::copper_dac(), 4);
        let idle = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        let busy = m.link_power(&l, BitRate::from_gbps(100), PowerState::Active);
        assert_eq!(idle, Power::from_milliwatts(3000));
        assert!(busy > idle);
        // Dynamic component: 100 Gb/s * 15 mW/Gbps = 1.5 W.
        assert_eq!(busy, Power::from_milliwatts(4500));
    }

    #[test]
    fn optical_links_cost_more_than_copper() {
        let m = PowerModel::default();
        let copper = m.link_power(
            &link(Media::copper_dac(), 4),
            BitRate::ZERO,
            PowerState::Active,
        );
        let fibre = m.link_power(
            &link(Media::optical_fiber(), 4),
            BitRate::ZERO,
            PowerState::Active,
        );
        assert!(fibre > copper);
    }

    #[test]
    fn fec_engines_add_power() {
        let m = PowerModel::default();
        let mut l = link(Media::copper_dac(), 4);
        let without = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        l.set_fec(FecMode::Rs544);
        let with = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        assert_eq!(with - without, Power::from_milliwatts(800));
    }

    #[test]
    fn low_power_and_off_states() {
        let m = PowerModel::default();
        let l = link(Media::copper_dac(), 4);
        let active = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        let low = m.link_power(&l, BitRate::ZERO, PowerState::LowPower);
        let off = m.link_power(&l, BitRate::ZERO, PowerState::Off);
        assert!(low < active);
        assert!((low.as_watts_f64() - active.as_watts_f64() * 0.25).abs() < 1e-9);
        assert_eq!(off, Power::ZERO);
    }

    #[test]
    fn powered_down_lanes_do_not_draw() {
        let m = PowerModel::default();
        let mut l = link(Media::copper_dac(), 4);
        let four = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        l.set_active_lanes(1).unwrap();
        let one = m.link_power(&l, BitRate::ZERO, PowerState::Active);
        assert_eq!(one * 4, four);
        assert_eq!(
            m.lane_reduction_saving(&l, 4, 1),
            Power::from_milliwatts(750 * 3)
        );
        assert_eq!(m.lane_reduction_saving(&l, 1, 4), Power::ZERO);
    }

    #[test]
    fn administratively_down_link_draws_nothing() {
        let m = PowerModel::default();
        let mut l = link(Media::copper_dac(), 4);
        l.set_power(false);
        assert_eq!(
            m.link_power(&l, BitRate::from_gbps(10), PowerState::Active),
            Power::ZERO
        );
    }

    #[test]
    fn bypass_power_scales_with_count() {
        let m = PowerModel::default();
        assert_eq!(m.bypass_power(0), Power::ZERO);
        assert_eq!(m.bypass_power(3), Power::from_milliwatts(1350));
    }
}
