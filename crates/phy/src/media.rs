//! Transmission media.
//!
//! The paper is explicitly *media agnostic*: the architecture only requires
//! that whatever medium is in use exposes some subset of the Physical Layer
//! Primitives. The simulator still needs concrete numbers for propagation
//! velocity, attenuation and per-lane reach, so this module provides the
//! three media found inside a rack-scale system: direct-attach copper,
//! multi-mode optical fibre, and the electrical backplane connecting sleds in
//! the same chassis.

use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::Length;
use serde::{Deserialize, Serialize};

/// The family a medium belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MediaKind {
    /// Direct-attach copper (twinax) cable.
    CopperDac,
    /// Multi-mode optical fibre with VCSEL optics.
    OpticalFiber,
    /// PCB backplane traces inside a chassis.
    Backplane,
}

/// A concrete medium instance with its signal-propagation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Media {
    /// Which family this medium is.
    pub kind: MediaKind,
    /// Propagation velocity as a fraction of c.
    pub velocity_factor: f64,
    /// Attenuation in dB per metre at the lane's Nyquist frequency.
    pub attenuation_db_per_m: f64,
    /// Fixed loss of the connectors / transceivers at both ends, in dB.
    pub connector_loss_db: f64,
    /// Transmit-side signal-to-noise ratio in dB before channel loss.
    pub tx_snr_db: f64,
    /// Maximum supported reach; links longer than this refuse to train.
    pub max_reach: Length,
}

impl Media {
    /// Direct-attach copper: cheap and low power but lossy, practical up to a
    /// few metres at 25 Gb/s per lane.
    pub fn copper_dac() -> Media {
        Media {
            kind: MediaKind::CopperDac,
            velocity_factor: 0.70,
            attenuation_db_per_m: 6.0,
            connector_loss_db: 1.5,
            tx_snr_db: 36.0,
            max_reach: Length::from_m(7),
        }
    }

    /// Multi-mode fibre: low loss, rack-length reach, higher transceiver
    /// power.
    pub fn optical_fiber() -> Media {
        Media {
            kind: MediaKind::OpticalFiber,
            velocity_factor: 0.66,
            attenuation_db_per_m: 0.0035,
            connector_loss_db: 3.0,
            tx_snr_db: 34.0,
            max_reach: Length::from_m(100),
        }
    }

    /// Chassis backplane: very short, moderately lossy PCB traces.
    pub fn backplane() -> Media {
        Media {
            kind: MediaKind::Backplane,
            velocity_factor: 0.48,
            attenuation_db_per_m: 20.0,
            connector_loss_db: 1.0,
            tx_snr_db: 38.0,
            max_reach: Length::from_m(1),
        }
    }

    /// Constructs the default medium for a kind.
    pub fn of_kind(kind: MediaKind) -> Media {
        match kind {
            MediaKind::CopperDac => Media::copper_dac(),
            MediaKind::OpticalFiber => Media::optical_fiber(),
            MediaKind::Backplane => Media::backplane(),
        }
    }

    /// Propagation delay across `length` of this medium.
    pub fn propagation_delay(&self, length: Length) -> SimDuration {
        length.propagation_delay(self.velocity_factor)
    }

    /// Total channel loss in dB across `length`, including connectors.
    pub fn channel_loss_db(&self, length: Length) -> f64 {
        self.attenuation_db_per_m * length.as_m_f64() + self.connector_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_have_sensible_ordering() {
        let copper = Media::copper_dac();
        let fiber = Media::optical_fiber();
        let backplane = Media::backplane();
        // Fibre loses far less signal per metre than copper, which loses less
        // than PCB trace.
        assert!(fiber.attenuation_db_per_m < copper.attenuation_db_per_m);
        assert!(copper.attenuation_db_per_m < backplane.attenuation_db_per_m);
        // Fibre reaches the whole rack, copper a few metres, backplane less.
        assert!(fiber.max_reach > copper.max_reach);
        assert!(copper.max_reach > backplane.max_reach);
    }

    #[test]
    fn propagation_is_roughly_5ns_per_metre_in_fibre() {
        let fiber = Media::optical_fiber();
        let d = fiber.propagation_delay(Length::from_m(1));
        let ns = d.as_nanos_f64();
        assert!((4.5..5.5).contains(&ns), "1 m of fibre was {ns} ns");
        // The paper's 2 m inter-switch hop is therefore ~10 ns of media delay.
        let hop = fiber.propagation_delay(Length::from_m(2)).as_nanos_f64();
        assert!((9.0..11.0).contains(&hop));
    }

    #[test]
    fn copper_is_slightly_faster_than_fibre_per_metre() {
        let copper = Media::copper_dac().propagation_delay(Length::from_m(2));
        let fiber = Media::optical_fiber().propagation_delay(Length::from_m(2));
        assert!(copper < fiber, "copper velocity factor is higher");
    }

    #[test]
    fn channel_loss_grows_with_length() {
        let copper = Media::copper_dac();
        assert!(
            copper.channel_loss_db(Length::from_m(3)) > copper.channel_loss_db(Length::from_m(1))
        );
        // 3 m DAC: 6 dB/m * 3 + 1.5 = 19.5 dB.
        assert!((copper.channel_loss_db(Length::from_m(3)) - 19.5).abs() < 1e-9);
    }

    #[test]
    fn of_kind_round_trips() {
        for kind in [
            MediaKind::CopperDac,
            MediaKind::OpticalFiber,
            MediaKind::Backplane,
        ] {
            assert_eq!(Media::of_kind(kind).kind, kind);
        }
    }
}
