//! Adaptive forward error correction — PLP #4.
//!
//! The controller picks, per link, the *weakest* FEC codec that still meets a
//! post-FEC BER target, because every step up the ladder costs latency,
//! bandwidth overhead and power (see [`crate::fec::FecMode`]). A hysteresis
//! margin stops the choice from flapping when the channel sits exactly at a
//! codec's threshold.

use crate::fec::{invert_ber_to_snr_db, FecMode};
use crate::link::Link;
use serde::{Deserialize, Serialize};

/// Policy for choosing FEC codecs from link BER telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveFecController {
    /// Post-FEC BER the fabric must stay below (typical Ethernet target is
    /// 1e-12 or better).
    pub ber_target: f64,
    /// A mode is only relaxed (made weaker) if the weaker mode beats the
    /// target by this many decades; prevents flapping at the boundary.
    pub hysteresis_decades: f64,
}

impl Default for AdaptiveFecController {
    fn default() -> Self {
        AdaptiveFecController {
            ber_target: 1e-12,
            hysteresis_decades: 1.0,
        }
    }
}

impl AdaptiveFecController {
    /// Creates a controller with an explicit BER target.
    pub fn with_target(ber_target: f64) -> Self {
        AdaptiveFecController {
            ber_target,
            ..Default::default()
        }
    }

    /// The weakest mode whose post-FEC BER meets `target`, or the strongest
    /// mode if none do (best effort on a hopeless channel).
    pub fn weakest_sufficient(&self, pre_fec_ber: f64, target: f64) -> FecMode {
        Self::weakest_at_snr(invert_ber_to_snr_db(pre_fec_ber), target)
    }

    /// [`Self::weakest_sufficient`] for a pre-FEC BER already inverted to
    /// its received SNR: every codec is judged at that one SNR.
    fn weakest_at_snr(snr_db: f64, target: f64) -> FecMode {
        for mode in FecMode::ALL {
            if mode.post_fec_ber(snr_db) <= target {
                return mode;
            }
        }
        FecMode::Rs544
    }

    /// Recommends a codec for `link` given its current pre-FEC BER. Returns
    /// `None` when the currently configured codec should be kept (either it
    /// is already the right one, or switching would not clear the hysteresis
    /// margin). The BER is inverted once, through the link's memo
    /// ([`Link::worst_pre_fec_snr_db`]).
    pub fn recommend(&self, link: &Link) -> Option<FecMode> {
        let snr = link.worst_pre_fec_snr_db();
        let current = link.fec;
        let ideal = Self::weakest_at_snr(snr, self.ber_target);

        if ideal == current {
            return None;
        }
        // Strengthening: always do it as soon as the target is violated.
        if (ideal as usize) > (current as usize)
            || FecMode::ALL.iter().position(|m| *m == ideal)
                > FecMode::ALL.iter().position(|m| *m == current)
        {
            return Some(ideal);
        }
        // Weakening: only if the weaker codec beats the target by the
        // hysteresis margin.
        let relaxed_target = self.ber_target * 10f64.powf(-self.hysteresis_decades);
        let relaxed_ideal = Self::weakest_at_snr(snr, relaxed_target);
        if relaxed_ideal != current {
            Some(relaxed_ideal)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkId;
    use crate::media::Media;
    use rackfabric_sim::units::{BitRate, Length};

    fn link_with_ber(ber: f64) -> Link {
        let mut l = Link::new(
            LinkId(0),
            0,
            1,
            Media::copper_dac(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
            0,
        );
        for lane in &mut l.lanes {
            lane.pre_fec_ber = ber;
        }
        l
    }

    #[test]
    fn clean_channel_needs_no_fec() {
        let ctl = AdaptiveFecController::default();
        assert_eq!(ctl.weakest_sufficient(1e-15, 1e-12), FecMode::None);
        let l = link_with_ber(1e-15);
        assert_eq!(ctl.recommend(&l), None, "already at None, keep it");
    }

    #[test]
    fn marginal_channel_gets_the_weakest_sufficient_code() {
        let ctl = AdaptiveFecController::default();
        // A fairly bad channel needs a stronger code than a mild one.
        let mild = ctl.weakest_sufficient(1e-8, 1e-12);
        let bad = ctl.weakest_sufficient(1e-5, 1e-12);
        assert!(mild != FecMode::None);
        let order = |m: FecMode| FecMode::ALL.iter().position(|x| *x == m).unwrap();
        assert!(order(bad) >= order(mild));
    }

    #[test]
    fn hopeless_channel_gets_strongest_code() {
        let ctl = AdaptiveFecController::default();
        assert_eq!(ctl.weakest_sufficient(0.1, 1e-12), FecMode::Rs544);
    }

    #[test]
    fn degradation_triggers_strengthening() {
        let ctl = AdaptiveFecController::default();
        let l = link_with_ber(1e-6);
        let rec = ctl.recommend(&l).expect("a 1e-6 channel needs FEC");
        assert_ne!(rec, FecMode::None);
    }

    #[test]
    fn recovery_only_relaxes_past_hysteresis() {
        let ctl = AdaptiveFecController::default();
        // Configure a strong code on a now-clean channel: should relax.
        let mut l = link_with_ber(1e-15);
        l.set_fec(FecMode::Rs544);
        assert_eq!(ctl.recommend(&l), Some(FecMode::None));

        // A channel that only just meets the target with no FEC must NOT be
        // relaxed away from its current (stronger) setting.
        // Find a pre-FEC BER where None meets 1e-12 but not 1e-13.
        let mut marginal = None;
        let mut ber = 1e-16;
        while ber < 1e-10 {
            let post = FecMode::None.post_fec_ber_from_pre(ber);
            if post <= 1e-12 && post > 1e-13 {
                marginal = Some(ber);
                break;
            }
            ber *= 1.5;
        }
        if let Some(ber) = marginal {
            let mut l2 = link_with_ber(ber);
            l2.set_fec(FecMode::FireCode);
            assert_eq!(
                ctl.recommend(&l2),
                None,
                "marginal channel must keep its stronger codec (hysteresis)"
            );
        }
    }

    #[test]
    fn recommendation_is_stable_under_repeated_evaluation() {
        let ctl = AdaptiveFecController::default();
        let mut l = link_with_ber(1e-7);
        if let Some(m) = ctl.recommend(&l) {
            l.set_fec(m);
        }
        // Applying the recommendation leaves nothing more to recommend.
        assert_eq!(ctl.recommend(&l), None);
    }
}
