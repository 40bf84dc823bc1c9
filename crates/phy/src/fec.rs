//! Forward error correction codecs.
//!
//! Adaptive FEC is PLP #4 in the paper: as a lane's channel degrades (longer
//! reach, higher rate, ageing optics) the fabric can trade latency and a few
//! percent of bandwidth for coding gain instead of dropping the lane. The
//! three codecs modelled here are the ones real 25G/100G Ethernet PHYs
//! negotiate, with their standard overhead and typical decode latencies:
//!
//! | mode           | overhead | coding gain | added latency |
//! |----------------|----------|-------------|---------------|
//! | `None`         | 0        | 0 dB        | 0 ns          |
//! | `FireCode`     | ~3 %     | ~2.5 dB     | ~50 ns        |
//! | `Rs528` (KR4)  | ~2.7 %   | ~5.5 dB     | ~100 ns       |
//! | `Rs544` (KP4)  | ~5.7 %   | ~7.5 dB     | ~180 ns       |
//!
//! Post-FEC BER is computed by applying the coding gain to the received SNR
//! and re-evaluating the Q-function, which reproduces the characteristic
//! waterfall shape (a strong code turns a 1e-6 channel into a practically
//! error-free one but cannot rescue a 1e-2 channel).
//!
//! When only BER telemetry is available, the BER is first inverted back to
//! an SNR by bisection ([`invert_ber_to_snr_db`]). That inversion is the
//! costly step, so a [`Link`](crate::link::Link) memoises it for its worst
//! lane ([`Link::worst_pre_fec_snr_db`](crate::link::Link::worst_pre_fec_snr_db)),
//! and the adaptive FEC controller judges every codec at that one SNR.

use crate::signal;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Power};
use serde::{Deserialize, Serialize};

/// The FEC codec applied to every lane of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FecMode {
    /// No FEC: zero latency and overhead, no coding gain.
    #[default]
    None,
    /// IEEE "BASE-R" Fire code: cheap, small gain.
    FireCode,
    /// Reed–Solomon RS(528,514), a.k.a. Clause 91 / KR4.
    Rs528,
    /// Reed–Solomon RS(544,514), a.k.a. KP4, the strongest standard code.
    Rs544,
}

impl FecMode {
    /// All modes, ordered from weakest to strongest.
    pub const ALL: [FecMode; 4] = [
        FecMode::None,
        FecMode::FireCode,
        FecMode::Rs528,
        FecMode::Rs544,
    ];

    /// Fraction of raw bandwidth consumed by parity symbols.
    pub fn overhead(self) -> f64 {
        match self {
            FecMode::None => 0.0,
            FecMode::FireCode => 0.030,
            FecMode::Rs528 => 0.027,
            FecMode::Rs544 => 0.057,
        }
    }

    /// Effective coding gain in dB applied to the received SNR.
    pub fn coding_gain_db(self) -> f64 {
        match self {
            FecMode::None => 0.0,
            FecMode::FireCode => 2.5,
            FecMode::Rs528 => 5.5,
            FecMode::Rs544 => 7.5,
        }
    }

    /// Added encode+decode latency per traversal of the link.
    pub fn added_latency(self) -> SimDuration {
        match self {
            FecMode::None => SimDuration::ZERO,
            FecMode::FireCode => SimDuration::from_nanos(50),
            FecMode::Rs528 => SimDuration::from_nanos(100),
            FecMode::Rs544 => SimDuration::from_nanos(180),
        }
    }

    /// Additional power drawn by the FEC engine per lane.
    pub fn power_per_lane(self) -> Power {
        match self {
            FecMode::None => Power::ZERO,
            FecMode::FireCode => Power::from_milliwatts(60),
            FecMode::Rs528 => Power::from_milliwatts(120),
            FecMode::Rs544 => Power::from_milliwatts(200),
        }
    }

    /// Effective data rate after subtracting parity overhead.
    pub fn effective_rate(self, raw: BitRate) -> BitRate {
        raw.scale(1.0 - self.overhead())
    }

    /// Post-FEC bit error rate given the received SNR in dB (before coding
    /// gain is applied).
    pub fn post_fec_ber(self, received_snr_db: f64) -> f64 {
        signal::snr_to_ber(received_snr_db + self.coding_gain_db())
    }

    /// Post-FEC BER given the *pre-FEC BER* directly. The pre-FEC BER is
    /// inverted back to an equivalent SNR, the coding gain applied, and the
    /// BER re-evaluated. Used when only BER telemetry is available.
    pub fn post_fec_ber_from_pre(self, pre_fec_ber: f64) -> f64 {
        let snr = invert_ber_to_snr_db(pre_fec_ber);
        self.post_fec_ber(snr)
    }

    /// The next stronger mode, if any.
    pub fn stronger(self) -> Option<FecMode> {
        match self {
            FecMode::None => Some(FecMode::FireCode),
            FecMode::FireCode => Some(FecMode::Rs528),
            FecMode::Rs528 => Some(FecMode::Rs544),
            FecMode::Rs544 => None,
        }
    }

    /// The next weaker mode, if any.
    pub fn weaker(self) -> Option<FecMode> {
        match self {
            FecMode::None => None,
            FecMode::FireCode => Some(FecMode::None),
            FecMode::Rs528 => Some(FecMode::FireCode),
            FecMode::Rs544 => Some(FecMode::Rs528),
        }
    }
}

/// Numerically inverts `snr_to_ber` by bisection on the SNR axis.
pub fn invert_ber_to_snr_db(ber: f64) -> f64 {
    let target = ber.clamp(1e-18, 0.5);
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    // snr_to_ber is monotone decreasing in SNR.
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if signal::snr_to_ber(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_latency_power_increase_with_strength() {
        let modes = FecMode::ALL;
        for w in modes.windows(2) {
            let (weak, strong) = (w[0], w[1]);
            assert!(strong.coding_gain_db() > weak.coding_gain_db());
            assert!(strong.added_latency() >= weak.added_latency());
            assert!(strong.power_per_lane() >= weak.power_per_lane());
        }
    }

    #[test]
    fn effective_rate_subtracts_overhead() {
        let raw = BitRate::from_gbps(100);
        assert_eq!(FecMode::None.effective_rate(raw), raw);
        let kp4 = FecMode::Rs544.effective_rate(raw);
        assert!(kp4 < raw);
        assert!(kp4 > BitRate::from_gbps(90));
    }

    #[test]
    fn stronger_code_lower_post_fec_ber() {
        // A marginal channel around 12 dB.
        let snr = 12.0;
        let none = FecMode::None.post_fec_ber(snr);
        let fire = FecMode::FireCode.post_fec_ber(snr);
        let rs528 = FecMode::Rs528.post_fec_ber(snr);
        let rs544 = FecMode::Rs544.post_fec_ber(snr);
        assert!(none > fire && fire > rs528 && rs528 > rs544);
        assert!(
            rs544 < 1e-9,
            "KP4 should clean up a 14 dB channel, got {rs544}"
        );
    }

    #[test]
    fn fec_cannot_rescue_a_terrible_channel() {
        let snr = 3.0; // hopeless
        let ber = FecMode::Rs544.post_fec_ber(snr);
        assert!(
            ber > 1e-4,
            "no standard FEC fixes a 3 dB channel, got {ber}"
        );
    }

    #[test]
    fn ber_inversion_round_trips() {
        // Stay below the BER clamp floor (~17.5 dB maps to 1e-18).
        for snr in [8.0, 10.0, 13.0, 15.0, 16.5] {
            let ber = signal::snr_to_ber(snr);
            let back = invert_ber_to_snr_db(ber);
            assert!((back - snr).abs() < 0.1, "snr {snr} -> ber {ber} -> {back}");
        }
    }

    #[test]
    fn post_fec_from_pre_matches_snr_path() {
        let snr = 15.0;
        let pre = signal::snr_to_ber(snr);
        let a = FecMode::Rs528.post_fec_ber(snr);
        let b = FecMode::Rs528.post_fec_ber_from_pre(pre);
        let ratio = if a > b { a / b } else { b / a };
        assert!(
            ratio < 10.0,
            "the two paths should agree within an order of magnitude"
        );
    }

    #[test]
    fn stronger_and_weaker_walk_the_ladder() {
        assert_eq!(FecMode::None.stronger(), Some(FecMode::FireCode));
        assert_eq!(FecMode::Rs544.stronger(), None);
        assert_eq!(FecMode::Rs544.weaker(), Some(FecMode::Rs528));
        assert_eq!(FecMode::None.weaker(), None);
        // Walking up then down returns to the start.
        let m = FecMode::FireCode;
        assert_eq!(m.stronger().unwrap().weaker().unwrap(), m);
    }

    #[test]
    fn default_is_no_fec() {
        assert_eq!(FecMode::default(), FecMode::None);
    }
}
