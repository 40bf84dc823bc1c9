//! Physical units used throughout the fabric model.
//!
//! The physical layer deals in lane rates (25/50 Gb/s), cable lengths
//! (centimetres to tens of metres inside a rack), and power (milliwatts per
//! SerDes, a handful of kilowatts per rack). Keeping these as dedicated
//! newtypes prevents the classic unit mix-ups (bits vs. bytes, Gb/s vs. GB/s)
//! and centralises the conversions into [`SimDuration`]s.

use crate::time::{SimDuration, PS_PER_S};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// A data size in bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size from a byte count.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }
    /// Creates a size from kibibytes (1024 B).
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }
    /// Creates a size from mebibytes (1024 KiB).
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }
    /// Creates a size from gibibytes (1024 MiB).
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }
    /// The raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
    /// The size in bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }
    /// The size as a float byte count.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }
    /// True if zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}
impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}
impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}
impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}
impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}
impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct BitRate(u64);

impl BitRate {
    /// Zero bit rate (a disabled link).
    pub const ZERO: BitRate = BitRate(0);

    /// Creates a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }
    /// Creates a rate from gigabits per second (decimal, as link rates are
    /// always quoted: 25 Gb/s, 100 Gb/s).
    pub const fn from_gbps(gbps: u64) -> Self {
        BitRate(gbps * 1_000_000_000)
    }
    /// The raw bits-per-second value.
    pub const fn as_bps(self) -> u64 {
        self.0
    }
    /// The rate in gigabits per second.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// True if the rate is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to serialize `size` at this rate. A zero rate yields
    /// [`SimDuration::MAX`] (the data never finishes transmitting).
    #[inline]
    pub fn serialization_delay(self, size: Bytes) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // bits * 1e12 / bps, in u64 while the product fits (every frame
        // up to 2,305,843 B), in u128 past that.
        let ps = match size.bits().checked_mul(PS_PER_S) {
            Some(scaled) => scaled / self.0,
            None => {
                let ps = (size.bits() as u128 * PS_PER_S as u128) / self.0 as u128;
                ps.min(u64::MAX as u128) as u64
            }
        };
        SimDuration::from_picos(ps)
    }

    /// How many bytes can be carried in `window` at this rate.
    #[inline]
    pub fn bytes_in(self, window: SimDuration) -> Bytes {
        // bps * ps / 1e12 / 8, in u64 while the product fits (windows up
        // to ~184 us at 100 Gb/s), in u128 past that.
        let bytes = match self.0.checked_mul(window.as_picos()) {
            Some(scaled) => scaled / PS_PER_S / 8,
            None => {
                let bits = (self.0 as u128 * window.as_picos() as u128) / PS_PER_S as u128;
                (bits / 8).min(u64::MAX as u128) as u64
            }
        };
        Bytes::new(bytes)
    }

    /// Scales the rate by a factor in [0, +inf), saturating.
    pub fn scale(self, factor: f64) -> BitRate {
        if !factor.is_finite() || factor <= 0.0 {
            return BitRate::ZERO;
        }
        let v = self.0 as f64 * factor;
        BitRate(if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        })
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}
impl AddAssign for BitRate {
    fn add_assign(&mut self, rhs: BitRate) {
        self.0 += rhs.0;
    }
}
impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.saturating_sub(rhs.0))
    }
}
impl Mul<u64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: u64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}
impl Div<u64> for BitRate {
    type Output = BitRate;
    fn div(self, rhs: u64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}
impl Sum for BitRate {
    fn sum<I: Iterator<Item = BitRate>>(iter: I) -> BitRate {
        BitRate(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}
impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// A physical length, stored in millimetres.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Length(u64);

impl Length {
    /// Zero length.
    pub const ZERO: Length = Length(0);

    /// Creates a length from millimetres.
    pub const fn from_mm(mm: u64) -> Self {
        Length(mm)
    }
    /// Creates a length from metres.
    pub const fn from_m(m: u64) -> Self {
        Length(m * 1000)
    }
    /// The length in millimetres.
    pub const fn as_mm(self) -> u64 {
        self.0
    }
    /// The length in metres as a float.
    pub fn as_m_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Propagation delay over this length given a velocity factor
    /// (fraction of c; ~0.66 for fibre, ~0.7 for copper).
    pub fn propagation_delay(self, velocity_factor: f64) -> SimDuration {
        let vf = velocity_factor.clamp(0.01, 1.0);
        let seconds = self.as_m_f64() / (SPEED_OF_LIGHT_M_PER_S * vf);
        SimDuration::from_secs_f64(seconds)
    }
}

impl Add for Length {
    type Output = Length;
    fn add(self, rhs: Length) -> Length {
        Length(self.0 + rhs.0)
    }
}
impl Mul<u64> for Length {
    type Output = Length;
    fn mul(self, rhs: u64) -> Length {
        Length(self.0 * rhs)
    }
}
impl Sum for Length {
    fn sum<I: Iterator<Item = Length>>(iter: I) -> Length {
        Length(iter.map(|l| l.0).sum())
    }
}

impl fmt::Debug for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}
impl fmt::Display for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 {
            write!(f, "{}m", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{}mm", self.0)
        }
    }
}

/// Electrical power, stored in milliwatts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Power(u64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0);

    /// Creates power from milliwatts.
    pub const fn from_milliwatts(mw: u64) -> Self {
        Power(mw)
    }
    /// Creates power from watts.
    pub const fn from_watts(w: u64) -> Self {
        Power(w * 1000)
    }
    /// Creates power from kilowatts.
    pub const fn from_kilowatts(kw: u64) -> Self {
        Power(kw * 1_000_000)
    }
    /// The power in milliwatts.
    pub const fn as_milliwatts(self) -> u64 {
        self.0
    }
    /// The power in watts as a float.
    pub fn as_watts_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Power) -> Power {
        Power(self.0.saturating_sub(other.0))
    }
    /// Scales power by a non-negative factor.
    pub fn scale(self, factor: f64) -> Power {
        if !factor.is_finite() || factor <= 0.0 {
            return Power::ZERO;
        }
        let v = self.0 as f64 * factor;
        Power(if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        })
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}
impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}
impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0.saturating_sub(rhs.0))
    }
}
impl Mul<u64> for Power {
    type Output = Power;
    fn mul(self, rhs: u64) -> Power {
        Power(self.0 * rhs)
    }
}
impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum())
    }
}

impl fmt::Debug for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}
impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}kW", self.0 as f64 / 1e6)
        } else if self.0 >= 1000 {
            write!(f, "{:.2}W", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}mW", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_bits() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(2).as_u64(), 2 * 1024 * 1024 * 1024);
        assert_eq!(Bytes::new(10).bits(), 80);
        assert_eq!(Bytes::new(3) + Bytes::new(4), Bytes::new(7));
    }

    #[test]
    fn serialization_delay_at_100g() {
        // One byte at 100 Gb/s is 80 ps.
        let rate = BitRate::from_gbps(100);
        assert_eq!(rate.serialization_delay(Bytes::new(1)).as_picos(), 80);
        // A 1500-byte frame at 100 Gb/s is 120 ns.
        assert_eq!(
            rate.serialization_delay(Bytes::new(1500)).as_picos(),
            120_000
        );
        // A 1500-byte frame at 10 Gb/s is 1.2 us.
        assert_eq!(
            BitRate::from_gbps(10)
                .serialization_delay(Bytes::new(1500))
                .as_picos(),
            1_200_000
        );
    }

    #[test]
    fn serialization_delay_zero_rate_is_never() {
        assert_eq!(
            BitRate::ZERO.serialization_delay(Bytes::new(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn bytes_in_window_inverts_serialization() {
        let rate = BitRate::from_gbps(100);
        let window = SimDuration::from_micros(1);
        // 100 Gb/s for 1 us = 100 kb = 12.5 kB.
        assert_eq!(rate.bytes_in(window).as_u64(), 12_500);
    }

    /// `serialization_delay` of `size` bytes at `bps`, in u128 throughout.
    fn delay_u128(bps: u64, size: u64) -> u64 {
        let ps = (size as u128 * 8 * 1_000_000_000_000) / bps as u128;
        ps.min(u64::MAX as u128) as u64
    }

    /// `bytes_in` a window of `ps` at `bps`, in u128 throughout.
    fn bytes_in_u128(bps: u64, ps: u64) -> u64 {
        let bits = (bps as u128 * ps as u128) / 1_000_000_000_000;
        (bits / 8).min(u64::MAX as u128) as u64
    }

    fn check(bps: u64, size: u64, ps: u64) {
        let rate = BitRate::from_bps(bps);
        assert_eq!(
            rate.serialization_delay(Bytes::new(size)).as_picos(),
            delay_u128(bps, size),
            "{size} B at {bps} b/s"
        );
        assert_eq!(
            rate.bytes_in(SimDuration::from_picos(ps)).as_u64(),
            bytes_in_u128(bps, ps),
            "{ps} ps at {bps} b/s"
        );
    }

    #[test]
    fn rate_arithmetic_equals_the_u128_formulas() {
        let mut rng = crate::rng::DetRng::new(19);
        // Values of every magnitude, so both sides of each overflow check
        // are drawn often; sizes stay small enough for `bits` to fit a u64.
        let mut any = || {
            let shift = rng.range_u64(0..64);
            rng.next_u64() >> shift
        };
        for _ in 0..100_000 {
            check(any().max(1), any() >> 3, any());
        }
    }

    #[test]
    fn rate_arithmetic_is_exact_at_each_overflow_boundary() {
        // The largest size whose bits * 1e12 fits a u64.
        let last_fast_size = u64::MAX / 8 / 1_000_000_000_000;
        assert_eq!(last_fast_size, 2_305_843);
        for bps in [
            1,
            3,
            25_000_000_000,
            100_000_000_000,
            400_000_000_000,
            u64::MAX,
        ] {
            // The longest window whose bps * ps fits a u64: 184,467,440 ps
            // (~184 us) at 100 Gb/s.
            let last_fast_ps = u64::MAX / bps;
            for step in 0..=4 {
                let size = last_fast_size - 2 + step;
                let ps = last_fast_ps.saturating_sub(2).saturating_add(step);
                check(bps, size, ps);
            }
        }
    }

    #[test]
    fn propagation_delay_in_fibre() {
        // 2 m of fibre at 0.66c is ~10.1 ns (the paper assumes a switch every 2 m).
        let d = Length::from_m(2).propagation_delay(0.66);
        let ns = d.as_nanos_f64();
        assert!((9.5..11.0).contains(&ns), "2 m fibre hop was {ns} ns");
        // Propagation is monotone in length.
        assert!(Length::from_m(4).propagation_delay(0.66) > d);
    }

    #[test]
    fn rate_scaling_and_division() {
        let lane = BitRate::from_gbps(25);
        assert_eq!(lane * 4, BitRate::from_gbps(100));
        assert_eq!(BitRate::from_gbps(100) / 4, lane);
        assert_eq!(lane.scale(2.0), BitRate::from_gbps(50));
        assert_eq!(lane.scale(-1.0), BitRate::ZERO);
    }

    #[test]
    fn power_scales_by_lane_count() {
        let serdes = Power::from_milliwatts(750);
        assert_eq!(serdes * 4, Power::from_milliwatts(3000));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", BitRate::from_gbps(100)), "100Gbps");
        assert_eq!(format!("{}", Bytes::from_kib(2)), "2.00KiB");
        assert_eq!(format!("{}", Power::from_kilowatts(12)), "12.00kW");
        assert_eq!(format!("{}", Length::from_m(3)), "3m");
    }

    #[test]
    fn sums_over_iterators() {
        let total: BitRate = (0..4).map(|_| BitRate::from_gbps(25)).sum();
        assert_eq!(total, BitRate::from_gbps(100));
        let p: Power = vec![Power::from_watts(1), Power::from_watts(2)]
            .into_iter()
            .sum();
        assert_eq!(p, Power::from_watts(3));
    }
}
