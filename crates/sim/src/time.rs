//! Simulated time.
//!
//! The fabric models effects that span nine orders of magnitude: serializing
//! one byte at 100 Gb/s takes 80 ps, light in fibre covers a 2 m hop in about
//! 10 ns, a cut-through switch adds hundreds of nanoseconds, and a MapReduce
//! shuffle runs for milliseconds. All timestamps are therefore kept as
//! integer **picoseconds** in a `u64`, which still allows ~213 days of
//! simulated time before overflow — far beyond any experiment in the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of picoseconds in a nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Number of picoseconds in a microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Number of picoseconds in a millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Number of picoseconds in a second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute point in simulated time, measured in picoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, measured in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// This instant expressed in (possibly fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This instant expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This instant expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }
    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * PS_PER_S as f64).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// This duration expressed in (possibly fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This duration expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This duration expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }
    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// picosecond and saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor.is_nan() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v.round() as u64)
        }
    }
    /// Ratio of this duration to another (self / other). Returns infinity if
    /// `other` is zero and self is non-zero, and 0.0 when both are zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration exceeded u64 picoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: duration larger than instant"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than lhs"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Formats a picosecond count using the most natural unit.
fn format_ps(ps: u64) -> String {
    if ps == 0 {
        "0ps".to_string()
    } else if ps.is_multiple_of(PS_PER_S) {
        format!("{}s", ps / PS_PER_S)
    } else if ps >= PS_PER_S {
        format!("{:.3}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion_round_trip() {
        assert_eq!(SimTime::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimTime::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimTime::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_picos(), 1_000_000_000_000);
        assert_eq!(SimDuration::from_nanos(5).as_nanos_f64(), 5.0);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic_between_time_and_duration() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_picos(), 140_000);
        assert_eq!((t - d).as_picos(), 60_000);
        assert_eq!(((t + d) - t), d);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(3);
        assert_eq!((a + b).as_picos(), 13_000);
        assert_eq!((a - b).as_picos(), 7_000);
        assert_eq!((a * 4).as_picos(), 40_000);
        assert_eq!((a / 4).as_picos(), 2_500);
    }

    #[test]
    fn saturating_operations_do_not_panic() {
        let early = SimTime::from_nanos(1);
        let late = SimTime::from_nanos(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(1));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(1).saturating_sub(SimDuration::from_nanos(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtracting_later_from_earlier_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn float_constructors_clamp_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_picos(), 250 * PS_PER_MS);
    }

    #[test]
    fn mul_f64_and_ratio() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(2.5).as_picos(), 250_000);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::INFINITY), SimDuration::MAX);
        assert!((d.ratio(SimDuration::from_nanos(50)) - 2.0).abs() < 1e-12);
        assert_eq!(SimDuration::ZERO.ratio(SimDuration::ZERO), 0.0);
        assert!(d.ratio(SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn ordering_is_by_instant() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::from_picos(1),
            SimTime::from_micros(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_picos(1),
                SimTime::from_nanos(5),
                SimTime::from_micros(1)
            ]
        );
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3s");
        assert_eq!(format!("{}", SimDuration::from_picos(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
        assert_eq!(format!("{}", SimDuration::ZERO), "0ps");
    }
}
