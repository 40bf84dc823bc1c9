//! Statistics collection.
//!
//! Every figure export pinned under `golden/` is produced from these
//! collectors: monotonic [`Counter`]s, log-bucketed [`Histogram`]s for
//! latency percentiles, [`TimeWeighted`] gauges for occupancy and power,
//! and [`Series`] recorders for plotting a value against simulated time (the
//! figures).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }
    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }
    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Summary statistics extracted from a histogram or sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Summary {
    /// A summary representing "no samples": every field zero, as
    /// [`Default`] makes it.
    pub fn empty() -> Self {
        Summary::default()
    }
}

/// A log-bucketed histogram of non-negative values (HdrHistogram-style with
/// power-of-two buckets subdivided linearly), trading a bounded ~3 % relative
/// error for O(1) insertion and fixed memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// 64 major buckets (by leading zero count) x 32 sub-buckets.
    counts: Vec<u64>,
    total: u64,
    /// Exact integer sum of recorded samples. Kept as an integer (not `f64`)
    /// so that accumulation and [`Histogram::merge`] are associative and
    /// commutative bit-for-bit — the sharded engine merges per-shard
    /// histograms in shard order and still must export byte-identical means
    /// regardless of how samples were distributed across shards.
    sum: u128,
    min: f64,
    max: f64,
}

const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let major = msb - SUB_BITS + 1;
        let sub = (value >> (major - 1)) as usize & (SUB_BUCKETS - 1);
        (major as usize) * SUB_BUCKETS + sub
    }

    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let major = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u128;
        let v = (SUB_BUCKETS as u128 + sub) << (major - 1);
        v.min(u64::MAX as u128) as u64
    }

    /// Records an integer sample (e.g. picoseconds or bytes).
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value as f64);
        self.max = self.max.max(value as f64);
    }

    /// Records a duration in picoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_picos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in [0, 1]. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx) as f64;
            }
        }
        self.max
    }

    /// Extracts a full summary.
    pub fn summary(&self) -> Summary {
        if self.total == 0 {
            return Summary::empty();
        }
        Summary {
            count: self.total,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// The non-empty buckets as `(representative value, count)` pairs in
    /// ascending value order. Together with [`Histogram::sample_sum`] this is
    /// a complete, exact serialisation of the histogram (used by the
    /// `rackfabric-sweep` result store and for CDF plotting); feed the pairs
    /// back through [`Histogram::from_sparse`] to reconstruct it.
    pub fn sparse_counts(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(idx, &c)| (Self::bucket_value(idx), c))
            .collect()
    }

    /// Exact integer sum of all recorded samples.
    pub fn sample_sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, if any were recorded. Samples are integers,
    /// so the observed f64 minimum converts back exactly.
    pub fn min_sample(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min as u64)
    }

    /// Largest recorded sample, if any were recorded.
    pub fn max_sample(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max as u64)
    }

    /// Reconstructs a histogram from its exact serialised parts: the sparse
    /// `(representative value, count)` pairs of [`Histogram::sparse_counts`],
    /// the integer [`Histogram::sample_sum`], and the recorded min/max
    /// samples. Round-trips bit-identically: every representative value maps
    /// back to the bucket it came from. `None` when the counts overflow a
    /// `u64`, in a bucket or in total: no histogram has them.
    pub fn from_sparse(
        sparse: &[(u64, u64)],
        sum: u128,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(value, count) in sparse {
            let bucket = &mut h.counts[Self::bucket_index(value)];
            *bucket = bucket.checked_add(count)?;
            h.total = h.total.checked_add(count)?;
        }
        h.sum = sum;
        if let Some(min) = min {
            h.min = min as f64;
        }
        if let Some(max) = max {
            h.max = max as f64;
        }
        Some(h)
    }

    /// Merges another histogram into this one. Merging is exact: counts and
    /// the integer sample sum combine associatively, so merging per-shard
    /// histograms yields bit-identical summaries regardless of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A time-weighted average of a piecewise-constant signal (queue occupancy,
/// instantaneous power draw, lane count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    elapsed_ps: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            elapsed_ps: 0.0,
            started: false,
        }
    }

    /// Records that the signal took `value` starting at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        if self.started {
            let dt = now.saturating_since(self.last_time).as_picos() as f64;
            self.weighted_sum += self.last_value * dt;
            self.elapsed_ps += dt;
        }
        self.started = true;
        self.last_time = now;
        self.last_value = value;
    }

    /// Closes the observation window at `now` and returns the time-weighted
    /// mean. The gauge remains usable afterwards.
    pub fn mean_until(&mut self, now: SimTime) -> f64 {
        if self.started {
            self.set(now, self.last_value);
        }
        if self.elapsed_ps == 0.0 {
            self.last_value
        } else {
            self.weighted_sum / self.elapsed_ps
        }
    }
}

/// A named (time, value) series used to regenerate the paper's figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Name of the series, e.g. `"switching_latency_ns"`.
    pub name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends an (x, y) point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Appends a point keyed by simulated time in microseconds.
    pub fn push_at(&mut self, t: SimTime, y: f64) {
        self.points.push((t.as_micros_f64(), y));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Maximum y value, if any.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.0), 0.0);
        // Values below 32 are stored exactly.
        assert_eq!(h.quantile(1.0), 31.0);
        assert!((h.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_have_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50 was {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99 was {p99}");
        let s = h.summary();
        assert_eq!(s.count, 100_000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100_000.0);
    }

    #[test]
    fn histogram_empty_summary_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), Summary::empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert_eq!(a.summary().min, 0.0);
        assert!(a.summary().max >= 1999.0);
    }

    #[test]
    fn histogram_bucket_value_is_monotone() {
        let mut last = 0;
        for i in 0..(64 * SUB_BUCKETS) {
            let v = Histogram::bucket_value(i);
            assert!(v >= last, "bucket values must be monotone (index {i})");
            last = v;
        }
    }

    #[test]
    fn histogram_sparse_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, 123_456_789, u64::MAX / 2] {
            h.record(v);
            h.record(v);
        }
        let back = Histogram::from_sparse(
            &h.sparse_counts(),
            h.sample_sum(),
            h.min_sample(),
            h.max_sample(),
        )
        .unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sample_sum(), h.sample_sum());
        assert_eq!(back.summary(), h.summary());
        assert_eq!(back.sparse_counts(), h.sparse_counts());

        let empty = Histogram::from_sparse(&[], 0, None, None).unwrap();
        assert_eq!(empty.summary(), Summary::empty());
        assert_eq!(empty.sparse_counts(), Vec::new());
    }

    #[test]
    fn histogram_from_sparse_rejects_counts_past_u64() {
        let max = u64::MAX;
        // One bucket, and the total over two buckets.
        assert!(Histogram::from_sparse(&[(7, max), (7, 1)], 0, None, None).is_none());
        assert!(Histogram::from_sparse(&[(7, max), (8, 1)], 0, None, None).is_none());
        let full = Histogram::from_sparse(&[(7, max - 1), (8, 1)], 0, None, None).unwrap();
        assert_eq!(full.count(), max);
    }

    #[test]
    fn histogram_record_duration() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_nanos(500));
        assert_eq!(h.count(), 1);
        assert!(h.mean() >= 499_000.0);
    }

    #[test]
    fn time_weighted_mean_of_square_wave() {
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_nanos(0), 0.0);
        g.set(SimTime::from_nanos(50), 10.0);
        let mean = g.mean_until(SimTime::from_nanos(100));
        // 0 for 50 ns then 10 for 50 ns -> mean 5.
        assert!((mean - 5.0).abs() < 1e-9, "mean was {mean}");
    }

    #[test]
    fn time_weighted_unset_is_zero() {
        let mut g = TimeWeighted::new();
        assert_eq!(g.mean_until(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn series_records_and_formats() {
        let mut s = Series::new("latency_ns");
        assert!(s.is_empty());
        s.push(1.0, 300.0);
        s.push_at(SimTime::from_micros(2), 450.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last_y(), Some(450.0));
        assert_eq!(s.max_y(), Some(450.0));
    }
}
