//! Sample summaries and the small JSON vocabulary the phases speak.

use rackfabric_sim::json::{self, JsonValue};

/// Median of `values` (mean of the two middle values for an even count),
/// the definition Python's `statistics.median` uses.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// The percentile the gated tail metric takes of `n` samples: the one
/// [`tail_quantile`] picks, or the median when fewer than 20 samples leave
/// ten beyond no percentile at all.
pub fn gated_tail_quantile(n: usize) -> f64 {
    tail_quantile(n).unwrap_or(0.5)
}

/// Samples needed before [`tail_quantile`] reaches `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// One timing as the report prints it: sample count, median and tail.
#[derive(Debug, Clone)]
pub struct Timing {
    pub n: usize,
    pub median: f64,
    /// `(quantile, value)` of the highest percentile with ten samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(values: &[f64]) -> Timing {
        Timing {
            n: values.len(),
            median: median(values),
            tail: tail_quantile(values.len()).map(|q| (q, percentile(values, q))),
        }
    }
}

pub fn num(value: f64) -> JsonValue {
    JsonValue::Number(json::number(value))
}

pub fn uint(value: u64) -> JsonValue {
    JsonValue::Number(value.to_string())
}

pub fn text(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

pub fn array(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| num(v)).collect())
}

pub fn object(fields: Vec<(String, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields)
}

/// One metric as the last line and the layer report write it.
pub fn metric(value: f64, unit: &str) -> JsonValue {
    object(vec![
        ("unit".into(), text(unit)),
        ("value".into(), num(value)),
    ])
}

/// Reads `key` of a phase report as a list of numbers (empty when absent).
pub fn numbers(doc: &JsonValue, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .map(|values| values.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_match_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 0.5), 50.0);
    }

    #[test]
    fn the_tail_always_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.75), 40);
    }

    #[test]
    fn the_gated_tail_falls_back_to_the_median() {
        assert_eq!(gated_tail_quantile(9), 0.5);
        assert_eq!(gated_tail_quantile(40), 0.75);
        assert_eq!(gated_tail_quantile(8700), 0.99);
    }
}
