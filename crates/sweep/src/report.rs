//! Dependency-free SVG plots and markdown campaign summaries.
//!
//! Every byte emitted here is a pure function of deterministic sweep output
//! (no timestamps, no wall-clock, no float formatting that varies by
//! locale), so re-rendering a report from a warm store reproduces it
//! byte-for-byte — the property the CI resume gate `cmp`s.

use rackfabric_sim::stats::Histogram;
use std::fmt::Write as _;

/// One named polyline of a line plot.
#[derive(Debug, Clone)]
pub struct PlotSeries {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples, rendered in the given order.
    pub points: Vec<(f64, f64)>,
}

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_LEFT: f64 = 70.0;
const MARGIN_RIGHT: f64 = 160.0;
const MARGIN_TOP: f64 = 40.0;
const MARGIN_BOTTOM: f64 = 50.0;

/// A fixed, colour-blind-friendly palette; series cycle through it.
const PALETTE: [&str; 8] = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
];

/// Formats an axis/legend number compactly and deterministically.
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(0.01..10_000.0).contains(&a) {
        return format!("{v:.2e}");
    }
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

fn fmt_coord(v: f64) -> String {
    format!("{v:.2}")
}

struct Scale {
    min: f64,
    max: f64,
    pixel_min: f64,
    pixel_max: f64,
}

impl Scale {
    fn new(min: f64, max: f64, pixel_min: f64, pixel_max: f64) -> Scale {
        let (min, max) = if (max - min).abs() < f64::EPSILON {
            // A flat axis still needs a non-zero span to map through.
            (min - 0.5, max + 0.5)
        } else {
            (min, max)
        };
        Scale {
            min,
            max,
            pixel_min,
            pixel_max,
        }
    }

    fn map(&self, v: f64) -> f64 {
        let t = (v - self.min) / (self.max - self.min);
        self.pixel_min + t * (self.pixel_max - self.pixel_min)
    }

    fn ticks(&self, count: usize) -> Vec<f64> {
        (0..=count)
            .map(|i| self.min + (self.max - self.min) * i as f64 / count as f64)
            .collect()
    }
}

// The renderers below write into `out` in place: `write!` into a `String`
// cannot fail.

fn svg_header(title: &str, out: &mut String) {
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\" \
         viewBox=\"0 0 {WIDTH} {HEIGHT}\" font-family=\"sans-serif\">\n\
         \x20 <rect width=\"{WIDTH}\" height=\"{HEIGHT}\" fill=\"white\"/>\n\
         \x20 <text x=\"{}\" y=\"24\" font-size=\"15\" text-anchor=\"middle\">{}</text>\n",
        (MARGIN_LEFT + (WIDTH - MARGIN_RIGHT)) / 2.0,
        xml_escape(title)
    );
}

fn axes(x: &Scale, y: &Scale, x_label: &str, y_label: &str, out: &mut String) {
    let left = MARGIN_LEFT;
    let right = WIDTH - MARGIN_RIGHT;
    let top = MARGIN_TOP;
    let bottom = HEIGHT - MARGIN_BOTTOM;
    let _ = write!(
        out,
        "  <line x1=\"{left}\" y1=\"{bottom}\" x2=\"{right}\" y2=\"{bottom}\" stroke=\"#333\"/>\n\
         \x20 <line x1=\"{left}\" y1=\"{top}\" x2=\"{left}\" y2=\"{bottom}\" stroke=\"#333\"/>\n"
    );
    for tick in x.ticks(5) {
        let px = fmt_coord(x.map(tick));
        let _ = write!(
            out,
            "  <line x1=\"{px}\" y1=\"{bottom}\" x2=\"{px}\" y2=\"{}\" stroke=\"#333\"/>\n\
             \x20 <text x=\"{px}\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\">{}</text>\n",
            bottom + 4.0,
            bottom + 17.0,
            fmt_num(tick)
        );
    }
    for tick in y.ticks(5) {
        let py = fmt_coord(y.map(tick));
        let _ = write!(
            out,
            "  <line x1=\"{}\" y1=\"{py}\" x2=\"{left}\" y2=\"{py}\" stroke=\"#333\"/>\n\
             \x20 <text x=\"{}\" y=\"{py}\" font-size=\"11\" text-anchor=\"end\" \
             dominant-baseline=\"middle\">{}</text>\n",
            left - 4.0,
            left - 8.0,
            fmt_num(tick)
        );
    }
    let _ = write!(
        out,
        "  <text x=\"{}\" y=\"{}\" font-size=\"12\" text-anchor=\"middle\">{}</text>\n\
         \x20 <text x=\"16\" y=\"{}\" font-size=\"12\" text-anchor=\"middle\" \
         transform=\"rotate(-90 16 {})\">{}</text>\n",
        (left + right) / 2.0,
        HEIGHT - 12.0,
        xml_escape(x_label),
        (top + bottom) / 2.0,
        (top + bottom) / 2.0,
        xml_escape(y_label)
    );
}

fn legend(labels: &[&str], out: &mut String) {
    let x = WIDTH - MARGIN_RIGHT + 12.0;
    for (i, label) in labels.iter().enumerate() {
        let y = MARGIN_TOP + 14.0 * i as f64;
        let color = PALETTE[i % PALETTE.len()];
        let _ = write!(
            out,
            "  <line x1=\"{x}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"{color}\" \
             stroke-width=\"2\"/>\n\
             \x20 <text x=\"{}\" y=\"{}\" font-size=\"10\" dominant-baseline=\"middle\">{}</text>\n",
            x + 16.0,
            x + 20.0,
            y,
            xml_escape(label)
        );
    }
}

fn polyline(series: &PlotSeries, color: &str, x: &Scale, y: &Scale, out: &mut String) {
    if series.points.is_empty() {
        return;
    }
    // Each point's `x,y` is formatted once, into `coords`: the polyline
    // lists them all, and each point's circle copies its own.
    let mut coords = String::new();
    let mut cuts = Vec::with_capacity(series.points.len());
    for &(px, py) in &series.points {
        if !coords.is_empty() {
            coords.push(' ');
        }
        let start = coords.len();
        let _ = write!(coords, "{:.2}", x.map(px));
        let comma = coords.len();
        let _ = write!(coords, ",{:.2}", y.map(py));
        cuts.push((start, comma, coords.len()));
    }
    let _ = writeln!(
        out,
        "  <polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"2\" points=\"{coords}\"/>"
    );
    for (start, comma, end) in cuts {
        let _ = writeln!(
            out,
            "  <circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{color}\"/>",
            &coords[start..comma],
            &coords[comma + 1..end]
        );
    }
}

/// Escapes text content for SVG/XML.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a self-contained line plot (one polyline per series, shared
/// axes, legend on the right). Returns the complete SVG document.
pub fn line_plot(title: &str, x_label: &str, y_label: &str, series: &[PlotSeries]) -> String {
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    let x_min = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_max = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let (x_min, x_max, y_max) = if points.is_empty() {
        (0.0, 1.0, 1.0)
    } else {
        (x_min, x_max, y_max * 1.05)
    };
    let x = Scale::new(x_min, x_max, MARGIN_LEFT, WIDTH - MARGIN_RIGHT);
    let y = Scale::new(0.0, y_max, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP);

    let mut out = String::new();
    svg_header(title, &mut out);
    axes(&x, &y, x_label, y_label, &mut out);
    for (i, s) in series.iter().enumerate() {
        polyline(s, PALETTE[i % PALETTE.len()], &x, &y, &mut out);
    }
    let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
    legend(&labels, &mut out);
    out.push_str("</svg>\n");
    out
}

/// Renders latency CDFs (one curve per labelled histogram) with the x axis
/// in log10 microseconds. Empty histograms are skipped.
pub fn cdf_plot(title: &str, series: &[(String, &Histogram)]) -> String {
    let curves: Vec<PlotSeries> = series
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(label, h)| {
            let total = h.count() as f64;
            let mut seen = 0u64;
            let points = h
                .sparse_counts()
                .into_iter()
                .map(|(value_ps, count)| {
                    seen += count;
                    let us = (value_ps as f64 / 1e6).max(1e-9);
                    (us.log10(), seen as f64 / total)
                })
                .collect();
            PlotSeries {
                label: label.clone(),
                points,
            }
        })
        .collect();
    line_plot(title, "latency (log10 us)", "fraction of packets", &curves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_plot_is_valid_and_deterministic() {
        let series = vec![
            PlotSeries {
                label: "baseline".into(),
                points: vec![(1.0, 10.0), (2.0, 20.0), (4.0, 15.0)],
            },
            PlotSeries {
                label: "adaptive".into(),
                points: vec![(1.0, 8.0), (2.0, 12.0), (4.0, 11.0)],
            },
        ];
        let a = line_plot("p99 vs load", "load", "p99 (us)", &series);
        let b = line_plot("p99 vs load", "load", "p99 (us)", &series);
        assert_eq!(a, b);
        assert!(a.starts_with("<svg "));
        assert!(a.trim_end().ends_with("</svg>"));
        assert_eq!(a.matches("<polyline").count(), 2);
        assert!(a.contains("baseline"));
        assert!(a.contains("p99 vs load"));
    }

    #[test]
    fn degenerate_plots_still_render() {
        let flat = vec![PlotSeries {
            label: "flat".into(),
            points: vec![(1.0, 5.0), (2.0, 5.0)],
        }];
        let svg = line_plot("flat", "x", "y", &flat);
        assert!(svg.contains("<polyline"));
        let empty = line_plot("empty", "x", "y", &[]);
        assert!(empty.contains("</svg>"));
    }

    #[test]
    fn cdf_plot_covers_the_distribution() {
        let mut h = Histogram::new();
        for v in [1_000_000u64, 2_000_000, 4_000_000, 8_000_000] {
            h.record(v);
        }
        let svg = cdf_plot("latency cdf", &[("cell".into(), &h)]);
        assert!(svg.contains("<polyline"));
        // Empty histograms are skipped, not rendered as broken curves.
        let empty = Histogram::new();
        let svg = cdf_plot("latency cdf", &[("none".into(), &empty)]);
        assert_eq!(svg.matches("<polyline").count(), 0);
    }

    #[test]
    fn number_formatting_is_compact() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(2.5), "2.5");
        assert_eq!(fmt_num(1500.0), "1500");
        assert_eq!(fmt_num(123456.0), "1.23e5");
        assert_eq!(fmt_num(0.001), "1.00e-3");
    }
}
