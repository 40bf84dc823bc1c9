//! Rendering a [`SweepOutcome`] into its on-disk campaign report.
//!
//! One call produces the complete, deterministic file set — aggregate
//! CSV/JSON, per-job CSV, per-axis p99 line plots, a latency CDF and a
//! markdown summary — as `(file name, contents)` pairs, so callers (the
//! `sweep` CLI, tests) can write or diff them without touching the
//! filesystem here.

use crate::campaign::SweepOutcome;
use crate::report::{cdf_plot, line_plot, PlotSeries};
use rackfabric_scenario::export;
use std::io;
use std::path::Path;

/// How many CDF curves a report renders before cutting off (and saying so).
const CDF_SERIES_CAP: usize = 8;

/// Renders the complete report file set for a campaign named `name`.
/// Deterministic: the same outcome always renders the same bytes.
pub fn render_files(name: &str, outcome: &SweepOutcome) -> Vec<(String, String)> {
    let mut files = vec![
        (
            "cells.csv".to_string(),
            export::cells_to_csv(&outcome.cells),
        ),
        (
            "cells.json".to_string(),
            export::cells_to_json(&outcome.cells),
        ),
        (
            "jobs.csv".to_string(),
            export::jobs_to_csv(&outcome.records),
        ),
    ];
    files.extend(axis_plots(outcome));
    files.push(("latency_cdf.svg".to_string(), cdf_svg(outcome)));
    files.push(("report.md".to_string(), markdown(name, outcome, &files)));
    files
}

/// Writes the rendered file set into `dir` (created if needed).
pub fn write_report(dir: &Path, name: &str, outcome: &SweepOutcome) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (file, contents) in render_files(name, outcome) {
        std::fs::write(dir.join(file), contents)?;
    }
    Ok(())
}

/// Joins a cell's labels into a compact `k=v` identifier.
fn cell_label(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return "cell".to_string();
    }
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// One p99 line plot per axis: that axis on x, one series per combination
/// of the remaining axes' values.
fn axis_plots(outcome: &SweepOutcome) -> Vec<(String, String)> {
    let Some(first) = outcome.cells.first() else {
        return Vec::new();
    };
    let axis_count = first.labels.len();
    let mut plots = Vec::new();
    for axis in 0..axis_count {
        let axis_name = first.labels[axis].0.clone();
        // Distinct values of this axis (first-seen order) decide the x
        // mapping once: numeric parse when all values are numeric, ordinal
        // otherwise.
        let mut distinct: Vec<&str> = Vec::new();
        for cell in &outcome.cells {
            let v = cell.labels[axis].1.as_str();
            if !distinct.contains(&v) {
                distinct.push(v);
            }
        }
        let all_numeric = distinct.iter().all(|v| v.parse::<f64>().is_ok());
        let axis_position = |value: &str| -> f64 {
            if all_numeric {
                value.parse::<f64>().expect("checked numeric above")
            } else {
                distinct
                    .iter()
                    .position(|&v| v == value)
                    .expect("value came from these cells") as f64
            }
        };
        // Group cells by the other axes' labels, in first-seen order.
        let mut series: Vec<PlotSeries> = Vec::new();
        for cell in &outcome.cells {
            let series_key: Vec<(String, String)> = cell
                .labels
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != axis)
                .map(|(_, kv)| kv.clone())
                .collect();
            let label = cell_label(&series_key);
            let x = axis_position(&cell.labels[axis].1);
            let y = cell.packet_latency.p99 / 1e6; // ps -> us
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.points.push((x, y)),
                None => series.push(PlotSeries {
                    label,
                    points: vec![(x, y)],
                }),
            }
        }
        if series.iter().all(|s| s.points.len() < 2) {
            continue; // a single-value axis plots nothing useful
        }
        for s in &mut series {
            s.points
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("axis positions are finite"));
        }
        let svg = line_plot(
            &format!("p99 packet latency vs {axis_name}"),
            &axis_name,
            "p99 latency (us)",
            &series,
        );
        plots.push((format!("p99_vs_{axis_name}.svg"), svg));
    }
    plots
}

fn cdf_svg(outcome: &SweepOutcome) -> String {
    let series: Vec<(String, &rackfabric_sim::stats::Histogram)> = outcome
        .distributions
        .iter()
        .take(CDF_SERIES_CAP)
        .map(|d| (cell_label(&d.labels), &d.packet_latency))
        .collect();
    cdf_plot("end-to-end packet latency CDF", &series)
}

fn markdown(name: &str, outcome: &SweepOutcome, files: &[(String, String)]) -> String {
    // Only campaign *results* belong here: executed-vs-cached splits vary
    // between a cold and a warm invocation of the same campaign, and the CI
    // resume gate diffs the two reports byte for byte. Invocation stats go
    // to the CLI's stderr instead.
    let mut out = String::new();
    out.push_str(&format!("# Sweep campaign: {name}\n\n"));
    out.push_str(&format!("- jobs: **{}**\n", outcome.records.len()));
    out.push_str(&format!("- cells: **{}**\n", outcome.cells.len()));
    if outcome.interrupted {
        out.push_str(
            "- **interrupted**: the fresh-execution cap ran out; re-run against the same \
             store to complete the campaign\n",
        );
    }
    out.push('\n');

    if !outcome.cells.is_empty() {
        out.push_str("## Cells\n\n");
        out.push_str("| cell | runs | failed | p50 (us) | p99 (us) | p999 (us) | events |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for cell in &outcome.cells {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {} |\n",
                cell_label(&cell.labels),
                cell.runs,
                cell.failed_runs,
                cell.packet_latency.p50 / 1e6,
                cell.packet_latency.p99 / 1e6,
                cell.packet_latency.p999 / 1e6,
                cell.events_processed
            ));
        }
        out.push('\n');
    }

    if !outcome.cell_budgets.is_empty() {
        out.push_str("## Replication budgets\n\n");
        out.push_str("| cell | replicates | p99 CI rel half-width | stop |\n");
        out.push_str("|---|---|---|---|\n");
        for budget in &outcome.cell_budgets {
            // Join by cell id, not position: cells that produced no records
            // (e.g. under an interruption) are absent from the aggregates.
            let label = outcome
                .cells
                .iter()
                .find(|cell| cell.cell == budget.cell)
                .map(|cell| cell_label(&cell.labels))
                .unwrap_or_else(|| format!("cell {} (no results yet)", budget.cell));
            let width = if budget.rel_halfwidth.is_finite() {
                format!("{:.4}", budget.rel_halfwidth)
            } else {
                "n/a".to_string()
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                label,
                budget.replicates,
                width,
                budget.stop.label()
            ));
        }
        out.push('\n');
    }

    if outcome.distributions.len() > CDF_SERIES_CAP {
        out.push_str(&format!(
            "_CDF plot shows the first {CDF_SERIES_CAP} of {} cells._\n\n",
            outcome.distributions.len()
        ));
    }

    out.push_str("## Files\n\n");
    for (file, _) in files {
        out.push_str(&format!("- [`{file}`]({file})\n"));
    }
    out.push_str("- [`report.md`](report.md)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Sweep;
    use crate::store::ResultStore;
    use rackfabric_scenario::matrix::{AxisValue, Matrix};
    use rackfabric_scenario::runner::Runner;
    use rackfabric_scenario::spec::{ControllerSpec, ScenarioSpec, WorkloadSpec};
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    fn outcome() -> SweepOutcome {
        // Libtest runs the tests on parallel threads: each call owns its
        // store directory, so one test cannot delete another's mid-run.
        let dir = crate::testdir::TestDir::new("sweep-emit");
        let store = ResultStore::open(dir.path()).unwrap();
        let base = ScenarioSpec::new(
            "emit-unit",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20));
        let matrix = Matrix::new(base)
            .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
            .axis(
                "controller",
                vec![
                    AxisValue::Controller(ControllerSpec::Baseline),
                    AxisValue::Controller(ControllerSpec::adaptive_default()),
                ],
            )
            .replicates(2);
        Sweep::new(matrix)
            .run(&store, &Runner::single_threaded())
            .unwrap()
    }

    #[test]
    fn renders_the_full_deterministic_file_set() {
        let outcome = outcome();
        let a = render_files("emit-unit", &outcome);
        let b = render_files("emit-unit", &outcome);
        assert_eq!(a, b, "report rendering must be deterministic");
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"cells.csv"));
        assert!(names.contains(&"cells.json"));
        assert!(names.contains(&"jobs.csv"));
        assert!(names.contains(&"p99_vs_load.svg"));
        assert!(names.contains(&"p99_vs_controller.svg"));
        assert!(names.contains(&"latency_cdf.svg"));
        assert!(names.contains(&"report.md"));
        let report = &a.iter().find(|(n, _)| n == "report.md").unwrap().1;
        assert!(report.contains("# Sweep campaign: emit-unit"));
        assert!(report.contains("4 cells") || report.contains("cells: **4**"));
        let load_plot = &a.iter().find(|(n, _)| n == "p99_vs_load.svg").unwrap().1;
        // One series per controller value.
        assert_eq!(load_plot.matches("<polyline").count(), 2);
    }

    #[test]
    fn non_numeric_axis_values_fall_back_to_ordinals() {
        let outcome = outcome();
        // The controller axis has labels "baseline"/"hybrid": ordinal x.
        let files = render_files("emit-unit", &outcome);
        let plot = &files
            .iter()
            .find(|(n, _)| n == "p99_vs_controller.svg")
            .unwrap()
            .1;
        assert!(plot.contains("<polyline"));
    }
}
