//! The paper's figure campaigns and the `sweep` CLI that runs them.
//!
//! [`figures`] defines every figure (e1–e11) as a campaign resolved through
//! the content-addressed result store and pins each export against
//! `golden/`; `sweep` runs them and regenerates the gallery.

pub mod figures;

/// The paper's physics, checked on the checked-in exports of both scales.
/// The tiny run equals `golden/tiny` in `tests/paper_figures.rs` and the
/// paper run `golden/paper` in CI, so checking the files checks the runs.
#[cfg(test)]
mod tests {
    use crate::figures::Scale;
    use std::collections::HashMap;
    use std::path::Path;

    /// A data row of a CSV export: its line number (the header is line 1)
    /// and its fields by column.
    type Row<'a> = (usize, HashMap<&'a str, &'a str>);

    fn csv_rows(csv: &str) -> Vec<Row<'_>> {
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
        lines
            .enumerate()
            .map(|(i, line)| (i + 2, header.iter().copied().zip(line.split(',')).collect()))
            .collect()
    }

    fn field<'a>(row: &Row<'a>, column: &str) -> &'a str {
        row.1.get(column).copied().unwrap_or_default()
    }

    /// A numeric field; NaN when missing or malformed, which fails every
    /// numeric check.
    fn num(row: &Row, column: &str) -> f64 {
        field(row, column).parse().unwrap_or(f64::NAN)
    }

    fn sorted_by<'r, 'a>(rows: &'r [Row<'a>], x: &str) -> Vec<&'r Row<'a>> {
        let mut sorted: Vec<&Row> = rows.iter().collect();
        sorted.sort_by(|a, b| num(a, x).total_cmp(&num(b, x)));
        sorted
    }

    /// One message per step of `rows` (ascending in `x`) where `y` moves
    /// the wrong way, i.e. `ok(previous, next)` is false.
    fn steps(
        rows: &[&Row],
        x: &str,
        y: &str,
        ok: fn(f64, f64) -> bool,
        moves: &str,
    ) -> Vec<String> {
        rows.windows(2)
            .filter(|w| !ok(num(w[0], y), num(w[1], y)))
            .map(|w| {
                let (a, b) = (field(w[0], y), field(w[1], y));
                format!(
                    "line {}: {y} {moves} from {a} to {b} as {x} rises to {}",
                    w[1].0,
                    field(w[1], x)
                )
            })
            .collect()
    }

    /// The paper physics a figure export must show, checked over its CSV
    /// text so that a perturbed copy runs through the same checks as the
    /// goldens. Each violation names the figure file, the scale and the
    /// line.
    fn physics_violations(scale: &str, file: &str, csv: &str) -> Vec<String> {
        let rows = csv_rows(csv);
        let mut found = Vec::new();
        match file {
            "e1_latency_vs_hops.csv" => {
                let by_hops = sorted_by(&rows, "hops");
                let cut: Vec<&Row> = by_hops
                    .into_iter()
                    .filter(|r| field(r, "switch") == "cut-through")
                    .collect();
                for y in ["media_ns", "switching_ns"] {
                    found.extend(steps(&cut, "hops", y, |a, b| b > a, "does not grow"));
                }
                for r in &cut {
                    let dwarfs = num(r, "switching_ns") > 5.0 * num(r, "media_ns");
                    if !dwarfs {
                        found.push(format!(
                            "line {}: switching_ns is not above 5 × media_ns",
                            r.0
                        ));
                    }
                    let slower = rows.iter().any(|s| {
                        field(s, "switch") == "store-fwd"
                            && field(s, "hops") == field(r, "hops")
                            && num(s, "total_ns") > num(r, "total_ns")
                    });
                    if !slower {
                        found.push(format!(
                            "line {}: no slower store-fwd row at these hops",
                            r.0
                        ));
                    }
                }
            }
            "e5_breakeven.csv" => {
                if rows.len() != 10 {
                    found.push(format!("{} rows, want 10", rows.len()));
                }
            }
            "e6_adaptive_fec.csv" => {
                let by_ber = sorted_by(&rows, "pre_ber_log10");
                found = steps(
                    &by_ber,
                    "pre_ber_log10",
                    "mode_index",
                    |a, b| b >= a,
                    "falls",
                );
            }
            "e7_validation.csv" => {
                for r in &rows {
                    let within = num(r, "relative_error") <= 0.25;
                    if !within {
                        found.push(format!("line {}: relative_error is above 0.25", r.0));
                    }
                }
            }
            "e8_bypass.csv" => {
                let by_bypassed = sorted_by(&rows, "bypassed");
                found = steps(
                    &by_bypassed,
                    "bypassed",
                    "latency_ns",
                    |a, b| b <= a,
                    "rises",
                );
                if let (Some(first), Some(last)) = (by_bypassed.first(), by_bypassed.last()) {
                    let saves = num(last, "latency_ns") < 0.8 * num(first, "latency_ns");
                    if !saves {
                        found.push(format!("line {}: full bypass saves under 20%", last.0));
                    }
                }
            }
            "e9_scenario_matrix.csv" => {
                for (i, r) in rows.iter().enumerate() {
                    if field(r, "cell") != i.to_string() {
                        found.push(format!("line {}: cell is not {i}", r.0));
                    }
                    if field(r, "failed_runs") != "0" {
                        found.push(format!("line {}: failed_runs is not 0", r.0));
                    }
                    if field(r, "completed_runs") != field(r, "runs") {
                        found.push(format!("line {}: completed_runs is not runs", r.0));
                    }
                }
            }
            other => panic!("no physics checks for {other}"),
        }
        found
            .into_iter()
            .map(|what| format!("{file} ({scale}): {what}"))
            .collect()
    }

    fn golden(scale: &str, file: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../golden")
            .join(scale)
            .join(file);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("checked-in {}: {e}", path.display()))
    }

    /// Checks `files` in the goldens of both scales.
    fn assert_golden_physics(files: &[&str]) {
        let mut violations = Vec::new();
        for scale in [Scale::Tiny, Scale::Paper].map(|s| s.golden_dir()) {
            for file in files {
                violations.extend(physics_violations(scale, file, &golden(scale, file)));
            }
        }
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    #[test]
    fn fig1_shows_switching_dominating_media() {
        assert_golden_physics(&["e1_latency_vs_hops.csv"]);
    }

    #[test]
    fn e5_and_e6_are_cheap_and_consistent() {
        assert_golden_physics(&["e5_breakeven.csv", "e6_adaptive_fec.csv"]);
    }

    #[test]
    fn e7_validation_passes() {
        assert_golden_physics(&["e7_validation.csv"]);
    }

    #[test]
    fn e8_bypass_reduces_latency_monotonically() {
        assert_golden_physics(&["e8_bypass.csv"]);
    }

    #[test]
    fn e9_scenario_matrix_sweeps_and_aggregates() {
        assert_golden_physics(&["e9_scenario_matrix.csv"]);
    }

    #[test]
    fn a_perturbed_export_fails_naming_figure_scale_and_line() {
        // Swap the latencies of the first two e8 rows: the first bypassed
        // switch now costs latency, and the check must say where.
        let mut lines: Vec<String> = golden("paper", "e8_bypass.csv")
            .lines()
            .map(str::to_string)
            .collect();
        let (b0, l0) = lines[1].split_once(',').unwrap();
        let (b1, l1) = lines[2].split_once(',').unwrap();
        (lines[1], lines[2]) = (format!("{b0},{l1}"), format!("{b1},{l0}"));
        let perturbed = format!("{}\n", lines.join("\n"));
        assert_eq!(
            physics_violations("paper", "e8_bypass.csv", &perturbed),
            ["e8_bypass.csv (paper): line 3: latency_ns rises from 3376.584 to 3876.704 as bypassed rises to 1"],
        );
    }
}
