//! Experiment harness regenerating every figure of the paper plus the
//! derived experiments mapped in the README's "Reproducing the paper
//! figures" section.
//!
//! Every simulation-backed experiment (e1–e4, e8, e9) is a declarative
//! scenario [`Matrix`] defined in [`figures`]
//! and executed through the **content-addressed result store** shared by all
//! invocations: re-running an experiment (or timing it under the criterion
//! facade) answers from the store instead of re-simulating, and the figure
//! exports are pinned byte-for-byte against `golden/` by
//! `tests/paper_figures.rs` and the CI `paper-figures` job. The analytic
//! experiments (e5, e6) and the cycle-level cross-validation (e7) are pure
//! functions and need no store.
//!
//! Each `fig*`/`e*` function returns a printable [`ExperimentResult`]; the
//! `experiments` binary prints them, the Criterion benches under `benches/`
//! time the same (store-backed) functions, and the `sweep --figures` CLI
//! renders the full gallery.

pub mod figures;

use rackfabric::prelude::*;
use rackfabric_netfpga::validate_against_des;
use rackfabric_phy::adaptive_fec::AdaptiveFecController;
use rackfabric_phy::fec::invert_ber_to_snr_db;
use rackfabric_phy::FecMode;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sim::stats::Series;
use rackfabric_sweep::prelude::*;
use rackfabric_switch::model::SwitchKind;
use std::path::{Path, PathBuf};

/// A printable experiment result: a headline, one or more data series, and
/// free-form notes.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier ("fig1", "e3", ...).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The data series that regenerate the figure.
    pub series: Vec<Series>,
    /// Key/value rows printed under the series.
    pub rows: Vec<(String, String)>,
}

impl ExperimentResult {
    /// Renders the result as a text block: the series tables, then the
    /// key/value rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for s in &self.series {
            out.push_str(&s.to_table());
        }
        for (k, v) in &self.rows {
            out.push_str(&format!("{k:<44} {v}\n"));
        }
        out.push('\n');
        out
    }
}

/// The store directory every experiment run shares (and `cargo bench`'s
/// criterion facade warms on its first sample): `RACKFABRIC_STORE_DIR` when
/// set, otherwise `target/figure-store` inside this checkout — per-checkout
/// (no cross-user collisions in a shared temp dir) and cleared by
/// `cargo clean`.
///
/// Store keys hash the *simulation input*, not the code: an engine change
/// that alters results for an unchanged spec leaves stale records behind.
/// That is exactly the drift the golden gates catch (CI and
/// `tests/paper_figures.rs` always start from cold stores); locally, delete
/// the directory after engine work to force re-execution.
pub fn shared_store_dir() -> PathBuf {
    std::env::var_os("RACKFABRIC_STORE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/figure-store"))
}

/// Resolves a matrix through the shared store via the command-layer
/// [`Executor`](rackfabric_cmd::Executor) (journal-less — same boundary as
/// the CLI, no durability): cache hits skip the engine, misses run on one
/// worker per core and are persisted for the next caller.
fn run_matrix(matrix: rackfabric_scenario::Matrix) -> SweepOutcome {
    let store = ResultStore::open(shared_store_dir()).expect("open shared result store");
    rackfabric_cmd::Executor::new(store, Runner::new(0))
        .run_campaign(&Sweep::new(matrix))
        .expect("store I/O during sweep")
}

use figures::cell_label as label;

/// **Figure 1 / e1** — latency due to media propagation vs. latency due to
/// packet switching, as a path crosses 1..=21 cut-through switches spaced
/// 2 m apart (with a store-and-forward arm for contrast).
pub fn fig1_latency_vs_hops(max_hops: usize) -> ExperimentResult {
    let outcome = run_matrix(figures::e1_matrix(max_hops));
    let mut media = Series::new("media_propagation_ns");
    let mut switching = Series::new("switching_logic_ns");
    let mut total = Series::new("end_to_end_ns");
    let mut store_fwd = Series::new("store_and_forward_end_to_end_ns");
    for record in &outcome.records {
        let JobOutcome::Completed(result) = &record.outcome else {
            continue;
        };
        let spec = &record.job.spec;
        let hops = spec.topology.nodes.saturating_sub(2) as f64;
        let total_ns = result.summary.packet_latency.mean / 1e3;
        match spec.switch.kind {
            SwitchKind::CutThrough => {
                media.push(hops, total_ns * result.summary.propagation_fraction);
                switching.push(hops, total_ns * result.summary.switching_fraction);
                total.push(hops, total_ns);
            }
            SwitchKind::StoreAndForward => store_fwd.push(hops, total_ns),
        }
    }
    let last = max_hops as f64;
    let ratio = switching.points().last().map(|&(_, s)| s).unwrap_or(0.0)
        / media
            .points()
            .last()
            .map(|&(_, m)| m.max(1e-9))
            .unwrap_or(1.0);
    ExperimentResult {
        id: "fig1",
        title: "media propagation vs. cut-through switching latency (switch every 2 m)",
        series: vec![media, switching, total, store_fwd],
        rows: vec![
            ("hops swept".into(), format!("1..={max_hops}")),
            (
                format!("switching / media latency ratio at {last} hops"),
                format!("{ratio:.1}x"),
            ),
        ],
    }
}

/// **Figure 2 / e2** — the Closed Ring Control observes a congested 2-lane
/// 4x4 grid and reconfigures it into a 1-lane 4x4 torus within the same lane
/// budget, across PLP timing tables (electrical-class vs 25x slower
/// reconfiguration). The same shuffle runs on the static grid for
/// comparison.
pub fn fig2_reconfiguration(partition_kib: u64) -> ExperimentResult {
    let outcome = run_matrix(figures::e2_matrix(partition_kib, 500));
    let mut adaptive = Series::new("adaptive_completion_us_vs_plp_split_us");
    let mut baseline = Series::new("baseline_completion_us_vs_plp_split_us");
    let mut rows = Vec::new();
    let mut default_completions = (f64::NAN, f64::NAN); // (baseline, adaptive)
    for cell in &outcome.cells {
        let split_us = figures::cell_spec(&outcome, cell.cell)
            .map_or(f64::NAN, |s| s.plp_timing.split.as_micros_f64());
        let completion = cell.mean_job_completion_us.unwrap_or(f64::NAN);
        let is_default = split_us == PlpTiming::default().split.as_micros_f64();
        if label(cell, "controller") == "baseline" {
            baseline.push(split_us, completion);
            if is_default {
                default_completions.0 = completion;
            }
        } else {
            adaptive.push(split_us, completion);
            if is_default {
                default_completions.1 = completion;
                rows.push((
                    "topology reconfigurations".into(),
                    format!("{}", cell.topology_reconfigurations),
                ));
                rows.push(("plp commands".into(), format!("{}", cell.plp_commands)));
            }
        }
    }
    rows.push((
        "adaptive shuffle completion (us)".into(),
        format!("{:.1}", default_completions.1),
    ));
    rows.push((
        "static grid shuffle completion (us)".into(),
        format!("{:.1}", default_completions.0),
    ));
    rows.push((
        "speedup".into(),
        format!("{:.2}x", default_completions.0 / default_completions.1),
    ));
    ExperimentResult {
        id: "fig2",
        title: "CRC-driven grid(2-lane) -> torus(1-lane) reconfiguration under a 16-node shuffle",
        series: vec![adaptive, baseline],
        rows,
    }
}

/// **E3** — shuffle completion time vs. rack size, static grid baseline vs.
/// adaptive fabric (which may escalate to a torus).
pub fn e3_mapreduce_scaling(sides: &[usize], partition_kib: u64) -> ExperimentResult {
    let outcome = run_matrix(figures::e3_matrix(sides, partition_kib, 2_000));
    let mut base_series = Series::new("baseline_grid_completion_us");
    let mut adaptive_series = Series::new("adaptive_completion_us");
    for cell in &outcome.cells {
        let nodes = figures::cell_spec(&outcome, cell.cell).map_or(0, |s| s.topology.nodes) as f64;
        let completion = cell.mean_job_completion_us.unwrap_or(f64::NAN);
        if label(cell, "controller") == "baseline" {
            base_series.push(nodes, completion);
        } else {
            adaptive_series.push(nodes, completion);
        }
    }
    ExperimentResult {
        id: "e3",
        title: "MapReduce shuffle completion vs rack size (baseline grid vs adaptive fabric)",
        series: vec![base_series, adaptive_series],
        rows: vec![("partition size (KiB)".into(), format!("{partition_kib}"))],
    }
}

/// **E4** — interconnect power vs offered load, power-cap policy against a
/// latency-only policy that never sheds lanes.
pub fn e4_power_vs_load(loads: &[f64]) -> ExperimentResult {
    let outcome = run_matrix(figures::e4_matrix(loads, 2_000));
    let mut capped = Series::new("power_cap_policy_mean_w");
    let mut uncapped = Series::new("latency_policy_mean_w");
    for cell in &outcome.cells {
        let load: f64 = label(cell, "load").parse().unwrap_or(f64::NAN);
        if label(cell, "policy") == "power_cap" {
            capped.push(load, cell.mean_power_w);
        } else {
            uncapped.push(load, cell.mean_power_w);
        }
    }
    ExperimentResult {
        id: "e4",
        title: "interconnect power vs offered load (power-cap policy vs latency-only policy)",
        series: vec![capped, uncapped],
        rows: vec![],
    }
}

/// **E5** — minimum flow size for which reconfiguration pays off, vs
/// reconfiguration time (25 -> 100 Gb/s uplift).
pub fn e5_breakeven() -> ExperimentResult {
    let times: Vec<SimDuration> = [1u64, 5, 10, 20, 50, 100, 500, 1_000, 5_000, 10_000]
        .iter()
        .map(|&us| SimDuration::from_micros(us))
        .collect();
    let mut series = Series::new("min_worthwhile_flow_kib");
    for (t, size) in rackfabric::breakeven::sweep_min_flow_size(
        BitRate::from_gbps(25),
        BitRate::from_gbps(100),
        &times,
    ) {
        series.push(t.as_micros_f64(), size.as_u64() as f64 / 1024.0);
    }
    ExperimentResult {
        id: "e5",
        title: "minimum flow size for which reconfiguration is worth the cost (25G -> 100G)",
        series: vec![series],
        rows: vec![(
            "threshold at 20 us reconfiguration".into(),
            format!(
                "{}",
                rackfabric::breakeven::min_flow_size(&BreakEvenInput {
                    before: BitRate::from_gbps(25),
                    after: BitRate::from_gbps(100),
                    reconfig_time: SimDuration::from_micros(20),
                })
                .unwrap()
            ),
        )],
    }
}

/// **E6** — adaptive FEC: the codec chosen, post-FEC BER and added latency as
/// the channel's pre-FEC BER degrades.
pub fn e6_adaptive_fec() -> ExperimentResult {
    let controller = AdaptiveFecController::default();
    let mut chosen = Series::new("chosen_fec_mode_index");
    let mut post = Series::new("post_fec_ber_log10");
    let mut latency = Series::new("added_latency_ns");
    let pre_bers = [1e-15, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4];
    for &ber in &pre_bers {
        let mode = controller.weakest_sufficient(ber, controller.ber_target);
        let idx = FecMode::ALL.iter().position(|m| *m == mode).unwrap();
        let snr = invert_ber_to_snr_db(ber);
        chosen.push(ber.log10(), idx as f64);
        post.push(ber.log10(), mode.post_fec_ber(snr).log10());
        latency.push(ber.log10(), mode.added_latency().as_nanos_f64());
    }
    ExperimentResult {
        id: "e6",
        title: "adaptive FEC: codec choice, post-FEC BER and latency vs channel BER",
        series: vec![chosen, post, latency],
        rows: vec![(
            "FEC ladder".into(),
            "None -> FireCode -> RS(528,514) -> RS(544,514)".into(),
        )],
    }
}

/// **E7** — cross-validation of the event-driven switch model against the
/// cycle-level NetFPGA-SUME model.
pub fn e7_validation() -> ExperimentResult {
    let report = validate_against_des(&[64, 128, 256, 512, 1024, 1500]);
    let mut des = Series::new("des_model_latency_ns");
    let mut cyc = Series::new("cycle_model_latency_ns");
    for p in &report.points {
        des.push(p.frame_bytes as f64, p.des_latency_ns);
        cyc.push(p.frame_bytes as f64, p.cycle_latency_ns);
    }
    ExperimentResult {
        id: "e7",
        title: "small-scale DES switch model vs cycle-level NetFPGA SUME model",
        series: vec![des, cyc],
        rows: vec![
            (
                "worst relative error".into(),
                format!("{:.1}%", report.worst_relative_error * 100.0),
            ),
            (
                "validation (<=25% tolerance)".into(),
                if report.passes(0.25) {
                    "PASS".into()
                } else {
                    "FAIL".into()
                },
            ),
        ],
    }
}

/// **E8** — the high-speed bypass primitive: end-to-end latency of an N-hop
/// path as intermediate switches are replaced by PHY-level bypasses (the
/// [`AxisValue::BypassChain`](rackfabric_scenario::AxisValue) axis).
pub fn e8_bypass(hops: usize) -> ExperimentResult {
    let outcome = run_matrix(figures::e8_matrix(hops));
    let mut series = Series::new("end_to_end_latency_ns_vs_bypassed_nodes");
    for cell in &outcome.cells {
        let bypassed =
            figures::cell_spec(&outcome, cell.cell).map_or(0, |s| s.phy.bypassed_nodes) as f64;
        series.push(bypassed, cell.packet_latency.mean / 1e3);
    }
    let first = series.points().first().map(|&(_, y)| y).unwrap_or(0.0);
    let last = series.last_y().unwrap_or(0.0);
    ExperimentResult {
        id: "e8",
        title: "high-speed bypass: latency of an N-hop path vs number of bypassed switches",
        series: vec![series],
        rows: vec![
            ("path length (switch hops)".into(), format!("{hops}")),
            (
                "latency reduction with all intermediate nodes bypassed".into(),
                format!("{:.1}%", (1.0 - last / first.max(1e-9)) * 100.0),
            ),
        ],
    }
}

/// **E9** — the scenario-matrix engine: rack size × offered load × seeds,
/// static baseline against the adaptive fabric, resolved through the shared
/// result store and reduced to per-cell aggregates. The experiment's CSV is
/// the machine-readable companion of the printed series.
pub fn e9_scenario_matrix(sides: &[usize], loads: &[f64], seeds: usize) -> ExperimentResult {
    let outcome = run_matrix(figures::e9_matrix(
        sides,
        loads,
        &[Bytes::from_kib(256)],
        seeds,
    ));

    // Series: p99 latency vs load at the largest rack, baseline vs adaptive.
    let biggest = sides
        .last()
        .map(|&k| TopologySpec::grid(k, k, 2).name)
        .unwrap_or_default();
    let mut baseline_p99 = Series::new("baseline_p99_latency_ns");
    let mut adaptive_p99 = Series::new("adaptive_p99_latency_ns");
    for cell in &outcome.cells {
        if label(cell, "racks") != biggest {
            continue;
        }
        let load: f64 = label(cell, "load").parse().unwrap_or(f64::NAN);
        let p99_ns = cell.packet_latency.p99 / 1e3;
        match label(cell, "controller") {
            "baseline" => baseline_p99.push(load, p99_ns),
            _ => adaptive_p99.push(load, p99_ns),
        }
    }

    let failed = outcome
        .records
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Failed(_)))
        .count();
    ExperimentResult {
        id: "e9",
        title: "scenario matrix: rack x load x controller sweep with per-cell tail latency",
        series: vec![baseline_p99, adaptive_p99],
        rows: vec![
            ("cells".into(), format!("{}", outcome.cells.len())),
            ("jobs".into(), format!("{}", outcome.records.len())),
            ("failed jobs".into(), format!("{failed}")),
            (
                "aggregate csv (one row per cell)".into(),
                format!(
                    "\n{}",
                    rackfabric_scenario::export::cells_to_csv(&outcome.cells)
                ),
            ),
        ],
    }
}

/// Runs every experiment at the paper-reproduction scale, resolving
/// each simulation job through the shared result store: a warm store (e.g.
/// the second criterion sample of `cargo bench`) re-executes **nothing**.
pub fn run_all() -> Vec<ExperimentResult> {
    vec![
        fig1_latency_vs_hops(21),
        fig2_reconfiguration(64),
        e3_mapreduce_scaling(&[3, 4, 5, 6], 32),
        e4_power_vs_load(&[0.1, 0.25, 0.5, 0.75, 1.0]),
        e5_breakeven(),
        e6_adaptive_fec(),
        e7_validation(),
        e8_bypass(8),
        e9_scenario_matrix(&[3, 4], &[0.5, 1.0], 3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shows_switching_dominating_media() {
        let r = fig1_latency_vs_hops(4);
        let media = &r.series[0];
        let switching = &r.series[1];
        assert_eq!(media.len(), 4);
        // At every switch count, switching latency exceeds media latency by a
        // large factor — the paper's core motivation.
        for (m, s) in media.points().iter().zip(switching.points()) {
            assert!(s.1 > 5.0 * m.1, "switching {s:?} must dwarf media {m:?}");
        }
        // Both grow with hop count.
        assert!(media.points()[3].1 > media.points()[0].1);
        assert!(switching.points()[3].1 > switching.points()[0].1);
        // The store-and-forward arm pays full serialization per hop.
        let store_fwd = &r.series[3];
        assert_eq!(store_fwd.len(), 4);
        for (ct, sf) in r.series[2].points().iter().zip(store_fwd.points()) {
            assert!(sf.1 > ct.1, "store-and-forward {sf:?} must exceed {ct:?}");
        }
    }

    #[test]
    fn e5_and_e6_are_cheap_and_consistent() {
        let e5 = e5_breakeven();
        assert_eq!(e5.series[0].len(), 10);
        let e6 = e6_adaptive_fec();
        // The chosen codec index is non-decreasing as the channel degrades.
        let idx: Vec<f64> = e6.series[0].points().iter().map(|&(_, y)| y).collect();
        assert!(idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn e7_validation_passes() {
        let r = e7_validation();
        assert!(r.rows.iter().any(|(_, v)| v == "PASS"));
    }

    #[test]
    fn e8_bypass_reduces_latency_monotonically() {
        let r = e8_bypass(4);
        let pts: Vec<f64> = r.series[0].points().iter().map(|&(_, y)| y).collect();
        assert_eq!(pts.len(), 4);
        assert!(
            pts.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "latency must not increase as more switches are bypassed: {pts:?}"
        );
        assert!(
            pts.last().unwrap() < &(pts[0] * 0.8),
            "full bypass saves >20%"
        );
    }

    #[test]
    fn e9_scenario_matrix_sweeps_and_aggregates() {
        let r = e9_scenario_matrix(&[2, 3], &[0.5], 2);
        // 2 racks x 1 load x 2 controllers x 1 buffer = 4 cells, x2 seeds.
        assert!(r.rows.iter().any(|(k, v)| k == "cells" && v == "4"));
        assert!(r.rows.iter().any(|(k, v)| k == "jobs" && v == "8"));
        assert!(r.rows.iter().any(|(k, v)| k == "failed jobs" && v == "0"));
        let csv = &r.rows.last().unwrap().1;
        assert_eq!(
            csv.trim_start_matches('\n').lines().count(),
            5,
            "header + 4 cells"
        );
        // The p99-vs-load series carry one point per load per controller.
        assert_eq!(r.series[0].len(), 1);
        assert_eq!(r.series[1].len(), 1);
    }

    #[test]
    fn render_produces_tables() {
        let r = e5_breakeven();
        let text = r.render();
        assert!(text.contains("== e5"));
        assert!(text.contains("min_worthwhile_flow_kib"));
    }
}
