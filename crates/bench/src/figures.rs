//! Declarative paper-figure campaigns: every figure of the paper (e1–e9,
//! plus the repo's own e10 sharded-scale and e11 fabric-vs-routing figures)
//! expressed as a scenario [`Matrix`] driven through the content-addressed
//! [`ResultStore`], plus the golden-export machinery that pins each figure's
//! byte-deterministic CSV against a checked-in reference.
//!
//! Three figure classes exist:
//!
//! * **Simulation campaigns** (e1–e4, e8, e9) — a `Matrix` over the new
//!   physical-layer axes (switch model, port buffers, PLP timing, bypass
//!   chains) resolved through the command-layer [`Executor`] (which journals
//!   a `regenerate-figure` marker plus one record per fresh job), so a warm
//!   store executes **zero** jobs and re-exports identical bytes — and an
//!   interrupted campaign recovers from its journal via [`FigureResolver`].
//! * **Analytic figures** (e5 break-even, e6 adaptive FEC) — pure functions
//!   of the models; they execute zero store jobs by construction.
//! * **Cross-validation** (e7) — the cycle-level NetFPGA model against the
//!   DES switch model; deterministic and store-free.
//!
//! Every figure renders to one CSV whose bytes are compared against
//! `golden/<scale>/<figure>.csv` by [`compare_export`] (readable per-column
//! diffs) in `tests/paper_figures.rs` and the CI `paper-figures` job.
//! Intentional result changes regenerate goldens via
//! `cargo run -p rackfabric-bench --bin sweep -- --figures --update-golden`.

use rackfabric::prelude::*;
use rackfabric_cmd::{CampaignResolver, Command, Executor};
use rackfabric_netfpga::validate_against_des;
use rackfabric_phy::adaptive_fec::AdaptiveFecController;
use rackfabric_phy::fec::invert_ber_to_snr_db;
use rackfabric_phy::FecMode;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::json;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// The two pinned sizes every figure campaign comes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI/test size: every campaign finishes in seconds. Goldens live in
    /// `golden/tiny/` and gate `cargo test -q`.
    Tiny,
    /// The paper-reproduction size. Goldens live in
    /// `golden/paper/` and gate the CI `paper-figures` job.
    Paper,
}

impl Scale {
    /// The golden subdirectory this scale pins against.
    pub fn golden_dir(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Paper => "paper",
        }
    }

    /// The scale a `regenerate-figure` command names: the inverse of
    /// [`Scale::golden_dir`].
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// One executed figure: its identity, byte-deterministic CSV export, and
/// store accounting.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// Figure identifier ("e1".."e9").
    pub id: &'static str,
    /// File-name slug ("latency_vs_hops").
    pub slug: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The figure's CSV export (what the golden pins).
    pub export: String,
    /// Jobs freshly executed by this invocation (0 on a warm store, and
    /// always 0 for analytic figures).
    pub executed: usize,
    /// Jobs answered from the store.
    pub cached: usize,
    /// True when a `max_new_jobs` cap cut this campaign short — the export
    /// covers only the jobs that ran, and goldens must not be checked.
    pub interrupted: bool,
    /// The underlying sweep outcome (simulation campaigns only) — feeds the
    /// per-figure SVG report gallery.
    pub outcome: Option<SweepOutcome>,
}

impl FigureRun {
    /// The export/golden file name, e.g. `e1_latency_vs_hops.csv`.
    pub fn export_file(&self) -> String {
        format!("{}_{}.csv", self.id, self.slug)
    }
}

fn num(value: f64) -> String {
    json::number(value)
}

// ---------------------------------------------------------------------------
// Campaign matrices.
// ---------------------------------------------------------------------------

/// e1 — per-hop latency probe: a single 1500-byte flow pushed down a line of
/// 1..=`max_hops` cut-through switches, swept against a store-and-forward
/// switch model for contrast.
pub fn e1_matrix(max_hops: usize) -> Matrix {
    let base = ScenarioSpec::new(
        "e1-latency-vs-hops",
        TopologySpec::line(3, 4),
        WorkloadSpec::single_flow(Bytes::new(1500)),
    )
    .controller(ControllerSpec::Baseline)
    .horizon(SimTime::from_millis(10));
    Matrix::new(base)
        .axis(
            "hops",
            (1..=max_hops)
                .map(|switches| AxisValue::Topology(TopologySpec::line(switches + 2, 4)))
                .collect(),
        )
        .axis(
            "switch",
            vec![
                AxisValue::SwitchModel(SwitchModel::cut_through()),
                AxisValue::SwitchModel(SwitchModel::store_and_forward()),
            ],
        )
        .master_seed(1)
}

/// e2 — CRC-driven grid(2-lane) → torus(1-lane) reconfiguration under a
/// 16-node shuffle, swept across PLP timing tables (fast electrical vs slow
/// optics-class reconfiguration).
pub fn e2_matrix(partition_kib: u64, horizon_ms: u64) -> Matrix {
    let base = ScenarioSpec::new(
        "e2-reconfiguration",
        TopologySpec::grid(4, 4, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
    )
    .upgrade(TopologySpec::torus(4, 4, 1))
    .horizon(SimTime::from_millis(horizon_ms));
    Matrix::new(base)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .axis(
            "plp",
            vec![
                AxisValue::PlpTiming(PlpTiming::default()),
                AxisValue::PlpTiming(PlpTiming::default().scaled(25.0)),
            ],
        )
        .master_seed(42)
}

/// e3 — shuffle completion vs rack size; each rack value moves the starting
/// grid and its torus escalation target together (one [`AxisValue::Multi`]).
pub fn e3_matrix(sides: &[usize], partition_kib: u64, horizon_ms: u64) -> Matrix {
    let base = ScenarioSpec::new(
        "e3-mapreduce-scaling",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
    )
    .horizon(SimTime::from_millis(horizon_ms));
    Matrix::new(base)
        .axis(
            "racks",
            sides
                .iter()
                .map(|&k| {
                    AxisValue::Multi(vec![
                        AxisValue::Topology(TopologySpec::grid(k, k, 2)),
                        AxisValue::Upgrade(Some(TopologySpec::torus(k, k, 1))),
                    ])
                })
                .collect(),
        )
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .master_seed(7)
}

/// e4 — interconnect power vs offered load, power-cap policy against a
/// latency-only policy that never sheds lanes. Open loop: the run spans the
/// whole horizon.
pub fn e4_matrix(loads: &[f64], horizon_us: u64) -> Matrix {
    let adaptive = |policy: CrcPolicy| {
        AxisValue::Controller(ControllerSpec::Adaptive {
            policy,
            epoch: SimDuration::from_micros(50),
            routing: RoutingAlgorithm::MinCost,
        })
    };
    let base = ScenarioSpec::new(
        "e4-power-vs-load",
        TopologySpec::grid(4, 4, 4),
        WorkloadSpec::uniform(12.5, Bytes::from_kib(16)),
    )
    .stop_when_done(false)
    .horizon(SimTime::from_micros(horizon_us));
    Matrix::new(base)
        .axis(
            "policy",
            vec![
                adaptive(CrcPolicy::PowerCap {
                    budget: rackfabric_sim::units::Power::from_kilowatts(2),
                }),
                adaptive(CrcPolicy::LatencyMinimize),
            ],
        )
        .axis("load", loads.iter().map(|&l| AxisValue::Load(l)).collect())
        .master_seed(11)
}

/// e8 — the high-speed bypass primitive: latency of an N-hop line as the
/// intermediate switches are replaced by PHY-level bypasses, swept with the
/// [`AxisValue::BypassChain`] axis.
pub fn e8_matrix(hops: usize) -> Matrix {
    let base = ScenarioSpec::new(
        "e8-bypass",
        TopologySpec::line(hops + 1, 4),
        WorkloadSpec::single_flow(Bytes::new(1500)),
    )
    .controller(ControllerSpec::Baseline)
    .horizon(SimTime::from_millis(10));
    Matrix::new(base)
        .axis("bypassed", (0..hops).map(AxisValue::BypassChain).collect())
        .master_seed(3)
}

/// e10 — the sharded engine's scale cells: the big torus and the multi-rack
/// fat-tree pushed through the sharded windowed engine, swept across shard
/// counts and inter-rack cable spacing. Shard count never moves a result
/// byte (the golden pins identical rows per count); spacing is the physical
/// knob behind the engine's conservative lookahead — longer inter-rack
/// cables buy longer windows at the cost of the extra flight time every
/// cross-rack packet pays, and the figure shows that cost.
pub fn e10_matrix(
    topologies: Vec<TopologySpec>,
    partition_kib: u64,
    horizon_ms: u64,
    shards: &[usize],
    spacings: &[Length],
) -> Matrix {
    let base = ScenarioSpec::new(
        "e10-sharded-scale",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
    )
    .controller(ControllerSpec::Baseline)
    .horizon(SimTime::from_millis(horizon_ms));
    // Axis order matters: `spacing` mutates the topology chosen by the
    // `topology` axis, so it must come after it.
    Matrix::new(base)
        .axis(
            "topology",
            topologies.into_iter().map(AxisValue::Topology).collect(),
        )
        .axis(
            "shards",
            shards.iter().map(|&n| AxisValue::Shards(n)).collect(),
        )
        .axis(
            "spacing",
            spacings
                .iter()
                .map(|&l| AxisValue::RackSpacing(l))
                .collect(),
        )
        .master_seed(17)
}

/// e11 — adaptive **fabric** vs adaptive **routing**: the paper's
/// reconfigurable rack (grid escalating to a torus under the CRC) head to
/// head against a static dragonfly running the routing-policy ladder
/// (minimal / Valiant / UGAL-style adaptive) under the same shuffle. The
/// full fabric × routing cross is swept so each fabric answers congestion
/// with every policy — the dragonfly diverts over its global links, the
/// adaptive fabric rewires them.
pub fn e11_matrix(
    grid_side: usize,
    dragonfly: TopologySpec,
    partition_kib: u64,
    horizon_ms: u64,
) -> Matrix {
    let base = ScenarioSpec::new(
        "e11-fabric-vs-routing",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
    )
    .horizon(SimTime::from_millis(horizon_ms));
    Matrix::new(base)
        .axis(
            "fabric",
            vec![
                AxisValue::Multi(vec![
                    AxisValue::Topology(TopologySpec::grid(grid_side, grid_side, 2)),
                    AxisValue::Upgrade(Some(TopologySpec::torus(grid_side, grid_side, 1))),
                    AxisValue::Controller(ControllerSpec::adaptive_default()),
                ]),
                AxisValue::Multi(vec![
                    AxisValue::Topology(dragonfly),
                    AxisValue::Upgrade(None),
                    AxisValue::Controller(ControllerSpec::Baseline),
                ]),
            ],
        )
        .axis(
            "routing",
            vec![
                AxisValue::Routing(RoutingAlgorithm::ShortestHop),
                AxisValue::Routing(RoutingAlgorithm::Valiant),
                AxisValue::Routing(RoutingAlgorithm::Adaptive),
            ],
        )
        .master_seed(23)
}

/// e9 — the scenario-matrix figure: racks × load × controller × **port
/// buffer**, reduced to per-cell tail-latency aggregates.
pub fn e9_matrix(sides: &[usize], loads: &[f64], buffers: &[Bytes], seeds: usize) -> Matrix {
    let base = ScenarioSpec::new(
        "e9-scenario-matrix",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(8)),
    )
    .horizon(SimTime::from_millis(500));
    Matrix::new(base)
        .axis(
            "racks",
            sides
                .iter()
                .map(|&k| AxisValue::Topology(TopologySpec::grid(k, k, 2)))
                .collect(),
        )
        .axis("load", loads.iter().map(|&l| AxisValue::Load(l)).collect())
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .axis(
            "port_buffer",
            buffers.iter().map(|&b| AxisValue::PortBuffer(b)).collect(),
        )
        .replicates(seeds)
        .master_seed(13)
}

// ---------------------------------------------------------------------------
// Figure exports (byte-deterministic CSV).
// ---------------------------------------------------------------------------

/// Looks up the resolved spec of a cell's first record (campaign reducers
/// read spec-derived facts — node counts, bypass depth — straight from the
/// job instead of parsing labels).
fn cell_spec(outcome: &SweepOutcome, cell: usize) -> Option<&ScenarioSpec> {
    outcome
        .records
        .iter()
        .find(|r| r.job.cell == cell)
        .map(|r| &r.job.spec)
}

/// The value of `axis` in a cell's labels (empty when absent).
fn cell_label<'a>(cell: &'a CellSummary, axis: &str) -> &'a str {
    cell.labels
        .iter()
        .find(|(k, _)| k == axis)
        .map(|(_, v)| v.as_str())
        .unwrap_or("")
}

/// e1 export: per-hop latency split into media propagation vs switching
/// logic, one row per (hop count, switch model) cell.
pub fn e1_export(outcome: &SweepOutcome) -> String {
    let mut out = String::from("hops,switch,media_ns,switching_ns,total_ns\n");
    for record in &outcome.records {
        let JobOutcome::Completed(result) = &record.outcome else {
            continue;
        };
        let spec = &record.job.spec;
        let hops = spec.topology.nodes.saturating_sub(2);
        let total_ns = result.summary.packet_latency.mean / 1e3;
        let media_ns = total_ns * result.summary.propagation_fraction;
        let switching_ns = total_ns * result.summary.switching_fraction;
        let switch = match spec.switch.kind {
            SwitchKind::CutThrough => "cut-through",
            SwitchKind::StoreAndForward => "store-fwd",
        };
        out.push_str(&format!(
            "{hops},{switch},{},{},{}\n",
            num(media_ns),
            num(switching_ns),
            num(total_ns)
        ));
    }
    out
}

/// e2 export: completion and reconfiguration counters per (controller, PLP
/// timing) cell.
pub fn e2_export(outcome: &SweepOutcome) -> String {
    let mut out =
        String::from("controller,plp,job_completion_us,topology_reconfigs,plp_commands,p99_us\n");
    for cell in &outcome.cells {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            cell_label(cell, "controller"),
            cell_label(cell, "plp"),
            cell.mean_job_completion_us.map(num).unwrap_or_default(),
            cell.topology_reconfigurations,
            cell.plp_commands,
            num(cell.packet_latency.p99 / 1e6)
        ));
    }
    out
}

/// e3 export: shuffle completion vs rack size, baseline vs adaptive.
pub fn e3_export(outcome: &SweepOutcome) -> String {
    let mut out = String::from("nodes,controller,job_completion_us,topology_reconfigs\n");
    for cell in &outcome.cells {
        let nodes = cell_spec(outcome, cell.cell).map_or(0, |s| s.topology.nodes);
        out.push_str(&format!(
            "{nodes},{},{},{}\n",
            cell_label(cell, "controller"),
            cell.mean_job_completion_us.map(num).unwrap_or_default(),
            cell.topology_reconfigurations
        ));
    }
    out
}

/// e4 export: mean/peak interconnect power per (policy, load) cell.
pub fn e4_export(outcome: &SweepOutcome) -> String {
    let mut out = String::from("load,policy,mean_power_w,max_power_w\n");
    for cell in &outcome.cells {
        out.push_str(&format!(
            "{},{},{},{}\n",
            cell_label(cell, "load"),
            cell_label(cell, "policy"),
            num(cell.mean_power_w),
            num(cell.max_power_w)
        ));
    }
    out
}

/// e5 export (analytic): minimum worthwhile flow size vs reconfiguration
/// time for the paper's 25 G → 100 G uplift.
pub fn e5_export() -> String {
    let times: Vec<SimDuration> = [1u64, 5, 10, 20, 50, 100, 500, 1_000, 5_000, 10_000]
        .iter()
        .map(|&us| SimDuration::from_micros(us))
        .collect();
    let mut out = String::from("reconfig_us,min_flow_kib\n");
    for (t, size) in rackfabric::breakeven::sweep_min_flow_size(
        BitRate::from_gbps(25),
        BitRate::from_gbps(100),
        &times,
    ) {
        out.push_str(&format!(
            "{},{}\n",
            num(t.as_micros_f64()),
            num(size.as_u64() as f64 / 1024.0)
        ));
    }
    out
}

/// e6 export (analytic): the adaptive-FEC ladder — codec chosen, post-FEC
/// BER and added latency as the channel degrades.
pub fn e6_export() -> String {
    let controller = AdaptiveFecController::default();
    let mut out = String::from("pre_ber_log10,mode_index,mode,post_fec_ber_log10,added_ns\n");
    for &ber in &[1e-15, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4] {
        let mode = controller.weakest_sufficient(ber, controller.ber_target);
        let idx = FecMode::ALL.iter().position(|m| *m == mode).unwrap();
        let snr = invert_ber_to_snr_db(ber);
        out.push_str(&format!(
            "{},{idx},{mode:?},{},{}\n",
            num(ber.log10()),
            num(mode.post_fec_ber(snr).log10()),
            num(mode.added_latency().as_nanos_f64())
        ));
    }
    out
}

/// e7 export (cross-validation): DES switch model vs the cycle-level NetFPGA
/// SUME model, per frame size.
pub fn e7_export() -> String {
    let report = validate_against_des(&[64, 128, 256, 512, 1024, 1500]);
    let mut out = String::from("frame_bytes,des_latency_ns,cycle_latency_ns,relative_error\n");
    for p in &report.points {
        let rel = if p.cycle_latency_ns.abs() > f64::EPSILON {
            (p.des_latency_ns - p.cycle_latency_ns).abs() / p.cycle_latency_ns
        } else {
            0.0
        };
        out.push_str(&format!(
            "{},{},{},{}\n",
            p.frame_bytes,
            num(p.des_latency_ns),
            num(p.cycle_latency_ns),
            num(rel)
        ));
    }
    out
}

/// e8 export: end-to-end latency vs number of bypassed switches.
pub fn e8_export(outcome: &SweepOutcome) -> String {
    let mut out = String::from("bypassed,latency_ns\n");
    for cell in &outcome.cells {
        let bypassed = cell_spec(outcome, cell.cell).map_or(0, |s| s.phy.bypassed_nodes);
        out.push_str(&format!(
            "{bypassed},{}\n",
            num(cell.packet_latency.mean / 1e3)
        ));
    }
    out
}

/// e9 export: the full per-cell aggregate CSV (the machine-readable
/// companion of the scenario-matrix figure).
pub fn e9_export(outcome: &SweepOutcome) -> String {
    rackfabric_scenario::export::cells_to_csv(&outcome.cells)
}

/// e10 export: one row per (topology, shard count, rack spacing) cell.
/// Rows that differ only in `shards` must be identical in every result
/// column — the golden pins the sharded engine's shard-count invariance on
/// its scale cells.
pub fn e10_export(outcome: &SweepOutcome) -> String {
    let mut out =
        String::from("topology,shards,spacing,completed_runs,job_completion_us,p99_us,events\n");
    for cell in &outcome.cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            cell_label(cell, "topology"),
            cell_label(cell, "shards"),
            cell_label(cell, "spacing"),
            cell.completed_runs,
            cell.mean_job_completion_us.map(num).unwrap_or_default(),
            num(cell.packet_latency.p99 / 1e6),
            cell.events_processed
        ));
    }
    out
}

/// e11 export: one row per (fabric, routing policy) cell. The
/// `topology_reconfigs` column separates the two answers to congestion: the
/// adaptive fabric rewires (non-zero reconfigs, routing-agnostic escalation)
/// while the dragonfly stays put and lets Valiant/adaptive routing spread
/// load over its global links.
pub fn e11_export(outcome: &SweepOutcome) -> String {
    let mut out = String::from(
        "fabric,routing,nodes,completed_runs,job_completion_us,p99_us,topology_reconfigs,events\n",
    );
    for cell in &outcome.cells {
        let nodes = cell_spec(outcome, cell.cell).map_or(0, |s| s.topology.nodes);
        out.push_str(&format!(
            "{},{},{nodes},{},{},{},{},{}\n",
            cell_label(cell, "fabric"),
            cell_label(cell, "routing"),
            cell.completed_runs,
            cell.mean_job_completion_us.map(num).unwrap_or_default(),
            num(cell.packet_latency.p99 / 1e6),
            cell.topology_reconfigurations,
            cell.events_processed
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The campaign driver.
// ---------------------------------------------------------------------------

/// How a figure produces its export.
pub enum FigureKind {
    /// A scenario matrix resolved through the store, reduced by an export
    /// function. Boxed: a `Matrix` carries a full base spec, and eleven of
    /// them live in one table.
    Sim(Box<Matrix>, fn(&SweepOutcome) -> String),
    /// A pure function of the models — zero store jobs by construction.
    Analytic(fn() -> String),
}

/// Shorthand used by [`figure_defs`] for the simulation-backed variant.
fn sim(matrix: Matrix, export: fn(&SweepOutcome) -> String) -> FigureKind {
    FigureKind::Sim(Box::new(matrix), export)
}

/// One figure campaign's declaration: identity plus how to produce it.
/// [`figure_defs`] lists all eleven; the same table serves fresh runs (the
/// CLI, the golden tests) and journal recovery (the [`FigureResolver`]).
pub struct FigureDef {
    /// Figure identifier ("e1".."e11").
    pub id: &'static str,
    /// File-name slug ("latency_vs_hops").
    pub slug: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Simulation campaign or analytic function.
    pub kind: FigureKind,
}

/// Per-invocation knobs for a figure run. The default (`fixed replicates,
/// no cap`) is the byte-deterministic golden configuration.
#[derive(Debug, Clone, Default)]
pub struct FigureOptions {
    /// Convergence-driven replication instead of the matrices' fixed
    /// replicate counts. Budgeted exports are *not* golden-comparable.
    pub budget: Option<BudgetPolicy>,
    /// Campaign-wide cap on fresh executions, shared across all eleven
    /// figures in order — the interruption knob the recovery CI arm pulls.
    pub max_new_jobs: Option<usize>,
    /// Cooperative cancellation, threaded into every figure's sweep: a
    /// tripped token interrupts the sequence at a job boundary exactly like
    /// an exhausted `max_new_jobs` cap, and recovery completes it the same
    /// way. This is the daemon's cancel path.
    pub cancel: Option<CancelToken>,
}

/// Every figure of the paper (plus e10/e11) at `scale`, in order.
pub fn figure_defs(scale: Scale) -> Vec<FigureDef> {
    let tiny = scale == Scale::Tiny;
    let def = |id, slug, title, kind| FigureDef {
        id,
        slug,
        title,
        kind,
    };
    vec![
        def(
            "e1",
            "latency_vs_hops",
            "media propagation vs switching latency per hop (cut-through and store-and-forward)",
            sim(e1_matrix(if tiny { 4 } else { 21 }), e1_export),
        ),
        def(
            "e2",
            "reconfiguration",
            "CRC-driven grid->torus reconfiguration across PLP timing tables",
            sim(
                if tiny {
                    e2_matrix(4, 50)
                } else {
                    e2_matrix(64, 500)
                },
                e2_export,
            ),
        ),
        def(
            "e3",
            "mapreduce_scaling",
            "shuffle completion vs rack size, static grid vs adaptive fabric",
            sim(
                if tiny {
                    e3_matrix(&[2, 3], 2, 100)
                } else {
                    e3_matrix(&[3, 4, 5, 6], 32, 2_000)
                },
                e3_export,
            ),
        ),
        def(
            "e4",
            "power_vs_load",
            "interconnect power vs offered load, power-cap vs latency-only policy",
            sim(
                if tiny {
                    e4_matrix(&[0.25, 1.0], 500)
                } else {
                    e4_matrix(&[0.1, 0.25, 0.5, 0.75, 1.0], 2_000)
                },
                e4_export,
            ),
        ),
        def(
            "e5",
            "breakeven",
            "minimum flow size for which reconfiguration pays off (25G -> 100G)",
            FigureKind::Analytic(e5_export),
        ),
        def(
            "e6",
            "adaptive_fec",
            "adaptive FEC: codec choice, post-FEC BER and latency vs channel BER",
            FigureKind::Analytic(e6_export),
        ),
        def(
            "e7",
            "validation",
            "DES switch model vs cycle-level NetFPGA SUME model",
            FigureKind::Analytic(e7_export),
        ),
        def(
            "e8",
            "bypass",
            "latency of an N-hop path vs number of PHY-bypassed switches",
            sim(e8_matrix(if tiny { 4 } else { 8 }), e8_export),
        ),
        def(
            "e9",
            "scenario_matrix",
            "racks x load x controller x port-buffer sweep with per-cell tail latency",
            sim(
                if tiny {
                    e9_matrix(
                        &[2, 3],
                        &[1.0],
                        &[Bytes::from_kib(64), Bytes::from_kib(256)],
                        1,
                    )
                } else {
                    e9_matrix(
                        &[3, 4],
                        &[0.5, 1.0],
                        &[Bytes::from_kib(64), Bytes::from_kib(256)],
                        2,
                    )
                },
                e9_export,
            ),
        ),
        def(
            "e10",
            "sharded_scale",
            "sharded-engine scale cells: shard-count invariance and the rack-spacing cost",
            sim(
                if tiny {
                    e10_matrix(
                        vec![
                            TopologySpec::torus(4, 4, 2),
                            TopologySpec::fat_tree(16, 8, 2, 2),
                        ],
                        2,
                        10,
                        &[1, 2],
                        &[Length::from_m(2), Length::from_m(20)],
                    )
                } else {
                    e10_matrix(
                        vec![
                            TopologySpec::torus(16, 16, 2),
                            TopologySpec::fat_tree(128, 16, 4, 2),
                        ],
                        4,
                        40,
                        &[1, 4],
                        &[Length::from_m(2), Length::from_m(20)],
                    )
                },
                e10_export,
            ),
        ),
        def(
            "e11",
            "fabric_vs_routing",
            "adaptive-fabric reconfiguration vs dragonfly adaptive routing, same shuffle",
            sim(
                if tiny {
                    e11_matrix(3, TopologySpec::dragonfly(3, 2, 2, 1), 2, 50)
                } else {
                    e11_matrix(6, TopologySpec::dragonfly(6, 4, 4, 1), 8, 500)
                },
                e11_export,
            ),
        ),
    ]
}

/// Runs one figure through the command layer. `remaining` is the shared
/// fresh-execution allowance (`None` = unbounded); it is decremented by
/// what this campaign executed, so a cap interrupts the figure *sequence*
/// at a job boundary, not just one campaign. An analytic figure renders
/// without touching the executor: it journals nothing and its run has no
/// `outcome`.
pub fn run_figure(
    def: FigureDef,
    scale: Scale,
    exec: &Executor,
    opts: &FigureOptions,
    remaining: &mut Option<usize>,
) -> io::Result<FigureRun> {
    let (matrix, export) = match def.kind {
        FigureKind::Analytic(render) => {
            return Ok(FigureRun {
                id: def.id,
                slug: def.slug,
                title: def.title,
                export: render(),
                executed: 0,
                cached: 0,
                interrupted: false,
                outcome: None,
            })
        }
        FigureKind::Sim(matrix, export) => (matrix, export),
    };
    let mut sweep = Sweep::new(*matrix);
    if let Some(policy) = opts.budget {
        sweep = sweep.budget(policy);
    }
    if let Some(cap) = *remaining {
        sweep = sweep.max_new_jobs(cap);
    }
    if let Some(token) = &opts.cancel {
        sweep = sweep.cancel(token.clone());
    }
    let outcome = exec.regenerate_figure(def.id, scale.golden_dir(), &sweep)?;
    if let Some(cap) = remaining.as_mut() {
        *cap = cap.saturating_sub(outcome.executed);
    }
    Ok(FigureRun {
        id: def.id,
        slug: def.slug,
        title: def.title,
        export: export(&outcome),
        executed: outcome.executed,
        cached: outcome.cached,
        interrupted: outcome.interrupted,
        outcome: Some(outcome),
    })
}

/// Runs every figure campaign at `scale` through `exec`'s store, returning
/// the eleven figure exports in order. A warm store executes zero jobs and
/// reproduces the exact same bytes.
pub fn run_figures(scale: Scale, exec: &Executor) -> io::Result<Vec<FigureRun>> {
    run_figures_with(scale, exec, &FigureOptions::default())
}

/// [`run_figures`] with per-invocation knobs: budgeted replication and/or a
/// campaign-wide fresh-execution cap. Even when the cap runs out early,
/// every figure still journals its `regenerate-figure` marker (later
/// campaigns run with a zero allowance) — which is exactly what lets
/// recovery complete jobs the interruption never reached.
pub fn run_figures_with(
    scale: Scale,
    exec: &Executor,
    opts: &FigureOptions,
) -> io::Result<Vec<FigureRun>> {
    let mut remaining = opts.max_new_jobs;
    figure_defs(scale)
        .into_iter()
        .map(|def| run_figure(def, scale, exec, opts, &mut remaining))
        .collect()
}

/// Replays journaled `regenerate-figure` markers against the figure table:
/// the record's id + scale select the campaign, its budget (if any) is
/// reapplied, and the whole matrix resolves store-first — so recovery of a
/// fully stored figure executes zero jobs and an interrupted one executes
/// exactly its missing jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FigureResolver;

impl CampaignResolver for FigureResolver {
    fn replay(&self, command: &Command, exec: &Executor) -> io::Result<bool> {
        let Command::RegenerateFigure { id, scale, budget } = command else {
            return Ok(false);
        };
        let Some(scale) = Scale::from_name(scale) else {
            return Ok(false);
        };
        let Some(def) = figure_defs(scale).into_iter().find(|d| d.id == id) else {
            return Ok(false);
        };
        let opts = FigureOptions {
            budget: *budget,
            ..FigureOptions::default()
        };
        // An analytic figure has no campaign to replay: its marker counts
        // as skipped.
        let run = run_figure(def, scale, exec, &opts, &mut None)?;
        Ok(run.outcome.is_some())
    }
}

/// The job keys a set of figure runs resolved — the live set for
/// [`ResultStore::gc`] compaction after campaign edits.
pub fn live_keys(figures: &[FigureRun]) -> BTreeSet<JobKey> {
    figures
        .iter()
        .filter_map(|f| f.outcome.as_ref())
        .flat_map(|o| o.records.iter().map(|r| job_key(&r.job.spec)))
        .collect()
}

// ---------------------------------------------------------------------------
// Golden comparison.
// ---------------------------------------------------------------------------

/// How many differing cells a diff message lists before truncating.
const DIFF_CAP: usize = 10;

/// Byte-compares a figure export against its golden, and on mismatch returns
/// a readable per-column diff naming the line, the CSV column, and both
/// values.
pub fn compare_export(name: &str, golden: &str, actual: &str) -> Result<(), String> {
    if golden == actual {
        return Ok(());
    }
    let golden_lines: Vec<&str> = golden.lines().collect();
    let actual_lines: Vec<&str> = actual.lines().collect();
    let header: Vec<&str> = golden_lines
        .first()
        .map(|h| h.split(',').collect())
        .unwrap_or_default();
    let mut diffs: Vec<String> = Vec::new();
    if golden_lines.len() != actual_lines.len() {
        diffs.push(format!(
            "{name}: golden has {} line(s), actual has {}",
            golden_lines.len(),
            actual_lines.len()
        ));
    }
    for (i, (g, a)) in golden_lines.iter().zip(&actual_lines).enumerate() {
        if g == a {
            continue;
        }
        let golden_fields: Vec<&str> = g.split(',').collect();
        let actual_fields: Vec<&str> = a.split(',').collect();
        if golden_fields.len() != actual_fields.len() {
            diffs.push(format!(
                "{name} line {}: field count differs (golden {}, actual {})",
                i + 1,
                golden_fields.len(),
                actual_fields.len()
            ));
            continue;
        }
        for (c, (gv, av)) in golden_fields.iter().zip(&actual_fields).enumerate() {
            if gv != av {
                let column = header.get(c).copied().unwrap_or("?");
                diffs.push(format!(
                    "{name} line {}, column `{column}`: golden={gv} actual={av}",
                    i + 1
                ));
            }
        }
    }
    if diffs.is_empty() {
        // Same lines, different bytes (e.g. a trailing newline).
        diffs.push(format!("{name}: exports differ in whitespace/line endings"));
    }
    let total = diffs.len();
    diffs.truncate(DIFF_CAP);
    if total > DIFF_CAP {
        diffs.push(format!(
            "... and {} more differing cell(s)",
            total - DIFF_CAP
        ));
    }
    Err(diffs.join("\n"))
}

/// The golden file path of a figure at a scale, under `root` (the repository
/// checkout's `golden/` directory).
pub fn golden_path(root: &Path, scale: Scale, figure: &FigureRun) -> PathBuf {
    root.join(scale.golden_dir()).join(figure.export_file())
}

/// Compares every figure against its checked-in golden under `golden_root`.
/// Returns the drifted figures' diffs (empty = all pinned). When
/// `<golden_root>/<scale>` is not a directory nothing can be compared, which
/// is not drift: the error names the resolved directory instead.
pub fn check_goldens(
    golden_root: &Path,
    scale: Scale,
    figures: &[FigureRun],
) -> Result<Vec<String>, String> {
    let dir = golden_root.join(scale.golden_dir());
    if !dir.is_dir() {
        let resolved = std::path::absolute(&dir).unwrap_or(dir);
        return Err(format!(
            "no golden directory at {}: run from the repository root or pass --golden DIR",
            resolved.display()
        ));
    }
    let mut failures = Vec::new();
    for figure in figures {
        let path = golden_path(golden_root, scale, figure);
        match std::fs::read_to_string(&path) {
            Ok(golden) => {
                if let Err(diff) = compare_export(&figure.export_file(), &golden, &figure.export) {
                    failures.push(diff);
                }
            }
            Err(e) => failures.push(format!(
                "{}: cannot read golden {}: {e} (regenerate with --update-golden)",
                figure.export_file(),
                path.display()
            )),
        }
    }
    Ok(failures)
}

/// Writes (or rewrites) the goldens for `figures` under `golden_root`.
pub fn update_goldens(golden_root: &Path, scale: Scale, figures: &[FigureRun]) -> io::Result<()> {
    let dir = golden_root.join(scale.golden_dir());
    std::fs::create_dir_all(&dir)?;
    for figure in figures {
        std::fs::write(dir.join(figure.export_file()), &figure.export)?;
    }
    Ok(())
}

/// Writes the full figure gallery into `out`: every figure's CSV export, a
/// per-figure campaign report directory (SVG plots, markdown) for the
/// simulation-backed figures, and an index.
pub fn write_gallery(out: &Path, figures: &[FigureRun]) -> io::Result<()> {
    std::fs::create_dir_all(out)?;
    let mut index =
        String::from("# Paper figures\n\n| figure | export | report |\n|---|---|---|\n");
    for figure in figures {
        let export_file = figure.export_file();
        std::fs::write(out.join(&export_file), &figure.export)?;
        let report = if let Some(outcome) = &figure.outcome {
            let dir = out.join(figure.id);
            write_report(&dir, &format!("{} — {}", figure.id, figure.title), outcome)?;
            format!("[`{}/report.md`]({}/report.md)", figure.id, figure.id)
        } else {
            "analytic".to_string()
        };
        index.push_str(&format!(
            "| {} — {} | [`{export_file}`]({export_file}) | {report} |\n",
            figure.id, figure.title
        ));
    }
    std::fs::write(out.join("index.md"), index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_export_names_the_offending_column() {
        let golden = "hops,switch,media_ns\n1,cut-through,10\n2,cut-through,20\n";
        let actual = "hops,switch,media_ns\n1,cut-through,10\n2,cut-through,21\n";
        let err = compare_export("e1_latency_vs_hops.csv", golden, actual).unwrap_err();
        assert!(err.contains("line 3"), "diff was: {err}");
        assert!(err.contains("column `media_ns`"), "diff was: {err}");
        assert!(err.contains("golden=20 actual=21"), "diff was: {err}");
        assert!(compare_export("x", golden, golden).is_ok());
    }

    #[test]
    fn compare_export_reports_missing_lines() {
        let golden = "a,b\n1,2\n3,4\n";
        let actual = "a,b\n1,2\n";
        let err = compare_export("t.csv", golden, actual).unwrap_err();
        assert!(err.contains("3 line(s)"), "diff was: {err}");
    }

    #[test]
    fn a_missing_golden_directory_is_not_drift() {
        let dir = rackfabric_sweep::testdir::TestDir::new("missing-golden");
        let figure = FigureRun {
            id: "e5",
            slug: "breakeven",
            title: "break-even flow size",
            export: e5_export(),
            executed: 0,
            cached: 0,
            interrupted: false,
            outcome: None,
        };
        let root = dir.path().join("absent");
        let err = check_goldens(&root, Scale::Tiny, &[figure]).unwrap_err();
        let resolved = std::path::absolute(root.join("tiny")).unwrap();
        assert!(
            err.contains(&resolved.display().to_string()),
            "error was: {err}"
        );
        assert!(err.contains("--golden DIR"), "error was: {err}");
        assert!(!err.contains("--update-golden"), "error was: {err}");
    }

    #[test]
    fn analytic_figures_are_store_free_and_deterministic() {
        assert_eq!(e5_export(), e5_export());
        assert_eq!(e6_export(), e6_export());
        assert_eq!(e7_export(), e7_export());
        assert!(e5_export().starts_with("reconfig_us,min_flow_kib\n"));
        assert_eq!(e6_export().lines().count(), 9, "header + 8 BER points");
    }

    #[test]
    fn figure_table_lists_all_eleven_figures_at_both_scales() {
        for scale in [Scale::Tiny, Scale::Paper] {
            let defs = figure_defs(scale);
            let ids: Vec<&str> = defs.iter().map(|d| d.id).collect();
            assert_eq!(
                ids,
                ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11"]
            );
            let analytic = defs
                .iter()
                .filter(|d| matches!(d.kind, FigureKind::Analytic(_)))
                .count();
            assert_eq!(analytic, 3, "e5, e6, e7");
        }
    }

    #[test]
    fn figure_resolver_ignores_foreign_and_unknown_markers() {
        let dir = rackfabric_sweep::testdir::TestDir::new("figure-resolver");
        let exec = Executor::new(
            ResultStore::open(dir.path()).unwrap(),
            Runner::single_threaded(),
        );
        let foreign = Command::ExpandMatrix {
            campaign: "not-a-figure".into(),
            cells: 1,
            jobs: 1,
        };
        assert!(!FigureResolver.replay(&foreign, &exec).unwrap());
        let unknown = Command::RegenerateFigure {
            id: "e99".into(),
            scale: "tiny".into(),
            budget: None,
        };
        assert!(!FigureResolver.replay(&unknown, &exec).unwrap());
        let unknown_scale = Command::RegenerateFigure {
            id: "e1".into(),
            scale: "huge".into(),
            budget: None,
        };
        assert!(!FigureResolver.replay(&unknown_scale, &exec).unwrap());
        // An analytic figure has no campaign to replay: its marker is
        // skipped too, and no job runs.
        let analytic = Command::RegenerateFigure {
            id: "e5".into(),
            scale: "tiny".into(),
            budget: None,
        };
        assert!(!FigureResolver.replay(&analytic, &exec).unwrap());
        assert!(exec.store().is_empty());
    }
}
