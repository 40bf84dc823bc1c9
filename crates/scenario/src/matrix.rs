//! Axis sweeps: expanding a base [`ScenarioSpec`] × axes × seeds into a job
//! list.
//!
//! A [`Matrix`] is the cartesian product of its axes. Each combination of
//! axis values is a **cell**; each cell runs `replicates` times with
//! distinct, deterministically derived seeds — so `racks × load × fec × 10
//! seeds` expands to one [`Job`] per (cell, replicate) pair. Expansion is
//! pure: the same matrix always yields the same jobs in the same order, with
//! the same seeds, which is what makes N-thread execution reproducible.

use crate::spec::{ControllerSpec, FecSetting, ScenarioSpec, WorkloadSpec};
use rackfabric::policy::CrcPolicy;
use rackfabric_phy::PlpTiming;
use rackfabric_sim::rng::DetRng;
use rackfabric_sim::units::{Bytes, Length};
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;

/// One value of a sweep axis: a mutation applied to the base spec.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// Replace the starting topology.
    Topology(TopologySpec),
    /// Replace the escalation topology.
    Upgrade(Option<TopologySpec>),
    /// Replace the workload wholesale.
    Workload(WorkloadSpec),
    /// Set the workload's intensity multiplier.
    Load(f64),
    /// Set the initial FEC codec.
    Fec(FecSetting),
    /// Replace the controller.
    Controller(ControllerSpec),
    /// Set the CRC policy (keeps the controller's epoch and routing; turns a
    /// baseline controller adaptive).
    Policy(CrcPolicy),
    /// Override the routing algorithm regardless of controller (sets
    /// [`ScenarioSpec::routing`], so a static baseline fabric can run
    /// Valiant or adaptive routing and an adaptive controller's default is
    /// replaced).
    Routing(RoutingAlgorithm),
    /// Set the switch datapath model (forwarding discipline + pipeline
    /// latency) used at every node.
    SwitchModel(SwitchModel),
    /// Set the per-port egress buffer (the tail-drop depth).
    PortBuffer(Bytes),
    /// Set the PLP reconfiguration-latency table (what every reconfiguration
    /// command costs before traffic may resume).
    PlpTiming(PlpTiming),
    /// Install PHY bypasses at the first `n` intermediate nodes of the
    /// node-id chain before the run (line topologies).
    BypassChain(usize),
    /// Apply several mutations as one axis value (for knobs that must move
    /// together, e.g. a topology and its matching escalation target).
    Multi(Vec<AxisValue>),
    /// Select the engine: `0` = monolithic, `n >= 1` = sharded multi-rack
    /// engine with `n` rack groups. Sweeps use this axis to cross-check
    /// 1-shard against N-shard runs (byte-identical exports).
    Shards(usize),
    /// Stretch every **inter-rack** cable of the topology (and its
    /// escalation target) to at least this length. Longer inter-rack cables
    /// fund a larger conservative lookahead for the sharded engine — the
    /// physical knob behind its window length.
    RackSpacing(Length),
}

impl AxisValue {
    /// Applies the mutation to `spec`.
    pub fn apply(&self, spec: &mut ScenarioSpec) {
        match self {
            AxisValue::Topology(t) => spec.topology = t.clone(),
            AxisValue::Upgrade(u) => spec.upgrade = u.clone(),
            AxisValue::Workload(w) => spec.workload = w.clone(),
            AxisValue::Load(l) => spec.workload = spec.workload.clone().with_load(*l),
            AxisValue::Fec(f) => spec.phy.fec = *f,
            AxisValue::Controller(c) => spec.controller = *c,
            AxisValue::Policy(p) => match &mut spec.controller {
                ControllerSpec::Adaptive { policy, .. } => *policy = *p,
                baseline @ ControllerSpec::Baseline => {
                    let mut adaptive = ControllerSpec::adaptive_default();
                    if let ControllerSpec::Adaptive { policy, .. } = &mut adaptive {
                        *policy = *p;
                    }
                    *baseline = adaptive;
                }
            },
            AxisValue::Routing(r) => spec.routing = Some(*r),
            AxisValue::SwitchModel(m) => spec.switch = *m,
            AxisValue::PortBuffer(b) => spec.port_buffer = *b,
            AxisValue::PlpTiming(t) => spec.plp_timing = *t,
            AxisValue::BypassChain(n) => spec.phy.bypassed_nodes = *n,
            AxisValue::Multi(values) => {
                for value in values {
                    value.apply(spec);
                }
            }
            AxisValue::Shards(n) => spec.shards = *n,
            AxisValue::RackSpacing(l) => {
                spec.topology = spec.topology.clone().with_rack_spacing(*l);
                spec.upgrade = spec.upgrade.take().map(|t| t.with_rack_spacing(*l));
            }
        }
    }

    /// Compact value label used in cell labels and export columns.
    pub fn label(&self) -> String {
        match self {
            AxisValue::Topology(t) => t.name.clone(),
            AxisValue::Upgrade(Some(t)) => format!("->{}", t.name),
            AxisValue::Upgrade(None) => "static".into(),
            AxisValue::Workload(w) => w.label(),
            AxisValue::Load(l) => format!("{l}"),
            AxisValue::Fec(f) => f.label(),
            AxisValue::Controller(c) => c.label(),
            AxisValue::Policy(p) => p.name().into(),
            AxisValue::Routing(r) => match r {
                RoutingAlgorithm::ShortestHop => "minimal".into(),
                RoutingAlgorithm::MinCost => "mincost".into(),
                RoutingAlgorithm::Ecmp => "ecmp".into(),
                RoutingAlgorithm::DimensionOrdered => "dor".into(),
                RoutingAlgorithm::Valiant => "valiant".into(),
                RoutingAlgorithm::Adaptive => "adaptive".into(),
            },
            AxisValue::SwitchModel(m) => {
                let kind = match m.kind {
                    SwitchKind::CutThrough => "cut-through",
                    SwitchKind::StoreAndForward => "store-fwd",
                };
                format!("{kind}-{}ns", m.pipeline_latency.as_nanos_f64())
            }
            AxisValue::PortBuffer(b) => {
                let bytes = b.as_u64();
                if bytes % 1024 == 0 {
                    format!("{}KiB", bytes / 1024)
                } else {
                    format!("{bytes}B")
                }
            }
            // The split latency is the headline reconfiguration cost the
            // paper sweeps; it stands in for the whole table.
            AxisValue::PlpTiming(t) => format!("split-{}us", t.split.as_micros_f64()),
            AxisValue::BypassChain(n) => format!("{n}"),
            AxisValue::Multi(values) => values
                .iter()
                .map(|v| v.label())
                .collect::<Vec<_>>()
                .join("+"),
            AxisValue::Shards(0) => "monolithic".into(),
            AxisValue::Shards(n) => format!("{n}"),
            AxisValue::RackSpacing(l) => {
                let mm = l.as_mm();
                if mm % 1000 == 0 {
                    format!("{}m", mm / 1000)
                } else {
                    format!("{mm}mm")
                }
            }
        }
    }
}

/// A named sweep dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Column name in exports (e.g. `"racks"`, `"load"`, `"fec"`).
    pub name: String,
    /// The values swept along this axis.
    pub values: Vec<AxisValue>,
}

/// One executable unit: a fully resolved spec plus its position in the
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Position in the expanded job list (also the result ordering key).
    pub index: usize,
    /// Which cell (axis-value combination) this job belongs to.
    pub cell: usize,
    /// Which replicate within the cell.
    pub replicate: usize,
    /// `(axis name, value label)` pairs identifying the cell.
    pub labels: Vec<(String, String)>,
    /// The resolved scenario (with the per-job seed already installed).
    pub spec: ScenarioSpec,
}

/// A declarative sweep: base spec × axes × replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// The spec every cell starts from.
    pub base: ScenarioSpec,
    /// Sweep dimensions, applied in order.
    pub axes: Vec<Axis>,
    /// Seeds per cell.
    pub replicates: usize,
    /// Master seed all per-job seeds derive from.
    pub master_seed: u64,
}

impl Matrix {
    /// A matrix with no axes (a single cell) and one replicate.
    pub fn new(base: ScenarioSpec) -> Self {
        let master_seed = base.seed;
        Matrix {
            base,
            axes: Vec::new(),
            replicates: 1,
            master_seed,
        }
    }

    /// Adds a sweep axis, returning the modified matrix.
    pub fn axis(mut self, name: impl Into<String>, values: Vec<AxisValue>) -> Self {
        assert!(!values.is_empty(), "an axis needs at least one value");
        self.axes.push(Axis {
            name: name.into(),
            values,
        });
        self
    }

    /// Sets the number of seeds per cell, returning the modified matrix.
    pub fn replicates(mut self, n: usize) -> Self {
        assert!(n >= 1, "a cell needs at least one replicate");
        self.replicates = n;
        self
    }

    /// Sets the master seed, returning the modified matrix.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Number of cells (product of axis sizes).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Number of jobs (cells × replicates).
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.replicates
    }

    /// Expands the matrix into its job list.
    ///
    /// Cells enumerate in mixed-radix order (last axis fastest); replicates
    /// nest innermost. Per-job seeds are drawn from a single
    /// [`DetRng`] stream over the master seed, so the mapping
    /// `(cell, replicate) -> seed` is a pure function of the matrix.
    pub fn expand(&self) -> Vec<Job> {
        let cells = self.cell_count();
        let mut seed_rng = DetRng::new(self.master_seed);
        let mut jobs = Vec::with_capacity(self.job_count());
        for cell in 0..cells {
            let mut spec = self.base.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            // Decode the cell index into one value per axis (last axis is
            // the fastest-varying digit).
            let mut remainder = cell;
            let mut choices = vec![0usize; self.axes.len()];
            for (i, axis) in self.axes.iter().enumerate().rev() {
                choices[i] = remainder % axis.values.len();
                remainder /= axis.values.len();
            }
            for (axis, &choice) in self.axes.iter().zip(&choices) {
                let value = &axis.values[choice];
                value.apply(&mut spec);
                labels.push((axis.name.clone(), value.label()));
            }
            for replicate in 0..self.replicates {
                let mut job_spec = spec.clone();
                job_spec.seed = seed_rng.next_u64();
                jobs.push(Job {
                    index: jobs.len(),
                    cell,
                    replicate,
                    labels: labels.clone(),
                    spec: job_spec,
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::time::SimDuration;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(
            "unit",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        )
    }

    fn rack_axis() -> Vec<AxisValue> {
        vec![
            AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
            AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
            AxisValue::Topology(TopologySpec::grid(4, 4, 2)),
        ]
    }

    #[test]
    fn routing_axis_overrides_any_controller() {
        let mut spec = base().controller(ControllerSpec::Baseline);
        AxisValue::Routing(RoutingAlgorithm::Valiant).apply(&mut spec);
        assert_eq!(spec.routing, Some(RoutingAlgorithm::Valiant));
        assert_eq!(
            spec.to_fabric_config().routing,
            RoutingAlgorithm::Valiant,
            "the axis must reach the lowered config even without a controller"
        );
        assert_eq!(
            AxisValue::Routing(RoutingAlgorithm::ShortestHop).label(),
            "minimal"
        );
        assert_eq!(
            AxisValue::Routing(RoutingAlgorithm::Adaptive).label(),
            "adaptive"
        );
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let m = Matrix::new(base())
            .axis("racks", rack_axis())
            .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
            .replicates(4);
        assert_eq!(m.cell_count(), 6);
        assert_eq!(m.job_count(), 24);
        let jobs = m.expand();
        assert_eq!(jobs.len(), 24);
        // Indices are dense and ordered.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
        // Every cell appears with every replicate.
        assert_eq!(jobs.iter().filter(|j| j.cell == 5).count(), 4);
        // Last axis varies fastest.
        assert_eq!(jobs[0].labels[1].1, "0.5");
        assert_eq!(jobs[4].labels[1].1, "1");
        assert_eq!(jobs[0].labels[0].1, jobs[4].labels[0].1);
    }

    #[test]
    fn expansion_is_deterministic() {
        let m = Matrix::new(base())
            .axis("racks", rack_axis())
            .replicates(3)
            .master_seed(99);
        assert_eq!(m.expand(), m.expand());
    }

    #[test]
    fn replicates_get_distinct_seeds() {
        let m = Matrix::new(base()).axis("racks", rack_axis()).replicates(5);
        let jobs = m.expand();
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len(), "every job must get its own seed");
    }

    #[test]
    fn master_seed_changes_all_job_seeds() {
        let a = Matrix::new(base()).master_seed(1).expand();
        let b = Matrix::new(base()).master_seed(2).expand();
        assert_ne!(a[0].spec.seed, b[0].spec.seed);
    }

    #[test]
    fn load_axis_rescales_the_base_workload() {
        let m = Matrix::new(base()).axis("load", vec![AxisValue::Load(2.0)]);
        let jobs = m.expand();
        assert_eq!(jobs[0].spec.workload.load(), 2.0);
        assert_eq!(jobs[0].spec.workload.label(), "shuffle");
    }

    #[test]
    fn policy_axis_turns_a_baseline_adaptive() {
        let mut spec = base().controller(ControllerSpec::Baseline);
        AxisValue::Policy(CrcPolicy::CongestionBalance).apply(&mut spec);
        assert!(matches!(
            spec.controller,
            ControllerSpec::Adaptive {
                policy: CrcPolicy::CongestionBalance,
                ..
            }
        ));
    }

    #[test]
    fn physical_layer_axes_mutate_the_spec_and_reach_the_engine() {
        let m = Matrix::new(base())
            .axis(
                "switch",
                vec![AxisValue::SwitchModel(SwitchModel::store_and_forward())],
            )
            .axis("buffer", vec![AxisValue::PortBuffer(Bytes::from_kib(64))])
            .axis(
                "plp",
                vec![AxisValue::PlpTiming(PlpTiming::default().scaled(10.0))],
            )
            .axis("bypassed", vec![AxisValue::BypassChain(3)]);
        let jobs = m.expand();
        assert_eq!(jobs.len(), 1);
        let spec = &jobs[0].spec;
        assert_eq!(spec.switch.kind, SwitchKind::StoreAndForward);
        assert_eq!(spec.port_buffer.as_u64(), 64 * 1024);
        assert_eq!(spec.plp_timing.split, SimDuration::from_micros(200));
        assert_eq!(spec.phy.bypassed_nodes, 3);
        assert_eq!(jobs[0].labels[0].1, "store-fwd-400ns");
        assert_eq!(jobs[0].labels[1].1, "64KiB");
        assert_eq!(jobs[0].labels[2].1, "split-200us");
        assert_eq!(jobs[0].labels[3].1, "3");
        // The knobs reach the engine configuration.
        let config = spec.to_fabric_config();
        assert_eq!(config.switch.kind, SwitchKind::StoreAndForward);
        assert_eq!(config.port_buffer.as_u64(), 64 * 1024);
        assert_eq!(config.plp_timing.split, SimDuration::from_micros(200));
    }

    #[test]
    fn multi_axis_applies_all_mutations_and_joins_labels() {
        let value = AxisValue::Multi(vec![
            AxisValue::Topology(TopologySpec::grid(4, 4, 2)),
            AxisValue::Upgrade(Some(TopologySpec::torus(4, 4, 1))),
        ]);
        let mut spec = base();
        value.apply(&mut spec);
        assert_eq!(spec.topology.nodes, 16);
        assert_eq!(
            spec.upgrade.as_ref().map(|t| t.name.clone()),
            Some(TopologySpec::torus(4, 4, 1).name)
        );
        let label = value.label();
        assert!(label.contains('+'), "joined label: {label}");
    }

    #[test]
    fn empty_matrix_is_a_single_cell() {
        let m = Matrix::new(base());
        assert_eq!(m.cell_count(), 1);
        let jobs = m.expand();
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].labels.is_empty());
    }
}
