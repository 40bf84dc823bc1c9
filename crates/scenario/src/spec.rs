//! Declarative descriptions of a single simulation cell.
//!
//! A [`ScenarioSpec`] captures everything one `Simulator` run needs —
//! topology, workload, physical-layer policy, controller policy, seed and
//! horizon — as plain data, so a [`crate::Matrix`] can clone and mutate it
//! along sweep axes and a [`crate::Runner`] can execute hundreds of cells in
//! parallel with no shared state.

use rackfabric::fabric::FabricConfig;
use rackfabric::policy::CrcPolicy;
use rackfabric_phy::{FecMode, PlpTiming, PowerState};
use rackfabric_sim::config::SimConfig;
use rackfabric_sim::rng::DetRng;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_switch::model::SwitchModel;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::NodeId;
use rackfabric_workload::{
    ArrivalProcess, Flow, HotspotWorkload, IncastWorkload, MapReduceShuffle, PermutationWorkload,
    StorageWorkload, UniformWorkload, Workload, WorkloadFlowId,
};
use serde::{Deserialize, Serialize};

/// Which workload a cell runs, with a uniform "load" knob across patterns so
/// a single load axis sweeps any of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// All-to-all MapReduce shuffle; `load` scales the per-pair partition.
    Shuffle {
        /// Bytes each mapper sends each reducer at load 1.0.
        partition: Bytes,
        /// Intensity multiplier.
        load: f64,
    },
    /// Every node sends to node 0; `load` scales the request size.
    Incast {
        /// Bytes per sender at load 1.0.
        request: Bytes,
        /// Intensity multiplier.
        load: f64,
    },
    /// Fixed-point-free permutation; `load` scales the flow size.
    Permutation {
        /// Bytes per flow at load 1.0.
        size: Bytes,
        /// Intensity multiplier.
        load: f64,
    },
    /// Poisson-arriving uniform random pairs; `load` scales the flow count.
    Uniform {
        /// Flows per node at load 1.0.
        flows_per_node: f64,
        /// Bytes per flow.
        size: Bytes,
        /// Mean inter-arrival time of the Poisson process.
        mean_interarrival: SimDuration,
        /// Intensity multiplier.
        load: f64,
    },
    /// Zipf-skewed hotspot traffic; `load` scales the flow count.
    Hotspot {
        /// Flows per node at load 1.0.
        flows_per_node: f64,
        /// Bytes per flow.
        size: Bytes,
        /// Zipf exponent (0 = uniform, 1–2 = strongly skewed).
        zipf_exponent: f64,
        /// Intensity multiplier.
        load: f64,
    },
    /// A single flow from node 0 to the highest-numbered node; `load` scales
    /// the flow size. The probe workload behind the per-hop latency figures
    /// (fig. 1 and the bypass experiment): on a line topology it traverses
    /// every switch exactly once.
    SingleFlow {
        /// Bytes carried at load 1.0.
        size: Bytes,
        /// Intensity multiplier.
        load: f64,
    },
    /// Disaggregated-storage I/O against the last quarter of the rack's
    /// sleds; `load` scales the operation count.
    Storage {
        /// I/O operations per compute sled at load 1.0.
        ops_per_node: f64,
        /// Bytes per I/O.
        io_size: Bytes,
        /// Fraction of operations that are reads.
        read_fraction: f64,
        /// Intensity multiplier.
        load: f64,
    },
}

impl WorkloadSpec {
    /// A shuffle at load 1.0.
    pub fn shuffle(partition: Bytes) -> Self {
        WorkloadSpec::Shuffle {
            partition,
            load: 1.0,
        }
    }

    /// An incast at load 1.0.
    pub fn incast(request: Bytes) -> Self {
        WorkloadSpec::Incast { request, load: 1.0 }
    }

    /// A permutation at load 1.0.
    pub fn permutation(size: Bytes) -> Self {
        WorkloadSpec::Permutation { size, load: 1.0 }
    }

    /// Uniform Poisson traffic at load 1.0.
    pub fn uniform(flows_per_node: f64, size: Bytes) -> Self {
        WorkloadSpec::Uniform {
            flows_per_node,
            size,
            mean_interarrival: SimDuration::from_micros(2),
            load: 1.0,
        }
    }

    /// A single end-to-end probe flow at load 1.0.
    pub fn single_flow(size: Bytes) -> Self {
        WorkloadSpec::SingleFlow { size, load: 1.0 }
    }

    /// Returns the spec with its intensity multiplier replaced — the hook the
    /// load axis uses.
    pub fn with_load(mut self, new_load: f64) -> Self {
        match &mut self {
            WorkloadSpec::Shuffle { load, .. }
            | WorkloadSpec::Incast { load, .. }
            | WorkloadSpec::Permutation { load, .. }
            | WorkloadSpec::Uniform { load, .. }
            | WorkloadSpec::Hotspot { load, .. }
            | WorkloadSpec::SingleFlow { load, .. }
            | WorkloadSpec::Storage { load, .. } => *load = new_load,
        }
        self
    }

    /// The current intensity multiplier.
    pub fn load(&self) -> f64 {
        match self {
            WorkloadSpec::Shuffle { load, .. }
            | WorkloadSpec::Incast { load, .. }
            | WorkloadSpec::Permutation { load, .. }
            | WorkloadSpec::Uniform { load, .. }
            | WorkloadSpec::Hotspot { load, .. }
            | WorkloadSpec::SingleFlow { load, .. }
            | WorkloadSpec::Storage { load, .. } => *load,
        }
    }

    /// Short name for cell labels and CSV columns.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Shuffle { .. } => "shuffle".into(),
            WorkloadSpec::Incast { .. } => "incast".into(),
            WorkloadSpec::Permutation { .. } => "permutation".into(),
            WorkloadSpec::Uniform { .. } => "uniform".into(),
            WorkloadSpec::Hotspot { .. } => "hotspot".into(),
            WorkloadSpec::SingleFlow { .. } => "single-flow".into(),
            WorkloadSpec::Storage { .. } => "storage".into(),
        }
    }

    /// Generates the flows for a rack of `nodes` sleds.
    pub fn generate(&self, nodes: usize, rng: &mut DetRng) -> Vec<Flow> {
        let scaled = |bytes: Bytes, load: f64| {
            Bytes::new(((bytes.as_u64() as f64 * load).round() as u64).max(1))
        };
        match self {
            WorkloadSpec::Shuffle { partition, load } => {
                MapReduceShuffle::all_to_all(nodes, scaled(*partition, *load)).generate(rng)
            }
            WorkloadSpec::Incast { request, load } => IncastWorkload {
                sink: NodeId(0),
                senders: (0..nodes as u32).map(NodeId).collect(),
                request_size: scaled(*request, *load),
                start: SimTime::ZERO,
            }
            .generate(rng),
            WorkloadSpec::Permutation { size, load } => PermutationWorkload {
                nodes,
                size: scaled(*size, *load),
                arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
            }
            .generate(rng),
            WorkloadSpec::Uniform {
                flows_per_node,
                size,
                mean_interarrival,
                load,
            } => UniformWorkload {
                nodes,
                flows: ((flows_per_node * load * nodes as f64).round() as usize).max(1),
                size: *size,
                arrivals: ArrivalProcess::Poisson {
                    mean_interarrival: *mean_interarrival,
                    start: SimTime::ZERO,
                },
            }
            .generate(rng),
            WorkloadSpec::Hotspot {
                flows_per_node,
                size,
                zipf_exponent,
                load,
            } => HotspotWorkload {
                nodes,
                flows: ((flows_per_node * load * nodes as f64).round() as usize).max(1),
                zipf_exponent: *zipf_exponent,
                size: *size,
                arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
            }
            .generate(rng),
            WorkloadSpec::SingleFlow { size, load } => vec![Flow {
                id: WorkloadFlowId(0),
                src: NodeId(0),
                dst: NodeId(nodes.saturating_sub(1) as u32),
                size: scaled(*size, *load),
                start_at: SimTime::ZERO,
            }],
            WorkloadSpec::Storage {
                ops_per_node,
                io_size,
                read_fraction,
                load,
            } => {
                // The last quarter of the rack (at least one sled) serves as
                // NVMe storage; the rest are compute. A 1-node rack has no
                // compute sleds left and StorageWorkload panics — the runner
                // records that cell as failed.
                let storage_count = (nodes / 4).max(1);
                let split = nodes - storage_count;
                let compute: Vec<NodeId> = (0..split as u32).map(NodeId).collect();
                let storage: Vec<NodeId> = (split as u32..nodes as u32).map(NodeId).collect();
                let compute_count = compute.len().max(1);
                StorageWorkload {
                    compute_nodes: compute,
                    storage_nodes: storage,
                    operations: ((ops_per_node * load * compute_count as f64).round() as usize)
                        .max(1),
                    read_fraction: *read_fraction,
                    io_size: *io_size,
                    arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
                }
                .generate(rng)
            }
        }
    }
}

/// Initial FEC configuration applied to every link before the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FecSetting {
    /// Leave the media's default codec in place.
    Default,
    /// Force a codec on every link.
    Fixed(FecMode),
}

impl FecSetting {
    /// Short name for cell labels: the setting's canonical wire name.
    pub fn label(&self) -> String {
        crate::codec::wire_name(*self).into()
    }
}

/// Physical-layer policy of a cell: the initial PLP state the rack boots
/// with (the CRC may change it afterwards when the controller is adaptive).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyPolicy {
    /// Initial FEC codec.
    pub fec: FecSetting,
    /// Cap on initially active lanes per link (`None` = all lanes up).
    pub active_lanes: Option<usize>,
    /// Initial power state of every link.
    pub power: PowerState,
    /// Install PHY-level bypasses at the first `n` intermediate nodes of the
    /// node-id chain `0 -> 1 -> 2 -> ...` before the run starts (PLP #2).
    /// Meaningful on line topologies, where the chain is the unique path;
    /// nodes without both chain links are skipped.
    pub bypassed_nodes: usize,
}

impl Default for PhyPolicy {
    fn default() -> Self {
        PhyPolicy {
            fec: FecSetting::Default,
            active_lanes: None,
            power: PowerState::Active,
            bypassed_nodes: 0,
        }
    }
}

impl PhyPolicy {
    /// Short composite label ("fec=rs544,lanes=2").
    pub fn label(&self) -> String {
        let mut parts = vec![format!("fec={}", self.fec.label())];
        if let Some(lanes) = self.active_lanes {
            parts.push(format!("lanes={lanes}"));
        }
        if self.power != PowerState::Active {
            parts.push(format!("power={:?}", self.power).to_lowercase());
        }
        if self.bypassed_nodes > 0 {
            parts.push(format!("bypass={}", self.bypassed_nodes));
        }
        parts.join(",")
    }
}

/// Controller policy of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// Static packet-switched baseline: no CRC, shortest-hop routing.
    Baseline,
    /// Closed Ring Control with the given policy, epoch and routing.
    Adaptive {
        /// What the CRC optimises for.
        policy: CrcPolicy,
        /// Telemetry/decision epoch.
        epoch: SimDuration,
        /// Routing algorithm used when admitting flows.
        routing: RoutingAlgorithm,
    },
}

impl ControllerSpec {
    /// The paper's default adaptive controller.
    pub fn adaptive_default() -> Self {
        ControllerSpec::Adaptive {
            policy: CrcPolicy::default(),
            epoch: SimDuration::from_micros(20),
            routing: RoutingAlgorithm::MinCost,
        }
    }

    /// Short name for cell labels.
    pub fn label(&self) -> String {
        match self {
            ControllerSpec::Baseline => "baseline".into(),
            ControllerSpec::Adaptive { policy, .. } => policy.name().into(),
        }
    }
}

/// A complete, declarative description of one simulation cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario family name, recorded in exports.
    pub name: String,
    /// The topology the rack starts in.
    pub topology: TopologySpec,
    /// Topology the CRC may escalate to (`None` disables escalation).
    pub upgrade: Option<TopologySpec>,
    /// The traffic the cell runs.
    pub workload: WorkloadSpec,
    /// Initial physical-layer state.
    pub phy: PhyPolicy,
    /// Control-plane configuration.
    pub controller: ControllerSpec,
    /// Per-lane signalling rate.
    pub lane_rate: BitRate,
    /// The switch datapath model used at every node (forwarding discipline
    /// plus pipeline latency).
    pub switch: SwitchModel,
    /// Egress buffer per port (tail drop beyond it).
    pub port_buffer: Bytes,
    /// Reconfiguration-latency table charged per PLP command class.
    pub plp_timing: PlpTiming,
    /// Packetisation size.
    pub mtu: Bytes,
    /// Rate window sizing packet trains: each drain event transmits up to
    /// `capacity × train_window` bytes of MTU frames back-to-back. Larger
    /// windows collapse more events per train at the cost of coarser
    /// interleaving.
    pub train_window: SimDuration,
    /// Routing-policy override. `None` keeps whatever the controller lowers
    /// to (shortest-hop for `Baseline`, the CRC's configured algorithm for
    /// `Adaptive`); `Some` replaces it, which is how a static baseline fabric
    /// runs Valiant or adaptive (UGAL-style) routing without a controller.
    pub routing: Option<RoutingAlgorithm>,
    /// Master seed (replaced per job by the matrix expansion).
    pub seed: u64,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Livelock guard on processed events.
    pub event_budget: u64,
    /// Stop as soon as every flow completes.
    pub stop_when_done: bool,
    /// Which engine runs the cell: `0` is the monolithic single-core engine
    /// (`run_fabric`); `n >= 1` is the sharded multi-rack engine partitioned
    /// into `n` rack groups. Sharded results are byte-identical for every
    /// `n >= 1` — sweeps put a shards axis on a matrix to cross-check the
    /// 1-shard reference against N-shard parallel runs — but are a
    /// different model from the monolithic engine (flow acks have latency).
    pub shards: usize,
}

impl ScenarioSpec {
    /// A named scenario over `topology` running `workload` with the default
    /// adaptive controller, a 50 ms horizon and seed 1.
    pub fn new(
        name: impl Into<String>,
        topology: TopologySpec,
        workload: WorkloadSpec,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            topology,
            upgrade: None,
            workload,
            phy: PhyPolicy::default(),
            controller: ControllerSpec::adaptive_default(),
            lane_rate: BitRate::from_gbps(25),
            switch: SwitchModel::cut_through(),
            port_buffer: Bytes::from_kib(256),
            plp_timing: PlpTiming::default(),
            mtu: Bytes::new(1500),
            train_window: SimDuration::from_micros(1),
            routing: None,
            seed: 1,
            horizon: SimTime::from_millis(50),
            event_budget: u64::MAX,
            stop_when_done: true,
            shards: 0,
        }
    }

    /// Selects the sharded engine with `n` rack groups (`0` reverts to the
    /// monolithic engine), returning the modified spec.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the escalation topology, returning the modified spec.
    pub fn upgrade(mut self, target: TopologySpec) -> Self {
        self.upgrade = Some(target);
        self
    }

    /// Sets the controller, returning the modified spec.
    pub fn controller(mut self, controller: ControllerSpec) -> Self {
        self.controller = controller;
        self
    }

    /// Sets the physical-layer policy, returning the modified spec.
    pub fn phy(mut self, phy: PhyPolicy) -> Self {
        self.phy = phy;
        self
    }

    /// Sets the switch datapath model, returning the modified spec.
    pub fn switch_model(mut self, switch: SwitchModel) -> Self {
        self.switch = switch;
        self
    }

    /// Sets the per-port egress buffer, returning the modified spec.
    pub fn port_buffer(mut self, buffer: Bytes) -> Self {
        self.port_buffer = buffer;
        self
    }

    /// Sets the PLP reconfiguration-latency table, returning the modified
    /// spec.
    pub fn plp_timing(mut self, timing: PlpTiming) -> Self {
        self.plp_timing = timing;
        self
    }

    /// Sets whether the run stops as soon as every flow completes, returning
    /// the modified spec (`false` runs to the horizon — open-loop power and
    /// utilisation studies).
    pub fn stop_when_done(mut self, stop: bool) -> Self {
        self.stop_when_done = stop;
        self
    }

    /// Sets the packet-train rate window, returning the modified spec.
    pub fn train_window(mut self, window: SimDuration) -> Self {
        self.train_window = window;
        self
    }

    /// Overrides the routing policy regardless of controller, returning the
    /// modified spec.
    pub fn routing(mut self, routing: RoutingAlgorithm) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Sets the packetisation size, returning the modified spec.
    pub fn mtu(mut self, mtu: Bytes) -> Self {
        self.mtu = mtu;
        self
    }

    /// Sets the horizon, returning the modified spec.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the seed, returning the modified spec.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of sleds in the rack.
    pub fn nodes(&self) -> usize {
        self.topology.nodes
    }

    /// Generates this cell's flows (deterministic in `self.seed`).
    pub fn build_flows(&self) -> Vec<Flow> {
        let mut rng = DetRng::new(self.seed);
        self.workload.generate(self.nodes(), &mut rng)
    }

    /// Lowers the spec into the fabric configuration the core crate runs.
    pub fn to_fabric_config(&self) -> FabricConfig {
        let mut config = match self.controller {
            ControllerSpec::Baseline => FabricConfig::baseline(self.topology.clone()),
            ControllerSpec::Adaptive {
                policy,
                epoch,
                routing,
            } => {
                let mut c = FabricConfig::adaptive(self.topology.clone());
                c.crc.policy = policy;
                c.crc.epoch = epoch;
                c.routing = routing;
                c
            }
        };
        if let Some(routing) = self.routing {
            config.routing = routing;
        }
        config.upgrade_spec = self.upgrade.clone();
        config.lane_rate = self.lane_rate;
        config.switch = self.switch;
        config.port_buffer = self.port_buffer;
        config.plp_timing = self.plp_timing;
        config.mtu = self.mtu;
        config.train_window = self.train_window;
        config.stop_when_done = self.stop_when_done;
        config.sim = SimConfig::with_seed(self.seed)
            .horizon(self.horizon)
            .event_budget(self.event_budget);
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_override_beats_the_controller_default() {
        let spec = ScenarioSpec::new(
            "routing-override",
            TopologySpec::grid(3, 3, 1),
            WorkloadSpec::shuffle(Bytes::from_kib(8)),
        );
        // The adaptive controller lowers to MinCost; the override replaces it.
        let adaptive = spec.clone().routing(RoutingAlgorithm::Valiant);
        assert_eq!(
            adaptive.to_fabric_config().routing,
            RoutingAlgorithm::Valiant
        );
        // A baseline fabric has no controller to pick routing, but the
        // override still applies — static fabrics can run adaptive routing.
        let baseline = spec
            .controller(ControllerSpec::Baseline)
            .routing(RoutingAlgorithm::Adaptive);
        assert_eq!(
            baseline.to_fabric_config().routing,
            RoutingAlgorithm::Adaptive
        );
    }

    #[test]
    fn workload_load_scales_shuffle_partitions() {
        let base = WorkloadSpec::shuffle(Bytes::from_kib(8));
        let mut rng = DetRng::new(1);
        let light = base.clone().with_load(0.5).generate(4, &mut rng);
        let mut rng = DetRng::new(1);
        let heavy = base.with_load(2.0).generate(4, &mut rng);
        assert_eq!(light.len(), heavy.len());
        assert_eq!(light[0].size.as_u64() * 4, heavy[0].size.as_u64());
    }

    #[test]
    fn workload_load_scales_uniform_flow_count() {
        let base = WorkloadSpec::uniform(4.0, Bytes::from_kib(16));
        let mut rng = DetRng::new(2);
        let light = base.clone().with_load(0.25).generate(16, &mut rng);
        let mut rng = DetRng::new(2);
        let heavy = base.with_load(1.0).generate(16, &mut rng);
        assert_eq!(light.len(), 16);
        assert_eq!(heavy.len(), 64);
    }

    #[test]
    fn storage_workload_splits_the_rack() {
        let w = WorkloadSpec::Storage {
            ops_per_node: 2.0,
            io_size: Bytes::from_kib(64),
            read_fraction: 1.0,
            load: 1.0,
        };
        let mut rng = DetRng::new(3);
        let flows = w.generate(16, &mut rng);
        // Reads flow storage (12..16) -> compute (0..12).
        assert!(flows
            .iter()
            .all(|f| f.src.index() >= 12 && f.dst.index() < 12));
        assert_eq!(flows.len(), 24);
    }

    #[test]
    fn spec_lowers_to_the_expected_fabric_config() {
        let spec = ScenarioSpec::new(
            "unit",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        )
        .upgrade(TopologySpec::torus(3, 3, 1))
        .seed(77)
        .horizon(SimTime::from_millis(10))
        .mtu(Bytes::new(9000))
        .train_window(SimDuration::from_nanos(250));
        let config = spec.to_fabric_config();
        assert!(config.adaptive);
        assert_eq!(config.sim.seed, 77);
        assert_eq!(config.sim.horizon, SimTime::from_millis(10));
        assert_eq!(config.mtu, Bytes::new(9000));
        assert_eq!(config.train_window, SimDuration::from_nanos(250));
        assert_eq!(
            config.upgrade_spec.as_ref().unwrap().name,
            TopologySpec::torus(3, 3, 1).name
        );

        let baseline = spec.controller(ControllerSpec::Baseline).to_fabric_config();
        assert!(!baseline.adaptive);
    }

    #[test]
    fn flows_are_deterministic_in_the_seed() {
        let spec = ScenarioSpec::new(
            "det",
            TopologySpec::grid(4, 4, 2),
            WorkloadSpec::uniform(2.0, Bytes::from_kib(8)),
        )
        .seed(9);
        assert_eq!(spec.build_flows(), spec.build_flows());
        assert_ne!(spec.build_flows(), spec.clone().seed(10).build_flows());
    }

    /// FNV-1a, 64-bit, over one `id src dst size start_ps` line per flow.
    fn flow_digest(flows: &[Flow]) -> String {
        let text: String = flows
            .iter()
            .map(|f| {
                format!(
                    "{} {} {} {} {}\n",
                    f.id.0,
                    f.src.as_u32(),
                    f.dst.as_u32(),
                    f.size.as_u64(),
                    f.start_at.as_picos()
                )
            })
            .collect();
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }

    /// Pins the flows of one small spec of each workload kind: a change to
    /// the generators or to the order of their random draws moves a digest.
    #[test]
    fn build_flows_are_pinned_for_every_workload_kind() {
        let size = Bytes::from_kib(16);
        let cases = [
            WorkloadSpec::Shuffle {
                partition: size,
                load: 0.75,
            },
            WorkloadSpec::Incast {
                request: size,
                load: 1.5,
            },
            WorkloadSpec::Permutation { size, load: 0.5 },
            WorkloadSpec::Uniform {
                flows_per_node: 2.0,
                size,
                mean_interarrival: SimDuration::from_micros(2),
                load: 0.75,
            },
            WorkloadSpec::Hotspot {
                flows_per_node: 2.0,
                size,
                zipf_exponent: 1.2,
                load: 1.0,
            },
            WorkloadSpec::SingleFlow { size, load: 2.0 },
            WorkloadSpec::Storage {
                ops_per_node: 2.0,
                io_size: size,
                read_fraction: 0.5,
                load: 1.0,
            },
        ];
        let got: Vec<(String, usize, String)> = cases
            .into_iter()
            .map(|workload| {
                let spec = ScenarioSpec::new("pin", TopologySpec::grid(4, 4, 1), workload).seed(11);
                let flows = spec.build_flows();
                (spec.workload.label(), flows.len(), flow_digest(&flows))
            })
            .collect();
        let want = [
            ("shuffle", 240, "1fc1e8d1ed7522c7"),
            ("incast", 15, "e66efadb275ea0cd"),
            ("permutation", 16, "7966f28c79848b8d"),
            ("uniform", 24, "9a486f9eb191aac5"),
            ("hotspot", 32, "ab8fe5db0cdf73d8"),
            ("single-flow", 1, "a1f7b2c066e03a4f"),
            ("storage", 24, "f1562b449a4324f6"),
        ]
        .map(|(label, count, digest)| (label.to_string(), count, digest.to_string()));
        assert_eq!(got, want);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(WorkloadSpec::shuffle(Bytes::new(1)).label(), "shuffle");
        assert_eq!(FecSetting::Fixed(FecMode::Rs544).label(), "rs544");
        assert_eq!(ControllerSpec::Baseline.label(), "baseline");
        assert_eq!(ControllerSpec::adaptive_default().label(), "hybrid");
        assert_eq!(PhyPolicy::default().label(), "fec=default");
    }
}
