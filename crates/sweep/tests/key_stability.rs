//! Property tests for store-key stability — the contract the whole resume
//! story stands on: a job's [`job_key`] must be a pure function of the
//! *simulation input* and nothing else.
//!
//! * invariant under **axis-order permutation** of the matrix that produced
//!   the job (the key hashes the resolved spec, not the sweep structure),
//! * invariant under the proven result-neutral knobs: shard count (within
//!   the sharded engine), runner worker counts (which never touch the
//!   spec), and display names,
//! * distinct whenever a result-shaping field differs,
//! * unchanged by a round trip through the spec codec
//!   (`rackfabric_scenario::codec`): decoding a canonical form and encoding
//!   it again gives back its bytes, and so its key. The codec decodes in
//!   place; [`reference`] keeps the tree walk it replaced, and every
//!   generated form and its damaged variants must decode the same in both.

use proptest::prelude::*;
use rackfabric::policy::CrcPolicy;
use rackfabric_phy::{FecMode, MediaKind, PlpTiming, PowerState};
use rackfabric_scenario::codec::decode_spec;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::json;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::{EdgeSpec, LinkClass, TopologyKind, TopologySpec};
use rackfabric_topo::NodeId;
use std::collections::BTreeSet;

/// The sweep axes the properties permute, parameterised by a few drawn
/// values so every case explores a different matrix. The port-buffer axis
/// keeps the new physical-layer axes under the permutation property; the
/// routing axis keeps the policy override there too.
fn axes(rack_a: usize, load_a: f64, load_b: f64) -> Vec<(String, Vec<AxisValue>)> {
    vec![
        (
            "racks".into(),
            vec![
                AxisValue::Topology(TopologySpec::grid(rack_a, rack_a, 2)),
                AxisValue::Topology(TopologySpec::grid(rack_a + 1, rack_a, 2)),
            ],
        ),
        (
            "load".into(),
            vec![AxisValue::Load(load_a), AxisValue::Load(load_b)],
        ),
        (
            "controller".into(),
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        ),
        (
            "port_buffer".into(),
            vec![
                AxisValue::PortBuffer(Bytes::from_kib(64)),
                AxisValue::PortBuffer(Bytes::from_kib(256)),
            ],
        ),
        (
            "routing".into(),
            vec![
                AxisValue::Routing(RoutingAlgorithm::ShortestHop),
                AxisValue::Routing(RoutingAlgorithm::Valiant),
            ],
        ),
    ]
}

fn matrix_with_axes(axes: Vec<(String, Vec<AxisValue>)>, seed: u64) -> Matrix {
    let base = ScenarioSpec::new(
        "key-stability",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .horizon(SimTime::from_millis(10));
    let mut matrix = Matrix::new(base).replicates(2).master_seed(seed);
    for (name, values) in axes {
        matrix = matrix.axis(name, values);
    }
    matrix
}

/// The set of job keys a matrix expands to. Seeds are position-dependent in
/// `Matrix::expand`, so permuted matrices are compared with seeds
/// normalised out (the permutation property is about the *spec content*).
fn key_set(matrix: &Matrix) -> BTreeSet<JobKey> {
    matrix
        .expand()
        .into_iter()
        .map(|job| {
            let mut spec = job.spec;
            spec.seed = 1;
            job_key(&spec)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn keys_are_invariant_under_axis_order_permutation(
        rack_a in 2usize..4,
        load_a in 0.25f64..1.0,
        load_b in 1.0f64..2.0,
        seed in 1u64..1000,
        rotation in 0usize..8,
    ) {
        let base_axes = axes(rack_a, load_a, load_b);
        let mut permuted = base_axes.clone();
        // Cycle through a deterministic permutation schedule: rotate and
        // optionally swap, covering a spread of the 5! orders across cases.
        permuted.rotate_left(rotation % 5);
        if rotation >= 4 {
            permuted.swap(0, 1);
        }
        let a = matrix_with_axes(base_axes, seed);
        let b = matrix_with_axes(permuted, seed);
        prop_assert_eq!(key_set(&a), key_set(&b));
    }

    #[test]
    fn keys_ignore_result_neutral_knobs(
        rack in 2usize..5,
        load in 0.25f64..2.0,
        seed in 1u64..10_000,
        shards in 1usize..6,
        other_shards in 1usize..6,
    ) {
        let mut spec = ScenarioSpec::new(
            "neutral-knobs",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        spec.workload = spec.workload.clone().with_load(load);

        // Any two shard counts >= 1 are result-identical.
        prop_assert_eq!(
            job_key(&spec.clone().shards(shards)),
            job_key(&spec.clone().shards(other_shards))
        );
        // ... but the monolithic engine is a different model.
        prop_assert_ne!(job_key(&spec), job_key(&spec.clone().shards(shards)));
        // Campaign names are labels.
        let mut renamed = spec.clone();
        renamed.name = "a-different-campaign".into();
        prop_assert_eq!(job_key(&spec), job_key(&renamed));
    }

    #[test]
    fn keys_separate_result_shaping_fields(
        rack in 2usize..5,
        seed in 1u64..10_000,
        mtu in 600u64..9000,
    ) {
        let spec = ScenarioSpec::new(
            "shaping-fields",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let key = job_key(&spec);
        prop_assert_ne!(key, job_key(&spec.clone().seed(seed + 1)));
        prop_assert_ne!(key, job_key(&spec.clone().mtu(Bytes::new(mtu + 9001))));
        prop_assert_ne!(
            key,
            job_key(&spec.clone().train_window(SimDuration::from_nanos(137)))
        );
        prop_assert_ne!(
            key,
            job_key(&spec.clone().controller(ControllerSpec::Baseline))
        );
    }

    /// The three new physical-layer axes must change the key — a value that
    /// silently hashed to the same key would make the store return stale
    /// results for a genuinely different simulation input.
    #[test]
    fn physical_layer_axes_are_not_silently_result_neutral(
        rack in 2usize..5,
        seed in 1u64..10_000,
        buf_kib in 1u64..1024,
        pipeline_extra_ns in 1u64..600,
        plp_scale in 2u32..50,
    ) {
        let spec = ScenarioSpec::new(
            "physical-axes",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let key = job_key(&spec);

        // SwitchModel: discipline and pipeline latency are both keyed.
        prop_assert_ne!(
            key,
            job_key(&spec.clone().switch_model(SwitchModel::store_and_forward()))
        );
        // 400 ns is the default pipeline; the offset keeps the drawn value
        // distinct from it.
        let pipeline = SimDuration::from_nanos(400 + pipeline_extra_ns);
        prop_assert_ne!(
            key,
            job_key(&spec.clone().switch_model(SwitchModel::with_pipeline(pipeline)))
        );

        // PortBuffer: the odd byte count can never equal the 256 KiB default.
        let buffer = Bytes::new(buf_kib * 1024 + 1);
        let buffered = job_key(&spec.clone().port_buffer(buffer));
        prop_assert_ne!(key, buffered);
        // ... and two different buffer values key apart from each other.
        prop_assert_ne!(
            buffered,
            job_key(&spec.clone().port_buffer(Bytes::new(buf_kib * 1024 + 2)))
        );

        // PlpTiming: a scaled table is a different reconfiguration-cost
        // regime.
        prop_assert_ne!(
            key,
            job_key(&spec.clone().plp_timing(PlpTiming::default().scaled(plp_scale as f64)))
        );

        // Bypass chains are simulation input too.
        let mut bypassed = spec.clone();
        bypassed.phy.bypassed_nodes = 1;
        prop_assert_ne!(key, job_key(&bypassed));
    }

    /// Every pair of distinct routing-policy overrides must key apart, and
    /// every override must key apart from "no override" — a Valiant cell
    /// resolving to a cached minimal-routing record would silently return
    /// the wrong simulation.
    #[test]
    fn distinct_routing_policies_get_distinct_keys(
        groups in 3usize..6,
        seed in 1u64..10_000,
    ) {
        let spec = ScenarioSpec::new(
            "routing-keys",
            TopologySpec::dragonfly(groups, 2, 2, 1),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let policies = [
            RoutingAlgorithm::ShortestHop,
            RoutingAlgorithm::MinCost,
            RoutingAlgorithm::Ecmp,
            RoutingAlgorithm::DimensionOrdered,
            RoutingAlgorithm::Valiant,
            RoutingAlgorithm::Adaptive,
        ];
        let keys: Vec<JobKey> = policies
            .iter()
            .map(|&r| job_key(&spec.clone().routing(r)))
            .collect();
        let unique: BTreeSet<JobKey> = keys.iter().copied().collect();
        prop_assert_eq!(unique.len(), policies.len());
        // `None` (controller default) is its own point in key space.
        prop_assert!(!unique.contains(&job_key(&spec)));
    }

    /// Every result-shaping field the properties above leave out changes
    /// the key on its own, and no two of these edits share a key: a field
    /// the key ignored would let the store serve one simulation's result
    /// for another.
    #[test]
    fn every_other_result_shaping_field_changes_the_key(
        seed in 1u64..10_000,
        bump in 1u64..1_000,
        load in 0.25f64..0.75,
        lanes in 1usize..8,
        event_budget in 1u64..u64::MAX,
    ) {
        let base = ScenarioSpec::new(
            "field-changes",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let edited = |edit: &dyn Fn(&mut ScenarioSpec)| {
            let mut spec = base.clone();
            edit(&mut spec);
            spec
        };
        let mut edits: Vec<(String, ScenarioSpec)> = vec![
            ("upgrade".into(), edited(&|s| s.upgrade = Some(TopologySpec::torus(3, 3, 1)))),
            (
                "lane_rate".into(),
                edited(&|s| s.lane_rate = BitRate::from_bps(s.lane_rate.as_bps() + bump)),
            ),
            (
                "horizon".into(),
                edited(&|s| s.horizon = SimTime::from_picos(s.horizon.as_picos() + bump)),
            ),
            ("event_budget".into(), edited(&|s| s.event_budget = event_budget)),
            ("stop_when_done".into(), edited(&|s| s.stop_when_done = false)),
            ("phy.lanes".into(), edited(&|s| s.phy.active_lanes = Some(lanes))),
        ];
        for power in [PowerState::LowPower, PowerState::Off] {
            edits.push((format!("phy.power {power:?}"), edited(&|s| s.phy.power = power)));
        }
        for mode in [FecMode::None, FecMode::FireCode, FecMode::Rs528, FecMode::Rs544] {
            edits.push((
                format!("phy.fec {mode:?}"),
                edited(&|s| s.phy.fec = FecSetting::Fixed(mode)),
            ));
        }
        for (field, workload) in workload_edits(load, bump) {
            edits.push((field.into(), edited(&|s| s.workload = workload.clone())));
        }
        for (field, controller) in controller_edits(bump) {
            edits.push((field.into(), edited(&|s| s.controller = controller)));
        }

        let mut seen = BTreeSet::from([job_key(&base)]);
        for (field, spec) in &edits {
            prop_assert!(seen.insert(job_key(spec)), "changing {} left a key unchanged", field);
        }
    }
}

/// `variants!(T: A, B)` lists every variant of the field-less enum `T`. The
/// exhaustive `match` stops compiling when `T` gains a variant the list
/// does not name; once it is listed, the round-trip property below draws
/// it, and encoding panics until the codec's wire table names it too.
macro_rules! variants {
    ($t:ident: $($v:ident),+) => {{
        fn listed(value: $t) -> $t {
            match value {
                $($t::$v)|+ => value,
            }
        }
        [$(listed($t::$v)),+]
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding a spec's canonical form and encoding it again gives back the
    /// same bytes, and so the same key. The drawn specs reach every variant
    /// of the field-less enums, every workload kind, both controllers and
    /// every CRC policy, with numbers across their whole range. The
    /// in-place decoder reads the form, and damaged variants of it, as the
    /// tree walk it replaced did.
    #[test]
    fn decoding_the_canonical_form_gives_back_its_bytes_and_key(
        topology_kind in 0usize..1_000,
        upgrade_kind in 0usize..1_000,
        edge_seed in 0u64..u64::MAX,
        edges in 0usize..6,
        routing in 0usize..1_000,
        controller in 0usize..5,
        controller_routing in 0usize..1_000,
        budget_mw in 0u64..u64::MAX,
        epoch_ps in 0u64..u64::MAX,
        fec in 0usize..1_000,
        power in 0usize..1_000,
        lanes in 0usize..9,
        bypassed_nodes in 0usize..4,
        switch in 0usize..1_000,
        pipeline_ps in 0u64..u64::MAX,
        workload in 0usize..7,
        bytes in 0u64..u64::MAX,
        load in 0.0f64..4.0,
        fraction in 0.0f64..1.0,
        picos in 0u64..u64::MAX,
        lane_rate_bps in 0u64..u64::MAX,
        port_buffer in 0u64..u64::MAX,
        plp_scale in 0.0f64..50.0,
        mtu in 0u64..u64::MAX,
        train_window_ps in 0u64..u64::MAX,
        horizon_ps in 0u64..u64::MAX,
        event_budget in 0u64..u64::MAX,
        stop_when_done in 0usize..2,
        shards in 0usize..4,
        seed in 0u64..u64::MAX,
        damage in 0u64..u64::MAX,
    ) {
        let topology_kinds =
            variants!(TopologyKind: Line, Ring, Grid, Torus, Hypercube, FatTree, Dragonfly);
        let media = variants!(MediaKind: CopperDac, OpticalFiber, Backplane);
        let classes = variants!(LinkClass: IntraRack, InterRack);
        let routings =
            variants!(RoutingAlgorithm: ShortestHop, MinCost, Ecmp, DimensionOrdered, Valiant, Adaptive);
        let fec_modes = variants!(FecMode: None, FireCode, Rs528, Rs544);
        let powers = variants!(PowerState: Active, LowPower, Off);
        let switches = variants!(SwitchKind: CutThrough, StoreAndForward);

        // An edge list has no fixed length, so its fields come from a
        // generator seeded by the drawn `edge_seed`.
        let mut rng = DetRng::new(edge_seed);
        let mut topology = |kind: TopologyKind| TopologySpec {
            name: "drawn".into(),
            kind,
            nodes: rng.index(1 << 20),
            edges: (0..edges)
                .map(|_| EdgeSpec {
                    a: NodeId(rng.next_u64() as u32),
                    b: NodeId(rng.next_u64() as u32),
                    lanes: rng.index(64),
                    length: Length::from_mm(rng.next_u64()),
                    media: media[rng.index(media.len())],
                    class: classes[rng.index(classes.len())],
                })
                .collect(),
            dims: rng.chance(0.5).then(|| (rng.index(64), rng.index(64))),
        };
        let size = Bytes::new(bytes);
        let workloads = [
            WorkloadSpec::Shuffle { partition: size, load },
            WorkloadSpec::Incast { request: size, load },
            WorkloadSpec::Permutation { size, load },
            WorkloadSpec::SingleFlow { size, load },
            WorkloadSpec::Uniform {
                flows_per_node: load * 3.0,
                size,
                mean_interarrival: SimDuration::from_picos(picos),
                load,
            },
            WorkloadSpec::Hotspot {
                flows_per_node: load * 3.0,
                size,
                zipf_exponent: fraction * 2.0,
                load,
            },
            WorkloadSpec::Storage {
                ops_per_node: load * 3.0,
                io_size: size,
                read_fraction: fraction,
                load,
            },
        ];
        let budget = Power::from_milliwatts(budget_mw);
        let policies = [
            CrcPolicy::LatencyMinimize,
            CrcPolicy::CongestionBalance,
            CrcPolicy::PowerCap { budget },
            CrcPolicy::Hybrid { budget },
        ];

        let mut spec = ScenarioSpec::new(
            "round-trip",
            topology(topology_kinds[topology_kind % topology_kinds.len()]),
            workloads[workload].clone(),
        );
        // One index past each list draws `None`.
        spec.upgrade = topology_kinds
            .get(upgrade_kind % (topology_kinds.len() + 1))
            .map(|&kind| topology(kind));
        spec.routing = routings.get(routing % (routings.len() + 1)).copied();
        spec.controller = match controller {
            0 => ControllerSpec::Baseline,
            i => ControllerSpec::Adaptive {
                policy: policies[i - 1],
                epoch: SimDuration::from_picos(epoch_ps),
                routing: routings[controller_routing % routings.len()],
            },
        };
        spec.phy = PhyPolicy {
            fec: fec_modes
                .get(fec % (fec_modes.len() + 1))
                .map_or(FecSetting::Default, |&mode| FecSetting::Fixed(mode)),
            active_lanes: (lanes > 0).then_some(lanes),
            power: powers[power % powers.len()],
            bypassed_nodes,
        };
        spec.switch = SwitchModel {
            kind: switches[switch % switches.len()],
            pipeline_latency: SimDuration::from_picos(pipeline_ps),
        };
        spec.lane_rate = BitRate::from_bps(lane_rate_bps);
        spec.port_buffer = Bytes::new(port_buffer);
        spec.plp_timing = PlpTiming::default().scaled(plp_scale);
        spec.mtu = Bytes::new(mtu);
        spec.train_window = SimDuration::from_picos(train_window_ps);
        spec.horizon = SimTime::from_picos(horizon_ps);
        spec.event_budget = event_budget;
        spec.stop_when_done = stop_when_done == 1;
        spec.seed = seed;
        spec.shards = shards;

        let canonical = canonical_spec_json(&spec);
        let decoded = decode_spec(&canonical).unwrap_or_else(|e| panic!("{e}: {canonical}"));
        prop_assert_eq!(canonical_spec_json(&decoded), canonical);
        prop_assert_eq!(job_key(&decoded), job_key(&spec));
        prop_assert_eq!(Ok(decoded), reference::decode_spec(&canonical));
        for variant in sampled_damage(&canonical, damage, 24) {
            let _ = decodes_as_the_tree_walk(&variant);
        }
    }
}

/// The spec decoder before it read specs in place: [`json::parse`] the
/// whole document, then walk the tree. The in-place decoder must return
/// what this one returns for every text: the same spec, or the same error.
mod reference {
    use super::*;
    use rackfabric_sim::json::{self, JsonValue};

    /// A field-less enum's wire names, as the codec's own table lists them.
    trait WireName: Copy + 'static {
        const WHAT: &'static str;
        const NAMES: &'static [(&'static str, Self)];
    }

    fn from_wire<T: WireName>(name: &str) -> Result<T, String> {
        let variant = T::NAMES.iter().find(|(n, _)| *n == name).map(|e| e.1);
        variant.ok_or_else(|| format!("unknown {} {name:?}", T::WHAT))
    }

    macro_rules! wire_names {
        ($($t:ty, $what:literal: [$(($name:literal, $v:expr)),+ $(,)?];)+) => {$(
            impl WireName for $t {
                const WHAT: &'static str = $what;
                const NAMES: &'static [(&'static str, Self)] = &[$(($name, $v)),+];
            }
        )+};
    }

    wire_names! {
        RoutingAlgorithm, "routing algorithm": [
            ("ShortestHop", RoutingAlgorithm::ShortestHop),
            ("MinCost", RoutingAlgorithm::MinCost),
            ("Ecmp", RoutingAlgorithm::Ecmp),
            ("DimensionOrdered", RoutingAlgorithm::DimensionOrdered),
            ("Valiant", RoutingAlgorithm::Valiant),
            ("Adaptive", RoutingAlgorithm::Adaptive),
        ];
        FecSetting, "fec setting": [
            ("default", FecSetting::Default),
            ("none", FecSetting::Fixed(FecMode::None)),
            ("firecode", FecSetting::Fixed(FecMode::FireCode)),
            ("rs528", FecSetting::Fixed(FecMode::Rs528)),
            ("rs544", FecSetting::Fixed(FecMode::Rs544)),
        ];
        PowerState, "power state": [
            ("active", PowerState::Active),
            ("low_power", PowerState::LowPower),
            ("off", PowerState::Off),
        ];
        SwitchKind, "switch kind": [
            ("cut_through", SwitchKind::CutThrough),
            ("store_and_forward", SwitchKind::StoreAndForward),
        ];
        TopologyKind, "topology kind": [
            ("Line", TopologyKind::Line),
            ("Ring", TopologyKind::Ring),
            ("Grid", TopologyKind::Grid),
            ("Torus", TopologyKind::Torus),
            ("Hypercube", TopologyKind::Hypercube),
            ("FatTree", TopologyKind::FatTree),
            ("Dragonfly", TopologyKind::Dragonfly),
        ];
        MediaKind, "media kind": [
            ("CopperDac", MediaKind::CopperDac),
            ("OpticalFiber", MediaKind::OpticalFiber),
            ("Backplane", MediaKind::Backplane),
        ];
        LinkClass, "link class": [
            ("IntraRack", LinkClass::IntraRack),
            ("InterRack", LinkClass::InterRack),
        ];
    }

    /// The spec `spec_json` holds, or the first thing wrong with it.
    pub fn decode_spec(spec_json: &str) -> Result<ScenarioSpec, String> {
        let doc = json::parse(spec_json).map_err(|e| format!("spec json: {e}"))?;
        let topology = decode_topology(field(&doc, "topology")?)?;
        let workload = decode_workload(field(&doc, "workload")?)?;
        let mut spec = ScenarioSpec::new("replayed", topology, workload);

        spec.upgrade = match field(&doc, "upgrade")? {
            JsonValue::Null => None,
            t => Some(decode_topology(t)?),
        };
        spec.controller = decode_controller(field(&doc, "controller")?)?;
        spec.shards = match str_field(&doc, "engine")? {
            "monolithic" => 0,
            "sharded" => 1,
            other => return Err(format!("unknown engine kind {other:?}")),
        };
        spec.event_budget = uint_field(&doc, "event_budget")?;
        spec.horizon = SimTime::from_picos(uint_field(&doc, "horizon_ps")?);
        spec.lane_rate = BitRate::from_bps(uint_field(&doc, "lane_rate_bps")?);
        spec.mtu = Bytes::new(uint_field(&doc, "mtu_bytes")?);
        spec.port_buffer = Bytes::new(uint_field(&doc, "port_buffer_bytes")?);
        spec.seed = uint_field(&doc, "seed")?;
        spec.stop_when_done = field(&doc, "stop_when_done")?
            .as_bool()
            .ok_or("stop_when_done: not a bool")?;
        spec.train_window = SimDuration::from_picos(uint_field(&doc, "train_window_ps")?);
        spec.routing = match str_field(&doc, "routing")? {
            "controller-default" => None,
            name => Some(from_wire(name)?),
        };
        spec.phy = decode_phy(field(&doc, "phy")?)?;
        spec.plp_timing = decode_plp_timing(field(&doc, "plp_timing")?)?;
        spec.switch = decode_switch(field(&doc, "switch")?)?;
        Ok(spec)
    }

    fn decode_phy(doc: &JsonValue) -> Result<PhyPolicy, String> {
        Ok(PhyPolicy {
            bypassed_nodes: uint_field(doc, "bypassed_nodes")? as usize,
            fec: from_wire(str_field(doc, "fec")?)?,
            active_lanes: match field(doc, "lanes")? {
                JsonValue::Null => None,
                n => Some(n.as_u64().ok_or("phy.lanes: not a number")? as usize),
            },
            power: from_wire(str_field(doc, "power")?)?,
        })
    }

    fn decode_plp_timing(doc: &JsonValue) -> Result<PlpTiming, String> {
        let ps = |name: &str| uint_field(doc, name).map(SimDuration::from_picos);
        Ok(PlpTiming {
            split: ps("split_ps")?,
            bundle: ps("bundle_ps")?,
            move_lanes: ps("move_lanes_ps")?,
            set_active_lanes: ps("set_active_lanes_ps")?,
            set_power: ps("set_power_ps")?,
            set_fec: ps("set_fec_ps")?,
            bypass: ps("bypass_ps")?,
        })
    }

    fn decode_switch(doc: &JsonValue) -> Result<SwitchModel, String> {
        Ok(SwitchModel {
            kind: from_wire(str_field(doc, "kind")?)?,
            pipeline_latency: SimDuration::from_picos(uint_field(doc, "pipeline_ps")?),
        })
    }

    fn decode_topology(doc: &JsonValue) -> Result<TopologySpec, String> {
        let kind = from_wire(str_field(doc, "kind")?)?;
        let dims = match field(doc, "dims")? {
            JsonValue::Null => None,
            d => match d.as_array().ok_or("dims: not an array")? {
                [rows, cols] => Some((
                    rows.as_u64().ok_or("dims[0]: not a u64")? as usize,
                    cols.as_u64().ok_or("dims[1]: not a u64")? as usize,
                )),
                _ => return Err("dims: expected [rows, cols]".into()),
            },
        };
        let edges = field(doc, "edges")?
            .as_array()
            .ok_or("edges: not an array")?
            .iter()
            .enumerate()
            .map(|(i, edge)| decode_edge(i, edge))
            .collect::<Result<Vec<EdgeSpec>, String>>()?;
        Ok(TopologySpec {
            // Display names are key-excluded; replayed topologies get a marker.
            name: "replayed".into(),
            kind,
            nodes: uint_field(doc, "nodes")? as usize,
            edges,
            dims,
        })
    }

    /// Decodes edge number `index` of a topology's edge list.
    fn decode_edge(index: usize, doc: &JsonValue) -> Result<EdgeSpec, String> {
        let parts = doc.as_array().ok_or("edge: not an array")?;
        if parts.len() != 6 {
            return Err(format!("edge: expected 6 fields, got {}", parts.len()));
        }
        let num = |i: usize| -> Result<u64, String> {
            parts[i]
                .as_u64()
                .ok_or_else(|| format!("edge[{i}]: not a u64"))
        };
        let text = |i: usize| -> Result<&str, String> {
            parts[i]
                .as_str()
                .ok_or_else(|| format!("edge[{i}]: not a string"))
        };
        // Requests reach this decoder from untrusted lines: an endpoint past
        // `u32::MAX` is an error, never a truncated (different) node.
        let node = |i: usize| -> Result<NodeId, String> {
            let n = num(i)?;
            u32::try_from(n)
                .map(NodeId)
                .map_err(|_| format!("edges[{index}]: node {n} does not fit a u32 node id"))
        };
        Ok(EdgeSpec {
            a: node(0)?,
            b: node(1)?,
            lanes: num(2)? as usize,
            length: Length::from_mm(num(3)?),
            media: from_wire(text(4)?)?,
            class: from_wire(text(5)?)?,
        })
    }

    fn decode_controller(doc: &JsonValue) -> Result<ControllerSpec, String> {
        match str_field(doc, "kind")? {
            "baseline" => Ok(ControllerSpec::Baseline),
            "adaptive" => Ok(ControllerSpec::Adaptive {
                policy: decode_policy(field(doc, "policy")?)?,
                epoch: SimDuration::from_picos(uint_field(doc, "epoch_ps")?),
                routing: from_wire(str_field(doc, "routing")?)?,
            }),
            other => Err(format!("unknown controller kind {other:?}")),
        }
    }

    fn decode_policy(doc: &JsonValue) -> Result<CrcPolicy, String> {
        let budget = || uint_field(doc, "budget_mw").map(Power::from_milliwatts);
        Ok(match str_field(doc, "kind")? {
            "latency_minimize" => CrcPolicy::LatencyMinimize,
            "congestion_balance" => CrcPolicy::CongestionBalance,
            "power_cap" => CrcPolicy::PowerCap { budget: budget()? },
            "hybrid" => CrcPolicy::Hybrid { budget: budget()? },
            other => return Err(format!("unknown crc policy {other:?}")),
        })
    }

    fn decode_workload(doc: &JsonValue) -> Result<WorkloadSpec, String> {
        let load = float_field(doc, "load")?;
        Ok(match str_field(doc, "kind")? {
            "shuffle" => WorkloadSpec::Shuffle {
                partition: Bytes::new(uint_field(doc, "partition_bytes")?),
                load,
            },
            "incast" => WorkloadSpec::Incast {
                request: Bytes::new(uint_field(doc, "request_bytes")?),
                load,
            },
            "permutation" => WorkloadSpec::Permutation {
                size: Bytes::new(uint_field(doc, "size_bytes")?),
                load,
            },
            "single_flow" => WorkloadSpec::SingleFlow {
                size: Bytes::new(uint_field(doc, "size_bytes")?),
                load,
            },
            "uniform" => WorkloadSpec::Uniform {
                flows_per_node: float_field(doc, "flows_per_node")?,
                size: Bytes::new(uint_field(doc, "size_bytes")?),
                mean_interarrival: SimDuration::from_picos(uint_field(
                    doc,
                    "mean_interarrival_ps",
                )?),
                load,
            },
            "hotspot" => WorkloadSpec::Hotspot {
                flows_per_node: float_field(doc, "flows_per_node")?,
                size: Bytes::new(uint_field(doc, "size_bytes")?),
                zipf_exponent: float_field(doc, "zipf_exponent")?,
                load,
            },
            "storage" => WorkloadSpec::Storage {
                ops_per_node: float_field(doc, "ops_per_node")?,
                io_size: Bytes::new(uint_field(doc, "io_size_bytes")?),
                read_fraction: float_field(doc, "read_fraction")?,
                load,
            },
            other => return Err(format!("unknown workload kind {other:?}")),
        })
    }

    fn field<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
        doc.get(name)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    fn str_field<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a str, String> {
        field(doc, name)?
            .as_str()
            .ok_or_else(|| format!("{name}: not a string"))
    }

    fn uint_field(doc: &JsonValue, name: &str) -> Result<u64, String> {
        field(doc, name)?
            .as_u64()
            .ok_or_else(|| format!("{name}: not a u64"))
    }

    fn float_field(doc: &JsonValue, name: &str) -> Result<f64, String> {
        field(doc, name)?
            .as_f64()
            .ok_or_else(|| format!("{name}: not a number"))
    }
}
/// Characters that mean something to the JSON grammar, and one that does
/// not.
const GRAMMAR: [char; 16] = [
    '"', ',', ':', '[', ']', '{', '}', '0', '9', '-', '.', 'e', 'n', '\\', ' ', 'x',
];

/// A value of each kind, and numbers just past what a `u32` node id and a
/// `u64` hold, to put where a spec's field holds something else.
const WRONG: [&str; 12] = [
    "null",
    "false",
    "0",
    "4294967296",
    "18446744073709551616",
    "-1",
    "2.5",
    "\"x\"",
    "\"Grid\"",
    "[]",
    "[1,2]",
    "{}",
];

/// Asserts that the in-place decoder returns for `text` what the tree walk
/// returns, and returns it.
fn decodes_as_the_tree_walk(text: &str) -> Result<ScenarioSpec, String> {
    let decoded = decode_spec(text);
    assert_eq!(decoded, reference::decode_spec(text), "{text}");
    decoded
}

/// `text` cut before its character at byte `at`, and that character
/// replaced by `with`.
fn text_damage(text: &str, at: usize, with: char) -> [String; 2] {
    let len = text[at..].chars().next().map_or(0, char::len_utf8);
    let mut replaced = text.to_string();
    replaced.replace_range(at..at + len, &with.to_string());
    [text[..at].to_string(), replaced]
}

/// The path of every value inside `doc`: indices into objects' fields and
/// arrays' items, outermost first.
fn value_paths(doc: &json::JsonValue, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&json::JsonValue> = match doc {
        json::JsonValue::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        json::JsonValue::Array(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        out.push(path.clone());
        value_paths(child, path, out);
        path.pop();
    }
}

/// The object or array holding the value at `path`.
fn parent_at<'a>(doc: &'a mut json::JsonValue, path: &[usize]) -> &'a mut json::JsonValue {
    path[..path.len() - 1]
        .iter()
        .fold(doc, |value, &i| match value {
            json::JsonValue::Object(fields) => &mut fields[i].1,
            json::JsonValue::Array(items) => &mut items[i],
            _ => unreachable!("a path runs through objects and arrays"),
        })
}

/// `doc` with its fields in reverse order and whitespace between tokens:
/// the same document to a decoder that looks fields up by name.
fn reversed(doc: &json::JsonValue) -> String {
    match doc {
        json::JsonValue::Object(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .rev()
                .map(|(name, value)| {
                    format!(
                        "{} : {}",
                        json::canonical(&json::string(name)),
                        reversed(value)
                    )
                })
                .collect();
            format!("{{ {} }}", fields.join(" , "))
        }
        json::JsonValue::Array(items) => {
            let items: Vec<String> = items.iter().map(reversed).collect();
            format!("[ {} ]", items.join(" , "))
        }
        scalar => json::canonical(scalar),
    }
}

/// The spec document `doc` damaged at the value at `path`: that value
/// replaced by `wrong`, removed, and, in an object, shadowed by an earlier
/// field of the same name holding `wrong` and shadowing a later one. Each
/// variant is rendered canonically and reversed.
fn tree_damage(doc: &json::JsonValue, path: &[usize], wrong: &str) -> Vec<String> {
    let wrong = json::parse(wrong).expect("WRONG holds JSON values");
    let last = path[path.len() - 1];
    let mut variants = Vec::new();
    let mut edited = |edit: &dyn Fn(&mut json::JsonValue)| {
        let mut copy = doc.clone();
        edit(parent_at(&mut copy, path));
        variants.push(json::canonical(&copy));
        variants.push(reversed(&copy));
    };
    edited(&|parent| match parent {
        json::JsonValue::Object(fields) => fields[last].1 = wrong.clone(),
        json::JsonValue::Array(items) => items[last] = wrong.clone(),
        _ => unreachable!(),
    });
    edited(&|parent| match parent {
        json::JsonValue::Object(fields) => drop(fields.remove(last)),
        json::JsonValue::Array(items) => drop(items.remove(last)),
        _ => unreachable!(),
    });
    for at in [last, last + 1] {
        edited(&|parent| {
            if let json::JsonValue::Object(fields) = parent {
                let name = fields[last].0.clone();
                fields.insert(at, (name, wrong.clone()));
            }
        });
    }
    variants
}

/// The spec document `doc` with the values at `paths` replaced by `wrong`:
/// several wrong fields, for the decoders to agree on which one to report.
fn multi_damage(doc: &json::JsonValue, paths: &[&[usize]], wrong: &str) -> String {
    let wrong = json::parse(wrong).expect("WRONG holds JSON values");
    let mut copy = doc.clone();
    // Deeper paths first: replacing an ancestor first could remove them.
    let mut paths = paths.to_vec();
    paths.sort_by_key(|path| std::cmp::Reverse(path.len()));
    for path in paths {
        let last = path[path.len() - 1];
        match parent_at(&mut copy, path) {
            json::JsonValue::Object(fields) => fields[last].1 = wrong.clone(),
            json::JsonValue::Array(items) => items[last] = wrong.clone(),
            _ => unreachable!(),
        }
    }
    json::canonical(&copy)
}

/// `count` damaged variants of the canonical spec `text`, drawn by `seed`.
fn sampled_damage(text: &str, seed: u64, count: usize) -> Vec<String> {
    let doc = json::parse(text).expect("a canonical spec is JSON");
    let mut paths = Vec::new();
    value_paths(&doc, &mut Vec::new(), &mut paths);
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    let mut rng = DetRng::new(seed);
    let mut variants = Vec::new();
    while variants.len() < count {
        if rng.chance(0.5) {
            let at = boundaries[rng.index(boundaries.len())];
            variants.extend(text_damage(text, at, GRAMMAR[rng.index(GRAMMAR.len())]));
        } else if rng.chance(0.3) {
            let pick: Vec<&[usize]> = (0..3)
                .map(|_| paths[rng.index(paths.len())].as_slice())
                .collect();
            variants.push(multi_damage(&doc, &pick, WRONG[rng.index(WRONG.len())]));
        } else {
            let path = &paths[rng.index(paths.len())];
            variants.extend(tree_damage(&doc, path, WRONG[rng.index(WRONG.len())]));
        }
    }
    variants
}

/// Each pinned spec's canonical form cut at every eighth character, that
/// character replaced, every eighth value replaced, removed, shadowed and
/// shadowing, in canonical and reversed renderings, and every pair of its
/// top-level fields and all of them at once made wrong: the in-place
/// decoder returns what the tree walk returned for every variant, and the
/// variants reach intact specs, JSON errors and many distinct field errors.
#[test]
fn damaged_specs_decode_as_the_tree_walk_decoded_them() {
    let (mut intact, mut not_json) = (0, 0);
    let mut faults = BTreeSet::new();
    for (n, (spec, _)) in pinned_specs().into_iter().enumerate() {
        let text = canonical_spec_json(&spec);
        let doc = json::parse(&text).unwrap();
        let mut variants = vec![reversed(&doc)];
        for (i, (at, _)) in text.char_indices().enumerate().step_by(8) {
            variants.extend(text_damage(&text, at, GRAMMAR[(i * 7 + n) % GRAMMAR.len()]));
        }
        let mut paths = Vec::new();
        value_paths(&doc, &mut Vec::new(), &mut paths);
        for (i, path) in paths.iter().enumerate().step_by(8) {
            variants.extend(tree_damage(&doc, path, WRONG[(i * 5 + n) % WRONG.len()]));
        }
        // Every top-level field wrong at once, and each pair of them.
        let top: Vec<Vec<usize>> = paths.iter().filter(|p| p.len() == 1).cloned().collect();
        for (i, a) in top.iter().enumerate() {
            for b in &top[i + 1..] {
                variants.push(multi_damage(&doc, &[a, b], WRONG[(i + n) % WRONG.len()]));
            }
        }
        let all: Vec<&[usize]> = top.iter().map(Vec::as_slice).collect();
        variants.push(multi_damage(&doc, &all, "[]"));
        for variant in &variants {
            match decodes_as_the_tree_walk(variant) {
                Ok(_) => intact += 1,
                Err(e) if e.starts_with("spec json: ") => not_json += 1,
                Err(e) => {
                    faults.insert(e);
                }
            }
        }
    }
    assert!(
        intact > 0 && not_json > 0 && faults.len() > 100,
        "{intact} intact, {not_json} not JSON, {} distinct faults",
        faults.len()
    );
}

/// Every workload kind at `load`, then the same kind with one parameter
/// changed, for each of its parameters.
fn workload_edits(load: f64, bump: u64) -> Vec<(&'static str, WorkloadSpec)> {
    let shuffle = |partition, load| WorkloadSpec::Shuffle { partition, load };
    let incast = |request, load| WorkloadSpec::Incast { request, load };
    let permutation = |size, load| WorkloadSpec::Permutation { size, load };
    let single_flow = |size, load| WorkloadSpec::SingleFlow { size, load };
    let uniform = |flows_per_node, size, mean_interarrival, load| WorkloadSpec::Uniform {
        flows_per_node,
        size,
        mean_interarrival,
        load,
    };
    let hotspot = |flows_per_node, size, zipf_exponent, load| WorkloadSpec::Hotspot {
        flows_per_node,
        size,
        zipf_exponent,
        load,
    };
    let storage = |ops_per_node, io_size, read_fraction, load| WorkloadSpec::Storage {
        ops_per_node,
        io_size,
        read_fraction,
        load,
    };
    let (size, bigger, more) = (Bytes::from_kib(4), Bytes::new(4096 + bump), load + 0.5);
    let gap = SimDuration::from_nanos(500);
    let later = SimDuration::from_picos(gap.as_picos() + bump);
    vec![
        ("shuffle", shuffle(size, load)),
        ("shuffle.partition", shuffle(bigger, load)),
        ("shuffle.load", shuffle(size, more)),
        ("incast", incast(size, load)),
        ("incast.request", incast(bigger, load)),
        ("incast.load", incast(size, more)),
        ("permutation", permutation(size, load)),
        ("permutation.size", permutation(bigger, load)),
        ("permutation.load", permutation(size, more)),
        ("single_flow", single_flow(size, load)),
        ("single_flow.size", single_flow(bigger, load)),
        ("single_flow.load", single_flow(size, more)),
        ("uniform", uniform(2.0, size, gap, load)),
        ("uniform.flows_per_node", uniform(2.5, size, gap, load)),
        ("uniform.size", uniform(2.0, bigger, gap, load)),
        ("uniform.mean_interarrival", uniform(2.0, size, later, load)),
        ("uniform.load", uniform(2.0, size, gap, more)),
        ("hotspot", hotspot(2.0, size, 1.2, load)),
        ("hotspot.flows_per_node", hotspot(2.5, size, 1.2, load)),
        ("hotspot.size", hotspot(2.0, bigger, 1.2, load)),
        ("hotspot.zipf_exponent", hotspot(2.0, size, 1.5, load)),
        ("hotspot.load", hotspot(2.0, size, 1.2, more)),
        ("storage", storage(3.0, size, 0.7, load)),
        ("storage.ops_per_node", storage(3.5, size, 0.7, load)),
        ("storage.io_size", storage(3.0, bigger, 0.7, load)),
        ("storage.read_fraction", storage(3.0, size, 0.9, load)),
        ("storage.load", storage(3.0, size, 0.7, more)),
    ]
}

/// Every CRC policy under one epoch and routing, then each policy's budget,
/// the epoch and the routing changed one at a time. The 7 µs epoch keeps
/// every entry apart from the spec's default adaptive controller.
fn controller_edits(bump: u64) -> Vec<(&'static str, ControllerSpec)> {
    let epoch = SimDuration::from_micros(7);
    let budget = Power::from_milliwatts(500_000);
    let more = Power::from_milliwatts(500_000 + bump);
    let adaptive = |policy, epoch, routing| ControllerSpec::Adaptive {
        policy,
        epoch,
        routing,
    };
    let min_cost = RoutingAlgorithm::MinCost;
    vec![
        ("controller baseline", ControllerSpec::Baseline),
        (
            "policy latency_minimize",
            adaptive(CrcPolicy::LatencyMinimize, epoch, min_cost),
        ),
        (
            "policy congestion_balance",
            adaptive(CrcPolicy::CongestionBalance, epoch, min_cost),
        ),
        (
            "policy power_cap",
            adaptive(CrcPolicy::PowerCap { budget }, epoch, min_cost),
        ),
        (
            "policy hybrid",
            adaptive(CrcPolicy::Hybrid { budget }, epoch, min_cost),
        ),
        (
            "power_cap.budget",
            adaptive(CrcPolicy::PowerCap { budget: more }, epoch, min_cost),
        ),
        (
            "hybrid.budget",
            adaptive(CrcPolicy::Hybrid { budget: more }, epoch, min_cost),
        ),
        (
            "controller.epoch",
            adaptive(
                CrcPolicy::Hybrid { budget },
                SimDuration::from_picos(epoch.as_picos() + bump),
                min_cost,
            ),
        ),
        (
            "controller.routing",
            adaptive(
                CrcPolicy::Hybrid { budget },
                epoch,
                RoutingAlgorithm::Valiant,
            ),
        ),
    ]
}

/// Worker counts live on the runner, not the spec — by construction they
/// cannot perturb a key. Pin that with the concrete end-to-end check: the
/// same matrix resolved by 1-thread and N-thread runners produces records
/// whose keys match pairwise.
#[test]
fn runner_thread_count_cannot_reach_the_key() {
    let matrix = matrix_with_axes(axes(2, 0.5, 1.0), 77);
    let serial: Vec<JobKey> = matrix.expand().iter().map(|j| job_key(&j.spec)).collect();
    let parallel: Vec<JobKey> = matrix.expand().iter().map(|j| job_key(&j.spec)).collect();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 64);
}

/// Eight specs whose keys are pinned as literals. Together they reach every
/// variant of the spec's field-less enums (routing, FEC, power state,
/// switch kind, topology kind, media, link class), every workload kind,
/// both controllers and all four CRC policies, an upgrade, a lane cap and a
/// routing override each set and unset, shard counts 0 and 1..3, and a
/// topology with rack spacing. A change to the canonical spec form fails
/// here; only a deliberate change to the key preimage may re-pin them.
fn pinned_specs() -> Vec<(ScenarioSpec, &'static str)> {
    let adaptive = |policy, epoch_us, routing| ControllerSpec::Adaptive {
        policy,
        epoch: SimDuration::from_micros(epoch_us),
        routing,
    };
    let spec = |name: &str, topology, workload| {
        ScenarioSpec::new(name, topology, workload)
            .horizon(SimTime::from_millis(10))
            .seed(7)
    };

    let grid_baseline = spec(
        "pinned-grid",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(4)),
    )
    .controller(ControllerSpec::Baseline);

    let mut spaced_torus = spec(
        "pinned-torus",
        TopologySpec::torus(4, 4, 1).with_rack_spacing(Length::from_m(20)),
        WorkloadSpec::incast(Bytes::from_kib(16)),
    )
    .controller(adaptive(
        CrcPolicy::LatencyMinimize,
        10,
        RoutingAlgorithm::DimensionOrdered,
    ))
    .shards(1);
    spaced_torus.phy.fec = FecSetting::Fixed(FecMode::None);
    spaced_torus.phy.power = PowerState::LowPower;

    let mut line = spec(
        "pinned-line",
        TopologySpec::line(6, 2),
        WorkloadSpec::single_flow(Bytes::from_kib(64)),
    )
    .controller(ControllerSpec::Baseline)
    .switch_model(SwitchModel::store_and_forward())
    .routing(RoutingAlgorithm::ShortestHop);
    line.phy.fec = FecSetting::Fixed(FecMode::FireCode);
    line.phy.power = PowerState::Off;
    line.phy.bypassed_nodes = 2;

    let mut ring = spec(
        "pinned-ring",
        TopologySpec::ring(8, 2),
        WorkloadSpec::permutation(Bytes::from_kib(32)),
    )
    .upgrade(TopologySpec::hypercube(3, 2))
    .controller(adaptive(
        CrcPolicy::Hybrid {
            budget: Power::from_watts(300),
        },
        20,
        RoutingAlgorithm::MinCost,
    ));
    ring.phy.fec = FecSetting::Fixed(FecMode::Rs528);
    ring.phy.active_lanes = Some(1);

    let mut fat_tree = spec(
        "pinned-fat-tree",
        TopologySpec::fat_tree(8, 4, 2, 1),
        WorkloadSpec::Uniform {
            flows_per_node: 1.5,
            size: Bytes::from_kib(8),
            mean_interarrival: SimDuration::from_nanos(1500),
            load: 0.8,
        },
    )
    .controller(adaptive(
        CrcPolicy::CongestionBalance,
        40,
        RoutingAlgorithm::Ecmp,
    ))
    .routing(RoutingAlgorithm::Ecmp)
    .port_buffer(Bytes::from_kib(64))
    .plp_timing(PlpTiming::default().scaled(5.0))
    .stop_when_done(false);
    fat_tree.phy.fec = FecSetting::Fixed(FecMode::Rs544);
    fat_tree.event_budget = 2_000_000;

    let dragonfly = spec(
        "pinned-dragonfly",
        TopologySpec::dragonfly(3, 2, 1, 1),
        WorkloadSpec::Hotspot {
            flows_per_node: 2.0,
            size: Bytes::from_kib(4),
            zipf_exponent: 1.1,
            load: 0.6,
        },
    )
    .controller(adaptive(
        CrcPolicy::PowerCap {
            budget: Power::from_milliwatts(1_234_567),
        },
        25,
        RoutingAlgorithm::Adaptive,
    ))
    .routing(RoutingAlgorithm::Valiant)
    .shards(3);

    let mut backplane = TopologySpec::grid(2, 2, 1);
    backplane.edges[0].media = MediaKind::Backplane;
    let storage = spec(
        "pinned-storage",
        backplane,
        WorkloadSpec::Storage {
            ops_per_node: 3.0,
            io_size: Bytes::from_kib(64),
            read_fraction: 0.7,
            load: 1.0,
        },
    )
    .routing(RoutingAlgorithm::Adaptive)
    .mtu(Bytes::new(9000))
    .train_window(SimDuration::from_nanos(500));

    let escalating = ScenarioSpec::new(
        "pinned-escalation",
        TopologySpec::grid(4, 4, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(64)),
    )
    .upgrade(TopologySpec::torus(4, 4, 2))
    .seed(20_180_820);

    vec![
        (grid_baseline, "906ac8ce3810309c35d234c628a43062"),
        (spaced_torus, "e3066d193ae7e874cb133eae52978517"),
        (line, "d04dcbca3e7bc14432ee6409fc721406"),
        (ring, "0488b5982fa1296b6f0f549ed19a80e9"),
        (fat_tree, "3c4ed4bd0359bdb17e90764fa04460d9"),
        (dragonfly, "ba153fd522ca5bfe2391f25bb2fbd237"),
        (storage, "add26ca7cd07a2727839298b9ecec450"),
        (escalating, "97aad33b2a5eda1f5218be86e5cdebf5"),
    ]
}

#[test]
fn pinned_specs_keep_their_keys() {
    for (spec, pinned) in pinned_specs() {
        assert_eq!(
            job_key(&spec).hex(),
            pinned,
            "{} moved; canonical form: {}",
            spec.name,
            canonical_spec_json(&spec)
        );
    }
}

/// FNV-1a, 64-bit: the campaign digest below.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The key preimage of every job of the e1–e11 figure campaigns at both
/// scales, pinned as one digest: the canonical spec forms in campaign order,
/// one line each. A change to the canonical form that moves any figure's
/// key fails here, not only one that moves a pinned spec above.
#[test]
fn figure_campaign_key_preimages_are_pinned() {
    use rackfabric_bench::figures::{figure_defs, FigureKind, Scale};
    let mut preimages = String::new();
    let mut specs = 0;
    for scale in [Scale::Tiny, Scale::Paper] {
        for def in figure_defs(scale) {
            if let FigureKind::Sim(matrix, _) = def.kind {
                for job in matrix.expand() {
                    preimages.push_str(&canonical_spec_json(&job.spec));
                    preimages.push('\n');
                    specs += 1;
                }
            }
        }
    }
    assert_eq!(specs, 164, "the campaigns' job count moved");
    assert_eq!(
        format!("{:016x}", fnv1a_64(preimages.as_bytes())),
        "2a54441bd509b7b8",
        "a figure job's key preimage moved"
    );
}
