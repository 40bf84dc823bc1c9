//! The canonical spec form — one JSON rendering of a [`ScenarioSpec`] —
//! and its inverse, side by side.
//!
//! [`canonical_spec_json`] is the preimage of the sweep layer's job key, the
//! spec the store records beside each result, and the spec journals and
//! `rackfabricd` requests carry. Two specs render to the same bytes exactly
//! when the engine is guaranteed to produce byte-identical results for
//! them, so the form deliberately **excludes** every proven result-neutral
//! knob:
//!
//! * the shard **count** — every `shards >= 1` run is byte-identical
//!   (`tests/shard_determinism.rs`); only the engine *kind* (monolithic vs
//!   sharded, a genuinely different model) is written,
//! * worker/thread counts — never part of the spec at all,
//! * the campaign and topology display names — labels, not inputs.
//!
//! Everything that does shape results — topology edges, workload, PHY
//! policy (FEC, lanes, power, bypass chains), controller, lane rate, switch
//! model, port buffers, PLP timing table, MTU, train window, seed, horizon,
//! event budget — is written field by field in sorted key order, straight
//! into one string ([`json::CanonicalWriter`]), so the form is canonical JSON
//! and stable across axis orderings and code-level field reorderings.
//!
//! [`decode_spec`] lets the journal replay an `execute-cell` record without
//! the matrix that produced it. Its contract, checked by the tests here and
//! relied on by recovery: `canonical_spec_json(&decode_spec(&c)?) == c` for
//! every canonical form `c`, so a replayed job lands under the same key (and
//! store record) as the original. Both directions read one table of wire
//! names per field-less enum (routing, FEC, power, switch and topology
//! kinds, media, link class).

use crate::spec::{ControllerSpec, FecSetting, PhyPolicy, ScenarioSpec, WorkloadSpec};
use rackfabric::policy::CrcPolicy;
use rackfabric_phy::{FecMode, MediaKind, PlpTiming, PowerState};
use rackfabric_sim::json::{self, CanonicalWriter, JsonValue};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes, Length, Power};
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::{EdgeSpec, LinkClass, TopologyKind, TopologySpec};
use rackfabric_topo::NodeId;

/// The canonical JSON of a spec: every result-shaping field, with sorted
/// object keys and no whitespace.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    let mut w = CanonicalWriter::default();
    write_spec(&mut w, spec);
    w.finish()
}

/// Decodes a canonical spec JSON document into a runnable spec.
///
/// The key-neutral name gets a default; the engine kind maps back to
/// `shards` 0 (monolithic) or 1 (sharded) — any positive shard count is
/// key-equivalent, so 1 is the canonical representative. An error names the
/// field or the kind that was wrong.
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

// The writers below emit each object's fields in ascending key order: the
// writer does not sort them.

fn write_spec(w: &mut CanonicalWriter, spec: &ScenarioSpec) {
    // `spec.name` and the shard count are intentionally absent — see the
    // module docs.
    let engine = match spec.shards {
        0 => "monolithic",
        _ => "sharded",
    };
    w.begin_object();
    w.key("controller");
    write_controller(w, &spec.controller);
    w.key("engine").string(engine);
    w.key("event_budget").uint(spec.event_budget);
    w.key("horizon_ps").uint(spec.horizon.as_picos());
    w.key("lane_rate_bps").uint(spec.lane_rate.as_bps());
    w.key("mtu_bytes").uint(spec.mtu.as_u64());
    w.key("phy");
    write_phy(w, &spec.phy);
    w.key("plp_timing");
    write_plp_timing(w, &spec.plp_timing);
    w.key("port_buffer_bytes").uint(spec.port_buffer.as_u64());
    // The spec-level routing override. `controller-default` means the
    // lowered config keeps the controller's choice (shortest-hop for
    // baseline, the CRC routing recorded under `controller` above).
    w.key("routing")
        .string(spec.routing.map_or("controller-default", wire_name));
    w.key("seed").uint(spec.seed);
    w.key("stop_when_done").bool(spec.stop_when_done);
    w.key("switch");
    write_switch(w, &spec.switch);
    w.key("topology");
    write_topology(w, &spec.topology);
    w.key("train_window_ps").uint(spec.train_window.as_picos());
    w.key("upgrade");
    match &spec.upgrade {
        Some(upgrade) => write_topology(w, upgrade),
        None => {
            w.null();
        }
    }
    w.key("workload");
    write_workload(w, &spec.workload);
    w.end_object();
}

fn write_phy(w: &mut CanonicalWriter, phy: &PhyPolicy) {
    w.begin_object();
    w.key("bypassed_nodes").uint(phy.bypassed_nodes as u64);
    w.key("fec").string(wire_name(phy.fec));
    w.key("lanes");
    match phy.active_lanes {
        Some(lanes) => w.uint(lanes as u64),
        None => w.null(),
    };
    w.key("power").string(wire_name(phy.power));
    w.end_object();
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

fn write_plp_timing(w: &mut CanonicalWriter, t: &PlpTiming) {
    w.begin_object();
    w.key("bundle_ps").uint(t.bundle.as_picos());
    w.key("bypass_ps").uint(t.bypass.as_picos());
    w.key("move_lanes_ps").uint(t.move_lanes.as_picos());
    w.key("set_active_lanes_ps")
        .uint(t.set_active_lanes.as_picos());
    w.key("set_fec_ps").uint(t.set_fec.as_picos());
    w.key("set_power_ps").uint(t.set_power.as_picos());
    w.key("split_ps").uint(t.split.as_picos());
    w.end_object();
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

fn write_switch(w: &mut CanonicalWriter, switch: &SwitchModel) {
    w.begin_object();
    w.key("kind").string(wire_name(switch.kind));
    w.key("pipeline_ps")
        .uint(switch.pipeline_latency.as_picos());
    w.end_object();
}

fn decode_switch(doc: &JsonValue) -> Result<SwitchModel, String> {
    Ok(SwitchModel {
        kind: from_wire(str_field(doc, "kind")?)?,
        pipeline_latency: SimDuration::from_picos(uint_field(doc, "pipeline_ps")?),
    })
}

fn write_topology(w: &mut CanonicalWriter, t: &TopologySpec) {
    // The display name is excluded: instantiation consumes only the node
    // count and the edge list, so renaming a spec must not invalidate the
    // cache. Edges are serialised exactly (endpoints, lanes, length, media,
    // link class — the class steers the conservative lookahead, so it
    // shapes sharded results).
    w.begin_object();
    w.key("dims");
    match t.dims {
        Some((rows, cols)) => w
            .begin_array()
            .uint(rows as u64)
            .uint(cols as u64)
            .end_array(),
        None => w.null(),
    };
    w.key("edges").begin_array();
    for e in &t.edges {
        w.begin_array()
            .uint(e.a.0 as u64)
            .uint(e.b.0 as u64)
            .uint(e.lanes as u64)
            .uint(e.length.as_mm())
            .string(wire_name(e.media))
            .string(wire_name(e.class))
            .end_array();
    }
    w.end_array();
    w.key("kind").string(wire_name(t.kind));
    w.key("nodes").uint(t.nodes as u64);
    w.end_object();
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

fn write_controller(w: &mut CanonicalWriter, c: &ControllerSpec) {
    w.begin_object();
    match c {
        ControllerSpec::Baseline => {
            w.key("kind").string("baseline");
        }
        ControllerSpec::Adaptive {
            policy,
            epoch,
            routing,
        } => {
            w.key("epoch_ps").uint(epoch.as_picos());
            w.key("kind").string("adaptive");
            w.key("policy");
            write_policy(w, policy);
            w.key("routing").string(wire_name(*routing));
        }
    }
    w.end_object();
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

/// A CRC policy; its `kind` is [`CrcPolicy::name`].
fn write_policy(w: &mut CanonicalWriter, p: &CrcPolicy) {
    w.begin_object();
    match p {
        CrcPolicy::LatencyMinimize | CrcPolicy::CongestionBalance => {}
        CrcPolicy::PowerCap { budget } | CrcPolicy::Hybrid { budget } => {
            w.key("budget_mw").uint(budget.as_milliwatts());
        }
    }
    w.key("kind").string(p.name());
    w.end_object();
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

fn write_workload(w: &mut CanonicalWriter, workload: &WorkloadSpec) {
    w.begin_object();
    match *workload {
        WorkloadSpec::Shuffle { partition, load } => {
            w.key("kind").string("shuffle");
            w.key("load").float(load);
            w.key("partition_bytes").uint(partition.as_u64());
        }
        WorkloadSpec::Incast { request, load } => {
            w.key("kind").string("incast");
            w.key("load").float(load);
            w.key("request_bytes").uint(request.as_u64());
        }
        WorkloadSpec::Permutation { size, load } => {
            w.key("kind").string("permutation");
            w.key("load").float(load);
            w.key("size_bytes").uint(size.as_u64());
        }
        WorkloadSpec::SingleFlow { size, load } => {
            w.key("kind").string("single_flow");
            w.key("load").float(load);
            w.key("size_bytes").uint(size.as_u64());
        }
        WorkloadSpec::Uniform {
            flows_per_node,
            size,
            mean_interarrival,
            load,
        } => {
            w.key("flows_per_node").float(flows_per_node);
            w.key("kind").string("uniform");
            w.key("load").float(load);
            w.key("mean_interarrival_ps")
                .uint(mean_interarrival.as_picos());
            w.key("size_bytes").uint(size.as_u64());
        }
        WorkloadSpec::Hotspot {
            flows_per_node,
            size,
            zipf_exponent,
            load,
        } => {
            w.key("flows_per_node").float(flows_per_node);
            w.key("kind").string("hotspot");
            w.key("load").float(load);
            w.key("size_bytes").uint(size.as_u64());
            w.key("zipf_exponent").float(zipf_exponent);
        }
        WorkloadSpec::Storage {
            ops_per_node,
            io_size,
            read_fraction,
            load,
        } => {
            w.key("io_size_bytes").uint(io_size.as_u64());
            w.key("kind").string("storage");
            w.key("load").float(load);
            w.key("ops_per_node").float(ops_per_node);
            w.key("read_fraction").float(read_fraction);
        }
    }
    w.end_object();
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
            mean_interarrival: SimDuration::from_picos(uint_field(doc, "mean_interarrival_ps")?),
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

/// A field-less enum the canonical form names: one wire name per variant,
/// read by both directions of the codec. A variant missing from `NAMES`
/// panics on encode; the round-trip property in
/// `crates/sweep/tests/key_stability.rs` draws every variant.
pub(crate) trait WireName: Copy + PartialEq + 'static {
    /// What a decode error calls the enum (`unknown <WHAT> "name"`).
    const WHAT: &'static str;
    /// Every variant with its wire name.
    const NAMES: &'static [(&'static str, Self)];
}

/// The wire name of `value`.
pub(crate) fn wire_name<T: WireName>(value: T) -> &'static str {
    match T::NAMES.iter().find(|(_, v)| *v == value) {
        Some((name, _)) => name,
        None => panic!("a {} has no wire name", T::WHAT),
    }
}

fn from_wire<T: WireName>(name: &str) -> Result<T, String> {
    let variant = T::NAMES.iter().find(|(n, _)| *n == name).map(|e| e.1);
    variant.ok_or_else(|| format!("unknown {} {name:?}", T::WHAT))
}

/// Implements [`WireName`]: `Type, "what": [(name, variant), ...];`.
macro_rules! wire_names {
    ($($t:ty, $what:literal: [$(($name:literal, $v:expr)),+ $(,)?];)+) => {$(
        impl WireName for $t {
            const WHAT: &'static str = $what;
            const NAMES: &'static [(&'static str, Self)] = &[$(($name, $v)),+];
        }
    )+};
}

// Routing, topology kinds, media and link classes keep the `{:?}` names
// the first stores were keyed with.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-equal canonical forms hash to equal job keys, so this is the
    /// key contract without the sweep layer.
    fn assert_round_trip(spec: &ScenarioSpec) {
        let canonical = canonical_spec_json(spec);
        assert_eq!(
            json::canonical(&json::parse(&canonical).unwrap()),
            canonical,
            "the writer must emit canonical JSON: fields in key order"
        );
        let decoded = decode_spec(&canonical).expect("decode");
        assert_eq!(
            canonical_spec_json(&decoded),
            canonical,
            "decode must reproduce the canonical form byte for byte"
        );
    }

    #[test]
    fn default_grid_shuffle_round_trips() {
        assert_round_trip(
            &ScenarioSpec::new(
                "codec-unit",
                TopologySpec::grid(3, 3, 2),
                WorkloadSpec::shuffle(Bytes::from_kib(4)),
            )
            .seed(42),
        );
    }

    #[test]
    fn every_workload_kind_round_trips() {
        let topo = TopologySpec::grid(2, 2, 2);
        let workloads = vec![
            WorkloadSpec::Shuffle {
                partition: Bytes::from_kib(8),
                load: 0.75,
            },
            WorkloadSpec::Incast {
                request: Bytes::from_kib(2),
                load: 1.0,
            },
            WorkloadSpec::Permutation {
                size: Bytes::from_kib(16),
                load: 0.5,
            },
            WorkloadSpec::SingleFlow {
                size: Bytes::from_mib(1),
                load: 1.0,
            },
            WorkloadSpec::Uniform {
                flows_per_node: 2.5,
                size: Bytes::from_kib(4),
                mean_interarrival: SimDuration::from_picos(12_345),
                load: 0.9,
            },
            WorkloadSpec::Hotspot {
                flows_per_node: 3.0,
                size: Bytes::from_kib(4),
                zipf_exponent: 1.2,
                load: 0.8,
            },
            WorkloadSpec::Storage {
                ops_per_node: 4.0,
                io_size: Bytes::from_kib(64),
                read_fraction: 0.7,
                load: 0.6,
            },
        ];
        for workload in workloads {
            assert_round_trip(&ScenarioSpec::new(
                "codec-workloads",
                topo.clone(),
                workload,
            ));
        }
    }

    #[test]
    fn controllers_policies_phy_and_engine_knobs_round_trip() {
        let base = ScenarioSpec::new(
            "codec-knobs",
            TopologySpec::dragonfly(3, 4, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        );
        let mut adaptive = base.clone();
        adaptive.controller = ControllerSpec::Adaptive {
            policy: CrcPolicy::Hybrid {
                budget: Power::from_milliwatts(1500),
            },
            epoch: SimDuration::from_picos(5_000_000),
            routing: RoutingAlgorithm::Adaptive,
        };
        adaptive.routing = Some(RoutingAlgorithm::Valiant);
        adaptive.phy.fec = FecSetting::Fixed(FecMode::Rs544);
        adaptive.phy.active_lanes = Some(2);
        adaptive.phy.power = PowerState::LowPower;
        adaptive.phy.bypassed_nodes = 2;
        adaptive.shards = 3; // canonicalises to "sharded"
        adaptive.upgrade = Some(TopologySpec::grid(2, 2, 1));
        assert_round_trip(&adaptive);

        let mut power_cap = base;
        power_cap.controller = ControllerSpec::Adaptive {
            policy: CrcPolicy::PowerCap {
                budget: Power::from_milliwatts(900),
            },
            epoch: SimDuration::from_picos(1_000_000),
            routing: RoutingAlgorithm::MinCost,
        };
        assert_round_trip(&power_cap);
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        // A valid spec whose first edge names node 2^32: truncated to a
        // u32 it would decode as node 0, a different spec.
        let valid = canonical_spec_json(&ScenarioSpec::new(
            "codec-bad-node",
            TopologySpec::line(3, 1),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        ));
        let wide_node = valid.replacen("\"edges\":[[0,", "\"edges\":[[4294967296,", 1);
        assert_ne!(wide_node, valid);
        for bad in [
            "not json",
            "{}",
            "{\"workload\":{\"kind\":\"shuffle\"}}",
            "{\"topology\":{\"kind\":\"Moebius\"}}",
            wide_node.as_str(),
        ] {
            assert!(decode_spec(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            decode_spec(&wide_node).unwrap_err(),
            "edges[0]: node 4294967296 does not fit a u32 node id"
        );
    }
}
