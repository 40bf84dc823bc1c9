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
//! into one string ([`CanonicalWriter`]), so the form is canonical JSON
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
use rackfabric_sim::json::{CanonicalWriter, JsonError, Kind, Reader};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes, Length, Power};
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::{EdgeSpec, LinkClass, TopologyKind, TopologySpec};
use rackfabric_topo::NodeId;
use std::borrow::Cow;

/// The canonical JSON of a spec: every result-shaping field, with sorted
/// object keys and no whitespace.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    let mut w = CanonicalWriter::default();
    write_spec(&mut w, spec);
    w.finish()
}

/// Decodes a canonical spec JSON document into a runnable spec, in one
/// pass over its text with [`Reader`]: no tree of it is built.
///
/// The key-neutral name gets a default; the engine kind maps back to
/// `shards` 0 (monolithic) or 1 (sharded) — any positive shard count is
/// key-equivalent, so 1 is the canonical representative. An error names the
/// field or the kind that was wrong.
///
/// A document decodes exactly as [`json::parse`](rackfabric_sim::json::parse)
/// and a walk of its tree would decode it. A text that is not JSON fails
/// with the parser's error, wherever the fault is. The first field of a
/// name counts, and fields the spec does not name are passed over. Of
/// several wrong fields, the one the walk reaches first is reported: the
/// walk takes topology, workload, upgrade, controller, engine, the scalar
/// fields, routing, phy, PLP timing and switch in that order, and a nested
/// object's fields in the order of its type's fields.
/// `crates/sweep/tests/key_stability.rs` holds the decoder to that walk.
pub fn decode_spec(spec_json: &str) -> Result<ScenarioSpec, String> {
    let mut r = Reader::new(spec_json);
    let fields = read_spec(&mut r)
        .and_then(|fields| r.finish().map(|()| fields))
        .map_err(|e| format!("spec json: {e}"))?;
    fields.into_spec()
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

fn write_switch(w: &mut CanonicalWriter, switch: &SwitchModel) {
    w.begin_object();
    w.key("kind").string(wire_name(switch.kind));
    w.key("pipeline_ps")
        .uint(switch.pipeline_latency.as_picos());
    w.end_object();
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

// The reader below decodes each object's fields in whatever order the
// document lists them, into slots, and checks the slots in the order the
// tree walk of `decode_spec`'s contract visits them.

/// One field of an object read in place: `None` until the field's first
/// occurrence, then what that occurrence decoded to, or what was wrong with
/// it. Later fields of the same name are passed over, as a tree lookup
/// finds the first.
type Slot<T> = Option<Result<T, String>>;

/// A value read in place: the outer error ends the decode (the text is not
/// JSON), the inner one is the value's own fault.
type Read<T> = Result<Result<T, String>, JsonError>;

/// The slot's value, or why it has none.
fn take<T>(slot: Slot<T>, name: &str) -> Result<T, String> {
    slot.unwrap_or_else(|| Err(format!("missing field {name:?}")))
}

/// Reads the object at the reader, handing `field` each field's name with
/// the reader at the field's value, which `field` reads or passes over
/// whole. A value that is not an object is passed over: it has no fields.
fn read_object<'a>(
    r: &mut Reader<'a>,
    mut field: impl FnMut(&str, &mut Reader<'a>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if r.peek()? != Kind::Object {
        return r.skip();
    }
    r.begin_object()?;
    while let Some(name) = r.next_field()? {
        field(&name, r)?;
    }
    Ok(())
}

/// Reads the field at the reader into `slot`, unless an earlier field of
/// the same name filled it.
fn fill<'a, T>(
    slot: &mut Slot<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Read<T>,
) -> Result<(), JsonError> {
    if slot.is_some() {
        return r.skip();
    }
    *slot = Some(read(r)?);
    Ok(())
}

/// Passes over the value at the reader, which is `wrong`.
fn wrong<T>(r: &mut Reader<'_>, wrong: String) -> Read<T> {
    r.skip()?;
    Ok(Err(wrong))
}

fn read_uint(r: &mut Reader<'_>, name: &str) -> Read<u64> {
    if r.peek()? != Kind::Number {
        return wrong(r, format!("{name}: not a u64"));
    }
    Ok(r.number()?
        .parse()
        .map_err(|_| format!("{name}: not a u64")))
}

fn read_float(r: &mut Reader<'_>, name: &str) -> Read<f64> {
    if r.peek()? != Kind::Number {
        return wrong(r, format!("{name}: not a number"));
    }
    Ok(r.number()?
        .parse()
        .map_err(|_| format!("{name}: not a number")))
}

fn read_str<'a>(r: &mut Reader<'a>, name: &str) -> Read<Cow<'a, str>> {
    if r.peek()? != Kind::String {
        return wrong(r, format!("{name}: not a string"));
    }
    Ok(Ok(r.string()?))
}

fn read_wire<T: WireName>(r: &mut Reader<'_>, name: &str) -> Read<T> {
    Ok(read_str(r, name)?.and_then(|wire| from_wire(&wire)))
}

/// `None` for `null`, else what `read` makes of the value.
fn read_nullable<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Read<T>,
) -> Read<Option<T>> {
    if r.peek()? == Kind::Null {
        r.skip()?;
        return Ok(Ok(None));
    }
    Ok(read(r)?.map(Some))
}

/// An item of a fixed-length array (an edge, `dims`).
enum Item<'a> {
    Number(&'a str),
    String(Cow<'a, str>),
    Other,
}

impl Item<'_> {
    fn uint(&self) -> Option<u64> {
        match self {
            Item::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Reads the array at the reader: its first `N` items and how many items
/// it has. `None` when the value is not an array.
fn read_tuple<'a, const N: usize>(
    r: &mut Reader<'a>,
) -> Result<Option<([Item<'a>; N], usize)>, JsonError> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(None);
    }
    r.begin_array()?;
    let mut items = std::array::from_fn(|_| Item::Other);
    let mut len = 0;
    while r.next_item()? {
        let item = match r.peek()? {
            Kind::Number => Item::Number(r.number()?),
            Kind::String => Item::String(r.string()?),
            _ => {
                r.skip()?;
                Item::Other
            }
        };
        if let Some(slot) = items.get_mut(len) {
            *slot = item;
        }
        len += 1;
    }
    Ok(Some((items, len)))
}

/// A spec document's top-level fields.
#[derive(Default)]
struct SpecFields {
    topology: Slot<TopologySpec>,
    workload: Slot<WorkloadSpec>,
    upgrade: Slot<Option<TopologySpec>>,
    controller: Slot<ControllerSpec>,
    engine: Slot<usize>,
    event_budget: Slot<u64>,
    horizon_ps: Slot<u64>,
    lane_rate_bps: Slot<u64>,
    mtu_bytes: Slot<u64>,
    port_buffer_bytes: Slot<u64>,
    seed: Slot<u64>,
    stop_when_done: Slot<bool>,
    train_window_ps: Slot<u64>,
    routing: Slot<Option<RoutingAlgorithm>>,
    phy: Slot<PhyPolicy>,
    plp_timing: Slot<PlpTiming>,
    switch: Slot<SwitchModel>,
}

fn read_spec(r: &mut Reader<'_>) -> Result<SpecFields, JsonError> {
    let mut f = SpecFields::default();
    read_object(r, |name, r| match name {
        "controller" => fill(&mut f.controller, r, read_controller),
        "engine" => fill(&mut f.engine, r, |r| {
            Ok(read_str(r, name)?.and_then(|kind| match &*kind {
                "monolithic" => Ok(0),
                "sharded" => Ok(1),
                other => Err(format!("unknown engine kind {other:?}")),
            }))
        }),
        "event_budget" => fill(&mut f.event_budget, r, |r| read_uint(r, name)),
        "horizon_ps" => fill(&mut f.horizon_ps, r, |r| read_uint(r, name)),
        "lane_rate_bps" => fill(&mut f.lane_rate_bps, r, |r| read_uint(r, name)),
        "mtu_bytes" => fill(&mut f.mtu_bytes, r, |r| read_uint(r, name)),
        "phy" => fill(&mut f.phy, r, read_phy),
        "plp_timing" => fill(&mut f.plp_timing, r, read_plp_timing),
        "port_buffer_bytes" => fill(&mut f.port_buffer_bytes, r, |r| read_uint(r, name)),
        "routing" => fill(&mut f.routing, r, |r| {
            Ok(read_str(r, name)?.and_then(|routing| match &*routing {
                "controller-default" => Ok(None),
                routing => from_wire(routing).map(Some),
            }))
        }),
        "seed" => fill(&mut f.seed, r, |r| read_uint(r, name)),
        "stop_when_done" => fill(&mut f.stop_when_done, r, |r| {
            Ok(match r.raw()? {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err("stop_when_done: not a bool".into()),
            })
        }),
        "switch" => fill(&mut f.switch, r, read_switch),
        "topology" => fill(&mut f.topology, r, read_topology),
        "train_window_ps" => fill(&mut f.train_window_ps, r, |r| read_uint(r, name)),
        "upgrade" => fill(&mut f.upgrade, r, |r| read_nullable(r, read_topology)),
        "workload" => fill(&mut f.workload, r, read_workload),
        _ => r.skip(),
    })?;
    Ok(f)
}

impl SpecFields {
    fn into_spec(self) -> Result<ScenarioSpec, String> {
        let topology = take(self.topology, "topology")?;
        let workload = take(self.workload, "workload")?;
        let mut spec = ScenarioSpec::new("replayed", topology, workload);
        spec.upgrade = take(self.upgrade, "upgrade")?;
        spec.controller = take(self.controller, "controller")?;
        spec.shards = take(self.engine, "engine")?;
        spec.event_budget = take(self.event_budget, "event_budget")?;
        spec.horizon = SimTime::from_picos(take(self.horizon_ps, "horizon_ps")?);
        spec.lane_rate = BitRate::from_bps(take(self.lane_rate_bps, "lane_rate_bps")?);
        spec.mtu = Bytes::new(take(self.mtu_bytes, "mtu_bytes")?);
        spec.port_buffer = Bytes::new(take(self.port_buffer_bytes, "port_buffer_bytes")?);
        spec.seed = take(self.seed, "seed")?;
        spec.stop_when_done = take(self.stop_when_done, "stop_when_done")?;
        spec.train_window = SimDuration::from_picos(take(self.train_window_ps, "train_window_ps")?);
        spec.routing = take(self.routing, "routing")?;
        spec.phy = take(self.phy, "phy")?;
        spec.plp_timing = take(self.plp_timing, "plp_timing")?;
        spec.switch = take(self.switch, "switch")?;
        Ok(spec)
    }
}

fn read_phy(r: &mut Reader<'_>) -> Read<PhyPolicy> {
    let (mut bypassed_nodes, mut fec, mut lanes, mut power) = (None, None, None, None);
    read_object(r, |name, r| match name {
        "bypassed_nodes" => fill(&mut bypassed_nodes, r, |r| read_uint(r, name)),
        "fec" => fill(&mut fec, r, |r| read_wire(r, name)),
        "lanes" => fill(&mut lanes, r, |r| {
            read_nullable(r, |r| {
                Ok(read_uint(r, name)?.map_err(|_| "phy.lanes: not a number".to_string()))
            })
        }),
        "power" => fill(&mut power, r, |r| read_wire(r, name)),
        _ => r.skip(),
    })?;
    let phy = || -> Result<PhyPolicy, String> {
        Ok(PhyPolicy {
            bypassed_nodes: take(bypassed_nodes, "bypassed_nodes")? as usize,
            fec: take(fec, "fec")?,
            active_lanes: take(lanes, "lanes")?.map(|n| n as usize),
            power: take(power, "power")?,
        })
    };
    Ok(phy())
}

fn read_plp_timing(r: &mut Reader<'_>) -> Read<PlpTiming> {
    let (mut bundle, mut bypass, mut move_lanes, mut set_active_lanes) = (None, None, None, None);
    let (mut set_fec, mut set_power, mut split) = (None, None, None);
    read_object(r, |name, r| {
        let slot = match name {
            "bundle_ps" => &mut bundle,
            "bypass_ps" => &mut bypass,
            "move_lanes_ps" => &mut move_lanes,
            "set_active_lanes_ps" => &mut set_active_lanes,
            "set_fec_ps" => &mut set_fec,
            "set_power_ps" => &mut set_power,
            "split_ps" => &mut split,
            _ => return r.skip(),
        };
        fill(slot, r, |r| read_uint(r, name))
    })?;
    let ps = |slot, name| take(slot, name).map(SimDuration::from_picos);
    let timing = || -> Result<PlpTiming, String> {
        Ok(PlpTiming {
            split: ps(split, "split_ps")?,
            bundle: ps(bundle, "bundle_ps")?,
            move_lanes: ps(move_lanes, "move_lanes_ps")?,
            set_active_lanes: ps(set_active_lanes, "set_active_lanes_ps")?,
            set_power: ps(set_power, "set_power_ps")?,
            set_fec: ps(set_fec, "set_fec_ps")?,
            bypass: ps(bypass, "bypass_ps")?,
        })
    };
    Ok(timing())
}

fn read_switch(r: &mut Reader<'_>) -> Read<SwitchModel> {
    let (mut kind, mut pipeline) = (None, None);
    read_object(r, |name, r| match name {
        "kind" => fill(&mut kind, r, |r| read_wire(r, name)),
        "pipeline_ps" => fill(&mut pipeline, r, |r| read_uint(r, name)),
        _ => r.skip(),
    })?;
    let switch = || -> Result<SwitchModel, String> {
        Ok(SwitchModel {
            kind: take(kind, "kind")?,
            pipeline_latency: SimDuration::from_picos(take(pipeline, "pipeline_ps")?),
        })
    };
    Ok(switch())
}

fn read_topology(r: &mut Reader<'_>) -> Read<TopologySpec> {
    let (mut kind, mut dims, mut edges, mut nodes) = (None, None, None, None);
    read_object(r, |name, r| match name {
        "dims" => fill(&mut dims, r, |r| read_nullable(r, read_dims)),
        "edges" => fill(&mut edges, r, read_edges),
        "kind" => fill(&mut kind, r, |r| read_wire(r, name)),
        "nodes" => fill(&mut nodes, r, |r| read_uint(r, name)),
        _ => r.skip(),
    })?;
    let topology = || -> Result<TopologySpec, String> {
        Ok(TopologySpec {
            // Display names are key-excluded; replayed topologies get a marker.
            name: "replayed".into(),
            kind: take(kind, "kind")?,
            dims: take(dims, "dims")?,
            edges: take(edges, "edges")?,
            nodes: take(nodes, "nodes")? as usize,
        })
    };
    Ok(topology())
}

fn read_dims(r: &mut Reader<'_>) -> Read<(usize, usize)> {
    let Some((dims, len)) = read_tuple::<2>(r)? else {
        return Ok(Err("dims: not an array".into()));
    };
    if len != 2 {
        return Ok(Err("dims: expected [rows, cols]".into()));
    }
    let dim = |i: usize| {
        dims[i]
            .uint()
            .map(|n| n as usize)
            .ok_or_else(|| format!("dims[{i}]: not a u64"))
    };
    Ok(dim(0).and_then(|rows| Ok((rows, dim(1)?))))
}

/// Reads a topology's edge list; the first wrong edge is its fault.
fn read_edges(r: &mut Reader<'_>) -> Read<Vec<EdgeSpec>> {
    if r.peek()? != Kind::Array {
        return wrong(r, "edges: not an array".into());
    }
    r.begin_array()?;
    let mut edges = Ok(Vec::new());
    let mut index = 0;
    while r.next_item()? {
        match &mut edges {
            Ok(list) => match read_edge(r, index)? {
                Ok(edge) => list.push(edge),
                Err(e) => edges = Err(e),
            },
            Err(_) => r.skip()?,
        }
        index += 1;
    }
    Ok(edges)
}

/// Decodes edge number `index` of a topology's edge list.
fn read_edge(r: &mut Reader<'_>, index: usize) -> Read<EdgeSpec> {
    let Some((parts, len)) = read_tuple::<6>(r)? else {
        return Ok(Err("edge: not an array".into()));
    };
    if len != 6 {
        return Ok(Err(format!("edge: expected 6 fields, got {len}")));
    }
    let num = |i: usize| {
        parts[i]
            .uint()
            .ok_or_else(|| format!("edge[{i}]: not a u64"))
    };
    let text = |i: usize| match &parts[i] {
        Item::String(text) => Ok(&**text),
        _ => Err(format!("edge[{i}]: not a string")),
    };
    // Requests reach this decoder from untrusted lines: an endpoint past
    // `u32::MAX` is an error, never a truncated (different) node.
    let node = |i: usize| -> Result<NodeId, String> {
        let n = num(i)?;
        u32::try_from(n)
            .map(NodeId)
            .map_err(|_| format!("edges[{index}]: node {n} does not fit a u32 node id"))
    };
    let edge = || -> Result<EdgeSpec, String> {
        Ok(EdgeSpec {
            a: node(0)?,
            b: node(1)?,
            lanes: num(2)? as usize,
            length: Length::from_mm(num(3)?),
            media: from_wire(text(4)?)?,
            class: from_wire(text(5)?)?,
        })
    };
    Ok(edge())
}

fn read_controller(r: &mut Reader<'_>) -> Read<ControllerSpec> {
    let (mut kind, mut policy, mut epoch, mut routing) = (None, None, None, None);
    read_object(r, |name, r| match name {
        "epoch_ps" => fill(&mut epoch, r, |r| read_uint(r, name)),
        "kind" => fill(&mut kind, r, |r| read_str(r, name)),
        "policy" => fill(&mut policy, r, read_policy),
        "routing" => fill(&mut routing, r, |r| read_wire(r, name)),
        _ => r.skip(),
    })?;
    let controller = || -> Result<ControllerSpec, String> {
        match &*take(kind, "kind")? {
            "baseline" => Ok(ControllerSpec::Baseline),
            "adaptive" => Ok(ControllerSpec::Adaptive {
                policy: take(policy, "policy")?,
                epoch: SimDuration::from_picos(take(epoch, "epoch_ps")?),
                routing: take(routing, "routing")?,
            }),
            other => Err(format!("unknown controller kind {other:?}")),
        }
    };
    Ok(controller())
}

fn read_policy(r: &mut Reader<'_>) -> Read<CrcPolicy> {
    let (mut kind, mut budget) = (None, None);
    read_object(r, |name, r| match name {
        "budget_mw" => fill(&mut budget, r, |r| read_uint(r, name)),
        "kind" => fill(&mut kind, r, |r| read_str(r, name)),
        _ => r.skip(),
    })?;
    let policy = || -> Result<CrcPolicy, String> {
        let budget = || take(budget, "budget_mw").map(Power::from_milliwatts);
        Ok(match &*take(kind, "kind")? {
            "latency_minimize" => CrcPolicy::LatencyMinimize,
            "congestion_balance" => CrcPolicy::CongestionBalance,
            "power_cap" => CrcPolicy::PowerCap { budget: budget()? },
            "hybrid" => CrcPolicy::Hybrid { budget: budget()? },
            other => return Err(format!("unknown crc policy {other:?}")),
        })
    };
    Ok(policy())
}

fn read_workload(r: &mut Reader<'_>) -> Read<WorkloadSpec> {
    let mut kind = None;
    let (mut load, mut flows_per_node, mut zipf_exponent) = (None, None, None);
    let (mut ops_per_node, mut read_fraction) = (None, None);
    let (mut partition, mut request, mut size) = (None, None, None);
    let (mut io_size, mut mean_interarrival) = (None, None);
    read_object(r, |name, r| match name {
        "kind" => fill(&mut kind, r, |r| read_str(r, name)),
        "load" => fill(&mut load, r, |r| read_float(r, name)),
        "flows_per_node" => fill(&mut flows_per_node, r, |r| read_float(r, name)),
        "zipf_exponent" => fill(&mut zipf_exponent, r, |r| read_float(r, name)),
        "ops_per_node" => fill(&mut ops_per_node, r, |r| read_float(r, name)),
        "read_fraction" => fill(&mut read_fraction, r, |r| read_float(r, name)),
        "partition_bytes" => fill(&mut partition, r, |r| read_uint(r, name)),
        "request_bytes" => fill(&mut request, r, |r| read_uint(r, name)),
        "size_bytes" => fill(&mut size, r, |r| read_uint(r, name)),
        "io_size_bytes" => fill(&mut io_size, r, |r| read_uint(r, name)),
        "mean_interarrival_ps" => fill(&mut mean_interarrival, r, |r| read_uint(r, name)),
        _ => r.skip(),
    })?;
    let workload = || -> Result<WorkloadSpec, String> {
        let load = take(load, "load")?;
        let bytes = |slot, name| take(slot, name).map(Bytes::new);
        Ok(match &*take(kind, "kind")? {
            "shuffle" => WorkloadSpec::Shuffle {
                partition: bytes(partition, "partition_bytes")?,
                load,
            },
            "incast" => WorkloadSpec::Incast {
                request: bytes(request, "request_bytes")?,
                load,
            },
            "permutation" => WorkloadSpec::Permutation {
                size: bytes(size, "size_bytes")?,
                load,
            },
            "single_flow" => WorkloadSpec::SingleFlow {
                size: bytes(size, "size_bytes")?,
                load,
            },
            "uniform" => WorkloadSpec::Uniform {
                flows_per_node: take(flows_per_node, "flows_per_node")?,
                size: bytes(size, "size_bytes")?,
                mean_interarrival: SimDuration::from_picos(take(
                    mean_interarrival,
                    "mean_interarrival_ps",
                )?),
                load,
            },
            "hotspot" => WorkloadSpec::Hotspot {
                flows_per_node: take(flows_per_node, "flows_per_node")?,
                size: bytes(size, "size_bytes")?,
                zipf_exponent: take(zipf_exponent, "zipf_exponent")?,
                load,
            },
            "storage" => WorkloadSpec::Storage {
                ops_per_node: take(ops_per_node, "ops_per_node")?,
                io_size: bytes(io_size, "io_size_bytes")?,
                read_fraction: take(read_fraction, "read_fraction")?,
                load,
            },
            other => return Err(format!("unknown workload kind {other:?}")),
        })
    };
    Ok(workload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::json;

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
