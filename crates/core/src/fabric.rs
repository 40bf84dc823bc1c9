//! The adaptive fabric simulation: PLP + CRC + switching + workload, wired
//! into one discrete-event model.
//!
//! [`AdaptiveFabric`] implements [`Model`] for the DES engine. It owns the
//! physical state (links, lanes, bypasses), the topology graph, one egress
//! queue per directed link use, the per-node packet sequences, the
//! workload's flows, and — when `adaptive` is enabled — a
//! [`ClosedRingControl`](crate::controller::ClosedRingControl) that runs every
//! control epoch. With `adaptive` disabled the very same model is the static
//! packet-switched baseline the paper compares against.
//!
//! ## Hot-path architecture
//!
//! The per-packet datapath fires **one event per link drain** rather than
//! one per packet, and under shortest-hop and min-cost routing it does
//! **zero hashing**. (ECMP, Valiant, dimension-ordered and UGAL routing
//! look each injection's `(src, dst, flow)` up in a route-cache map under
//! a multiply-and-rotate hash of three words, not SipHash; see
//! `Network::route`.)
//!
//! * All per-link and per-port state lives in one `LinkTable`: the egress
//!   queues, the cached link constants (capacity, propagation, FEC latency,
//!   liveness), the reconfiguration fences, the epoch byte counter, the
//!   routing-cost snapshot and the route cache, in dense vectors indexed by
//!   [`LinkIdx`]/[`PortIdx`](rackfabric_topo::PortIdx) as interned once per
//!   topology epoch by a [`LinkArena`]. The sharded engine keeps one table
//!   per shard. The arena is rebuilt — and the queues and fences migrated by
//!   `LinkId` — only on whole-rack reconfigurations.
//! * Packets move in [`Train`]s: each injection admits a batch of
//!   back-to-back frames sized by the first link's rate window, and each hop
//!   forwards the whole batch with a single event. Per-packet latency stays
//!   exact (see [`Packet::arrived_at`](rackfabric_switch::packet::Packet)).
//!   The per-hop step — delivery check, dead link, fence hold, bypass or
//!   switch traversal into the egress port — is written once for both
//!   engines as `LinkTable::forward`; each engine keeps only its own
//!   bookkeeping and scheduling around it.
//! * A train allocates nothing of its own beyond its route's first walk.
//!   Injection, written once for both engines as `LinkTable::inject` and
//!   `Source::offer_train`, first asks the first link's port whether the
//!   train's first frame fits; if
//!   not, it offers that frame alone, which tail-drops it, and builds
//!   nothing. Otherwise it builds a fresh train into a packet buffer from
//!   the table's spare list and offers it to the port, and the frames past
//!   the port's first tail-drop are cut off again; every train that ends
//!   (delivered, dropped whole, or stopped by a dead link) refills the list
//!   with its emptied buffer. What the engines still allocate is mostly the
//!   calendar queue's bucket growth and, when sharded, the mailboxes
//!   (`tests/datapath_allocs.rs`).
//! * Routes are served from an epoch-invalidated [`RouteCache`]. Under the
//!   single-path algorithms one BFS/Dijkstra tree per source per epoch
//!   serves every destination; a route is walked out of the tree into one
//!   shared allocation on its first lookup, and a lookup is a hit when its
//!   source's tree already existed this epoch. Lookups lend the route; its
//!   handle is cloned only when a train leaves on it.
//! * Cost-aware routing (min cost, UGAL-style adaptive) reads one
//!   `LinkIdx`-indexed cost vector, the [`PriceBook`](crate::price::PriceBook)
//!   lowered once per price update and again whenever the arena is rebuilt
//!   (`PriceBook::link_costs`). Every link costs 1.0 before the first
//!   price update.
//! * Every control epoch runs the crate's one `ControlStep`, which the
//!   sharded coordinator runs too: one CRC epoch over the link tables.

use crate::control::{self, ControlStep};
use crate::controller::CrcConfig;
use crate::metrics::FabricMetrics;
use crate::nic::Source;
use rackfabric_phy::bypass::BypassTable;
use rackfabric_phy::{LinkState, PhyState, PlpTiming};
use rackfabric_sim::config::SimConfig;
use rackfabric_sim::event::{Context, Model};
use rackfabric_sim::stats::Counter;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_switch::model::SwitchModel;
use rackfabric_switch::packet::Packet;
use rackfabric_switch::queue::EgressQueue;
use rackfabric_switch::train::Train;
use rackfabric_topo::arena::{LinkArena, LinkIdx};
use rackfabric_topo::cache::{InternedRoute, RouteCache};
use rackfabric_topo::routing::{self, RoutingAlgorithm};
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::{NodeId, Topology};
use rackfabric_workload::Flow;
use std::sync::Arc;

/// Configuration of a fabric run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Engine-level configuration (seed, horizon).
    pub sim: SimConfig,
    /// The topology the rack starts in.
    pub spec: TopologySpec,
    /// A topology the CRC may escalate to under sustained congestion (the
    /// paper's grid-to-torus move). `None` disables topology escalation.
    pub upgrade_spec: Option<TopologySpec>,
    /// Per-lane signalling rate.
    pub lane_rate: BitRate,
    /// The switch datapath model used at every node.
    pub switch: SwitchModel,
    /// Routing algorithm used when admitting flows.
    pub routing: RoutingAlgorithm,
    /// Whether the Closed Ring Control is active (false = static baseline).
    pub adaptive: bool,
    /// CRC configuration (policy, epoch, price normalisation).
    pub crc: CrcConfig,
    /// Reconfiguration latency table for the PLP executor.
    pub plp_timing: PlpTiming,
    /// Egress buffer per port.
    pub port_buffer: Bytes,
    /// Packetisation size.
    pub mtu: Bytes,
    /// How long to wait before re-injecting after a drop.
    pub retry_delay: SimDuration,
    /// The rate window that sizes packet trains: each drain event transmits
    /// up to `capacity × train_window` bytes of MTU frames back-to-back.
    /// Larger windows collapse more events per train; the default (1 µs) is
    /// a fraction of the port buffer at 100 Gb/s.
    pub train_window: SimDuration,
    /// Stop the simulation as soon as every flow completes.
    pub stop_when_done: bool,
}

impl FabricConfig {
    /// An adaptive fabric over `spec` with the default CRC (hybrid policy).
    pub fn adaptive(spec: TopologySpec) -> Self {
        FabricConfig {
            sim: SimConfig::default(),
            spec,
            upgrade_spec: None,
            lane_rate: BitRate::from_gbps(25),
            switch: SwitchModel::cut_through(),
            routing: RoutingAlgorithm::MinCost,
            adaptive: true,
            crc: CrcConfig::default(),
            plp_timing: PlpTiming::default(),
            port_buffer: Bytes::from_kib(256),
            mtu: Bytes::new(1500),
            retry_delay: SimDuration::from_micros(10),
            train_window: SimDuration::from_micros(1),
            stop_when_done: true,
        }
    }

    /// The static packet-switched baseline over the same topology: no CRC, no
    /// PLP commands, shortest-hop routing. It is the same substrate (switches,
    /// links, workload) with the Closed Ring Control switched off, so every
    /// experiment that claims a win for the adaptive fabric compares against
    /// it: what you get if you never issue a PLP command.
    pub fn baseline(spec: TopologySpec) -> Self {
        FabricConfig {
            adaptive: false,
            routing: RoutingAlgorithm::ShortestHop,
            ..FabricConfig::adaptive(spec)
        }
    }
}

/// Per-flow progress, kept at the flow's source (by the sharded engine, at
/// its source shard).
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowProgress {
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) completed: bool,
    /// True while an injector wake-up for this flow is pending. Each flow
    /// keeps exactly **one** injector chain: without this, every drop-retry
    /// spawned an additional chain, and thousands of concurrent chains per
    /// flow re-probed full ports every retry interval (an event storm that
    /// multiplied drop counts ~100× under heavy shuffle).
    pub(crate) injector_armed: bool,
}

/// Cached per-link datapath constants, refreshed whenever the physical layer
/// changes (PLP commands, reconfigurations) — never consulted through a hash
/// map on the per-packet path. The default is a dead link.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkHot {
    pub(crate) capacity: BitRate,
    pub(crate) propagation: SimDuration,
    pub(crate) fec: SimDuration,
    pub(crate) up: bool,
}

impl LinkHot {
    /// True if the link is administratively up and carries capacity. A live
    /// link may still be fenced.
    #[inline]
    pub(crate) fn live(&self) -> bool {
        self.up && !self.capacity.is_zero()
    }

    /// Reads the constants of every link `arena` interns out of the physical
    /// state, `LinkIdx`-indexed. A link the physical state lacks is down.
    pub(crate) fn table(phy: &PhyState, arena: &LinkArena) -> Vec<LinkHot> {
        arena
            .iter()
            .map(|(_, id)| match phy.link(id) {
                Some(l) => LinkHot {
                    capacity: l.capacity(),
                    propagation: l.propagation_delay(),
                    fec: l.fec_latency(),
                    up: matches!(l.state, LinkState::Up),
                },
                None => LinkHot::default(),
            })
            .collect()
    }
}

/// The dense per-link state of one datapath — the monolithic engine's, or
/// one shard's — over one arena epoch, `LinkIdx`-indexed (the queues
/// `PortIdx`-indexed, two per link).
pub(crate) struct LinkTable {
    /// One egress queue per directed port. A shard only touches the ports
    /// its own nodes transmit on.
    pub(crate) ports: Vec<EgressQueue>,
    /// Link constants, re-read from the physical state whenever it changes.
    pub(crate) hot: Vec<LinkHot>,
    /// The instant each link's reconfiguration fence lifts (`<= now` when the
    /// link is not retraining). Traffic *waits* for a fence — retraining
    /// pauses the fabric, it does not black-hole it — whereas a dead link
    /// drops. A fence on a cut link is installed in every shard's table, so
    /// fences span shards.
    pub(crate) fences: Vec<SimTime>,
    /// Bytes each link carried this control epoch, switched or bypassed.
    pub(crate) epoch_bytes: Vec<u64>,
    /// Routing costs: the price book lowered once per price update and per
    /// arena rebuild, one snapshot shared by every table.
    pub(crate) costs: Arc<[f64]>,
    /// Epoch-invalidated routes; its hit and miss counters span the run.
    pub(crate) routes: RouteCache,
    /// Emptied packet buffers of trains that ended, which injections take
    /// their trains' buffers from.
    pub(crate) spare: Vec<Vec<Packet>>,
}

impl LinkTable {
    /// A table over `arena` with empty queues of `port_buffer` bytes and no
    /// fences.
    pub(crate) fn new(
        arena: &LinkArena,
        port_buffer: Bytes,
        hot: Vec<LinkHot>,
        costs: Arc<[f64]>,
    ) -> Self {
        LinkTable {
            ports: (0..arena.port_count())
                .map(|_| EgressQueue::new(port_buffer))
                .collect(),
            hot,
            fences: vec![SimTime::ZERO; arena.len()],
            epoch_bytes: vec![0; arena.len()],
            costs,
            routes: RouteCache::new(),
            spare: Vec::new(),
        }
    }

    /// Moves the table from arena `old` into `arena` (a whole-rack
    /// reconfiguration): the queues and fences of every surviving link carry
    /// over by `LinkId`, every fence then holds until at least
    /// `paused_until`, and the route cache — counters kept — moves to a new
    /// topology epoch under `costs`. The epoch byte counters start at zero: the
    /// control step has just reset them. The link constants are left for
    /// the caller to re-read.
    pub(crate) fn migrate(
        &mut self,
        old: &LinkArena,
        arena: &LinkArena,
        port_buffer: Bytes,
        costs: Arc<[f64]>,
        paused_until: SimTime,
    ) {
        let mut ports: Vec<EgressQueue> = (0..arena.port_count())
            .map(|_| EgressQueue::new(port_buffer))
            .collect();
        let mut fences = vec![paused_until; arena.len()];
        for (idx, id) in arena.iter() {
            if let Some(old_idx) = old.index(id) {
                fences[idx.index()] = self.fences[old_idx.index()].max(paused_until);
                // Endpoint sides are canonical (min, max), so port parity is
                // stable for a surviving link id.
                for side in 0..2 {
                    ports[idx.index() * 2 + side] = std::mem::replace(
                        &mut self.ports[old_idx.index() * 2 + side],
                        EgressQueue::new(port_buffer),
                    );
                }
            }
        }
        self.ports = ports;
        self.fences = fences;
        self.epoch_bytes = vec![0; arena.len()];
        self.costs = costs;
        self.routes.bump_topology_epoch();
    }

    /// Installs one control epoch's results: a new cost snapshot, if prices
    /// feed routing (which invalidates the cached routes), and the fences of
    /// the links PLP commands reconfigured.
    pub(crate) fn apply(&mut self, costs: Option<&Arc<[f64]>>, fences: &[(LinkIdx, SimTime)]) {
        if let Some(costs) = costs {
            self.costs = costs.clone();
            self.routes.bump_epoch();
        }
        for &(link, until) in fences {
            let fence = &mut self.fences[link.index()];
            *fence = (*fence).max(until);
        }
    }

    /// Keeps the packet buffer of a train that ended for a later injection.
    pub(crate) fn recycle(&mut self, mut packets: Vec<Packet>) {
        packets.clear();
        if packets.capacity() > 0 {
            self.spare.push(packets);
        }
    }

    /// Offers the next train of a flow at its source, the injection both
    /// engines run: the route lookup, the first-hop checks, and admission
    /// to the first link's egress port by [`Source::offer_train`], which
    /// turns a train away unbuilt when the port has no room for its first
    /// frame. A tail-drop counts one drop in `dropped`, as do a turned-away
    /// train and a dead first link.
    pub(crate) fn inject(
        &mut self,
        net: &Network<'_>,
        config: &FabricConfig,
        now: SimTime,
        mut source: Source<'_>,
        dropped: &mut Counter,
    ) -> Injection {
        let (flow, remaining) = (source.flow, source.remaining());
        if remaining == 0 || source.progress.completed {
            return Injection::Idle;
        }
        let retry_at = now + config.retry_delay;
        let Some(route) = net.route(
            &mut self.routes,
            config.routing,
            &self.costs,
            flow.src,
            flow.dst,
            flow.id.0,
        ) else {
            // No usable path right now (mid-reconfiguration); retry later.
            return Injection::Wait(retry_at);
        };
        if route.hops() == 0 {
            // Degenerate self-flow: no link rate bounds it, deliver all
            // remaining bytes at once.
            source.progress.injected += remaining;
            source.progress.delivered += remaining;
            return Injection::Local;
        }

        let first_link = route.link(0);
        let hot = self.hot[first_link.index()];
        if !hot.live() {
            dropped.incr();
            return Injection::Wait(retry_at);
        }
        let fence = self.fences[first_link.index()];
        if now < fence {
            // The first hop is retraining: hold injection until it returns.
            return Injection::Wait(fence);
        }

        let port = &mut self.ports[net.arena.port(flow.src, first_link).index()];
        let Some((packets, admission)) =
            source.offer_train(port, hot, config, now, &mut self.spare)
        else {
            dropped.incr();
            return Injection::Wait(retry_at);
        };
        if admission.dropped {
            dropped.incr();
        }
        let accepted_bytes: u64 = packets.iter().map(|p| p.size.as_u64()).sum();
        source.progress.injected += accepted_bytes;
        self.epoch_bytes[first_link.index()] += accepted_bytes;
        Injection::Sent(Sent {
            route: route.clone(),
            packets,
            last_departs_at: admission.last_departs_at,
            last_arrives_at: admission.last_arrives_at,
        })
    }

    /// Moves a train that has finished arriving at node `hop` of `route` one
    /// hop on, the forwarding step both engines run. A train at its
    /// destination is left to the caller. A dead egress link loses the whole
    /// train, as one drop. A fenced one holds it: every packet waits at this
    /// node until the fence lifts, and the wait is charged as queueing, since
    /// retraining pauses the fabric rather than black-holing it. A bypass
    /// (PLP #2) re-times the packets past the switching logic; otherwise
    /// each packet traverses `switch` and is offered to the egress port,
    /// which may cut the train's tail off. The bytes that leave count
    /// towards the link's epoch bytes, and `packets` keeps only them.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn forward(
        &mut self,
        arena: &LinkArena,
        bypasses: &BypassTable,
        switch: SwitchModel,
        now: SimTime,
        route: &InternedRoute,
        hop: usize,
        packets: &mut Vec<Packet>,
    ) -> Hop {
        let at_node = route.node(hop);
        if at_node == packets[0].dst {
            return Hop::Arrived;
        }
        let in_link = route.link(hop - 1);
        let out_link = route.link(hop);
        let hot = self.hot[out_link.index()];
        if !hot.live() {
            // The route's link disappeared in a reconfiguration. A fence
            // only ever holds a live link, so this check may come first.
            return Hop::Lost {
                bytes: packets.iter().map(|p| p.size.as_u64()).sum(),
            };
        }
        let fence = self.fences[out_link.index()];
        if now < fence {
            for packet in packets.iter_mut() {
                packet.breakdown.queueing += fence.saturating_since(packet.arrived_at);
                packet.arrived_at = fence;
            }
            return Hop::Held(fence);
        }

        let bypass = bypasses
            .lookup(at_node.as_u32(), arena.link_id(in_link))
            .filter(|b| b.out_link == arena.link_id(out_link));
        if let Some(bypass) = bypass {
            let mut next = now;
            let mut bytes = 0;
            for packet in packets.iter_mut() {
                packet.breakdown.bypass += bypass.latency;
                packet.breakdown.propagation += hot.propagation;
                packet.breakdown.fec += hot.fec;
                // Each frame re-times from its own arrival at this node.
                packet.arrived_at = packet.arrived_at + bypass.latency + hot.propagation + hot.fec;
                next = next.max(packet.arrived_at);
                bytes += packet.size.as_u64();
            }
            self.epoch_bytes[out_link.index()] += bytes;
            return Hop::Moved { next, cut: None };
        }

        for packet in packets.iter_mut() {
            let traversal = switch.traversal_latency_at(packet.size, hot.capacity);
            packet.breakdown.switching += traversal;
            // Each frame becomes ready at the egress port a traversal after
            // its *own* arrival at this node, preserving the per-packet
            // pipelining across hops (the train event merely batches the
            // bookkeeping at the last frame's arrival).
            packet.arrived_at += traversal;
        }
        let port = arena.port(at_node, out_link);
        let admission = self.ports[port.index()].enqueue_train(
            packets,
            hot.capacity,
            hot.propagation,
            hot.fec,
            false,
        );
        let (sent, tail) = packets.split_at(admission.accepted);
        self.epoch_bytes[out_link.index()] += sent.iter().map(|p| p.size.as_u64()).sum::<u64>();
        // The source re-sends the whole tail from the frame the port
        // overflowed on.
        let cut = admission
            .dropped
            .then(|| tail.iter().map(|p| p.size.as_u64()).sum::<u64>());
        packets.truncate(admission.accepted);
        match cut {
            Some(bytes) if packets.is_empty() => Hop::Lost { bytes },
            // The last accepted frame's arrival is at or after this event in
            // every reachable state; the clamp guards the engines'
            // no-past-scheduling invariant against pathological timing
            // interleavings.
            _ => Hop::Moved {
                next: admission.last_arrives_at.max(now),
                cut,
            },
        }
    }
}

/// What one forwarding step did to a train (see [`LinkTable::forward`]).
/// A cut tail and a lost train each count one drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hop {
    /// The train is at its destination and was not touched.
    Arrived,
    /// The egress link is retraining: the train arrives at this node again
    /// at this instant, when the fence lifts.
    Held(SimTime),
    /// The train, or the prefix of it the port accepted, left for the next
    /// node, where it finishes arriving at `next`. `cut` is the bytes of a
    /// tail the port cut off.
    Moved { next: SimTime, cut: Option<u64> },
    /// Nothing left: the egress link is dead, or the port dropped the
    /// train's first frame. The source re-sends `bytes`.
    Lost { bytes: u64 },
}

/// What one injection attempt did (see [`LinkTable::inject`]).
pub(crate) enum Injection {
    /// Nothing is left to send.
    Idle,
    /// The flow's source is its destination: its remaining bytes were
    /// delivered in place.
    Local,
    /// Nothing was sent: the injector wakes again at this instant, the
    /// retry delay after a missing route, a dead first link or a rejected
    /// first frame, or the lifting of the first link's fence.
    Wait(SimTime),
    /// A train was admitted to the first link.
    Sent(Sent),
}

/// A train an injection admitted: the packets leave on hop 0 of `route`.
pub(crate) struct Sent {
    pub(crate) route: InternedRoute,
    pub(crate) packets: Vec<Packet>,
    /// When the last packet leaves the source, which is when the flow's
    /// next train may start.
    pub(crate) last_departs_at: SimTime,
    /// When the last packet arrives at hop 1, the train's event time.
    pub(crate) last_arrives_at: SimTime,
}

/// The topology epoch routes are looked up in: the graph, its arena, the
/// spec it matches and the spec's node-to-rack table. Each engine lends its
/// own (the sharded engine's is shared by every shard).
pub(crate) struct Network<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) arena: &'a LinkArena,
    pub(crate) spec: &'a TopologySpec,
    pub(crate) racks: &'a [u32],
}

impl Network<'_> {
    /// The interned route for `(src, dst)` under `routing`, served from the
    /// epoch cache `cache` and borrowed from it.
    ///
    /// The single-path algorithms (shortest hop, min cost) go through the
    /// cache's per-source trees, see [`RouteCache::tree_route`], and
    /// adaptive routing through its price-free candidates, see
    /// [`RouteCache::adaptive_route`]. The other per-pair ones compute on a
    /// miss, keyed by flow when the algorithm is per-flow.
    pub(crate) fn route<'c>(
        &self,
        cache: &'c mut RouteCache,
        routing: RoutingAlgorithm,
        costs: &[f64],
        src: NodeId,
        dst: NodeId,
        flow_seq: u64,
    ) -> Option<&'c InternedRoute> {
        let (topo, arena) = (self.topo, self.arena);
        match routing {
            RoutingAlgorithm::ShortestHop => cache.tree_route(topo, arena, None, src, dst),
            RoutingAlgorithm::MinCost => cache.tree_route(topo, arena, Some(costs), src, dst),
            RoutingAlgorithm::Adaptive => {
                cache.adaptive_route(topo, arena, self.racks, costs, src, dst, flow_seq)
            }
            _ => {
                let selector = if routing.per_flow() { flow_seq } else { 0 };
                cache.get_or_compute(src, dst, selector, || {
                    match routing {
                        RoutingAlgorithm::Ecmp => routing::ecmp_select(topo, src, dst, flow_seq),
                        RoutingAlgorithm::Valiant => {
                            routing::valiant_route(topo, self.racks, src, dst, flow_seq)
                        }
                        _ => routing::dimension_ordered(self.spec, topo, src, dst)
                            .or_else(|| routing::shortest_path(topo, src, dst)),
                    }
                    .and_then(|r| InternedRoute::intern(r, arena))
                })
            }
        }
    }
}

/// Events driving the fabric model.
#[derive(Debug, Clone)]
pub enum FabricEvent {
    /// A workload flow becomes ready to send.
    FlowStart(usize),
    /// Inject the next packet train of a flow at its source.
    InjectNext(usize),
    /// A packet train finishes arriving at a node (timestamped at its last
    /// packet's arrival; earlier packets carry their own instants).
    TrainArrive {
        /// The train (packets plus shared route and hop cursor).
        train: Train,
    },
    /// One Closed Ring Control epoch.
    CrcEpoch,
}

/// The fabric simulation model.
pub struct AdaptiveFabric {
    /// Run configuration.
    pub config: FabricConfig,
    /// The physical interconnect state.
    pub phy: PhyState,
    /// The topology graph.
    pub topo: Topology,
    /// The spec the fabric currently matches.
    pub current_spec: TopologySpec,
    /// Collected metrics.
    pub metrics: FabricMetrics,
    control: ControlStep,
    flows: Vec<Flow>,
    progress: Vec<FlowProgress>,
    /// Per-node packet sequence numbers (see [`Source::next_packet`]).
    next_packet: Vec<u64>,
    /// Dense link/port interning for the current topology epoch.
    arena: LinkArena,
    links: LinkTable,
    /// Node-to-rack table of the current spec (dragonfly groups, torus
    /// rows), consumed by the rack-detour routing policies. Rebuilt with
    /// the arena after whole-rack reconfigurations.
    racks: Vec<u32>,
    completed_flows: usize,
}

impl AdaptiveFabric {
    /// Builds the fabric and registers the workload's flows.
    pub fn new(config: FabricConfig, flows: Vec<Flow>) -> Self {
        let mut phy = PhyState::new();
        let topo = config.spec.instantiate(&mut phy, config.lane_rate);
        let next_packet = vec![0; config.spec.nodes];
        let progress = vec![FlowProgress::default(); flows.len()];
        let control = ControlStep::new(&config);
        let arena = LinkArena::build(&topo);
        let links = LinkTable::new(
            &arena,
            config.port_buffer,
            LinkHot::table(&phy, &arena),
            control.costs(&arena),
        );
        AdaptiveFabric {
            current_spec: config.spec.clone(),
            racks: config.spec.rack_of(),
            config,
            phy,
            topo,
            metrics: FabricMetrics::default(),
            control,
            flows,
            progress,
            next_packet,
            arena,
            links,
            completed_flows: 0,
        }
    }

    /// The flows registered with the fabric.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// True once every registered flow has delivered all of its bytes.
    pub fn all_flows_complete(&self) -> bool {
        self.completed_flows == self.flows.len()
    }

    /// Route-cache hit/miss counters for this run so far.
    pub fn route_cache_stats(&self) -> rackfabric_topo::cache::RouteCacheStats {
        self.links.routes.stats()
    }

    /// Schedules the flow's injector wake-up at `at`, unless one is already
    /// pending (one injector chain per flow, see [`FlowProgress`]).
    fn arm_injector(&mut self, ctx: &mut Context<FabricEvent>, flow_idx: usize, at: SimTime) {
        if !self.progress[flow_idx].injector_armed {
            self.progress[flow_idx].injector_armed = true;
            ctx.schedule_at(at.max(ctx.now()), FabricEvent::InjectNext(flow_idx));
        }
    }

    /// Injects the next train of a flow at its source.
    fn inject_next(&mut self, ctx: &mut Context<FabricEvent>, flow_idx: usize) {
        // This call *is* the pending injector wake-up; the chain re-arms
        // below if there is more to send.
        self.progress[flow_idx].injector_armed = false;
        let flow = self.flows[flow_idx];
        let net = Network {
            topo: &self.topo,
            arena: &self.arena,
            spec: &self.current_spec,
            racks: &self.racks,
        };
        let source = Source {
            index: flow_idx,
            flow,
            progress: &mut self.progress[flow_idx],
            next_packet: &mut self.next_packet[flow.src.index()],
        };
        let dropped = &mut self.metrics.dropped_packets;
        match self
            .links
            .inject(&net, &self.config, ctx.now(), source, dropped)
        {
            Injection::Idle => {}
            Injection::Local => self.check_flow_completion(ctx, flow_idx),
            Injection::Wait(at) => self.arm_injector(ctx, flow_idx, at),
            Injection::Sent(sent) => {
                let train = Train {
                    route: sent.route,
                    hop_index: 1,
                    packets: sent.packets,
                };
                ctx.schedule_at(sent.last_arrives_at, FabricEvent::TrainArrive { train });
                // Pipeline the next train right behind this one's last frame.
                self.arm_injector(ctx, flow_idx, sent.last_departs_at);
            }
        }
    }

    /// Drops an in-flight train, or its tail, as one drop: the source
    /// re-sends its bytes after the retry delay (merged into the flow's
    /// single injector chain).
    fn drop_train(&mut self, ctx: &mut Context<FabricEvent>, flow_idx: usize, bytes: u64) {
        self.metrics.dropped_packets.incr();
        let p = &mut self.progress[flow_idx];
        p.injected = p.injected.saturating_sub(bytes);
        let retry_at = ctx.now() + self.config.retry_delay;
        self.arm_injector(ctx, flow_idx, retry_at);
    }

    /// Handles a train finishing arrival at its next node: final delivery or
    /// one batched forward.
    fn train_arrive(&mut self, ctx: &mut Context<FabricEvent>, mut train: Train) {
        let flow_idx = train.packets[0].flow.0 as usize;
        let hop = self.links.forward(
            &self.arena,
            &self.phy.bypasses,
            self.config.switch,
            ctx.now(),
            &train.route,
            train.hop_index,
            &mut train.packets,
        );
        match hop {
            Hop::Arrived => {
                // Per-packet metrics at each packet's own analytic arrival
                // instant.
                self.progress[flow_idx].delivered += self.metrics.record_delivery(&train.packets);
                self.links.recycle(train.packets);
                self.check_flow_completion(ctx, flow_idx);
            }
            Hop::Held(at) => {
                ctx.schedule_at(at, FabricEvent::TrainArrive { train });
            }
            Hop::Moved { next, cut } => {
                // Event ids break same-instant ties, so the drop, which may
                // arm the injector, goes before the train's next arrival.
                if let Some(bytes) = cut {
                    self.drop_train(ctx, flow_idx, bytes);
                }
                train.hop_index += 1;
                ctx.schedule_at(next, FabricEvent::TrainArrive { train });
            }
            Hop::Lost { bytes } => {
                self.links.recycle(train.packets);
                self.drop_train(ctx, flow_idx, bytes);
            }
        }
    }

    fn check_flow_completion(&mut self, ctx: &mut Context<FabricEvent>, flow_idx: usize) {
        let flow = self.flows[flow_idx];
        let p = &mut self.progress[flow_idx];
        if !p.completed && p.delivered >= flow.size.as_u64() {
            p.completed = true;
            self.completed_flows += 1;
            let fct = ctx.now().saturating_since(flow.start_at);
            self.metrics.flow_completions.push((flow.id, fct));
            if self.completed_flows == self.flows.len() {
                self.metrics.job_completion = Some(ctx.now());
                if self.config.stop_when_done {
                    ctx.stop();
                }
            }
        }
    }

    fn crc_epoch(&mut self, ctx: &mut Context<FabricEvent>) {
        let now = ctx.now();
        let epoch = self.control.run(
            now,
            &self.config,
            &mut self.phy,
            &self.arena,
            &mut [&mut self.links],
            |_| 0,
            &mut self.metrics,
        );
        if epoch.phy_changed {
            self.links.hot = LinkHot::table(&self.phy, &self.arena);
        }
        if let Some(target) = epoch.escalate {
            self.upgrade_topology(now, target);
        }
        ctx.schedule_in(self.config.crc.epoch, FabricEvent::CrcEpoch);
    }

    /// Escalates to `target` and, once applied, re-interns the link set and
    /// migrates the link table onto it, fencing every link while the fabric
    /// re-trains (worst case, conservative).
    fn upgrade_topology(&mut self, now: SimTime, target: TopologySpec) {
        let Some(until) = self.control.escalate(
            now,
            &self.current_spec,
            &target,
            &mut self.topo,
            &mut self.phy,
            &mut self.metrics,
        ) else {
            return;
        };
        let arena = LinkArena::build(&self.topo);
        let costs = self.control.costs(&arena);
        self.links
            .migrate(&self.arena, &arena, self.config.port_buffer, costs, until);
        self.links.hot = LinkHot::table(&self.phy, &arena);
        self.arena = arena;
        self.racks = target.rack_of();
        self.current_spec = target;
    }
}

impl Model for AdaptiveFabric {
    type Event = FabricEvent;

    fn init(&mut self, ctx: &mut Context<FabricEvent>) {
        // The scenario layer may have applied PLP commands (FEC, lane caps,
        // power states) between construction and the first event; re-read
        // the link constants so the datapath sees them.
        self.links.hot = LinkHot::table(&self.phy, &self.arena);
        for (idx, flow) in self.flows.iter().enumerate() {
            ctx.schedule_at(flow.start_at, FabricEvent::FlowStart(idx));
        }
        ctx.schedule_in(self.config.crc.epoch, FabricEvent::CrcEpoch);
    }

    fn handle(&mut self, ctx: &mut Context<FabricEvent>, event: FabricEvent) {
        match event {
            FabricEvent::FlowStart(idx) | FabricEvent::InjectNext(idx) => {
                self.inject_next(ctx, idx)
            }
            FabricEvent::TrainArrive { train } => self.train_arrive(ctx, train),
            FabricEvent::CrcEpoch => self.crc_epoch(ctx),
        }
    }

    fn finish(&mut self, ctx: &mut Context<FabricEvent>) {
        // Flush the tail of the epoch's lane statistics and publish the
        // route-cache counters into the metrics.
        control::flush_epoch_bytes(
            ctx.now(),
            &mut self.phy,
            &self.arena,
            &mut [&mut self.links],
        );
        let stats = self.links.routes.stats();
        self.metrics.route_cache_hits = stats.hits;
        self.metrics.route_cache_misses = stats.misses;
    }
}

/// Runs a fabric configuration against a workload and returns the model with
/// its collected metrics.
pub fn run_fabric(config: FabricConfig, flows: Vec<Flow>) -> AdaptiveFabric {
    let horizon = config.sim.horizon;
    let seed = config.sim.seed;
    let budget = config.sim.event_budget;
    let mut sim = rackfabric_sim::Simulator::new(AdaptiveFabric::new(config, flows), seed)
        .with_event_budget(budget);
    sim.run_until(horizon);
    sim.into_model()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::DetRng;
    use rackfabric_switch::packet::FlowId;
    use rackfabric_switch::queue::EnqueueOutcome;
    use rackfabric_workload::{MapReduceShuffle, Workload};

    fn small_shuffle(nodes: usize, partition: Bytes) -> Vec<Flow> {
        MapReduceShuffle::all_to_all(nodes, partition).generate(&mut DetRng::new(7))
    }

    fn quick_config(spec: TopologySpec) -> FabricConfig {
        let mut c = FabricConfig::adaptive(spec);
        c.sim = SimConfig::with_seed(1).horizon(SimTime::from_millis(50));
        c
    }

    #[test]
    fn single_flow_completes_with_sane_latency() {
        let spec = TopologySpec::line(4, 4);
        let mut config = quick_config(spec);
        config.adaptive = false;
        config.routing = RoutingAlgorithm::ShortestHop;
        let flows = vec![Flow {
            id: rackfabric_workload::WorkloadFlowId(0),
            src: NodeId(0),
            dst: NodeId(3),
            size: Bytes::from_kib(15),
            start_at: SimTime::ZERO,
        }];
        let fabric = run_fabric(config, flows);
        assert!(fabric.all_flows_complete());
        let s = fabric.metrics.summary();
        assert_eq!(s.completed_flows, 1);
        assert_eq!(s.delivered_bytes, 15 * 1024);
        assert_eq!(s.dropped_packets, 0);
        assert!(s.packet_latency.p50 > 0.0);
        // Per-packet latency should be of order a few microseconds at most on
        // an idle 4-node line.
        assert!(
            s.packet_latency.max < 20_000_000.0,
            "p_max latency {} ps is implausibly high",
            s.packet_latency.max
        );
        // Every packet crossed the two intermediate switches (nodes 1, 2),
        // each adding the same cut-through traversal.
        let capacity = fabric
            .phy
            .link(fabric.arena.link_id(LinkIdx(0)))
            .unwrap()
            .capacity();
        let traversal = SwitchModel::cut_through().traversal_latency_at(Bytes::new(1500), capacity);
        assert_eq!(
            fabric.metrics.breakdown.switching,
            traversal * (2 * s.delivered_packets)
        );
    }

    #[test]
    fn shuffle_completes_on_grid_baseline_and_adaptive() {
        let flows = small_shuffle(9, Bytes::from_kib(8));
        let baseline = {
            let mut c = FabricConfig::baseline(TopologySpec::grid(3, 3, 2));
            c.sim = SimConfig::with_seed(2).horizon(SimTime::from_millis(100));
            run_fabric(c, flows.clone())
        };
        let adaptive = {
            let mut c = quick_config(TopologySpec::grid(3, 3, 2));
            c.sim = SimConfig::with_seed(2).horizon(SimTime::from_millis(100));
            run_fabric(c, flows)
        };
        assert!(
            baseline.all_flows_complete(),
            "baseline must finish the shuffle"
        );
        assert!(
            adaptive.all_flows_complete(),
            "adaptive must finish the shuffle"
        );
        assert_eq!(baseline.metrics.summary().completed_flows, 72);
        assert_eq!(adaptive.metrics.summary().completed_flows, 72);
        // Both delivered the same volume.
        assert_eq!(
            baseline.metrics.delivered_bytes,
            adaptive.metrics.delivered_bytes
        );
    }

    #[test]
    fn baseline_config_disables_the_crc() {
        let c = FabricConfig::baseline(TopologySpec::grid(2, 2, 2));
        assert!(!c.adaptive);
        assert_eq!(c.routing, RoutingAlgorithm::ShortestHop);
        assert!(c.upgrade_spec.is_none());
    }

    #[test]
    fn baseline_never_issues_plp_commands() {
        let flows =
            MapReduceShuffle::all_to_all(4, Bytes::from_kib(4)).generate(&mut DetRng::new(1));
        let mut config = FabricConfig::baseline(TopologySpec::grid(2, 2, 2));
        config.sim = SimConfig::with_seed(1).horizon(SimTime::from_millis(50));
        let fabric = run_fabric(config, flows);
        assert!(fabric.all_flows_complete());
        assert!(fabric.metrics.reconfig_events.is_empty());
        assert_eq!(fabric.metrics.topology_reconfigurations, 0);
    }

    #[test]
    fn runs_are_deterministic_for_the_same_seed() {
        let flows = small_shuffle(4, Bytes::from_kib(4));
        let run = |seed| {
            let mut c = quick_config(TopologySpec::grid(2, 2, 2));
            c.sim = SimConfig::with_seed(seed).horizon(SimTime::from_millis(50));
            let f = run_fabric(c, flows.clone());
            (
                f.metrics.summary().job_completion_us,
                f.metrics.delivered_bytes,
                f.metrics.summary().packet_latency.p99,
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn telemetry_series_repeat_bit_for_bit() {
        let flows = small_shuffle(16, Bytes::from_kib(64));
        let run = || {
            let mut c = quick_config(TopologySpec::grid(4, 4, 2));
            c.crc.epoch = SimDuration::from_micros(5);
            run_fabric(c, flows.clone()).metrics
        };
        let bits = |s: &rackfabric_sim::stats::Series| -> Vec<(u64, u64)> {
            s.points()
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        };
        let first = run();
        assert!(first.throughput_series.len() > 10);
        for _ in 0..4 {
            let again = run();
            for (a, b) in [
                (&first.power_series, &again.power_series),
                (&first.utilization_series, &again.utilization_series),
                (&first.throughput_series, &again.throughput_series),
            ] {
                assert_eq!(bits(a), bits(b), "{} must repeat bit for bit", a.name);
            }
        }
    }

    #[test]
    fn self_flows_complete_trivially() {
        let spec = TopologySpec::line(2, 2);
        let config = quick_config(spec);
        let flows = vec![Flow {
            id: rackfabric_workload::WorkloadFlowId(0),
            src: NodeId(1),
            dst: NodeId(1),
            size: Bytes::from_kib(4),
            start_at: SimTime::ZERO,
        }];
        let fabric = run_fabric(config, flows);
        assert!(fabric.all_flows_complete());
    }

    #[test]
    fn adaptive_fabric_issues_plp_commands_under_idle_power_policy() {
        use crate::policy::CrcPolicy;
        use rackfabric_sim::units::Power;
        // An idle-ish fabric under a power-cap policy sheds lanes.
        let mut config = quick_config(TopologySpec::grid(3, 3, 4));
        config.crc.policy = CrcPolicy::PowerCap {
            budget: Power::from_kilowatts(10),
        };
        config.stop_when_done = false;
        config.sim = SimConfig::with_seed(3).horizon(SimTime::from_millis(2));
        let flows = vec![Flow {
            id: rackfabric_workload::WorkloadFlowId(0),
            src: NodeId(0),
            dst: NodeId(8),
            size: Bytes::from_kib(1),
            start_at: SimTime::ZERO,
        }];
        let fabric = run_fabric(config, flows);
        assert!(
            !fabric.metrics.reconfig_events.is_empty(),
            "the power-cap CRC should have shed lanes on idle links"
        );
        // Power must have gone down over the run.
        let first = fabric
            .metrics
            .power_series
            .points()
            .first()
            .map(|&(_, y)| y)
            .unwrap();
        let last = fabric.metrics.power_series.last_y().unwrap();
        assert!(
            last < first,
            "power should drop as lanes are shed ({first} -> {last})"
        );
    }

    #[test]
    fn congestion_escalates_grid_to_torus_when_upgrade_spec_is_given() {
        let flows = small_shuffle(16, Bytes::from_kib(64));
        let mut config = quick_config(TopologySpec::grid(4, 4, 2));
        config.upgrade_spec = Some(TopologySpec::torus(4, 4, 1));
        config.crc.epoch = SimDuration::from_micros(20);
        config.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(200));
        let fabric = run_fabric(config, flows);
        assert!(fabric.all_flows_complete(), "shuffle must finish");
        assert_eq!(
            fabric.metrics.topology_reconfigurations, 1,
            "sustained shuffle pressure should trigger exactly one grid->torus upgrade"
        );
        assert_eq!(fabric.current_spec.name, TopologySpec::torus(4, 4, 1).name);
        assert!(fabric.topo.diameter().unwrap() <= 4);
    }

    #[test]
    fn route_cache_serves_repeat_admissions() {
        let flows = small_shuffle(9, Bytes::from_kib(32));
        let mut c = FabricConfig::baseline(TopologySpec::grid(3, 3, 2));
        c.sim = SimConfig::with_seed(6).horizon(SimTime::from_millis(100));
        let fabric = run_fabric(c, flows);
        assert!(fabric.all_flows_complete());
        let stats = fabric.route_cache_stats();
        assert!(stats.hits > 0, "repeat admissions must hit the cache");
        assert!(
            stats.hit_rate() > 0.5,
            "static routing should be overwhelmingly cached (rate {})",
            stats.hit_rate()
        );
        let s = fabric.metrics.summary();
        assert_eq!(s.route_cache_hits, stats.hits);
        assert_eq!(s.route_cache_misses, stats.misses);
        assert!(s.route_cache_hit_rate > 0.5);
    }

    #[test]
    fn trains_batch_multiple_frames_per_event() {
        // A single large flow on an idle line: packets must travel in
        // multi-frame trains, i.e. far fewer events than frames.
        let spec = TopologySpec::line(2, 4);
        let mut config = quick_config(spec);
        config.adaptive = false;
        config.routing = RoutingAlgorithm::ShortestHop;
        let flows = vec![Flow {
            id: rackfabric_workload::WorkloadFlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: Bytes::from_kib(600),
            start_at: SimTime::ZERO,
        }];
        let horizon = config.sim.horizon;
        let seed = config.sim.seed;
        let mut sim = rackfabric_sim::Simulator::new(AdaptiveFabric::new(config, flows), seed);
        sim.run_until(horizon);
        let events = sim.events_processed();
        let fabric = sim.into_model();
        assert!(fabric.all_flows_complete());
        let frames = fabric.metrics.delivered_packets.get();
        assert!(frames > 100, "600 KiB is hundreds of MTU frames");
        assert!(
            events < frames,
            "batching must use fewer events ({events}) than frames ({frames})"
        );
    }

    /// A four-node line, its link table and the interned route from node 0
    /// to node 3, for driving [`LinkTable::forward`] by hand.
    struct Line {
        phy: PhyState,
        arena: LinkArena,
        links: LinkTable,
        route: InternedRoute,
    }

    const FRAME: u64 = 1500;

    impl Line {
        fn new(port_buffer: Bytes) -> Self {
            let mut phy = PhyState::new();
            let topo = TopologySpec::line(4, 4).instantiate(&mut phy, BitRate::from_gbps(25));
            let arena = LinkArena::build(&topo);
            let hot = LinkHot::table(&phy, &arena);
            let links = LinkTable::new(&arena, port_buffer, hot, vec![1.0; arena.len()].into());
            let route = routing::shortest_path(&topo, NodeId(0), NodeId(3))
                .and_then(|r| InternedRoute::intern(r, &arena))
                .expect("a line routes end to end");
            Line {
                phy,
                arena,
                links,
                route,
            }
        }

        /// Forwards `packets` as a train that finished arriving at node
        /// `hop` of the route at `now`.
        fn forward(&mut self, now: SimTime, hop: usize, packets: &mut Vec<Packet>) -> Hop {
            self.links.forward(
                &self.arena,
                &self.phy.bypasses,
                SwitchModel::cut_through(),
                now,
                &self.route,
                hop,
                packets,
            )
        }

        fn epoch_bytes(&self) -> u64 {
            self.links.epoch_bytes.iter().sum()
        }
    }

    /// `n` MTU frames of flow 0 from node 0 to node 3, the `i`th finishing
    /// its arrival `i` ns after `first`.
    fn frames(n: u64, first: SimTime) -> Vec<Packet> {
        use rackfabric_switch::packet::PacketId;
        (0..n)
            .map(|i| {
                let mut packet = Packet::new(
                    PacketId(i),
                    FlowId(0),
                    NodeId(0),
                    NodeId(3),
                    Bytes::new(FRAME),
                    SimTime::ZERO,
                );
                packet.arrived_at = first + SimDuration::from_nanos(i);
                packet
            })
            .collect()
    }

    #[test]
    fn forward_leaves_a_train_at_its_destination_untouched() {
        let mut line = Line::new(Bytes::from_kib(256));
        let now = SimTime::from_micros(1);
        let mut packets = frames(3, now);
        let before = packets.clone();
        assert_eq!(line.forward(now, 3, &mut packets), Hop::Arrived);
        assert_eq!(packets, before);
        assert_eq!(line.epoch_bytes(), 0);
    }

    #[test]
    fn forward_holds_a_fenced_train_and_charges_the_wait_as_queueing() {
        let mut line = Line::new(Bytes::from_kib(256));
        let now = SimTime::from_micros(1);
        let fence = now + SimDuration::from_micros(5);
        line.links.fences[line.route.link(1).index()] = fence;
        let mut packets = frames(3, SimTime::from_nanos(990));
        let before = packets.clone();
        assert_eq!(line.forward(now, 1, &mut packets), Hop::Held(fence));
        assert_eq!(packets.len(), 3);
        for (held, was) in packets.iter().zip(&before) {
            assert_eq!(held.arrived_at, fence);
            assert_eq!(
                held.breakdown.queueing,
                fence.saturating_since(was.arrived_at)
            );
            assert_eq!(held.breakdown.switching, SimDuration::ZERO);
        }
        assert_eq!(line.epoch_bytes(), 0);
    }

    #[test]
    fn forward_bypasses_the_switch_and_counts_the_epoch_bytes() {
        use rackfabric_phy::bypass::Bypass;
        let mut line = Line::new(Bytes::from_kib(256));
        let (in_link, out_link) = (line.route.link(0), line.route.link(1));
        let latency = Bypass::default_latency();
        line.phy
            .bypasses
            .install(Bypass {
                at_node: 1,
                in_link: line.arena.link_id(in_link),
                out_link: line.arena.link_id(out_link),
                latency,
            })
            .unwrap();
        let hot = line.links.hot[out_link.index()];
        let now = SimTime::from_micros(1);
        let mut packets = frames(3, SimTime::from_nanos(990));
        let before = packets.clone();
        let hop = line.forward(now, 1, &mut packets);
        let last = before[2].arrived_at + latency + hot.propagation + hot.fec;
        assert_eq!(
            hop,
            Hop::Moved {
                next: last,
                cut: None
            }
        );
        for (moved, was) in packets.iter().zip(&before) {
            assert_eq!(
                moved.arrived_at,
                was.arrived_at + latency + hot.propagation + hot.fec
            );
            assert_eq!(moved.breakdown.bypass, latency);
            assert_eq!(moved.breakdown.switching, SimDuration::ZERO);
        }
        assert_eq!(line.links.epoch_bytes[out_link.index()], 3 * FRAME);
        assert_eq!(line.epoch_bytes(), 3 * FRAME);
    }

    #[test]
    fn forward_loses_a_train_whole_at_a_dead_egress_link() {
        let mut line = Line::new(Bytes::from_kib(256));
        let out_link = line.route.link(1);
        line.links.hot[out_link.index()] = LinkHot::default();
        let now = SimTime::from_micros(1);
        let mut packets = frames(3, now);
        let before = packets.clone();
        // One drop for the whole train, as for a train the port turns away.
        assert_eq!(
            line.forward(now, 1, &mut packets),
            Hop::Lost { bytes: 3 * FRAME }
        );
        assert_eq!(packets, before, "nothing crossed the switch");
        assert_eq!(line.epoch_bytes(), 0);
    }

    #[test]
    fn forward_cuts_the_tail_a_small_port_drops() {
        // Room for two frames: the third overflows, and the tail from it on
        // is re-sent.
        let mut line = Line::new(Bytes::new(2 * FRAME));
        let out_link = line.route.link(1);
        let rate = line.links.hot[out_link.index()].capacity;
        let traversal = SwitchModel::cut_through().traversal_latency_at(Bytes::new(FRAME), rate);
        let now = SimTime::from_micros(1);
        let mut packets = frames(5, now);
        let hop = line.forward(now, 1, &mut packets);
        assert_eq!(packets.len(), 2, "the accepted prefix leaves");
        assert_eq!(
            hop,
            Hop::Moved {
                next: packets[1].arrived_at,
                cut: Some(3 * FRAME)
            }
        );
        assert!(packets.iter().all(|p| p.breakdown.switching == traversal));
        assert_eq!(line.links.epoch_bytes[out_link.index()], 2 * FRAME);
        // The port was offered the two frames it took and the one it
        // dropped, and nothing of the tail behind them.
        let mut alone = EgressQueue::new(Bytes::new(2 * FRAME));
        for frame in frames(3, now) {
            alone.enqueue(frame.arrived_at + traversal, frame.size, rate);
        }
        let port = &mut line.links.ports[line.arena.port(NodeId(1), out_link).index()];
        for at in [now + SimDuration::from_nanos(500), SimTime::from_micros(5)] {
            assert_eq!(port.backlog_at(at), alone.backlog_at(at), "backlog at {at}");
            assert_eq!(
                port.mean_occupancy(at),
                alone.mean_occupancy(at),
                "mean at {at}"
            );
        }
    }

    #[test]
    fn forward_loses_a_train_whose_first_frame_the_port_drops() {
        let mut line = Line::new(Bytes::new(2 * FRAME));
        let out_link = line.route.link(1);
        let rate = line.links.hot[out_link.index()].capacity;
        let now = SimTime::from_micros(1);
        let port = line.arena.port(NodeId(1), out_link).index();
        // Fill the port as of a later instant: an offer before it sees the
        // whole backlog, so the train's first frame finds no room.
        let later = SimTime::from_millis(1);
        while line.links.ports[port].admits(later, Bytes::new(FRAME)) {
            line.links.ports[port].enqueue(later, Bytes::new(FRAME), rate);
        }
        let mut packets = frames(3, now);
        assert_eq!(
            line.forward(now, 1, &mut packets),
            Hop::Lost { bytes: 3 * FRAME }
        );
        assert!(packets.is_empty());
        assert_eq!(line.epoch_bytes(), 0);
    }

    /// A flow of `size` bytes from `src` to `dst`, starting at time zero.
    fn flow(id: u64, src: u32, dst: u32, size: Bytes) -> Flow {
        Flow {
            id: rackfabric_workload::WorkloadFlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            size,
            start_at: SimTime::ZERO,
        }
    }

    /// A static fabric over `spec` with `flows` registered, for driving
    /// [`LinkTable::inject`] by hand.
    fn static_fabric(spec: TopologySpec, flows: Vec<Flow>) -> AdaptiveFabric {
        let mut config = quick_config(spec);
        config.adaptive = false;
        config.routing = RoutingAlgorithm::ShortestHop;
        AdaptiveFabric::new(config, flows)
    }

    /// One injection attempt of flow `index` at `at`.
    fn inject(f: &mut AdaptiveFabric, index: usize, at: SimTime) -> Injection {
        let net = Network {
            topo: &f.topo,
            arena: &f.arena,
            spec: &f.current_spec,
            racks: &f.racks,
        };
        let flow = f.flows[index];
        let source = Source {
            index,
            flow,
            progress: &mut f.progress[index],
            next_packet: &mut f.next_packet[flow.src.index()],
        };
        f.links
            .inject(&net, &f.config, at, source, &mut f.metrics.dropped_packets)
    }

    /// Packet ids are node-scoped: the source node in the high bits and its
    /// sequence in the low 40, counted across all of the node's flows in
    /// the order their trains are built. No export carries ids, so this is
    /// what pins them.
    #[test]
    fn trains_number_their_packets_per_source_node() {
        let size = Bytes::from_kib(64);
        let flows = vec![
            flow(0, 0, 2, size),
            flow(1, 2, 0, size),
            flow(2, 0, 1, size),
        ];
        let mut fabric = static_fabric(TopologySpec::line(3, 4), flows);
        let ids = |f: &mut AdaptiveFabric, index: usize, at: SimTime| -> Vec<u64> {
            let Injection::Sent(sent) = inject(f, index, at) else {
                panic!("flow {index} sends at {at}");
            };
            sent.packets.iter().map(|p| p.id.0).collect()
        };
        let node =
            |n: u64, seq: std::ops::Range<u64>| -> Vec<u64> { seq.map(|s| n << 40 | s).collect() };
        let now = SimTime::ZERO;
        // A 1 µs train window at 100 Gb/s holds eight MTU frames.
        assert_eq!(ids(&mut fabric, 0, now), node(0, 0..8));
        assert_eq!(ids(&mut fabric, 1, now), node(2, 0..8));
        assert_eq!(ids(&mut fabric, 2, now), node(0, 8..16));
        let later = SimTime::from_micros(5);
        assert_eq!(ids(&mut fabric, 0, later), node(0, 16..24));
        assert_eq!(ids(&mut fabric, 1, later), node(2, 8..16));
        assert_eq!(fabric.next_packet, [24, 0, 16]);
    }

    #[test]
    fn an_injection_into_a_full_port_builds_no_train() {
        use rackfabric_switch::packet::PacketId;
        let flows = vec![flow(0, 0, 1, Bytes::from_kib(64))];
        let mut fabric = static_fabric(TopologySpec::line(2, 4), flows);
        let (mtu, rate) = (fabric.config.mtu, BitRate::from_gbps(100));
        let now = SimTime::from_micros(1);
        for port in &mut fabric.links.ports {
            while port.admits(now, mtu) {
                port.enqueue(now, mtu, rate);
            }
        }
        // What the source's port would be after being offered the train's
        // first frame alone.
        let source_port = fabric.arena.port(NodeId(0), LinkIdx(0)).index();
        let mut alone = fabric.links.ports[source_port].clone();
        assert_eq!(alone.enqueue(now, mtu, rate), EnqueueOutcome::Dropped);

        let rejected = inject(&mut fabric, 0, now);
        let retry_at = now + fabric.config.retry_delay;
        assert!(matches!(rejected, Injection::Wait(at) if at == retry_at));
        assert_eq!(fabric.metrics.dropped_packets.get(), 1);
        let port = &mut fabric.links.ports[source_port];
        for at in [now, SimTime::from_micros(2)] {
            assert_eq!(port.backlog_at(at), alone.backlog_at(at), "backlog at {at}");
            assert_eq!(
                port.mean_occupancy(at),
                alone.mean_occupancy(at),
                "mean at {at}"
            );
        }
        assert!(fabric.links.spare.is_empty(), "no packet buffer was taken");
        assert_eq!(fabric.progress[0].injected, 0);
        assert_eq!(fabric.next_packet[0], 0, "no packet id was taken");

        // Once the port drains, the next train numbers its packets from the
        // node's first id: the rejection built none.
        let Injection::Sent(sent) = inject(&mut fabric, 0, SimTime::from_millis(1)) else {
            panic!("a drained port admits the train");
        };
        assert_eq!(sent.packets[0].id, PacketId(0));
        assert_eq!(fabric.metrics.dropped_packets.get(), 1);
    }
}
