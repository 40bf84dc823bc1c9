//! The sharded multi-rack fabric engine.
//!
//! [`run_fabric`](crate::fabric::run_fabric) simulates the whole fabric on
//! one core. This module splits the same model across **shards** — rack
//! groups of nodes, see [`FabricPartition`] — and drives them with the
//! conservative time-window engine in [`rackfabric_sim::windowed`]:
//!
//! * Every shard owns a full-width link table (egress queues, epoch byte
//!   counters, fences, link constants, route cache), of which it touches
//!   only the ports its nodes transmit on, plus its nodes' packet sequences
//!   and the flow progress of the flows *sourced* in the shard, and runs its
//!   own calendar queue.
//! * A flow's trains start at its source shard through the injection the
//!   monolithic engine runs too (`LinkTable::inject`), and move hop by hop
//!   through its forwarding step too (`LinkTable::forward`); only the
//!   scheduling differs: keyed events carrying the flow's train sequence
//!   number.
//! * Packet trains whose next hop crosses a **cut link** are handed to the
//!   destination shard through a mailbox envelope timestamped with the
//!   train's exact analytic arrival; the cut link's propagation + FEC
//!   latency is what funds the conservative lookahead.
//! * Flow accounting that the monolithic engine did across nodes in one
//!   address space becomes explicit messages: a delivery at the destination
//!   sends a **delivery ack** to the source shard, and a mid-route drop a
//!   **drop ack**, both after the fabric's retry delay. The acks travel
//!   through the same keyed mailbox path even when source and destination
//!   share a shard, which is precisely why a 1-shard run is bit-identical
//!   to an N-shard run: every shard sees the same events, at the same
//!   instants, in the same content-keyed order.
//! * An ack also carries the packet buffer of a train that ended
//!   (delivered, or dropped whole) back to the source shard's spare list,
//!   where that shard's next injection takes it. A shard's list thus holds
//!   only buffers its own trains used, never more than it had in flight at
//!   once, whatever the traffic between shards.
//! * The Closed Ring Control runs at **sync points** aligned with its
//!   control epoch, as the same control step the monolithic engine runs
//!   over the shards' link tables: byte counters are summed per link in
//!   dense order, each port's occupancy is read from its owning shard, and
//!   the results — one shared cost vector and **reconfiguration fences that
//!   span shards** (a fence on a cut link pauses traffic on both sides) —
//!   are installed in every shard's table. The coordinator then broadcasts
//!   the link constants and the bypass table whenever the physical layer
//!   changed.
//!
//! ## Determinism contract
//!
//! N-shard runs export byte-identical results for every N (enforced by
//! `tests/shard_determinism.rs` and the CI gate): event order is
//! content-keyed rather than allocation-ordered, metric merges are integer
//! or sorted, windows are planned from shard-count-independent quantities
//! (the global earliest pending event and the minimum live-link latency),
//! and the CRC consumes telemetry merged in dense link order.
//!
//! Because flow acks are modelled as messages with real latency, the
//! sharded engine is a *different model* from the monolithic one (the
//! source learns of a drop or a delivery a retry delay later): its exports
//! are internally consistent across shard counts, not byte-comparable to
//! `run_fabric`.

use crate::control::ControlStep;
use crate::fabric::{FabricConfig, FlowProgress, Hop, Injection, LinkHot, LinkTable, Network};
use crate::metrics::FabricMetrics;
use crate::nic::Source;
use rackfabric_obs::profile::{WindowProfile, WindowProfiler};
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_phy::PhyState;
use rackfabric_sim::engine::RunOutcome;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::windowed::{ShardModel, ShardsView, SyncHook, WindowCtx, WindowedSim};
use rackfabric_switch::packet::Packet;
use rackfabric_topo::arena::LinkArena;
use rackfabric_topo::cache::InternedRoute;
use rackfabric_topo::partition::FabricPartition;
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::{NodeId, Topology};
use rackfabric_workload::Flow;
use std::sync::Arc;

/// Configuration of a sharded fabric run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The underlying fabric configuration (topology, workload knobs, CRC).
    pub fabric: FabricConfig,
    /// Number of shards (rack groups). Clamped to the node count; `1` runs
    /// the reference single-shard engine with identical semantics.
    pub shards: usize,
    /// Worker threads for window execution (0 = one per shard, capped at
    /// the machine's parallelism). Never affects results.
    pub workers: usize,
    /// When true, a [`WindowProfiler`] is attached to the run and its
    /// snapshot returned in [`ShardedRun::profile`]. Profiling reads
    /// wall clocks but never influences the simulation.
    pub profile: bool,
    /// Trace/metrics observer threaded into the windowed engine (window
    /// and drain spans, engine counters). Disabled by default.
    pub observer: Observer,
    /// Deterministic wall-clock jitter seed for stress-testing the window
    /// executor (injected sleeps/yields per worker round). Never affects
    /// results; `None` (the default) runs clean.
    pub stagger: Option<u64>,
}

impl ShardedConfig {
    /// A sharded run over `fabric` with `shards` rack groups.
    pub fn new(fabric: FabricConfig, shards: usize) -> Self {
        ShardedConfig {
            fabric,
            shards,
            workers: 0,
            profile: false,
            observer: Observer::off(),
            stagger: None,
        }
    }
}

/// Read-shared state all shards reference within one topology epoch;
/// replaced wholesale (behind a fresh [`Arc`]) on whole-rack
/// reconfigurations.
struct SharedState {
    topo: Topology,
    arena: LinkArena,
    spec: TopologySpec,
    partition: FabricPartition,
    /// `LinkIdx -> joins two different racks` (dense arena order). A
    /// topology property — not a partition property — that upper-bounds the
    /// cut: shards group whole racks, so every cut link is inter-rack. The
    /// conservative lookahead minimises latency over this class only.
    inter_mask: Vec<bool>,
    /// Node-to-rack table of `spec` — the input of the rack-detour routing
    /// policies. Shared read-only so every shard's route cache computes the
    /// same detours from the same table.
    racks: Vec<u32>,
}

/// Event tie-break key classes (see the key layout in [`event_key`]).
const CLASS_INJECT: u64 = 0;
const CLASS_TRAIN: u64 = 1;
const CLASS_DELIVERED: u64 = 2;
const CLASS_DROPPED: u64 = 3;

/// Packs a content-derived event key: `[class:2][flow:22][seq:32][hop:8]`.
/// Same-instant events deliver in ascending key order on every shard, so the
/// key layout — not allocation order — defines simultaneous-event semantics.
/// The class bits keep keys unique across classes, so one calendar queue per
/// shard orders events of every class.
fn event_key(class: u64, flow: usize, seq: u32, hop: usize) -> u64 {
    debug_assert!(flow < (1 << 22), "flow index exceeds the 22-bit key field");
    debug_assert!(hop < (1 << 8), "hop index exceeds the 8-bit key field");
    (class << 62) | ((flow as u64) << 40) | ((seq as u64) << 8) | hop as u64
}

/// A packet train in flight between shards: the interned route, the next
/// hop's index, the per-flow train sequence number (the key ingredient), and
/// the packets with their analytic arrival instants.
#[derive(Debug)]
pub struct ShardTrain {
    route: InternedRoute,
    /// The next node's index into `route`: a `u32` beside `seq`, so the
    /// train, the largest payload of the event queues, stays at 48 bytes.
    hop: u32,
    seq: u32,
    packets: Vec<Packet>,
}

impl ShardTrain {
    /// The index of the route node the train arrives at next.
    #[inline]
    fn hop(&self) -> usize {
        self.hop as usize
    }
}

/// Events driving one fabric shard. Local events and mailbox envelopes share
/// this type; acks always travel the mailbox path so that shard placement
/// never changes semantics.
#[derive(Debug)]
pub enum ShardEvent {
    /// Inject the next packet train of a flow at its source (also the
    /// flow-start event).
    Inject(u32),
    /// A packet train finishes arriving at its next node.
    Train(ShardTrain),
    /// Delivery acknowledgement to the flow's source shard.
    Delivered {
        /// Flow index.
        flow: u32,
        /// Bytes the destination received from the acked train.
        bytes: u64,
        /// The train's packet buffer, returned to the source shard for its
        /// next injection.
        buffer: Vec<Packet>,
    },
    /// Drop notification to the flow's source shard (the retry trigger).
    Dropped {
        /// Flow index.
        flow: u32,
        /// Bytes to re-send.
        bytes: u64,
        /// The packet buffer of a train dropped whole (empty when only the
        /// train's tail was dropped).
        buffer: Vec<Packet>,
    },
}

/// One rack group of the sharded fabric.
pub struct ShardFabric {
    id: usize,
    shared: Arc<SharedState>,
    config: Arc<FabricConfig>,
    flows: Arc<Vec<Flow>>,
    /// Flow progress; only entries whose flow is sourced in this shard are
    /// ever touched.
    progress: Vec<FlowProgress>,
    /// Per-flow train sequence numbers (source shard only).
    train_seq: Vec<u32>,
    /// Per-node packet sequence numbers; only this shard's nodes are
    /// touched.
    next_packet: Vec<u64>,
    /// Full-width link table; only ports transmitted by this shard's nodes
    /// are touched, and the byte counters hold this shard's contribution.
    links: LinkTable,
    /// Read-only copy of the bypass table, broadcast with the link
    /// constants.
    bypasses: rackfabric_phy::bypass::BypassTable,
    metrics: FabricMetrics,
    own_flows: usize,
    completed_flows: usize,
    last_completion: SimTime,
    /// Packet trains this shard handed to the mailbox (deterministic count;
    /// surfaced through the observer's metrics registry).
    trains_sent: u64,
}

impl ShardFabric {
    #[inline]
    fn owner_of(&self, node: NodeId) -> usize {
        self.shared.partition.owner(node)
    }

    /// Arms the flow's single injector chain at `at` (no-op when armed).
    fn arm_injector(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, flow_idx: usize, at: SimTime) {
        if !self.progress[flow_idx].injector_armed {
            self.progress[flow_idx].injector_armed = true;
            ctx.schedule(
                at.max(ctx.now()),
                event_key(CLASS_INJECT, flow_idx, 0, 0),
                ShardEvent::Inject(flow_idx as u32),
            );
        }
    }

    /// Emits a train arrival toward the shard owning the arrival node.
    fn emit_train(
        &mut self,
        ctx: &mut WindowCtx<'_, ShardEvent>,
        at: SimTime,
        flow_idx: usize,
        train: ShardTrain,
    ) {
        let node = train.route.node(train.hop());
        let to = self.owner_of(node);
        let key = event_key(CLASS_TRAIN, flow_idx, train.seq, train.hop());
        self.trains_sent += 1;
        ctx.send(to, at, key, ShardEvent::Train(train));
    }

    /// Records a flow completion at the source shard.
    fn check_completion(&mut self, now: SimTime, flow_idx: usize) {
        let flow = self.flows[flow_idx];
        let p = &mut self.progress[flow_idx];
        if !p.completed && p.delivered >= flow.size.as_u64() {
            p.completed = true;
            self.completed_flows += 1;
            let fct = now.saturating_since(flow.start_at);
            self.metrics.flow_completions.push((flow.id, fct));
            self.last_completion = self.last_completion.max(now);
        }
    }

    /// Injects the next train of a flow at its source: the injection the
    /// monolithic engine runs too, then a keyed envelope toward the shard
    /// owning the train's next node.
    fn inject(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, flow_idx: usize) {
        self.progress[flow_idx].injector_armed = false;
        let flow = self.flows[flow_idx];
        debug_assert_eq!(
            self.owner_of(flow.src),
            self.id,
            "flow injected at a shard that does not own its source"
        );
        let now = ctx.now();
        let shared = &*self.shared;
        let net = Network {
            topo: &shared.topo,
            arena: &shared.arena,
            spec: &shared.spec,
            racks: &shared.racks,
        };
        let source = Source {
            index: flow_idx,
            flow,
            progress: &mut self.progress[flow_idx],
            next_packet: &mut self.next_packet[flow.src.index()],
        };
        let dropped = &mut self.metrics.dropped_packets;
        match self.links.inject(&net, &self.config, now, source, dropped) {
            Injection::Idle => {}
            Injection::Local => self.check_completion(now, flow_idx),
            Injection::Wait(at) => self.arm_injector(ctx, flow_idx, at),
            Injection::Sent(sent) => {
                let seq = self.train_seq[flow_idx];
                self.train_seq[flow_idx] = seq.wrapping_add(1);
                let train = ShardTrain {
                    route: sent.route,
                    hop: 1,
                    seq,
                    packets: sent.packets,
                };
                self.emit_train(ctx, sent.last_arrives_at, flow_idx, train);
                self.arm_injector(ctx, flow_idx, sent.last_departs_at);
            }
        }
    }

    /// Counts one drop and sends a drop notification to the flow's source
    /// shard: the train with `(seq, hop)` identity lost packets carrying
    /// `bytes`. `buffer` is the packet buffer of a train dropped whole,
    /// returned to the source shard.
    fn notify_drop(
        &mut self,
        ctx: &mut WindowCtx<'_, ShardEvent>,
        flow_idx: usize,
        bytes: u64,
        (seq, hop): (u32, usize),
        buffer: Vec<Packet>,
    ) {
        self.metrics.dropped_packets.incr();
        let src = self.flows[flow_idx].src;
        let to = self.owner_of(src);
        ctx.send(
            to,
            ctx.now() + self.config.retry_delay,
            event_key(CLASS_DROPPED, flow_idx, seq, hop),
            ShardEvent::Dropped {
                flow: flow_idx as u32,
                bytes,
                buffer,
            },
        );
    }

    /// Handles a train finishing arrival at its next node: the forwarding
    /// step the monolithic engine runs too, then the acks and the keyed
    /// scheduling of this engine.
    fn train_arrive(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, mut train: ShardTrain) {
        let now = ctx.now();
        let flow_idx = train.packets[0].flow.0 as usize;
        let hop = self.links.forward(
            &self.shared.arena,
            &self.bypasses,
            self.config.switch,
            now,
            &train.route,
            train.hop(),
            &mut train.packets,
        );
        let id = (train.seq, train.hop());
        match hop {
            Hop::Arrived => {
                // Per-packet metrics at each packet's own analytic arrival
                // instant, then one ack back to the source shard.
                let bytes = self.metrics.record_delivery(&train.packets);
                let to = self.owner_of(self.flows[flow_idx].src);
                ctx.send(
                    to,
                    now + self.config.retry_delay,
                    event_key(CLASS_DELIVERED, flow_idx, train.seq, 0),
                    ShardEvent::Delivered {
                        flow: flow_idx as u32,
                        bytes,
                        buffer: train.packets,
                    },
                );
            }
            Hop::Held(at) => {
                let key = event_key(CLASS_TRAIN, flow_idx, train.seq, train.hop());
                ctx.schedule(at, key, ShardEvent::Train(train));
            }
            Hop::Moved { next, cut } => {
                if let Some(bytes) = cut {
                    self.notify_drop(ctx, flow_idx, bytes, id, Vec::new());
                }
                train.hop += 1;
                self.emit_train(ctx, next, flow_idx, train);
            }
            // A train lost whole hands its buffer back with the ack.
            Hop::Lost { bytes } => self.notify_drop(ctx, flow_idx, bytes, id, train.packets),
        }
    }
}

impl ShardModel for ShardFabric {
    type Event = ShardEvent;

    fn handle(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, event: ShardEvent) {
        match event {
            ShardEvent::Inject(flow) => self.inject(ctx, flow as usize),
            ShardEvent::Train(train) => self.train_arrive(ctx, train),
            ShardEvent::Delivered {
                flow,
                bytes,
                buffer,
            } => {
                let flow = flow as usize;
                self.progress[flow].delivered += bytes;
                self.links.recycle(buffer);
                self.check_completion(ctx.now(), flow);
            }
            ShardEvent::Dropped {
                flow,
                bytes,
                buffer,
            } => {
                let flow = flow as usize;
                self.links.recycle(buffer);
                let p = &mut self.progress[flow];
                p.injected = p.injected.saturating_sub(bytes);
                let now = ctx.now();
                self.arm_injector(ctx, flow, now);
            }
        }
    }

    fn stop_contribution(&self) -> u64 {
        self.completed_flows as u64
    }
}

/// The global control side of the sharded engine: owns the physical state
/// and the control step, and runs them at window-aligned sync points.
struct Coordinator {
    config: Arc<FabricConfig>,
    phy: PhyState,
    control: ControlStep,
    /// Holds the coordinator-side metrics: telemetry series, reconfiguration
    /// events, topology counters. Merged with the shard metrics at the end.
    metrics: FabricMetrics,
    shared: Arc<SharedState>,
    lookahead: SimDuration,
    next_epoch: SimTime,
    total_flows: usize,
}

impl Coordinator {
    /// Re-reads the link constants and the bypass table out of the physical
    /// state into every shard, and recomputes the lookahead from the
    /// constants. Runs at run start, after PLP commands and after an
    /// escalation.
    fn refresh_from_phy<'s>(&mut self, shards: impl Iterator<Item = &'s mut ShardFabric>) {
        let hot = LinkHot::table(&self.phy, &self.shared.arena);
        self.lookahead = self.lookahead_over(&hot);
        for shard in shards {
            shard.links.hot = hot.clone();
            shard.bypasses = self.phy.bypasses.clone();
        }
    }

    /// The conservative lookahead over link constants `hot`, from the
    /// **inter-rack link class**. Shards group whole racks
    /// ([`FabricPartition`] never splits one), so every cut link joins two
    /// racks by construction and the minimum live inter-rack latency
    /// lower-bounds every cross-shard envelope. The class is a topology
    /// property — not a partition property — so the value (and with it the
    /// window sequence and where stop/budget checks land) is identical for
    /// every shard count. Longer inter-rack cables directly buy longer
    /// windows; intra-rack hops no longer throttle them. Falls back to the
    /// all-links minimum when no live inter-rack link exists (a single-rack
    /// fabric never hands off, and the fallback keeps its window lattice
    /// unchanged).
    fn lookahead_over(&self, hot: &[LinkHot]) -> SimDuration {
        let mask = &self.shared.inter_mask;
        let live_min = |inter_only: bool| {
            hot.iter()
                .enumerate()
                .filter(|(i, h)| (!inter_only || mask[*i]) && h.live())
                .map(|(_, h)| h.propagation + h.fec)
                .min()
        };
        let link_min = live_min(true)
            .or_else(|| live_min(false))
            .unwrap_or(SimDuration::MAX);
        link_min
            .min(self.config.retry_delay)
            .max(SimDuration::from_picos(1))
    }

    /// One control epoch over the shards' link tables.
    fn crc_epoch(&mut self, now: SimTime, shards: &mut ShardsView<'_, ShardFabric>) {
        let shared = &self.shared;
        let mut tables: Vec<&mut LinkTable> = shards.models_mut().map(|s| &mut s.links).collect();
        let epoch = self.control.run(
            now,
            &self.config,
            &mut self.phy,
            &shared.arena,
            &mut tables,
            // Each directed port is owned by its transmitting node's shard.
            |port| shared.partition.port_owner(&shared.arena, port),
            &mut self.metrics,
        );
        if epoch.phy_changed {
            self.refresh_from_phy(shards.models_mut());
        }
        if let Some(target) = epoch.escalate {
            self.upgrade_topology(now, target, shards);
        }
        self.next_epoch = now + self.config.crc.epoch;
    }

    /// Whole-rack reconfiguration at a sync point: stop-the-world while the
    /// link set, arena, partition cut and every shard's link table are
    /// rebuilt.
    fn upgrade_topology(
        &mut self,
        now: SimTime,
        target: TopologySpec,
        shards: &mut ShardsView<'_, ShardFabric>,
    ) {
        let mut topo = self.shared.topo.clone();
        let Some(until) = self.control.escalate(
            now,
            &self.shared.spec,
            &target,
            &mut topo,
            &mut self.phy,
            &mut self.metrics,
        ) else {
            return;
        };
        let arena = LinkArena::build(&topo);
        // In-flight trains hold routes interned against the old arena; the
        // upgrade is only safe when surviving links keep their dense index
        // (true for add-only plans — splits allocate fresh, higher ids).
        for (idx, id) in self.shared.arena.iter() {
            if let Some(new_idx) = arena.index(id) {
                assert_eq!(
                    idx, new_idx,
                    "topology upgrade shifted dense link indices; in-flight \
                     routes would corrupt (link {id:?})"
                );
            }
        }
        let mut partition = self.shared.partition.clone();
        partition.recut(&arena);
        // Re-derive the inter-rack class for the new link set by the same
        // rack rule the partition groups by, so reconfiguration-added links
        // land in the right lookahead class.
        let inter_mask = target.inter_rack_mask(&arena);
        let racks = target.rack_of();
        let old = std::mem::replace(
            &mut self.shared,
            Arc::new(SharedState {
                topo,
                arena,
                spec: target,
                partition,
                inter_mask,
                racks,
            }),
        );
        let costs = self.control.costs(&self.shared.arena);
        for shard in shards.models_mut() {
            shard.links.migrate(
                &old.arena,
                &self.shared.arena,
                self.config.port_buffer,
                costs.clone(),
                until,
            );
            shard.shared = self.shared.clone();
        }
        self.refresh_from_phy(shards.models_mut());
    }
}

impl SyncHook<ShardFabric> for Coordinator {
    fn next_sync(&self) -> SimTime {
        self.next_epoch
    }

    fn on_sync(&mut self, at: SimTime, shards: &mut ShardsView<'_, ShardFabric>) {
        self.crc_epoch(at, shards);
    }

    fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    fn stop_threshold(&self) -> u64 {
        if self.config.stop_when_done {
            self.total_flows as u64
        } else {
            u64::MAX
        }
    }
}

/// The result of a sharded fabric run.
#[derive(Debug)]
pub struct ShardedRun {
    /// Merged run metrics (summaries are byte-stable across shard counts).
    pub metrics: FabricMetrics,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Engine events processed across all shards.
    pub events_processed: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Control sync points executed.
    pub syncs: u64,
    /// Number of shards the fabric was partitioned into.
    pub shards: usize,
    /// True once every flow delivered all of its bytes.
    pub all_flows_complete: bool,
    /// The window profile of the run, when [`ShardedConfig::profile`] was
    /// set: per-shard events and drain time, per-worker barrier waits,
    /// window-length and events-per-window histograms. Wall-clock numbers
    /// inside belong to perf artifacts only — never to result exports.
    pub profile: Option<WindowProfile>,
}

/// A sharded fabric ready to run: the shard models inside the windowed
/// driver plus the coordinator.
pub struct ShardedFabric {
    sim: WindowedSim<ShardFabric>,
    coordinator: Coordinator,
    horizon: SimTime,
    profiler: Option<Arc<WindowProfiler>>,
    observer: Observer,
}

impl ShardedFabric {
    /// Builds the sharded fabric and seeds every flow's start event at its
    /// source shard.
    pub fn new(config: ShardedConfig, flows: Vec<Flow>) -> Self {
        let ShardedConfig {
            fabric: fabric_config,
            shards,
            workers,
            profile,
            observer,
            stagger,
        } = config;
        assert!(shards >= 1, "a sharded fabric needs at least one shard");
        let horizon = fabric_config.sim.horizon;
        let budget = fabric_config.sim.event_budget;
        let mut phy = PhyState::new();
        let topo = fabric_config
            .spec
            .instantiate(&mut phy, fabric_config.lane_rate);
        let arena = LinkArena::build(&topo);
        let racks = fabric_config.spec.rack_of();
        let partition = FabricPartition::build(&racks, shards, &arena);
        let inter_mask = fabric_config.spec.inter_rack_mask(&arena);
        debug_assert!(
            partition.cut_links().all(|idx| inter_mask[idx.index()]),
            "partition cut a link inside a rack; the inter-rack lookahead \
             class would not cover it"
        );
        let shard_count = partition.shards();
        let shared = Arc::new(SharedState {
            topo,
            arena,
            spec: fabric_config.spec.clone(),
            partition,
            inter_mask,
            racks,
        });
        let control = ControlStep::new(&fabric_config);
        let hot = LinkHot::table(&phy, &shared.arena);
        let costs = control.costs(&shared.arena);
        let config = Arc::new(fabric_config);
        let flows = Arc::new(flows);
        assert!(
            flows.len() < (1 << 22),
            "the keyed event layout supports up to 4M flows"
        );

        let models: Vec<ShardFabric> = (0..shard_count)
            .map(|id| {
                let own_flows = flows
                    .iter()
                    .filter(|f| shared.partition.owner(f.src) == id)
                    .count();
                ShardFabric {
                    id,
                    shared: shared.clone(),
                    config: config.clone(),
                    flows: flows.clone(),
                    progress: vec![FlowProgress::default(); flows.len()],
                    train_seq: vec![0; flows.len()],
                    next_packet: vec![0; shared.spec.nodes],
                    links: LinkTable::new(
                        &shared.arena,
                        config.port_buffer,
                        hot.clone(),
                        costs.clone(),
                    ),
                    bypasses: phy.bypasses.clone(),
                    metrics: FabricMetrics::default(),
                    own_flows,
                    completed_flows: 0,
                    last_completion: SimTime::ZERO,
                    trains_sent: 0,
                }
            })
            .collect();

        let profiler = profile.then(|| Arc::new(WindowProfiler::new(shard_count)));
        let mut sim = WindowedSim::new(models)
            .with_event_budget(budget)
            .with_workers(workers)
            .with_observer(observer.clone());
        if let Some(p) = &profiler {
            sim = sim.with_profiler(p.clone());
        }
        if let Some(seed) = stagger {
            sim = sim.with_stagger(seed);
        }
        for (idx, flow) in flows.iter().enumerate() {
            let shard = shared.partition.owner(flow.src);
            sim.schedule(
                shard,
                flow.start_at,
                event_key(CLASS_INJECT, idx, 0, 0),
                ShardEvent::Inject(idx as u32),
            );
        }
        // The seeded Inject doubles as the armed injector chain.
        for s in 0..shard_count {
            let model = sim.model_mut(s);
            for (idx, flow) in flows.iter().enumerate() {
                if shared.partition.owner(flow.src) == s {
                    model.progress[idx].injector_armed = true;
                }
            }
        }

        let coordinator = Coordinator {
            control,
            phy,
            metrics: FabricMetrics::default(),
            shared,
            // Set with the link constants at run start.
            lookahead: SimDuration::from_picos(1),
            next_epoch: SimTime::ZERO + config.crc.epoch,
            total_flows: flows.len(),
            config,
        };

        ShardedFabric {
            sim,
            coordinator,
            horizon,
            profiler,
            observer,
        }
    }

    /// Mutable access to the physical state before the run (the scenario
    /// layer applies its initial PLP policy here).
    pub fn phy_mut(&mut self) -> &mut PhyState {
        &mut self.coordinator.phy
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sim.shard_count()
    }

    /// Runs to the configured horizon and merges the per-shard metrics.
    pub fn run(mut self) -> ShardedRun {
        // The phy may have been reconfigured between construction and the
        // run (initial PLP policy: FEC, lane caps, power states, bypasses);
        // re-read it, like the monolithic engine's `init`.
        self.coordinator.refresh_from_phy(self.sim.models_mut());

        let out = self.sim.run(self.horizon, &mut self.coordinator);
        let shards = self.sim.shard_count();
        let models = self.sim.into_models();
        let mut metrics = self.coordinator.metrics;
        let mut total_flows_done = 0usize;
        let mut own_total = 0usize;
        let mut last_completion = SimTime::ZERO;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut trains = 0u64;
        for model in &models {
            metrics.packet_latency.merge(&model.metrics.packet_latency);
            metrics
                .queueing_latency
                .merge(&model.metrics.queueing_latency);
            metrics
                .delivered_packets
                .add(model.metrics.delivered_packets.get());
            metrics
                .dropped_packets
                .add(model.metrics.dropped_packets.get());
            metrics.delivered_bytes += model.metrics.delivered_bytes;
            metrics.breakdown.accumulate(&model.metrics.breakdown);
            metrics
                .flow_completions
                .extend(model.metrics.flow_completions.iter().copied());
            total_flows_done += model.completed_flows;
            own_total += model.own_flows;
            last_completion = last_completion.max(model.last_completion);
            let stats = model.links.routes.stats();
            hits += stats.hits;
            misses += stats.misses;
            trains += model.trains_sent;
        }
        // Engine-level counters into the observer's registry: deterministic
        // sim-domain counts, surfaced for telemetry only (exports never read
        // the registry).
        if let Some(registry) = self.observer.registry() {
            registry
                .counter("engine.events", TimeDomain::Sim)
                .add(out.events);
            registry
                .counter("engine.windows", TimeDomain::Sim)
                .add(out.windows);
            registry
                .counter("engine.syncs", TimeDomain::Sim)
                .add(out.syncs);
            registry
                .counter("engine.mailbox_trains", TimeDomain::Sim)
                .add(trains);
            registry
                .counter("engine.route_cache_hits", TimeDomain::Sim)
                .add(hits);
            registry
                .counter("engine.route_cache_misses", TimeDomain::Sim)
                .add(misses);
        }
        debug_assert_eq!(own_total, self.coordinator.total_flows);
        // Merge order must not leak into exports: completions sort by flow
        // id (unique per flow), making the merged vector — and the f64 mean
        // computed over it — a pure function of the simulation content.
        metrics.flow_completions.sort_by_key(|&(id, _)| id.0);
        metrics.route_cache_hits = hits;
        metrics.route_cache_misses = misses;
        let all_complete = total_flows_done == self.coordinator.total_flows;
        if all_complete && self.coordinator.total_flows > 0 {
            metrics.job_completion = Some(last_completion);
        }
        ShardedRun {
            metrics,
            outcome: out.outcome,
            events_processed: out.events,
            windows: out.windows,
            syncs: out.syncs,
            shards,
            all_flows_complete: all_complete,
            profile: self.profiler.as_ref().map(|p| p.snapshot()),
        }
    }
}

/// Runs a fabric configuration through the sharded engine.
pub fn run_sharded(config: ShardedConfig, flows: Vec<Flow>) -> ShardedRun {
    ShardedFabric::new(config, flows).run()
}
