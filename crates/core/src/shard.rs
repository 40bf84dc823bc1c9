//! The sharded multi-rack fabric engine.
//!
//! [`run_fabric`](crate::fabric::run_fabric) simulates the whole fabric on
//! one core. This module splits the same model across **shards** — rack
//! groups of nodes, see [`FabricPartition`] — and drives them with the
//! conservative time-window engine in [`rackfabric_sim::windowed`]:
//!
//! * Every shard owns the dense per-link/per-port state its nodes transmit
//!   on (egress queues, epoch byte counters, NICs) plus the flow progress of
//!   the flows *sourced* in the shard, and runs its own calendar queue.
//! * Packet trains whose next hop crosses a **cut link** are handed to the
//!   destination shard through a mailbox envelope timestamped with the
//!   train's exact analytic arrival; the cut link's propagation + FEC
//!   latency is what funds the conservative lookahead.
//! * Flow accounting that the monolithic engine did across nodes in one
//!   address space becomes explicit messages: a delivery at the destination
//!   sends a **delivery ack** to the source shard after `ack_delay`, and a
//!   mid-route drop sends a **drop ack** after the retry delay. The acks
//!   travel through the same keyed mailbox path even when source and
//!   destination share a shard, which is precisely why a 1-shard run is
//!   bit-identical to an N-shard run: every shard sees the same events, at
//!   the same instants, in the same content-keyed order.
//! * The Closed Ring Control runs at **sync points** aligned with its
//!   control epoch: the coordinator merges per-shard telemetry (byte
//!   counters summed per link in dense order, port occupancies from their
//!   owning shards), prices and decides exactly like the monolithic engine,
//!   and broadcasts the results — link constants, price-derived cost maps,
//!   and **reconfiguration fences that span shards** (a fence on a cut link
//!   pauses traffic on both sides) — back to every shard.
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
//! sharded engine is a *different model* from the monolithic one (a drop is
//! known to the source a retry-delay later, completion an ack-delay later):
//! its exports are internally consistent across shard counts, not
//! byte-comparable to `run_fabric`.

use crate::controller::ClosedRingControl;
use crate::fabric::{FabricConfig, LinkHot};
use crate::metrics::FabricMetrics;
use crate::price::PriceBook;
use crate::reconfigure;
use rackfabric_obs::profile::{WindowProfile, WindowProfiler};
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_phy::{LinkId, PhyState, PlpExecutor};
use rackfabric_sim::engine::RunOutcome;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_sim::windowed::{ShardModel, ShardsView, SyncHook, WindowCtx, WindowedSim};
use rackfabric_switch::nic::Nic;
use rackfabric_switch::packet::{FlowId, Packet};
use rackfabric_switch::queue::EgressQueue;
use rackfabric_switch::train::train_frames;
use rackfabric_topo::arena::{LinkArena, LinkIdx};
use rackfabric_topo::cache::{InternedRoute, RouteCache};
use rackfabric_topo::partition::FabricPartition;
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::{NodeId, Topology};
use rackfabric_workload::Flow;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a sharded fabric run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The underlying fabric configuration (topology, workload knobs, CRC).
    pub fabric: FabricConfig,
    /// Number of shards (rack groups). Clamped to the node count; `1` runs
    /// the reference single-shard engine with identical semantics.
    pub shards: usize,
    /// Latency of a delivery acknowledgement back to the flow's source
    /// shard. Defaults to the fabric's retry delay.
    pub ack_delay: SimDuration,
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
        let ack_delay = fabric.retry_delay;
        ShardedConfig {
            fabric,
            shards,
            ack_delay,
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
    route: Arc<InternedRoute>,
    hop: usize,
    seq: u32,
    packets: Vec<Packet>,
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
    },
    /// Drop notification to the flow's source shard (the retry trigger).
    Dropped {
        /// Flow index.
        flow: u32,
        /// Bytes to re-send.
        bytes: u64,
    },
}

/// Per-flow progress at the flow's source shard.
#[derive(Debug, Clone, Default)]
struct FlowProgress {
    injected: u64,
    delivered: u64,
    completed: bool,
    /// True while an [`ShardEvent::Inject`] is pending (one injector chain
    /// per flow, exactly like the monolithic engine).
    injector_armed: bool,
}

/// One rack group of the sharded fabric.
pub struct ShardFabric {
    id: usize,
    shared: Arc<SharedState>,
    config: Arc<FabricConfig>,
    ack_delay: SimDuration,
    flows: Arc<Vec<Flow>>,
    /// Flow progress; only entries whose flow is sourced in this shard are
    /// ever touched.
    progress: Vec<FlowProgress>,
    /// Per-flow train sequence numbers (source shard only).
    train_seq: Vec<u32>,
    /// Per-node NICs; only this shard's nodes are touched.
    nics: Vec<Nic>,
    /// Full-width egress queues; only ports transmitted by this shard's
    /// nodes are touched.
    ports: Vec<EgressQueue>,
    /// Link constants, broadcast by the coordinator at sync points.
    link_hot: Vec<LinkHot>,
    /// Read-only copy of the bypass table, broadcast at sync points.
    bypasses: rackfabric_phy::bypass::BypassTable,
    /// Reconfiguration fences, broadcast by the coordinator. A fence on a
    /// cut link is visible on both sides — fences span shards.
    fences: Vec<SimTime>,
    /// Telemetry bytes per link this epoch (this shard's contribution).
    bytes_epoch: Vec<u64>,
    /// Switched wire bytes per link this epoch (this shard's contribution).
    wire_epoch: Vec<u64>,
    route_cache: RouteCache,
    /// Routing costs, `LinkIdx`-indexed: one snapshot the coordinator
    /// lowers and shares with every shard (see the monolithic engine's
    /// field of the same name).
    costs: Arc<[f64]>,
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
    fn link_live(&self, link: LinkIdx) -> bool {
        let hot = &self.link_hot[link.index()];
        hot.up && !hot.capacity.is_zero()
    }

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
        let node = train.route.route.nodes[train.hop];
        let to = self.owner_of(node);
        let key = event_key(CLASS_TRAIN, flow_idx, train.seq, train.hop);
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

    /// Injects the next train of a flow at its source (mirrors the
    /// monolithic `inject_next`).
    fn inject(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, flow_idx: usize) {
        self.progress[flow_idx].injector_armed = false;
        let flow = self.flows[flow_idx];
        debug_assert_eq!(
            self.owner_of(flow.src),
            self.id,
            "flow injected at a shard that does not own its source"
        );
        let remaining = flow
            .size
            .as_u64()
            .saturating_sub(self.progress[flow_idx].injected);
        if remaining == 0 || self.progress[flow_idx].completed {
            return;
        }
        let now = ctx.now();
        let retry_at = now + self.config.retry_delay;

        let shared = &self.shared;
        let Some(route) = crate::fabric::cached_route(
            &mut self.route_cache,
            self.config.routing,
            &shared.topo,
            &shared.arena,
            &shared.spec,
            &shared.racks,
            &self.costs,
            flow.src,
            flow.dst,
            flow.id.0,
        ) else {
            self.arm_injector(ctx, flow_idx, retry_at);
            return;
        };
        if route.hops() == 0 {
            // Degenerate self-flow: delivered in place, no wire involved.
            self.progress[flow_idx].injected += remaining;
            self.progress[flow_idx].delivered += remaining;
            self.check_completion(now, flow_idx);
            return;
        }

        let first_link = route.links[0];
        if !self.link_live(first_link) {
            self.metrics.dropped_packets.incr();
            self.arm_injector(ctx, flow_idx, retry_at);
            return;
        }
        let fence = self.fences[first_link.index()];
        if now < fence {
            self.arm_injector(ctx, flow_idx, fence);
            return;
        }
        let hot = self.link_hot[first_link.index()];

        let mtu = self.config.mtu.as_u64();
        let budget = train_frames(hot.capacity, self.config.train_window, self.config.mtu);
        let frames = budget.min(remaining.div_ceil(mtu)).max(1);
        let mut sizes = Vec::with_capacity(frames as usize);
        let mut left = remaining;
        for _ in 0..frames {
            let size = left.min(mtu);
            sizes.push(Bytes::new(size));
            left -= size;
        }

        let mut packets =
            self.nics[flow.src.index()].build_train(now, FlowId(flow_idx as u64), flow.dst, &sizes);
        let port = self.shared.arena.port(flow.src, first_link);
        let admission = self.ports[port.index()].enqueue_train(
            &mut packets,
            hot.capacity,
            hot.propagation,
            hot.fec,
            true,
        );
        self.nics[flow.src.index()].record_sent(admission.accepted as u64);

        let accepted_bytes: u64 = packets[..admission.accepted]
            .iter()
            .map(|p| p.size.as_u64())
            .sum();
        self.progress[flow_idx].injected += accepted_bytes;
        self.bytes_epoch[first_link.index()] += accepted_bytes;
        self.wire_epoch[first_link.index()] += accepted_bytes;

        if admission.dropped {
            self.metrics.dropped_packets.incr();
        }
        if admission.accepted > 0 {
            packets.truncate(admission.accepted);
            let seq = self.train_seq[flow_idx];
            self.train_seq[flow_idx] = seq.wrapping_add(1);
            let train = ShardTrain {
                route,
                hop: 1,
                seq,
                packets,
            };
            self.emit_train(ctx, admission.last_arrives_at, flow_idx, train);
            self.arm_injector(ctx, flow_idx, admission.last_departs_at);
        } else {
            self.arm_injector(ctx, flow_idx, retry_at);
        }
    }

    /// Sends a drop notification to the flow's source shard: `n` packets
    /// carrying `bytes` were lost by the train with `(seq, hop)` identity.
    fn notify_drop(
        &mut self,
        ctx: &mut WindowCtx<'_, ShardEvent>,
        flow_idx: usize,
        bytes: u64,
        n: u64,
        seq: u32,
        hop: usize,
    ) {
        self.metrics.dropped_packets.add(n);
        let src = self.flows[flow_idx].src;
        let to = self.owner_of(src);
        ctx.send(
            to,
            ctx.now() + self.config.retry_delay,
            event_key(CLASS_DROPPED, flow_idx, seq, hop),
            ShardEvent::Dropped {
                flow: flow_idx as u32,
                bytes,
            },
        );
    }

    /// Handles a train finishing arrival at its next node (mirrors the
    /// monolithic `train_arrive`, with acks instead of cross-node state).
    fn train_arrive(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, mut train: ShardTrain) {
        let now = ctx.now();
        let at_node = train.route.route.nodes[train.hop];
        let flow_idx = train.packets[0].flow.0 as usize;

        if at_node == train.packets[0].dst {
            // Delivered: per-packet metrics at each packet's own analytic
            // arrival instant, then one ack back to the source shard.
            self.nics[at_node.index()].deliver_train(&train.packets);
            self.metrics
                .delivered_packets
                .add(train.packets.len() as u64);
            let mut bytes = 0u64;
            for packet in &train.packets {
                bytes += packet.size.as_u64();
                self.metrics.delivered_bytes += packet.size.as_u64();
                self.metrics
                    .packet_latency
                    .record_duration(packet.latency_at(packet.arrived_at));
                self.metrics
                    .queueing_latency
                    .record_duration(packet.breakdown.queueing);
                self.metrics.breakdown.accumulate(&packet.breakdown);
            }
            let src = self.flows[flow_idx].src;
            let to = self.owner_of(src);
            ctx.send(
                to,
                now + self.ack_delay,
                event_key(CLASS_DELIVERED, flow_idx, train.seq, 0),
                ShardEvent::Delivered {
                    flow: flow_idx as u32,
                    bytes,
                },
            );
            return;
        }

        let in_link = train.route.links[train.hop - 1];
        let out_link = train.route.links[train.hop];
        let out_live = self.link_live(out_link);
        let fence = self.fences[out_link.index()];
        if out_live && now < fence {
            // The egress link is retraining: hold the train here and wake at
            // the fence (the wait is charged as queueing, like the
            // monolithic engine).
            for packet in &mut train.packets {
                packet.breakdown.queueing += fence.saturating_since(packet.arrived_at);
                packet.arrived_at = fence;
            }
            let key = event_key(CLASS_TRAIN, flow_idx, train.seq, train.hop);
            ctx.schedule(fence, key, ShardEvent::Train(train));
            return;
        }

        // PLP #2: a bypass at this node short-circuits the switching logic.
        // The bypass table is a read-only copy broadcast at sync points.
        let arena = &self.shared.arena;
        let bypass = self
            .bypasses
            .lookup(at_node.as_u32(), arena.link_id(in_link))
            .copied()
            .filter(|b| b.out_link == arena.link_id(out_link));
        if let Some(bypass) = bypass {
            if out_live {
                let hot = self.link_hot[out_link.index()];
                let mut last_arrive = now;
                for packet in &mut train.packets {
                    packet.breakdown.bypass += bypass.latency;
                    packet.breakdown.propagation += hot.propagation;
                    packet.breakdown.fec += hot.fec;
                    packet.breakdown.bypassed_hops += 1;
                    packet.arrived_at =
                        packet.arrived_at + bypass.latency + hot.propagation + hot.fec;
                    last_arrive = last_arrive.max(packet.arrived_at);
                }
                self.bytes_epoch[out_link.index()] +=
                    train.packets.iter().map(|p| p.size.as_u64()).sum::<u64>();
                train.hop += 1;
                self.emit_train(ctx, last_arrive, flow_idx, train);
                return;
            }
        }

        if !out_live {
            // The route's link disappeared in a reconfiguration; the source
            // re-sends after the retry delay.
            let bytes: u64 = train.packets.iter().map(|p| p.size.as_u64()).sum();
            let n = train.packets.len() as u64;
            self.notify_drop(ctx, flow_idx, bytes, n, train.seq, train.hop);
            return;
        }
        let hot = self.link_hot[out_link.index()];
        let switch = self.config.switch;
        for packet in &mut train.packets {
            let traversal = switch.traversal_latency_at(packet.size, hot.capacity);
            packet.breakdown.switching += traversal;
            packet.breakdown.switch_hops += 1;
            packet.arrived_at += traversal;
        }
        let port = arena.port(at_node, out_link);
        let admission = self.ports[port.index()].enqueue_train(
            &mut train.packets,
            hot.capacity,
            hot.propagation,
            hot.fec,
            false,
        );
        let accepted_bytes: u64 = train.packets[..admission.accepted]
            .iter()
            .map(|p| p.size.as_u64())
            .sum();
        self.bytes_epoch[out_link.index()] += accepted_bytes;
        self.wire_epoch[out_link.index()] += accepted_bytes;

        if admission.dropped {
            let tail = &train.packets[admission.accepted..];
            let tail_bytes: u64 = tail.iter().map(|p| p.size.as_u64()).sum();
            self.notify_drop(ctx, flow_idx, tail_bytes, 1, train.seq, train.hop);
        }
        if admission.accepted > 0 {
            train.packets.truncate(admission.accepted);
            train.hop += 1;
            self.emit_train(ctx, admission.last_arrives_at.max(now), flow_idx, train);
        }
    }

    /// Migrates the dense per-link/per-port state into a rebuilt arena
    /// (whole-rack reconfigurations only), with `costs` lowered onto it.
    fn migrate(&mut self, old: &LinkArena, shared: Arc<SharedState>, costs: Arc<[f64]>) {
        let arena = &shared.arena;
        let links = arena.len();
        let mut ports: Vec<EgressQueue> = (0..arena.port_count())
            .map(|_| EgressQueue::new(self.config.port_buffer))
            .collect();
        let mut bytes = vec![0u64; links];
        let mut wire = vec![0u64; links];
        let mut fences = vec![SimTime::ZERO; links];
        for (idx, id) in arena.iter() {
            if let Some(old_idx) = old.index(id) {
                bytes[idx.index()] = self.bytes_epoch[old_idx.index()];
                wire[idx.index()] = self.wire_epoch[old_idx.index()];
                fences[idx.index()] = self.fences[old_idx.index()];
                for side in 0..2 {
                    ports[idx.index() * 2 + side] = std::mem::replace(
                        &mut self.ports[old_idx.index() * 2 + side],
                        EgressQueue::new(self.config.port_buffer),
                    );
                }
            }
        }
        self.ports = ports;
        self.bytes_epoch = bytes;
        self.wire_epoch = wire;
        self.fences = fences;
        self.shared = shared;
        self.costs = costs;
        self.route_cache.bump_epoch();
    }
}

impl ShardModel for ShardFabric {
    type Event = ShardEvent;

    fn handle(&mut self, ctx: &mut WindowCtx<'_, ShardEvent>, event: ShardEvent) {
        match event {
            ShardEvent::Inject(flow) => self.inject(ctx, flow as usize),
            ShardEvent::Train(train) => self.train_arrive(ctx, train),
            ShardEvent::Delivered { flow, bytes } => {
                let flow = flow as usize;
                self.progress[flow].delivered += bytes;
                self.check_completion(ctx.now(), flow);
            }
            ShardEvent::Dropped { flow, bytes } => {
                let flow = flow as usize;
                let p = &mut self.progress[flow];
                p.injected = p.injected.saturating_sub(bytes);
                let now = ctx.now();
                self.arm_injector(ctx, flow, now);
            }
        }
    }

    /// Delivery acks only fold bytes into flow progress — they never
    /// schedule or send — so the window executor may fuse over stretches
    /// where nothing but deliveries is pending (the ack tail of a run).
    fn passive_key(key: u64) -> bool {
        key >> 62 == CLASS_DELIVERED
    }

    fn stop_contribution(&self) -> u64 {
        self.completed_flows as u64
    }
}

/// Reads the dense link constants out of the physical state.
fn compute_link_hot(phy: &PhyState, arena: &LinkArena) -> Vec<LinkHot> {
    arena
        .iter()
        .map(|(_, id)| match phy.link(id) {
            Some(l) => LinkHot {
                capacity: l.capacity(),
                propagation: l.propagation_delay(),
                fec: l.fec_latency(),
                up: matches!(l.state, rackfabric_phy::LinkState::Up),
            },
            None => LinkHot::DOWN,
        })
        .collect()
}

/// The global control side of the sharded engine: owns the physical state
/// and the CRC, and runs them at window-aligned sync points.
struct Coordinator {
    config: Arc<FabricConfig>,
    ack_delay: SimDuration,
    phy: PhyState,
    crc: ClosedRingControl,
    executor: PlpExecutor,
    price_book: PriceBook,
    /// Holds the coordinator-side metrics: telemetry series, reconfiguration
    /// events, topology counters. Merged with the shard metrics at the end.
    metrics: FabricMetrics,
    shared: Arc<SharedState>,
    link_hot: Vec<LinkHot>,
    lookahead: SimDuration,
    epoch_start: SimTime,
    next_epoch: SimTime,
    topology_upgraded: bool,
    total_flows: usize,
}

impl Coordinator {
    /// Recomputes the conservative lookahead from the **inter-rack link
    /// class**. Shards group whole racks ([`FabricPartition`] never splits
    /// one), so every cut link joins two racks by construction and the
    /// minimum live inter-rack latency lower-bounds every cross-shard
    /// envelope. The class is a topology property — not a partition
    /// property — so the value (and with it the window sequence and where
    /// stop/budget checks land) is identical for every shard count. Longer
    /// inter-rack cables directly buy longer windows; intra-rack hops no
    /// longer throttle them. Falls back to the all-links minimum when no
    /// live inter-rack link exists (a single-rack fabric never hands off,
    /// and the fallback keeps its window lattice unchanged).
    fn refresh_lookahead(&mut self) {
        let mask = &self.shared.inter_mask;
        let live_min = |inter_only: bool| {
            self.link_hot
                .iter()
                .enumerate()
                .filter(|(i, h)| (!inter_only || mask[*i]) && h.up && !h.capacity.is_zero())
                .map(|(_, h)| h.propagation + h.fec)
                .min()
        };
        let link_min = live_min(true)
            .or_else(|| live_min(false))
            .unwrap_or(SimDuration::MAX);
        self.lookahead = link_min
            .min(self.config.retry_delay)
            .min(self.ack_delay)
            .max(SimDuration::from_picos(1));
    }

    /// Pushes the current link constants and bypass table to every shard.
    fn broadcast_hot(&self, shards: &mut ShardsView<'_, ShardFabric>) {
        for shard in shards.models_mut() {
            shard.link_hot = self.link_hot.clone();
            shard.bypasses = self.phy.bypasses.clone();
        }
    }

    /// One Closed Ring Control epoch over merged shard telemetry (mirrors
    /// the monolithic `crc_epoch`).
    fn crc_epoch(&mut self, now: SimTime, shards: &mut ShardsView<'_, ShardFabric>) {
        let epoch = now.saturating_since(self.epoch_start);
        let epoch_s = epoch.as_secs_f64().max(1e-12);
        let arena_iter: Vec<(LinkIdx, LinkId)> = self.shared.arena.iter().collect();
        let shard_count = shards.len();

        // Flush merged wire bytes into the per-lane statistics, dense order.
        for &(idx, id) in &arena_iter {
            let mut total = 0u64;
            for s in 0..shard_count {
                let shard = shards.model(s);
                total += shard.wire_epoch[idx.index()];
                shard.wire_epoch[idx.index()] = 0;
            }
            if total > 0 {
                if let Some(l) = self.phy.link_mut(id) {
                    l.record_traffic(now, total);
                }
            }
        }

        // Merge per-link utilization / occupancy / throughput.
        let mut utilization = HashMap::new();
        let mut throughput = HashMap::new();
        let mut queue_bytes: HashMap<LinkId, f64> = HashMap::new();
        for &(idx, id) in &arena_iter {
            let mut bytes = 0u64;
            for s in 0..shard_count {
                bytes += shards.model(s).bytes_epoch[idx.index()];
            }
            let bps = bytes as f64 * 8.0 / epoch_s;
            throughput.insert(id, BitRate::from_bps(bps as u64));
            let cap = self.link_hot[idx.index()].capacity;
            let util = if cap.is_zero() {
                0.0
            } else {
                bps / cap.as_bps() as f64
            };
            utilization.insert(id, util);

            // Each directed port is owned by its transmitting node's shard.
            let mut occ = 0.0f64;
            for side in 0..2u32 {
                let port = rackfabric_topo::arena::PortIdx(idx.0 * 2 + side);
                let owner = self.shared.partition.port_owner(&self.shared.arena, port);
                let value = shards.model(owner).ports[port.index()].mean_occupancy(now);
                occ = occ.max(value);
            }
            queue_bytes.insert(id, occ);
        }

        let report = self
            .phy
            .telemetry_report(now, &utilization, &queue_bytes, &throughput);
        self.metrics
            .power_series
            .push_at(now, report.total_power.as_watts_f64());
        self.metrics
            .utilization_series
            .push_at(now, report.mean_utilization());
        // Sum throughput in dense link order (not map order) so the series
        // is deterministic.
        let total_gbps: f64 = arena_iter
            .iter()
            .map(|&(_, id)| throughput.get(&id).map(|r| r.as_gbps_f64()).unwrap_or(0.0))
            .sum();
        self.metrics.throughput_series.push_at(now, total_gbps);

        self.price_book = self.crc.price(&report);
        // Cost-aware routing (min-cost, UGAL-style adaptive): share one
        // price snapshot with every shard and invalidate their caches
        // together, so per-shard routing decisions stay
        // shard-count-independent.
        if self.config.routing.cost_aware() {
            let costs: Arc<[f64]> = self.price_book.link_costs(&self.shared.arena).into();
            for shard in shards.models_mut() {
                shard.costs = costs.clone();
                shard.route_cache.bump_epoch();
            }
        }

        if self.config.adaptive {
            let decision = self.crc.decide(&report, &self.phy);
            let mut phy_changed = false;
            for command in &decision.commands {
                match self.executor.execute(&mut self.phy, command) {
                    Ok(completion) => {
                        phy_changed = true;
                        for link in &completion.affected {
                            if let Some(idx) = self.shared.arena.index(*link) {
                                let until = now + completion.duration;
                                // Reconfiguration fences span shards: every
                                // shard sees the pause, including both sides
                                // of a cut link.
                                for shard in shards.models_mut() {
                                    let fence = &mut shard.fences[idx.index()];
                                    *fence = (*fence).max(until);
                                }
                            }
                        }
                        self.metrics
                            .reconfig_events
                            .push((now.as_micros_f64(), completion.command.clone()));
                    }
                    Err(_) => {
                        // Rejected commands are skipped; the next epoch
                        // re-evaluates.
                    }
                }
            }
            if phy_changed {
                self.link_hot = compute_link_hot(&self.phy, &self.shared.arena);
                self.broadcast_hot(shards);
                self.refresh_lookahead();
            }
            if decision.escalate_topology && !self.topology_upgraded {
                if let Some(target) = self.config.upgrade_spec.clone() {
                    self.upgrade_topology(now, &target, shards);
                }
            }
        }

        for shard in shards.models_mut() {
            shard.bytes_epoch.fill(0);
        }
        self.epoch_start = now;
        self.next_epoch = now + self.config.crc.epoch;
    }

    /// Whole-rack reconfiguration at a sync point: stop-the-world while the
    /// link set, arena, partition cut and every shard's dense state are
    /// rebuilt.
    fn upgrade_topology(
        &mut self,
        now: SimTime,
        target: &TopologySpec,
        shards: &mut ShardsView<'_, ShardFabric>,
    ) {
        let plan = match reconfigure::plan(&self.shared.spec, target, &self.shared.topo, &self.phy)
        {
            Ok(plan) if !plan.is_empty() => plan,
            _ => return,
        };
        let mut topo = self.shared.topo.clone();
        let Ok(duration) = reconfigure::apply(&plan, &self.executor, &mut self.phy, &mut topo)
        else {
            return;
        };
        let old_arena = self.shared.arena.clone();
        let arena = LinkArena::build(&topo);
        // In-flight trains hold routes interned against the old arena; the
        // upgrade is only safe when surviving links keep their dense index
        // (true for add-only plans — splits allocate fresh, higher ids).
        for (idx, id) in old_arena.iter() {
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
        let inter_mask = plan.target.inter_rack_mask(&arena);
        let racks = plan.target.rack_of();
        let shared = Arc::new(SharedState {
            topo,
            arena,
            spec: plan.target.clone(),
            partition,
            inter_mask,
            racks,
        });
        self.shared = shared.clone();
        self.link_hot = compute_link_hot(&self.phy, &self.shared.arena);
        let costs: Arc<[f64]> = self.price_book.link_costs(&shared.arena).into();
        let until = now + duration;
        for shard in shards.models_mut() {
            shard.migrate(&old_arena, shared.clone(), costs.clone());
            for fence in &mut shard.fences {
                *fence = (*fence).max(until);
            }
        }
        self.broadcast_hot(shards);
        self.refresh_lookahead();
        self.topology_upgraded = true;
        self.metrics.topology_reconfigurations += 1;
        self.metrics
            .reconfig_events
            .push((now.as_micros_f64(), format!("topology->{}", target.name)));
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
            ack_delay,
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
        let link_hot = compute_link_hot(&phy, &shared.arena);
        let costs: Arc<[f64]> = PriceBook::default().link_costs(&shared.arena).into();
        let bypasses = phy.bypasses.clone();
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
                    ack_delay,
                    flows: flows.clone(),
                    progress: vec![FlowProgress::default(); flows.len()],
                    train_seq: vec![0; flows.len()],
                    nics: (0..shared.spec.nodes as u32)
                        .map(|n| Nic::new(NodeId(n), config.port_buffer))
                        .collect(),
                    ports: (0..shared.arena.port_count())
                        .map(|_| EgressQueue::new(config.port_buffer))
                        .collect(),
                    link_hot: link_hot.clone(),
                    bypasses: bypasses.clone(),
                    fences: vec![SimTime::ZERO; shared.arena.len()],
                    bytes_epoch: vec![0; shared.arena.len()],
                    wire_epoch: vec![0; shared.arena.len()],
                    route_cache: RouteCache::new(),
                    costs: costs.clone(),
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

        let mut coordinator = Coordinator {
            crc: ClosedRingControl::new(config.crc),
            executor: PlpExecutor::new(config.plp_timing),
            ack_delay,
            phy,
            price_book: PriceBook::default(),
            metrics: FabricMetrics::default(),
            shared,
            link_hot,
            lookahead: SimDuration::from_picos(1),
            epoch_start: SimTime::ZERO,
            next_epoch: SimTime::ZERO + config.crc.epoch,
            topology_upgraded: false,
            total_flows: flows.len(),
            config,
        };
        coordinator.refresh_lookahead();

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
        // run (initial PLP policy); re-read the constants, like the
        // monolithic engine's `init`.
        self.coordinator.link_hot =
            compute_link_hot(&self.coordinator.phy, &self.coordinator.shared.arena);
        self.coordinator.refresh_lookahead();
        {
            let hot = self.coordinator.link_hot.clone();
            for s in 0..self.sim.shard_count() {
                self.sim.model_mut(s).link_hot = hot.clone();
            }
        }

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
            let stats = model.route_cache.stats();
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
