//! One Closed Ring Control epoch, shared by both engines.
//!
//! The monolithic engine ([`crate::fabric`]) and the sharded coordinator
//! ([`crate::shard`]) run the same loop at every control epoch: per-link
//! telemetry, then prices, then the decision and its PLP commands, then the
//! fences those commands raise. [`ControlStep`] is that loop, written once
//! over the engines' [`LinkTable`]s — one for the monolithic engine, one per
//! shard. What differs between the engines stays with them: who owns each
//! port's queue (the `port_owner` argument of [`ControlStep::run`]), how the
//! physical layer's changes reach the datapath, and how an escalation
//! rebuilds the dense state.

use crate::controller::ClosedRingControl;
use crate::fabric::{FabricConfig, LinkTable};
use crate::metrics::FabricMetrics;
use crate::price::PriceBook;
use crate::reconfigure;
use rackfabric_phy::{LinkLoad, PhyState, PlpExecutor};
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::BitRate;
use rackfabric_topo::arena::{LinkArena, PortIdx};
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::Topology;
use std::sync::Arc;

/// The control side of a fabric run: the CRC, the PLP executor, the latest
/// prices, the epoch start and the escalation latch.
pub(crate) struct ControlStep {
    crc: ClosedRingControl,
    executor: PlpExecutor,
    price_book: PriceBook,
    epoch_start: SimTime,
    /// Set once a topology escalation has been applied; the fabric escalates
    /// at most once per run.
    escalated: bool,
}

/// What one control epoch asks of its engine.
pub(crate) struct EpochOutcome {
    /// PLP commands changed the physical layer: the engine re-reads its link
    /// constants.
    pub(crate) phy_changed: bool,
    /// The topology to escalate to (see [`ControlStep::escalate`]).
    pub(crate) escalate: Option<TopologySpec>,
}

impl ControlStep {
    /// A control step for `config`, before its first epoch.
    pub(crate) fn new(config: &FabricConfig) -> Self {
        ControlStep {
            crc: ClosedRingControl::new(config.crc),
            executor: PlpExecutor::new(config.plp_timing),
            price_book: PriceBook::default(),
            epoch_start: SimTime::ZERO,
            escalated: false,
        }
    }

    /// The current prices lowered onto `arena` as routing costs.
    pub(crate) fn costs(&self, arena: &LinkArena) -> Arc<[f64]> {
        self.price_book.link_costs(arena).into()
    }

    /// Runs the control epoch ending at `now` over `tables`: reads and resets
    /// their epoch byte counters and queue occupancies (each port's queue in
    /// `tables[port_owner(port)]`), records the epoch's telemetry series,
    /// re-prices every link, decides and executes the PLP commands, and
    /// installs the new costs and fences in every table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        now: SimTime,
        config: &FabricConfig,
        phy: &mut PhyState,
        arena: &LinkArena,
        tables: &mut [&mut LinkTable],
        port_owner: impl Fn(PortIdx) -> usize,
        metrics: &mut FabricMetrics,
    ) -> EpochOutcome {
        let epoch_s = now
            .saturating_since(self.epoch_start)
            .as_secs_f64()
            .max(1e-12);
        self.epoch_start = now;
        let bytes = flush_epoch_bytes(now, phy, arena, tables);

        // Per-link loads, dense. The throughput total is summed in dense
        // link order so the series is deterministic.
        let mut loads = Vec::with_capacity(arena.len());
        let mut total_gbps = 0.0;
        for (idx, _) in arena.iter() {
            let bps = bytes[idx.index()] as f64 * 8.0 / epoch_s;
            let throughput = BitRate::from_bps(bps as u64);
            total_gbps += throughput.as_gbps_f64();
            // Every table holds the same link constants.
            let capacity = tables[0].hot[idx.index()].capacity;
            let utilization = if capacity.is_zero() {
                0.0
            } else {
                bps / capacity.as_bps() as f64
            };
            let mut queue_bytes = 0.0f64;
            for side in 0..2 {
                let port = PortIdx(idx.0 * 2 + side);
                let queue = &mut tables[port_owner(port)].ports[port.index()];
                queue_bytes = queue_bytes.max(queue.mean_occupancy(now));
            }
            loads.push(LinkLoad {
                utilization,
                queue_bytes,
                throughput,
            });
        }
        let report = phy.telemetry_report_by(now, |id| {
            arena
                .index(id)
                .map_or_else(LinkLoad::default, |idx| loads[idx.index()])
        });
        metrics
            .power_series
            .push_at(now, report.total_power.as_watts_f64());
        metrics
            .utilization_series
            .push_at(now, report.mean_utilization());
        metrics.throughput_series.push_at(now, total_gbps);

        self.price_book = self.crc.price(&report);
        // Only cost-aware routing (min cost, UGAL-style adaptive) reads the
        // costs; its cached routes must not survive a price update.
        let costs = config.routing.cost_aware().then(|| self.costs(arena));

        let mut outcome = EpochOutcome {
            phy_changed: false,
            escalate: None,
        };
        let mut fences = Vec::new();
        if config.adaptive {
            let decision = self.crc.decide(&report, phy);
            for command in &decision.commands {
                // A rejected command (e.g. a link went down between telemetry
                // and actuation) is skipped; the next epoch re-evaluates.
                let Ok(completion) = self.executor.execute(phy, command) else {
                    continue;
                };
                outcome.phy_changed = true;
                let until = now + completion.duration;
                fences.extend(
                    completion
                        .affected
                        .iter()
                        .filter_map(|link| arena.index(*link))
                        .map(|idx| (idx, until)),
                );
                metrics
                    .reconfig_events
                    .push((now.as_micros_f64(), completion.command));
            }
            if decision.escalate_topology && !self.escalated {
                outcome.escalate = config.upgrade_spec.clone();
            }
        }
        for table in tables.iter_mut() {
            table.apply(costs.as_ref(), &fences);
        }
        outcome
    }

    /// Plans and applies the whole-topology move from `current` to `target`
    /// on `phy` and `topo`, and records it. Returns the instant the fabric
    /// has re-trained — the engine rebuilds its dense state and fences every
    /// link until then — or `None` when there is nothing to apply or the
    /// move fails.
    pub(crate) fn escalate(
        &mut self,
        now: SimTime,
        current: &TopologySpec,
        target: &TopologySpec,
        topo: &mut Topology,
        phy: &mut PhyState,
        metrics: &mut FabricMetrics,
    ) -> Option<SimTime> {
        let plan = reconfigure::plan(current, target, topo, phy)
            .ok()
            .filter(|plan| !plan.is_empty())?;
        let duration = reconfigure::apply(&plan, &self.executor, phy, topo).ok()?;
        self.escalated = true;
        metrics.topology_reconfigurations += 1;
        metrics
            .reconfig_events
            .push((now.as_micros_f64(), format!("topology->{}", target.name)));
        Some(now + duration)
    }
}

/// Sums each link's epoch bytes over `tables` in dense order, resets the
/// counters, and charges the sums to the links' lanes (PLP #5). Returns the
/// sums, `LinkIdx`-indexed.
pub(crate) fn flush_epoch_bytes(
    now: SimTime,
    phy: &mut PhyState,
    arena: &LinkArena,
    tables: &mut [&mut LinkTable],
) -> Vec<u64> {
    arena
        .iter()
        .map(|(idx, id)| {
            let bytes: u64 = tables
                .iter_mut()
                .map(|table| std::mem::take(&mut table.epoch_bytes[idx.index()]))
                .sum();
            if bytes > 0 {
                if let Some(link) = phy.link_mut(id) {
                    link.record_traffic(now, bytes);
                }
            }
            bytes
        })
        .collect()
}
