//! `RouteCache` epoch invalidation across a reconfiguration fence and
//! across CRC price updates.
//!
//! The route cache must serve whole epochs from memory, yet recompute every
//! route after a whole-rack reconfiguration (the grid→torus escalation):
//! stale routes reference links that may have been re-laned or split, and
//! traffic resuming after the fence must see the new fabric. Under min-cost
//! routing every CRC epoch re-prices the links, so every epoch must rebuild
//! the trees too. Both properties are pinned on both engines, along with the
//! single-path accounting: a lookup misses only when its source has no tree
//! yet in the current epoch.

use rackfabric::fabric::{run_fabric, FabricConfig};
use rackfabric::shard::{run_sharded, ShardedConfig};
use rackfabric_sim::config::SimConfig;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::Bytes;
use rackfabric_sim::DetRng;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;
use rackfabric_workload::{Flow, MapReduceShuffle, Workload};

/// Nodes of the 4×4 rack; every one sources shuffle flows.
const SOURCES: u64 = 16;

fn shuffle_flows() -> Vec<Flow> {
    MapReduceShuffle::all_to_all(SOURCES as usize, Bytes::from_kib(64))
        .generate(&mut DetRng::new(7))
}

/// Shortest-hop adaptive config: the cache is invalidated **only** by
/// reconfigurations (min-cost routing would also bump it on every price
/// update and wash the signal out).
fn config(upgrade: bool) -> FabricConfig {
    let mut c = FabricConfig::adaptive(TopologySpec::grid(4, 4, 2));
    c.routing = RoutingAlgorithm::ShortestHop;
    c.upgrade_spec = upgrade.then(|| TopologySpec::torus(4, 4, 1));
    c.crc.epoch = SimDuration::from_micros(20);
    c.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(200));
    c
}

/// Min-cost adaptive config: the cache is also invalidated by every CRC
/// price update.
fn min_cost_config(upgrade: bool) -> FabricConfig {
    let mut c = config(upgrade);
    c.routing = RoutingAlgorithm::MinCost;
    c
}

/// Re-pricing invalidates (some source builds more than one tree), yet no
/// source builds more than one tree per cache epoch: the initial epoch plus
/// one per CRC epoch, whose price update starts a new one.
fn assert_one_tree_per_source_per_price_epoch(misses: u64, crc_epochs: usize) {
    assert!(
        misses > SOURCES,
        "price updates must force fresh trees ({misses} misses)"
    );
    let bound = SOURCES * (crc_epochs as u64 + 1);
    assert!(
        misses <= bound,
        "at most one tree per source per epoch: {misses} misses > {bound}"
    );
}

#[test]
fn reconfiguration_fence_invalidates_the_route_cache() {
    let static_run = run_fabric(config(false), shuffle_flows());
    let upgraded = run_fabric(config(true), shuffle_flows());

    assert!(static_run.all_flows_complete());
    assert!(upgraded.all_flows_complete());
    assert_eq!(
        upgraded.metrics.topology_reconfigurations, 1,
        "the upgraded run must actually reconfigure"
    );

    let before = static_run.route_cache_stats();
    let after = upgraded.route_cache_stats();
    // Without a fence or price update the whole run is one epoch: each
    // source builds its tree once and every later lookup hits.
    assert_eq!(before.misses, SOURCES);
    assert!(
        after.misses <= 2 * SOURCES,
        "one tree per source per side of the fence"
    );
    // Without an invalidation the post-upgrade routes would be served stale
    // from the cache and the miss counts would match; the epoch bump forces
    // at least one fresh tree per active source after the fence.
    assert!(
        after.misses > before.misses,
        "upgrade must force route recomputation (static misses {}, upgraded misses {})",
        before.misses,
        after.misses
    );
    // The cache still carries the bulk of the traffic in both runs.
    assert!(
        before.hit_rate() > 0.5,
        "static hit rate {}",
        before.hit_rate()
    );
    assert!(
        after.hit_rate() > 0.5,
        "upgraded hit rate {}",
        after.hit_rate()
    );
    // The metrics surface agrees with the cache's own counters.
    let summary = upgraded.metrics.summary();
    assert_eq!(summary.route_cache_misses, after.misses);
    assert_eq!(summary.route_cache_hits, after.hits);
}

#[test]
fn sharded_engine_invalidates_per_shard_caches_across_the_fence() {
    let run = |upgrade: bool| {
        let mut c = config(upgrade);
        // The sharded engine completes the same shuffle on its own timeline
        // (acks add latency); keep the same horizon.
        c.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(250));
        run_sharded(ShardedConfig::new(c, 4), shuffle_flows())
    };
    let static_run = run(false);
    let upgraded = run(true);
    assert!(static_run.all_flows_complete);
    assert!(upgraded.all_flows_complete);
    assert_eq!(upgraded.metrics.topology_reconfigurations, 1);
    let before = static_run.metrics.summary();
    let after = upgraded.metrics.summary();
    // Each source's flows are injected by the shard owning it, so the
    // per-shard caches together build one tree per source.
    assert_eq!(before.route_cache_misses, SOURCES);
    assert!(after.route_cache_misses <= 2 * SOURCES);
    assert!(
        after.route_cache_misses > before.route_cache_misses,
        "per-shard caches must all recompute after the fence \
         (static misses {}, upgraded misses {})",
        before.route_cache_misses,
        after.route_cache_misses
    );
    assert!(after.route_cache_hit_rate > 0.5);
}

#[test]
fn min_cost_routing_rebuilds_trees_every_price_epoch_and_across_the_fence() {
    // The upgrade runs inside a CRC epoch, right after its price update, so
    // under min-cost routing the fence's invalidation coincides with a price
    // one. The upgraded run pins that trees rebuilt on the torus carry the
    // shuffle to completion within the same per-epoch bound.
    for upgrade in [false, true] {
        let run = run_fabric(min_cost_config(upgrade), shuffle_flows());
        assert!(run.all_flows_complete());
        assert_eq!(run.metrics.topology_reconfigurations, upgrade as u32);
        let stats = run.route_cache_stats();
        assert_one_tree_per_source_per_price_epoch(
            stats.misses,
            run.metrics.utilization_series.len(),
        );
        assert!(stats.hit_rate() > 0.5, "hit rate {}", stats.hit_rate());
        let summary = run.metrics.summary();
        assert_eq!(summary.route_cache_misses, stats.misses);
        assert_eq!(summary.route_cache_hits, stats.hits);
    }
}

#[test]
fn sharded_min_cost_routing_rebuilds_trees_every_price_epoch_and_across_the_fence() {
    for upgrade in [false, true] {
        let mut c = min_cost_config(upgrade);
        c.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(250));
        let run = run_sharded(ShardedConfig::new(c, 4), shuffle_flows());
        assert!(run.all_flows_complete);
        assert_eq!(run.metrics.topology_reconfigurations, upgrade as u32);
        let summary = run.metrics.summary();
        assert_one_tree_per_source_per_price_epoch(
            summary.route_cache_misses,
            run.metrics.utilization_series.len(),
        );
        assert!(summary.route_cache_hit_rate > 0.5);
    }
}
