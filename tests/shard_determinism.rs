//! Acceptance gate of the sharded multi-rack engine: sweeps run with 1 shard
//! and with N shards must export **byte-identical** CSV/JSON — the same
//! property the scenario runner guarantees for 1-vs-N threads, lifted to the
//! engine's own parallel decomposition. Every float, percentile, counter and
//! label participates via the textual comparison.

use rackfabric::prelude::{FabricMetrics, TopologySpec};
use rackfabric::shard::{run_sharded, ShardedConfig};
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::run_scenario;
use rackfabric_sim::prelude::*;

/// Everything the control loop writes, floats as bits: the power,
/// utilization and throughput series, the PLP command log and the topology
/// escalation count. The run summary keeps only their means and counts.
type ControlOutput = (Vec<Vec<(u64, u64)>>, Vec<(u64, String)>, u32);

fn control_output(m: &FabricMetrics) -> ControlOutput {
    let series = [&m.power_series, &m.utilization_series, &m.throughput_series]
        .map(|s| {
            s.points()
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        })
        .to_vec();
    let commands = m
        .reconfig_events
        .iter()
        .map(|(at, command)| (at.to_bits(), command.clone()))
        .collect();
    (series, commands, m.topology_reconfigurations)
}

/// A small controller × load sweep on the sharded engine with `shards` rack
/// groups per job.
fn sharded_matrix(shards: usize) -> Matrix {
    let base = ScenarioSpec::new(
        "shard-determinism",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .horizon(SimTime::from_millis(20))
    .shards(shards);
    Matrix::new(base)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
        .replicates(2)
        .master_seed(7781)
}

#[test]
fn one_shard_and_n_shards_export_identical_bytes() {
    let one = Runner::single_threaded().run(&sharded_matrix(1));
    assert_eq!(one.failed_jobs(), 0);
    for shards in [2, 3, 9] {
        let many = Runner::single_threaded().run(&sharded_matrix(shards));
        assert_eq!(
            one.to_csv(),
            many.to_csv(),
            "{shards}-shard sweep diverged from the 1-shard reference (CSV)"
        );
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "{shards}-shard sweep diverged from the 1-shard reference (JSON)"
        );
        // Engine event counts are part of the contract: the window planner
        // derives from shard-count-independent quantities.
        for (a, b) in one.jobs.iter().zip(&many.jobs) {
            match (&a.outcome, &b.outcome) {
                (JobOutcome::Completed(x), JobOutcome::Completed(y)) => {
                    assert_eq!(
                        x.events_processed, y.events_processed,
                        "job {} processed different event counts at {shards} shards",
                        a.job.index
                    );
                    assert_eq!(x.summary, y.summary, "job {} diverged", a.job.index);
                }
                _ => panic!("job {} did not complete in both runs", a.job.index),
            }
        }
    }
}

#[test]
fn shards_axis_cross_checks_within_one_matrix() {
    // The shards axis expands 1-shard and N-shard cells side by side from
    // the same base; their per-replicate seeds differ (each cell draws its
    // own), so equality is checked via the dedicated 1-vs-N sweeps above.
    // Here the axis itself must expand, label and run cleanly.
    let base = ScenarioSpec::new(
        "shards-axis",
        TopologySpec::grid(2, 2, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(1)),
    )
    .horizon(SimTime::from_millis(10));
    let matrix = Matrix::new(base).axis(
        "shards",
        vec![
            AxisValue::Shards(1),
            AxisValue::Shards(2),
            AxisValue::Shards(4),
        ],
    );
    let result = Runner::single_threaded().run(&matrix);
    assert_eq!(result.failed_jobs(), 0);
    assert_eq!(result.cells.len(), 3);
    let labels: Vec<&str> = result
        .cells
        .iter()
        .map(|c| c.labels[0].1.as_str())
        .collect();
    assert_eq!(labels, vec!["1", "2", "4"]);
    for cell in &result.cells {
        assert_eq!(cell.completed_runs, 1, "cell {:?}", cell.labels);
        assert!(cell.delivered_bytes > 0);
    }
}

#[test]
fn worker_thread_count_does_not_change_sharded_results() {
    let run = |workers: usize| {
        let flows = ScenarioSpec::new(
            "workers",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .seed(42)
        .build_flows();
        let spec = ScenarioSpec::new(
            "workers",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .seed(42)
        .horizon(SimTime::from_millis(20));
        let mut config = ShardedConfig::new(spec.to_fabric_config(), 3);
        config.workers = workers;
        run_sharded(config, flows)
    };
    let serial = run(1);
    let threaded = run(3);
    assert!(serial.all_flows_complete);
    assert_eq!(serial.events_processed, threaded.events_processed);
    assert_eq!(serial.windows, threaded.windows);
    assert_eq!(serial.metrics.summary(), threaded.metrics.summary());
}

/// Stress gate for the phase-counted window executor: deterministic
/// wall-clock jitter (injected sleeps/yields keyed off `(seed, worker,
/// round)`) shuffles the real-time interleaving of workers — early
/// advances, inbox arrival order, seal timing — across shard and worker
/// counts, and every run must still match the unstaggered 1-worker
/// reference exactly. Wall time is the only thing stagger may move.
#[test]
fn staggered_workers_do_not_change_sharded_results() {
    let run = |shards: usize, workers: usize, stagger: Option<u64>| {
        let spec = ScenarioSpec::new(
            "stagger",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .seed(42)
        .horizon(SimTime::from_millis(20));
        let flows = spec.build_flows();
        let mut config = ShardedConfig::new(spec.to_fabric_config(), shards);
        config.workers = workers;
        config.stagger = stagger;
        run_sharded(config, flows)
    };
    let reference = run(1, 1, None);
    assert!(reference.all_flows_complete);
    for (shards, workers) in [(3, 2), (3, 3), (2, 2)] {
        for seed in [1u64, 77, 4242] {
            let chaotic = run(shards, workers, Some(seed));
            assert_eq!(
                reference.events_processed, chaotic.events_processed,
                "stagger seed {seed} at {shards} shards / {workers} workers \
                 changed the event count"
            );
            assert_eq!(
                reference.windows, chaotic.windows,
                "stagger seed {seed} at {shards} shards / {workers} workers \
                 changed the window count"
            );
            assert_eq!(
                reference.metrics.summary(),
                chaotic.metrics.summary(),
                "stagger seed {seed} at {shards} shards / {workers} workers \
                 changed the results"
            );
        }
    }
}

/// A reconfiguration fence spanning shards: the grid→torus escalation runs
/// at a sync point, fences every link in **every** shard, and the upgraded
/// fabric must behave identically for 1 and 4 shards.
#[test]
fn topology_upgrade_is_shard_count_independent() {
    let run = |shards: usize| {
        let spec = ScenarioSpec::new(
            "upgrade",
            TopologySpec::grid(4, 4, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(48)),
        )
        .upgrade(TopologySpec::torus(4, 4, 1))
        .seed(4)
        .horizon(SimTime::from_millis(120));
        let flows = spec.build_flows();
        let mut fabric_config = spec.to_fabric_config();
        fabric_config.crc.epoch = SimDuration::from_micros(20);
        run_sharded(ShardedConfig::new(fabric_config, shards), flows)
    };
    let one = run(1);
    let four = run(4);
    assert!(one.all_flows_complete, "1-shard upgrade run must finish");
    assert_eq!(
        one.metrics.topology_reconfigurations, 1,
        "sustained shuffle pressure should trigger exactly one upgrade"
    );
    assert_eq!(four.shards, 4);
    assert_eq!(one.metrics.summary(), four.metrics.summary());
    assert_eq!(control_output(&one.metrics), control_output(&four.metrics));
    assert_eq!(one.events_processed, four.events_processed);
    assert_eq!(one.syncs, four.syncs);
}

/// The dragonfly acceptance gate: groups are racks, so sharding by group
/// cuts only global links, and the three routing policies (minimal /
/// Valiant / UGAL-style adaptive) must export byte-identically at every
/// shard count. Valiant and adaptive are per-flow and cost-aware — the
/// strongest test of the shared rack table and the shared cost vector.
fn dragonfly_matrix(shards: usize) -> Matrix {
    use rackfabric_topo::routing::RoutingAlgorithm;
    let base = ScenarioSpec::new(
        "dragonfly-shard-determinism",
        TopologySpec::dragonfly(3, 2, 2, 1),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .controller(ControllerSpec::Baseline)
    .horizon(SimTime::from_millis(20))
    .shards(shards);
    Matrix::new(base)
        .axis(
            "routing",
            vec![
                AxisValue::Routing(RoutingAlgorithm::ShortestHop),
                AxisValue::Routing(RoutingAlgorithm::Valiant),
                AxisValue::Routing(RoutingAlgorithm::Adaptive),
            ],
        )
        .replicates(2)
        .master_seed(2718)
}

#[test]
fn dragonfly_routing_policies_are_shard_count_independent() {
    let one = Runner::single_threaded().run(&dragonfly_matrix(1));
    assert_eq!(one.failed_jobs(), 0);
    // 3 = one shard per dragonfly group (every cut is a global link);
    // 2 leaves one shard holding two groups.
    for shards in [2, 3] {
        let many = Runner::single_threaded().run(&dragonfly_matrix(shards));
        assert_eq!(
            one.to_csv(),
            many.to_csv(),
            "{shards}-shard dragonfly sweep diverged from the 1-shard reference (CSV)"
        );
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "{shards}-shard dragonfly sweep diverged from the 1-shard reference (JSON)"
        );
    }
    for cell in &one.cells {
        assert_eq!(cell.completed_runs, 2, "cell {:?}", cell.labels);
    }
}

/// An upgrade fence on a **global** (inter-group) link under sharding: the
/// escalation target adds one extra global link between two groups, so the
/// fence lands on a link that is a partition cut when sharded by group. The
/// reconfiguration must fire exactly once and the run must match the
/// 1-shard reference at every shard count.
#[test]
fn dragonfly_upgrade_fence_on_a_global_link_is_shard_count_independent() {
    use rackfabric_topo::spec::{EdgeSpec, LinkClass, DEFAULT_INTER_RACK_LENGTH};
    // Two lanes per link: the added global edge has no relane donor in the
    // upgrade diff, so `reconfigure::plan` must split a lane off an existing
    // link, which needs at least one link wider than the edge being added.
    let source = TopologySpec::dragonfly(3, 2, 2, 2);
    // Add-only escalation: the same dragonfly plus a second global link
    // between group 0 (router 0) and group 2 (router 1) — a pair no
    // baseline global link connects.
    let mut target = source.clone();
    let media = target.edges[0].media;
    target.edges.push(EdgeSpec {
        a: rackfabric_topo::NodeId(0),
        b: rackfabric_topo::NodeId(13),
        lanes: 1,
        length: DEFAULT_INTER_RACK_LENGTH,
        media,
        class: LinkClass::InterRack,
    });
    target.name = format!("{}+extra-global", source.name);
    let run = |shards: usize| {
        let spec = ScenarioSpec::new(
            "dragonfly-upgrade",
            source.clone(),
            WorkloadSpec::shuffle(Bytes::from_kib(48)),
        )
        .upgrade(target.clone())
        .seed(4)
        .horizon(SimTime::from_millis(200));
        let flows = spec.build_flows();
        let mut fabric_config = spec.to_fabric_config();
        fabric_config.crc.epoch = SimDuration::from_micros(20);
        run_sharded(ShardedConfig::new(fabric_config, shards), flows)
    };
    let one = run(1);
    assert!(one.all_flows_complete, "1-shard upgrade run must finish");
    assert_eq!(
        one.metrics.topology_reconfigurations, 1,
        "sustained shuffle pressure should trigger exactly one upgrade"
    );
    for shards in [2, 3] {
        let many = run(shards);
        assert_eq!(many.shards, shards);
        assert_eq!(one.metrics.summary(), many.metrics.summary());
        assert_eq!(control_output(&one.metrics), control_output(&many.metrics));
        assert_eq!(one.events_processed, many.events_processed);
        assert_eq!(one.syncs, many.syncs);
    }
}

/// PHY bypasses installed before the run (the scenario layer's bypass
/// chain) reach every shard: on e8's chain each bypassed switch saves the
/// same 500.12 ns of minimum packet latency at every shard count, as it
/// does on the monolithic engine.
#[test]
fn bypasses_installed_before_the_run_reach_every_shard() {
    let jobs = rackfabric_bench::figures::e8_matrix(4).expand();
    for shards in [0, 1, 2] {
        let min_latency_ps: Vec<f64> = jobs
            .iter()
            .map(|job| {
                let result = run_scenario(&job.spec.clone().shards(shards));
                assert!(result.all_flows_complete);
                result.summary.packet_latency.min
            })
            .collect();
        for (bypassed, pair) in min_latency_ps.windows(2).enumerate() {
            assert_eq!(
                pair[0] - pair[1],
                500_120.0,
                "{shards} shards: bypassing switch {} must save one switch traversal",
                bypassed + 1
            );
        }
    }
}

#[test]
fn rerunning_the_same_sharded_matrix_is_reproducible() {
    let first = Runner::single_threaded().run(&sharded_matrix(3));
    let second = Runner::single_threaded().run(&sharded_matrix(3));
    assert_eq!(first.to_csv(), second.to_csv());
    assert_eq!(first.to_json(), second.to_json());
}
