//! Per-layer metrics of the traced command.
//!
//! Two kinds:
//!
//! * **The ladder** ([`ladder`]): each layer's public function timed from
//!   outside on fixed reference inputs, the same in every workload's traced
//!   run, so every traced run reports the same per-layer set ([`LADDER`]).
//! * **Workload counters** ([`figures_cold`], [`figures_warm`], [`shuffle`],
//!   [`daemon`]): counts and timings captured from the workload run itself.
//!   A workload that does not exercise a layer lists it with the reason.

use crate::cli::{Size, Workload};
use crate::daemon::pool_command;
use crate::host::{self, nanos};
use crate::phase::{journal_dir, store_dir, Layer, Parsed, PhaseReport};
use crate::shuffle::{self, CellRun};
use crate::stats::{self, median, percentile};
use rackfabric::prelude::{
    AdaptiveFabric, ClosedRingControl, CrcConfig, ShardedConfig, ShardedFabric,
};
use rackfabric_bench::figures::{figure_defs, run_figures, FigureKind, FigureRun, Scale};
use rackfabric_cmd::journal::read_log;
use rackfabric_cmd::{decode_spec, Command, Executor, Journal};
use rackfabric_daemon::service::execute_oneshot;
use rackfabric_daemon::{Event, JobEnd, Scheduler};
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_phy::PhyState;
use rackfabric_scenario::aggregate::aggregate_cells;
use rackfabric_scenario::export::{cells_to_csv, cells_to_json};
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::Runner;
use rackfabric_sim::event::EventId;
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sim::prelude::*;
use rackfabric_sim::queue::Scheduler as EventScheduler;
use rackfabric_sweep::emit::render_files;
use rackfabric_sweep::key::job_key;
use rackfabric_sweep::store::ResultStore;
use rackfabric_switch::packet::{FlowId, Packet, PacketId};
use rackfabric_switch::EgressQueue;
use rackfabric_topo::routing::{dijkstra_tree, shortest_path_tree, valiant_route};
use rackfabric_topo::{NodeId, Topology, TopologySpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The per-layer metrics every traced run reports: the ladder, plus the
/// tracing overhead.
pub const LADDER: [(&str, &str); 23] = [
    ("sim.calendar.op_ns", "ns"),
    ("sim.json.parse_ns_per_byte", "ns/B"),
    ("sim.json.parse_ns_per_byte_max", "ns/B"),
    ("topo.route_tree_us", "us"),
    ("topo.route_tree_us_torus16", "us"),
    ("topo.dijkstra_tree_us", "us"),
    ("topo.valiant_route_us", "us"),
    ("switch.enqueue_train_ns", "ns"),
    ("core.crc_decide_us", "us"),
    ("workload.build_flows_ms", "ms"),
    ("scenario.aggregate_ms", "ms"),
    ("sweep.job_key_us", "us"),
    ("sweep.job_key_us_max", "us"),
    ("sweep.store.get_us", "us"),
    ("sweep.store.get_us_max", "us"),
    ("sweep.store.put_us", "us"),
    ("sweep.emit.render_ms", "ms"),
    ("cmd.journal.append_us", "us"),
    ("cmd.journal.append_us_p99", "us"),
    ("cmd.decode_spec_us", "us"),
    ("daemon.oneshot_warm_us", "us"),
    ("daemon.sched.handoff_us", "us"),
    ("daemon.proto.event_us", "us"),
];

/// Per-layer metrics captured from one workload; the other workloads list
/// them as not exercised.
const CAPTURED: [(&str, Workload); 21] = [
    ("sim.events", Workload::Shuffle8x8),
    ("sim.events.adaptive", Workload::Shuffle8x8),
    ("sim.ns_per_event", Workload::Shuffle8x8),
    ("sim.ns_per_event.adaptive", Workload::Shuffle8x8),
    ("topo.route_cache_hit_rate", Workload::Shuffle8x8),
    ("topo.route_cache_hit_rate.adaptive", Workload::Shuffle8x8),
    ("core.fabric_new_ms", Workload::Shuffle8x8),
    ("core.fabric_new_ms.adaptive", Workload::Shuffle8x8),
    ("core.crc_epochs", Workload::Shuffle8x8),
    ("core.shard1_over_mono", Workload::Shuffle8x8),
    ("core.shard.windows", Workload::FiguresPaper),
    ("core.shard.syncs", Workload::FiguresPaper),
    ("core.shard.drain_ns_per_event", Workload::FiguresPaper),
    ("scenario.job_ms", Workload::FiguresPaper),
    ("scenario.job_ms_max", Workload::FiguresPaper),
    ("scenario.runner.busy_fraction", Workload::FiguresPaper),
    ("sweep.store.warm_misses", Workload::FiguresPaper),
    ("cmd.journal.records", Workload::FiguresPaper),
    ("daemon.service_overhead_us", Workload::DaemonMixed),
    ("daemon.response_p50_us", Workload::DaemonMixed),
    ("daemon.response_p99_us", Workload::DaemonMixed),
];

/// Median per-call time of `f` in `unit_ns`, over `reps` calls.
fn per_call(reps: usize, unit_ns: f64, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            nanos(t.elapsed()) / unit_ns
        })
        .collect()
}

fn instantiate(spec: &TopologySpec) -> (PhyState, Topology) {
    let config = ScenarioSpec::new(
        "rackbench-layers",
        spec.clone(),
        WorkloadSpec::single_flow(Bytes::new(1500)),
    )
    .to_fabric_config();
    let mut phy = PhyState::new();
    let topo = config.spec.instantiate(&mut phy, config.lane_rate);
    (phy, topo)
}

/// A telemetry report of `phy` with seeded synthetic load on every link.
fn telemetry(phy: &PhyState) -> rackfabric_phy::stats::TelemetryReport {
    let mut rng = DetRng::new(11);
    let links = phy.link_ids();
    let util: HashMap<_, f64> = links.iter().map(|&l| (l, rng.next_f64())).collect();
    let queue: HashMap<_, f64> = links
        .iter()
        .map(|&l| (l, rng.next_f64() * 128_000.0))
        .collect();
    let tput: HashMap<_, BitRate> = links
        .iter()
        .map(|&l| (l, BitRate::from_gbps(rng.range_u64(1..25))))
        .collect();
    phy.telemetry_report(SimTime::ZERO, &util, &queue, &tput)
}

/// `CalendarQueue` pop + push through the `Scheduler` trait, on a stream
/// shaped like the fabric's: mostly serialization gaps, some propagation
/// hops, a few control-epoch timers.
fn calendar_op_ns(ops: usize) -> f64 {
    let mut rng = DetRng::new(5);
    let delays: Vec<SimDuration> = (0..65_536)
        .map(|_| match rng.index(10) {
            0 => SimDuration::from_micros(10),
            1..=3 => SimDuration::from_nanos(5 + rng.range_u64(0..50)),
            _ => SimDuration::from_nanos(400 + rng.range_u64(0..200)),
        })
        .collect();
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let mut id = 0u64;
    for d in delays.iter().take(4096) {
        queue.push(SimTime::ZERO + *d, EventId(id), id);
        id += 1;
    }
    let start = Instant::now();
    for i in 0..ops {
        let (at, _, event) = queue.pop().expect("the queue never drains");
        black_box(event);
        queue.push(at + delays[i % delays.len()], EventId(id), id);
        id += 1;
    }
    nanos(start.elapsed()) / ops as f64
}

/// `EgressQueue::enqueue_train` per packet: 16-frame MTU trains at 25 Gb/s,
/// each arriving as the previous one leaves.
fn enqueue_train_ns(trains: usize) -> f64 {
    let mut queue = EgressQueue::new(Bytes::from_kib(256));
    let rate = BitRate::from_gbps(25);
    let mut now = SimTime::ZERO;
    let mut total = 0.0;
    let mut packets_sent = 0usize;
    for t in 0..trains {
        let mut train: Vec<Packet> = (0..16)
            .map(|i| {
                Packet::new(
                    PacketId((t * 16 + i) as u64),
                    FlowId(t as u64 % 64),
                    NodeId(0),
                    NodeId(1),
                    Bytes::new(1500),
                    now + SimDuration::from_nanos(i as u64 * 480),
                )
            })
            .collect();
        let start = Instant::now();
        let admission = queue.enqueue_train(
            &mut train,
            rate,
            SimDuration::from_nanos(10),
            SimDuration::ZERO,
            true,
        );
        total += nanos(start.elapsed());
        packets_sent += admission.accepted;
        now = admission.last_departs_at.max(now);
    }
    total / packets_sent.max(1) as f64
}

/// The figure campaign at `scale`, answered from the store under `dir` that
/// a cold pass filled: the executor and every figure's outcome.
fn figure_store(dir: &Path, scale: Scale) -> std::io::Result<(Executor, Vec<FigureRun>)> {
    let exec = Executor::new(
        ResultStore::open(store_dir(dir))?,
        Runner::new(host::nproc()),
    );
    let runs = run_figures(scale, &exec)?;
    let executed: usize = runs.iter().map(|r| r.executed).sum();
    if executed > 0 {
        return Err(std::io::Error::other(format!(
            "the store under {} lacked {executed} of the campaign's records",
            dir.display()
        )));
    }
    Ok((exec, runs))
}

/// Every record file of a store, as text.
fn store_records(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(root.join("objects"))
        .into_iter()
        .flatten()
        .flatten()
    {
        for entry in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            if entry.path().extension().is_some_and(|e| e == "json") {
                files.push(entry.path());
            }
        }
    }
    files.sort();
    files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .collect()
}

/// Specs of every simulated figure job at `scale`.
fn campaign_specs(scale: Scale) -> Vec<ScenarioSpec> {
    figure_defs(scale)
        .into_iter()
        .filter_map(|def| match def.kind {
            FigureKind::Sim(matrix, _) => Some(matrix.expand()),
            FigureKind::Analytic(_) => None,
        })
        .flatten()
        .map(|job| job.spec)
        .collect()
}

/// The ladder: every layer's public function on fixed reference inputs.
/// The store, parse, aggregate and render functions take the figure
/// campaign at `scale` as their input: `dir` holds the store a cold pass
/// filled, and the warm campaign over it gives every figure's outcome.
pub fn ladder(report: &mut PhaseReport, dir: &Path, scale: Scale) {
    let tiny = scale == Scale::Tiny;
    let reps = |full: usize| if tiny { (full / 50).max(3) } else { full };

    report.layer("sim.calendar.op_ns", calendar_op_ns(reps(2_000_000)), "ns");

    let (exec, runs) = match figure_store(dir, scale) {
        Ok(v) => v,
        Err(e) => {
            report.check_failures.push(format!("figure store: {e}"));
            return;
        }
    };
    let mut records = store_records(&store_dir(dir));
    records.sort_by_key(String::len);
    let parse_ns_per_byte = |text: &String| {
        let times = per_call(reps(200), text.len() as f64, |_| {
            black_box(json::parse(text).is_ok());
        });
        median(&times)
    };
    if let (Some(mid), Some(largest)) = (records.get(records.len() / 2), records.last()) {
        report.layer("sim.json.parse_ns_per_byte", parse_ns_per_byte(mid), "ns/B");
        report.layer(
            "sim.json.parse_ns_per_byte_max",
            parse_ns_per_byte(largest),
            "ns/B",
        );
    }

    let (_, grid) = instantiate(&TopologySpec::grid(8, 8, 2));
    let (_, torus) = instantiate(&TopologySpec::torus(16, 16, 2));
    for (name, topo) in [
        ("topo.route_tree_us", &grid),
        ("topo.route_tree_us_torus16", &torus),
    ] {
        let n = topo.node_count();
        let times = per_call(reps(50) * n, 1e3, |i| {
            black_box(shortest_path_tree(topo, NodeId((i % n) as u32)));
        });
        report.layer(name, median(&times), "us");
    }

    let (grid_phy, _) = instantiate(&TopologySpec::grid(8, 8, 2));
    let grid_report = telemetry(&grid_phy);
    let crc = ClosedRingControl::new(CrcConfig::default());
    let costs = crc.price(&grid_report).as_cost_map();
    let n = grid.node_count();
    let times = per_call(reps(50) * n, 1e3, |i| {
        black_box(dijkstra_tree(&grid, NodeId((i % n) as u32), &costs, 1.0));
    });
    report.layer("topo.dijkstra_tree_us", median(&times), "us");

    let dragonfly = TopologySpec::dragonfly(6, 4, 4, 1);
    let racks = dragonfly.rack_of();
    let (_, dragonfly_topo) = instantiate(&dragonfly);
    let nodes = dragonfly_topo.node_count() as u64;
    let mut rng = DetRng::new(3);
    let pairs: Vec<(NodeId, NodeId)> = (0..256)
        .map(|_| {
            (
                NodeId(rng.range_u64(0..nodes) as u32),
                NodeId(rng.range_u64(0..nodes) as u32),
            )
        })
        .collect();
    let times = per_call(reps(20_000), 1e3, |i| {
        let (src, dst) = pairs[i % pairs.len()];
        black_box(valiant_route(&dragonfly_topo, &racks, src, dst, i as u64));
    });
    report.layer("topo.valiant_route_us", median(&times), "us");

    report.layer(
        "switch.enqueue_train_ns",
        enqueue_train_ns(reps(100_000)),
        "ns",
    );

    let mut crc = ClosedRingControl::new(CrcConfig::default());
    let times = per_call(reps(2_000), 1e3, |_| {
        black_box(crc.decide(&grid_report, &grid_phy));
    });
    report.layer("core.crc_decide_us", median(&times), "us");

    // The largest cells' flow sets: the first job of each e10 topology (the
    // torus and the fat-tree) and of e11 (the dragonfly).
    let mut big: Vec<ScenarioSpec> = Vec::new();
    for spec in campaign_specs(scale) {
        let large = spec.name.starts_with("e10") || spec.name.starts_with("e11");
        if large && !big.iter().any(|b| b.topology.nodes == spec.topology.nodes) {
            big.push(spec);
        }
    }
    let times = per_call(reps(10), 1e6, |_| {
        for spec in &big {
            black_box(spec.build_flows());
        }
    });
    report.layer("workload.build_flows_ms", median(&times), "ms");

    let outcomes: Vec<_> = runs.iter().filter_map(|r| r.outcome.as_ref()).collect();
    let times = per_call(reps(20), 1e6, |_| {
        for outcome in &outcomes {
            let cells = aggregate_cells(&outcome.records);
            black_box((cells_to_csv(&cells), cells_to_json(&cells)));
        }
    });
    report.layer("scenario.aggregate_ms", median(&times), "ms");

    let times = per_call(reps(20), 1e6, |_| {
        for run in &runs {
            if let Some(outcome) = &run.outcome {
                black_box(render_files(run.id, outcome));
            }
        }
    });
    report.layer("sweep.emit.render_ms", median(&times), "ms");

    // job_key over the paper campaign's specs: per spec, the median of
    // repeated calls; then the median and the largest over specs.
    let specs = campaign_specs(scale);
    let per_spec: Vec<f64> = specs
        .iter()
        .map(|spec| {
            median(&per_call(reps(20), 1e3, |_| {
                black_box(job_key(spec));
            }))
        })
        .collect();
    report.layer("sweep.job_key_us", median(&per_spec), "us");
    report.layer("sweep.job_key_us_max", percentile(&per_spec, 1.0), "us");

    // ResultStore::get of every record of the campaign, the large e10 and
    // e11 ones included: per key, the median of repeated calls; then the
    // median and the largest over keys.
    let keys: Vec<_> = outcomes
        .iter()
        .flat_map(|o| o.records.iter().map(|r| job_key(&r.job.spec)))
        .collect();
    let per_key: Vec<f64> = keys
        .iter()
        .map(|key| {
            median(&per_call(reps(20), 1e3, |_| {
                black_box(exec.store().get(key));
            }))
        })
        .collect();
    if !per_key.is_empty() {
        report.layer("sweep.store.get_us", median(&per_key), "us");
        report.layer("sweep.store.get_us_max", percentile(&per_key, 1.0), "us");
    }

    let put_dir = dir.join("put-store");
    let _ = std::fs::remove_dir_all(&put_dir);
    if let Ok(put_store) = ResultStore::open(&put_dir) {
        let mut puts = Vec::new();
        for outcome in &outcomes {
            for record in &outcome.records {
                let spec_json = rackfabric_sweep::key::canonical_spec_json(&record.job.spec);
                let key = job_key(&record.job.spec);
                let t = Instant::now();
                if put_store.put(&key, &spec_json, &record.outcome).is_ok() {
                    puts.push(nanos(t.elapsed()) / 1e3);
                }
            }
        }
        if !puts.is_empty() {
            report.layer("sweep.store.put_us", median(&puts), "us");
        }
    }

    let pool: Vec<Command> = (0..64)
        .map(|k| pool_command(shuffle::PINNED_SEED, k))
        .collect();
    if let Ok(mut journal) = Journal::open(dir.join("reference-journal")) {
        let appends: Vec<f64> = (0..reps(400))
            .filter_map(|i| {
                let t = Instant::now();
                journal.append(&pool[i % pool.len()]).ok()?;
                Some(nanos(t.elapsed()) / 1e3)
            })
            .collect();
        if !appends.is_empty() {
            report.layer("cmd.journal.append_us", median(&appends), "us");
            report.layer(
                "cmd.journal.append_us_p99",
                percentile(&appends, 0.99),
                "us",
            );
        }
    }

    let spec_jsons: Vec<&str> = pool
        .iter()
        .filter_map(|c| match c {
            Command::RunScenario { spec_json } => Some(spec_json.as_str()),
            _ => None,
        })
        .collect();
    let times = per_call(reps(5_000), 1e3, |i| {
        black_box(decode_spec(spec_jsons[i % spec_jsons.len()]).is_ok());
    });
    report.layer("cmd.decode_spec_us", median(&times), "us");

    // One pool spec executed once, then answered warm.
    let warm = &pool[0];
    let warm_result = match execute_oneshot(&exec, warm) {
        Ok((_, line)) => line,
        Err(e) => {
            report
                .check_failures
                .push(format!("oneshot reference: {e}"));
            return;
        }
    };
    let times = per_call(reps(2_000), 1e3, |_| {
        black_box(execute_oneshot(&exec, warm).is_ok());
    });
    report.layer("daemon.oneshot_warm_us", median(&times), "us");

    let sched = Scheduler::new(1024);
    let times = per_call(reps(5_000), 1e3, |_| {
        let submitted = sched.submit("rackbench", 0, warm.clone());
        if let Some((id, ..)) = sched.next_job() {
            sched.complete(
                id,
                JobEnd::Done {
                    cached: true,
                    result: JsonValue::Null,
                },
            );
        }
        black_box(submitted);
    });
    report.layer("daemon.sched.handoff_us", median(&times), "us");

    let result = json::parse(&warm_result).unwrap_or(JsonValue::Null);
    let done = Event::Done {
        job: "17".into(),
        cached: true,
        result,
    };
    let times = per_call(reps(5_000), 1e3, |_| {
        black_box(Event::from_line(&done.canonical_json()));
    });
    report.layer("daemon.proto.event_us", median(&times), "us");
}

/// The figures cold pass's counters: per-job host time from the runner's
/// job spans, runner busy share, journal records, and the e10 cells re-run
/// through `ShardedFabric` with the window profiler on.
pub fn figures_cold(report: &mut PhaseReport, scale: Scale, observer: &Observer, dir: &Path) {
    let threads = host::nproc() as f64;
    let cold_ns = report
        .samples
        .iter()
        .find(|(name, _)| *name == "cold")
        .and_then(|(_, v)| v.first().copied())
        .unwrap_or(f64::NAN);
    let jobs: Vec<f64> = observer
        .trace()
        .map(|sink| {
            sink.events()
                .iter()
                .filter(|e| e.name == "job" && e.cat == "runner")
                .map(|e| e.dur_nanos as f64)
                .collect()
        })
        .unwrap_or_default();
    if jobs.is_empty() {
        report.unmeasured("scenario.job_ms", "the runner recorded no job spans");
    } else {
        report.layer("scenario.job_ms", median(&jobs) / 1e6, "ms");
        report.layer("scenario.job_ms_max", percentile(&jobs, 1.0) / 1e6, "ms");
        let busy = jobs.iter().sum::<f64>() / (threads * cold_ns);
        report.layer("scenario.runner.busy_fraction", busy, "ratio");
    }
    if let Ok((records, _)) = read_log(&journal_dir(dir)) {
        report.layer("cmd.journal.records", records.len() as f64, "count");
    }

    let e10: Vec<ScenarioSpec> = campaign_specs(scale)
        .into_iter()
        .filter(|spec| spec.shards >= 1)
        .collect();
    let (mut windows, mut syncs, mut events, mut drain) = (0u64, 0u64, 0u64, 0u64);
    for spec in &e10 {
        let mut config = ShardedConfig::new(spec.to_fabric_config(), spec.shards);
        config.workers = 1;
        config.profile = true;
        let run = ShardedFabric::new(config, spec.build_flows()).run();
        windows += run.windows;
        syncs += run.syncs;
        if let Some(profile) = &run.profile {
            events += profile.shards.iter().map(|s| s.events).sum::<u64>();
            drain += profile.shards.iter().map(|s| s.drain_nanos).sum::<u64>();
        }
    }
    report.layer("core.shard.windows", windows as f64, "count");
    report.layer("core.shard.syncs", syncs as f64, "count");
    if events > 0 {
        report.layer(
            "core.shard.drain_ns_per_event",
            drain as f64 / events as f64,
            "ns",
        );
    }
}

/// The warm passes' store misses (must be 0).
pub fn figures_warm(report: &mut PhaseReport) {
    let misses = report
        .values
        .iter()
        .find(|(name, _)| *name == "warm_misses")
        .map_or(f64::NAN, |(_, v)| *v);
    report.layer("sweep.store.warm_misses", misses, "count");
}

/// The shuffle cells' engine counters, and the same cells on the sharded
/// engine at one shard against the default engine.
pub fn shuffle(report: &mut PhaseReport, runs: &[Vec<CellRun>], seed: u64, size: Size) {
    for (arm, arm_runs) in ["", ".adaptive"].iter().zip(runs) {
        let Some(first) = arm_runs.first() else {
            continue;
        };
        let wall: Vec<f64> = arm_runs.iter().map(|r| r.wall_nanos).collect();
        let setup: Vec<f64> = arm_runs
            .iter()
            .map(|r| r.host_nanos - r.wall_nanos)
            .collect();
        report.layer(format!("sim.events{arm}"), first.events as f64, "count");
        report.layer(
            format!("sim.ns_per_event{arm}"),
            median(&wall) / first.events as f64,
            "ns",
        );
        report.layer(
            format!("topo.route_cache_hit_rate{arm}"),
            first.route_cache_hit_rate,
            "ratio",
        );
        report.layer(
            format!("core.fabric_new_ms{arm}"),
            median(&setup) / 1e6,
            "ms",
        );
    }
    // Epochs of the adaptive cell: one telemetry point per CRC epoch, from
    // the same cell run through the public fabric and engine directly
    // (`run_scenario` returns no epoch count).
    let cells = shuffle::cells(seed, size);
    if let (Some((_, spec)), Some(first)) = (cells.get(1), runs.get(1).and_then(|r| r.first())) {
        let fabric = AdaptiveFabric::new(spec.to_fabric_config(), spec.build_flows());
        let mut sim = Simulator::with_scheduler(fabric, spec.seed, CalendarQueue::new())
            .with_event_budget(spec.event_budget);
        sim.run_until(spec.horizon);
        if sim.events_processed() == first.events {
            let epochs = sim.into_model().metrics.utilization_series.len();
            report.layer("core.crc_epochs", epochs as f64, "count");
        } else {
            report.unmeasured(
                "core.crc_epochs",
                "a direct AdaptiveFabric run diverged from run_scenario",
            );
        }
    }
    let mut mono = 0.0;
    let mut sharded = 0.0;
    for ((_, spec), arm_runs) in cells.iter().zip(runs) {
        let one_shard = spec.clone().shards(1);
        if let Some((run, _)) = shuffle::run_cell(&one_shard) {
            sharded += run.host_nanos;
            mono += median(&arm_runs.iter().map(|r| r.host_nanos).collect::<Vec<_>>());
        }
    }
    if mono > 0.0 {
        report.layer("core.shard1_over_mono", sharded / mono, "ratio");
    }
}

/// The daemon's own response histogram, and its service overhead: the warm
/// round trip less the same command executed with no socket or scheduler.
pub fn daemon(report: &mut PhaseReport, exec: &Executor, observer: &Observer, seed: u64) {
    if let Some(registry) = observer.registry() {
        let h = registry.histogram("daemon.response_ns", TimeDomain::Wall);
        if h.count() > 0 {
            report.layer(
                "daemon.response_p50_us",
                h.quantile_bound(0.5) as f64 / 1e3,
                "us",
            );
            report.layer(
                "daemon.response_p99_us",
                h.quantile_bound(0.99) as f64 / 1e3,
                "us",
            );
        }
    }
    let warm = pool_command(seed, 0);
    let oneshot = per_call(2_000, 1e3, |_| {
        black_box(execute_oneshot(exec, &warm).is_ok());
    });
    let rtt = report
        .samples
        .iter()
        .find(|(name, _)| *name == "warm")
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    if !rtt.is_empty() {
        report.layer(
            "daemon.service_overhead_us",
            median(&rtt) / 1e3 - median(&oneshot),
            "us",
        );
    }
}

/// Merges the traced processes' per-layer metrics, adds the tracing
/// overhead, writes `<out>/<workload>.layers.json` and returns the metrics
/// the last line carries (the `per_layer` list of `BENCHMARK.json`).
pub fn report(
    workload: Workload,
    reports: &[Parsed],
    out: &Path,
    checks: &mut Vec<String>,
) -> Vec<(String, JsonValue)> {
    let mut layers: Vec<(String, Layer)> = Vec::new();
    for parsed in reports {
        for (name, body) in parsed.layers() {
            let layer = match (
                body.get("value").and_then(JsonValue::as_f64),
                body.get("unit"),
            ) {
                (Some(v), Some(unit)) => Layer::Value(v, unit.as_str().unwrap_or("").to_string()),
                _ => Layer::Unmeasured(
                    body.get("reason")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("no value")
                        .to_string(),
                ),
            };
            layers.push((name, layer));
        }
    }
    // Tracing overhead: the same light operation, untraced then traced,
    // compared at the median like the end-to-end metrics.
    let (plain, traced, key) = match workload {
        Workload::FiguresPaper => (&reports[1], &reports[2], "warm"),
        Workload::Shuffle8x8 => (&reports[0], &reports[1], "baseline"),
        Workload::DaemonMixed => (&reports[0], &reports[1], "warm"),
    };
    let (a, b) = (plain.timing(key), traced.timing(key));
    if !a.is_empty() && !b.is_empty() {
        layers.push((
            "obs.trace_overhead_pct".into(),
            Layer::Value((median(&b) / median(&a) - 1.0) * 100.0, "%".into()),
        ));
    }
    for (name, owner) in CAPTURED {
        if owner != workload && !layers.iter().any(|(n, _)| n == name) {
            layers.push((
                name.into(),
                Layer::Unmeasured(format!(
                    "not exercised by {}; see {}",
                    workload.name(),
                    owner.name()
                )),
            ));
        }
    }
    layers.sort_by(|a, b| a.0.cmp(&b.0));

    let mut file = Vec::new();
    for (name, layer) in &layers {
        match layer {
            Layer::Value(v, unit) => {
                println!("layer {name:<36} {unit:<6} value={}", json::number(*v));
                file.push((name.clone(), stats::metric(*v, unit)));
            }
            Layer::Unmeasured(reason) => {
                println!("layer {name:<36} unmeasured: {reason}");
                file.push((
                    name.clone(),
                    stats::object(vec![("reason".into(), stats::text(reason.clone()))]),
                ));
            }
        }
    }
    for trace in reports.iter().flat_map(Parsed::traces) {
        println!("trace {trace}");
    }
    let path = out.join(format!("{}.layers.json", workload.name()));
    if let Err(e) = std::fs::write(&path, json::canonical(&stats::object(file)) + "\n") {
        checks.push(format!("cannot write {}: {e}", path.display()));
    }

    let mut gated = Vec::new();
    for (name, unit) in LADDER
        .iter()
        .chain([("obs.trace_overhead_pct", "%")].iter())
    {
        match layers.iter().find(|(n, _)| n == name) {
            Some((_, Layer::Value(v, _))) => {
                gated.push((name.to_string(), stats::metric(*v, unit)))
            }
            _ => checks.push(format!("per-layer metric {name} was not measured")),
        }
    }
    gated
}
