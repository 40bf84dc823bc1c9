//! Hot-path perf smoke sweep.
//!
//! Drives the heavy-shuffle scenario matrices through the scenario engine,
//! measures engine events/sec and tail latency per cell, and writes the
//! results to `BENCH_hotpath.json` — the perf-trajectory artifact the
//! ROADMAP tracks across hot-path work. Correctness gates (never
//! timing-sensitive):
//!
//! * heap vs calendar schedulers must export byte-identical aggregates,
//! * 1-thread vs N-thread runners must export byte-identical aggregates,
//! * **1-shard vs N-shard runs of the sharded multi-rack engine must export
//!   byte-identical aggregates** — the acceptance gate of the sharded
//!   engine, which also runs the 16×16 torus and multi-rack fat-tree cells.
//!   Those cells exercise multi-rack sharding; the monolithic engine runs
//!   them too, in comparable time.
//!
//! `BENCH_hotpath.json` bookkeeping: the `pre_pr_events_per_sec` baseline
//! recorded by the first run on a machine is **preserved** across runs (it
//! anchors the speedup column; overwriting it with the latest tree's
//! numbers would erase the trajectory), and every full run **appends** a
//! `history` entry so the perf trajectory is browsable per-commit.
//!
//! ```text
//! cargo run --release --example perf_smoke                 # full sweep
//! cargo run --release --example perf_smoke -- --tiny       # CI-sized
//! cargo run --release --example perf_smoke -- --shards 4   # N-shard arm
//! cargo run --release --example perf_smoke -- --workers 8  # worker-scaling cap
//! cargo run --release --example perf_smoke -- --export-cells out.json
//! cargo run --release --example perf_smoke -- --dragonfly --shards 9
//! ```
//!
//! `--dragonfly` runs **only** the 1k-host dragonfly heavy-shuffle cell —
//! `dragonfly(9, 8, 16)`: 1152 hosts behind 72 routers in 9 groups, ~1.5M
//! all-to-all flows — at the given `--shards` (9 = one shard per group, so
//! every cut link is a long-latency global link). The cell is deliberately
//! a single process arm: CI runs it twice (`--shards 1` and `--shards 9`)
//! and `cmp`s the two `--export-cells` files byte for byte, which is the
//! sharded-engine acceptance gate at dragonfly scale.
//!
//! `--workers N` caps the **window-parallel worker sweep**: the heaviest
//! sharded cell re-runs at worker counts 1, 2, 4, … up to
//! `min(N, shards)`, and the per-count events/sec plus speedup-vs-1-worker
//! land in `BENCH_hotpath.json` (`worker_sweep`). Worker count never
//! affects simulation results — enforced here by comparing summaries
//! across counts.
//!
//! `--export-cells` writes the sharded sweep's byte-stable cells JSON (no
//! wall-clock fields) to a file; CI runs the example twice with different
//! `--shards` values and diffs the two exports byte for byte.
//!
//! `--profile` adds a `shard_profile` breakdown of the heaviest worker-sweep
//! run to `BENCH_hotpath.json` — per-shard event counts and drain time,
//! per-worker barrier-wait totals, barrier-wait fraction, and shard event
//! imbalance. `--trace FILE` writes a Chrome-trace JSON of the same run
//! (open it at <https://ui.perfetto.dev>). Neither flag can move simulation
//! results: instrumentation is wall-clock-only and the byte-compare gates
//! above run with it enabled.

use rackfabric::prelude::{RoutingAlgorithm, TopologySpec};
use rackfabric_obs::prelude::{Observer, TraceSink, WindowProfile};
use rackfabric_scenario::aggregate::aggregate_cells;
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::run_scenario_on;
use rackfabric_sim::json;
use rackfabric_sim::prelude::*;
use std::sync::Arc;

/// Pre-refactor engine throughput on this sweep's 8×8 heavy-shuffle cells
/// (binary-heap scheduler, hash-map fabric state, one event per packet),
/// measured at the PR-1 tree on the reference dev container. Used only when
/// no `BENCH_hotpath.json` exists yet; afterwards the baseline recorded in
/// the file wins and is never overwritten.
const PRE_PR_EVENTS_PER_SEC_ADAPTIVE: f64 = 315_794.0;
const PRE_PR_EVENTS_PER_SEC_BASELINE: f64 = 654_893.0;

/// How many history entries the bench file retains.
const HISTORY_CAP: usize = 50;

fn matrix(tiny: bool) -> Matrix {
    let (rack, horizon) = if tiny {
        (TopologySpec::grid(3, 3, 2), SimTime::from_millis(10))
    } else {
        (TopologySpec::grid(8, 8, 2), SimTime::from_millis(50))
    };
    let base = ScenarioSpec::new(
        "hotpath-perf-smoke",
        rack,
        WorkloadSpec::Shuffle {
            partition: Bytes::from_kib(64),
            load: 1.0,
        },
    )
    .horizon(horizon);
    Matrix::new(base)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .master_seed(7)
}

/// Runs every job of `matrix` in turn on the reference binary-heap
/// `EventQueue` and aggregates the cells as `Runner::run` does: the
/// reference the calendar queue's exports are compared with.
fn run_on_heap(matrix: &Matrix) -> MatrixResult {
    let jobs: Vec<JobRecord> = matrix
        .expand()
        .into_iter()
        .map(|job| {
            let result = run_scenario_on(&job.spec, EventQueue::new());
            JobRecord {
                job,
                outcome: JobOutcome::Completed(Box::new(result)),
            }
        })
        .collect();
    MatrixResult {
        cells: aggregate_cells(&jobs),
        jobs,
    }
}

/// The sharded-engine sweep: multi-rack cells, each run at `shards` rack
/// groups. Tiny mode keeps one small rack so the CI gate stays cheap.
fn sharded_matrix(tiny: bool, shards: usize) -> Matrix {
    let (topologies, partition, horizon) = if tiny {
        (
            vec![AxisValue::Topology(TopologySpec::grid(3, 3, 2))],
            Bytes::from_kib(16),
            SimTime::from_millis(10),
        )
    } else {
        // Full-size cells model racks 20 m apart: the inter-rack flight
        // time funds a ~10x longer conservative lookahead (the window
        // length), which is where the sharded engine's sync overhead goes.
        (
            vec![
                AxisValue::Topology(
                    TopologySpec::torus(16, 16, 2).with_rack_spacing(Length::from_m(20)),
                ),
                AxisValue::Topology(
                    TopologySpec::fat_tree(128, 16, 4, 2).with_rack_spacing(Length::from_m(20)),
                ),
            ],
            Bytes::from_kib(4),
            SimTime::from_millis(40),
        )
    };
    let base = ScenarioSpec::new(
        "sharded-perf-smoke",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::Shuffle {
            partition,
            load: 1.0,
        },
    )
    .horizon(horizon)
    .shards(shards);
    Matrix::new(base)
        .axis("racks", topologies)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .master_seed(7)
}

/// The 1k-host dragonfly arm: one heavy-shuffle cell on
/// `dragonfly(9, 8, 16)` — 1152 hosts, 1224 nodes, ~1.5M all-to-all flows —
/// with 20 m inter-group spacing so the global links fund the long
/// conservative lookahead. The static baseline controller with the minimal
/// routing override keeps the cell's cost in the engine hot path (per-flow
/// Valiant/adaptive BFS at 1.5M flows would dominate the measurement; the
/// routing policies are byte-compared across shard counts at small scale in
/// `tests/shard_determinism.rs` and compared for results in the e11
/// campaign).
fn dragonfly_matrix(shards: usize) -> Matrix {
    let topo = TopologySpec::dragonfly(9, 8, 16, 2).with_rack_spacing(Length::from_m(20));
    let base = ScenarioSpec::new(
        "dragonfly-scale",
        topo,
        WorkloadSpec::Shuffle {
            partition: Bytes::new(512),
            load: 1.0,
        },
    )
    .controller(ControllerSpec::Baseline)
    // Deep buffers absorb the shuffle barrier: with the default 256 KiB
    // ports the simultaneous all-to-all start spends ~95% of its events on
    // drop/retry cycles (230M+ events per arm, ~4 min wall); 64 MiB keeps
    // the cell lossless so each flow costs one inject + per-hop trains +
    // one ack and the arm measures the fabric, not the retry storm.
    .port_buffer(Bytes::from_kib(64 * 1024))
    .horizon(SimTime::from_millis(50))
    .shards(shards);
    Matrix::new(base)
        .axis(
            "routing",
            vec![AxisValue::Routing(RoutingAlgorithm::ShortestHop)],
        )
        .master_seed(7)
}

/// The heaviest sharded cell — the first-topology adaptive cell of the
/// sharded sweep — used by the worker-scaling sweep. Derived from
/// [`sharded_matrix`] so retuning the sweep's cells retunes this too.
fn worker_sweep_spec(tiny: bool, shards: usize) -> ScenarioSpec {
    sharded_matrix(tiny, shards)
        .expand()
        .into_iter()
        .find(|job| {
            job.labels
                .iter()
                .any(|(axis, value)| axis == "controller" && value != "baseline")
        })
        .expect("the sharded matrix always has an adaptive cell")
        .spec
}

/// One worker-count measurement of the worker-scaling sweep.
struct WorkerPoint {
    workers: usize,
    events: u64,
    wall_nanos: u64,
    summary_fingerprint: String,
    profile: Option<WindowProfile>,
}

/// Runs the worker-scaling sweep: the same sharded cell at worker counts
/// 1, 2, 4, … up to `min(cap, shards)`. Results must be identical across
/// counts (worker count is a pure execution knob); the wall clock is the
/// only thing allowed to move. Every point runs with the window profiler
/// attached (per-shard events and barrier waits land in the bench file);
/// `trace` additionally records a span trace of the heaviest (max-worker)
/// point.
fn worker_sweep(
    tiny: bool,
    shards: usize,
    cap: usize,
    trace: Option<&Arc<TraceSink>>,
) -> Vec<WorkerPoint> {
    let mut counts = vec![1usize];
    while let Some(&last) = counts.last() {
        let next = last * 2;
        if next > cap.min(shards.max(1)) {
            break;
        }
        counts.push(next);
    }
    let max_workers = *counts.last().unwrap_or(&1);
    let spec = worker_sweep_spec(tiny, shards.max(1));
    counts
        .into_iter()
        .map(|workers| {
            // Best wall-clock of three passes per count: a speedup ratio of
            // single measurements is scheduler-noise roulette, and CI gates
            // on this ratio. Results must be identical across passes.
            let mut best: Option<WorkerPoint> = None;
            for pass in 0..3 {
                let flows = spec.build_flows();
                let mut config =
                    rackfabric::shard::ShardedConfig::new(spec.to_fabric_config(), spec.shards);
                config.workers = workers;
                config.profile = true;
                if workers == max_workers && pass == 0 {
                    if let Some(sink) = trace {
                        config.observer = Observer::off().with_trace(sink.clone());
                    }
                }
                let fabric = rackfabric::shard::ShardedFabric::new(config, flows);
                let start = std::time::Instant::now();
                let run = fabric.run();
                let wall_nanos = start.elapsed().as_nanos() as u64;
                let point = WorkerPoint {
                    workers,
                    events: run.events_processed,
                    wall_nanos,
                    summary_fingerprint: format!("{:?}", run.metrics.summary()),
                    profile: run.profile,
                };
                best = Some(match best.take() {
                    None => point,
                    Some(prev) => {
                        if prev.events != point.events
                            || prev.summary_fingerprint != point.summary_fingerprint
                        {
                            eprintln!("perf_smoke: FAIL — repeated {workers}-worker runs diverged");
                            std::process::exit(1);
                        }
                        if point.wall_nanos < prev.wall_nanos {
                            point
                        } else {
                            prev
                        }
                    }
                });
            }
            best.expect("three passes ran")
        })
        .collect()
}

/// The previously recorded bench file, if any (used to preserve the pre-PR
/// baseline and the run history across runs).
fn previous_bench(path: &str) -> Option<json::JsonValue> {
    let text = std::fs::read_to_string(path).ok()?;
    json::parse(&text).ok()
}

/// Renders one `{"baseline": x, "adaptive": y}` object.
fn baselines_json(baseline: f64, adaptive: f64) -> String {
    format!(
        "{{\"baseline\": {}, \"adaptive\": {}}}",
        json::number(baseline),
        json::number(adaptive)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    // A malformed --shards must be a hard error: silently falling back would
    // let both CI arms run the same shard count and turn the byte-for-byte
    // cmp gate into a tautology.
    let shards = match args.iter().position(|a| a == "--shards") {
        None => 4,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => {
                eprintln!("perf_smoke: FAIL — --shards requires an integer argument");
                std::process::exit(1);
            }
        },
    };
    // Same hard-error rule as --shards: a silently ignored cap would quietly
    // shrink the worker sweep.
    let workers_cap = match args.iter().position(|a| a == "--workers") {
        None => 4,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => {
                eprintln!("perf_smoke: FAIL — --workers requires an integer argument");
                std::process::exit(1);
            }
        },
    };
    let export_cells = args
        .iter()
        .position(|a| a == "--export-cells")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let profile = args.iter().any(|a| a == "--profile");
    let trace_path = match args.iter().position(|a| a == "--trace") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("perf_smoke: FAIL — --trace requires a file argument");
                std::process::exit(1);
            }
        },
    };
    if args.iter().any(|a| a == "--dragonfly") {
        run_dragonfly(shards, export_cells.as_deref());
        return;
    }

    let mode = if tiny { "tiny" } else { "full" };
    eprintln!("perf_smoke: running {mode} heavy-shuffle sweep ({shards}-shard arm)...");

    // Timed runs: calendar scheduler, single thread (clean per-job timing),
    // best wall-clock of three passes per cell to shrug off machine noise.
    // Event counts and all simulation results are identical across passes
    // (enforced below); only the wall measurement varies.
    let mut passes: Vec<MatrixResult> = (0..3)
        .map(|_| Runner::single_threaded().run(&matrix(tiny)))
        .collect();
    for pass in &passes {
        if pass.failed_jobs() > 0 {
            eprintln!("perf_smoke: FAIL — {} job(s) panicked", pass.failed_jobs());
            std::process::exit(1);
        }
    }
    let repeat_ok = passes
        .windows(2)
        .all(|w| w[0].to_csv() == w[1].to_csv() && w[0].to_json() == w[1].to_json());
    if !repeat_ok {
        eprintln!("perf_smoke: FAIL — repeated runs diverged");
    }
    let mut timed = passes.remove(0);
    for pass in &passes {
        for (cell, other) in timed.cells.iter_mut().zip(&pass.cells) {
            cell.wall_nanos = cell.wall_nanos.min(other.wall_nanos);
        }
    }

    // Correctness cross-checks (never timing-sensitive):
    // 1. heap vs calendar must export byte-identical aggregates,
    // 2. 1 thread vs N threads must export byte-identical aggregates.
    let heap = run_on_heap(&matrix(tiny));
    let parallel = Runner::new(0).run(&matrix(tiny));
    let heap_ok = timed.to_csv() == heap.to_csv() && timed.to_json() == heap.to_json();
    let threads_ok = timed.to_csv() == parallel.to_csv() && timed.to_json() == parallel.to_json();
    if !heap_ok {
        eprintln!("perf_smoke: FAIL — heap and calendar schedulers diverged");
    }
    if !threads_ok {
        eprintln!("perf_smoke: FAIL — 1-thread and N-thread sweeps diverged");
    }

    // 3. The sharded engine: N shards must export byte-identically to the
    //    1-shard reference. The N-shard arm is the timed one (it is the
    //    configuration the multi-rack cells are meant to run at). When this
    //    invocation *is* the 1-shard arm there is nothing to cross-check
    //    in-process — rerunning the identical matrix would only compare a
    //    run against its own repeat; the CI gate compares this arm's export
    //    against the N-shard arm's across processes instead.
    eprintln!("perf_smoke: running sharded multi-rack sweep ({shards}-shard arm)...");
    let sharded_n = Runner::single_threaded().run(&sharded_matrix(tiny, shards));
    if sharded_n.failed_jobs() > 0 {
        eprintln!("perf_smoke: FAIL — sharded job(s) panicked");
        std::process::exit(1);
    }
    let shards_ok = if shards == 1 {
        true
    } else {
        let sharded_1 = Runner::single_threaded().run(&sharded_matrix(tiny, 1));
        if sharded_1.failed_jobs() > 0 {
            eprintln!("perf_smoke: FAIL — sharded job(s) panicked");
            std::process::exit(1);
        }
        sharded_1.to_csv() == sharded_n.to_csv() && sharded_1.to_json() == sharded_n.to_json()
    };
    if !shards_ok {
        eprintln!("perf_smoke: FAIL — 1-shard and {shards}-shard sweeps diverged");
    }
    for cell in &sharded_n.cells {
        if cell.completed_runs != cell.runs - cell.failed_runs {
            eprintln!(
                "perf_smoke: FAIL — sharded cell {:?} left flows incomplete",
                cell.labels
            );
            std::process::exit(1);
        }
    }

    // 4. Window-parallel worker scaling: the same sharded cell at growing
    //    worker counts. Records speedup-vs-1-worker; results must not move.
    eprintln!("perf_smoke: running worker-scaling sweep (cap {workers_cap})...");
    let trace_sink = trace_path.as_ref().map(|_| Arc::new(TraceSink::new()));
    let worker_points = worker_sweep(tiny, shards, workers_cap, trace_sink.as_ref());
    let workers_ok = worker_points.windows(2).all(|w| {
        w[0].events == w[1].events && w[0].summary_fingerprint == w[1].summary_fingerprint
    });
    if !workers_ok {
        eprintln!("perf_smoke: FAIL — worker counts changed simulation results");
    }
    let one_worker_nanos = worker_points.first().map(|p| p.wall_nanos).unwrap_or(0);
    for point in &worker_points {
        let events_per_sec = if point.wall_nanos == 0 {
            0.0
        } else {
            point.events as f64 * 1e9 / point.wall_nanos as f64
        };
        let barrier = point
            .profile
            .as_ref()
            .map(|p| {
                format!(
                    ", barrier wait {:.1}%",
                    p.barrier_wait_fraction(point.wall_nanos, point.workers) * 100.0
                )
            })
            .unwrap_or_default();
        eprintln!(
            "  {} worker(s): {:>9} events in {:>8.1} ms = {:>9.0} events/sec ({:.2}x vs 1 worker{})",
            point.workers,
            point.events,
            point.wall_nanos as f64 / 1e6,
            events_per_sec,
            one_worker_nanos as f64 / point.wall_nanos.max(1) as f64,
            barrier,
        );
    }

    if let (Some(path), Some(sink)) = (&trace_path, &trace_sink) {
        if let Err(e) = sink.write_file(path) {
            eprintln!("perf_smoke: FAIL — could not write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "perf_smoke: wrote engine trace ({} event(s), {} dropped) to {path}",
            sink.len(),
            sink.dropped()
        );
    }

    if let Some(path) = &export_cells {
        // Byte-stable cells export (no wall-clock fields): CI diffs the
        // files produced by two runs with different --shards values.
        if let Err(e) = std::fs::write(path, sharded_n.to_json()) {
            eprintln!("perf_smoke: FAIL — could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("perf_smoke: wrote byte-stable sharded cells to {path}");
    }

    // Preserve the first-recorded pre-PR baseline and the run history.
    let bench_path = "BENCH_hotpath.json";
    let previous = previous_bench(bench_path);
    let pre_pr = previous
        .as_ref()
        .and_then(|p| p.get("pre_pr_events_per_sec"))
        .and_then(|b| Some((b.get("baseline")?.as_f64()?, b.get("adaptive")?.as_f64()?)))
        .unwrap_or((
            PRE_PR_EVENTS_PER_SEC_BASELINE,
            PRE_PR_EVENTS_PER_SEC_ADAPTIVE,
        ));
    let mut history: Vec<String> = previous
        .as_ref()
        .and_then(|p| p.get("history"))
        .and_then(|h| h.as_array())
        .map(|entries| entries.iter().map(render_history_entry).collect())
        .unwrap_or_default();
    // Cap on load, not only on append: a tiny run rewriting an over-long
    // history (e.g. one produced before the cap existed) must trim it too.
    if history.len() > HISTORY_CAP {
        let excess = history.len() - HISTORY_CAP;
        history.drain(..excess);
    }

    // Render BENCH_hotpath.json.
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"hotpath_perf_smoke\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    // Worker-scaling ratios are only meaningful when the box can actually
    // run the workers concurrently; record the core count next to them.
    out.push_str(&format!(
        "  \"available_cores\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!(
        "  \"pre_pr_events_per_sec\": {},\n",
        baselines_json(pre_pr.0, pre_pr.1)
    ));
    out.push_str(&format!(
        "  \"determinism\": {{\"heap_vs_calendar_identical\": {heap_ok}, \
         \"serial_vs_parallel_identical\": {threads_ok}, \
         \"shard_counts_identical\": {shards_ok}, \
         \"worker_counts_identical\": {workers_ok}}},\n"
    ));
    // Window-parallel scaling of the sharded engine (ROADMAP follow-up):
    // events/sec per worker count on the heaviest sharded cell, anchored to
    // the 1-worker wall clock of the same run.
    out.push_str("  \"worker_sweep\": [\n");
    let worker_rows: Vec<String> = worker_points
        .iter()
        .map(|point| {
            let events_per_sec = if point.wall_nanos == 0 {
                0.0
            } else {
                point.events as f64 * 1e9 / point.wall_nanos as f64
            };
            // Per-shard event counts are deterministic; the barrier-wait
            // columns are wall-clock (this file is a perf artifact, never a
            // golden export).
            let profile_cols = point
                .profile
                .as_ref()
                .map(|p| {
                    let shard_events: Vec<String> =
                        p.shard_events().iter().map(|e| e.to_string()).collect();
                    let waits: Vec<String> = p
                        .workers
                        .iter()
                        .take(point.workers)
                        .map(|w| w.barrier_wait_nanos.to_string())
                        .collect();
                    // Early advances count rounds a worker entered without
                    // spinning on a peer (the phase-counted executor's fast
                    // path).
                    let advances: Vec<String> = p
                        .workers
                        .iter()
                        .take(point.workers)
                        .map(|w| w.early_advances.to_string())
                        .collect();
                    format!(
                        ", \"shard_events\": [{}], \"barrier_wait_ns\": [{}], \
                         \"barrier_wait_fraction\": {}, \"early_advances\": [{}]",
                        shard_events.join(", "),
                        waits.join(", "),
                        json::number(p.barrier_wait_fraction(point.wall_nanos, point.workers)),
                        advances.join(", "),
                    )
                })
                .unwrap_or_default();
            format!(
                "    {{\"workers\": {}, \"shards\": {shards}, \"events\": {}, \"wall_ms\": {}, \
                 \"events_per_sec\": {}, \"speedup_vs_1_worker\": {}{}}}",
                point.workers,
                point.events,
                json::number(point.wall_nanos as f64 / 1e6),
                json::number(events_per_sec),
                json::number(one_worker_nanos as f64 / point.wall_nanos.max(1) as f64),
                profile_cols,
            )
        })
        .collect();
    out.push_str(&worker_rows.join(",\n"));
    out.push_str("\n  ],\n");
    // `--profile`: the full window-profiler breakdown of the heaviest
    // (max-worker) point — per-shard drain time, per-worker barrier waits,
    // window-length and events-per-window histogram bounds.
    if profile {
        if let Some(point) = worker_points.last() {
            if let Some(p) = &point.profile {
                out.push_str("  \"shard_profile\": ");
                out.push_str(&p.render_json(point.wall_nanos, point.workers));
                out.push_str(",\n");
                eprintln!(
                    "  profile [{} workers]: barrier wait {:.1}% of wall, \
                     shard imbalance {:.2}x, {} windows",
                    point.workers,
                    p.barrier_wait_fraction(point.wall_nanos, point.workers) * 100.0,
                    p.shard_event_imbalance(),
                    p.windows,
                );
            }
        }
    }
    out.push_str("  \"cells\": [\n");
    let mut cell_rows: Vec<String> = Vec::new();
    let mut history_cells: Vec<String> = Vec::new();
    for cell in timed.cells.iter() {
        let controller = cell
            .labels
            .iter()
            .find(|(k, _)| k == "controller")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        let events_per_sec = cell.events_per_sec();
        let anchor = match controller {
            "baseline" => pre_pr.0,
            _ => pre_pr.1,
        };
        // Speedup is only meaningful against the matching full-size cells.
        let speedup = if tiny { 0.0 } else { events_per_sec / anchor };
        cell_rows.push(format!(
            "    {{\"engine\": \"monolithic\", \"controller\": \"{}\", \"events\": {}, \
             \"wall_ms\": {}, \"events_per_sec\": {}, \"latency_p50_ps\": {}, \
             \"latency_p99_ps\": {}, \"route_cache_hit_rate\": {}, \"completed_runs\": {}, \
             \"speedup_vs_pre_pr\": {}}}",
            json::escape(controller),
            cell.events_processed,
            json::number(cell.wall_nanos as f64 / 1e6),
            json::number(events_per_sec),
            json::number(cell.packet_latency.p50),
            json::number(cell.packet_latency.p99),
            json::number(cell.route_cache_hit_rate),
            cell.completed_runs,
            json::number(speedup),
        ));
        history_cells.push(format!(
            "{{\"cell\": \"{}\", \"events_per_sec\": {}}}",
            json::escape(controller),
            json::number(events_per_sec)
        ));
        eprintln!(
            "  {controller:>9}: {:>9} events in {:>8.1} ms = {:>9.0} events/sec \
             (p50 {:.0} ps, p99 {:.0} ps, cache {:.3}{})",
            cell.events_processed,
            cell.wall_nanos as f64 / 1e6,
            events_per_sec,
            cell.packet_latency.p50,
            cell.packet_latency.p99,
            cell.route_cache_hit_rate,
            if tiny {
                String::new()
            } else {
                format!(", {speedup:.2}x vs pre-PR")
            },
        );
    }
    for cell in sharded_n.cells.iter() {
        let rack = cell
            .labels
            .iter()
            .find(|(k, _)| k == "racks")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        let controller = cell
            .labels
            .iter()
            .find(|(k, _)| k == "controller")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        let label = format!("{rack}/{controller}");
        let events_per_sec = cell.events_per_sec();
        cell_rows.push(format!(
            "    {{\"engine\": \"sharded\", \"racks\": \"{}\", \"controller\": \"{}\", \
             \"shards\": {}, \"events\": {}, \"wall_ms\": {}, \"events_per_sec\": {}, \
             \"latency_p50_ps\": {}, \"latency_p99_ps\": {}, \"route_cache_hit_rate\": {}, \
             \"completed_runs\": {}}}",
            json::escape(rack),
            json::escape(controller),
            shards,
            cell.events_processed,
            json::number(cell.wall_nanos as f64 / 1e6),
            json::number(events_per_sec),
            json::number(cell.packet_latency.p50),
            json::number(cell.packet_latency.p99),
            json::number(cell.route_cache_hit_rate),
            cell.completed_runs,
        ));
        history_cells.push(format!(
            "{{\"cell\": \"{}\", \"events_per_sec\": {}}}",
            json::escape(&label),
            json::number(events_per_sec)
        ));
        eprintln!(
            "  {label:>32} [{shards} shards]: {:>9} events in {:>8.1} ms = {:>9.0} events/sec \
             (p50 {:.0} ps, p99 {:.0} ps)",
            cell.events_processed,
            cell.wall_nanos as f64 / 1e6,
            events_per_sec,
            cell.packet_latency.p50,
            cell.packet_latency.p99,
        );
    }
    out.push_str(&cell_rows.join(",\n"));
    out.push_str("\n  ],\n");

    // Append this run to the history (full runs only: tiny CI runs measure
    // nothing meaningful and would flood the trajectory).
    if !tiny {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        history.push(format!(
            "{{\"unix_secs\": {unix_secs}, \"mode\": \"{mode}\", \"shards\": {shards}, \
             \"cells\": [{}]}}",
            history_cells.join(", ")
        ));
        if history.len() > HISTORY_CAP {
            let excess = history.len() - HISTORY_CAP;
            history.drain(..excess);
        }
    }
    if history.is_empty() {
        out.push_str("  \"history\": []\n}\n");
    } else {
        out.push_str("  \"history\": [\n    ");
        out.push_str(&history.join(",\n    "));
        out.push_str("\n  ]\n}\n");
    }

    if let Err(e) = std::fs::write(bench_path, &out) {
        eprintln!("perf_smoke: FAIL — could not write {bench_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("perf_smoke: wrote {bench_path}");

    if !(heap_ok && threads_ok && repeat_ok && shards_ok && workers_ok) {
        std::process::exit(1);
    }
}

/// Runs the 1k-host dragonfly arm and exits the process: one heavy-shuffle
/// cell at the requested shard count, exported byte-stably for the CI
/// `cmp` gate. Deliberately skips the in-process 1-vs-N cross-check — the
/// cell is ~1.5M flows, and CI compares the two arms across processes
/// instead, which costs one run per arm instead of two.
fn run_dragonfly(shards: usize, export_cells: Option<&str>) {
    eprintln!("perf_smoke: running 1k-host dragonfly heavy-shuffle ({shards}-shard arm)...");
    let result = Runner::single_threaded().run(&dragonfly_matrix(shards));
    if result.failed_jobs() > 0 {
        eprintln!(
            "perf_smoke: FAIL — {} dragonfly job(s) panicked",
            result.failed_jobs()
        );
        std::process::exit(1);
    }
    for cell in &result.cells {
        if cell.completed_runs != cell.runs - cell.failed_runs {
            eprintln!(
                "perf_smoke: FAIL — dragonfly cell {:?} left flows incomplete",
                cell.labels
            );
            std::process::exit(1);
        }
        let routing = cell
            .labels
            .iter()
            .find(|(k, _)| k == "routing")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        eprintln!(
            "  dragonfly-9g-8a-16h/{routing} [{shards} shard(s)]: {:>9} events in {:>8.1} ms \
             = {:>9.0} events/sec (p50 {:.0} ps, p99 {:.0} ps)",
            cell.events_processed,
            cell.wall_nanos as f64 / 1e6,
            cell.events_per_sec(),
            cell.packet_latency.p50,
            cell.packet_latency.p99,
        );
    }
    if let Some(path) = export_cells {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("perf_smoke: FAIL — could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("perf_smoke: wrote byte-stable dragonfly cells to {path}");
    }
}

/// Re-renders a parsed history entry back to compact JSON (the entries are
/// written by this example, so the shape is fixed).
fn render_history_entry(entry: &json::JsonValue) -> String {
    let unix_secs = entry.get("unix_secs").and_then(|v| v.as_u64()).unwrap_or(0);
    let mode = entry.get("mode").and_then(|v| v.as_str()).unwrap_or("full");
    let shards = entry.get("shards").and_then(|v| v.as_u64()).unwrap_or(0);
    let cells = entry
        .get("cells")
        .and_then(|v| v.as_array())
        .map(|cells| {
            cells
                .iter()
                .map(|c| {
                    format!(
                        "{{\"cell\": \"{}\", \"events_per_sec\": {}}}",
                        json::escape(c.get("cell").and_then(|v| v.as_str()).unwrap_or("?")),
                        json::number(
                            c.get("events_per_sec")
                                .and_then(|v| v.as_f64())
                                .unwrap_or(0.0)
                        )
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    format!(
        "{{\"unix_secs\": {unix_secs}, \"mode\": \"{}\", \"shards\": {shards}, \"cells\": [{cells}]}}",
        json::escape(mode)
    )
}
