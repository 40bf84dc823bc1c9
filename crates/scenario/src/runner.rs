//! Parallel execution of an expanded scenario matrix.
//!
//! Jobs are independent single-threaded `Simulator` runs, so the runner is
//! an embarrassingly parallel pool: worker threads steal the next unclaimed
//! job from a shared atomic cursor and stream `(index, outcome)` pairs back
//! over an mpsc channel. Results are re-ordered by job index before
//! aggregation, so the output is **bit-identical regardless of thread count
//! or scheduling** — the determinism the repository's experiments rely on.

use crate::aggregate::{aggregate_cells, CellSummary};
use crate::matrix::{Job, Matrix};
use crate::spec::{FecSetting, ScenarioSpec};
use rackfabric::fabric::AdaptiveFabric;
use rackfabric::metrics::RunSummary;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_phy::{PlpCommand, PlpExecutor};
use rackfabric_sim::queue::Scheduler;
use rackfabric_sim::stats::Histogram;
use rackfabric_sim::{CalendarQueue, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// What one job produced.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The simulation ran to its horizon (or completion). Boxed: a result
    /// carries two full histograms and dwarfs the failure variant.
    Completed(Box<JobResult>),
    /// The simulation panicked; the message is recorded and the sweep
    /// continues.
    Failed(String),
}

/// The measured output of one completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Condensed run metrics.
    pub summary: RunSummary,
    /// Full end-to-end latency histogram (merged across replicates by the
    /// aggregator for tail percentiles).
    pub packet_latency: Histogram,
    /// Full queueing-delay histogram.
    pub queueing_latency: Histogram,
    /// Whether every flow delivered all of its bytes within the horizon.
    pub all_flows_complete: bool,
    /// Engine events processed (deterministic: identical across schedulers
    /// and thread counts).
    pub events_processed: u64,
    /// Wall-clock nanoseconds the engine spent on this job. **Not**
    /// deterministic — used for perf reporting only, never exported in the
    /// byte-stable CSV/JSON.
    pub wall_nanos: u64,
}

impl JobResult {
    /// Engine events per wall-clock second for this job.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.events_processed as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// One job together with its outcome, in matrix order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job as expanded from the matrix.
    pub job: Job,
    /// What running it produced.
    pub outcome: JobOutcome,
}

/// Everything a [`Runner::run`] call produces.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Per-job records, ordered by job index.
    pub jobs: Vec<JobRecord>,
    /// Per-cell aggregates, ordered by cell index.
    pub cells: Vec<CellSummary>,
}

impl MatrixResult {
    /// Number of jobs that failed (panicked).
    pub fn failed_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Failed(_)))
            .count()
    }
}

/// Executes a single fully resolved scenario (what each worker thread runs):
/// the monolithic engine on the calendar queue, or the sharded multi-rack
/// engine when `spec.shards >= 1`.
pub fn run_scenario(spec: &ScenarioSpec) -> JobResult {
    if spec.shards >= 1 {
        return run_scenario_sharded(spec);
    }
    run_scenario_on(spec, CalendarQueue::new())
}

/// Executes a scenario on the sharded engine. Results are byte-identical
/// for every shard count (the 1-shard run is the reference the CI gate
/// diffs N-shard runs against).
fn run_scenario_sharded(spec: &ScenarioSpec) -> JobResult {
    let flows = spec.build_flows();
    let mut config = rackfabric::shard::ShardedConfig::new(spec.to_fabric_config(), spec.shards);
    // Parallelism already comes from the job-level Runner pool; letting every
    // job also spawn one spinning window-worker per shard would nest two
    // thread pools and oversubscribe the machine. Worker count never affects
    // results, so the scenario path always drains windows on the job thread.
    config.workers = 1;
    let mut fabric = rackfabric::shard::ShardedFabric::new(config, flows);
    apply_phy_policy_to(spec, fabric.phy_mut());
    let start = std::time::Instant::now();
    let run = fabric.run();
    let wall_nanos = start.elapsed().as_nanos() as u64;
    JobResult {
        summary: run.metrics.summary(),
        packet_latency: run.metrics.packet_latency.clone(),
        queueing_latency: run.metrics.queueing_latency.clone(),
        all_flows_complete: run.all_flows_complete,
        events_processed: run.events_processed,
        wall_nanos,
    }
}

/// Executes a scenario on the monolithic engine over an explicit
/// pending-event set, whatever `spec.shards` says. Tests and `perf_smoke`
/// pass the reference binary-heap `EventQueue` here to check the calendar
/// queue's exports byte for byte.
pub fn run_scenario_on<S: Scheduler<rackfabric::fabric::FabricEvent>>(
    spec: &ScenarioSpec,
    scheduler: S,
) -> JobResult {
    let flows = spec.build_flows();
    let config = spec.to_fabric_config();
    let mut fabric = AdaptiveFabric::new(config, flows);
    apply_phy_policy(spec, &mut fabric);
    let mut sim = Simulator::with_scheduler(fabric, spec.seed, scheduler)
        .with_event_budget(spec.event_budget);
    let start = std::time::Instant::now();
    sim.run_until(spec.horizon);
    let wall_nanos = start.elapsed().as_nanos() as u64;
    let events_processed = sim.events_processed();
    let fabric = sim.into_model();
    JobResult {
        summary: fabric.metrics.summary(),
        packet_latency: fabric.metrics.packet_latency.clone(),
        queueing_latency: fabric.metrics.queueing_latency.clone(),
        all_flows_complete: fabric.all_flows_complete(),
        events_processed,
        wall_nanos,
    }
}

/// Applies the spec's initial PLP state (FEC, lane caps, power) to the
/// freshly instantiated fabric, before the first event fires.
fn apply_phy_policy(spec: &ScenarioSpec, fabric: &mut AdaptiveFabric) {
    apply_phy_policy_to(spec, &mut fabric.phy);
}

/// Applies the spec's initial PLP state to a bare physical state (shared by
/// the monolithic and sharded engine paths).
fn apply_phy_policy_to(spec: &ScenarioSpec, phy: &mut rackfabric_phy::PhyState) {
    let executor = PlpExecutor::default();
    let link_ids = phy.link_ids();
    for link in link_ids {
        if let FecSetting::Fixed(mode) = spec.phy.fec {
            let _ = executor.execute(phy, &PlpCommand::SetFec { link, mode });
        }
        if let Some(cap) = spec.phy.active_lanes {
            let total = phy.link(link).map(|l| l.total_lanes()).unwrap_or(0);
            let lanes = cap.min(total).max(1);
            let _ = executor.execute(phy, &PlpCommand::SetActiveLanes { link, lanes });
        }
        if spec.phy.power != rackfabric_phy::PowerState::Active {
            let _ = executor.execute(
                phy,
                &PlpCommand::SetPower {
                    link,
                    state: spec.phy.power,
                },
            );
        }
    }
    // Bypass chains: short-circuit the switching logic at the first N
    // intermediate nodes of the node-id chain (the unique path on a line
    // topology). Nodes missing either chain link are skipped silently —
    // the knob is a no-op on topologies without the chain.
    for node in 1..=spec.phy.bypassed_nodes as u32 {
        let in_link = phy.find_link_between(node - 1, node).map(|l| l.id);
        let out_link = phy.find_link_between(node, node + 1).map(|l| l.id);
        if let (Some(in_link), Some(out_link)) = (in_link, out_link) {
            let _ = executor.execute(
                phy,
                &PlpCommand::EnableBypass {
                    at_node: node,
                    in_link,
                    out_link,
                },
            );
        }
    }
}

/// The trace lane of job worker `w` ([`Runner`] spans). Offset so job-level
/// lanes never collide with the windowed engine's per-worker lanes.
const JOB_LANE_BASE: u64 = 1000;

/// A work-stealing pool of OS threads executing matrix jobs.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    /// Job-lifecycle tracing (one span per job on its worker's lane).
    /// Observability only: never threaded into the simulations themselves,
    /// so job results stay byte-identical with tracing on or off.
    observer: Observer,
}

impl Runner {
    /// A runner with an explicit worker count (`0` = one worker per
    /// available core).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Runner {
            threads,
            observer: Observer::off(),
        }
    }

    /// A runner that executes jobs on the calling thread only.
    pub fn single_threaded() -> Self {
        Runner {
            threads: 1,
            observer: Observer::off(),
        }
    }

    /// Attaches an observer: each executed job records a span on its worker
    /// thread's lane, plus job/failure counters.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// The observer this runner's job spans and counters go to.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Expands `matrix` and executes every job, returning per-job records
    /// and per-cell aggregates. The result is a pure function of the matrix:
    /// thread count and scheduling order do not affect it.
    pub fn run(&self, matrix: &Matrix) -> MatrixResult {
        let jobs = matrix.expand();
        let outcomes = self.execute(&jobs);
        let records: Vec<JobRecord> = jobs
            .into_iter()
            .zip(outcomes)
            .map(|(job, outcome)| JobRecord { job, outcome })
            .collect();
        let cells = aggregate_cells(&records);
        MatrixResult {
            jobs: records,
            cells,
        }
    }

    /// Executes an explicit job list (not necessarily a full matrix
    /// expansion), returning outcomes in list order. This is the incremental
    /// dispatch hook `rackfabric-sweep` uses to run only the jobs missing
    /// from its result store; results are a pure function of each job's
    /// spec, independent of thread count and of which other jobs ride along.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        self.execute(jobs)
    }

    /// Runs the job list, returning outcomes in job order.
    fn execute(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        let workers = self.threads.min(jobs.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<(usize, JobOutcome)>();
        if let Some(sink) = self.observer.trace() {
            for w in 0..workers {
                sink.name_lane(JOB_LANE_BASE + w as u64, format!("job worker {w}"));
            }
        }

        std::thread::scope(|scope| {
            for w in 0..workers {
                let sender = sender.clone();
                let cursor = &cursor;
                let observer = &self.observer;
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let mut span = observer.span(JOB_LANE_BASE + w as u64, "job", "runner");
                    span.arg_u64("index", index as u64);
                    let outcome = match catch_unwind(AssertUnwindSafe(|| run_scenario(&job.spec))) {
                        Ok(result) => {
                            span.arg_u64("events", result.events_processed);
                            observer.count("runner.jobs_completed", TimeDomain::Sim, 1);
                            JobOutcome::Completed(Box::new(result))
                        }
                        Err(panic) => {
                            span.arg_str("failed", "panic");
                            observer.count("runner.jobs_failed", TimeDomain::Sim, 1);
                            JobOutcome::Failed(panic_message(panic))
                        }
                    };
                    drop(span);
                    if sender.send((index, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(sender);

            let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
            for (index, outcome) in receiver {
                outcomes[index] = Some(outcome);
            }
            outcomes
                .into_iter()
                .map(|o| o.expect("every job reports exactly once"))
                .collect()
        })
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(0)
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::AxisValue;
    use crate::spec::WorkloadSpec;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    fn small_matrix() -> Matrix {
        let base = ScenarioSpec::new(
            "runner-unit",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(20));
        Matrix::new(base)
            .axis(
                "racks",
                vec![
                    AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
                    AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
                ],
            )
            .replicates(2)
    }

    #[test]
    fn runs_every_job_and_aggregates_cells() {
        let result = Runner::new(2).run(&small_matrix());
        assert_eq!(result.jobs.len(), 4);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.failed_jobs(), 0);
        for record in &result.jobs {
            let JobOutcome::Completed(r) = &record.outcome else {
                panic!("job failed");
            };
            assert!(r.all_flows_complete);
            assert!(r.summary.delivered_bytes > 0);
        }
    }

    #[test]
    fn single_scenario_matches_direct_run() {
        let spec = ScenarioSpec::new(
            "direct",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(5);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.delivered_bytes, b.summary.delivered_bytes);
    }

    #[test]
    fn a_panicking_job_does_not_sink_the_sweep() {
        // The (1-node line × storage) cell panics while generating flows:
        // the storage split leaves no compute sleds. Every other cell must
        // still run and aggregate.
        let base = ScenarioSpec::new(
            "panic-isolation",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20));
        let storage = WorkloadSpec::Storage {
            ops_per_node: 1.0,
            io_size: Bytes::new(100),
            read_fraction: 0.5,
            load: 1.0,
        };
        let matrix = Matrix::new(base)
            .axis(
                "topo",
                vec![
                    AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
                    AxisValue::Topology(TopologySpec::line(1, 1)),
                ],
            )
            .axis(
                "workload",
                vec![
                    AxisValue::Workload(WorkloadSpec::shuffle(Bytes::from_kib(1))),
                    AxisValue::Workload(storage),
                ],
            );
        let result = Runner::new(2).run(&matrix);
        assert_eq!(result.jobs.len(), 4);
        assert_eq!(result.failed_jobs(), 1);
        let failed = result
            .jobs
            .iter()
            .find(|r| matches!(r.outcome, JobOutcome::Failed(_)))
            .unwrap();
        assert_eq!(failed.job.labels[0].1, "line-1-1lane");
        assert_eq!(failed.job.labels[1].1, "storage");
    }
}
