//! `shuffle_8x8`: the heavy-shuffle 8×8-grid cells, once under the static
//! baseline controller and once under the adaptive one, each through
//! `run_scenario` on one thread with no store.

use crate::cli::Size;
use crate::host::{adjusted, nanos, Probe, PROBE_REFERENCE_NS};
use crate::phase::{timed_setup, PhaseReport};
use crate::spans::Spans;
use rackfabric::prelude::TopologySpec;
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::{run_scenario, JobOutcome, JobResult};
use rackfabric_sim::prelude::*;
use rackfabric_sweep::store::outcome_to_json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed `BENCH_hotpath.json` records its 8×8 cells at.
pub const PINNED_SEED: u64 = 7;

/// Engine events of the (baseline, adaptive) cells at [`PINNED_SEED`], as
/// `BENCH_hotpath.json` records them.
pub const PINNED_EVENTS: [u64; 2] = [735_688, 665_102];

/// The two arms, in the order [`cells`] builds them: the name of their
/// samples, and of the same samples adjusted by the probe.
const ARMS: [(&str, &str); 2] = [
    ("baseline", "baseline.adjusted"),
    ("adaptive", "adaptive.adjusted"),
];

/// The two cells, `(arm, spec)`, built the way the hot-path perf smoke
/// builds them: the seed is the matrix's master seed. `Size::Tiny` makes
/// them 3×3 grids for the self-test.
pub fn cells(seed: u64, size: Size) -> Vec<(&'static str, ScenarioSpec)> {
    let (rack, horizon) = match size {
        Size::Full => (TopologySpec::grid(8, 8, 2), SimTime::from_millis(50)),
        Size::Tiny => (TopologySpec::grid(3, 3, 2), SimTime::from_millis(10)),
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
    let jobs = Matrix::new(base)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .master_seed(seed)
        .expand();
    ARMS.into_iter()
        .map(|(arm, _)| arm)
        .zip(jobs.into_iter().map(|job| job.spec))
        .collect()
}

/// One measured cell run.
pub struct CellRun {
    /// The whole `run_scenario` call, timed from outside.
    pub host_nanos: f64,
    /// The engine loop alone, as the runner times it.
    pub wall_nanos: f64,
    pub events: u64,
    pub route_cache_hit_rate: f64,
}

/// Runs one cell; returns the measurement and the result's byte-stable
/// store encoding, or `None` when the engine panicked.
pub fn run_cell(spec: &ScenarioSpec) -> Option<(CellRun, String)> {
    let start = Instant::now();
    let result: JobResult = catch_unwind(AssertUnwindSafe(|| run_scenario(spec))).ok()?;
    let run = CellRun {
        host_nanos: nanos(start.elapsed()),
        wall_nanos: result.wall_nanos as f64,
        events: result.events_processed,
        route_cache_hit_rate: result.summary.route_cache_hit_rate,
    };
    Some((
        run,
        outcome_to_json(&JobOutcome::Completed(Box::new(result))),
    ))
}

/// Runs the two cells in turn, `rounds` times. Every repetition of a cell
/// must encode to the same bytes; at the pinned seed the event counts must
/// match the pins.
pub fn run(
    seed: u64,
    size: Size,
    rounds: usize,
    spans: &Spans,
    probe: &mut Probe,
) -> (PhaseReport, Vec<Vec<CellRun>>) {
    let mut report = PhaseReport::default();
    let cells = timed_setup(&mut report, Some(&mut *probe), || Ok(cells(seed, size)))
        .expect("building specs cannot fail");
    let mut runs: Vec<Vec<CellRun>> = cells.iter().map(|_| Vec::new()).collect();
    let mut adjusted_times: Vec<Vec<f64>> = cells.iter().map(|_| Vec::new()).collect();
    let mut first_bytes: Vec<Option<String>> = vec![None; cells.len()];
    for round in 0..rounds as u64 {
        for (i, (arm, spec)) in cells.iter().enumerate() {
            report.attempted += 1;
            let probe_ns = probe.sample();
            let open = spans.enter(arm, round);
            let run = run_cell(spec);
            spans.exit(open);
            let Some((run, bytes)) = run else {
                report.failed += 1;
                continue;
            };
            let first = first_bytes[i].get_or_insert_with(|| bytes.clone());
            report.check(*first == bytes, || {
                format!("{arm} cell: repetition {round} encodes to different bytes")
            });
            if size == Size::Full && seed == PINNED_SEED {
                let events = run.events;
                report.check(events == PINNED_EVENTS[i], || {
                    format!("{arm} cell: {events} events, pinned {}", PINNED_EVENTS[i])
                });
            }
            adjusted_times[i].push(adjusted(run.host_nanos, probe_ns, PROBE_REFERENCE_NS));
            runs[i].push(run);
        }
    }
    for (((arm, adjusted_arm), arm_runs), arm_adjusted) in
        ARMS.into_iter().zip(&runs).zip(adjusted_times)
    {
        report
            .samples
            .push((arm, arm_runs.iter().map(|r| r.host_nanos).collect()));
        report.samples.push((adjusted_arm, arm_adjusted));
    }
    (report, runs)
}
