//! Determinism of the scenario-matrix engine (the acceptance criterion of
//! the `rackfabric-scenario` subsystem): the same matrix must produce
//! bit-identical aggregate statistics run-to-run and regardless of how many
//! runner threads execute it — including a ≥64-job sweep driven by a single
//! `Runner::run()` call.

use rackfabric::prelude::TopologySpec;
use rackfabric_phy::FecMode;
use rackfabric_scenario::aggregate::aggregate_cells;
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::run_scenario_on;
use rackfabric_sim::prelude::*;

/// 4 rack sizes × 4 loads × 4 seeds = 64 jobs in 16 cells.
fn sweep_matrix() -> Matrix {
    let base = ScenarioSpec::new(
        "determinism-sweep",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .horizon(SimTime::from_millis(30));
    Matrix::new(base)
        .axis(
            "racks",
            vec![
                AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
                AxisValue::Topology(TopologySpec::grid(2, 3, 2)),
                AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
                AxisValue::Topology(TopologySpec::grid(3, 4, 2)),
            ],
        )
        .axis(
            "load",
            vec![
                AxisValue::Load(0.25),
                AxisValue::Load(0.5),
                AxisValue::Load(1.0),
                AxisValue::Load(2.0),
            ],
        )
        .replicates(4)
        .master_seed(2024)
}

#[test]
fn matrix_of_64_jobs_runs_to_completion_in_parallel() {
    let matrix = sweep_matrix();
    assert_eq!(matrix.cell_count(), 16);
    assert_eq!(matrix.job_count(), 64);
    let result = Runner::new(0).run(&matrix); // one worker per core
    assert_eq!(result.jobs.len(), 64);
    assert_eq!(result.cells.len(), 16);
    assert_eq!(result.failed_jobs(), 0);
    for cell in &result.cells {
        assert_eq!(cell.runs, 4);
        assert_eq!(
            cell.completed_runs, 4,
            "cell {:?} left flows incomplete",
            cell.labels
        );
        assert!(cell.packet_latency.count > 0);
        assert!(cell.packet_latency.p999 >= cell.packet_latency.p50);
        assert!(cell.delivered_bytes > 0);
    }
    // Larger racks at equal load must deliver more shuffle bytes.
    let bytes_small = result.cells[0].delivered_bytes; // 2x2 grid
    let bytes_large = result.cells[12].delivered_bytes; // 3x4 grid
    assert!(bytes_large > bytes_small);
}

#[test]
fn one_thread_and_n_threads_agree_bit_for_bit() {
    let matrix = sweep_matrix();
    let serial = Runner::single_threaded().run(&matrix);
    let parallel = Runner::new(8).run(&matrix);

    // Aggregate stats are compared over their full rendered form, so every
    // float, counter and label participates in the comparison.
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.jobs_csv(), parallel.jobs_csv());

    // And per-job summaries agree structurally, not just textually.
    for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
        match (&a.outcome, &b.outcome) {
            (JobOutcome::Completed(x), JobOutcome::Completed(y)) => {
                assert_eq!(x.summary, y.summary, "job {} diverged", a.job.index);
            }
            _ => panic!("job {} did not complete in both runs", a.job.index),
        }
    }
}

/// Runs every job of `matrix` in turn on the reference binary-heap
/// `EventQueue` and aggregates the cells as `Runner::run` does.
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

/// The hot-path acceptance criterion: the calendar-queue engine and the
/// reference heap engine must render **byte-identical** CSV/JSON matrix
/// exports, across thread counts. Every float, histogram percentile and
/// counter participates via the textual comparison.
#[test]
fn heap_and_calendar_schedulers_export_identical_bytes() {
    let calendar = Runner::new(4).run(&sweep_matrix());
    let heap = run_on_heap(&sweep_matrix());
    assert_eq!(calendar.to_csv(), heap.to_csv());
    assert_eq!(calendar.to_json(), heap.to_json());
    assert_eq!(calendar.jobs_csv(), heap.jobs_csv());
    // Event counts are part of the determinism contract too.
    for (a, b) in calendar.jobs.iter().zip(&heap.jobs) {
        match (&a.outcome, &b.outcome) {
            (JobOutcome::Completed(x), JobOutcome::Completed(y)) => {
                assert_eq!(
                    x.events_processed, y.events_processed,
                    "job {} processed different event counts across schedulers",
                    a.job.index
                );
            }
            _ => panic!("job {} did not complete on both schedulers", a.job.index),
        }
    }
}

#[test]
fn rerunning_the_same_matrix_is_reproducible() {
    let first = Runner::new(4).run(&sweep_matrix());
    let second = Runner::new(4).run(&sweep_matrix());
    assert_eq!(first.to_csv(), second.to_csv());
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn phy_and_policy_axes_change_results_deterministically() {
    let base = ScenarioSpec::new(
        "phy-axis",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(4)),
    )
    .horizon(SimTime::from_millis(30));
    let matrix = Matrix::new(base)
        .axis(
            "fec",
            vec![
                AxisValue::Fec(FecSetting::Fixed(FecMode::None)),
                AxisValue::Fec(FecSetting::Fixed(FecMode::Rs544)),
            ],
        )
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .replicates(2);
    let a = Runner::single_threaded().run(&matrix);
    let b = Runner::new(4).run(&matrix);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.failed_jobs(), 0);
    // RS(544,514) adds per-hop FEC latency over no-FEC at the same seed.
    let p50 = |cells: &[CellSummary], i: usize| cells[i].packet_latency.p50;
    assert!(
        p50(&a.cells, 2) > p50(&a.cells, 0),
        "rs544 baseline p50 ({}) should exceed no-fec baseline p50 ({})",
        p50(&a.cells, 2),
        p50(&a.cells, 0)
    );
}
