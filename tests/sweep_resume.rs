//! End-to-end acceptance tests of the `rackfabric-sweep` orchestrator — the
//! issue's acceptance criteria, verbatim:
//!
//! 1. a re-run against a warm store executes **zero** jobs and reproduces
//!    the complete report file set (CSV/JSON/SVG/markdown) byte for byte,
//! 2. an interrupted sweep (killed after K jobs) resumed against the same
//!    store completes the remainder and matches an uninterrupted run
//!    byte for byte,
//! 3. editing exactly one axis value re-executes only the affected cells,
//! 4. the budgeted runner meets the p99 CI-width target with fewer jobs
//!    than fixed-seed replication on at least one cell.

use rackfabric::prelude::TopologySpec;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use rackfabric_sweep::testdir::TestDir;

fn tmp_store(tag: &str) -> (TestDir, ResultStore) {
    let dir = TestDir::new(&format!("sweep-it-{tag}"));
    let store = ResultStore::open(dir.path()).unwrap();
    (dir, store)
}

/// racks × load × controller with 2 seeds: 8 cells, 16 jobs.
fn campaign(loads: [f64; 2]) -> Matrix {
    let base = ScenarioSpec::new(
        "resume-acceptance",
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
        .axis(
            "load",
            vec![AxisValue::Load(loads[0]), AxisValue::Load(loads[1])],
        )
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .replicates(2)
        .master_seed(404)
}

#[test]
fn warm_store_rerun_executes_nothing_and_reproduces_every_byte() {
    let (_dir, store) = tmp_store("warm");
    let runner = Runner::new(2);
    let sweep = Sweep::new(campaign([0.5, 1.0]));

    let cold = sweep.run(&store, &runner).unwrap();
    assert_eq!(cold.executed, 16);
    assert_eq!(cold.cached, 0);

    let warm = sweep.run(&store, &runner).unwrap();
    assert_eq!(warm.executed, 0, "warm re-run must execute zero jobs");
    assert_eq!(warm.cached, 16);

    // The complete report file set — aggregates, per-job rows, SVG plots,
    // markdown — must come out byte-identical.
    let cold_files = render_files("resume-acceptance", &cold);
    let warm_files = render_files("resume-acceptance", &warm);
    assert_eq!(cold_files.len(), warm_files.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in cold_files.iter().zip(&warm_files) {
        assert_eq!(name_a, name_b);
        assert_eq!(bytes_a, bytes_b, "file {name_a} diverged on the warm run");
    }
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_exports() {
    let (_dir_ref, store_ref) = tmp_store("kill-ref");
    let (_dir, store) = tmp_store("kill");
    let runner = Runner::new(2);

    // Reference: one uninterrupted run in a separate store.
    let reference = Sweep::new(campaign([0.5, 1.0]))
        .run(&store_ref, &runner)
        .unwrap();

    // "Kill after K jobs": the sweep stops dispatching after 5 fresh
    // executions, exactly as if the process had died mid-campaign (every
    // completed job is already durable in the store).
    let killed = Sweep::new(campaign([0.5, 1.0]))
        .cancel(CancelToken::after_jobs(5))
        .run(&store, &runner)
        .unwrap();
    assert!(killed.interrupted);
    assert_eq!(killed.executed, 5);
    assert_eq!(killed.skipped, 11);

    // Resume: only the remainder executes, and the final file set matches
    // the uninterrupted reference byte for byte.
    let resumed = Sweep::new(campaign([0.5, 1.0]))
        .run(&store, &runner)
        .unwrap();
    assert_eq!(
        resumed.executed, 11,
        "resume must run exactly the remainder"
    );
    assert_eq!(resumed.cached, 5);
    assert_eq!(
        render_files("resume-acceptance", &reference),
        render_files("resume-acceptance", &resumed)
    );
}

#[test]
fn editing_one_axis_value_reexecutes_only_the_affected_cells() {
    let (_dir, store) = tmp_store("edit");
    let runner = Runner::new(2);

    let first = Sweep::new(campaign([0.5, 1.0]))
        .run(&store, &runner)
        .unwrap();
    assert_eq!(first.executed, 16);

    // Edit exactly one axis value: load 1.0 -> 1.5. Half the cells (the
    // load=1.0 ones) are affected; the load=0.5 half must stay cached.
    let edited = Sweep::new(campaign([0.5, 1.5]))
        .run(&store, &runner)
        .unwrap();
    assert_eq!(
        edited.executed, 8,
        "only the cells containing the edited value may re-execute"
    );
    assert_eq!(edited.cached, 8);

    // And the edited campaign is itself now warm.
    let warm = Sweep::new(campaign([0.5, 1.5]))
        .run(&store, &runner)
        .unwrap();
    assert_eq!(warm.executed, 0);
}

#[test]
fn budgeted_runner_beats_fixed_replication_while_meeting_the_target() {
    let (_dir_fixed, store_fixed) = tmp_store("fixed");
    let (_dir_budget, store_budget) = tmp_store("budget");
    let runner = Runner::new(2);

    // Fixed-seed replication: 8 seeds per cell, no questions asked.
    const FIXED_REPLICATES: usize = 8;
    let fixed = Sweep::new(campaign([0.5, 1.0]).replicates(FIXED_REPLICATES))
        .run(&store_fixed, &runner)
        .unwrap();
    let fixed_jobs = fixed.records.len();
    assert_eq!(fixed_jobs, 8 * FIXED_REPLICATES);

    // Budgeted: same target space, replicates grow only until the p99 CI
    // converges (cap at the same 8).
    let policy = BudgetPolicy {
        target_rel_halfwidth: 0.25,
        min_replicates: 2,
        max_replicates: FIXED_REPLICATES,
        ..BudgetPolicy::default()
    };
    let budgeted = Sweep::new(campaign([0.5, 1.0]))
        .budget(policy)
        .run(&store_budget, &runner)
        .unwrap();
    let budgeted_jobs = budgeted.records.len();

    assert!(
        budgeted_jobs < fixed_jobs,
        "budgeted replication must use fewer jobs ({budgeted_jobs}) than fixed \
         ({fixed_jobs})"
    );
    let converged_count = budgeted
        .cell_budgets
        .iter()
        .filter(|b| {
            b.stop == StopReason::Converged
                && b.replicates < FIXED_REPLICATES
                && b.rel_halfwidth <= policy.target_rel_halfwidth
        })
        .count();
    assert!(
        converged_count >= 1,
        "at least one cell must meet the CI target with fewer replicates than \
         the fixed count: {:?}",
        budgeted.cell_budgets
    );
}
