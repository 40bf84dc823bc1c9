//! Golden-export regression suite for the paper-figure campaigns.
//!
//! Every figure of the paper (e1–e9, plus the repo's own e10 sharded-scale
//! and e11 fabric-vs-routing figures) is a declarative campaign in
//! `rackfabric_bench::figures` whose CSV export is byte-deterministic. This
//! suite runs the full set at `--tiny` scale end to end through the
//! command-layer `Executor` and pins it four ways:
//!
//! * each export must match its checked-in `golden/tiny/*.csv` **byte for
//!   byte** (an intentional result change regenerates goldens via
//!   `cargo run -p rackfabric-bench --bin sweep -- --tiny --update-golden`),
//! * a second run against the same store must execute **zero** jobs and
//!   reproduce identical bytes (the resume gate), and the daemon's
//!   `regenerate-figure` answer for each figure must carry those bytes,
//! * a campaign interrupted mid-flight by `max_new_jobs` must recover from
//!   its journal to the exact same golden bytes, re-executing nothing that
//!   was already journaled and stored (the crash-recovery gate),
//! * a perturbed export must *fail* the comparison with a readable
//!   per-column diff (the drift detector itself is tested).

use rackfabric_bench::figures::{self, FigureOptions, FigureResolver, Scale};
use rackfabric_cmd::command::Command;
use rackfabric_cmd::Executor;
use rackfabric_daemon::prelude::*;
use rackfabric_scenario::runner::Runner;
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sweep::prelude::*;
use rackfabric_sweep::testdir::TestDir;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn tmp_dir(tag: &str) -> TestDir {
    TestDir::new(&format!("paper-figures-{tag}"))
}

#[test]
fn tiny_figures_match_goldens_and_resume_to_zero_jobs() {
    let dir = tmp_dir("e2e");
    let exec = Executor::new(ResultStore::open(dir.path()).unwrap(), Runner::new(0));

    // Cold: every simulation-backed figure executes its campaign.
    let cold = figures::run_figures(Scale::Tiny, &exec).unwrap();
    assert_eq!(cold.len(), 11, "e1..e11");
    let cold_executed: usize = cold.iter().map(|f| f.executed).sum();
    assert!(cold_executed > 0, "a cold store must execute jobs");
    assert!(cold.iter().all(|f| !f.interrupted));

    // Byte-for-byte against the checked-in goldens.
    let failures = figures::check_goldens(&golden_root(), Scale::Tiny, &cold)
        .expect("golden/tiny is checked in");
    assert!(
        failures.is_empty(),
        "figure exports drifted from golden/tiny:\n{}",
        failures.join("\n---\n")
    );

    // Warm: the same campaigns against the same store execute nothing and
    // export identical bytes.
    let warm = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let warm_executed: usize = warm.iter().map(|f| f.executed).sum();
    assert_eq!(warm_executed, 0, "a warm store must answer every job");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.export,
            w.export,
            "{} must be byte-stable",
            c.export_file()
        );
        assert_eq!(c.export_file(), w.export_file());
    }

    // The daemon's figure path answers every figure, analytic ones too, from
    // the same warm store with the same export bytes.
    for w in &warm {
        let command = Command::RegenerateFigure {
            id: w.id.to_string(),
            scale: Scale::Tiny.golden_dir().to_string(),
            budget: None,
        };
        let (cached, line) = execute_oneshot(&exec, &command).unwrap();
        assert!(cached, "{} must be answered by the warm store", w.id);
        let answer = json::parse(&line).unwrap();
        assert_eq!(
            answer.get("export").and_then(JsonValue::as_str),
            Some(w.export.as_str()),
            "{}: the daemon's export must equal run_figures'",
            w.id
        );
    }
}

#[test]
fn interrupted_figure_campaign_recovers_from_journal_to_golden_bytes() {
    let dir = tmp_dir("recover");
    let exec = Executor::with_journal(
        ResultStore::open(dir.join("store")).unwrap(),
        Runner::new(0),
        dir.join("journal"),
    )
    .unwrap();

    // Interrupted: the shared fresh-execution allowance runs out inside the
    // figure sequence; every figure still journals its marker.
    let partial = figures::run_figures_with(
        Scale::Tiny,
        &exec,
        &FigureOptions {
            max_new_jobs: Some(6),
            ..FigureOptions::default()
        },
    )
    .unwrap();
    let partial_executed: usize = partial.iter().map(|f| f.executed).sum();
    assert_eq!(partial_executed, 6, "the cap must interrupt the sequence");
    assert!(partial.iter().any(|f| f.interrupted));

    // Recovery replays the journal through the figure table: the 6 stored
    // jobs cost zero executions, the campaign markers complete the rest.
    let stats = exec.recover(&FigureResolver).unwrap();
    assert_eq!(stats.cells_replayed, 0, "stored jobs must not re-execute");
    assert_eq!(stats.cells_already_stored, 6);
    assert!(stats.campaigns_replayed > 0);

    // The recovered store now answers the full set warm, and the exports
    // are the exact golden bytes of an uninterrupted run.
    let recovered = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let executed: usize = recovered.iter().map(|f| f.executed).sum();
    assert_eq!(executed, 0, "recovery must have completed every campaign");
    let failures = figures::check_goldens(&golden_root(), Scale::Tiny, &recovered)
        .expect("golden/tiny is checked in");
    assert!(
        failures.is_empty(),
        "recovered exports drifted from golden/tiny:\n{}",
        failures.join("\n---\n")
    );

    // A second recovery pass is a no-op: everything journaled is stored.
    let again = exec.recover(&FigureResolver).unwrap();
    assert_eq!(again.cells_replayed, 0);
}

#[test]
fn daemon_cancelled_figure_campaign_recovers_from_journal_to_batch_bytes() {
    // The crash-recovery gate, extended to the daemon path: a figure
    // campaign cancelled mid-flight through `rackfabricd`'s scheduler
    // leaves the same clean journal prefix as a `max_new_jobs`
    // interruption, `Executor::recover` completes it, and the recovered
    // store answers the daemon byte-identically to the batch path.
    let dir = tmp_dir("daemon-recover");
    let exec = Arc::new(
        Executor::with_journal(
            ResultStore::open(dir.join("store")).unwrap(),
            Runner::new(1),
            dir.join("journal"),
        )
        .unwrap(),
    );
    let command = Command::RegenerateFigure {
        id: "e1".to_string(),
        scale: "tiny".to_string(),
        budget: None,
    };

    // Deterministic interruption: the token's fuse trips at the second
    // job boundary (runner threads = 1, so each dispatch chunk is one
    // job) — e1 tiny has 8 jobs, leaving 6 unexecuted.
    let daemon = Daemon::start(
        exec.clone(),
        DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let token = CancelToken::after_checks(2);
    let id = daemon
        .scheduler()
        .submit_with_token("ci", 0, command.clone(), token)
        .job_id()
        .expect("an empty daemon accepts the submission");
    let mut saw_started = false;
    let cancelled = loop {
        match daemon
            .scheduler()
            .watch(id, saw_started, std::time::Duration::from_secs(120))
            .expect("the fused campaign must end, not hang")
        {
            rackfabric_daemon::sched::Observed::Started => saw_started = true,
            rackfabric_daemon::sched::Observed::Ended(end) => break end,
        }
    };
    assert!(
        matches!(cancelled, JobEnd::Cancelled),
        "the tripped fuse must surface as a cancellation: {cancelled:?}"
    );
    daemon.shutdown();
    assert_eq!(
        exec.store().len(),
        2,
        "the cancelled campaign persisted exactly its clean prefix"
    );

    // Recovery replays the journal: both stored jobs cost nothing, the
    // campaign marker completes the remaining six.
    let stats = exec.recover(&FigureResolver).unwrap();
    assert_eq!(stats.cells_replayed, 0, "stored jobs must not re-execute");
    assert!(stats.campaigns_replayed > 0, "the marker drives completion");
    assert_eq!(exec.store().len(), 8, "e1 tiny resolves 8 jobs");

    // Reference: the batch path against an independent store, queried
    // warm so the payload (executed = 0) is comparable.
    let ref_exec = Executor::new(
        ResultStore::open(dir.join("ref-store")).unwrap(),
        Runner::new(1),
    );
    execute_oneshot(&ref_exec, &command).expect("cold reference run");
    let (ref_cached, ref_line) = execute_oneshot(&ref_exec, &command).unwrap();
    assert!(ref_cached, "the second reference run is warm");

    // The daemon on the recovered store answers warm, byte-identically.
    let daemon = Daemon::start(exec.clone(), DaemonConfig::default()).unwrap();
    let client = Client::new(daemon.addr(), std::time::Duration::from_secs(120));
    let reply = client.submit("ci", 0, command).unwrap();
    assert!(reply.cached, "recovery must have completed the campaign");
    assert_eq!(
        reply.result_json, ref_line,
        "recovered daemon bytes must match an uninterrupted batch run"
    );
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn perturbed_histogram_bucket_fails_with_a_readable_per_column_diff() {
    // The e9 export carries histogram-derived percentile columns; bump one
    // p99 bucket value by a digit and the golden gate must fail, naming the
    // line and the column.
    let golden = std::fs::read_to_string(golden_root().join("tiny/e9_scenario_matrix.csv"))
        .expect("checked-in golden/tiny/e9_scenario_matrix.csv");
    let mut lines: Vec<String> = golden.lines().map(str::to_string).collect();
    let header: Vec<&str> = lines[0].split(',').collect();
    let p99_col = header
        .iter()
        .position(|&h| h == "latency_p99_ps")
        .expect("cells CSV has a latency_p99_ps column");
    let mut fields: Vec<String> = lines[1].split(',').map(str::to_string).collect();
    fields[p99_col].push('1'); // one histogram bucket drifts
    lines[1] = fields.join(",");
    let perturbed = format!("{}\n", lines.join("\n"));

    let err = figures::compare_export("e9_scenario_matrix.csv", &golden, &perturbed)
        .expect_err("a perturbed export must fail the golden gate");
    assert!(err.contains("line 2"), "diff must name the line: {err}");
    assert!(
        err.contains("column `latency_p99_ps`"),
        "diff must name the column: {err}"
    );
    assert!(err.contains("golden="), "diff must show both values: {err}");

    // The untouched export still passes.
    figures::compare_export("e9_scenario_matrix.csv", &golden, &golden).unwrap();
}

#[test]
fn figure_store_gc_reclaims_nothing_while_campaigns_are_live() {
    // After a full figure run, every record in the store is referenced by
    // some figure: gc against the live set must keep them all.
    let dir = tmp_dir("gc");
    let exec = Executor::new(ResultStore::open(dir.path()).unwrap(), Runner::new(0));
    let runs = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let live: Vec<JobKey> = figures::live_keys(&runs).into_iter().collect();
    assert_eq!(
        exec.store().len(),
        live.len(),
        "one record per resolved job key"
    );
    let stats = exec.gc(&live).unwrap();
    assert_eq!(stats.removed, 0);
    assert_eq!(stats.kept, live.len());
}
