//! Fast self-test of the benchmark: every workload path, untraced and
//! traced, at `--size tiny` (the Tiny figure campaign, a 3×3 shuffle grid, a
//! 200-request daemon run), with every output check on. A change that
//! breaks the harness or an output check fails here in seconds.
//!
//! ```text
//! cargo test --release --manifest-path rackbench/Cargo.toml
//! ```

use rackfabric_sim::json::{self, JsonValue};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["figures_paper", "shuffle_8x8", "daemon_mixed"];

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark command; returns its exit status and last line.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rackbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn check_workload(workload: &str, trace: &str, metrics_key: &str) {
    let args = [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    let (ok, last) = run(&args);
    assert!(ok, "{workload} --trace {trace} failed: {last}");
    let result = json::parse(&last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    let mut names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    names.sort_unstable();
    let mut expected = declared(metrics_key);
    expected.sort_unstable();
    assert_eq!(names, expected, "{workload} --trace {trace} metric names");
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_runs_and_passes_its_checks_untraced() {
    for workload in WORKLOADS {
        check_workload(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_runs_and_reports_every_layer_traced() {
    for workload in WORKLOADS {
        check_workload(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "shuffle_8x8", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "shuffle_8x8",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let (ok, last) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(
            json::parse(&last).is_err(),
            "{args:?} printed a result: {last}"
        );
    }
}
