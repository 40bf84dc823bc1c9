//! The `sweep` binary's failing exits keep the run's observability: the
//! store's traffic counters reach `stats.json` and `--trace DIR` is written
//! before the process exits non-zero. `--max-new-jobs N` executes exactly
//! `N` fresh jobs, and `--update-golden` refuses it.

use rackfabric_sweep::testdir::TestDir;
use std::path::Path;
use std::process::{Command, Output};

fn sweep(dir: &Path, args: &[&str]) -> Output {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--golden")
        .arg(golden)
        .args(args)
        .output()
        .expect("sweep runs")
}

/// The number after `label` on a line of `sweep --stats` output.
fn stat(stdout: &str, label: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|line| line.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {stdout}"));
    line.split_whitespace()
        .find_map(|word| word.parse().ok())
        .unwrap_or_else(|| panic!("no number on {line:?}"))
}

#[test]
fn a_cold_run_under_expect_cached_fails_but_keeps_its_counters_and_trace() {
    let dir = TestDir::new("sweep-cli-expect-cached");
    let trace = dir.join("trace");
    let trace_arg = trace.to_str().expect("a UTF-8 temp path");
    let run = sweep(
        dir.path(),
        &[
            "--tiny",
            "--no-journal",
            "--expect-cached",
            "--trace",
            trace_arg,
        ],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("expected a fully warm store"),
        "the failure names its cause: {stderr}"
    );
    assert!(
        trace.join("sweep_trace.json").is_file(),
        "no trace written: {stderr}"
    );

    let stats = sweep(dir.path(), &["--stats"]);
    assert!(stats.status.success());
    let stdout = String::from_utf8_lossy(&stats.stdout);
    let records = stat(&stdout, "store ");
    assert!(records > 0, "{stdout}");
    assert_eq!(stat(&stdout, "records put:"), records, "{stdout}");
    assert!(stat(&stdout, "cache misses:") >= records, "{stdout}");
}

#[test]
fn max_new_jobs_executes_exactly_that_many_fresh_jobs() {
    let dir = TestDir::new("sweep-cli-max-new-jobs");
    let run = sweep(dir.path(), &["--tiny", "--max-new-jobs", "6"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("campaign interrupted by --max-new-jobs — golden gate skipped"),
        "{stderr}"
    );

    let stats = sweep(dir.path(), &["--stats"]);
    assert!(stats.status.success());
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert_eq!(stat(&stdout, "records put:"), 6, "{stdout}");
    assert_eq!(stat(&stdout, "store "), 6, "{stdout}");
}

#[test]
fn update_golden_refuses_a_fresh_job_cap() {
    let dir = TestDir::new("sweep-cli-update-golden-cap");
    let golden = dir.join("golden");
    let golden_arg = golden.to_str().expect("a UTF-8 temp path");
    let run = sweep(
        dir.path(),
        &[
            "--tiny",
            "--update-golden",
            "--max-new-jobs",
            "6",
            "--golden",
            golden_arg,
        ],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(
            "--update-golden requires fixed replicates and no job cap \
             (drop --budget / --max-new-jobs)"
        ),
        "{stderr}"
    );
    assert!(!golden.exists(), "a refused run writes no golden");
}
