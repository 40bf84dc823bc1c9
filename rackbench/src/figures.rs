//! `figures_paper`: the e1–e11 figure campaign through a journaled
//! `Executor`, cold into a fresh store, then warm from a fresh process.

use crate::host::{adjusted, nanos, Probe, PROBE_REFERENCE_NS};
use crate::phase::{open_executor, timed_setup, PhaseReport};
use crate::spans::Spans;
use crate::stats::median;
use rackfabric_bench::figures::{
    compare_export, figure_defs, golden_path, run_figures, FigureKind, FigureRun, Scale,
};
use rackfabric_cmd::Executor;
use rackfabric_obs::Observer;
use rackfabric_scenario::runner::JobOutcome;
use rackfabric_sweep::campaign::Sweep;
use rackfabric_sweep::emit::render_files;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Compute probe samples taken before and after a cold pass.
const COLD_PROBE_SAMPLES: usize = 10;

/// The median of `n` compute probe samples, ns.
fn probe_median(probe: &mut Probe, n: usize) -> f64 {
    median(&(0..n).map(|_| probe.sample()).collect::<Vec<_>>())
}

/// The checked-in goldens the exports must equal byte for byte.
pub fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../golden")
}

/// One figure pass: `run_figures`, or with an observer the same per-figure
/// loop with `Sweep::observed` switched on.
fn run_pass(scale: Scale, exec: &Executor, observer: &Observer) -> io::Result<Vec<FigureRun>> {
    if !observer.is_enabled() {
        return run_figures(scale, exec);
    }
    figure_defs(scale)
        .into_iter()
        .map(|def| {
            let (export, outcome) = match def.kind {
                FigureKind::Analytic(render) => (render(), None),
                FigureKind::Sim(matrix, export) => {
                    let sweep = Sweep::new(*matrix).observed(observer.clone());
                    let outcome = exec.regenerate_figure(def.id, scale.golden_dir(), &sweep)?;
                    (export(&outcome), Some(outcome))
                }
            };
            Ok(FigureRun {
                id: def.id,
                slug: def.slug,
                title: def.title,
                export,
                executed: outcome.as_ref().map_or(0, |o| o.executed),
                cached: outcome.as_ref().map_or(0, |o| o.cached),
                interrupted: outcome.as_ref().is_some_and(|o| o.interrupted),
                outcome,
            })
        })
        .collect()
}

/// Jobs resolved, jobs executed and failed jobs over one pass.
fn job_counts(runs: &[FigureRun]) -> (u64, u64, u64) {
    let mut resolved = 0;
    let mut failed = 0;
    for outcome in runs.iter().filter_map(|r| r.outcome.as_ref()) {
        resolved += outcome.records.len() as u64;
        failed += outcome
            .records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Failed(_)))
            .count() as u64;
    }
    let executed = runs.iter().map(|r| r.executed as u64).sum();
    (resolved, executed, failed)
}

/// Jobs a full campaign at `scale` resolves.
pub fn campaign_jobs(scale: Scale) -> u64 {
    figure_defs(scale)
        .iter()
        .map(|def| match &def.kind {
            FigureKind::Sim(matrix, _) => matrix.job_count() as u64,
            FigureKind::Analytic(_) => 0,
        })
        .sum()
}

/// Compares every export against its golden.
struct Goldens(BTreeMap<String, String>);

impl Goldens {
    fn load(scale: Scale, runs: &[FigureRun]) -> Goldens {
        let root = golden_root();
        Goldens(
            runs.iter()
                .map(|r| {
                    let golden = std::fs::read_to_string(golden_path(&root, scale, r))
                        .unwrap_or_else(|e| format!("<unreadable golden: {e}>"));
                    (r.export_file(), golden)
                })
                .collect(),
        )
    }

    fn check(&self, what: &str, runs: &[FigureRun], report: &mut PhaseReport) {
        for run in runs {
            let name = run.export_file();
            let golden = self.0.get(&name).map(String::as_str).unwrap_or("");
            if let Err(diff) = compare_export(&name, golden, &run.export) {
                report.check_failures.push(format!("{what}: {diff}"));
            }
        }
    }
}

/// The cold pass: opens a fresh store and journal and runs the whole
/// campaign once. Set-up opens them repeatedly; only the first open creates
/// them. The compute probe brackets the pass.
pub fn cold(
    dir: &Path,
    scale: Scale,
    threads: usize,
    spans: &Spans,
    observer: &Observer,
    probe: &mut Probe,
) -> io::Result<(PhaseReport, Executor)> {
    let mut report = PhaseReport::default();
    let exec = timed_setup(&mut report, None, || open_executor(dir, threads, observer))?;

    let before = probe_median(probe, COLD_PROBE_SAMPLES);
    let span = spans.enter("figures.cold_pass", 0);
    let start = Instant::now();
    let runs = run_pass(scale, &exec, observer)?;
    let cold = nanos(start.elapsed());
    spans.exit(span);
    let after = probe_median(probe, COLD_PROBE_SAMPLES);

    let (resolved, executed, failed) = job_counts(&runs);
    let expected = campaign_jobs(scale);
    report.samples.push(("cold", vec![cold]));
    report.samples.push((
        "cold.adjusted",
        vec![adjusted(cold, (before + after) / 2.0, PROBE_REFERENCE_NS)],
    ));
    report.values.push(("executed", executed as f64));
    report.attempted = resolved;
    report.failed = failed;
    report.check(executed == expected, || {
        format!("cold pass executed {executed} jobs, the campaign has {expected}")
    });
    report.check(runs.iter().all(|r| !r.interrupted), || {
        "cold pass was interrupted".into()
    });
    Goldens::load(scale, &runs).check("cold pass", &runs, &mut report);
    Ok((report, exec))
}

/// `passes` warm passes against the store a cold pass filled, in a process
/// of their own: each is `run_figures` plus `render_files` of every figure,
/// to memory.
pub fn warm(
    dir: &Path,
    scale: Scale,
    threads: usize,
    passes: usize,
    spans: &Spans,
    observer: &Observer,
    probe: &mut Probe,
) -> io::Result<(PhaseReport, Executor)> {
    let mut report = PhaseReport::default();
    let exec = timed_setup(&mut report, Some(&mut *probe), || {
        open_executor(dir, threads, observer)
    })?;

    let mut goldens: Option<Goldens> = None;
    let mut times = Vec::with_capacity(passes);
    let mut adjusted_times = Vec::with_capacity(passes);
    for pass in 0..passes {
        let probe_ns = probe.sample();
        let misses = exec.store().stats().misses;
        let span = spans.enter("figures.warm_pass", pass as u64);
        let t = Instant::now();
        let runs = run_pass(scale, &exec, observer)?;
        let mut rendered = 0usize;
        for run in &runs {
            if let Some(outcome) = &run.outcome {
                let name = format!("{} — {}", run.id, run.title);
                for (file, body) in render_files(&name, outcome) {
                    rendered += file.len() + body.len();
                }
            }
        }
        black_box(rendered);
        let ns = nanos(t.elapsed());
        times.push(ns);
        adjusted_times.push(adjusted(ns, probe_ns, PROBE_REFERENCE_NS));
        spans.exit(span);

        let (resolved, executed, failed) = job_counts(&runs);
        let new_misses = exec.store().stats().misses - misses;
        report.attempted += resolved;
        report.failed += failed;
        report.check(executed == 0 && new_misses == 0, || {
            format!("warm pass executed {executed} jobs with {new_misses} store misses")
        });
        goldens
            .get_or_insert_with(|| Goldens::load(scale, &runs))
            .check("warm pass", &runs, &mut report);
    }
    report
        .values
        .push(("warm_misses", exec.store().stats().misses as f64));
    report.samples.push(("warm", times));
    report.samples.push(("warm.adjusted", adjusted_times));
    Ok((report, exec))
}
