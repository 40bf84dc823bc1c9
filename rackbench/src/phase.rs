//! The report one measuring process hands back to the top-level process: one
//! JSON line on stdout.

use crate::host::{self, Probe};
use crate::stats::{array, numbers, object, text, uint};
use rackfabric_cmd::Executor;
use rackfabric_obs::Observer;
use rackfabric_scenario::runner::Runner;
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sweep::store::ResultStore;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Paths of a phase's store and journal under its work directory.
pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

pub fn journal_dir(dir: &Path) -> PathBuf {
    dir.join("journal")
}

/// Opens the store and journal under `dir` (creating them the first time)
/// as a journaled executor whose runner has `threads` threads and reports to
/// `observer`.
pub fn open_executor(dir: &Path, threads: usize, observer: &Observer) -> io::Result<Executor> {
    let runner = Runner::new(threads).with_observer(observer.clone());
    Executor::with_journal(ResultStore::open(store_dir(dir))?, runner, journal_dir(dir))
}

/// Set-up repetitions per process: up to [`SETUP_REPS`], but at least
/// [`SETUP_MIN_REPS`] and no more than fit in [`SETUP_BUDGET`]. Set-up is
/// often sub-millisecond, so one reading is mostly noise; the median of
/// many is not.
pub const SETUP_REPS: usize = 201;
const SETUP_MIN_REPS: usize = 5;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_millis(500);

/// One per-layer metric: a measured value, or why it cannot be measured
/// on this workload.
#[derive(Debug, Clone)]
pub enum Layer {
    Value(f64, String),
    Unmeasured(String),
}

/// What one measuring process reports.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// Named timing samples, ns.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Named scalars (wall times, counts).
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub check_failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, Layer)>,
    /// Chrome trace files written.
    pub traces: Vec<PathBuf>,
}

impl PhaseReport {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(message());
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.layers
            .push((name.into(), Layer::Value(value, unit.to_string())));
    }

    pub fn unmeasured(&mut self, name: impl Into<String>, reason: impl Into<String>) {
        self.layers
            .push((name.into(), Layer::Unmeasured(reason.into())));
    }

    pub fn to_json(&self) -> String {
        let layers = self
            .layers
            .iter()
            .map(|(name, layer)| {
                let body = match layer {
                    Layer::Value(v, unit) => object(vec![
                        ("unit".into(), text(unit.clone())),
                        ("value".into(), crate::stats::num(*v)),
                    ]),
                    Layer::Unmeasured(reason) => {
                        object(vec![("reason".into(), text(reason.clone()))])
                    }
                };
                (name.clone(), body)
            })
            .collect();
        json::canonical(&object(vec![
            ("attempted".into(), uint(self.attempted)),
            (
                "checks".into(),
                JsonValue::Array(
                    self.check_failures
                        .iter()
                        .map(|c| text(c.clone()))
                        .collect(),
                ),
            ),
            ("failed".into(), uint(self.failed)),
            ("layers".into(), object(layers)),
            ("rss_kib".into(), uint(host::peak_rss_kib())),
            (
                "samples".into(),
                object(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.to_string(), array(v)))
                        .collect(),
                ),
            ),
            (
                "traces".into(),
                JsonValue::Array(
                    self.traces
                        .iter()
                        .map(|p| text(p.display().to_string()))
                        .collect(),
                ),
            ),
            (
                "values".into(),
                object(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.to_string(), crate::stats::num(*v)))
                        .collect(),
                ),
            ),
        ]))
    }
}

/// A phase report as the top-level process reads it back.
pub struct Parsed(pub JsonValue);

impl Parsed {
    pub fn parse(line: &str) -> Option<Parsed> {
        json::parse(line).ok().map(Parsed)
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.0
            .get("samples")
            .map(|s| numbers(s, name))
            .unwrap_or_default()
    }

    /// The samples of operation `name` as the end-to-end metrics take them:
    /// adjusted to the reference host's speed where the phase measured the
    /// probe next to each operation, as measured otherwise.
    pub fn timing(&self, name: &str) -> Vec<f64> {
        let adjusted = self.samples(&format!("{name}.adjusted"));
        if adjusted.is_empty() {
            self.samples(name)
        } else {
            adjusted
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.0.get("values")?.get(name)?.as_f64()
    }

    pub fn count(&self, key: &str) -> u64 {
        self.0.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    pub fn checks(&self) -> Vec<String> {
        self.0
            .get("checks")
            .and_then(JsonValue::as_array)
            .map(|c| {
                c.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn layers(&self) -> Vec<(String, JsonValue)> {
        self.0
            .get("layers")
            .and_then(JsonValue::as_object)
            .map(|l| l.to_vec())
            .unwrap_or_default()
    }

    pub fn traces(&self) -> Vec<String> {
        self.0
            .get("traces")
            .and_then(JsonValue::as_array)
            .map(|t| {
                t.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Runs `open` repeatedly (see [`SETUP_REPS`]), timing each into the
/// `setup` samples, and keeps the last result; earlier ones are dropped
/// before the next repetition. With a probe, each repetition follows a
/// probe sample and is also recorded adjusted (`setup.adjusted`).
pub fn timed_setup<T>(
    report: &mut PhaseReport,
    mut probe: Option<&mut Probe>,
    mut open: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut times = Vec::new();
    let mut adjusted = Vec::new();
    let budget = Instant::now();
    let value = loop {
        let last = times.len() + 1 == SETUP_REPS
            || (times.len() + 1 >= SETUP_MIN_REPS && budget.elapsed() >= SETUP_BUDGET);
        let probe_ns = probe.as_mut().map(|p| p.sample());
        let start = Instant::now();
        let value = open()?;
        let ns = host::nanos(start.elapsed());
        times.push(ns);
        if let Some(probe_ns) = probe_ns {
            adjusted.push(host::adjusted(ns, probe_ns, host::PROBE_REFERENCE_NS));
        }
        if last {
            break value;
        }
    };
    report.samples.push(("setup", times));
    if !adjusted.is_empty() {
        report.samples.push(("setup.adjusted", adjusted));
    }
    Ok(value)
}
