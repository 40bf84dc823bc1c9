//! The command line: the top-level process that runs a workload's measuring
//! processes and reports, and the `phase` entry point those processes run.

use crate::host::{self, Probe};
use crate::phase::{Parsed, PhaseReport};
use crate::spans::Spans;
use crate::stats::{self, median, percentile, samples_for_tail, Timing};
use crate::{daemon, figures, layers, shuffle};
use rackfabric_bench::figures::Scale;
use rackfabric_obs::metrics::Registry;
use rackfabric_obs::trace::TraceSink;
use rackfabric_obs::Observer;
use rackfabric_sim::json::{self, JsonValue};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rackbench --workload <figures_paper|shuffle_8x8|daemon_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]";

/// A run's measuring processes must all end within this long of its start;
/// one still running then is killed and the run fails.
const RUN_TIMEOUT: Duration = Duration::from_secs(170);

/// Trace events kept per traced process.
const TRACE_CAPACITY: usize = 400_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresPaper,
    Shuffle8x8,
    DaemonMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "figures_paper" => Some(Workload::FiguresPaper),
            "shuffle_8x8" => Some(Workload::Shuffle8x8),
            "daemon_mixed" => Some(Workload::DaemonMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresPaper => "figures_paper",
            Workload::Shuffle8x8 => "shuffle_8x8",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }
}

/// `--size tiny` shrinks every workload to seconds-long self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn flag_values(argv: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !argv.len().is_multiple_of(2) {
        return Err(format!("every option takes one value: {argv:?}"));
    }
    Ok(argv
        .chunks(2)
        .map(|pair| (pair[0].as_str(), pair[1].as_str()))
        .collect())
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value:?}"))
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut size = Size::Full;
        for (flag, value) in flag_values(argv)? {
            match flag {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(parse_num(flag, value)?),
                "--seconds" => seconds = Some(parse_num::<f64>(flag, value)?),
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                "--size" => {
                    size = match value {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("--size takes full or tiny, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown option {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

// ---------------------------------------------------------------------------
// Measuring processes.
// ---------------------------------------------------------------------------

/// One measuring process to run: `rackbench phase <name> <options>`.
struct PhaseCall {
    name: &'static str,
    dir: PathBuf,
    seed: u64,
    /// Operations to measure: warm passes, shuffle rounds or requests.
    ops: usize,
    size: Size,
    trace: Option<PathBuf>,
}

impl PhaseCall {
    fn argv(&self) -> Vec<String> {
        let mut argv = vec![
            "phase".to_string(),
            self.name.to_string(),
            "--dir".into(),
            self.dir.display().to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--ops".into(),
            self.ops.to_string(),
            "--size".into(),
            match self.size {
                Size::Full => "full".into(),
                Size::Tiny => "tiny".into(),
            },
        ];
        if let Some(trace) = &self.trace {
            argv.push("--trace".into());
            argv.push(trace.display().to_string());
        }
        argv
    }
}

/// Runs one measuring process to completion (or kills it at `deadline`)
/// and parses its report.
fn spawn_phase(exe: &Path, call: &PhaseCall, deadline: Instant) -> Result<Parsed, String> {
    let mut child = Command::new(exe)
        .args(call.argv())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start phase {}: {e}", call.name))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("phase {} timed out", call.name));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("phase {}: {e}", call.name));
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        return Err(format!("phase {} exited with {status}", call.name));
    }
    let line = out.lines().last().unwrap_or_default();
    Parsed::parse(line).ok_or_else(|| format!("phase {} printed no report", call.name))
}

struct PhaseOpts {
    dir: PathBuf,
    seed: u64,
    ops: usize,
    size: Size,
    trace: Option<PathBuf>,
}

impl PhaseOpts {
    fn parse(argv: &[String]) -> Result<PhaseOpts, String> {
        let mut opts = PhaseOpts {
            dir: PathBuf::new(),
            seed: 0,
            ops: 1,
            size: Size::Full,
            trace: None,
        };
        for (flag, value) in flag_values(argv)? {
            match flag {
                "--dir" => opts.dir = PathBuf::from(value),
                "--seed" => opts.seed = parse_num(flag, value)?,
                "--ops" => opts.ops = parse_num(flag, value)?,
                "--size" => {
                    opts.size = if value == "tiny" {
                        Size::Tiny
                    } else {
                        Size::Full
                    }
                }
                "--trace" => opts.trace = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown phase option {flag:?}")),
            }
        }
        Ok(opts)
    }
}

/// Operations per run. Every run does a fixed amount of work, so runs
/// compare like for like (and memory that grows per request grows the
/// same in every run). The counts are set so that a run's measured part
/// takes about `seconds` on a 2-core host, and never fall below what the
/// printed percentiles need.
struct Budget {
    warm_passes: usize,
    shuffle_rounds: usize,
    requests: usize,
}

fn budget(size: Size, seconds: f64) -> Budget {
    let at_rate =
        |per_second: f64, floor: usize| ((seconds * per_second).ceil() as usize).max(floor);
    match size {
        Size::Full => Budget {
            warm_passes: at_rate(2.0, samples_for_tail(0.75)),
            shuffle_rounds: at_rate(0.45, 3),
            // 3 % of requests run the engine: the floor leaves 1000
            // store-answered ones for the p99.
            requests: at_rate(450.0, 1100),
        },
        Size::Tiny => Budget {
            warm_passes: 3,
            shuffle_rounds: 2,
            requests: 200,
        },
    }
}

fn load(requests: usize) -> daemon::Load {
    daemon::Load {
        clients: host::nproc(),
        workers: host::nproc(),
        requests,
    }
}

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Paper,
        Size::Tiny => Scale::Tiny,
    }
}

/// The `phase` entry point: measures, prints one report line, exits.
pub fn run_phase(argv: &[String]) -> i32 {
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("rackbench phase: which phase?");
        return 2;
    };
    let opts = match PhaseOpts::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("rackbench phase: {e}");
            return 2;
        }
    };
    let sink = opts
        .trace
        .as_ref()
        .map(|_| Arc::new(TraceSink::with_capacity(TRACE_CAPACITY)));
    let (spans, observer) = match &sink {
        Some(sink) => (
            Spans::on(sink.clone()),
            Observer::off()
                .with_trace(sink.clone())
                .with_registry(Arc::new(Registry::new())),
        ),
        None => (Spans::off(), Observer::off()),
    };
    let traced = sink.is_some();
    let threads = host::nproc();
    let mut probe = Probe::new();
    let result = match name.as_str() {
        "figures-cold" => figures::cold(
            &opts.dir,
            scale(opts.size),
            threads,
            &spans,
            &observer,
            &mut probe,
        )
        .map(|(mut report, _exec)| {
            if traced {
                layers::figures_cold(&mut report, scale(opts.size), &observer, &opts.dir);
            }
            report
        }),
        "figures-warm" => figures::warm(
            &opts.dir,
            scale(opts.size),
            threads,
            opts.ops,
            &spans,
            &observer,
            &mut probe,
        )
        .map(|(mut report, _exec)| {
            if traced {
                layers::figures_warm(&mut report);
            }
            report
        }),
        "shuffle" => {
            let (mut report, runs) =
                shuffle::run(opts.seed, opts.size, opts.ops, &spans, &mut probe);
            if traced {
                layers::shuffle(&mut report, &runs, opts.seed, opts.size);
            }
            Ok(report)
        }
        "daemon" => daemon::run(
            &opts.dir,
            opts.seed,
            load(opts.ops),
            &spans,
            &observer,
            &mut probe,
        )
        .map(|(mut report, exec, daemon)| {
            if traced {
                layers::daemon(&mut report, &exec, &observer, opts.seed);
            }
            daemon.shutdown();
            report
        }),
        "layers" => {
            let mut report = PhaseReport::default();
            layers::ladder(&mut report, &opts.dir, scale(opts.size));
            Ok(report)
        }
        other => Err(std::io::Error::other(format!("unknown phase {other:?}"))),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rackbench phase {name}: {e}");
            return 1;
        }
    };
    report.samples.push(("probe", probe.samples));
    if let (Some(path), Some(sink)) = (&opts.trace, &sink) {
        if let Err(e) = sink.write_file(path) {
            eprintln!(
                "rackbench phase {name}: cannot write trace {}: {e}",
                path.display()
            );
            return 1;
        }
        report.traces.push(path.clone());
    }
    println!("{}", report.to_json());
    0
}

// ---------------------------------------------------------------------------
// The top-level process.
// ---------------------------------------------------------------------------

/// The end-to-end metrics the last line carries, with their units: set-up,
/// memory, the medians of the workload's heavy and light operation
/// ([`Parsed::timing`]) and the light operation's tail
/// ([`stats::gated_tail_quantile`]). The metrics under their own names, with
/// medians and tails as measured, are printed above the last line.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("heavy_ms", "ms"),
    ("light_ms", "ms"),
    ("light_tail_ms", "ms"),
];

/// Measuring processes the warm passes and the shuffle rounds are split
/// over. The host's speed drifts over seconds; samples pooled from several
/// processes spread over the run see several draws of it. The shuffle's
/// set-up (building two specs, about 12 µs) varied threefold from one
/// process to the next, so its sum over nine processes is steadier than
/// over three.
const WARM_PROCESSES: usize = 4;
const SHUFFLE_PROCESSES: usize = 9;

fn plan(args: &Args, work: &Path, out: &Path) -> Vec<PhaseCall> {
    let call = |name, dir: &str, ops: usize, traced: bool| PhaseCall {
        name,
        dir: work.join(dir),
        seed: args.seed,
        ops: ops.max(1),
        size: args.size,
        trace: traced
            .then(|| out.join(format!("{}-{name}-{dir}.trace.json", args.workload.name()))),
    };
    let b = budget(args.size, args.seconds);
    let split = |total: usize, parts: usize| total.div_ceil(parts);
    // The ladder's store functions run over a figure campaign's records: the
    // traced figures run's own store, or a cold pass of their own.
    let ladder = || {
        vec![
            call("figures-cold", "layers", 1, false),
            call("layers", "layers", 1, false),
        ]
    };
    match (args.workload, args.trace) {
        // Two cold passes, each into its own fresh store; the second's
        // store serves the warm passes.
        (Workload::FiguresPaper, false) => {
            let mut calls = vec![
                call("figures-cold", "figures-first", 1, false),
                call("figures-cold", "figures", 1, false),
            ];
            for _ in 0..WARM_PROCESSES {
                calls.push(call(
                    "figures-warm",
                    "figures",
                    split(b.warm_passes, WARM_PROCESSES),
                    false,
                ));
            }
            calls
        }
        (Workload::FiguresPaper, true) => vec![
            call("figures-cold", "figures", 1, true),
            call("figures-warm", "figures", b.warm_passes / 2, false),
            call("figures-warm", "figures", b.warm_passes / 2, true),
            call("layers", "figures", 1, false),
        ],
        (Workload::Shuffle8x8, false) => (0..SHUFFLE_PROCESSES)
            .map(|_| {
                call(
                    "shuffle",
                    "shuffle",
                    split(b.shuffle_rounds, SHUFFLE_PROCESSES),
                    false,
                )
            })
            .collect(),
        (Workload::Shuffle8x8, true) => [
            call("shuffle", "shuffle", b.shuffle_rounds / 2, false),
            call("shuffle", "shuffle", b.shuffle_rounds / 2, true),
        ]
        .into_iter()
        .chain(ladder())
        .collect(),
        (Workload::DaemonMixed, false) => vec![call("daemon", "daemon", b.requests, false)],
        (Workload::DaemonMixed, true) => [
            call("daemon", "daemon-plain", b.requests / 2, false),
            call("daemon", "daemon-traced", b.requests / 2, true),
        ]
        .into_iter()
        .chain(ladder())
        .collect(),
    }
}

/// `values` divided by `divisor`.
fn scaled(values: &[f64], divisor: f64) -> Vec<f64> {
    values.iter().map(|v| v / divisor).collect()
}

/// One line of the human-readable report.
fn print_timing(name: &str, unit: &str, values: &[f64]) {
    if values.is_empty() {
        println!("metric {name:<14} {unit:<4} n=0");
        return;
    }
    let t = Timing::of(values);
    let tail = t
        .tail
        .map(|(q, v)| format!(" p{}={}", q * 100.0, json::number(v)))
        .unwrap_or_else(|| " (fewer than 20 samples: no tail)".into());
    println!(
        "metric {name:<14} {unit:<4} n={} median={}{tail}",
        t.n,
        json::number(t.median)
    );
}

fn print_value(name: &str, unit: &str, value: f64) {
    println!("metric {name:<14} {unit:<4} value={}", json::number(value));
}

/// The names of a workload's heavy and light operation.
fn operation_names(workload: Workload) -> (&'static str, &'static str) {
    match workload {
        Workload::FiguresPaper => ("cold", "warm"),
        Workload::Shuffle8x8 => ("adaptive", "baseline"),
        Workload::DaemonMixed => ("cold", "warm"),
    }
}

/// The samples (ms) of `name` over all measuring processes, as `samples`
/// reads them from each: as measured ([`Parsed::samples`]) or as the gated
/// metrics take them ([`Parsed::timing`]).
fn pooled(reports: &[Parsed], samples: fn(&Parsed, &str) -> Vec<f64>, name: &str) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|r| samples(r, name))
        .map(|ns| ns / 1e6)
        .collect()
}

/// Prints the end-to-end metrics of a workload under their own names.
fn print_named(workload: Workload, heavy: &[f64], light: &[f64], reports: &[Parsed]) {
    match workload {
        Workload::FiguresPaper => {
            print_timing("cold_s", "s", &scaled(heavy, 1e3));
            print_timing("warm_ms", "ms", light);
        }
        Workload::Shuffle8x8 => {
            print_timing("baseline_ms", "ms", light);
            print_timing("adaptive_ms", "ms", heavy);
        }
        Workload::DaemonMixed => {
            print_timing("warm_p50_ms", "ms", light);
            if !light.is_empty() {
                print_value("warm_p99_ms", "ms", percentile(light, 0.99));
            }
            print_timing("cold_p50_ms", "ms", heavy);
            let completed = reports[0].value("completed").unwrap_or(0.0);
            let wall = reports[0].value("wall_s").unwrap_or(f64::INFINITY);
            print_value("req_per_s", "1/s", completed / wall);
        }
    }
}

/// The command's entry point.
pub fn run(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rackbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rackbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    // State lives beside the build (`<target>/release/rackbench`), so a run
    // reads and writes only inside the checkout that built it.
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let work = target.join("rackbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let out = target.join("rackbench-out");
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&out)) {
        eprintln!("rackbench: cannot create {}: {e}", work.display());
        return 1;
    }

    let steal_before = host::cpu_jiffies();
    let started = Instant::now();
    let calls = plan(&args, &work, &out);
    let mut reports = Vec::new();
    let mut errors = Vec::new();
    for call in &calls {
        match spawn_phase(&exe, call, started + RUN_TIMEOUT) {
            Ok(report) => reports.push(report),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let steal = host::steal_share(steal_before, host::cpu_jiffies());
    let _ = std::fs::remove_dir_all(&work);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("rackbench: {e}");
        }
        return 1;
    }

    let nproc = host::nproc();
    let (runner_threads, workers, clients) = match args.workload {
        Workload::FiguresPaper => (nproc, 0, 0),
        Workload::Shuffle8x8 => (1, 0, 0),
        Workload::DaemonMixed => (1, nproc, nproc),
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let probe_ms = |name| {
        let samples = pooled(&reports, Parsed::samples, name);
        if samples.is_empty() {
            "none".to_string()
        } else {
            json::number(median(&samples))
        }
    };
    println!(
        "meta workload={} seed={} seconds={} trace={} git_rev={} nproc={nproc} \
         runner_threads={runner_threads} daemon_workers={workers} clients={clients} \
         steal_share={} probe_ms={} service_probe_ms={} wall_s={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_rev(&repo),
        steal.map_or("unknown".into(), json::number),
        probe_ms("probe"),
        probe_ms("service_probe"),
        json::number(started.elapsed().as_secs_f64()),
    );

    let mut checks: Vec<String> = reports.iter().flat_map(Parsed::checks).collect();
    let attempted: u64 = reports.iter().map(|r| r.count("attempted")).sum();
    let failed: u64 = reports.iter().map(|r| r.count("failed")).sum();
    if attempted == 0 {
        checks.push("no operation was attempted".into());
    }
    if failed > 0 {
        checks.push(format!("{failed} of {attempted} operations failed"));
    }

    let metrics = if args.trace {
        layers::report(args.workload, &reports, &out, &mut checks)
    } else {
        // Set-up of each process, summed over the processes: as measured
        // for the report, adjusted where measured next to the probe for the
        // gated metric.
        let setup_s = |samples: fn(&Parsed, &str) -> Vec<f64>| -> f64 {
            reports
                .iter()
                .map(|r| samples(r, "setup"))
                .filter(|v| !v.is_empty())
                .map(|v| median(&v) / 1e9)
                .sum()
        };
        let rss_mb = reports
            .iter()
            .map(|r| r.count("rss_kib"))
            .max()
            .unwrap_or(0) as f64
            / 1024.0;
        let (heavy_name, light_name) = operation_names(args.workload);
        let measured = |name| pooled(&reports, Parsed::samples, name);
        let (heavy, light) = (measured(heavy_name), measured(light_name));
        print_named(args.workload, &heavy, &light, &reports);
        print_value("setup_s", "s", setup_s(Parsed::samples));
        print_value("peak_rss_mb", "MiB", rss_mb);
        let gated = |name| pooled(&reports, Parsed::timing, name);
        let (heavy, light) = (gated(heavy_name), gated(light_name));
        print_timing("heavy_ms", "ms", &heavy);
        print_timing("light_ms", "ms", &light);
        if heavy.is_empty() || light.is_empty() {
            checks.push("a workload operation has no samples".into());
        }
        let tail_q = stats::gated_tail_quantile(light.len());
        let light_tail = if light.is_empty() {
            f64::NAN
        } else {
            percentile(&light, tail_q)
        };
        println!(
            "metric {:<14} {:<4} p{}={}",
            "light_tail_ms",
            "ms",
            tail_q * 100.0,
            json::number(light_tail)
        );
        let mid = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
        [
            setup_s(Parsed::timing),
            rss_mb,
            mid(&heavy),
            mid(&light),
            light_tail,
        ]
        .into_iter()
        .zip(END_TO_END)
        .map(|(value, (name, unit))| (name.to_string(), stats::metric(value, unit)))
        .collect()
    };

    for check in &checks {
        println!("check FAILED: {check}");
    }
    let correct = checks.is_empty();
    println!(
        "{}",
        json::canonical(&stats::object(vec![
            ("attempted".into(), stats::uint(attempted.max(1))),
            ("correct".into(), JsonValue::Bool(correct)),
            ("failed".into(), stats::uint(failed)),
            ("metrics".into(), stats::object(metrics)),
        ]))
    );
    if correct {
        0
    } else {
        1
    }
}
