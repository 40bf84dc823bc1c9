//! Load generator for `rackfabricd`: boots the daemon in-process, fires a
//! storm of concurrent submissions from many client threads over a small
//! pool of distinct scenarios, and checks the service's promises
//! under contention:
//!
//! 1. **Determinism** — every response for the same command is
//!    byte-identical, cold or warm, regardless of which worker served it
//!    or how many clients raced.
//! 2. **Warm economy** — only the first execution of each distinct
//!    scenario touches the engine; the store answers everything else
//!    (store puts == distinct scenarios).
//! 3. **Bounded state** — once every client has its reply, the scheduler
//!    holds no job (`held == 0`), however many requests it served.
//! 4. **Connection reuse** — the client threads share one client's pool,
//!    so the daemon accepts no more connections than there are threads.
//! 5. **One event sequence** — every reply's events are exactly
//!    `accepted`, `started`, `done`, however soon the store answered.
//!
//! It prints the response-time histogram (p50/p99/max) from the daemon's
//! obs registry and can export artifacts for CI's byte-comparison gate:
//!
//! ```text
//! cargo run --release --example daemon_load -- [options]
//!
//!   --requests N     total submissions (default 1008)
//!   --clients K      client threads (default 16)
//!   --workers W      daemon worker pool size (default 4)
//!   --specs S        distinct scenarios in the pool (default 8)
//!   --p99-max-ms F   fail if p99 response time exceeds F milliseconds
//!   --store DIR      store directory (default: a fresh temp dir)
//!   --cmd-out FILE   write the distinct command lines (for --oneshot)
//!   --sample-out FILE  write one warm response line per distinct command
//!   --trace FILE     write a Chrome-trace JSON of the run
//! ```

use rackfabric::prelude::TopologySpec;
use rackfabric_cmd::command::Command;
use rackfabric_cmd::executor::Executor;
use rackfabric_daemon::prelude::*;
use rackfabric_obs::metrics::Registry;
use rackfabric_obs::trace::TraceSink;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::key::canonical_spec_json;
use rackfabric_sweep::store::ResultStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
    clients: usize,
    workers: usize,
    specs: usize,
    p99_max_ms: Option<f64>,
    store: Option<String>,
    cmd_out: Option<String>,
    sample_out: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 1008,
        clients: 16,
        workers: 4,
        specs: 8,
        p99_max_ms: None,
        store: None,
        cmd_out: None,
        sample_out: None,
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} requires a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--requests" => {
                args.requests = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--clients" => {
                args.clients = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--workers" => {
                args.workers = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--specs" => {
                args.specs = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--specs: {e}"))?
            }
            "--p99-max-ms" => {
                args.p99_max_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--p99-max-ms: {e}"))?,
                )
            }
            "--store" => args.store = Some(value(&mut i)?),
            "--cmd-out" => args.cmd_out = Some(value(&mut i)?),
            "--sample-out" => args.sample_out = Some(value(&mut i)?),
            "--trace" => args.trace = Some(value(&mut i)?),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// The scenario pool: tiny grid shuffles distinguished by seed and load —
/// cheap enough that a thousand warm queries dominate the run, real enough
/// that the first execution of each goes through the full engine.
fn spec_pool(count: usize) -> Vec<Command> {
    (0..count)
        .map(|n| {
            let spec = ScenarioSpec::new(
                "daemon-load",
                TopologySpec::grid(2, 2, 2),
                WorkloadSpec::Shuffle {
                    partition: Bytes::from_kib(2),
                    load: if n % 2 == 0 { 0.5 } else { 1.0 },
                },
            )
            .horizon(SimTime::from_millis(5))
            .seed(1000 + n as u64);
            Command::RunScenario {
                spec_json: canonical_spec_json(&spec),
            }
        })
        .collect()
}

fn fail(message: String) -> ! {
    eprintln!("daemon_load: FAIL — {message}");
    std::process::exit(1);
}

/// Fails unless `reply`'s events are exactly `accepted`, `started`,
/// `done`: every job here reaches a worker, and none is cancelled.
fn check_lifecycle(reply: &SubmitReply, what: &str) {
    let events: Vec<Option<Event>> = reply.events.iter().map(|l| Event::from_line(l)).collect();
    if !matches!(
        events.as_slice(),
        [
            Some(Event::Accepted { .. }),
            Some(Event::Started { .. }),
            Some(Event::Done { .. })
        ]
    ) {
        fail(format!("{what}: events {:?}", reply.events));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("daemon_load: {message}");
            std::process::exit(2);
        }
    };

    let store_dir = args.store.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("rackfabricd-load-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ResultStore::open(&store_dir).unwrap_or_else(|e| {
        fail(format!("cannot open store {store_dir}: {e}"));
    });

    let mut observer = Observer::off().with_registry(Arc::new(Registry::new()));
    if args.trace.is_some() {
        observer = observer.with_trace(Arc::new(TraceSink::new()));
    }
    let runner = Runner::new(1).with_observer(observer.clone());
    let exec = Arc::new(Executor::new(store, runner));

    let daemon = Daemon::start(
        exec.clone(),
        DaemonConfig {
            workers: args.workers,
            max_queue: args.requests.max(64),
            observer: observer.clone(),
            ..DaemonConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(format!("cannot start daemon: {e}")));

    let pool = Arc::new(spec_pool(args.specs));
    let client = Client::new(daemon.addr(), Duration::from_secs(120));

    eprintln!(
        "daemon_load: {} request(s) from {} client thread(s) over {} distinct scenario(s), {} worker(s)",
        args.requests, args.clients, args.specs, args.workers
    );
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..args.clients {
        let client = client.clone();
        let pool = pool.clone();
        let share = args.requests / args.clients + usize::from(c < args.requests % args.clients);
        handles.push(std::thread::spawn(move || {
            // Each reply keyed by pool index so the main thread can check
            // byte-identity across every thread and worker.
            let mut replies: Vec<(usize, String)> = Vec::with_capacity(share);
            for r in 0..share {
                let n = (c + r * 7) % pool.len();
                let tenant = format!("tenant-{}", c % 4);
                let priority = (n % 3) as i64;
                match client.submit(&tenant, priority, pool[n].clone()) {
                    Ok(reply) => {
                        check_lifecycle(&reply, &format!("client {c} request {r}"));
                        replies.push((n, reply.result_json));
                    }
                    Err(e) => fail(format!("client {c} request {r}: {e}")),
                }
            }
            replies
        }));
    }
    let mut by_spec: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for handle in handles {
        for (n, line) in handle.join().expect("client thread") {
            by_spec.entry(n).or_default().push(line);
        }
    }
    let elapsed = started.elapsed();

    // Determinism: every response for one command is byte-identical.
    let mut violations = 0usize;
    for (n, lines) in &by_spec {
        let first = &lines[0];
        for line in lines {
            if line != first {
                violations += 1;
                eprintln!("daemon_load: spec {n}: divergent response\n  {first}\n  {line}");
            }
        }
    }
    if violations > 0 {
        fail(format!("{violations} determinism violation(s)"));
    }

    // Warm economy: the engine ran each distinct scenario exactly once.
    let puts = exec.store().stats().puts;
    if puts != args.specs as u64 {
        fail(format!(
            "expected {} store put(s) (one per distinct scenario), saw {puts}",
            args.specs
        ));
    }

    let counts = daemon.scheduler().counts();
    eprintln!(
        "daemon_load: {} completed ({} warm hits, {} dedup-attached, {} rejected, {} held) in {:.2?} — 0 determinism violations, {} store put(s)",
        counts.completed,
        counts.warm_hits,
        counts.dedup_attached,
        counts.rejected,
        counts.held,
        elapsed,
        puts
    );
    // Bounded state: every client has its reply, so no job is left held.
    if counts.held != 0 {
        fail(format!(
            "{} job(s) still held after every reply",
            counts.held
        ));
    }

    // Response-time histogram from the daemon's own registry.
    let registry = observer.registry().expect("registry is always on here");
    let histogram = registry.histogram("daemon.response_ns", TimeDomain::Wall);
    let to_ms = |ns: u64| ns as f64 / 1e6;
    let p50 = to_ms(histogram.quantile_bound(0.50));
    let p99 = to_ms(histogram.quantile_bound(0.99));
    let max = to_ms(histogram.max());
    eprintln!(
        "daemon_load: response time over {} sample(s): p50 ≤ {p50:.2} ms, p99 ≤ {p99:.2} ms, max {max:.2} ms",
        histogram.count()
    );
    if let Some(limit) = args.p99_max_ms {
        if p99 > limit {
            fail(format!("p99 {p99:.2} ms exceeds limit {limit:.2} ms"));
        }
    }

    // CI artifacts: the distinct command lines, and one guaranteed-warm
    // response line per command — `rackfabricd --oneshot` must reproduce
    // these bytes exactly.
    if let Some(path) = &args.cmd_out {
        let mut body = pool
            .iter()
            .map(|c| c.canonical_json())
            .collect::<Vec<_>>()
            .join("\n");
        body.push('\n');
        std::fs::write(path, body).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!(
            "daemon_load: wrote {} command line(s) to {path}",
            pool.len()
        );
    }
    if let Some(path) = &args.sample_out {
        let mut samples = Vec::with_capacity(pool.len());
        for (n, command) in pool.iter().enumerate() {
            match client.submit("sampler", 0, command.clone()) {
                Ok(reply) if reply.cached => {
                    check_lifecycle(&reply, &format!("sample {n}"));
                    samples.push(reply.result_json);
                }
                Ok(_) => fail(format!("sample {n}: expected a warm response")),
                Err(e) => fail(format!("sample {n}: {e}")),
            }
        }
        let mut body = samples.join("\n");
        body.push('\n');
        std::fs::write(path, body).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!(
            "daemon_load: wrote {} warm sample line(s) to {path}",
            samples.len()
        );
    }

    // Connection reuse: the client threads share one pool, and a thread
    // holds one connection at a time, so the daemon accepts at most one
    // connection per client thread.
    let connections = registry
        .counter("daemon.connections", TimeDomain::Wall)
        .get();
    eprintln!(
        "daemon_load: {connections} connection(s) accepted for {} client thread(s)",
        args.clients
    );
    if connections > args.clients as u64 {
        fail(format!(
            "{connections} connections accepted for {} client threads",
            args.clients
        ));
    }

    client
        .shutdown()
        .unwrap_or_else(|e| fail(format!("shutdown: {e}")));
    daemon.wait();
    if let (Some(path), Some(sink)) = (&args.trace, observer.trace()) {
        sink.write_file(path)
            .unwrap_or_else(|e| fail(format!("cannot write trace {path}: {e}")));
        eprintln!("daemon_load: wrote trace to {path}");
    }
    if args.store.is_none() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    eprintln!("daemon_load: OK");
}
