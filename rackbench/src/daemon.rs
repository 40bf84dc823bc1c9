//! `daemon_mixed`: an in-process `rackfabricd` on a journaled executor and
//! a fresh store, driven in a closed loop over localhost TCP by `nproc`
//! client threads. About 3 % of requests are first sightings of a new spec
//! (the engine runs); the rest repeat a spec the store already answers.

use crate::host::{adjusted, nanos, Probe, ServiceProbe, SERVICE_PROBE_REFERENCE_NS};
use crate::phase::{open_executor, timed_setup, PhaseReport};
use crate::spans::Spans;
use rackfabric::prelude::TopologySpec;
use rackfabric_cmd::{Command, Executor};
use rackfabric_daemon::service::execute_oneshot;
use rackfabric_daemon::{Client, Daemon, DaemonConfig};
use rackfabric_obs::Observer;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::key::canonical_spec_json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of requests that name a spec never requested before.
const NEW_SPEC_SHARE: f64 = 0.03;

/// A client gives up on one request after this long and counts it failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Segments the load is split into. The service probe is sampled before the
/// first segment, between each two and after the last, with no request in
/// flight; each segment's round trips are adjusted by the mean of the two
/// samples around it, so the adjustment follows the host's speed through
/// the run.
const SEGMENTS: usize = 20;

/// Clients stop issuing requests after this long, however many are left.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Spec `k` of the seed's pool: a small grid shuffle (2×2 to 4×4 grids,
/// 8 KiB partitions, 10 ms horizon). No request logs exist, so this mix is
/// a guess; it is not the CI daemon-smoke pool, which has only 2×2 grids,
/// 2 KiB partitions and a 5 ms horizon. Grid shape and load cycle through
/// all 27 combinations, so every seed's pool has the same mix of sizes; the
/// seed picks each spec's traffic seed (and the arrival order).
pub fn pool_command(seed: u64, k: u64) -> Command {
    let mut rng = DetRng::new(seed).split(k);
    let rows = 2 + (k % 3) as usize;
    let cols = 2 + (k / 3 % 3) as usize;
    let load = [0.5, 0.75, 1.0][(k / 9 % 3) as usize];
    let spec = ScenarioSpec::new(
        "daemon-mixed",
        TopologySpec::grid(rows, cols, 2),
        WorkloadSpec::Shuffle {
            partition: Bytes::from_kib(8),
            load,
        },
    )
    .horizon(SimTime::from_millis(10))
    .seed(rng.next_u64());
    Command::RunScenario {
        spec_json: canonical_spec_json(&spec),
    }
}

/// The seed-driven request sequence: which pool spec each request names.
/// The clients draw from it in turn, so the sequence is fixed by the seed
/// even though which client sends which request is not.
struct Arrivals {
    seed: u64,
    rng: DetRng,
    commands: Vec<Command>,
    issued: u64,
}

impl Arrivals {
    fn new(seed: u64) -> Arrivals {
        Arrivals {
            seed,
            rng: DetRng::new(seed ^ 0xA5A5_A5A5),
            commands: Vec::new(),
            issued: 0,
        }
    }

    /// The next request: its sequence number, pool spec and command.
    fn next(&mut self) -> (u64, u64, Command) {
        self.issued += 1;
        let distinct = self.commands.len() as u64;
        let k = if distinct == 0 || self.rng.chance(NEW_SPEC_SHARE) {
            self.commands.push(pool_command(self.seed, distinct));
            distinct
        } else {
            self.rng.range_u64(0..distinct)
        };
        (self.issued, k, self.commands[k as usize].clone())
    }
}

/// Sizes of one daemon run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub clients: usize,
    pub workers: usize,
    /// Requests issued over the run, by all clients together.
    pub requests: usize,
}

/// What one client thread saw in one segment.
#[derive(Default)]
struct ClientLog {
    warm: Vec<f64>,
    cold: Vec<f64>,
    failures: Vec<String>,
    attempted: u64,
    /// First response bytes per pool spec, and specs whose later responses
    /// differed from their first.
    first: BTreeMap<u64, String>,
    divergent: Vec<u64>,
}

/// Drives the daemon from `clients` threads at once, each sending one
/// request after another while `take` grants one.
fn drive(
    client: &Client,
    arrivals: &Mutex<Arrivals>,
    take: &(dyn Fn() -> bool + Sync),
    clients: usize,
    spans: &Spans,
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{c}");
                    let mut log = ClientLog::default();
                    while take() {
                        let (seq, k, command) = arrivals.lock().expect("arrivals lock").next();
                        log.attempted += 1;
                        let open = spans.enter("daemon.request", seq);
                        let t = Instant::now();
                        let reply = client.submit(&tenant, 0, command);
                        let rtt = nanos(t.elapsed());
                        spans.exit(open);
                        let reply = match reply {
                            Ok(reply) => reply,
                            Err(e) => {
                                log.failures.push(format!("spec {k}: {e}"));
                                continue;
                            }
                        };
                        if reply.cached {
                            log.warm.push(rtt);
                        } else {
                            log.cold.push(rtt);
                        }
                        let first = log
                            .first
                            .entry(k)
                            .or_insert_with(|| reply.result_json.clone());
                        if *first != reply.result_json {
                            log.divergent.push(k);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Round trips and first response bytes over the whole run.
#[derive(Default)]
struct Tally {
    warm: Vec<f64>,
    cold: Vec<f64>,
    warm_adjusted: Vec<f64>,
    cold_adjusted: Vec<f64>,
    first: BTreeMap<u64, String>,
}

impl Tally {
    /// Adds one client's segment, its round trips adjusted by `probe_ns`.
    fn absorb(&mut self, report: &mut PhaseReport, log: ClientLog, probe_ns: f64) {
        report.attempted += log.attempted;
        report.failed += log.failures.len() as u64;
        if let Some(failure) = log.failures.first() {
            eprintln!("rackbench: daemon request failed: {failure}");
        }
        let adjust = |t: &f64| adjusted(*t, probe_ns, SERVICE_PROBE_REFERENCE_NS);
        self.warm_adjusted.extend(log.warm.iter().map(adjust));
        self.cold_adjusted.extend(log.cold.iter().map(adjust));
        self.warm.extend(log.warm);
        self.cold.extend(log.cold);
        for k in log.divergent {
            report
                .check_failures
                .push(format!("spec {k}: responses differ"));
        }
        for (k, bytes) in log.first {
            let seen = self.first.entry(k).or_insert_with(|| bytes.clone());
            report.check(*seen == bytes, || {
                format!("spec {k}: responses differ between clients")
            });
        }
    }
}

/// Runs the daemon workload in `dir`. Returns the report, the executor
/// and the daemon (still running, so traced runs can measure against it).
pub fn run(
    dir: &Path,
    seed: u64,
    load: Load,
    spans: &Spans,
    observer: &Observer,
    probe: &mut Probe,
) -> io::Result<(PhaseReport, Arc<Executor>, Daemon)> {
    let mut report = PhaseReport::default();
    let (exec, daemon) = timed_setup(&mut report, Some(probe), || {
        let exec = Arc::new(open_executor(dir, 1, observer)?);
        let daemon = Daemon::start(
            exec.clone(),
            DaemonConfig {
                workers: load.workers,
                observer: observer.clone(),
                ..DaemonConfig::default()
            },
        )?;
        Ok((exec, daemon))
    })?;

    let mut probe = ServiceProbe::start(load.workers, load.clients)?;
    let arrivals = Mutex::new(Arrivals::new(seed));
    let issued = AtomicUsize::new(0);
    let client = Client::new(daemon.addr(), REQUEST_TIMEOUT);
    let start = Instant::now();
    let per_segment = load.requests.div_ceil(SEGMENTS);
    let mut tally = Tally::default();
    let mut wall = 0.0;
    let mut before = probe.sample()?;
    for segment in 0..SEGMENTS {
        if start.elapsed() >= HARD_STOP {
            break;
        }
        let limit = ((segment + 1) * per_segment).min(load.requests);
        let take = || {
            start.elapsed() < HARD_STOP
                && issued
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n < limit).then_some(n + 1)
                    })
                    .is_ok()
        };
        let t = Instant::now();
        let logs = drive(&client, &arrivals, &take, load.clients, spans);
        wall += t.elapsed().as_secs_f64();
        let after = probe.sample()?;
        for log in logs {
            tally.absorb(&mut report, log, (before + after) / 2.0);
        }
        before = after;
    }
    let probe_samples = std::mem::take(&mut probe.samples);
    drop(probe);

    let distinct = arrivals.into_inner().expect("arrivals lock").commands;
    let puts = exec.store().stats().puts;
    report.check(puts == distinct.len() as u64, || {
        format!("{puts} store puts for {} distinct specs", distinct.len())
    });
    for (k, bytes) in &tally.first {
        match execute_oneshot(&exec, &distinct[*k as usize]) {
            Ok((true, oneshot)) => report.check(oneshot == *bytes, || {
                format!("spec {k}: daemon bytes differ from execute_oneshot")
            }),
            Ok((false, _)) => report
                .check_failures
                .push(format!("spec {k}: execute_oneshot missed the store")),
            Err(e) => report
                .check_failures
                .push(format!("spec {k}: execute_oneshot failed: {e}")),
        }
    }

    report.values.push(("wall_s", wall));
    report
        .values
        .push(("completed", (tally.warm.len() + tally.cold.len()) as f64));
    report.values.push(("distinct", distinct.len() as f64));
    report.samples.push(("service_probe", probe_samples));
    report.samples.push(("warm.adjusted", tally.warm_adjusted));
    report.samples.push(("cold.adjusted", tally.cold_adjusted));
    report.samples.push(("warm", tally.warm));
    report.samples.push(("cold", tally.cold));
    Ok((report, exec, daemon))
}
