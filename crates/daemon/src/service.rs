//! The daemon itself: a TCP acceptor, per-connection protocol threads, and
//! a bounded worker pool draining the [`Scheduler`] through one shared
//! [`Executor`]. A connection carries requests one after another for as
//! long as its client keeps it open, and every accepted stream sets
//! `TCP_NODELAY`, so each event line leaves as soon as it is written.
//!
//! A `run-scenario` or `execute-cell` submit is resolved store-first on its
//! connection thread: the request line is read in place, the spec decoded
//! once, its key derived once and the store read once. A hit takes only a
//! job id and the completed and warm counts from the scheduler
//! ([`Scheduler::answered`]) and goes back as `accepted`, `started` and
//! `done` in one write, the result rendered once, straight from the stored
//! outcome ([`outcome_to_json`]). A miss is scheduled with the spec's key
//! preimage as its text; every other submit, a spec that does not decode
//! and a key that does not match its spec are scheduled as they came, and
//! a worker answers them with the same event lines as ever. The worker
//! keeps its own store-first check, so a result stored between the
//! connection thread's lookup and the worker still runs the engine once
//! per distinct spec.
//!
//! The design keeps every determinism property of the batch path because
//! the daemon *is* the batch path behind a socket: workers call the exact
//! executor methods the CLI calls, results come from the same shared
//! [`ResultStore`](rackfabric_sweep::store::ResultStore), and a response
//! payload is the canonical rendering of the outcome tree
//! ([`outcome_value`]) whose canonical text the batch path writes
//! ([`outcome_to_json`]). Concurrency changes who waits, never what is
//! computed.
//!
//! Worker trace lanes start at [`DAEMON_LANE_BASE`] (see the lane table in
//! `rackfabric-obs`). The service feeds the metrics registry with
//! `daemon.queue_depth` / `daemon.active_jobs` gauges, connection /
//! warm-hit / rejection / cancellation counters, and the
//! `daemon.response_ns` histogram (wall domain): a scheduled job's
//! enqueue-to-completion residence, a store answer's time from its request
//! line to its write. A store answer has no worker `job` span.
//!
//! A connection holds its claim on a submitted job as a guard: seeing the
//! job's end lets the claim go inside [`Scheduler::watch`], and dropping
//! the guard earlier (a watch timed out, a write to the client failed)
//! gives it up, so the scheduler lets go of every job once its clients are
//! done with it. A request line longer than [`MAX_REQUEST_LINE`] bytes is
//! refused and its connection closed, and the acceptor outlives `accept`
//! errors (counted as `daemon.accept_errors`).

use crate::proto::{self, Event, Request};
use crate::sched::{JobEnd, Observed, Scheduler, Submitted};
use rackfabric_bench::figures::{figure_defs, run_figure, FigureOptions, Scale};
use rackfabric_cmd::command::Command;
use rackfabric_cmd::decode_spec;
use rackfabric_cmd::executor::Executor;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::runner::JobOutcome;
use rackfabric_sim::json::{self, obj, string, uint, JsonValue};
use rackfabric_sweep::cancel::CancelToken;
use rackfabric_sweep::key::{canonical_spec_json, job_key, JobKey};
use rackfabric_sweep::store::{outcome_to_json, outcome_value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// First trace lane of the daemon's worker pool (worker `w` records on
/// `DAEMON_LANE_BASE + w`). See the lane table in the obs crate.
pub const DAEMON_LANE_BASE: u64 = 3000;

/// How long a connection watcher waits for a single job phase before
/// reporting an error instead of hanging the client forever. Generous:
/// this is a liveness backstop, not a latency target.
const WATCH_TIMEOUT: Duration = Duration::from_secs(300);

/// The longest request line the daemon reads, newline excluded. The largest
/// legitimate request is a `gc-store` naming every live key, about 35 bytes
/// a key: 16 MiB holds about 480k keys. Past it the daemon answers
/// `request line too long` and closes the connection, so no client can grow
/// a line buffer without limit.
pub const MAX_REQUEST_LINE: u64 = 16 << 20;

/// How long the acceptor pauses after a failed `accept` (a pending network
/// error, or no descriptor left) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker pool size (`0` = one per available core).
    pub workers: usize,
    /// Queue bound: submissions past this many waiting jobs are rejected.
    pub max_queue: usize,
    /// Listen address. Port `0` asks the OS for a free port — tests use
    /// this so parallel suites never collide.
    pub addr: SocketAddr,
    /// Service instrumentation (lanes, gauges, response histogram).
    /// Observability only: responses are byte-identical with it on or off.
    pub observer: Observer,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 0,
            max_queue: 1024,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            observer: Observer::off(),
        }
    }
}

/// A running daemon. Dropping it shuts the service down and joins every
/// worker.
pub struct Daemon {
    addr: SocketAddr,
    sched: Arc<Scheduler>,
    observer: Observer,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Daemon {
    /// Boots the service: binds the listener, starts the worker pool and
    /// the acceptor, and returns the handle. `exec` is shared — typically
    /// journaled, always store-backed.
    pub fn start(exec: Arc<Executor>, config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let sched = Arc::new(Scheduler::new(config.max_queue));
        let observer = config.observer.clone();
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let exec = exec.clone();
            let sched = sched.clone();
            let observer = observer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rackfabricd-worker-{w}"))
                    .spawn(move || worker_loop(w, &exec, &sched, &observer))?,
            );
        }
        {
            let sched = sched.clone();
            let observer = observer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("rackfabricd-accept".to_string())
                    .spawn(move || accept_loop(listener, exec, sched, observer))?,
            );
        }
        Ok(Daemon {
            addr,
            sched,
            observer,
            threads: Mutex::new(threads),
            stopped: AtomicBool::new(false),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's scheduler (tests inspect counters through it).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The daemon's observer (metrics snapshots, trace export).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Blocks until a client's `shutdown` request drains the scheduler,
    /// then completes the shutdown locally (joins workers). The serve
    /// binary's main loop.
    pub fn wait(&self) {
        while !self.sched.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
    }

    /// Drains and stops: queued jobs cancel, active campaigns interrupt at
    /// their next job boundary, workers and the acceptor join. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.sched.shutdown();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; it observes the drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        let mut threads = self.threads.lock().expect("daemon threads lock");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The acceptor: one protocol thread per connection, counted as
/// `daemon.connections`. Connection threads are detached — they die with
/// their sockets, and shutdown completes every job they could be watching.
/// A failed `accept` is counted and retried after [`ACCEPT_BACKOFF`]; only
/// a shutdown ends the loop.
fn accept_loop(
    listener: TcpListener,
    exec: Arc<Executor>,
    sched: Arc<Scheduler>,
    observer: Observer,
) {
    loop {
        let accepted = listener.accept();
        if sched.is_shutting_down() {
            return;
        }
        let Ok((stream, _)) = accepted else {
            observer.count("daemon.accept_errors", TimeDomain::Wall, 1);
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        observer.count("daemon.connections", TimeDomain::Wall, 1);
        // A request's events go out as separate writes; with Nagle's
        // algorithm on, each one after the first waits for the client's
        // delayed ACK. A stream that refuses the option still serves.
        let _ = stream.set_nodelay(true);
        let exec = exec.clone();
        let sched = sched.clone();
        let observer = observer.clone();
        let _ = std::thread::Builder::new()
            .name("rackfabricd-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(stream, &exec, &sched, &observer);
            });
    }
}

fn write_event(mut stream: &TcpStream, event: &Event) -> io::Result<()> {
    let mut line = event.canonical_json();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// One connection: read request lines, one after another, and answer each
/// with event lines. A submit streams its job's lifecycle (`accepted`,
/// `started`, terminal) before the next request is read, so a client can
/// keep the connection for its next request. Reads and writes share the
/// one socket descriptor, so a connection needs no second one.
fn serve_connection(
    stream: TcpStream,
    exec: &Executor,
    sched: &Scheduler,
    observer: &Observer,
) -> io::Result<()> {
    let writer = &stream;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE + 1)
            .read_line(&mut line)?;
        if read == 0 {
            return Ok(());
        }
        let received = Instant::now();
        if read as u64 > MAX_REQUEST_LINE && !line.ends_with('\n') {
            return write_event(
                writer,
                &Event::Error {
                    job: None,
                    reason: "request line too long".to_string(),
                },
            );
        }
        // The parser skips the line's trailing `\n` or `\r\n` as whitespace.
        if line.trim().is_empty() {
            continue;
        }
        let Some(request) = Request::from_line(&line) else {
            write_event(
                writer,
                &Event::Error {
                    job: None,
                    reason: "malformed request".to_string(),
                },
            )?;
            continue;
        };
        match request {
            Request::Submit {
                tenant,
                priority,
                command,
            } => {
                observer.count("daemon.submitted", TimeDomain::Wall, 1);
                let command = match resolve(exec, command) {
                    Resolved::Stored(outcome) => {
                        answer_from_store(writer, sched, observer, &outcome, received)?;
                        continue;
                    }
                    Resolved::Scheduled(command) => command,
                };
                match sched.submit(&tenant, priority, command) {
                    Submitted::Rejected(reason) => {
                        observer.count("daemon.rejected", TimeDomain::Wall, 1);
                        write_event(writer, &Event::Rejected { reason })?;
                    }
                    accepted => {
                        let id = accepted.job_id().expect("accepted submissions have ids");
                        // Claimed before the first write: a failed write
                        // gives the claim up as the guard drops.
                        let watch = Watch {
                            sched,
                            id,
                            saw_end: false,
                        };
                        observer.gauge_set(
                            "daemon.queue_depth",
                            TimeDomain::Wall,
                            sched.queue_depth() as i64,
                        );
                        write_event(writer, &Event::Accepted { job: job_name(id) })?;
                        stream_job(writer, watch)?;
                    }
                }
            }
            Request::Cancel { job } => {
                let ok = parse_job_name(&job).is_some_and(|id| sched.cancel(id));
                if ok {
                    observer.count("daemon.cancel_requests", TimeDomain::Wall, 1);
                    write_event(writer, &Event::Cancelled { job })?;
                } else {
                    write_event(
                        writer,
                        &Event::Error {
                            job: Some(job),
                            reason: "unknown or finished job".to_string(),
                        },
                    )?;
                }
            }
            Request::Status => {
                write_event(writer, &Event::Status(sched.counts()))?;
            }
            Request::Shutdown => {
                write_event(writer, &Event::ShuttingDown)?;
                sched.shutdown();
                return Ok(());
            }
        }
    }
}

/// Where a submit is answered.
enum Resolved {
    /// The store holds the scenario's outcome.
    Stored(JobOutcome),
    /// A worker runs the command.
    Scheduled(Command),
}

/// Resolves a `run-scenario` or `execute-cell` submit store-first: its spec
/// decoded once, its key derived once, the store read once. A miss is
/// scheduled with the spec's key preimage as its text, so equal specs make
/// equal commands however their requests spelled them. Every other
/// command, a spec that does not decode and a key that does not match its
/// spec go to a worker as they came, which answers them as it always did.
fn resolve(exec: &Executor, command: Command) -> Resolved {
    let (expect, spec_json) = match &command {
        Command::RunScenario { spec_json } => (None, spec_json),
        Command::ExecuteCell { key, spec_json } => (Some(*key), spec_json),
        _ => return Resolved::Scheduled(command),
    };
    let Ok(spec) = decode_spec(spec_json) else {
        return Resolved::Scheduled(command);
    };
    let preimage = canonical_spec_json(&spec);
    let key = JobKey::of_preimage(&preimage);
    if expect.is_some_and(|expected| expected != key) {
        return Resolved::Scheduled(command);
    }
    match exec.store().get(&key) {
        Some(outcome) => Resolved::Stored(outcome),
        None => Resolved::Scheduled(match expect {
            None => Command::RunScenario {
                spec_json: preimage,
            },
            Some(key) => Command::ExecuteCell {
                key,
                spec_json: preimage,
            },
        }),
    }
}

/// Answers a submit the store resolved, on its connection thread: a job id
/// from the scheduler, then `accepted`, `started` and `done` in one write.
/// The response sample is recorded before the write, so a client that has
/// its reply finds it recorded.
fn answer_from_store(
    writer: &TcpStream,
    sched: &Scheduler,
    observer: &Observer,
    outcome: &JobOutcome,
    received: Instant,
) -> io::Result<()> {
    let id = match sched.answered() {
        Ok(id) => id,
        Err(reason) => {
            observer.count("daemon.rejected", TimeDomain::Wall, 1);
            return write_event(writer, &Event::Rejected { reason });
        }
    };
    observer.count("daemon.warm_hits", TimeDomain::Wall, 1);
    let lines = store_answer(id, &outcome_to_json(outcome));
    observer.record(
        "daemon.response_ns",
        TimeDomain::Wall,
        received.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    let mut writer = writer;
    writer.write_all(lines.as_bytes())
}

/// The event lines of job `id`, which the store answered with the canonical
/// outcome `result`: `accepted`, `started` and `done`, each ending in a
/// newline.
fn store_answer(id: u64, result: &str) -> String {
    let job = job_name(id);
    let mut lines = String::with_capacity(result.len() + 160);
    for event in [
        Event::Accepted { job: job.clone() },
        Event::Started { job: job.clone() },
    ] {
        lines.push_str(&event.canonical_json());
        lines.push('\n');
    }
    lines.push_str(&proto::done_line(&job, true, |line| line.push_str(result)));
    lines.push('\n');
    lines
}

/// A connection's claim, as one of a job's watchers, on the job it
/// streams. Seeing the end lets the claim go inside [`Scheduler::watch`];
/// dropping the guard before that gives the claim up.
struct Watch<'a> {
    sched: &'a Scheduler,
    id: u64,
    saw_end: bool,
}

impl Watch<'_> {
    /// The job's next phase after `saw_started`, `None` once
    /// [`WATCH_TIMEOUT`] passes.
    fn next(&mut self, saw_started: bool) -> Option<Observed> {
        let phase = self.sched.watch(self.id, saw_started, WATCH_TIMEOUT);
        self.saw_end = matches!(phase, Some(Observed::Ended(_)));
        phase
    }
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        if !self.saw_end {
            self.sched.release(self.id);
        }
    }
}

/// Streams one job's phases to the client until a terminal event. The
/// claim is let go before the terminal event is written.
fn stream_job(writer: &TcpStream, mut watch: Watch<'_>) -> io::Result<()> {
    let id = watch.id;
    let mut saw_started = false;
    loop {
        match watch.next(saw_started) {
            Some(Observed::Started) => {
                saw_started = true;
                write_event(writer, &Event::Started { job: job_name(id) })?;
            }
            Some(Observed::Ended(end)) => {
                let event = match end {
                    JobEnd::Done { cached, result } => Event::Done {
                        job: job_name(id),
                        cached,
                        result,
                    },
                    JobEnd::Cancelled => Event::Cancelled { job: job_name(id) },
                    JobEnd::Failed(reason) => Event::Error {
                        job: Some(job_name(id)),
                        reason,
                    },
                };
                return write_event(writer, &event);
            }
            None => {
                drop(watch);
                return write_event(
                    writer,
                    &Event::Error {
                        job: Some(job_name(id)),
                        reason: "watch timed out".to_string(),
                    },
                );
            }
        }
    }
}

/// Public job id form (`j-17`).
fn job_name(id: u64) -> String {
    format!("j-{id}")
}

fn parse_job_name(name: &str) -> Option<u64> {
    name.strip_prefix("j-")?.parse().ok()
}

/// One worker: take jobs, execute through the shared executor, complete.
fn worker_loop(w: usize, exec: &Executor, sched: &Scheduler, observer: &Observer) {
    let lane = DAEMON_LANE_BASE + w as u64;
    if let Some(sink) = observer.trace() {
        sink.name_lane(lane, format!("daemon worker {w}"));
    }
    while let Some((id, tenant, command, cancel)) = sched.next_job() {
        observer.gauge_set(
            "daemon.queue_depth",
            TimeDomain::Wall,
            sched.queue_depth() as i64,
        );
        observer.gauge_set(
            "daemon.active_jobs",
            TimeDomain::Wall,
            sched.active_jobs() as i64,
        );
        let end = {
            let mut span = observer.span(lane, "job", "daemon");
            span.arg_u64("job", id);
            span.arg_str("tenant", tenant);
            span.arg_str("op", command.op());
            execute_command(exec, &command, &cancel)
        };
        match &end {
            JobEnd::Done { cached: true, .. } => {
                observer.count("daemon.warm_hits", TimeDomain::Wall, 1)
            }
            JobEnd::Done { .. } => observer.count("daemon.cold_runs", TimeDomain::Wall, 1),
            JobEnd::Cancelled => observer.count("daemon.cancelled", TimeDomain::Wall, 1),
            JobEnd::Failed(_) => observer.count("daemon.failed", TimeDomain::Wall, 1),
        }
        sched.complete_then(id, end, |residence| {
            observer.record(
                "daemon.response_ns",
                TimeDomain::Wall,
                residence.as_nanos().min(u64::MAX as u128) as u64,
            )
        });
        observer.gauge_set(
            "daemon.active_jobs",
            TimeDomain::Wall,
            sched.active_jobs() as i64,
        );
    }
}

/// Executes one command exactly as a daemon worker would, returning
/// `(cached, canonical_result_line)`. The CLI's `--oneshot` batch mode and
/// CI's byte-comparison gate use this to produce reference bytes with no
/// socket or scheduler in the path.
pub fn execute_oneshot(exec: &Executor, command: &Command) -> Result<(bool, String), String> {
    match execute_command(exec, command, &CancelToken::new()) {
        JobEnd::Done { cached, result } => Ok((cached, json::canonical(&result))),
        JobEnd::Cancelled => Err("cancelled".to_string()),
        JobEnd::Failed(reason) => Err(reason),
    }
}

/// Executes one command through the shared executor, producing the job's
/// terminal state. Scenario results are the canonical outcome encoding the
/// store itself uses, so a response is byte-comparable to a batch run.
fn execute_command(exec: &Executor, command: &Command, cancel: &CancelToken) -> JobEnd {
    if cancel.is_cancelled() {
        return JobEnd::Cancelled;
    }
    match command {
        Command::RunScenario { spec_json } => run_spec(exec, spec_json, None),
        Command::ExecuteCell { key, spec_json } => run_spec(exec, spec_json, Some(*key)),
        Command::RegenerateFigure { id, scale, budget } => {
            let Some(scale) = Scale::from_name(scale) else {
                return JobEnd::Failed(format!("unknown figure scale {scale:?}"));
            };
            let Some(def) = figure_defs(scale).into_iter().find(|def| def.id == *id) else {
                return JobEnd::Failed(format!("unknown figure {id:?}"));
            };
            let opts = FigureOptions {
                budget: *budget,
                max_new_jobs: None,
                cancel: Some(cancel.clone()),
            };
            match run_figure(def, scale, exec, &opts, &mut None) {
                Err(e) => JobEnd::Failed(e.to_string()),
                Ok(run) if run.interrupted => JobEnd::Cancelled,
                // A figure's answer: its export and the jobs it executed
                // (none means the store answered it).
                Ok(run) => JobEnd::Done {
                    cached: run.executed == 0,
                    result: obj([
                        ("executed", uint(run.executed as u64)),
                        ("export", JsonValue::String(run.export)),
                        ("figure", string(run.id)),
                        ("interrupted", JsonValue::Bool(false)),
                    ]),
                },
            }
        }
        Command::GcStore { live } => match exec.gc(live) {
            Err(e) => JobEnd::Failed(e.to_string()),
            Ok(stats) => JobEnd::Done {
                cached: false,
                result: obj([
                    ("kept", uint(stats.kept as u64)),
                    ("removed", uint(stats.removed as u64)),
                ]),
            },
        },
        other => JobEnd::Failed(format!(
            "op {:?} is not servable over the daemon API",
            other.op()
        )),
    }
}

/// Runs one scenario spec store-first. With `expect`, the journaled key is
/// verified against the decoded spec before any engine time is spent.
fn run_spec(
    exec: &Executor,
    spec_json: &str,
    expect: Option<rackfabric_sweep::key::JobKey>,
) -> JobEnd {
    let spec = match decode_spec(spec_json) {
        Ok(spec) => spec,
        Err(e) => return JobEnd::Failed(format!("bad spec: {e}")),
    };
    if let Some(expected) = expect {
        let derived = job_key(&spec);
        if derived != expected {
            return JobEnd::Failed(format!(
                "key {expected} does not match its spec (derived {derived})"
            ));
        }
    }
    match exec.run_scenario_tracked(&spec) {
        Err(e) => JobEnd::Failed(e.to_string()),
        Ok((outcome, cached)) => JobEnd::Done {
            cached,
            result: outcome_value(&outcome),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sweep::store::outcome_from_record;

    #[test]
    fn a_store_answer_is_the_lines_a_worker_answer_would_be() {
        let records = [
            include_str!("../../sweep/tests/fixtures/format4/completed.json"),
            include_str!("../../sweep/tests/fixtures/format4/unfinished.json"),
            include_str!("../../sweep/tests/fixtures/format4/failed_escaped.json"),
        ];
        for record in records {
            let outcome = outcome_from_record(record).expect("a FORMAT-4 record");
            let job = job_name(17);
            let want: String = [
                Event::Accepted { job: job.clone() },
                Event::Started { job: job.clone() },
                Event::Done {
                    job: job.clone(),
                    cached: true,
                    result: outcome_value(&outcome),
                },
            ]
            .iter()
            .map(|event| event.canonical_json() + "\n")
            .collect();
            assert_eq!(store_answer(17, &outcome_to_json(&outcome)), want);
        }
    }
}
