//! Concurrency/determinism acceptance suite for `rackfabricd` — the issue's
//! criteria, verbatim:
//!
//! 1. a storm of ≥ 1000 concurrent mixed cold/warm submissions from ≥ 16
//!    client threads produces **zero** determinism violations: every
//!    response is byte-identical to the batch executor's answer for the
//!    same command, warm requests execute nothing (store puts == distinct
//!    scenarios), and the p99 of the response-time histogram is recorded
//!    in the obs registry and printed,
//! 2. N threads submitting the **same** command concurrently cost one
//!    store execution and receive one byte-identical answer,
//! 3. queued jobs cancel over the wire, the queue bound rejects overload,
//!    and neither disturbs the surviving jobs' bytes.
//!
//! After each of these, `status` reports `held == 0`: a connection lets its
//! job go before it writes the terminal event, so once every client has its
//! reply the scheduler holds nothing, however many requests it served.
//!
//! Flake resistance: the daemon binds port 0 (OS-assigned, no collisions),
//! every wait is bounded by a generous deadline, and a timeout panics with
//! the scheduler counters and metrics registry attached — the suite is
//! timing-independent on a 1-core container and a 4-vCPU CI runner alike.

use rackfabric::prelude::TopologySpec;
use rackfabric_cmd::command::Command;
use rackfabric_cmd::executor::Executor;
use rackfabric_daemon::prelude::*;
use rackfabric_obs::metrics::Registry;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::key::canonical_spec_json;
use rackfabric_sweep::lock::StoreLock;
use rackfabric_sweep::store::ResultStore;
use rackfabric_sweep::testdir::TestDir;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request client timeout: a liveness backstop, not a latency target.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn tmp_dir(tag: &str) -> TestDir {
    TestDir::new(&format!("rackfabricd-it-{tag}"))
}

/// A daemon over a fresh store in `dir`, with a metrics registry attached.
fn boot(dir: &TestDir, workers: usize, max_queue: usize) -> (Arc<Executor>, Daemon, Observer) {
    let observer = Observer::off().with_registry(Arc::new(Registry::new()));
    let store = ResultStore::open(dir.path()).unwrap();
    let runner = Runner::new(1).with_observer(observer.clone());
    let exec = Arc::new(Executor::new(store, runner));
    let daemon = Daemon::start(
        exec.clone(),
        DaemonConfig {
            workers,
            max_queue,
            observer: observer.clone(),
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    (exec, daemon, observer)
}

/// Tiny distinct scenarios: cheap to execute once, realistic to replay.
fn spec_pool(count: usize) -> Vec<Command> {
    (0..count)
        .map(|n| {
            let spec = ScenarioSpec::new(
                "daemon-acceptance",
                TopologySpec::grid(2, 2, 2),
                WorkloadSpec::Shuffle {
                    partition: Bytes::from_kib(2),
                    load: if n % 2 == 0 { 0.5 } else { 1.0 },
                },
            )
            .horizon(SimTime::from_millis(3))
            .seed(7000 + n as u64);
            Command::RunScenario {
                spec_json: canonical_spec_json(&spec),
            }
        })
        .collect()
}

/// The reference answers, produced by the plain batch path against an
/// independent store — no daemon, no scheduler, no sockets.
fn reference_lines(dir: &TestDir, commands: &[Command]) -> Vec<String> {
    let exec = Executor::new(ResultStore::open(dir.path()).unwrap(), Runner::new(1));
    commands
        .iter()
        .map(|command| {
            execute_oneshot(&exec, command)
                .expect("reference execution")
                .1
        })
        .collect()
}

/// True when a reply's events are exactly `accepted`, `started`, `done`.
fn ran_to_done(reply: &SubmitReply) -> bool {
    let events: Vec<Option<Event>> = reply.events.iter().map(|l| Event::from_line(l)).collect();
    matches!(
        events.as_slice(),
        [
            Some(Event::Accepted { .. }),
            Some(Event::Started { .. }),
            Some(Event::Done { .. })
        ]
    )
}

/// Bounded wait with diagnostics: on deadline, panics with the scheduler
/// counters and the metrics registry so a hung run explains itself.
fn wait_until(daemon: &Daemon, what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > deadline {
            let counts = daemon.scheduler().counts();
            let metrics = daemon
                .observer()
                .registry()
                .map(|r| r.render_json())
                .unwrap_or_default();
            panic!(
                "timed out after {deadline:?} waiting for {what}\n  scheduler: {counts:?}\n  metrics: {metrics}"
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn storm_of_mixed_cold_and_warm_requests_is_byte_deterministic() {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 63; // 16 × 63 = 1008 ≥ 1000
    const SPECS: usize = 8;

    let ref_dir = tmp_dir("storm-ref");
    let dir = tmp_dir("storm");
    let pool = Arc::new(spec_pool(SPECS));
    let reference = Arc::new(reference_lines(&ref_dir, &pool));

    let (exec, daemon, observer) = boot(&dir, 4, CLIENTS * PER_CLIENT);
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let client = client.clone();
        let pool = pool.clone();
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            let mut violations = Vec::new();
            for r in 0..PER_CLIENT {
                // Stride the pool so every thread mixes cold-contended and
                // warm scenarios in a different order.
                let n = (c + r * 5) % pool.len();
                let reply = client
                    .submit(
                        &format!("tenant-{}", c % 4),
                        (n % 3) as i64,
                        pool[n].clone(),
                    )
                    .unwrap_or_else(|e| panic!("client {c} request {r}: {e}"));
                if reply.result_json != reference[n] {
                    violations.push(format!(
                        "client {c} request {r} spec {n}:\n  daemon {}\n  batch  {}",
                        reply.result_json, reference[n]
                    ));
                }
            }
            violations
        }));
    }
    let violations: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert!(
        violations.is_empty(),
        "{} determinism violation(s):\n{}",
        violations.len(),
        violations.join("\n")
    );

    // Warm requests executed nothing: exactly one engine run per distinct
    // scenario, everything else answered by the store or dedup.
    assert_eq!(
        exec.store().stats().puts,
        SPECS as u64,
        "every non-first request must be served without executing"
    );
    let counts = daemon.scheduler().counts();
    assert_eq!(counts.rejected, 0, "the queue bound must admit the storm");
    assert_eq!(
        client.status().unwrap().held,
        0,
        "every job is let go once its clients have their replies"
    );

    // The p99 response time is recorded in the obs registry; print it.
    let registry = observer.registry().expect("boot() attaches a registry");
    let histogram = registry.histogram("daemon.response_ns", TimeDomain::Wall);
    assert_eq!(
        histogram.count(),
        counts.completed,
        "every completed job must record a response-time sample"
    );
    let to_ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "storm: {} requests ({} scheduled, {} dedup-attached, {} warm hits) — response time p50 ≤ {:.2} ms, p99 ≤ {:.2} ms, max {:.2} ms",
        CLIENTS * PER_CLIENT,
        counts.completed,
        counts.dedup_attached,
        counts.warm_hits,
        to_ms(histogram.quantile_bound(0.50)),
        to_ms(histogram.quantile_bound(0.99)),
        to_ms(histogram.max()),
    );

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn concurrent_identical_submissions_cost_one_execution_and_one_answer() {
    const THREADS: usize = 12;

    let ref_dir = tmp_dir("dedup-ref");
    let dir = tmp_dir("dedup");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);

    let (exec, daemon, _observer) = boot(&dir, 2, THREADS);
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);

    // All threads release together to maximise in-flight overlap; the
    // assertions below hold for any interleaving.
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let client = client.clone();
        let command = command.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            client
                .submit("same-tenant", 0, command)
                .unwrap_or_else(|e| panic!("thread {t}: {e}"))
        }));
    }
    let replies: Vec<SubmitReply> = handles
        .into_iter()
        .map(|h| h.join().expect("submit thread"))
        .collect();

    for reply in &replies {
        assert_eq!(
            reply.result_json, reference,
            "every thread must receive the batch path's bytes"
        );
    }
    assert_eq!(
        exec.store().stats().puts,
        1,
        "identical submissions must share one store execution"
    );
    let counts = daemon.scheduler().counts();
    assert_eq!(
        counts.completed + counts.dedup_attached,
        THREADS as u64,
        "every submission either scheduled a job or attached to one"
    );
    assert_eq!(
        client.status().unwrap().held,
        0,
        "the last of a job's watchers lets it go"
    );
    println!(
        "dedup: {THREADS} identical submissions — {} job(s) scheduled, {} attached, {} warm hit(s), 1 store put",
        counts.completed, counts.dedup_attached, counts.warm_hits
    );

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn queued_jobs_cancel_over_the_wire_and_backpressure_rejects_overload() {
    let ref_dir = tmp_dir("cancel-ref");
    let dir = tmp_dir("cancel");
    let pool = spec_pool(3);
    let reference = reference_lines(&ref_dir, &pool);

    // One worker, queue bound 2: occupancy is fully under test control.
    let (_exec, daemon, _observer) = boot(&dir, 1, 2);
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    let deadline = Duration::from_secs(90);

    // A: a `gc-store` job. GC takes the store's advisory lock, which this
    // test is already holding — the only worker blocks on the flock until
    // the guard drops, so occupancy below is deterministic, not a race
    // against a job's runtime. (The guard is declared after the daemon:
    // if an assertion unwinds, it releases before the daemon's Drop joins
    // the blocked worker.)
    let gate = StoreLock::exclusive(dir.path()).unwrap();
    let a = {
        let client = client.clone();
        let blocker = Command::GcStore { live: Vec::new() };
        std::thread::spawn(move || client.submit("blocker", 10, blocker))
    };
    wait_until(&daemon, "the blocker to start", deadline, || {
        daemon.scheduler().counts().active == 1
    });

    // B and C queue behind A; D overflows the bound and is rejected.
    let submit_queued = |n: usize| {
        let client = client.clone();
        let command = pool[n].clone();
        std::thread::spawn(move || client.submit(&format!("tenant-{n}"), 0, command))
    };
    let b = submit_queued(0);
    wait_until(&daemon, "B to queue", deadline, || {
        daemon.scheduler().counts().queued == 1
    });
    let c = submit_queued(1);
    wait_until(&daemon, "C to queue", deadline, || {
        daemon.scheduler().counts().queued == 2
    });
    let d = client.submit("tenant-d", 0, pool[2].clone());
    let err = d.expect_err("the queue bound must reject the fourth job");
    assert!(
        err.to_string().contains("queue full"),
        "rejection must carry the reason: {err}"
    );

    // Cancel B while it waits. Its client sees a cancellation, C's bytes
    // are untouched, and A completes normally.
    // Ids are assigned in submission order, and each submission above was
    // gated on its predecessor's state change: A=j-1, B=j-2, C=j-3.
    assert!(client.cancel("j-2").unwrap(), "B is queued and cancellable");
    let b_err = b
        .join()
        .unwrap()
        .expect_err("B must observe its cancellation");
    assert_eq!(b_err.kind(), std::io::ErrorKind::Interrupted);

    // Release the worker: A (gc of an empty store) completes, then C runs.
    drop(gate);
    let a_reply = a.join().unwrap().expect("the blocker completes");
    assert!(!a_reply.cached, "gc is never a warm hit");
    let c_reply = c.join().unwrap().expect("C completes after A");
    assert_eq!(
        c_reply.result_json, reference[1],
        "a cancellation next to C must not disturb its bytes"
    );

    let counts = daemon.scheduler().counts();
    assert_eq!(counts.cancelled, 1);
    assert_eq!(counts.rejected, 1);
    assert_eq!(counts.completed, 3, "A, B (cancelled) and C are terminal");
    assert_eq!(
        client.status().unwrap().held,
        0,
        "cancelled and finished jobs are let go once seen"
    );
    assert!(
        !client.cancel("j-2").unwrap(),
        "an id no longer held cancels as a finished job"
    );

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn a_stored_spec_is_answered_while_the_only_worker_is_blocked() {
    let ref_dir = tmp_dir("blocked-ref");
    let dir = tmp_dir("blocked");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, observer) = boot(&dir, 1, 4);
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    let deadline = Duration::from_secs(90);

    // The spec runs once, cold, and is stored.
    let cold = client.submit("warmup", 0, command.clone()).unwrap();
    assert!(!cold.cached);

    // Block the only worker as the cancel test does: a `gc-store` waits on
    // the store lock this test holds (the guard is declared after the
    // daemon, so an unwinding assertion releases it first).
    let gate = StoreLock::exclusive(dir.path()).unwrap();
    let blocker = {
        let client = client.clone();
        std::thread::spawn(move || {
            client.submit("blocker", 0, Command::GcStore { live: Vec::new() })
        })
    };
    wait_until(&daemon, "the blocker to start", deadline, || {
        daemon.scheduler().counts().active == 1
    });
    let before = client.status().unwrap();

    // The stored spec is answered on its connection thread, not behind the
    // blocker: all three lines, with the batch path's bytes.
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let client = client.clone();
        std::thread::spawn(move || tx.send(client.submit("warm", 0, command)));
    }
    let warm = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a stored spec waited behind the blocked worker")
        .unwrap();
    assert!(warm.cached);
    assert!(ran_to_done(&warm), "{:?}", warm.events);
    assert_eq!(warm.result_json, reference);

    let after = client.status().unwrap();
    assert_eq!(
        (after.completed, after.warm_hits),
        (before.completed + 1, before.warm_hits + 1),
        "a store answer counts as a completed warm job"
    );
    assert_eq!(
        (after.queued, after.active, after.held),
        (before.queued, before.active, before.held),
        "a store answer takes no queue slot, no worker and holds nothing"
    );
    let registry = observer.registry().expect("boot() attaches a registry");
    let histogram = registry.histogram("daemon.response_ns", TimeDomain::Wall);
    assert_eq!(
        histogram.count(),
        after.completed,
        "one sample per completed job"
    );

    drop(gate);
    assert!(
        !blocker
            .join()
            .unwrap()
            .expect("the blocker completes")
            .cached
    );
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn a_too_deeply_nested_request_line_is_malformed_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let ref_dir = tmp_dir("deep-ref");
    let dir = tmp_dir("deep");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, _observer) = boot(&dir, 1, 4);

    // 100,000 open brackets: a parser that recursed once per bracket would
    // overflow the connection thread's stack and abort the whole daemon.
    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |line: String| writer.write_all((line + "\n").as_bytes()).unwrap();
    let mut line = String::new();

    send("[".repeat(100_000));
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        Event::from_line(line.trim_end()),
        Some(Event::Error {
            job: None,
            reason: "malformed request".into()
        })
    );

    // The same connection still answers a normal request...
    send(Request::Status.canonical_json());
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(Event::from_line(line.trim_end()), Some(Event::Status(_))),
        "expected a status event, got {line}"
    );

    // ...and so does the daemon, with the batch path's bytes.
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    let reply = client.submit("after-deep-line", 0, command).unwrap();
    assert_eq!(reply.result_json, reference);

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn an_overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    use rackfabric_daemon::service::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Write};

    let ref_dir = tmp_dir("long-ref");
    let dir = tmp_dir("long");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, _observer) = boot(&dir, 1, 4);

    // One byte past the bound and no newline: a reader without a bound
    // would buffer on, waiting for the end of the line.
    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let overlong = usize::try_from(MAX_REQUEST_LINE + 1).unwrap();
    (&stream).write_all(&vec![b'x'; overlong]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        Event::from_line(line.trim_end()),
        Some(Event::Error {
            job: None,
            reason: "request line too long".into()
        })
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the daemon closes the connection, got {line:?}"
    );

    // A fresh client still gets the batch path's bytes.
    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    let reply = client.submit("after-long-line", 0, command).unwrap();
    assert_eq!(reply.result_json, reference);

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn sequential_submits_on_one_connection_never_wait_for_a_delayed_ack() {
    use std::io::{BufRead, BufReader, Write};

    let ref_dir = tmp_dir("nodelay-ref");
    let dir = tmp_dir("nodelay");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, _observer) = boot(&dir, 1, 4);

    // A plain socket, Nagle's algorithm left on: only the daemon's side
    // sets `TCP_NODELAY`. Without it, each request's `started` and `done`
    // lines wait for this end's delayed ACK (≈40 ms) once the connection
    // leaves quick-ACK mode, and 50 requests take seconds.
    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(&stream);
    let request = Request::Submit {
        tenant: "one-connection".into(),
        priority: 0,
        command,
    }
    .canonical_json()
        + "\n";
    let mut line = String::new();
    let mut submit = || {
        (&stream).write_all(request.as_bytes()).unwrap();
        loop {
            line.clear();
            assert_ne!(reader.read_line(&mut line).unwrap(), 0, "closed early");
            if let Some(result) = done_result_bytes(line.trim_end()) {
                assert_eq!(result, reference);
                return;
            }
        }
    };
    // The first submit runs the engine; the timed ones are warm.
    submit();
    let start = Instant::now();
    for _ in 0..50 {
        submit();
    }
    let elapsed = start.elapsed();
    println!("nodelay: 50 warm submits on one connection in {elapsed:.2?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "50 warm submits on one connection took {elapsed:?}"
    );

    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn one_client_serves_sequential_requests_over_one_connection() {
    let ref_dir = tmp_dir("reuse-ref");
    let dir = tmp_dir("reuse");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, observer) = boot(&dir, 1, 4);

    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    for n in 0..50 {
        let reply = client.submit("reuse", 0, command.clone()).unwrap();
        assert_eq!(reply.result_json, reference, "request {n}");
        // However soon the store answers, the job started before it ended.
        assert!(ran_to_done(&reply), "request {n}: {:?}", reply.events);
    }
    assert_eq!(client.status().unwrap().held, 0);
    let connections = observer
        .registry()
        .expect("boot() attaches a registry")
        .counter("daemon.connections", TimeDomain::Wall);
    assert_eq!(
        connections.get(),
        1,
        "sequential requests through one client share its connection"
    );

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn bundle_submits_are_refused_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let ref_dir = tmp_dir("bundle-ref");
    let dir = tmp_dir("bundle");
    let command = spec_pool(1).remove(0);
    let reference = reference_lines(&ref_dir, std::slice::from_ref(&command)).remove(0);
    let (_exec, daemon, _observer) = boot(&dir, 1, 4);

    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(&stream);
    let send = |line: String| (&stream).write_all((line + "\n").as_bytes()).unwrap();
    let mut next_event = || {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "closed early");
        line.trim_end().to_string()
    };
    let submit = |command: Command| {
        Request::Submit {
            tenant: "bundles".into(),
            priority: 0,
            command,
        }
        .canonical_json()
    };

    // An export-bundle command decodes, reaches a worker, and fails there:
    // only the sweep binary exports bundles.
    send(submit(Command::ExportBundle {
        dest: "campaign.rfb".into(),
    }));
    let events: Vec<Option<Event>> = (0..3).map(|_| Event::from_line(&next_event())).collect();
    assert_eq!(
        events,
        [
            Some(Event::Accepted { job: "j-1".into() }),
            Some(Event::Started { job: "j-1".into() }),
            Some(Event::Error {
                job: Some("j-1".into()),
                reason: "op \"export-bundle\" is not servable over the daemon API".into()
            }),
        ]
    );

    // No command imports a bundle: the request line itself is malformed.
    send(
        "{\"command\":{\"dest\":\"restored\",\"op\":\"import-bundle\",\"src\":\"campaign.rfb\"},\
         \"op\":\"submit\",\"priority\":0,\"tenant\":\"bundles\"}"
            .to_string(),
    );
    assert_eq!(
        next_event(),
        "{\"event\":\"error\",\"job\":null,\"reason\":\"malformed request\"}"
    );

    // The same connection then serves a normal request.
    send(submit(command));
    assert_eq!(
        Event::from_line(&next_event()),
        Some(Event::Accepted { job: "j-2".into() })
    );
    assert_eq!(
        Event::from_line(&next_event()),
        Some(Event::Started { job: "j-2".into() })
    );
    assert_eq!(done_result_bytes(&next_event()), Some(reference));

    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn execute_cell_and_bad_specs_are_answered_over_one_connection() {
    use rackfabric_cmd::decode_spec;
    use rackfabric_sweep::key::JobKey;
    use std::io::{BufRead, BufReader, Write};

    let ref_dir = tmp_dir("cell-ref");
    let dir = tmp_dir("cell");
    let specs: Vec<String> = spec_pool(2)
        .into_iter()
        .map(|command| match command {
            Command::RunScenario { spec_json } => spec_json,
            other => panic!("spec_pool builds run-scenario commands, not {other:?}"),
        })
        .collect();
    let key = JobKey::of_preimage(&specs[0]);
    let other_key = JobKey::of_preimage(&specs[1]);
    let cell = Command::ExecuteCell {
        key,
        spec_json: specs[0].clone(),
    };
    let after = Command::RunScenario {
        spec_json: specs[1].clone(),
    };
    let broken = "{\"name\":\"not-a-spec\"}".to_string();

    // The batch path's answers: the cell cold, then warm, then the request
    // that follows the failures.
    let ref_exec = Executor::new(ResultStore::open(ref_dir.path()).unwrap(), Runner::new(1));
    let cold = execute_oneshot(&ref_exec, &cell).unwrap();
    let warm = execute_oneshot(&ref_exec, &cell).unwrap();
    let served = execute_oneshot(&ref_exec, &after).unwrap();
    assert_eq!((cold.0, warm.0, served.0), (false, true, false));
    let done_line = |job: &str, (cached, result): &(bool, String)| {
        format!("{{\"cached\":{cached},\"event\":\"done\",\"job\":\"{job}\",\"result\":{result}}}")
    };

    let (_exec, daemon, _observer) = boot(&dir, 1, 4);
    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(&stream);
    let mut submit = |command: Command| {
        let line = Request::Submit {
            tenant: "cells".into(),
            priority: 0,
            command,
        }
        .canonical_json();
        (&stream).write_all((line + "\n").as_bytes()).unwrap();
        (0..3)
            .map(|_| {
                let mut line = String::new();
                assert_ne!(reader.read_line(&mut line).unwrap(), 0, "closed early");
                line.trim_end().to_string()
            })
            .collect::<Vec<String>>()
    };
    let opening = |job: &str| {
        [
            Event::Accepted { job: job.into() }.canonical_json(),
            Event::Started { job: job.into() }.canonical_json(),
        ]
    };
    let error = |job: &str, reason: String| {
        Event::Error {
            job: Some(job.into()),
            reason,
        }
        .canonical_json()
    };

    // An execute-cell carrying its own spec's key, cold and then warm.
    let lines = submit(cell.clone());
    assert_eq!(lines[..2], opening("j-1"));
    assert_eq!(lines[2], done_line("j-1", &cold));
    let lines = submit(cell);
    assert_eq!(lines[..2], opening("j-2"));
    assert_eq!(lines[2], done_line("j-2", &warm));

    // An execute-cell whose key belongs to another spec.
    let lines = submit(Command::ExecuteCell {
        key: other_key,
        spec_json: specs[0].clone(),
    });
    assert_eq!(lines[..2], opening("j-3"));
    assert_eq!(
        lines[2],
        error(
            "j-3",
            format!("key {other_key} does not match its spec (derived {key})")
        )
    );

    // A run-scenario whose spec does not decode.
    let reason = format!("bad spec: {}", decode_spec(&broken).unwrap_err());
    let lines = submit(Command::RunScenario { spec_json: broken });
    assert_eq!(lines[..2], opening("j-4"));
    assert_eq!(lines[2], error("j-4", reason));

    // The connection then serves a normal request.
    let lines = submit(after);
    assert_eq!(lines[..2], opening("j-5"));
    assert_eq!(lines[2], done_line("j-5", &served));

    let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
    client.shutdown().unwrap();
    daemon.wait();
}
